"""Exponentials of antisymmetrized generators in cyclic group algebras.

In the convolution algebra of the cyclic group of order N, with y the
generator and omega a unit-modulus twist, the exponential of
(z/2)(y - omega y^-1) has y^r coefficient

    sum over m = r (mod N) of J_m(z*phi) * phi^(-m),      phi^2 = omega.

The fold is computed from the power series of the Bessel functions J_m and
cross-checked against a matrix exponential of the regular representation.
All arithmetic here is double-precision floating point; the series tails
give rigorous truncation bounds.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BadParameters, TruncationInsufficient
from .groups import ORDER_CAP

_MAX_TERMS = 400


def bessel_j(m: int, w: complex) -> complex:
    """J_m(w) by its power series; J_(-m)(w) = (-1)^m J_m(w)."""
    if m < 0:
        return (-1) ** m * bessel_j(-m, w)
    half = w / 2.0
    term = 1.0 + 0j  # (w/2)^m / m!, built incrementally to dodge overflow
    for k in range(1, m + 1):
        term *= half / k
    total = term
    sq = -(half * half)
    k = 1
    while True:
        term = term * sq / (k * (k + m))
        total += term
        k += 1
        if abs(term) < 1e-20 * max(1.0, abs(total)) or k > _MAX_TERMS:
            break
    return total


def _exp_factor(z_abs: float) -> float:
    """2 exp(|w|^2/4), the fold bound's factor no truncation changes; inf from |w| ~ 53.3."""
    try:
        return 2.0 * math.exp(z_abs * z_abs / 4.0)
    except OverflowError:
        return math.inf


def _fold_tail_bound(z_abs: float, m_max: int) -> float:
    """Bound on sum over |m| > m_max of |J_m(w)|, |w| = z_abs.

    Uses |J_m(w)| <= (|w|/2)^|m| / |m|! * exp(|w|^2/4).
    """
    front = _exp_factor(z_abs)
    if front == math.inf:
        return math.inf
    half = z_abs / 2.0
    total = 0.0
    # (|w|/2)^(m_max+1) / (m_max+1)!, built incrementally to dodge overflow
    term = math.prod(half / k for k in range(1, m_max + 2))
    m = m_max + 1
    while True:
        total += term
        m += 1
        ratio = half / m
        term *= half / m
        if ratio < 0.5 and term < 1e-300:
            break
        if ratio < 0.5 and term < 1e-22 * max(total, 1e-300):
            total += term / (1.0 - ratio)  # geometric closure of the rest
            break
        if m > m_max + 10000:
            return math.inf
    return front * total


@dataclass(frozen=True)
class BesselExpansion:
    n: int
    omega: complex
    phi: complex
    z: complex
    coefficients: tuple[complex, ...]
    truncation: int
    error_bound: float

    def to_json_dict(self) -> dict:
        return {
            "N": self.n,
            "omega": [self.omega.real, self.omega.imag],
            "phi": [self.phi.real, self.phi.imag],
            "z": [self.z.real, self.z.imag],
            "coefficients": [[c.real, c.imag] for c in self.coefficients],
            "truncation": self.truncation,
            "error_bound": self.error_bound,
        }


def default_truncation(n: int, z: complex) -> int:
    return max(n, math.ceil(4 * abs(z)) + 30)


def exp_cyclic(n: int, omega: complex, z: complex,
               truncation: int | None = None,
               tol: float | None = None,
               phi: complex | None = None) -> BesselExpansion:
    """Folded Bessel coefficients of exp((z/2)(y - omega y^-1)) in C[Z/n].

    The result does not depend on which square root phi of omega is used;
    a phi may be passed explicitly to exercise that invariance.
    """
    if not 2 <= n <= ORDER_CAP:
        raise BadParameters(f"cyclic order must be in [2, {ORDER_CAP}], got {n}")
    if abs(abs(omega) - 1.0) > 1e-9:
        raise BadParameters(f"omega must have modulus 1, got |omega| = {abs(omega)}")
    if truncation is not None and truncation < n:
        raise BadParameters(f"truncation {truncation} below the cyclic order {n}")
    # the tail bound is checked before the fold sums its ~8|z| Bessel series,
    # and an infinite one before 4|z| is turned into a truncation
    if tol is not None and _exp_factor(abs(z)) == math.inf:
        raise TruncationInsufficient(
            f"tail bound inf exceeds requested tolerance {tol:.3e}; "
            f"no truncation gives a finite bound at |z| = {abs(z):.6g}"
        )
    m_max = truncation if truncation is not None else default_truncation(n, z)
    bound = _fold_tail_bound(abs(z), m_max)
    if tol is not None and bound > tol:
        raise TruncationInsufficient(
            f"tail bound {bound:.3e} exceeds requested tolerance {tol:.3e}; "
            f"raise the truncation above {m_max}"
        )
    if phi is None:
        phi = cmath.sqrt(omega)
    w = z * phi
    coeffs = [0j] * n
    for m in range(-m_max, m_max + 1):
        coeffs[m % n] += bessel_j(m, w) * phi ** (-m)
    return BesselExpansion(n, omega, phi, z, tuple(coeffs), m_max, bound)


def exp_matrix_oracle(n: int, omega: complex, z: complex) -> np.ndarray:
    """Coefficients of the same exponential from the regular representation.

    The generator acts as the cyclic shift C; the element maps to
    (z/2)(C - omega C^-1) and the coefficient vector is the first column of
    its matrix exponential (Pade scaling-and-squaring).
    """
    if not 2 <= n <= ORDER_CAP:
        raise BadParameters(f"cyclic order must be in [2, {ORDER_CAP}], got {n}")
    import scipy.linalg  # here, so that importing grouplie does not load scipy

    a = np.zeros((n, n), dtype=complex)
    for k in range(n):
        a[(k + 1) % n, k] += z / 2.0
        a[(k - 1) % n, k] -= omega * z / 2.0
    return scipy.linalg.expm(a)[:, 0]


def deviation(expansion: BesselExpansion, oracle: np.ndarray) -> float:
    """Max coefficient difference between the fold and the matrix oracle
    (from exp_matrix_oracle with the expansion's n, omega and z)."""
    return float(max(abs(c - o) for c, o in zip(expansion.coefficients, oracle)))
