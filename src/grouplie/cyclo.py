"""Exact arithmetic in cyclotomic fields Q(zeta_m).

A scalar is a rational vector over the power basis 1, z, ..., z^(d-1) with
z = exp(2*pi*i/m) and d = deg Phi_m = phi(m).  Every result is reduced
through the m-th cyclotomic polynomial, so the stored form is canonical:
equality and zero tests are plain tuple comparisons.

Every map between powers of zeta is one Galois map,
zeta_m -> zeta_M^(k*M/m), reduced through the target's power table:
complex conjugation is k = -1 and the embedding into Q(zeta_M) is k = 1.
Inversion uses the norm: x^-1 is the product of the other Galois conjugates
of x divided by the rational N(x) = x * (that product).

Coefficients are kept as native ints whenever they are integral (the
overwhelmingly common case) and only promoted to Fraction when a division
makes them genuinely rational; int and Fraction compare and hash equal, so
canonicity is unaffected.

Class functions with algebraic-integer values (character tables, indicator
weights) are also held as int64 arrays of canonical coefficients, shape
(rows, classes, phi(m)); the power basis is an integral basis of Z[zeta_m],
so these arrays are exact.  `class_sums` is the one kernel on them, and a
Galois map acts on them as an integer phi(m) x phi(M) matrix whose rows are
power-table rows (`galois_array`).  Every array product is bounded first
from the operands' actual max-abs values and raises IntegerBoundExceeded if
the bound reaches 2^63; nothing wraps silently.  `class_sums` runs its
products in float64 (BLAS) when that bound is below 2^53, where every
product and partial sum is an exactly representable integer, and in int64
from 2^53 on.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from itertools import cycle
from math import gcd

import numpy as np

from .errors import (
    BadParameters,
    ConductorMismatch,
    DivisionByZero,
    IntegerBoundExceeded,
    InvariantViolated,
)

INT64_LIMIT = 2**63
FLOAT64_EXACT_LIMIT = 2**53  # every integer of smaller absolute value is a float64
_SUMS_BLOCK = 1 << 16  # plane products formed at once by class_sums


def _norm(q):
    """Collapse integral Fractions back to int."""
    if type(q) is int:
        return q
    return q.numerator if q.denominator == 1 else q


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    """Exact quotient of integer polynomials (coefficients low-degree first)."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for k in range(len(q) - 1, -1, -1):
        c = num[len(den) - 1 + k]
        if c % lead:
            raise ArithmeticError("polynomial division is not exact")
        q[k] = c // lead
        if q[k]:
            for i, di in enumerate(den):
                num[i + k] -= q[k] * di
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return q


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, low degree first."""
    if m < 1:
        raise ValueError(f"conductor must be positive, got {m}")
    poly = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in range(1, m):
        if m % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


@lru_cache(maxsize=None)
def context(m: int) -> "CycloContext":
    return CycloContext(m)


class CycloContext:
    """Per-conductor data: Phi_m, the reduction table for powers of zeta and
    the exponents k != 1 of the Galois automorphisms zeta -> zeta^k."""

    def __init__(self, m: int):
        self.m = m
        phi_m = cyclotomic_polynomial(m)
        d = len(phi_m) - 1
        self.degree = d
        # x^d == -(phi[0] + ... + phi[d-1] x^(d-1)) since Phi_m is monic
        top = tuple(-c for c in phi_m[:d])
        table: list[tuple[int, ...]] = []
        cur = [0] * d
        cur[0] = 1
        for _ in range(max(m, 2 * d - 1)):
            table.append(tuple(cur))
            lead = cur[d - 1]
            nxt = [0] + cur[: d - 1]
            if lead:
                nxt = [a + lead * b for a, b in zip(nxt, top)]
            cur = nxt
        self.power_table = tuple(table)
        # nonzero (index, coefficient) pairs of each row, for the scatter-reduce
        self._sparse_powers = tuple(
            tuple([(i, r) for i, r in enumerate(row) if r]) for row in table
        )
        self.power_array = np.array(table, dtype=np.int64)
        self._galois_powers: dict[tuple[int, int], tuple[int, ...]] = {}
        self.conjugate_exponents = tuple(k for k in range(2, m) if gcd(k, m) == 1)
        self._roots = tuple(cmath.exp(2j * cmath.pi * k / m) for k in range(m))
        self.zero = CycloScalar(self, (0,) * d)
        self._zeta_cache: dict[int, CycloScalar] = {}
        self.one = self.zeta(0)

    def from_fraction(self, q) -> "CycloScalar":
        q = _norm(Fraction(q))
        return CycloScalar(self, (q,) + (0,) * (self.degree - 1))

    def zeta(self, k: int) -> "CycloScalar":
        k = k % self.m
        out = self._zeta_cache.get(k)
        if out is None:
            out = CycloScalar(self, self.power_table[k])
            self._zeta_cache[k] = out
        return out

    def from_powers(self, coeffs) -> "CycloScalar":
        """Sum of a_k * zeta^k over an arbitrary power-indexed sequence."""
        return self._scatter([0] * self.degree, cycle(range(self.m)), coeffs)

    def _scatter(self, out: list, powers, coeffs) -> "CycloScalar":
        """Add a * zeta^k into the coefficient list `out` for every pair (k, a)
        of `powers` (indices into power_table) and `coeffs`, and return the
        canonical scalar.

        The one reduction of powers of zeta: from_powers, galois and the
        high-degree fold of __mul__ all go through it.
        """
        rows = self._sparse_powers
        for k, a in zip(powers, coeffs):
            if a:
                for i, r in rows[k]:
                    out[i] += a * r
        return CycloScalar(self, tuple([x if type(x) is int else _norm(x) for x in out]))

    def galois_powers(self, k: int, target: "CycloContext") -> tuple[int, ...]:
        """The power of zeta_M that zeta_m^j maps to under zeta_m -> zeta_M^(k*M/m),
        for j < phi(m); `target` has conductor M, a multiple of m."""
        key = (k % self.m, target.m)
        out = self._galois_powers.get(key)
        if out is None:
            step = k * (target.m // self.m)
            out = self._galois_powers[key] = tuple(j * step % target.m for j in range(self.degree))
        return out

    def __repr__(self):
        return f"CycloContext(m={self.m})"


class CycloScalar:
    """Element of Q(zeta_m) in canonical reduced form."""

    __slots__ = ("ctx", "coeffs", "_nz")

    def __init__(self, ctx: CycloContext, coeffs: tuple):
        self.ctx = ctx
        self.coeffs = coeffs
        self._nz = True if any(coeffs) else False

    # -- coercion ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, CycloScalar):
            if other.ctx is not self.ctx and other.ctx.m != self.ctx.m:
                raise ConductorMismatch(
                    f"mixed conductors {self.ctx.m} and {other.ctx.m}"
                )
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.from_fraction(other)
        return None

    # -- ring operations --------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self._nz:
            return o
        if not o._nz:
            return self
        return CycloScalar(self.ctx, tuple([a + b for a, b in zip(self.coeffs, o.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        if not self._nz:
            return self
        return CycloScalar(self.ctx, tuple(-a for a in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not o._nz:
            return self
        if not self._nz:
            return -o
        return CycloScalar(self.ctx, tuple(a - b for a, b in zip(self.coeffs, o.coeffs)))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ctx = self.ctx
        if not self._nz or not o._nz:
            return ctx.zero
        d = ctx.degree
        acc = [0] * (2 * d - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(o.coeffs):
                    if bj:
                        acc[i + j] += ai * bj
        return ctx._scatter(acc[:d], range(d, 2 * d - 1), acc[d:])

    __rmul__ = __mul__

    def inverse(self) -> "CycloScalar":
        """zeta^-k / c for c*zeta^k; otherwise the product of the other
        Galois conjugates divided by the norm."""
        ctx = self.ctx
        terms = [(k, a) for k, a in enumerate(self.coeffs) if a]
        if not terms:
            raise DivisionByZero(f"cannot invert 0 in Q(zeta_{ctx.m})")
        if len(terms) == 1:
            k, a = terms[0]
            inv_a = 1 / Fraction(a)
            return CycloScalar(ctx, tuple(_norm(r * inv_a) for r in ctx.power_table[-k % ctx.m]))
        others = ctx.one
        for k in ctx.conjugate_exponents:
            others = others * self.galois(k)
        norm = self * others
        if not (norm._nz and norm.is_rational()):
            raise InvariantViolated(f"norm of {self!r} is {norm!r}, not a nonzero rational")
        return others * (1 / Fraction(norm.coeffs[0]))

    def galois(self, k: int, target: CycloContext | int | None = None) -> "CycloScalar":
        """Image under zeta_m -> zeta_M^(k*M/m), M the target's conductor
        (default m), for k a unit mod m.  It is a ring map; k = -1 is
        complex conjugation and k = 1 the embedding into Q(zeta_M)."""
        ctx = _galois_target(self.ctx, k, target)
        if not self._nz:
            return ctx.zero
        return ctx._scatter([0] * ctx.degree, self.ctx.galois_powers(k, ctx), self.coeffs)

    def conj(self) -> "CycloScalar":
        """Ring conjugation zeta -> zeta^(m-1) (complex conjugation)."""
        return self.galois(-1)

    def embed(self, target: CycloContext | int) -> "CycloScalar":
        """Image under Q(zeta_m) -> Q(zeta_M), zeta_m -> zeta_M^(M/m)."""
        return self.galois(1, target)

    # -- predicates and conversions ---------------------------------------

    def __bool__(self):
        return self._nz

    def is_zero(self) -> bool:
        return not self._nz

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return Fraction(self.coeffs[0])

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.from_fraction(other)
        if not isinstance(other, CycloScalar):
            return NotImplemented
        return self.ctx.m == other.ctx.m and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ctx.m, self.coeffs))

    def __complex__(self):
        roots = self.ctx._roots
        return sum((float(a) * roots[k] for k, a in enumerate(self.coeffs) if a), 0j)

    # -- serialization ------------------------------------------------------

    def padded_coeffs(self) -> list[Fraction]:
        """Canonical coefficients zero-padded to length m."""
        pad = self.ctx.m - self.ctx.degree
        return [Fraction(c) for c in self.coeffs] + [Fraction(0)] * pad

    def to_json(self) -> list[str]:
        return [str(c) for c in self.padded_coeffs()]

    @classmethod
    def from_json(cls, m: int, data: list[str]) -> "CycloScalar":
        ctx = context(m)
        return ctx.from_powers([Fraction(s) for s in data])

    def __repr__(self):
        d = self.ctx.degree
        terms = []
        for k, a in enumerate(self.coeffs):
            if a:
                if k == 0:
                    terms.append(str(a))
                else:
                    z = f"z{self.ctx.m}" if d > 1 else "1"
                    terms.append(f"{a}*{z}^{k}" if k > 1 else f"{a}*{z}")
        return " + ".join(terms) if terms else "0"


def _galois_target(source: CycloContext, k: int,
                   target: CycloContext | int | None) -> CycloContext:
    """The target context of zeta_m -> zeta_M^(k*M/m), after checking that k
    is a unit mod m and that m divides M."""
    if gcd(k, source.m) != 1:
        raise BadParameters(f"{k} is not a unit mod {source.m}")
    if target is None:
        return source
    ctx = target if isinstance(target, CycloContext) else context(target)
    if ctx.m % source.m:
        raise ConductorMismatch(f"{source.m} does not divide {ctx.m}")
    return ctx


# ---------------------------------------------------------------------------
# int64 coefficient arrays


def check_int64_bound(bound: int, what: str) -> None:
    """Raise IntegerBoundExceeded unless every int64 value of a product whose
    absolute values are at most `bound` is exact."""
    if bound >= INT64_LIMIT:
        raise IntegerBoundExceeded(f"{what}: |entries| could reach {bound} >= 2^63")


def check_float64_bound(bound: int, what: str) -> None:
    """Raise IntegerBoundExceeded unless every float64 value of a product of
    integers whose partial sums are at most `bound` in absolute value is an
    exact integer."""
    if bound >= FLOAT64_EXACT_LIMIT:
        raise IntegerBoundExceeded(f"{what}: |entries| could reach {bound} >= 2^53")


def max_abs(x: np.ndarray) -> int:
    """The largest |entry| of an int64 array, as a Python int (0 if empty)."""
    return max(int(x.max()), -int(x.min())) if x.size else 0


def scalar_of(coeffs: np.ndarray, ctx: CycloContext) -> CycloScalar:
    """The CycloScalar with the canonical coefficient vector `coeffs`."""
    return CycloScalar(ctx, tuple(coeffs.tolist()))


def galois_array(x: np.ndarray, k: int, source: CycloContext,
                 target: CycloContext | int | None = None) -> np.ndarray:
    """CycloScalar.galois applied to every coefficient vector of `x`."""
    ctx = _galois_target(source, k, target)
    # row j is the canonical form of the image of zeta_m^j
    mat = ctx.power_array[list(source.galois_powers(k, ctx))]
    check_int64_bound(source.degree * max_abs(x) * max_abs(mat), "Galois map")
    return x @ mat


def times_roots(x: np.ndarray, exponents: np.ndarray, ctx: CycloContext) -> np.ndarray:
    """x[..., c, :] times zeta^exponents[a, c] for every row a of the (A, k)
    `exponents` and every column c of a coefficient array, as one array
    (A, ..., k, phi(m)): coefficient j moves to the canonical form of
    zeta^(e_ac + j)."""
    powers = (np.asarray(exponents)[:, :, None] + np.arange(ctx.degree)) % ctx.m
    mats = ctx.power_array[powers]
    check_int64_bound(ctx.degree * max_abs(x) * max_abs(mats), "root-of-unity product")
    return np.einsum("...cj,acjl->a...cl", x, mats)


def class_sums(a: np.ndarray, b: np.ndarray, w, ctx: CycloContext) -> np.ndarray:
    """S[i, j] = sum_c w[c] * a[i, c] * b[j, c] in Q(zeta_m), exactly.

    `a` (ra, k, d) and `b` (rb, k, d) are canonical coefficient arrays in
    `ctx` and `w` holds k integer weights.  One matmul against the weighted
    `b` forms the product of every coefficient plane t of `a` with every
    plane s of `b`, and one matmul with the power-table rows of zeta^(t+s)
    reduces them to (ra, rb, d); rows of `a` go through in blocks of at most
    _SUMS_BLOCK plane products.  The products run in float64 (BLAS) when the
    proven bound on every absolute sum is below 2^53, where every product and
    partial sum is an exactly representable integer, and in int64 otherwise.
    """
    d = ctx.degree
    w = [int(v) for v in w]
    max_b = max_abs(b)
    prod_bound = sum(map(abs, w)) * d * max_abs(a) * max_b
    weighted_bound = max(map(abs, w), default=0) * max_b
    check_int64_bound(max(prod_bound, weighted_bound), "class sum")
    fold = ctx.power_array[: 2 * d - 1]
    fold_bound = prod_bound * int(np.abs(fold).sum(axis=0).max())
    check_int64_bound(fold_bound, "class sum reduction")
    dtype = np.float64 if max(fold_bound, weighted_bound) < FLOAT64_EXACT_LIMIT else np.int64
    ra, k, rb = a.shape[0], a.shape[1], b.shape[0]
    # (k, rb * d): row c holds w[c] * b[j, c, :] for every j
    bw = (b * np.array(w, dtype=dtype)[None, :, None]).transpose(1, 0, 2).reshape(k, rb * d)
    # row t * d + s: the canonical form of zeta^(t + s)
    shift = fold[np.add.outer(np.arange(d), np.arange(d)).ravel()].astype(dtype)
    out = np.empty((ra, rb, d), dtype=np.int64)
    step = max(1, _SUMS_BLOCK // max(1, rb * d * d))
    for i in range(0, ra, step):
        rows = a[i:i + step]
        n = len(rows)
        planes = rows.transpose(0, 2, 1).astype(dtype).reshape(n * d, k)
        # products[(i, j), t * d + s] = sum_c a[i, c, t] * w[c] * b[j, c, s]
        products = (planes @ bw).reshape(n, d, rb, d).transpose(0, 2, 1, 3)
        out[i:i + step] = (products.reshape(n * rb, d * d) @ shift).reshape(n, rb, d)
    return out
