"""Exact character tables via modular diagonalization.

The class-multiplication matrices commute and are simultaneously
diagonalizable over F_p once p = 1 (mod m) with m the group exponent and
p > 2*sqrt(#G).  Their common eigenvectors, normalized at the identity
class, are the central characters omega(c) = |c| chi(c) / chi(1).  Degrees
come out of the orthogonality relation, character values mod p out of
omega, and the exact cyclotomic value out of the multiplicities of each
root of unity among the eigenvalues of a class representative (an inverse
DFT over its power classes, evaluated mod p and lifted).  The finished
table is certified exactly by its shape, its degree column and the row
orthogonality relation, which for a square table implies the column one.

The common eigenspaces are split by random linear combinations of the class
matrices.  On each space, the combination's eigenvalues l_1..l_r are the
roots of its characteristic polynomial, and the l_i eigenspace is the image
of the Lagrange projector q_i = prod_(j != i) (x - l_j): all q_i come from
one synthetic division of mu = prod_j (x - l_j), and each projector from the
stack of matrix powers with one tensordot.  This is exact because p = 1
(mod m) exceeds every prime divisor of #G, so the class algebra over F_p is
semisimple and every combination is diagonalizable on every common
eigenspace.  If that ever fails, the projector images gain dimensions (or
lose them, when the roots do not split the characteristic polynomial) and
the split raises LiftInconsistent.

The modular steps run on int64 arrays of residues: elimination, restriction
to an eigenspace, the projectors, the random combination of class matrices
and the lift (one DFT matmul per class, for every irrep at once).  A sum of
t products of residues is bounded by t (p - 1)^2 before it is formed (t is
2, the number of classes, an eigenspace dimension, the number of eigenvalues
or an element order) and raises IntegerBoundExceeded at 2^63.  The table
is the lifted int64 coefficient array; the certification evaluates the row
relation on it with one cyclo.class_sums call, and CycloScalars are made
only where output renders the values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import cyclo
from .errors import InvariantViolated, LiftInconsistent, PrimeSearchFailed
from .groups import ConjugacyData, GroupTable, conjugacy_data

_PRIME_BOUND = 1_000_000


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Exact irreducible character values per (irrep, conjugacy class)."""

    group: GroupTable
    class_data: ConjugacyData
    degrees: tuple[int, ...]
    # canonical coefficients, read-only int64 (irrep, class, phi(m)); nested
    # rows of integer coefficient vectors are converted on construction, and
    # any other entry (a float, a Fraction) raises InvariantViolated
    values: np.ndarray
    prime: int

    def __post_init__(self):
        values = np.asarray(self.values)
        if values.dtype.kind != "i":
            raise InvariantViolated(f"character values must be integer coefficients, "
                                    f"not {values.dtype} entries")
        values = np.array(values, dtype=np.int64)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def num_irreps(self) -> int:
        return len(self.degrees)

    def context(self) -> cyclo.CycloContext:
        return cyclo.context(self.group.exponent)

    def scalar_rows(self) -> list[list[cyclo.CycloScalar]]:
        """The values as CycloScalars, one list per irrep, for output."""
        ctx = self.context()
        return [[cyclo.scalar_of(v, ctx) for v in row] for row in self.values]

    def to_json_dict(self) -> dict:
        rows = self.scalar_rows()
        return {
            "group": self.group.name,
            "order": self.group.order,
            "exponent": self.group.exponent,
            "prime": self.prime,
            "class_sizes": list(self.class_data.sizes),
            "class_representatives": list(self.class_data.representatives),
            "degrees": list(self.degrees),
            "values": [[v.to_json() for v in row] for row in rows],
            "values_float": [[[z.real, z.imag] for z in map(complex, row)] for row in rows],
        }


def class_constants(group: GroupTable, cd: ConjugacyData) -> np.ndarray:
    """a[i, j, k] = number of (x, y) in c_i x c_j with x*y = z_k (fixed rep).

    Independent of the chosen representative z_k.
    """
    k = cd.num_classes
    class_of = np.array(cd.class_of)
    mult = group.mult_array()
    # y[x, r] = x^-1 * z_r lies in class_of[y]; x itself lies in class_of[x]
    y = mult[np.array(group.inverse)][:, np.array(cd.representatives)]
    flat = (class_of[:, None] * k + class_of[y]) * k + np.arange(k)
    return np.bincount(flat.ravel(), minlength=k ** 3).reshape(k, k, k)


# ---------------------------------------------------------------------------
# arithmetic mod p


def _is_prime(x: int) -> bool:
    if x < 2:
        return False
    f = 2
    while f * f <= x:
        if x % f == 0:
            return False
        f += 1
    return True


def _find_prime(m: int, order: int, skip: int = 0) -> int:
    """Smallest prime p = 1 (mod m) with p*p > 4*order, skipping `skip` hits."""
    p = m + 1
    found = 0
    while p < _PRIME_BOUND:
        if p * p > 4 * order and _is_prime(p):
            if found == skip:
                return p
            found += 1
        p += m
    raise PrimeSearchFailed(f"no prime p = 1 (mod {m}) with p > 2*sqrt({order}) below {_PRIME_BOUND}")


def _primitive_root(p: int) -> int:
    n = p - 1
    factors = []
    x, f = n, 2
    while f * f <= x:
        if x % f == 0:
            factors.append(f)
            while x % f == 0:
                x //= f
        f += 1
    if x > 1:
        factors.append(x)
    for g in range(2, p):
        if all(pow(g, n // q, p) != 1 for q in factors):
            return g
    raise PrimeSearchFailed(f"no primitive root mod {p}")  # unreachable for prime p


def _check_mod_bound(terms: int, p: int) -> None:
    """Sums of `terms` products of two residues mod p must stay exact in int64."""
    cyclo.check_int64_bound(terms * (p - 1) ** 2, f"sum of {terms} products mod {p}")


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    _check_mod_bound(a.shape[-1], p)
    return a @ b % p


def _rref_mod(rows: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot_columns).

    Each step jumps to the next column with a nonzero entry below the last
    pivot, so elimination stops as soon as the remaining rows are zero.
    """
    _check_mod_bound(2, p)
    a = rows % p
    pivots: list[int] = []
    r = c = 0
    while r < len(a):
        live = np.flatnonzero(a[r:, c:].any(axis=0))
        if not live.size:
            break
        c += int(live[0])
        piv = r + int(np.flatnonzero(a[r:, c])[0])
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        col = a[:, c].copy()
        col[r] = 0
        hit = np.flatnonzero(col)
        a[hit] = (a[hit] - np.outer(col[hit], a[r])) % p
        pivots.append(c)
        r += 1
        c += 1
    return a[:r], pivots


def _charpoly_mod(a, p: int) -> list[int]:
    """Characteristic polynomial mod p (low degree first), via Hessenberg form."""
    h = np.array(a, dtype=np.int64) % p
    n = len(h)
    _check_mod_bound(n + 1, p)
    for c in range(n - 2):
        nz = np.flatnonzero(h[c + 1:, c])
        if not nz.size:
            continue
        piv = c + 1 + int(nz[0])
        if piv != c + 1:
            h[[piv, c + 1]] = h[[c + 1, piv]]
            h[:, [piv, c + 1]] = h[:, [c + 1, piv]]
        # one similarity: rows c+2.. lose f times row c+1, which clears column
        # c below the subdiagonal, and column c+1 gains f times columns c+2..
        f = h[c + 2:, c] * pow(int(h[c + 1, c]), p - 2, p) % p
        h[c + 2:, c:] = (h[c + 2:, c:] - np.outer(f, h[c + 1, c:])) % p
        h[:, c + 1] = (h[:, c + 1] + h[:, c + 2:] @ f) % p
    # charpoly recurrence on the Hessenberg form: p_k = (x - h[k-1, k-1]) p_(k-1)
    # - sum_i h[k-1-i, k-1] * (product of i subdiagonal entries) * p_(k-1-i)
    hl = h.tolist()
    polys = np.zeros((n + 1, n + 1), dtype=np.int64)
    polys[0, 0] = 1
    for k in range(1, n + 1):
        coefs = [hl[k - 1][k - 1]]
        sub = 1
        for i in range(1, k):
            sub = sub * hl[k - i][k - i - 1] % p
            if not sub:
                break
            coefs.append(hl[k - 1 - i][k - 1] * sub % p)
        polys[k, 1:] = polys[k - 1, :-1]
        polys[k] = (polys[k] - np.array(coefs) @ polys[k - 1 - np.arange(len(coefs))]) % p
    return polys[n].tolist()


def _poly_roots_mod(poly: list[int], p: int) -> list[int]:
    """Every root in F_p, in increasing order: Horner's rule at all residues."""
    _check_mod_bound(2, p)
    x = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return np.flatnonzero(acc == 0).tolist()


def _restrict_mod(mat: np.ndarray, basis: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Matrix of `mat` acting on span(basis); basis rows are in RREF.

    A vector of the span is the combination of the basis rows with its own
    entries at the pivot columns as coefficients, so the coordinates of the
    images are read off there.
    """
    images = _matmul_mod(basis, mat.T, p)
    coords = images[:, pivots]
    if not np.array_equal(_matmul_mod(coords, basis, p), images):
        raise LiftInconsistent("eigenspace is not invariant; table computation bug")
    # row j holds the coordinates of the image of basis vector j: transpose
    return coords.T


def _eigenspaces(mat: np.ndarray, basis: np.ndarray, p: int) -> list:
    """The eigenspaces of `mat` (acting on coordinate columns over the rows
    of `basis`), one per root of its characteristic polynomial in increasing
    order, each as (RREF basis, pivot columns) of the full space.

    With distinct roots l_1..l_r and mu = prod_j (x - l_j), the l_i
    eigenspace is the image of the Lagrange projector q_i(mat) with
    q_i = mu / (x - l_i), provided `mat` is diagonalizable; the columns of
    q_i(mat) are the rows of q_i(mat^T).  Otherwise the images gain
    dimensions, or lose them if the roots do not account for the whole
    characteristic polynomial, and the caller's dimension count fails.
    """
    lams = np.array(_poly_roots_mod(_charpoly_mod(mat, p), p), dtype=np.int64)
    r, d = len(lams), len(mat)
    if not r:
        return []
    # mu, high degree first, then every q_i by one synthetic division
    mu = np.zeros(r + 1, dtype=np.int64)
    mu[0] = 1
    for lam in lams.tolist():
        mu[1:] = (mu[1:] - lam * mu[:-1]) % p
    q = np.ones((r, r), dtype=np.int64)
    for t in range(1, r):
        q[:, t] = (mu[t] + lams * q[:, t - 1]) % p
    # powers of mat^T, then q_i(mat^T) = sum_t q[i, r-1-t] (mat^T)^t for each i
    powers = np.empty((r, d, d), dtype=np.int64)
    powers[0] = np.eye(d, dtype=np.int64)
    for t in range(1, r):
        powers[t] = _matmul_mod(powers[t - 1], mat.T, p)
    _check_mod_bound(r, p)
    spaces = []
    for qi in q[:, ::-1]:
        coords, _ = _rref_mod(np.tensordot(qi, powers, axes=1) % p, p)
        spaces.append(_rref_mod(_matmul_mod(coords, basis, p), p))
    return spaces


def _split_eigenspaces(consts: np.ndarray, p: int, rng: random.Random) -> list:
    """Common eigenspaces mod p of the class matrices consts[i], each as
    (RREF basis, pivot columns): split with random linear combinations
    until every space is a line."""
    k = len(consts)
    spaces = [_rref_mod(np.eye(k, dtype=np.int64), p)]  # checks p before any product
    consts = consts % p
    for _ in range(32):
        if all(len(b) == 1 for b, _ in spaces):
            return spaces
        coeffs = np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64)
        _check_mod_bound(k, p)
        combo = np.tensordot(coeffs, consts, axes=1) % p
        new_spaces = []
        for basis, pivots in spaces:
            if len(basis) == 1:
                new_spaces.append((basis, pivots))
            else:
                new_spaces += _eigenspaces(_restrict_mod(combo, basis, pivots, p), basis, p)
        if sum(len(b) for b, _ in new_spaces) != k:
            raise LiftInconsistent("eigenspace splitting lost or gained dimensions")
        spaces = new_spaces
    raise LiftInconsistent("eigenspace splitting did not converge after 32 rounds")


def _canonical_order(degrees: list[int], coeffs: np.ndarray, ctx: cyclo.CycloContext) -> list[int]:
    """Irrep order by degree, then the float embedding of the row, then the
    exact coefficients: the same table whatever the seed or prime."""
    order_key = []
    for i, row in enumerate(coeffs.tolist()):
        exact = tuple(map(tuple, row))
        emb = tuple((z.real, z.imag) for z in (complex(cyclo.CycloScalar(ctx, v)) for v in exact))
        order_key.append((degrees[i], emb, exact, i))
    order_key.sort()
    return [entry[3] for entry in order_key]


# ---------------------------------------------------------------------------
# the table


def character_table(group: GroupTable, *, seed: int = 0, prime: int | None = None) -> CharacterTable:
    cd = conjugacy_data(group)
    k = cd.num_classes
    m = group.exponent
    n = group.order
    p = prime if prime is not None else _find_prime(m, n)
    if (p - 1) % m or p * p <= 4 * n:
        raise PrimeSearchFailed(f"prime {p} is not valid for exponent {m}, order {n}")
    _check_mod_bound(2, p)  # before the size check, so a prime past int64 reports that
    if p >= _PRIME_BOUND:
        # _poly_roots_mod evaluates a characteristic polynomial at every residue
        raise PrimeSearchFailed(
            f"prime {p} is too large: the eigenvalue search needs p < {_PRIME_BOUND}")
    if not _is_prime(p):  # trial division, so only once p is below the bound
        raise PrimeSearchFailed(f"{p} is not a prime")

    spaces = _split_eigenspaces(class_constants(group, cd), p,
                                random.Random((seed << 16) ^ p))

    # every space is now a line; normalize at the identity class (omega_e = 1)
    e_class = cd.class_of[group.identity]
    omegas = np.array([basis[0] for basis, _ in spaces])
    if not omegas[:, e_class].all():
        raise LiftInconsistent("eigenvector vanishes at the identity class")
    scale = [pow(int(w), p - 2, p) for w in omegas[:, e_class]]
    omegas = omegas * np.array(scale)[:, None] % p

    inv_sizes = np.array([pow(s, p - 2, p) for s in cd.sizes])
    zroot = pow(_primitive_root(p), (p - 1) // m, p)

    # omega_j * omega_(j^-1) / |c_j|, summed over classes: (#G / d^2) mod p
    norms = _matmul_mod(omegas * omegas[:, list(cd.inverse_class)] % p, inv_sizes, p)
    degrees = []
    for s in norms.tolist():
        if s == 0:
            raise LiftInconsistent("degenerate norm for an eigenvector")
        dsq = (n * pow(s, p - 2, p)) % p
        d = next((t for t in range(1, (p + 1) // 2) if (t * t) % p == dsq), None)
        if d is None or n % d:
            raise LiftInconsistent(f"degree lift failed (d^2 = {dsq} mod {p})")
        degrees.append(d)

    if sum(d * d for d in degrees) != n:
        raise LiftInconsistent("sum of squared degrees does not match the group order")
    deg = np.array(degrees)
    rows_mod = omegas * inv_sizes % p * deg[:, None] % p

    # lift each value chi(c) = sum_t mu_t zeta^(t*m/n_c) from the power
    # classes: one inverse DFT mod p per class, for every irrep at once
    ctx = cyclo.context(m)
    coeffs = np.zeros((k, k, ctx.degree), dtype=np.int64)
    for j, rep in enumerate(cd.representatives):
        n_c = group.element_order(rep)
        power_classes = []
        x = group.identity
        for _ in range(n_c):
            power_classes.append(cd.class_of[x])
            x = group.mult[x][rep]
        lam_inv = pow(zroot, -(m // n_c), p)
        lam_pows = np.array([pow(lam_inv, e, p) for e in range(n_c)])
        exps = np.arange(n_c)
        dft = lam_pows[np.outer(exps, exps) % n_c] * pow(n_c, p - 2, p) % p
        mus = _matmul_mod(rows_mod[:, power_classes], dft, p)
        bad = (mus.sum(axis=1) != deg) | (mus > deg[:, None]).any(axis=1)
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            raise LiftInconsistent(
                f"root-of-unity multiplicities {mus[i].tolist()} do not sum to degree {degrees[i]}"
            )
        powers = ctx.power_array[exps * (m // n_c)]
        cyclo.check_int64_bound(n_c * max(degrees) * cyclo.max_abs(powers), "lift")
        coeffs[:, j] = mus @ powers

    perm = _canonical_order(degrees, coeffs, ctx)
    table = CharacterTable(group, cd, tuple(degrees[i] for i in perm), coeffs[perm], p)
    _certify(table)
    return table


def _certify(table: CharacterTable) -> None:
    """One row per class, the degree at the identity class and the row
    relation X D X^H = n I (D the class sizes), exactly on the coefficient
    array; for a square X the latter gives X^H X = n D^-1, the column
    relation.  A failure means the modular path is buggy, and the error
    names the first failing irrep or irrep pair."""
    cd = table.class_data
    k = cd.num_classes
    n = table.group.order
    ctx = table.context()
    x = table.values
    if x.shape[:2] != (k, k) or len(table.degrees) != k:
        raise LiftInconsistent(f"{len(table.degrees)} degrees and values of shape "
                               f"{x.shape[:2]} for {k} classes")
    e = cd.class_of[table.group.identity]
    for i, d in enumerate(table.degrees):
        if x[i, e, 0] != d or x[i, e, 1:].any():
            raise LiftInconsistent(f"irrep {i} takes {cyclo.scalar_of(x[i, e], ctx)!r} "
                                   f"at the identity class, not its degree {d}")
    sums = cyclo.class_sums(x, cyclo.galois_array(x, -1, ctx), cd.sizes, ctx)
    off = sums[:, :, 1:].any(axis=2) | (sums[:, :, 0] != n * np.eye(k, dtype=np.int64))
    bad = np.argwhere(np.triu(off))
    if len(bad):
        i, j = map(int, bad[0])
        raise LiftInconsistent(
            f"row orthogonality fails at irreps ({i}, {j}): expected {n if i == j else 0}, "
            f"got {cyclo.scalar_of(sums[i, j], ctx)!r}")
