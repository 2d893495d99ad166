"""Exact character tables via modular diagonalization.

The class-multiplication matrices commute and are simultaneously
diagonalizable over F_p for p = 1 (mod m), m the group exponent, and
p > 2 sqrt(#G); their common eigenvectors, normalized at the identity class,
are the central characters omega(c) = |c| chi(c) / chi(1).  Degrees come
out of the orthogonality relation, values mod p out of omega, and exact
values from the multiplicities of the roots of unity among the eigenvalues
of each class representative, one inverse DFT mod p per element order.

The split starts from the lines omega(c) = |c| lambda(c) of the linear
characters lambda and the null space of the lambda(c)^-1, the span of the
other central characters, so an abelian group takes no split round and no
class constants.  Random combinations of the class matrices split the rest,
all eigenspaces of one combination from one block Krylov sequence, with
exact eigenvector and rank checks (_eigenspaces).  As p exceeds every prime
divisor of #G, the class algebra over F_p is semisimple and the split
succeeds; else the dimensions do not add up and it raises LiftInconsistent.
Every sum of products of residues is a float64 (BLAS) product proven below
2^53 (_matmul_mod), the elementwise steps stay in int64, bounded at 2^63,
and either bound raises IntegerBoundExceeded when it fails.

The table is the lifted int64 coefficient array, put in order by one
np.lexsort.  Its certificate reads the array, with no modular step.  With
Y[i, c] = |c| chi_i(c) and the class matrix M = sum_a r_a A_a of seeded
small class weights r, one weighted bincount over the #G x k products
x^-1 z_c, it checks exactly:
1. one row per class, each with a positive degree at the identity class e;
2. chi_i(1) M Y_i = mu_i Y_i, where mu_i = (M Y_i)_e = sum_a r_a Y[i, a];
3. each two rows differ in their eigenvalues mu_i / chi_i(1) of some draw
   (it draws r again until they do, and refuses after _CERTIFY_DRAWS);
4. sum_c |c| chi_i(c) chi_i(c^-1) = #G, read at the inverse classes.
By 2 and 3 the rows, normalized at e, are k distinct central characters, so
all of them, and 4 gives each its true degree: the table is right up to row
order, which the canonical order fixes.  That is k^3 phi(m) + k^2 phi(m)^2
work, in blocks of irreps and in cyclo.exact_dtype of proven bounds.  The
row relation X D X^H = #G I alone would accept any swap of two equal-size
columns.  CycloScalars are made only for the text output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from . import cyclo
from .errors import InvariantViolated, LiftInconsistent, PrimeSearchFailed
from .groups import ConjugacyData, GroupTable, conjugacy_data, linear_characters

_PRIME_BOUND = 1_000_000
_LIFT_BLOCK = 1 << 16  # irrep x class x power entries gathered at once by the lift
_CERTIFY_BLOCK = 1 << 18  # per-irrep entries (k phi(m) + phi(m)^2 each) of one certificate block
_CERTIFY_DRAWS = 8  # class matrices drawn before the rows count as not separated


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
        """The values as CycloScalars, one list per irrep, for the text output."""
        ctx = self.context()
        return [[cyclo.scalar_of(v, ctx) for v in row] for row in self.values]

    def to_json_dict(self) -> dict:
        """The `table --format json` payload: entries of one value share its
        lists, built once, so it is for serialization and must not be mutated."""
        k, _, d = self.values.shape
        distinct, inverse = np.unique(self.values.reshape(-1, d), axis=0, return_inverse=True)
        text = {c: str(c) for c in set(distinct.ravel().tolist())}
        tail = ["0"] * (self.group.exponent - d)
        exact = [[text[c] for c in vec] + tail for vec in distinct.tolist()]
        floats = _float_embedding(distinct, self.context()).tolist()
        index = inverse.reshape(k, k).tolist()
        return {
            "group": self.group.name,
            "order": self.group.order,
            "exponent": self.group.exponent,
            "prime": self.prime,
            "class_sizes": list(self.class_data.sizes),
            "class_representatives": list(self.class_data.representatives),
            "degrees": list(self.degrees),
            "values": [[exact[j] for j in row] for row in index],
            "values_float": [[floats[j] for j in row] for row in index],
        }


def _float_embedding(coeffs: np.ndarray, ctx: cyclo.CycloContext) -> np.ndarray:
    """The [re, im] pairs of the coefficient vectors coeffs[..., phi(m)], as
    an array (..., 2): a * zeta^t added one power t at a time, in increasing
    t, as complex(CycloScalar) does; each sum starts at +0.0, never -0.0."""
    z = np.zeros((*coeffs.shape[:-1], 2))
    for t in range(ctx.degree):
        z += coeffs[..., t, None] * np.array([ctx._roots[t].real, ctx._roots[t].imag])
    return z


def class_constants(group: GroupTable, cd: ConjugacyData) -> np.ndarray:
    """a[i, j, k] = number of (x, y) in c_i x c_j with x*y = z_k (fixed rep).

    Independent of the chosen representative z_k.
    """
    k = cd.num_classes
    class_of = np.array(cd.class_of)
    # y[x, r] = x^-1 * z_r lies in class_of[y]; x itself lies in class_of[x]
    y = group.mult[np.array(group.inverse)][:, np.array(cd.representatives)]
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


def _root_powers(p: int, m: int) -> np.ndarray:
    """z^t mod p for t < m, z the primitive m-th root of unity that the lift reads as zeta."""
    z = pow(_primitive_root(p), (p - 1) // m, p)
    return np.array([pow(z, t, p) for t in range(m)])


def _check_mod_bound(terms: int, p: int, check=cyclo.check_int64_bound) -> None:
    """Sums of `terms` products of two residues mod p must stay exact: in
    int64, or in float64 with check=cyclo.check_float64_bound."""
    check(terms * (p - 1) ** 2, f"sum of {terms} products mod {p}")


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p on arrays of residues, as int64 residues: one float64
    (BLAS) product, after proving that a sum of t = a.shape[-1] products of
    residues, at most t (p - 1)^2, stays below 2^53, so that every product
    and partial sum is an exact float64 integer in any summation order."""
    _check_mod_bound(a.shape[-1], p, cyclo.check_float64_bound)
    residues = (np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)).astype(np.int64)
    residues %= p
    return residues


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
    """Characteristic polynomial mod p (low degree first), via Hessenberg form.

    The elimination runs on int64 residues; each column update and each
    step of the recurrence is a float64 product of a residue plus at most n
    products of residues."""
    h = np.array(a, dtype=np.int64) % p
    n = len(h)
    _check_mod_bound(n + 1, p, cyclo.check_float64_bound)
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
        h[:, c + 1] = (h[:, c + 1] + (h[:, c + 2:].astype(np.float64) @ f).astype(np.int64)) % p
    # charpoly recurrence on the Hessenberg form: p_k = (x - h[k-1, k-1]) p_(k-1)
    # - sum_i h[k-1-i, k-1] * (product of i subdiagonal entries) * p_(k-1-i)
    hl = h.tolist()
    polys = np.zeros((n + 1, n + 1))
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
        polys[k] = (polys[k] - np.array(coefs, dtype=np.float64)
                    @ polys[k - 1 - np.arange(len(coefs))]) % p
    return polys[n].astype(np.int64).tolist()


def _poly_roots_mod(poly: list[int], p: int) -> list[int]:
    """Every root in F_p, in increasing order: Horner's rule at all residues."""
    _check_mod_bound(2, p)
    x = np.arange(p, dtype=np.int64)
    acc = np.zeros(p, dtype=np.int64)
    for c in reversed(poly):
        acc = (acc * x + c) % p
    return np.flatnonzero(acc == 0).tolist()


def _null_space(red: np.ndarray, pivots: list[int], d: int, p: int) -> tuple:
    """Null space mod p of the RREF `red` on d columns: the identity at the free columns."""
    free = sorted(set(range(d)) - set(pivots))
    null = np.zeros((len(free), d), dtype=np.int64)
    null[np.arange(len(free)), free] = 1
    null[:, pivots] = -red[:, free].T % p
    return null, free


def _restrict_mod(mat: np.ndarray, basis: np.ndarray, pivots: list[int], p: int) -> np.ndarray:
    """Matrix of `mat` acting on span(basis), whose rows hold the identity at `pivots`.

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


def _root_multiplicities(poly: list[int], roots: list[int], p: int) -> list[int]:
    """The multiplicity of each root of `poly` (low degree first) mod p, by
    deflating the polynomial with one synthetic division per factor."""
    rest = poly[::-1]
    mults = []
    for lam in roots:
        m = 0
        while True:
            quot = [rest[0]]
            for c in rest[1:]:
                quot.append((c + lam * quot[-1]) % p)
            if quot[-1]:
                break
            rest = quot[:-1]
            m += 1
        mults.append(m)
    return mults


def _eigenspaces(mat: np.ndarray, basis: np.ndarray, pivots: list[int], p: int,
                 rng: random.Random) -> list:
    """The eigenspaces of `mat` (acting on coordinate columns over the rows
    of `basis`, with the identity at its pivot columns `pivots`), one per
    root of its characteristic polynomial in increasing order, each as (RREF
    basis, pivot columns) of the full space.

    With distinct roots l_1..l_r and mu = prod_j (x - l_j), q_i = mu / (x -
    l_i) maps onto the l_i eigenspace when `mat` is diagonalizable, so the
    columns of W_i = q_i(mat) V, for V random with as many columns b as the
    largest multiplicity, span it.  All W_i come from the Krylov block
    mat^t V, t < r.  A W_i is accepted only when mat W_i = l_i W_i and its
    rank is the multiplicity of l_i (for a simple root: its first column is
    nonzero), which makes it the whole eigenspace; any other root takes the
    null space of mat - l_i.  If `mat` is not diagonalizable, the null
    spaces lose dimensions, and so do the roots if they do not account for
    the whole characteristic polynomial; the caller's dimension count fails.
    """
    poly = _charpoly_mod(mat, p)
    roots = _poly_roots_mod(poly, p)
    r, d = len(roots), len(mat)
    if r < 2:
        # no root gives no space; one root keeps the space whole (its q is 1)
        return [(basis, pivots)] if r else []
    mults = _root_multiplicities(poly, roots, p)
    lams = np.array(roots, dtype=np.int64)
    # mu, high degree first, then every q_i by one synthetic division
    mu = np.zeros(r + 1, dtype=np.int64)
    mu[0] = 1
    for lam in roots:
        mu[1:] = (mu[1:] - lam * mu[:-1]) % p
    q = np.ones((r, r), dtype=np.int64)
    for t in range(1, r):
        q[:, t] = (mu[t] + lams * q[:, t - 1]) % p
    # the Krylov block, then W_i = sum_t q[i, r-1-t] mat^t V for each i
    b = max(mults)
    fmat = mat.astype(np.float64)  # the residues once as float64 operands
    krylov = np.empty((r, d, b))
    krylov[0] = [[rng.randrange(p) for _ in range(b)] for _ in range(d)]
    for t in range(1, r):
        krylov[t] = _matmul_mod(fmat, krylov[t - 1], p)
    w = _matmul_mod(q[:, ::-1], krylov.reshape(r, d * b), p).reshape(r, d, b)
    # eigen[i, j]: column j of W_i is an eigenvector of l_i, or zero
    eigen = ~((_matmul_mod(fmat, w, p) - lams[:, None, None] * w) % p).any(axis=1)

    spaces: list = [None] * r
    # a simple root's eigenspace is at most a line, so a nonzero eigenvector
    # spans it: all such lines through the basis at once, each normalized at
    # its leading entry
    simple = [i for i in range(r) if mults[i] == 1 and eigen[i, 0] and w[i, :, 0].any()]
    if simple:
        lines = _matmul_mod(w[simple, :, 0], basis, p)
        lead = (lines != 0).argmax(axis=1)
        scale = [pow(int(x), p - 2, p) for x in lines[np.arange(len(simple)), lead]]
        lines = lines * np.array(scale, dtype=np.int64)[:, None] % p
        for i, line, c in zip(simple, lines, lead.tolist()):
            spaces[i] = (line[None], [c])
    for i in range(r):
        if spaces[i] is not None:
            continue
        if mults[i] > 1 and eigen[i].all():
            space = _rref_mod(_matmul_mod(w[i].T, basis, p), p)
            if len(space[0]) == mults[i]:
                spaces[i] = space
                continue
        null, _ = _null_space(*_rref_mod(mat - roots[i] * np.eye(d, dtype=np.int64), p), d, p)
        spaces[i] = _rref_mod(_matmul_mod(null, basis, p), p)
    return spaces


def _seeded_start(group: GroupTable, cd: ConjugacyData, p: int) -> list:
    """The split's start, as (basis, pivot columns): the line omega(c) = |c| lambda(c)
    of each linear character lambda, then, unless it is 0, the space of the v with
    sum_c v_c lambda(c)^-1 = 0 for every lambda, the span of the other central characters."""
    zpow = _root_powers(p, group.exponent)
    exps = np.array([c.exponents for c in linear_characters(group)])[:, list(cd.representatives)]
    inverses, omegas = zpow[-exps % group.exponent], zpow[exps] * np.array(cd.sizes) % p
    # row orthogonality, sum_c lambda(c)^-1 omega_mu(c) = #G [lambda = mu], makes the rank l
    l, gram = len(exps), _matmul_mod(inverses, omegas.T, p)
    if not np.array_equal(gram, group.order % p * np.eye(l, dtype=np.int64)):
        rank = len(_rref_mod(inverses, p)[1])
        raise LiftInconsistent(f"{l} linear characters of rank {rank} mod {p} are not orthogonal")
    spaces = [(omega[None], [cd.class_of[group.identity]]) for omega in omegas]
    if l < cd.num_classes:
        spaces.append(_null_space(*_rref_mod(inverses, p), cd.num_classes, p))
    return spaces


def _split_eigenspaces(consts: np.ndarray, spaces: list, p: int, rng: random.Random) -> list:
    """Common eigenspaces mod p of the class matrices consts[i], each as
    (basis, pivot columns): split from `spaces`, invariant subspaces that
    sum to F_p^k, by random linear combinations until every space is a line."""
    k = len(consts)
    _check_mod_bound(2, p)  # before any product
    # the one working copy: int64 residues cast to float64 as they are
    # written, the operands of every combination
    consts = np.remainder(consts, p, out=np.empty(consts.shape)).reshape(k, k * k)
    for _ in range(32):
        if all(len(b) == 1 for b, _ in spaces):
            return spaces
        coeffs = np.array([rng.randrange(p) for _ in range(k)], dtype=np.int64)
        combo = _matmul_mod(coeffs, consts, p).reshape(k, k)
        new_spaces = []
        for basis, pivots in spaces:  # a line stays as it is
            new_spaces += [(basis, pivots)] if len(basis) == 1 else _eigenspaces(
                _restrict_mod(combo, basis, pivots, p), basis, pivots, p, rng)
        if sum(len(b) for b, _ in new_spaces) != k:
            raise LiftInconsistent("eigenspace splitting lost or gained dimensions")
        spaces = new_spaces
    raise LiftInconsistent("eigenspace splitting did not converge after 32 rounds")


def _lift(group: GroupTable, cd: ConjugacyData, rows_mod: np.ndarray, degrees: list[int],
          p: int) -> np.ndarray:
    """The coefficient array (irrep, class, phi(m)) of the characters with
    the values `rows_mod` mod p.

    chi(c) = sum_t mu_t zeta^(t m/n_c) with n_c the order of c, and the
    multiplicities mu_t are the inverse DFT mod p of chi on the power
    classes of c, each at most the degree and summing to it.  One walk of
    the multiplication table gives the power classes of every representative;
    then one DFT product per element order lifts every irrep on every class
    of that order, in blocks of at most _LIFT_BLOCK gathered entries (and at
    least one class).  A multiplicity check that fails names the first class,
    in class order, and in it the first irrep.
    """
    m, k = group.exponent, cd.num_classes
    ctx = cyclo.context(m)
    deg = np.array(degrees)
    # walk[j, s] = rep_j^s: each step appends rep^(L-1) * rep^a for 0 < a < L
    # to a walk of length L, until every rep has returned to e
    mult, e = group.mult, group.identity
    walk = np.stack([np.full(k, e), cd.representatives], axis=1)
    while not (walk[:, 1:] == e).any(axis=1).all():
        walk = np.concatenate([walk, mult[walk[:, -1:], walk[:, 1:]]], axis=1)
    orders = (walk[:, 1:] == e).argmax(axis=1) + 1
    power_classes = np.array(cd.class_of)[walk]
    zpow = _root_powers(p, m)
    values = rows_mod.astype(np.float64)  # gathered as float64 operands
    coeffs = np.empty((k, k, ctx.degree), dtype=np.int64)
    failure = None
    for n_c in sorted(set(orders.tolist())):
        # dft[s, t] = z^(-(m / n_c) s t) / n_c, the inverse DFT of order n_c;
        # fold takes multiplicities to the power basis of zeta^(t m / n_c),
        # and its last column sums them
        exps = np.arange(n_c)
        dft = zpow[-(m // n_c) * np.outer(exps, exps) % m] * pow(n_c, p - 2, p) % p
        fold = np.ones((n_c, ctx.degree + 1))
        fold[:, :-1] = ctx.power_array[exps * (m // n_c)]
        cyclo.check_float64_bound(n_c * (p - 1) * cyclo.max_abs(fold), "lift")
        classes = np.flatnonzero(orders == n_c)
        step = max(1, _LIFT_BLOCK // (k * n_c))
        for s in range(0, len(classes), step):
            block = classes[s:s + step]
            gathered = values[:, power_classes[block, :n_c]].reshape(-1, n_c)
            mus = _matmul_mod(gathered, dft, p)
            lifted = (mus.astype(np.float64) @ fold).reshape(k, len(block), -1)
            # the multiplicities are residues, so nonnegative: summing to the
            # degree also bounds each of them by it
            bad = lifted[:, :, -1] != deg[:, None]
            if bad.any():
                c, i = np.argwhere(bad.T)[0]
                if failure is None or block[c] < failure[0]:
                    failure = (block[c], mus.reshape(k, len(block), n_c)[i, c].tolist(), degrees[i])
            coeffs[:, block] = lifted[:, :, :-1]
    if failure is not None:
        raise LiftInconsistent(
            f"root-of-unity multiplicities {failure[1]} do not sum to degree {failure[2]}")
    return coeffs


def _canonical_order(degrees: list[int], coeffs: np.ndarray, ctx: cyclo.CycloContext) -> list[int]:
    """Irrep order by degree, then the float embedding of the row (real and
    imaginary part, class by class): the same table whatever the seed or
    prime.  The embedding separates any two irreducible characters
    chi != psi: the sum over classes of |c| |chi(c) - psi(c)|^2 is 2|G|, so
    |chi(c) - psi(c)| >= sqrt(2) at some class c, where the real or the
    imaginary parts differ by at least 1, far beyond any rounding."""
    embedding = _float_embedding(coeffs, ctx).reshape(coeffs.shape[0], -1)
    # np.lexsort sorts by its last key first, and stably
    return np.lexsort((*embedding.T[::-1], np.asarray(degrees))).tolist()


# ---------------------------------------------------------------------------
# the table


def character_table(group: GroupTable, *, seed: int = 0, prime: int | None = None) -> CharacterTable:
    cd = conjugacy_data(group)
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

    spaces = _seeded_start(group, cd, p)
    if any(len(basis) > 1 for basis, _ in spaces):
        spaces = _split_eigenspaces(class_constants(group, cd), spaces, p,
                                    random.Random((seed << 16) ^ p))

    # every space is now a line; normalize at the identity class (omega_e = 1)
    e_class = cd.class_of[group.identity]
    omegas = np.array([basis[0] for basis, _ in spaces])
    if not omegas[:, e_class].all():
        raise LiftInconsistent("eigenvector vanishes at the identity class")
    scale = [pow(int(w), p - 2, p) for w in omegas[:, e_class]]
    omegas = omegas * np.array(scale)[:, None] % p

    inv_sizes = np.array([pow(s, p - 2, p) for s in cd.sizes])

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

    coeffs = _lift(group, cd, rows_mod, degrees, p)
    perm = _canonical_order(degrees, coeffs, cyclo.context(m))
    table = CharacterTable(group, cd, tuple(degrees[i] for i in perm), coeffs[perm], p)
    _certify(table)
    return table


def _certify(table: CharacterTable, draws=None) -> None:
    """Certify exactly, by checks 1-4 of the module docstring with the class
    weights in `draws` (by default seeded random bytes), that the rows are the
    irreducible characters; a failure (a bug) names its irrep."""
    cd, group, ctx = table.class_data, table.group, table.context()
    k, n, d, x = cd.num_classes, group.order, ctx.degree, table.values
    if x.shape[:2] != (k, k) or len(table.degrees) != k:
        raise LiftInconsistent(f"{len(table.degrees)} degrees and values of shape "
                               f"{x.shape[:2]} for {k} classes")
    e, degrees = cd.class_of[group.identity], np.array(table.degrees)
    bad = np.flatnonzero((degrees < 1) | (x[:, e, 0] != degrees) | x[:, e, 1:].any(axis=1))
    if len(bad):
        raise LiftInconsistent(f"irrep {bad[0]} takes {cyclo.scalar_of(x[bad[0], e], ctx)!r} "
                               f"at the identity class, not its degree {degrees[bad[0]]}")
    # bounds on |chi| and |Y|, and class(x^-1 z_c) * k + c for every x and class c
    sizes, class_of, max_x = np.array(cd.sizes), np.array(cd.class_of), cyclo.max_abs(x)
    max_y, inverse = max(cd.sizes) * max_x, np.array(cd.inverse_class)
    cells = class_of[group.mult[np.array(group.inverse)[:, None], cd.representatives]] * k
    cells, step = (cells + np.arange(k)).ravel(), max(1, _CERTIFY_BLOCK // (k * d + d * d))
    rng, fold, sig = random.Random(k), ctx.product_array, np.zeros((k, 0), int)
    for r in draws or (np.frombuffer(rng.randbytes(k), np.uint8) for _ in range(_CERTIFY_DRAWS)):
        r = np.asarray(r, dtype=np.int64)
        cyclo.check_float64_bound(n * cyclo.max_abs(r), "class matrix")  # the bincount's sums
        m_r = np.bincount(cells, np.repeat(r[class_of], k), minlength=k * k).reshape(k, k)
        # a bound on every partial sum of M Y, of mu Y_i through the fold and of the norms
        bound = k * max_y * max(int(np.abs(m_r).max()) * max_y, max_x) * ctx.product_norm
        dtype = cyclo.exact_dtype(bound, "certificate")
        m_r, fold, mu = m_r.astype(dtype), fold.astype(dtype, copy=False), np.empty((k, d), int)
        for i in range(0, k, step):
            y = x[i:i + step] * sizes[:, None].astype(dtype)
            my = (m_r @ y.transpose(1, 0, 2).reshape(k, -1)).reshape(k, -1, d).transpose(1, 0, 2)
            # chi(1) M Y_i against mu_i Y_i, Y_i times the matrix of multiplication by mu_i
            lhs = degrees[i:i + step, None, None] * my
            rhs = y @ (my[:, e] @ fold.reshape(d, -1)).reshape(-1, d, d)
            if (lhs != rhs).any():
                j, c, _ = np.argwhere(lhs != rhs)[0]
                raise LiftInconsistent(
                    f"irrep {i + j} is no central character at class {c}: chi(1) (M Y)_c = "
                    f"{cyclo.scalar_of(lhs[j, c].astype(np.int64), ctx)!r}, mu Y_c = "
                    f"{cyclo.scalar_of(rhs[j, c].astype(np.int64), ctx)!r}")
            # the plane products of Y_i and chi_i(c^-1), summed over classes, then reduced
            norms = (y.transpose(0, 2, 1) @ x[i:i + step, inverse]).reshape(-1, d * d) @ fold
            norms = norms.astype(np.int64)
            bad = np.flatnonzero(norms[:, 1:].any(axis=1) | (norms[:, 0] != n))
            if len(bad):
                raise LiftInconsistent(f"irrep {i + bad[0]} has sum_c |c| chi(c) chi(c^-1) = "
                                       f"{cyclo.scalar_of(norms[bad[0]], ctx)!r}, not #G = {n}")
            mu[i:i + step] = my[:, e]
        # mu_i / chi_i(1), an eigenvalue of the integer M, lies in Z[zeta]: its
        # exact coefficients join the eigenvalues of row i in the earlier draws
        sig = np.hstack([sig, mu // degrees[:, None]])
        order = np.lexsort(sig.T)
        same = (sig[order[1:]] == sig[order[:-1]]).all(axis=1)
        if not same.any():
            return
    i, j = sorted(order[np.argmax(same):][:2])
    raise LiftInconsistent(f"no drawn class matrix separates irreps ({i}, {j})")
