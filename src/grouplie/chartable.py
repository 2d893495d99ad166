"""Exact character tables via modular diagonalization.

The class-multiplication matrices commute and are simultaneously
diagonalizable over F_p once p = 1 (mod m) with m the group exponent and
p > 2*sqrt(#G).  Their common eigenvectors, normalized at the identity
class, are the central characters omega(c) = |c| chi(c) / chi(1).  Degrees
come out of the orthogonality relation, character values mod p out of
omega, and the exact cyclotomic value out of the multiplicities of each
root of unity among the eigenvalues of a class representative (an inverse
DFT over its power classes, evaluated mod p and lifted).  The finished
table is certified by the exact orthogonality relations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from . import cyclo
from .errors import LiftInconsistent, PrimeSearchFailed
from .groups import ConjugacyData, GroupTable, conjugacy_data

_PRIME_BOUND = 1_000_000


@dataclass(frozen=True)
class CharacterTable:
    """Exact irreducible character values per (irrep, conjugacy class)."""

    group: GroupTable
    class_data: ConjugacyData
    degrees: tuple[int, ...]
    values: tuple[tuple[cyclo.CycloScalar, ...], ...]
    prime: int

    @property
    def num_irreps(self) -> int:
        return len(self.degrees)

    def context(self) -> cyclo.CycloContext:
        return cyclo.context(self.group.exponent)

    def to_json_dict(self) -> dict:
        return {
            "group": self.group.name,
            "order": self.group.order,
            "exponent": self.group.exponent,
            "prime": self.prime,
            "class_sizes": list(self.class_data.sizes),
            "class_representatives": list(self.class_data.representatives),
            "degrees": list(self.degrees),
            "values": [[v.to_json() for v in row] for row in self.values],
            "values_float": [
                [[complex(v).real, complex(v).imag] for v in row] for row in self.values
            ],
        }


def class_constants(group: GroupTable, cd: ConjugacyData) -> tuple:
    """a[i][j][k] = number of (x, y) in c_i x c_j with x*y = z_k (fixed rep).

    Independent of the chosen representative z_k.
    """
    k = cd.num_classes
    a = [[[0] * k for _ in range(k)] for _ in range(k)]
    inv = group.inverse
    mult = group.mult
    class_of = cd.class_of
    for kk, z in enumerate(cd.representatives):
        for i, ci in enumerate(cd.classes):
            row = a[i]
            for x in ci:
                row[class_of[mult[inv[x]][z]]][kk] += 1
    return tuple(tuple(tuple(r) for r in m) for m in a)


# ---------------------------------------------------------------------------
# arithmetic mod p


def _find_prime(m: int, order: int, skip: int = 0) -> int:
    """Smallest prime p = 1 (mod m) with p*p > 4*order, skipping `skip` hits."""
    def is_prime(x):
        if x < 2:
            return False
        f = 2
        while f * f <= x:
            if x % f == 0:
                return False
            f += 1
        return True

    p = m + 1
    found = 0
    while p < _PRIME_BOUND:
        if p * p > 4 * order and is_prime(p):
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


def _rref_mod(rows: list[list[int]], p: int) -> tuple[list[list[int]], list[int]]:
    """Reduced row echelon form mod p; returns (rows, pivot_columns)."""
    rows = [r[:] for r in rows]
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] % p), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return rows[:r], pivots


def _nullspace_mod(mat: list[list[int]], p: int) -> list[list[int]]:
    n = len(mat)
    rows, pivots = _rref_mod(mat, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-rows[r][fc]) % p
        basis.append(v)
    return basis


def _charpoly_mod(a: list[list[int]], p: int) -> list[int]:
    """Characteristic polynomial mod p (low degree first), via Hessenberg form."""
    n = len(a)
    h = [row[:] for row in a]
    for c in range(n - 2):
        piv = next((i for i in range(c + 1, n) if h[i][c] % p), None)
        if piv is None:
            continue
        if piv != c + 1:
            h[piv], h[c + 1] = h[c + 1], h[piv]
            for row in h:
                row[piv], row[c + 1] = row[c + 1], row[piv]
        inv = pow(h[c + 1][c], p - 2, p)
        for i in range(c + 2, n):
            f = (h[i][c] * inv) % p
            if f:
                hi, hc1 = h[i], h[c + 1]
                for j in range(c, n):
                    hi[j] = (hi[j] - f * hc1[j]) % p
                for row in h:
                    row[c + 1] = (row[c + 1] + f * row[i]) % p
    # charpoly recurrence on the Hessenberg form
    polys = [[1]]
    for k in range(1, n + 1):
        prev = polys[k - 1]
        cur = [0] + prev  # x * p_{k-1}
        diag = h[k - 1][k - 1] % p
        for idx in range(len(prev)):
            cur[idx] = (cur[idx] - diag * prev[idx]) % p
        sub = 1
        for i in range(1, k):
            sub = (sub * h[k - i][k - i - 1]) % p
            if sub == 0:
                break
            coef = (h[k - 1 - i][k - 1] * sub) % p
            if coef:
                pki = polys[k - 1 - i]
                for idx in range(len(pki)):
                    cur[idx] = (cur[idx] - coef * pki[idx]) % p
        polys.append(cur)
    return polys[n]


def _poly_roots_mod(poly: list[int], p: int) -> list[int]:
    roots = []
    for x in range(p):
        acc = 0
        for c in reversed(poly):
            acc = (acc * x + c) % p
        if acc == 0:
            roots.append(x)
    return roots


def _matvec_mod(mat, vec, p):
    return [sum(m * v for m, v in zip(row, vec) if v) % p for row in mat]


def _restrict_mod(mat, basis, pivots, p):
    """Matrix of `mat` acting on span(basis); basis rows are in RREF."""
    dim = len(basis)
    out = []
    for b in basis:
        img = _matvec_mod(mat, b, p)
        coords = []
        for r in range(dim):
            c = img[pivots[r]] % p
            coords.append(c)
            if c:
                img = [(x - c * y) % p for x, y in zip(img, basis[r])]
        if any(img):
            raise LiftInconsistent("eigenspace is not invariant; table computation bug")
        out.append(coords)
    # rows are coordinates of images of basis vectors: transpose to act on coords
    return [[out[j][i] for j in range(dim)] for i in range(dim)]


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

    consts = class_constants(group, cd)
    mats = [[[consts[i][j][l] for l in range(k)] for j in range(k)] for i in range(k)]

    # split the common eigenspaces with random linear combinations
    rng = random.Random((seed << 16) ^ p)
    spaces: list[tuple[list[list[int]], list[int]]] = []
    ident = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    spaces.append(_rref_mod(ident, p))
    for _ in range(32):
        if all(len(b) == 1 for b, _ in spaces):
            break
        coeffs = [rng.randrange(p) for _ in range(k)]
        combo = [
            [sum(coeffs[i] * mats[i][r][c] for i in range(k)) % p for c in range(k)]
            for r in range(k)
        ]
        new_spaces = []
        for basis, pivots in spaces:
            if len(basis) == 1:
                new_spaces.append((basis, pivots))
                continue
            mat_r = _restrict_mod(combo, basis, pivots, p)
            dim = len(basis)
            poly = _charpoly_mod(mat_r, p)
            for lam in _poly_roots_mod(poly, p):
                shifted = [[(mat_r[i][j] - (lam if i == j else 0)) % p for j in range(dim)]
                           for i in range(dim)]
                amb_rows = []
                for coords in _nullspace_mod(shifted, p):
                    amb = [0] * k
                    for c, b in zip(coords, basis):
                        if c:
                            for idx in range(k):
                                amb[idx] = (amb[idx] + c * b[idx]) % p
                    amb_rows.append(amb)
                if amb_rows:
                    new_spaces.append(_rref_mod(amb_rows, p))
        if sum(len(b) for b, _ in new_spaces) != k:
            raise LiftInconsistent("eigenspace splitting lost dimensions")
        spaces = [(b, piv) for b, piv in new_spaces]
    else:
        raise LiftInconsistent("eigenspace splitting did not converge after 32 rounds")

    # every space is now a line; normalize at the identity class (omega_e = 1)
    omegas = []
    e_class = cd.class_of[group.identity]
    for basis, _ in spaces:
        w = basis[0]
        if w[e_class] % p == 0:
            raise LiftInconsistent("eigenvector vanishes at the identity class")
        scale = pow(w[e_class], p - 2, p)
        omegas.append([(x * scale) % p for x in w])

    inv_sizes = [pow(s, p - 2, p) for s in cd.sizes]
    zroot = pow(_primitive_root(p), (p - 1) // m, p)

    degrees = []
    rows_mod = []
    for w in omegas:
        s = sum(w[j] * w[cd.inverse_class[j]] * inv_sizes[j] for j in range(k)) % p
        if s == 0:
            raise LiftInconsistent("degenerate norm for an eigenvector")
        dsq = (n * pow(s, p - 2, p)) % p
        d = next((t for t in range(1, (p + 1) // 2) if (t * t) % p == dsq), None)
        if d is None or n % d:
            raise LiftInconsistent(f"degree lift failed (d^2 = {dsq} mod {p})")
        degrees.append(d)
        rows_mod.append([(d * w[j] * inv_sizes[j]) % p for j in range(k)])

    if sum(d * d for d in degrees) != n:
        raise LiftInconsistent("sum of squared degrees does not match the group order")

    # lift each value chi(c) = sum_t mu_t zeta^(t*m/n_c) from the power classes
    ctx = cyclo.context(m)
    power_classes: list[list[int]] = []
    elt_orders = []
    for rep in cd.representatives:
        n_c = group.element_order(rep)
        elt_orders.append(n_c)
        pc = []
        x = group.identity
        for _ in range(n_c):
            pc.append(cd.class_of[x])
            x = group.mult[x][rep]
        power_classes.append(pc)

    values = []
    for d, row in zip(degrees, rows_mod):
        vals = []
        for j in range(k):
            n_c = elt_orders[j]
            lam = pow(zroot, m // n_c, p)
            lam_inv = pow(lam, p - 2, p)
            inv_nc = pow(n_c, p - 2, p)
            mus = []
            for t in range(n_c):
                acc = 0
                lpow = 1
                lstep = pow(lam_inv, t, p)
                for s in range(n_c):
                    acc = (acc + row[power_classes[j][s]] * lpow) % p
                    lpow = (lpow * lstep) % p
                mus.append((acc * inv_nc) % p)
            if sum(mus) != d or any(mu > d for mu in mus):
                raise LiftInconsistent(
                    f"root-of-unity multiplicities {mus} do not sum to degree {d}"
                )
            coeffs = [0] * m
            for t, mu in enumerate(mus):
                if mu:
                    coeffs[(t * (m // n_c)) % m] += mu
            vals.append(ctx.from_powers(coeffs))
        values.append(tuple(vals))

    order_key = []
    for i, row in enumerate(values):
        emb = tuple((complex(v).real, complex(v).imag) for v in row)
        exact = tuple(v.coeffs for v in row)
        order_key.append((degrees[i], emb, exact, i))
    order_key.sort()
    perm = [entry[3] for entry in order_key]
    degrees = tuple(degrees[i] for i in perm)
    values = tuple(values[i] for i in perm)

    table = CharacterTable(group, cd, degrees, values, p)
    _certify(table)
    return table


def _certify(table: CharacterTable) -> None:
    """Exact orthogonality relations; failure means the modular path is buggy."""
    cd = table.class_data
    n = table.group.order
    k = cd.num_classes
    ctx = table.context()
    conj = [[v.conj() for v in row] for row in table.values]
    for i in range(k):
        for j in range(i, k):
            acc = ctx.zero
            for c in range(k):
                acc = acc + cd.sizes[c] * table.values[i][c] * conj[j][c]
            expected = n if i == j else 0
            if acc != expected:
                raise LiftInconsistent(f"row orthogonality fails at irreps ({i}, {j})")
    for c in range(k):
        for cp in range(c, k):
            acc = ctx.zero
            for i in range(k):
                acc = acc + table.values[i][c] * conj[i][cp]
            expected = Fraction(n, cd.sizes[c]) if c == cp else Fraction(0)
            if acc != ctx.from_fraction(expected):
                raise LiftInconsistent(f"column orthogonality fails at classes ({c}, {cp})")


def regular_character(table: CharacterTable) -> tuple[cyclo.CycloScalar, ...]:
    """Class function of the regular representation: #G at e, 0 elsewhere."""
    ctx = table.context()
    k = table.class_data.num_classes
    vals = []
    for c in range(k):
        acc = ctx.zero
        for i in range(table.num_irreps):
            acc = acc + table.degrees[i] * table.values[i][c]
        vals.append(acc)
    e_class = table.class_data.class_of[table.group.identity]
    for c, v in enumerate(vals):
        expected = table.group.order if c == e_class else 0
        if v != expected:
            raise LiftInconsistent("regular character does not match its closed form")
    return tuple(vals)
