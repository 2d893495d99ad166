"""Test-side conversions between rows of group-algebra coefficients and the
int64 monomial arrays (4, t) of liealg, one column (row, column, c, k) per
monomial c*zeta^k.

encode is the encoding the pipeline used before liealg wrote its rows as
monomials: a value +-zeta^k becomes one monomial (signed_roots), any other
value its power-basis terms.  decode reads them back through
liealg.as_elements.
"""

import numpy as np

from grouplie.liealg import as_elements


def signed_roots(ctx) -> dict:
    """(sign, k) of each of the 2m values sign * zeta^k, keyed by its
    canonical coefficients; where -zeta^k is itself a power of zeta, sign
    is 1."""
    rows = ctx.power_table[:ctx.m]
    out = {tuple(-c for c in row): (-1, k) for k, row in enumerate(rows)}
    out.update((row, (1, k)) for k, row in enumerate(rows))
    return out


def encode(rows, ctx) -> np.ndarray:
    """The monomial array of `rows`, each a {column: CycloScalar} dict or a
    GroupAlgebraElement, numbered in order, a zero row as the one monomial
    (r, 0, 0, 0); every coefficient must be an algebraic integer."""
    roots = signed_roots(ctx)
    out = []
    for r, row in enumerate(rows):
        terms = getattr(row, "terms", row)
        if not terms:
            out += (r, 0, 0, 0)
        for z, x in terms.items():
            hit = roots.get(x.coeffs)
            if hit is not None:
                out += (r, z, *hit)
                continue
            for k, a in enumerate(x.coeffs):
                if a:
                    if a.denominator != 1:
                        raise ValueError(f"{x!r} is not an algebraic integer")
                    out += (r, z, int(a), k)
    return np.array(out, dtype=np.int64).reshape(-1, 4).T


def decode(rows: np.ndarray, group) -> list[dict]:
    """Row r of a monomial array over `group`'s conductor as the dict of its
    nonzero entries."""
    return [v.terms for v in as_elements(group, rows)]
