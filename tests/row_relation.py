"""The row relation of a character table, the tests' oracle.

X D X^H = #G I, with D the class sizes: sum_c |c| chi_i(c) conj(chi_j(c))
is #G for i = j and 0 otherwise.  For a square table it gives the column
relation too.  It is evaluated exactly on the coefficient array, with one
cyclo.class_sums call against the complex conjugates, as character_table
certified its tables before the central-character certificate.  That
certificate refuses more: this relation holds for every table whose
equal-size non-identity columns are swapped.
"""

import numpy as np

from grouplie import cyclo


def row_relation_failure(table):
    """The first irrep pair (i, j), i <= j, at which the row relation fails,
    with the value found there as a CycloScalar; None if it holds."""
    cd, n, ctx, x = table.class_data, table.group.order, table.context(), table.values
    sums = cyclo.class_sums(x, cyclo.galois_array(x, -1, ctx), cd.sizes, ctx)
    off = sums[:, :, 1:].any(axis=2) | (sums[:, :, 0] != n * np.eye(len(x), dtype=np.int64))
    bad = np.argwhere(np.triu(off))
    if not len(bad):
        return None
    i, j = map(int, bad[0])
    return (i, j), cyclo.scalar_of(sums[i, j], ctx)
