"""Small exact linear algebra over tower elements (dense, deterministic)."""

from .fieldtower import FieldDescriptor


def rref(rows, ncols=None):
    """Reduced row echelon form; returns (rows, pivot_columns).

    Pivot choice is first nonzero entry, so results are deterministic.
    Pivots are taken in the first ncols columns only (default: all).
    """
    rows = [list(r) for r in rows]
    if not rows:
        return rows, []
    if ncols is None:
        ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, len(rows)):
            if not rows[i][c].is_zero():
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = rows[r][c].inverse()
        prow = rows[r] = [x * inv for x in rows[r]]
        # x + f * 0 = x: update each row on the pivot row's support only
        support = [j for j, y in enumerate(prow) if not y.is_zero()]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                row = rows[i]
                f = row[c]
                for j in support:
                    row[j] = row[j] + f * prow[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def row_dependency(K: FieldDescriptor, rows):
    """Coefficients lam (not all zero) with sum lam_i * row_i = 0, or None.

    The first dependency in elimination order, for determinism.
    """
    if not rows:
        return None
    n = len(rows)
    ncols = len(rows[0])
    zero, one = K.zero(), K.one()
    # Augment each row with the identity to track combinations.
    work = [list(r) + [one if j == i else zero for j in range(n)]
            for i, r in enumerate(rows)]
    red, _ = rref(work, ncols)
    for row in red:
        if all(x.is_zero() for x in row[:ncols]):
            return row[ncols:]
    return None
