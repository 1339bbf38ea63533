"""Sparse fraction-free row reduction over the integers."""

from math import gcd

# Stamped into the environment record of every perfbench run.
KERNEL_NAME = "python"


def bareiss(rows, ncols):
    """Reduced row echelon form over Q of a sparse matrix.

    ``rows`` is a sequence of rows, each a sequence of ``(col, value)``
    pairs with distinct columns in ``range(ncols)`` and nonzero int
    values; it is not mutated.  A caller with rational entries scales
    each row to integers first, which leaves the RREF as it is.  Returns
    ``(echelon, pivot_cols)``: ``pivot_cols`` is the strictly increasing
    list of the leading columns of the reduced row echelon form, and
    ``echelon[i]`` is its row i as a primitive {col: int} dict, the RREF
    row (leading entry 1, zero in every other pivot column) times the
    integer ``echelon[i][pivot_cols[i]]``.  The pivots and the RREF are
    unique for the matrix, so they do not depend on the order of the
    rows.

    The elimination is fraction-free (Bareiss, Math. Comp. 22 (1968)):
    each row is divided by its content, and every stored row stays a
    primitive integer multiple of the rational row it stands for.  A row
    is reduced against a table of stored rows keyed by leading column
    until its leading column is free; the stored rows are then reduced
    upwards.  No entry becomes a fraction, so a rank costs no rational
    division; a reader that needs entries of the RREF divides just those
    by the leading entry.

    ``ncols`` is not read by the elimination; ``linalg`` binds this
    function by name and the benchmark's tracer wraps that binding and
    counts ``len(rows) * ncols`` cells per call.
    """
    table = {}
    for row in rows:
        if len(row) == 1:
            r = {row[0][0]: 1}
        elif row:
            r = dict(row)
            _divide_content(r)
        else:
            continue
        while r:
            lead = min(r)
            if lead not in table:
                table[lead] = r
                break
            _eliminate(r, lead, table[lead])
    pivot_cols = sorted(table)
    # Descending: every row eliminated with is already reduced, so it
    # brings no pivot column into the row it is combined with.
    for lead in reversed(pivot_cols):
        r = table[lead]
        for j in [j for j in r if j != lead and j in table]:
            _eliminate(r, j, table[j])
    return [table[p] for p in pivot_cols], pivot_cols


def _eliminate(r, col, p):
    """r <- (a * r - b * p) / content in place, with a, b the coprime
    pair (a > 0) that cancels column col; entries that cancel are
    dropped."""
    a, b = p[col], r[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a < 0:
        a, b = -a, -b
    if a != 1:
        for j in r:
            r[j] *= a
    for j, v in p.items():
        x = r.get(j, 0) - b * v
        if x:
            r[j] = x
        else:
            del r[j]
    _divide_content(r)


def _divide_content(r):
    g = gcd(*r.values())
    if g > 1:
        for j in r:
            r[j] //= g
