"""Sparse fraction-free row reduction over the integers."""

from fractions import Fraction
from math import gcd, lcm

# Stamped into the environment record of every perfbench run.
KERNEL_NAME = "python"

_ONE = Fraction(1)


def bareiss(rows, ncols):
    """Reduced row echelon form over Q of a sparse matrix.

    ``rows`` is a sequence of rows, each a sequence of ``(col, value)``
    pairs with distinct columns in ``range(ncols)`` and nonzero rational
    values (ints or Fractions); it is not mutated.  Returns ``(echelon,
    pivot_cols)``: ``echelon`` holds the nonzero rows of the reduced row
    echelon form as ``{col: Fraction}`` dicts in pivot order (leading
    entry 1, zero in every other pivot column) and ``pivot_cols`` is the
    strictly increasing list of their leading columns.  Both are unique
    for the matrix, so they do not depend on the order of the rows.

    The elimination is fraction-free (Bareiss, Math. Comp. 22 (1968)):
    each row is scaled by the lcm of its denominators to integers, and
    every stored row stays a primitive integer multiple of the rational
    row it stands for.  A row is reduced against a table of stored rows
    keyed by leading column until its leading column is free; the stored
    rows are then reduced upwards, and only the reduced rows are divided
    by their leading entries, one exact ``Fraction`` per entry (a row
    with one entry is the shared leading 1).

    ``ncols`` is not read by the elimination; ``linalg`` binds this
    function by name and the benchmark's tracer wraps that binding and
    counts ``len(rows) * ncols`` cells per call.
    """
    table = {}
    for row in rows:
        if len(row) == 1:
            r = {row[0][0]: 1}
        elif row:
            r = _integer_row(row)
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
    echelon = []
    for p in pivot_cols:
        r = table[p]
        if len(r) == 1:
            echelon.append({p: _ONE})
        else:
            d = r[p]
            echelon.append({j: Fraction(v, d) for j, v in r.items()})
    return echelon, pivot_cols


def _integer_row(row):
    """The row as a primitive {col: int} dict, a rational multiple of it."""
    ratios = [(j, v.as_integer_ratio()) for j, v in row]
    m = lcm(*[d for _, (_, d) in ratios])
    r = {j: n * (m // d) for j, (n, d) in ratios}
    _divide_content(r)
    return r


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
