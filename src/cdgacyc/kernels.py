"""Sparse exact row reduction over the rationals."""

from fractions import Fraction

# Stamped into the environment record of every perfbench run.
KERNEL_NAME = "python"


def bareiss(rows, ncols):
    """Reduced row echelon form over Q of a sparse matrix.

    ``rows`` is a sequence of rows, each a sequence of ``(col, value)``
    pairs with distinct columns in ``range(ncols)`` and rational values;
    it is not mutated.  Returns ``(echelon, pivot_cols)``: ``echelon``
    holds the nonzero rows of the reduced row echelon form as
    ``{col: Fraction}`` dicts in pivot order (leading entry 1, zero in
    every other pivot column) and ``pivot_cols`` is the strictly
    increasing list of their leading columns.  Both are unique for the
    matrix, so they do not depend on the order of the rows.

    Each row is reduced against a table of stored rows keyed by leading
    column until its leading column is free, then stored scaled to a
    leading 1; the stored rows are then reduced upwards.

    The name ``bareiss`` is historical.  It stays, with ``ncols``, which
    the elimination does not read, because ``linalg`` binds the function
    by name and the benchmark's tracer wraps that binding, reports it as
    ``linalg.bareiss`` and counts ``len(rows) * ncols`` cells per call.
    """
    table = {}
    for row in rows:
        r = {j: Fraction(v) for j, v in row if v}
        while r:
            lead = min(r)
            if lead not in table:
                f = r[lead]
                table[lead] = r if f == 1 else {j: v / f for j, v in r.items()}
                break
            _subtract(r, r[lead], table[lead])
    pivot_cols = sorted(table)
    # Descending: every row subtracted is already reduced, so it brings no
    # pivot column into the row it is subtracted from.
    for lead in reversed(pivot_cols):
        r = table[lead]
        for j in [j for j in r if j != lead and j in table]:
            _subtract(r, r[j], table[j])
    return [table[p] for p in pivot_cols], pivot_cols


def _subtract(r, f, p):
    """r -= f * p in place, dropping the entries that cancel."""
    for j, v in p.items():
        x = r.get(j, 0) - f * v
        if x:
            r[j] = x
        else:
            del r[j]
