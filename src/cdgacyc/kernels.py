"""Fraction-free (Bareiss) row elimination over the integers."""

from math import gcd

# Stamped into the environment record of every perfbench run.
KERNEL_NAME = "python"


def bareiss(rows, ncols):
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    ``rows`` is a list of dense integer rows; it is not mutated.  Returns
    ``(echelon, pivot_cols)`` where ``echelon`` contains the nonzero rows
    of a row echelon form of the input (each normalized by its gcd, leading
    entry positive) and ``pivot_cols`` is the strictly increasing list of
    pivot columns.  Intermediate values stay integral: every update is an
    exact division by the previous pivot.

    Pivot choice is deterministic: leftmost available column, then the
    candidate row with fewest nonzeros, ties broken by lowest row index.
    """
    mat = [list(r) for r in rows]
    nrows = len(mat)
    pivot_cols = []
    prev = 1
    k = 0
    col = 0
    while k < nrows and col < ncols:
        best = -1
        best_nnz = -1
        for i in range(k, nrows):
            if mat[i][col] != 0:
                nnz = 0
                row_i = mat[i]
                for j in range(col, ncols):
                    if row_i[j] != 0:
                        nnz += 1
                if best < 0 or nnz < best_nnz:
                    best = i
                    best_nnz = nnz
        if best < 0:
            col += 1
            continue
        if best != k:
            mat[k], mat[best] = mat[best], mat[k]
        piv_row = mat[k]
        piv = piv_row[col]
        for i in range(k + 1, nrows):
            row_i = mat[i]
            f = row_i[col]
            for j in range(col + 1, ncols):
                row_i[j] = (piv * row_i[j] - f * piv_row[j]) // prev
            row_i[col] = 0
        pivot_cols.append(col)
        prev = piv
        k += 1
        col += 1
    echelon = []
    for i in range(k):
        row_i = mat[i]
        g = 0
        for x in row_i:
            g = gcd(g, x)
        if g == 0:
            continue
        lead = row_i[pivot_cols[i]]
        if lead < 0:
            g = -g
        echelon.append([x // g for x in row_i])
    return echelon, pivot_cols
