"""The elimination kernel against the brute-force oracle."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cdgacyc import kernels, linalg

from oracles import rref, rref_rank


def dense_matrices(entries, size=6):
    return st.integers(0, size).flatmap(
        lambda nc: st.lists(
            st.lists(entries, min_size=nc, max_size=nc),
            min_size=0,
            max_size=size,
        ).map(lambda rows: (rows, nc))
    )


matrices = dense_matrices(st.integers(-9, 9))

# Mostly zeros, so that zero rows and zero columns are common; large
# denominators, so that the integer rows of the elimination grow.
rational_matrices = dense_matrices(st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-5, max_value=5, max_denominator=10**6),
), size=10)


def sparse(rows):
    """Rows in the kernel's input format: sorted (col, value) pairs."""
    return [tuple((j, v) for j, v in enumerate(r) if v) for r in rows]


def exact(echelon):
    """Every entry is a nonzero Fraction: an int or a float would pass ==,
    so the type is checked."""
    return all(type(v) is Fraction and v for row in echelon
               for v in row.values())


def test_kernel_contract():
    # perfbench stamps KERNEL_NAME and wraps kernels.bareiss, which
    # reaches linalg only while linalg binds that very function.
    assert kernels.KERNEL_NAME == "python"
    assert linalg.bareiss is kernels.bareiss


@given(matrices)
@settings(max_examples=200, deadline=None)
def test_rank_matches_naive_elimination(case):
    rows, ncols = case
    _, pivots = kernels.bareiss(sparse(rows), ncols)
    naive = rref_rank([[Fraction(v) for v in r] for r in rows])
    assert len(pivots) == naive


@given(matrices)
@settings(max_examples=100, deadline=None)
def test_echelon_spans_row_space(case):
    rows, ncols = case
    echelon, pivots = kernels.bareiss(sparse(rows), ncols)
    assert pivots == sorted(pivots)
    assert len(echelon) == len(pivots)
    assert exact(echelon)
    # every original row reduces to zero against the echelon
    for r in rows:
        r = [Fraction(v) for v in r]
        for erow in echelon:
            lead = min(erow)
            if r[lead]:
                f = r[lead] / erow[lead]
                for j, v in erow.items():
                    r[j] -= f * v
        assert not any(r)


@given(rational_matrices)
@settings(max_examples=200, deadline=None)
def test_rref_matches_dense_gauss_jordan(case):
    rows, ncols = case
    echelon, pivots = kernels.bareiss(sparse(rows), ncols)
    want_rows, want_pivots = rref(rows)
    assert pivots == want_pivots
    assert [[row.get(j, 0) for j in range(ncols)] for row in echelon] \
        == want_rows
    assert exact(echelon)


def test_known_echelon():
    echelon, pivots = kernels.bareiss(sparse([[2, 4], [1, 2], [0, 3]]), 2)
    assert pivots == [0, 1]
    assert echelon == [{0: 1}, {1: 1}]


def test_hilbert_matrix_reduces_to_the_identity():
    # entries 1/(i+j+1): large denominators and fast-growing integer rows
    n = 8
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    echelon, pivots = kernels.bareiss(sparse(rows), n)
    assert pivots == list(range(n))
    assert echelon == [{i: 1} for i in range(n)]
    assert exact(echelon)
