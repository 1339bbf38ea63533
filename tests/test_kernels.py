"""The elimination kernel against the brute-force oracle."""

from fractions import Fraction
from math import gcd, lcm

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


def scaled(rows):
    """Each rational row times the lcm of its denominators, as ints: the
    kernel takes integer rows, and scaling a row leaves the RREF."""
    out = []
    for r in rows:
        m = lcm(*[Fraction(v).denominator for v in r])
        out.append([int(Fraction(v) * m) for v in r])
    return out


def integral(echelon):
    """Every entry is a nonzero int and every row is primitive: a Fraction
    or a float would pass ==, so the type is checked."""
    return all(type(v) is int and v for row in echelon
               for v in row.values()) and all(
        gcd(*row.values()) == 1 for row in echelon)


def divided(echelon, pivots):
    """The RREF rows: each integral row divided by its leading entry."""
    return [{j: Fraction(v, row[p]) for j, v in row.items()}
            for row, p in zip(echelon, pivots)]


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
    assert integral(echelon)
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
    echelon, pivots = kernels.bareiss(sparse(scaled(rows)), ncols)
    want_rows, want_pivots = rref(rows)
    assert pivots == want_pivots
    assert [[row.get(j, 0) for j in range(ncols)]
            for row in divided(echelon, pivots)] == want_rows
    assert integral(echelon)


def test_known_echelon():
    echelon, pivots = kernels.bareiss(sparse([[2, 4], [1, 2], [0, 3]]), 2)
    assert pivots == [0, 1]
    assert divided(echelon, pivots) == [{0: 1}, {1: 1}]


def test_hilbert_matrix_reduces_to_the_identity():
    # entries 1/(i+j+1): large denominators and fast-growing integer rows
    n = 8
    rows = [[Fraction(1, i + j + 1) for j in range(n)] for i in range(n)]
    echelon, pivots = kernels.bareiss(sparse(scaled(rows)), n)
    assert pivots == list(range(n))
    assert divided(echelon, pivots) == [{i: 1} for i in range(n)]
    assert integral(echelon)


def test_ranks_divide_nothing(monkeypatch):
    # RREF [[1, 0, -1/2], [0, 1, 1/2]], kept as its integral rows
    rows = [[2, 4, 1], [1, 3, 1]]
    d_out = linalg.SparseMatrix.validated(2, 3, {
        (i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)})
    d_in = linalg.SparseMatrix.validated(3, 1, {(0, 0): 1, (1, 0): -1,
                                                (2, 0): 2})

    def forbidden(*args):
        raise AssertionError("divided into a Fraction")

    assert not hasattr(kernels, "Fraction")
    monkeypatch.setattr(linalg, "Fraction", forbidden)
    echelon, pivots = kernels.bareiss(sparse(rows), 3)
    assert pivots == [0, 1]
    assert echelon == [{0: 2, 2: -1}, {1: 2, 2: 1}]
    assert (linalg.rank(d_out), linalg.nullity(d_out)) == (2, 1)
    assert linalg.cohomology_at(d_in, d_out).dim == 0
    monkeypatch.undo()
    assert divided(echelon, pivots) == [{0: 1, 2: Fraction(-1, 2)},
                                        {1: 1, 2: Fraction(1, 2)}]
