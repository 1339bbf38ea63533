"""Exact sparse linear algebra over Q."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgacyc import linalg
from cdgacyc.linalg import SparseMatrix

from oracles import rref_rank


def M(rows):
    return SparseMatrix.from_dense([[Fraction(v) for v in r] for r in rows])


dense = st.integers(1, 5).flatmap(
    lambda nc: st.lists(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=4),
            min_size=nc, max_size=nc,
        ),
        min_size=1, max_size=5,
    )
)


@given(dense)
@settings(max_examples=150, deadline=None)
def test_rank_matches_naive(rows):
    assert linalg.rank(M(rows)) == rref_rank(rows)


@given(dense)
@settings(max_examples=150, deadline=None)
def test_kernel_vectors_annihilate(rows):
    m = M(rows)
    basis = linalg.kernel_basis(m)
    assert len(basis) == m.cols - linalg.rank(m)
    for v in basis:
        assert not any(m.apply(v))


@given(dense)
@settings(max_examples=100, deadline=None)
def test_solve_consistency(rows):
    m = M(rows)
    # image vectors are solvable, and solutions reproduce them
    for j in range(m.cols):
        b = m.column(j)
        x = linalg.solve(m, b)
        assert x is not None
        assert tuple(m.apply(x)) == tuple(b)


def test_solve_inconsistent():
    m = M([[1, 0], [0, 0]])
    assert linalg.solve(m, (Fraction(0), Fraction(1))) is None


def test_image_basis_spans_columns():
    m = M([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = linalg.image_basis(m)
    assert len(basis) == linalg.rank(m)
    span = list(basis)
    for j in range(m.cols):
        assert linalg.in_span(span, m.column(j))


def test_matrix_algebra():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a @ b == M([[2, 1], [4, 3]])
    assert a + b == M([[1, 3], [4, 4]])
    assert (a - a).entries == {}
    assert SparseMatrix.identity(2) @ a == a


def test_cohomology_at_simple():
    # 0 -> Q^2 -d-> Q -> 0 with d = (1 1): H = ker d, dim 1
    d_in = SparseMatrix.zero(2, 0)
    d_out = M([[1, 1]])
    h = linalg.cohomology_at(d_in, d_out)
    assert h.dim == 1
    v = h.representatives[0]
    assert not any(d_out.apply(v))


def test_cohomology_at_with_image():
    # Q -d1-> Q^2 -d2-> Q, d1 = (1,1)^T, d2 = (1,-1): exact in the middle
    d1 = M([[1], [1]])
    d2 = M([[1, -1]])
    h = linalg.cohomology_at(d1, d2)
    assert h.dim == 0


def test_cohomology_rejects_non_complex():
    d1 = M([[1], [0]])
    d2 = M([[1, 0]])
    with pytest.raises(linalg.PreconditionError):
        linalg.cohomology_at(d1, d2)


def test_coordinates_of_classes():
    d_in = SparseMatrix.zero(2, 0)
    d_out = SparseMatrix.zero(0, 2)
    h = linalg.cohomology_at(d_in, d_out)
    assert h.dim == 2
    coords = h.coordinates((Fraction(2), Fraction(3)))
    rebuilt = [Fraction(0), Fraction(0)]
    for c, rep in zip(coords, h.representatives):
        rebuilt = [a + c * b for a, b in zip(rebuilt, rep)]
    assert rebuilt == [Fraction(2), Fraction(3)]


def test_induced_map_identity():
    d_in = SparseMatrix.zero(2, 0)
    d_out = M([[1, 0]])
    h = linalg.cohomology_at(d_in, d_out)
    m = linalg.induced_map(SparseMatrix.identity(2), h, h)
    assert m == SparseMatrix.identity(h.dim)


def test_induced_map_rejects_non_chain():
    # f does not preserve the kernel
    d_in = SparseMatrix.zero(2, 0)
    d_out = M([[1, 0]])
    h = linalg.cohomology_at(d_in, d_out)
    f = M([[0, 1], [1, 0]])
    with pytest.raises(linalg.NotChainCompatible):
        linalg.induced_map(f, h, h)

