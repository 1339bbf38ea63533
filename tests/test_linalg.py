"""Exact sparse linear algebra over Q."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgacyc import linalg
from cdgacyc.cli import load_algebra
from cdgacyc.complexes import (band_complex, label_inclusion, mapping_cone,
                               plus_complex, plus_power_matrix, shift_complex)
from cdgacyc.free_loop import free_loop
from cdgacyc.linalg import SparseMatrix

from oracles import rref_rank

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cdgacyc" / "fixtures"


def M(rows):
    """The matrix with these dense rows."""
    return SparseMatrix.validated(len(rows), len(rows[0]) if rows else 0, {
        (i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)})


def to_dense(v, n):
    """A {index: Fraction} vector as a dense list of length n, for the
    oracle."""
    return [v.get(i, Fraction(0)) for i in range(n)]


def to_sparse(v):
    """A dense sequence as an {index: Fraction} vector."""
    return {i: Fraction(x) for i, x in enumerate(v) if x}


def column(m, j):
    return {i: v for (i, jj), v in m.entries.items() if jj == j}


def assert_sparse(v, n):
    """No stored zero and no index outside range(n)."""
    assert all(isinstance(x, Fraction) and x for x in v.values()), v
    assert all(0 <= i < n for i in v), v


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
        assert_sparse(v, m.cols)
        assert m.apply(v) == {}


@given(dense)
@settings(max_examples=100, deadline=None)
def test_solve_consistency(rows):
    m = M(rows)
    # image vectors are solvable, and solutions reproduce them
    for j in range(m.cols):
        b = column(m, j)
        x = linalg.solve(m, [b])[0]
        assert x is not None
        assert_sparse(x, m.cols)
        y = m.apply(x)
        assert_sparse(y, m.rows)
        assert y == b


def test_solve_inconsistent():
    m = M([[1, 0], [0, 0]])
    assert linalg.solve(m, [{1: Fraction(1)}]) == [None]


def test_image_basis_spans_columns():
    m = M([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    basis = linalg.image_basis(m)
    assert len(basis) == linalg.rank(m)
    span = SparseMatrix.from_columns(m.rows, basis)
    for j in range(m.cols):
        assert linalg.solve(span, [column(m, j)])[0] is not None


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
    assert d_out.apply(v) == {}


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
    coords = h.coordinates([{0: Fraction(2), 1: Fraction(3)}])[0]
    rebuilt = [Fraction(0), Fraction(0)]
    for i, c in coords.items():
        rep = to_dense(h.representatives[i], 2)
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



def _columns(rows):
    return [tuple(r[j] for r in rows) for j in range(len(rows[0]))]


@st.composite
def system(draw):
    """A random matrix and right-hand sides, some in its column space."""
    rows = draw(dense)
    cols = _columns(rows)
    ints = st.integers(-3, 3)
    rhs = []
    for _ in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            cs = draw(st.lists(ints, min_size=len(cols), max_size=len(cols)))
            rhs.append(tuple(sum(c * v[i] for c, v in zip(cs, cols))
                             for i in range(len(rows))))
        else:
            rhs.append(tuple(Fraction(x) for x in draw(
                st.lists(ints, min_size=len(rows), max_size=len(rows)))))
    return rows, rhs


@given(system())
@settings(max_examples=150, deadline=None)
def test_batched_solve_matches_columnwise(case):
    rows, rhs = case
    m = M(rows)
    xs = linalg.solve(m, [to_sparse(b) for b in rhs])
    assert xs == [linalg.solve(m, [to_sparse(b)])[0] for b in rhs]
    for b, x in zip(rhs, xs):
        assert (x is None) == (rref_rank([list(r) + [y] for r, y in
                                          zip(rows, b)]) > rref_rank(rows))
        if x is not None:
            assert_sparse(x, m.cols)
            assert m.apply(x) == to_sparse(b)


@st.composite
def complex_at(draw):
    """(d_in, d_out) with d_out . d_in = 0, through an ambient Q^n."""
    n = draw(st.integers(1, 5))
    ints = st.integers(-2, 2)
    p = draw(st.integers(0, 4))
    d_in = SparseMatrix.validated(n, p, {
        (i, j): draw(ints) for i in range(n) for j in range(p)})
    # rows of d_out: combinations of the left kernel of d_in
    left = linalg.kernel_basis(SparseMatrix(
        p, n, {(j, i): v for (i, j), v in d_in.entries.items()}))
    q = draw(st.integers(0, 3))
    out = {}
    for i in range(q):
        cs = draw(st.lists(ints, min_size=len(left), max_size=len(left)))
        for j in range(n):
            out[(i, j)] = sum(c * v.get(j, 0) for c, v in zip(cs, left))
    return d_in, SparseMatrix.validated(q, n, out)


def _greedy_representatives(d_in, d_out):
    """Kernel vectors that raise the rank of the image and those before."""
    n = d_in.rows
    seen = [to_dense(v, n) for v in linalg.image_basis(d_in)]
    reps = []
    for v in linalg.kernel_basis(d_out):
        if rref_rank(seen + [to_dense(v, n)]) > rref_rank(seen):
            reps.append(v)
            seen = seen + [to_dense(v, n)]
    return reps


@given(complex_at())
@settings(max_examples=150, deadline=None)
def test_cohomology_representatives_are_the_greedy_ones(case):
    d_in, d_out = case
    h = linalg.cohomology_at(d_in, d_out)
    assert h.representatives == _greedy_representatives(d_in, d_out)
    assert h.dim == (linalg.nullity(d_out) - linalg.rank(d_in))
    for v in linalg.kernel_basis(d_out):
        assert_sparse(v, d_out.cols)
    for v in linalg.image_basis(d_in):
        assert_sparse(v, d_in.rows)
    # a representative has one unit coordinate, an image vector none
    coords = h.coordinates(h.representatives + h.image)
    for x in coords:
        assert_sparse(x, h.dim)
    assert coords == ([{i: 1} for i in range(h.dim)]
                      + [{} for _ in h.image])


def _in_span(vectors, v, n):
    rows = [to_dense(u, n) for u in vectors]
    return rref_rank(rows + [to_dense(v, n)]) == rref_rank(rows)


@given(complex_at(), complex_at(), st.data())
@settings(max_examples=150, deadline=None)
def test_not_chain_compatible_witness_order(src, tgt, data):
    source = linalg.cohomology_at(*src)
    target = linalg.cohomology_at(*tgt)
    f = SparseMatrix.validated(target.ambient, source.ambient, {
        (i, j): data.draw(st.integers(-1, 1))
        for i in range(target.ambient) for j in range(source.ambient)})
    ker_span = list(target.representatives) + list(target.image)
    n = target.ambient
    bad_image = [v for v in source.image
                 if not _in_span(target.image, f.apply(v), n)]
    bad_kernel = [v for v in source.representatives
                  if not _in_span(ker_span, f.apply(v), n)]
    if not bad_image and not bad_kernel:
        m = linalg.induced_map(f, source, target)
        assert (m.rows, m.cols) == (target.dim, source.dim)
        return
    with pytest.raises(linalg.NotChainCompatible) as err:
        linalg.induced_map(f, source, target)
    if bad_image:
        assert err.value.witness == bad_image[0]
        assert "image not carried" in str(err.value)
    else:
        assert err.value.witness == bad_kernel[0]
        assert "kernel not carried" in str(err.value)


def test_not_chain_compatible_names_first_failure():
    free = linalg.cohomology_at(SparseMatrix.zero(3, 0),
                                SparseMatrix.zero(0, 3))
    # image e0, e1; f kills e0, so e1 is the first image vector to fail
    source = linalg.cohomology_at(M([[1, 0], [0, 1], [0, 0]]),
                                  SparseMatrix.zero(0, 3))
    with pytest.raises(linalg.NotChainCompatible) as err:
        linalg.induced_map(M([[0, 0, 0], [0, 1, 0], [0, 0, 1]]),
                           source, free)
    assert err.value.witness == source.image[1]
    # representatives e0, e1, e2 into Ker (0 1 0): e1 fails first
    target = linalg.cohomology_at(SparseMatrix.zero(3, 0), M([[0, 1, 0]]))
    with pytest.raises(linalg.NotChainCompatible) as err:
        linalg.induced_map(SparseMatrix.identity(3), free, target)
    assert err.value.witness == free.representatives[1]


def test_empty_matrix_is_not_eliminated(monkeypatch):
    calls = []
    bareiss = linalg.bareiss

    def counted(rows, ncols):
        calls.append((len(rows), ncols))
        return bareiss(rows, ncols)

    monkeypatch.setattr(linalg, "bareiss", counted)
    zeros = {shape: SparseMatrix.zero(*shape)
             for shape in [(0, 3), (3, 0), (2, 2)]}
    for (r, c), m in zeros.items():
        rank = rref_rank([[0] * c for _ in range(r)])
        assert linalg.rank(m) == rank
        basis = linalg.kernel_basis(m)
        assert len(basis) == c - rank
        assert rref_rank([to_dense(v, c) for v in basis]) == c - rank
    for d_in, d_out in [((3, 0), (0, 3)), ((0, 3), (3, 0)), ((2, 2), (2, 2))]:
        h = linalg.cohomology_at(zeros[d_in], zeros[d_out])
        # both maps are zero, so every vector of the ambient Q^n is a class
        n = d_in[0]
        assert h.dim == n
        assert rref_rank([to_dense(v, n) for v in h.representatives]) == n
    assert calls == []


def test_image_vector_on_representative_zero_is_not_in_image():
    # the image e0 of the source lands on representative 0 of the target,
    # whose coordinates {0: 1} are nonzero although their only key is 0
    source = linalg.cohomology_at(M([[1]]), SparseMatrix.zero(0, 1))
    target = linalg.cohomology_at(SparseMatrix.zero(1, 0),
                                  SparseMatrix.zero(0, 1))
    assert target.coordinates(source.image) == [{0: 1}]
    with pytest.raises(linalg.NotChainCompatible,
                       match="image not carried into image") as err:
        linalg.induced_map(SparseMatrix.identity(1), source, target)
    assert err.value.witness == {0: 1}


def test_coordinates_of_zero_vector_are_zero_not_none():
    h = linalg.cohomology_at(SparseMatrix.zero(2, 0), M([[1, 0]]))
    assert h.coordinates([{}]) == [{}]


def assert_matrix(m):
    """The matrix invariant: every entry a nonzero Fraction at an index in
    range of the shape."""
    for (i, j), v in m.entries.items():
        assert type(v) is Fraction and v, (i, j, v)
        assert 0 <= i < m.rows and 0 <= j < m.cols, (i, j, m)


small = st.integers(-2, 2)


@st.composite
def matrix_triple(draw):
    """a and b of one shape, c composable with them; small entries, so
    that sums, differences and products cancel often."""
    r, k, n = (draw(st.integers(0, 4)) for _ in range(3))

    def mat(rows, cols):
        return M([draw(st.lists(small, min_size=cols, max_size=cols))
                  for _ in range(rows)]) if rows else SparseMatrix.zero(0, cols)
    return mat(r, k), mat(r, k), mat(k, n)


@given(matrix_triple(), st.one_of(small, st.fractions(-3, 3, max_denominator=5)))
@settings(max_examples=150, deadline=None)
def test_arithmetic_keeps_the_matrix_invariant(mats, c):
    a, b, m = mats
    for out in (a @ m, a + b, a - b, a - a, a + a.scale(-1), -a, a.scale(c),
                a.scale(0)):
        assert_matrix(out)
    assert a.scale(0).entries == {}
    assert (a - a).entries == {}


@given(dense)
@settings(max_examples=100, deadline=None)
def test_from_columns_and_solve_keep_the_invariant(rows):
    m = M(rows)
    kern = linalg.kernel_basis(m)
    assert_matrix(SparseMatrix.from_columns(m.cols, kern))
    xs = linalg.solve(m, [column(m, j) for j in range(m.cols)])
    for x in xs:
        assert_sparse(x, m.cols)
    assert_matrix(SparseMatrix.from_columns(m.cols, xs))


def test_complexes_of_a_fixture_keep_the_invariant():
    mixed = free_loop(load_algebra(FIXTURES / "product_s2_s3.json")) \
        .mixed_complex(8)
    mats = [mixed.delta_m(n) for n in range(8)] + \
        [mixed.beta_m(n) for n in range(1, 9)] + \
        [mixed.power_matrix(k, n) for k in (-1, 2, 3) for n in range(9)]
    plus = plus_complex(mixed, 0, 8)
    mats += [plus.d(n) for n in range(8)]
    mats += [plus_power_matrix(mixed, plus, k, n)
             for k in (-1, 2) for n in range(8)]
    for w in range(3):
        amb = band_complex(mixed, w, "plus", 0, 8)
        sub = shift_complex(band_complex(mixed, w + 1, "plus", 0, 6), 2)
        slc = band_complex(mixed, w, "slice", 0, 8)
        cone, include, project = mapping_cone(label_inclusion(sub, amb))
        for c in (amb, sub, slc, cone):
            mats += [c.d(n) for n in range(-1, 8)]
        for f in (include, project):
            mats += [f.matrix(n) for n in range(-1, 8)]
    assert sum(len(m.entries) for m in mats) > 1000
    for m in mats:
        assert_matrix(m)


@pytest.mark.parametrize("rows, cols, entries", [
    (1, 1, {(0, 0): 0.5}),
    (1, 1, {(0, 0): "1/x"}),
    (1, 1, {(0, 0): "1/0"}),
    (2, 2, {(2, 0): 1}),
    (2, 2, {(0, -1): 1}),
    (-1, 2, {}),
])
def test_validated_rejects_what_is_not_a_rational_matrix(rows, cols, entries):
    with pytest.raises(linalg.LinalgError):
        SparseMatrix.validated(rows, cols, entries)


def test_validated_converts_and_drops_zeros():
    m = SparseMatrix.validated(2, 2, {(0, 0): 2, (0, 1): "-1/3",
                                      (1, 0): Fraction(0), (1, 1): "0"})
    assert m.entries == {(0, 0): 2, (0, 1): Fraction(-1, 3)}
    assert_matrix(m)
