"""Exact sparse linear algebra over Q."""

from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgacyc import cli, linalg
from cdgacyc.cli import load_algebra
from cdgacyc.complexes import (band_complex, label_inclusion, mapping_cone,
                               plus_complex, plus_power_matrix, shift_complex)
from cdgacyc.free_loop import free_loop
from cdgacyc.linalg import SparseMatrix

from matrices import entries
from oracles import rref, rref_rank

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
    return {i: v for (i, jj), v in entries(m).items() if jj == j}


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


def test_image_basis_of_integer_born_matrix_matches_fraction_entries():
    rows = [[1, 2, 3, 0], [2, 4, 6, 5], [0, 1, 1, -3]]
    nums = {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)
            if v}
    born = SparseMatrix(3, 4, integer=(6, nums))
    built = SparseMatrix(3, 4, {k: Fraction(v, 6) for k, v in nums.items()})
    assert linalg.image_basis(born) == linalg.image_basis(built)


def test_matrix_algebra():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a @ b == M([[2, 1], [4, 3]])
    assert a + b == M([[1, 3], [4, 4]])
    assert entries(a - a) == {}
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
        p, n, {(j, i): v for (i, j), v in entries(d_in).items()}))
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
    # a denominator other than 1 meets the integer path with den != 1
    den = data.draw(st.integers(1, 3))
    f = SparseMatrix.validated(target.ambient, source.ambient, {
        (i, j): Fraction(data.draw(st.integers(-1, 1)), den)
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
        # column j holds the target coordinates of f(representative j)
        for j, rep in enumerate(source.representatives):
            assert column(m, j) == _oracle_coordinates(target, tgt[1],
                                                       f.apply(rep))
        return
    with pytest.raises(linalg.NotChainCompatible) as err:
        linalg.induced_map(f, source, target)
    if bad_image:
        assert err.value.witness == bad_image[0]
        assert "image not carried" in str(err.value)
    else:
        assert err.value.witness == bad_kernel[0]
        assert "kernel not carried" in str(err.value)


def test_induced_map_divides_by_every_scale():
    # f = I/2; the source representative e2 - e0/2 is half an integer
    # vector; the target's image (1, 0, 3) gives a pivot row led by 3
    source = linalg.cohomology_at(SparseMatrix.zero(3, 0), M([[2, 0, 1]]))
    d_out = SparseMatrix.zero(0, 3)
    target = linalg.cohomology_at(M([[1], [0], [3]]), d_out)
    f = SparseMatrix.scalar(3, Fraction(1, 2))
    m = linalg.induced_map(f, source, target)
    assert source.representatives == [{1: 1}, {2: 1, 0: Fraction(-1, 2)}]
    assert m == M([[0, Fraction(-5, 12)], [Fraction(1, 2), 0]])
    for j, rep in enumerate(source.representatives):
        assert column(m, j) == _oracle_coordinates(target, d_out,
                                                   f.apply(rep))


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
    for (i, j), v in entries(m).items():
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
    for out in (a @ m, a + b, a - b, a - a, a + a.scale(-1), a.scale(-1),
                a.scale(c), a.scale(0)):
        assert_matrix(out)
    assert entries(a.scale(0)) == {}
    assert entries(a - a) == {}


# Mostly zeros, with small denominators, so that products and sums
# cancel after the denominators are cleared.
rationals = st.one_of(st.just(Fraction(0)),
                      st.fractions(-3, 3, max_denominator=6))
scalars = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=6))


def from_dense(rows, cols, d):
    return SparseMatrix.validated(rows, cols, {
        (i, j): v for i, r in enumerate(d) for j, v in enumerate(r)})


def dense_of(m):
    """The reference: m as a dense list of Fraction rows."""
    known = entries(m)
    return [[known.get((i, j), Fraction(0)) for j in range(m.cols)]
            for i in range(m.rows)]


def dense_mul(a, b, cols):
    return [[sum((r[j] * b[j][k] for j in range(len(b))), Fraction(0))
             for k in range(cols)] for r in a]


def dense_scale(c, a):
    return [[c * x for x in r] for r in a]


def dense_add(a, b):
    return [[x + y for x, y in zip(r, s)] for r, s in zip(a, b)]


@st.composite
def rational_operands(draw):
    """a and b of one shape r x k, c of shape k x n, with sparse Fraction
    entries, and their dense references."""
    r, k, n = (draw(st.integers(0, 4)) for _ in range(3))

    def mat(rows, cols):
        d = [draw(st.lists(rationals, min_size=cols, max_size=cols))
             for _ in range(rows)]
        return from_dense(rows, cols, d), d
    return mat(r, k), mat(r, k), mat(k, n)


@given(rational_operands(), scalars, scalars, st.data())
@settings(max_examples=100, deadline=None)
def test_integer_arithmetic_matches_dense_fractions(ops, c, e, data):
    (a, da), (b, db), (m, dm) = ops
    n = m.cols
    # born matrices (scaled, summed) as operands, so that their integer
    # forms carry different denominators
    ca, eb = a.scale(c), b.scale(e)
    dca, deb = dense_scale(Fraction(c), da), dense_scale(Fraction(e), db)
    cases = [
        (a @ m, dense_mul(da, dm, n)),
        (ca @ m, dense_mul(dca, dm, n)),
        ((ca + eb) @ m.scale(e), dense_mul(dense_add(dca, deb),
                                           dense_scale(Fraction(e), dm), n)),
        (a + b, dense_add(da, db)),
        (ca - eb, dense_add(dca, dense_scale(Fraction(-1), deb))),
        (ca.scale(-1), dense_scale(Fraction(-c), da)),
        (a.scale(c), dca),
        (ca.scale(Fraction(1, 3)), dense_scale(Fraction(c, 3), da)),
    ]
    for out, ref in cases:
        assert dense_of(out) == ref
        assert out.is_zero() == all(x == 0 for r in ref for x in r)
        assert_matrix(out)
    assert (ca == eb) == (dca == deb)
    assert (eb == ca) == (dca == deb)
    assert (a == b) == (da == db)
    assert (ca - eb).is_zero() == (dca == deb)
    assert (a == a.scale(Fraction(1, 3))) == a.is_zero()
    assert ca == from_dense(a.rows, a.cols, dca)
    # a born matrix applied to a vector, over Z: no entry becomes a
    # Fraction on the way
    born = a.scale(c) + b.scale(e)
    vec = to_sparse(data.draw(st.lists(rationals, min_size=a.cols,
                                       max_size=a.cols)))
    out = born.apply(vec)
    assert_sparse(out, a.rows)
    ref = dense_mul(dense_add(dca, deb), [[vec.get(j, Fraction(0))]
                                          for j in range(a.cols)], 1)
    assert to_dense(out, a.rows) == [x for x, in ref]


@st.composite
def matrix_and_vectors(draw):
    """A sparse Fraction matrix and vectors of its source: kernel vectors
    with fractional coefficients, and arbitrary ones."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    d = [draw(st.lists(rationals, min_size=cols, max_size=cols))
         for _ in range(rows)]
    m = from_dense(rows, cols, d)
    kernel = linalg.kernel_basis(m)
    vectors = []
    for _ in range(draw(st.integers(0, 5))):
        if kernel and draw(st.booleans()):
            cs = draw(st.lists(rationals, min_size=len(kernel),
                               max_size=len(kernel)))
            v = [sum((c * k.get(i, 0) for c, k in zip(cs, kernel)),
                     Fraction(0)) for i in range(cols)]
        else:
            v = draw(st.lists(rationals, min_size=cols, max_size=cols))
        vectors.append(to_sparse(v))
    return m, d, vectors


@given(matrix_and_vectors())
@settings(max_examples=100, deadline=None)
def test_cocycle_test_matches_dense_fractions(case):
    m, d, vectors = case
    expected = [not any(sum((x * v.get(j, 0) for j, x in enumerate(r)),
                            Fraction(0)) for r in d) for v in vectors]
    h = linalg.cohomology_at(SparseMatrix.zero(m.cols, 0), m)
    assert [x is not None for x in h.coordinates(vectors)] == expected


def test_near_misses_after_cancelling_denominators():
    # d_out . d_in = 2/9 - 1/9 = 1/9
    with pytest.raises(linalg.PreconditionError):
        linalg.cohomology_at(M([[Fraction(2, 3)], [Fraction(1, 3)]]),
                             M([[Fraction(1, 3), Fraction(-1, 3)]]))
    # 2/9 - 2/9 = 0
    linalg.cohomology_at(M([[Fraction(2, 3)], [Fraction(1, 3)]]),
                         M([[Fraction(1, 3), Fraction(-2, 3)]]))
    v = {0: Fraction(1, 2), 1: Fraction(-1, 3)}
    for row, cocycle in (([2, 3], True), ([3, 2], False), ([1, 1], False)):
        h = linalg.cohomology_at(SparseMatrix.zero(2, 0), M([row]))
        assert (h.coordinates([v])[0] is not None) == cocycle, row
    one = M([[1]])
    assert one != one.scale(Fraction(1, 3))
    assert one.scale(3) != one
    assert one.scale(Fraction(1, 3)) == M([[Fraction(1, 3)]])


def draw_image(draw, rows, cols):
    """A {col: row} map: injective half of the time, arbitrary otherwise,
    so that two columns often share a row."""
    if not rows or not cols:
        return {}
    if draw(st.booleans()):
        return dict(zip(draw(st.lists(st.integers(0, cols - 1), unique=True,
                                      max_size=cols)),
                        draw(st.permutations(range(rows)))))
    return draw(st.dictionaries(st.integers(0, cols - 1),
                                st.integers(0, rows - 1)))


@st.composite
def relabelling_case(draw):
    """A rows x cols and a cols x rows label map, and matrices and a
    vector to combine them with."""
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    k = draw(st.integers(0, 3))

    def mat(r, c):
        return from_dense(r, c, [
            draw(st.lists(rationals, min_size=c, max_size=c))
            for _ in range(r)])
    vec = {j: x for j, x in enumerate(draw(st.lists(
        rationals, min_size=cols, max_size=cols))) if x}
    return (rows, cols, draw_image(draw, rows, cols),
            draw_image(draw, cols, rows), mat(cols, k), mat(k, rows),
            mat(rows, cols), vec)


@given(relabelling_case(), scalars)
@settings(max_examples=100, deadline=None)
def test_relabelling_matches_the_general_matrix(case, c):
    rows, cols, image, back, right, left, same, vec = case
    r, s = (SparseMatrix.relabelling(rows, cols, image),
            SparseMatrix.relabelling(cols, rows, back))
    g, h = (SparseMatrix.validated(n, m, {(i, j): 1 for j, i in f.items()})
            for n, m, f in ((rows, cols, image), (cols, rows, back)))
    assert r == g and g == r
    assert entries(r) == entries(g)
    assert_matrix(r)
    assert r.integer() == g.integer()
    assert r.apply(vec) == g.apply(vec)
    assert linalg.rank(r) == linalg.rank(g)
    for out, ref in ((r @ right, g @ right), (left @ r, left @ g),
                     (r @ s, g @ h), (s @ r, h @ g), (r @ h, g @ h),
                     (r + same, g + same), (r.scale(c), g.scale(c))):
        assert dense_of(out) == dense_of(ref)
        assert_matrix(out)


@st.composite
def relabelling_system(draw):
    """An injective label map, and right-hand sides: some in its column
    space, and, when the image misses a row, one with an entry there."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    image = dict(zip(draw(st.lists(st.integers(0, max(cols - 1, 0)),
                                   unique=True, max_size=cols)),
                     draw(st.permutations(range(rows)))))
    rhs = [{i: x for i, x in enumerate(b) if x}
           for b in draw(st.lists(st.lists(rationals, min_size=rows,
                                           max_size=rows), max_size=3))]
    rhs += [{i: x for i, x in b.items() if i in image.values()}
            for b in rhs]
    off = [i for i in range(rows) if i not in image.values()]
    if off:
        rhs.append({draw(st.sampled_from(off)): Fraction(draw(scalars) or 1)})
    return rows, cols, image, rhs


@given(relabelling_system())
@settings(max_examples=200, deadline=None)
def test_relabelling_solve_matches_the_elimination(case):
    rows, cols, image, rhs = case
    r = SparseMatrix.relabelling(rows, cols, image)
    # the same 0/1 matrix, built without its image map, is eliminated
    g = SparseMatrix(rows, cols, integer=(1, {
        (i, j): 1 for j, i in image.items()}))
    assert r._image is not None and g._image is None
    got, want = linalg.solve(r, rhs), linalg.solve(g, rhs)
    assert [x if x is None else list(x.items()) for x in got] == [
        x if x is None else list(x.items()) for x in want]
    for b, x in zip(rhs, got):
        assert (x is None) == any(i not in image.values() for i in b)
        if x is not None:
            assert_sparse(x, cols)
            assert r.apply(x) == b


def test_relabelling_solve_eliminates_nothing(monkeypatch):
    def forbidden(*args):
        raise AssertionError("a relabelling was eliminated")

    monkeypatch.setattr(linalg, "bareiss", forbidden)
    r = SparseMatrix.relabelling(3, 2, {0: 2, 1: 0})
    rhs = [{0: Fraction(1, 2), 2: Fraction(3)}, {1: Fraction(1)}]
    assert linalg.solve(r, rhs) == [{0: Fraction(3), 1: Fraction(1, 2)}, None]


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
    plus = plus_complex(mixed, 8)
    mats += [plus.d(n) for n in range(8)]
    mats += [plus_power_matrix(mixed, k, n)
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
    assert sum(len(m.integer()[1]) for m in mats) > 1000
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
    assert entries(m) == {(0, 0): 2, (0, 1): Fraction(-1, 3)}
    assert_matrix(m)


@st.composite
def complex_and_vectors(draw):
    """A complex_at case and vectors of its ambient space: cocycles (sums
    of kernel vectors) and arbitrary ones."""
    d_in, d_out = draw(complex_at())
    n = d_out.cols
    kernel = linalg.kernel_basis(d_out)
    ints = st.integers(-2, 2)
    vectors = []
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            cs = draw(st.lists(ints, min_size=len(kernel), max_size=len(kernel)))
            v = [sum(c * k.get(i, 0) for c, k in zip(cs, kernel))
                 for i in range(n)]
        else:
            v = draw(st.lists(ints, min_size=n, max_size=n))
        vectors.append(to_sparse(v))
    return d_in, d_out, vectors


def _oracle_coordinates(h, d_out, v):
    """None when the dense d_out . v is nonzero, else the solution of
    [representatives | image] c = v by naive Gauss-Jordan, cut to the
    representatives."""
    n = h.ambient
    known = entries(d_out)
    dense_out = [[known.get((i, j), 0) for j in range(n)]
                 for i in range(d_out.rows)]
    if any(sum(a * v.get(j, 0) for j, a in enumerate(row))
           for row in dense_out):
        return None
    columns = [to_dense(u, n) for u in h.representatives + h.image]
    rows, pivots = rref([[c[i] for c in columns] + [v.get(i, 0)]
                         for i in range(n)])
    assert len(columns) not in pivots, "a cocycle outside the kernel span"
    return {p: row[-1] for p, row in zip(pivots, rows)
            if p < h.dim and row[-1]}


@given(complex_and_vectors())
@settings(max_examples=150, deadline=None)
def test_coordinates_match_the_oracle(case):
    d_in, d_out, vectors = case
    h = linalg.cohomology_at(d_in, d_out)
    coords = h.coordinates(vectors)
    assert coords == [_oracle_coordinates(h, d_out, v) for v in vectors]
    for x in coords:
        if x is not None:
            assert_sparse(x, h.dim)


def _count_bareiss(monkeypatch):
    calls = []
    bareiss = linalg.bareiss

    def counted(rows, ncols):
        calls.append((len(rows), ncols))
        return bareiss(rows, ncols)

    monkeypatch.setattr(linalg, "bareiss", counted)
    return calls


def _fixture_inclusion():
    """S: the shifted +band of weight 2 into the +band of weight 1 of
    product_s2_s3, whose induced maps fig2_audit reads."""
    mixed = free_loop(load_algebra(FIXTURES / "product_s2_s3.json")) \
        .mixed_complex(8)
    amb = band_complex(mixed, 1, "plus", 0, 8)
    sub = shift_complex(band_complex(mixed, 2, "plus", 0, 6), 2)
    return label_inclusion(sub, amb)


def test_coordinates_and_induced_maps_eliminate_nothing_once_built(
        monkeypatch):
    f = _fixture_inclusion()
    pairs = [(f.matrix(n), f.source.cohomology(n), f.target.cohomology(n))
             for n in range(8)]
    for _, source, target in pairs:
        for h in (source, target):
            h.coordinates(h.representatives + h.image)
    assert sum(source.dim for _, source, _ in pairs) > 0
    calls = _count_bareiss(monkeypatch)
    for m, source, target in pairs:
        induced = linalg.induced_map(m, source, target)
        assert (induced.rows, induced.cols) == (target.dim, source.dim)
        target.coordinates([m.apply(v) for v in source.representatives]
                           + target.image + [{}])
    assert calls == []


def test_betti_builds_no_kernel_basis(monkeypatch):
    def forbidden(*args):
        raise AssertionError("betti built a basis")

    calls = _count_bareiss(monkeypatch)
    for name in ("kernel_basis", "_kernel_vectors", "image_basis", "solve"):
        monkeypatch.setattr(linalg, name, forbidden)
    amb = _fixture_inclusion().target
    dims = [amb.betti(n) for n in range(9)]
    assert any(dims)
    # each differential is eliminated at most once, and nothing else is
    shapes = [(m.rows, m.cols) for m in amb.diff.values() if not m.is_zero()]
    assert len(calls) <= len(shapes)
    assert all((rows, ncols) in shapes for rows, ncols in calls)


def test_induced_map_on_a_zero_ambient_is_the_zero_matrix():
    # the long path reads no coordinates here and gives the same shapes
    point = linalg.cohomology_at(SparseMatrix.zero(0, 0),
                                 SparseMatrix.zero(0, 0))
    plane = linalg.cohomology_at(SparseMatrix.zero(2, 0),
                                 SparseMatrix.zero(0, 2))
    line = linalg.cohomology_at(M([[1], [0]]), SparseMatrix.zero(0, 2))
    assert (point.ambient, plane.dim, line.dim) == (0, 2, 1)
    for f, source, target in [(SparseMatrix.zero(2, 0), point, plane),
                              (SparseMatrix.zero(0, 2), plane, point),
                              (SparseMatrix.zero(0, 2), line, point),
                              (SparseMatrix.zero(2, 0), point, line)]:
        m = linalg.induced_map(f, source, target)
        assert (m.rows, m.cols) == (target.dim, source.dim)
        assert m.is_zero()
        assert m == SparseMatrix.from_columns(
            target.dim, [{} for _ in range(source.dim)])
    for f, source, target in [(SparseMatrix.zero(2, 1), point, plane),
                              (SparseMatrix.zero(1, 2), plane, point),
                              (SparseMatrix.zero(0, 0), point, plane)]:
        with pytest.raises(linalg.LinalgError, match="shape mismatch"):
            linalg.induced_map(f, source, target)


def test_cohomology_at_checks_shapes_and_the_composite():
    with pytest.raises(linalg.LinalgError, match="ambient dimension"):
        linalg.cohomology_at(SparseMatrix.zero(0, 2), M([[1, 1]]))
    with pytest.raises(linalg.LinalgError, match="ambient dimension"):
        linalg.cohomology_at(M([[1, 1]]), SparseMatrix.zero(2, 0))
    # a zero ambient is always a complex: its subquotient is 0
    h = linalg.cohomology_at(SparseMatrix.zero(0, 3), SparseMatrix.zero(2, 0))
    assert (h.dim, h.ambient, h.representatives) == (0, 0, [])
    # a nonzero ambient still has d_out . d_in decided
    with pytest.raises(linalg.PreconditionError):
        linalg.cohomology_at(M([[1, 0], [0, 0]]), M([[1, 0]]))
    assert linalg.cohomology_at(M([[0, 0], [1, 0]]), M([[1, 0]])).dim == 0


def test_zero_matrices_are_shared_and_nothing_changes_them():
    z = SparseMatrix.zero(2, 2)
    assert SparseMatrix.zero(2, 2) is z
    assert SparseMatrix.zero(2, 3) is not z
    a = M([[1, 2], [3, 4]])
    # a product with a zero operand, or with an empty shape, is the
    # shared zero of its shape
    assert a @ z is z and z @ a is z and a.scale(0) is z
    assert SparseMatrix.zero(3, 0) @ SparseMatrix.zero(0, 2) \
        is SparseMatrix.zero(3, 2)
    # read z every way the package reads a matrix, and change what comes
    # back
    basis = linalg.kernel_basis(z)
    basis[0][1] = Fraction(5)
    assert linalg.solve(z, [{}, {0: Fraction(1)}]) == [{}, None]
    h = linalg.cohomology_at(z, z)
    h.representatives[0][1] = Fraction(7)
    assert h.coordinates([{0: Fraction(1)}]) == [{0: Fraction(1)}]
    assert z.apply({0: Fraction(1)}) == {}
    assert z + a == a and a - z == a and (z - a) == a.scale(-1)
    # every form of z is read-only
    for form in (z.integer()[1], z.columns()):
        with pytest.raises(TypeError):
            form[(0, 0)] = Fraction(1)
    # another zero of the shape is still zero and eliminates as one
    fresh = SparseMatrix.zero(2, 2)
    assert fresh.is_zero() and fresh == SparseMatrix.validated(2, 2, {})
    assert linalg.kernel_basis(fresh) == [{0: 1}, {1: 1}]
    assert linalg.cohomology_at(fresh, fresh).representatives \
        == [{0: 1}, {1: 1}]


def test_check_leaves_zero_groups_to_the_shapes(monkeypatch, capsys):
    # counts, not times: no coordinate lookup on a zero ambient, and every
    # product of an empty shape is the shared zero
    ambients, products, built = [], [], []
    coordinates = linalg.SubquotientBasis.coordinates
    matmul = SparseMatrix.__matmul__

    def counted_coordinates(self, vectors):
        ambients.append(self.ambient)
        return coordinates(self, vectors)

    def counted_matmul(a, b):
        out = matmul(a, b)
        products.append(out)
        if not (out.rows and out.cols) and \
                out is not SparseMatrix.zero(out.rows, out.cols):
            built.append((out.rows, out.cols))
        return out

    monkeypatch.setattr(linalg.SubquotientBasis, "coordinates",
                        counted_coordinates)
    monkeypatch.setattr(SparseMatrix, "__matmul__", counted_matmul)
    argv = ["check", str(FIXTURES / "product_s2_s3.json"), "--cutoff", "6"]
    assert cli.main(argv) == 0
    assert "FAIL" not in capsys.readouterr().out
    assert ambients and 0 not in ambients
    assert any(not (m.rows and m.cols) for m in products)
    assert built == []
