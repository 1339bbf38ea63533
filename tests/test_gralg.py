"""Graded algebra arithmetic: signs, bases, derivations."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cdgacyc import gralg
from cdgacyc.gralg import (
    AlgebraError,
    Derivation,
    FreeCDGA,
    Generator,
    GradedAlgebra,
    monomial_degree,
    monomial_mul,
    poly_add,
    poly_scale,
)

X = Generator(0, "x", 2)
Y = Generator(1, "y", 3)
Z = Generator(2, "z", 3)
W = Generator(3, "w", 4)
ALG = GradedAlgebra([X, Y, Z, W])


def poly_mul(p, q):
    """The product of two polynomials, term by term through monomial_mul:
    the reference the derivations and Leibniz laws are checked against."""
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            r = monomial_mul(m1, m2)
            if r is None:
                continue
            sign, m = r
            out[m] = out.get(m, Fraction(0)) + sign * c1 * c2
            if not out[m]:
                del out[m]
    return out


def mono(*pairs):
    return tuple(pairs)


def test_odd_square_is_zero():
    assert monomial_mul(mono((Y, 1)), mono((Y, 1))) is None
    p = poly_mul({mono((Y, 1)): Fraction(1)}, {mono((Y, 1)): Fraction(1)})
    assert p == {}


def test_koszul_sign():
    yz = monomial_mul(mono((Y, 1)), mono((Z, 1)))
    zy = monomial_mul(mono((Z, 1)), mono((Y, 1)))
    assert yz == (1, mono((Y, 1), (Z, 1)))
    assert zy == (-1, mono((Y, 1), (Z, 1)))


def _random_poly(draw_monos):
    return {m: Fraction(c) for m, c in draw_monos if c}


monomials = st.builds(
    lambda ex, ey, ez, ew: tuple(
        (g, e) for g, e in ((X, ex), (Y, ey), (Z, ez), (W, ew)) if e
    ),
    st.integers(0, 3), st.integers(0, 1), st.integers(0, 1),
    st.integers(0, 2),
)
polys = st.dictionaries(monomials, st.integers(-4, 4), max_size=4).map(
    lambda d: {m: Fraction(c) for m, c in d.items() if c}
)


def _koszul(m1, m2):
    return -1 if monomial_degree(m1) % 2 and monomial_degree(m2) % 2 else 1


@given(polys, polys)
@example({(): Fraction(1), mono((Y, 1)): Fraction(1)},
         {mono((Z, 1)): Fraction(1), mono((Y, 1), (Z, 1)): Fraction(1)})
@settings(max_examples=150, deadline=None)
def test_graded_commutativity(p, q):
    # pq is the sum over term pairs of the Koszul-signed reversed product;
    # inhomogeneous p, q need not have pq and qp on the same monomials
    expect = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            expect = poly_add(expect, poly_scale(
                _koszul(m1, m2), poly_mul({m2: c2}, {m1: c1})))
    assert poly_mul(p, q) == expect
    # bilinear check on homogeneous parts
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            a = poly_mul({m1: c1}, {m2: c2})
            b = poly_mul({m2: c2}, {m1: c1})
            assert a == poly_scale(_koszul(m1, m2), b)


@given(polys, polys, polys)
@settings(max_examples=100, deadline=None)
def test_associativity(p, q, r):
    assert poly_mul(poly_mul(p, q), r) == poly_mul(p, poly_mul(q, r))


def test_basis_counts():
    # degree 6 over x2, y3, z3, w4: x^3, xw, yz
    assert len(ALG.basis(6)) == 3
    assert len(ALG.basis(0)) == 1
    assert len(ALG.basis(1)) == 0
    # generating-function cross-check through degree 12
    for n in range(13):
        count = 0
        for ex, ew in itertools.product(range(7), range(4)):
            for ey, ez in itertools.product(range(2), range(2)):
                if 2 * ex + 3 * ey + 3 * ez + 4 * ew == n:
                    count += 1
        assert len(ALG.basis(n)) == count


def test_degree_zero_generator_needs_bound():
    a = GradedAlgebra([Generator(0, "t", 0)])
    with pytest.raises(AlgebraError):
        a.basis(0)
    assert len(a.basis(0, counted={0}, max_count=2)) == 3


def test_counted_basis_truncation():
    # count y and z exponents, allow at most one of them in total
    monos = ALG.basis(6, counted={1, 2}, max_count=0)
    assert all(all(g.uid not in (1, 2) for g, _ in m) for m in monos)


def lex_basis(gens, n, counted, max_count):
    """Monomials of degree n by brute force over exponent vectors, in
    itertools.product (lexicographic) order, with the count bound."""
    cap = n + 1 if max_count is None else max_count
    ranges = [range((cap if g.degree == 0 else 1 if g.degree % 2
                     else n // g.degree) + 1) for g in gens]
    out = []
    for ex in itertools.product(*ranges):
        if (sum(e * g.degree for g, e in zip(gens, ex)) == n
                and sum(e for g, e in zip(gens, ex) if g.uid in counted)
                <= cap):
            out.append(tuple((g, e) for g, e in zip(gens, ex) if e))
    return out


queries = st.tuples(st.integers(-1, 10), st.integers(0, 15),
                    st.one_of(st.none(), st.integers(0, 4)))


@given(st.lists(st.integers(0, 5), min_size=1, max_size=4),
       st.lists(queries, min_size=1, max_size=6))
@settings(max_examples=100, deadline=None)
def test_basis_is_the_lexicographic_enumeration(degrees, calls):
    gens = [Generator(i, f"g{i}", d) for i, d in enumerate(degrees)]
    alg = GradedAlgebra(list(reversed(gens)))
    for n, mask, max_count in calls:
        # every degree-0 generator is counted, or the basis is infinite
        counted = {g.uid for g in gens if g.degree == 0 or mask >> g.uid & 1}
        expect = lex_basis(gens, n, counted, max_count)
        got = alg.basis(n, counted, max_count)
        assert got == expect
        got.append(None)   # the caller's list is its own
        assert alg.basis(n, set(counted), max_count) == expect


D = Derivation(
    ALG, 1,
    {"y": {mono((X, 2)): Fraction(1)}, "z": {mono((X, 2)): Fraction(2)}},
)


@given(polys, polys)
@settings(max_examples=100, deadline=None)
def test_derivation_leibniz(p, q):
    lhs = D.apply(poly_mul(p, q))
    rhs = {}
    for m1, c1 in p.items():
        sign = -1 if monomial_degree(m1) % 2 else 1
        rhs = poly_add(
            rhs,
            poly_mul(D.apply({m1: c1}), q),
        )
        rhs = poly_add(
            rhs,
            poly_scale(sign, poly_mul({m1: c1}, D.apply(q))),
        )
    assert lhs == rhs


def test_derivation_squares_to_zero_is_enforced():
    g2 = Generator(0, "a", 2)
    g3 = Generator(1, "b", 3)
    with pytest.raises(AlgebraError):
        # d(b) = a^2 requires d(a^2) = 0; make d(a) nonzero of degree 3
        FreeCDGA([g2, g3], {
            "a": {((g3, 1),): Fraction(1)},
            "b": {((g2, 2),): Fraction(1)},
        })


def test_derivation_degree_check():
    with pytest.raises(AlgebraError):
        Derivation(ALG, 1, {"y": {mono((X, 1)): Fraction(1)}})


def test_free_cdga_rejects_nonpositive_degrees():
    with pytest.raises(AlgebraError):
        FreeCDGA([Generator(0, "u", 0)], {})
