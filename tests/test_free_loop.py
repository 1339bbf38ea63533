"""The free-loop construction: generators, differentials, weights."""

from collections import Counter
from fractions import Fraction

import pytest

from cdgacyc import gralg
from cdgacyc.complexes import UnsupportedConfiguration, band_complex
from cdgacyc.free_loop import (
    base_cochain,
    free_loop,
    u_model,
)
from cdgacyc.gralg import FreeCDGA, Generator


def sphere2():
    x = Generator(0, "x", 2)
    y = Generator(1, "y", 3)
    return FreeCDGA([x, y], {"y": {((x, 2),): Fraction(1)}})


def sphere3():
    return FreeCDGA([Generator(0, "x", 3)], {})


def test_barred_generators():
    loop = free_loop(sphere2())
    names = [(g.name, g.degree) for g in loop.algebra.generators]
    assert names == [("x", 2), ("y", 3), ("x_bar", 1), ("y_bar", 2)]


def test_delta_on_barred_sphere2():
    loop = free_loop(sphere2())
    xbar = loop.barred[0]
    ybar = loop.barred[1]
    x = loop.gens[0]
    # delta(x_bar) = -i(dx) = 0; delta(y_bar) = -i(x^2) = -2 x x_bar
    assert loop.delta.on_generator(xbar) == {}
    assert loop.delta.on_generator(ybar) == {
        ((x, 1), (xbar, 1)): Fraction(-2)
    }


def test_axioms_via_application():
    loop = free_loop(sphere2())
    for n in range(8):
        for mono in loop.basis(n):
            p = {mono: Fraction(1)}
            assert loop.delta.apply(loop.delta.apply(p)) == {}
            assert loop.iota.apply(loop.iota.apply(p)) == {}
            anti = gralg.poly_add(
                loop.delta.apply(loop.iota.apply(p)),
                loop.iota.apply(loop.delta.apply(p)),
            )
            assert anti == {}


def test_weight_counts_barred_factors():
    loop = free_loop(sphere2())
    x, y = loop.gens
    xbar, ybar = loop.barred
    assert loop.weight(((x, 2),)) == 0
    assert loop.weight(((x, 1), (xbar, 1), (ybar, 2))) == 3


def test_basis_dims_sphere3():
    loop = free_loop(sphere3())
    # Lambda[x3, xbar2]: one monomial x^a xbar^b per degree pattern
    dims = [len(loop.basis(n)) for n in range(10)]
    assert dims == [1, 0, 1, 1, 1, 1, 1, 1, 1, 1]


def test_degree_one_generators_need_weight_cutoff():
    circle = FreeCDGA([Generator(0, "t", 1)], {})
    with pytest.raises(UnsupportedConfiguration):
        free_loop(circle)
    loop = free_loop(circle, weight_cutoff=3)
    assert all(loop.weight(m) <= 3 for n in range(6) for m in loop.basis(n))


def test_weight_slices_partition():
    loop = free_loop(sphere2())
    top = 8
    M = loop.mixed_complex(top)
    slices = [band_complex(M, w, "slice", 0, top) for w in range(top + 1)]
    for n in range(top + 1):
        labels = [mono for s in slices for _, mono in s.labels.get(n, [])]
        assert Counter(labels) == Counter(loop.basis(n))


def test_mixed_complex_weight_tags():
    loop = free_loop(sphere2())
    M = loop.mixed_complex(8)
    for n in range(9):
        for i, mono in enumerate(M.labels[n]):
            assert M.weights[n][i] == loop.weight(mono)


def test_power_matrix_is_diagonal_weight_power():
    loop = free_loop(sphere2())
    for k in (2, 3):
        m = loop.mixed_complex(5).power_matrix(k, 5)
        for i, mono in enumerate(loop.basis(5)):
            assert m.entries.get((i, i)) == Fraction(k) ** loop.weight(mono)


def test_base_cochain_matches_hand_values():
    c = base_cochain(sphere2(), 8)
    assert [c.betti(n) for n in range(8)] == [1, 0, 1, 0, 0, 0, 0, 0]
    c3 = base_cochain(sphere3(), 8)
    assert [c3.betti(n) for n in range(8)] == [1, 0, 0, 1, 0, 0, 0, 0]


def test_u_model_dims():
    loop = free_loop(sphere3())
    um = u_model(loop, 8)
    for n in range(9):
        expect = sum(
            len(loop.basis(n - 2 * r)) for r in range(n // 2 + 1)
        )
        assert um.dim(n) == expect


def test_lift_lower_roundtrip():
    base = sphere2()
    loop = free_loop(base)
    for n in range(7):
        for mono in base.algebra.basis(n):
            lifted = loop.lift({mono: Fraction(1)})
            (lmono, c), = lifted.items()
            assert c == 1
            assert loop.lower(lmono) == mono
