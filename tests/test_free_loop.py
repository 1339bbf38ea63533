"""The free-loop construction: generators, differentials, weights."""

import random
import re
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from cdgacyc import cli, gralg
from cdgacyc.complexes import (
    ConsistencyError,
    UnsupportedConfiguration,
    band_complex,
)
from cdgacyc.free_loop import (
    LoopAlgebra,
    base_cochain,
    free_loop,
    u_model,
)
from cdgacyc.gralg import FreeCDGA, Generator
from cdgacyc.linalg import SparseMatrix

from matrices import entries
from models import (
    brute_form,
    even_sphere,
    free_cdga,
    non_pure,
    odd_sphere,
    projective_space,
    rescaled,
    tensor,
)
from oracles import BruteAlgebra, loop_of

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cdgacyc" / "fixtures"


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
    x = loop.base.algebra.generators[0]
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
    x, y = loop.base.algebra.generators
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
        M = loop.mixed_complex(5)
        m = entries(M.power_matrix(k, 5))
        for i, mono in enumerate(M.labels[5]):
            assert m.get((i, i)) == Fraction(k) ** loop.weight(mono)


def test_a_wrong_weight_tag_fails_at_construction(monkeypatch):
    # the first monomial that delta carries into degree 4, tagged one
    # weight too high: the delta block out of degree 3 that hits it finds
    # it outside its target block
    loop = free_loop(sphere2())
    M = loop.mixed_complex(6)
    (_, p), d = next((key, d) for key, d in M.delta.items() if key[0] == 3)
    mono = M.blocks[(4, p)][min(i for i, _ in entries(d))]
    weight = LoopAlgebra.weight
    monkeypatch.setattr(LoopAlgebra, "weight", lambda self, m: (
        weight(self, m) + (m == mono)))
    with pytest.raises(ConsistencyError, match=re.escape(
            f"image monomial {gralg.monomial_str(mono)} outside")):
        loop.mixed_complex(6)


TORUS = ([("a", 1), ("b", 1)], {})
ASSEMBLED = {"sphere2": (even_sphere(2, ""), None),
             "product_s2_s3": (tensor(even_sphere(2, "0"),
                                      odd_sphere(3, "1")), None),
             "non_pure": (non_pure(), None),
             "torus": (TORUS, 0), "torus W=2": (TORUS, 2)}


@pytest.mark.parametrize("name", sorted(ASSEMBLED))
def test_assembled_matrices_match_the_oracle(name):
    # delta_m and beta_m, stacked from the blocks in weight order, entry by
    # entry against the oracle's delta and iota on its own basis; under a
    # weight cutoff W the oracle's images of weight W + 1 are absent
    model, cutoff = ASSEMBLED[name]
    loop = free_loop(free_cdga(model), weight_cutoff=cutoff)
    top = 6
    M = loop.mixed_complex(top)
    delta, iota = loop_of(*brute_form(model))
    k = len(model[0])
    barred = set(range(k, 2 * k))
    vector = _exponents(loop.algebra.generators)
    labels = {n: [vector(m) for m in M.labels[n]] for n in range(top + 1)}
    for n in range(top + 1):
        assert sorted(labels[n]) == sorted(delta.basis(n, barred, cutoff))
        weights = [sum(v[k:]) for v in labels[n]]
        assert M.weights[n] == weights == sorted(weights)
    for n in range(top):
        for mat, brute, n_in, n_out in ((M.delta_m(n), delta, n, n + 1),
                                        (M.beta_m(n + 1), iota, n + 1, n)):
            want = {(labels[n_out].index(m), j): c
                    for j, v in enumerate(labels[n_in])
                    for m, c in brute.d_mono(v).items()
                    if cutoff is None or sum(m[k:]) <= cutoff}
            assert entries(mat) == want, (n_in, n_out)


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


@pytest.mark.parametrize("base", [
    # uids with gaps, so that the barred uids start past the largest
    FreeCDGA([Generator(5, "x", 2), Generator(9, "y", 3)],
             {"y": {((Generator(5, "x", 2), 2),): Fraction(1)}}),
    free_cdga(non_pure()),
], ids=["sphere2_uids_5_9", "non_pure"])
def test_weight_zero_blocks_are_the_base_complex(base):
    # the unbarred generators are the base's own, so the weight-0 blocks
    # are the base's monomials and their delta blocks the base's d
    M = free_loop(base).mixed_complex(8)
    for n in range(8):
        assert M.blocks.get((n, 0), []) == base.algebra.basis(n)
        want = base_cochain(base, n + 1).d(n)
        assert M.delta.get((n, 0), SparseMatrix.zero(want.rows,
                                                     want.cols)) == want


# a2 b3 c4 with dc = ab: an even generator with d != 0, so d(c^e) has e > 1
EVEN_NOT_CLOSED = ([("a", 2), ("b", 3), ("c", 4)],
                   {"c": {(("a", 1), ("b", 1)): Fraction(1)}})
LEIBNIZ_MODELS = {
    **{stem: lambda stem=stem: cli.load_algebra(str(FIXTURES / f"{stem}.json"))
       for stem in ("product_s2_s3", "sphere2", "sphere3", "sphereEven4",
                    "trivial")},
    "cp2xs3": lambda: free_cdga(rescaled(tensor(
        projective_space(2, "0"), odd_sphere(3, "1")), random.Random(1))),
    "cp3xs4": lambda: free_cdga(rescaled(tensor(
        projective_space(3, "0"), even_sphere(4, "1")), random.Random(2))),
    "s2xs2": lambda: free_cdga(rescaled(tensor(
        even_sphere(2, "0"), even_sphere(2, "1")), random.Random(3))),
    "dc_ab": lambda: free_cdga(rescaled(EVEN_NOT_CLOSED, random.Random(4))),
}


def _exponents(gens):
    pos = {g.uid: i for i, g in enumerate(gens)}

    def vector(mono):
        v = [0] * len(gens)
        for g, e in mono:
            v[pos[g.uid]] = e
        return tuple(v)

    return vector


def _agrees(derivation, brute, monos, vector):
    for mono in monos:
        got = {vector(m): c for m, c in derivation.apply_monomial(mono).items()}
        assert got == brute.d_mono(vector(mono)), gralg.monomial_str(mono)


@pytest.mark.parametrize("name", sorted(LEIBNIZ_MODELS))
def test_leibniz_matches_the_oracle(name):
    # the oracle gets only d on generators (delta and iota it derives
    # itself) and expands every monomial by its own Leibniz rule
    A = LEIBNIZ_MODELS[name]()
    gens = A.algebra.generators
    vector = _exponents(gens)
    brute_gens = [(g.name, g.degree) for g in gens]
    diff = {g.name: [(c, vector(m)) for m, c in
                     A.differential.on_generator(g).items()]
            for g in gens if A.differential.on_generator(g)}
    loop = free_loop(A)
    loop_vector = _exponents(loop.algebra.generators)
    delta, iota = loop_of(brute_gens, diff)
    for n in range(9):
        _agrees(A.differential, BruteAlgebra(brute_gens, diff),
                A.algebra.basis(n), vector)
        _agrees(loop.delta, delta, loop.basis(n), loop_vector)
        _agrees(loop.iota, iota, loop.basis(n), loop_vector)
