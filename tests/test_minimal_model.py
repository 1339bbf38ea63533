"""Finite CDGAs, morphisms and the minimal model builder."""

from fractions import Fraction

import pytest

from cdgacyc import functors as F
from cdgacyc.gralg import FreeCDGA, Generator
from cdgacyc.minimal_model import (
    CDGAMorphism,
    FiniteCDGA,
    ModelError,
    build_minimal_model,
    is_quasi_iso,
    verify_minimal,
)


def h_s2():
    return FiniteCDGA([("1", 0), ("a", 2)], {("a", "a"): {}}, {})


def h_s3():
    return FiniteCDGA([("1", 0), ("b", 3)], {("b", "b"): {}}, {})


def h_cp2():
    return FiniteCDGA(
        [("1", 0), ("a", 2), ("a2", 4)],
        {("a", "a"): {"a2": 1}, ("a", "a2"): {}, ("a2", "a2"): {}},
        {},
    )


def free_s2():
    x = Generator(0, "x", 2)
    y = Generator(1, "y", 3)
    return FreeCDGA([x, y], {"y": {((x, 2),): Fraction(1)}})


def test_finite_cdga_axioms_enforced():
    with pytest.raises(ModelError):
        # breaks associativity: (a*a)*a = a2*a = a vs a*(a*a) = a*a2 = 0
        FiniteCDGA(
            [("1", 0), ("a", 2), ("a2", 4)],
            {("a", "a"): {"a2": 1}, ("a", "a2"): {}, ("a2", "a2"): {"a": 1}},
            {},
        )
    with pytest.raises(ModelError):
        # d does not square to zero
        FiniteCDGA(
            [("1", 0), ("u", 2), ("v", 3), ("w", 4)],
            {("u", "u"): {}, ("u", "v"): {}, ("u", "w"): {},
             ("v", "v"): {}, ("v", "w"): {}, ("w", "w"): {}},
            {"u": {"v": 1}, "v": {"w": 1}},
        )
    with pytest.raises(ModelError):
        # two degree-0 elements
        FiniteCDGA([("1", 0), ("e", 0)], {}, {})
    # wrong degrees are caught before the cochain complex is built
    with pytest.raises(ModelError, match="d\\(a\\) has wrong degree"):
        FiniteCDGA([("1", 0), ("a", 2), ("b", 4)], {}, {"a": {"b": 1}})
    with pytest.raises(ModelError, match="product a\\*a has wrong degree"):
        FiniteCDGA([("1", 0), ("a", 2), ("b", 3)], {("a", "a"): {"b": 1}}, {})


def test_finite_cohomology():
    b = h_cp2()
    assert [b.betti(n) for n in range(6)] == [1, 0, 1, 0, 1, 0]
    assert b.is_homologically_1_connected()


def test_morphism_verification():
    a = free_s2()
    zero = CDGAMorphism(a, h_s2(), {"x": {}, "y": {}})
    assert zero.verify() == []  # the zero map is a chain map ...
    ok, _ = is_quasi_iso(zero, 6)
    assert not ok  # ... but misses the class of a
    # x -> a in H(CP^2): theta(dy) = a*a = a2, while d(theta(y)) = 0
    broken = CDGAMorphism(a, h_cp2(), {"x": {"a": Fraction(1)}, "y": {}})
    assert broken.verify() == ["chain condition fails on y"]
    wrong = CDGAMorphism(a, h_cp2(), {"x": {"a2": Fraction(1)}})
    assert wrong.verify() == ["value of x not degree-preserving",
                              "missing value for y"]
    b = h_s2()
    with pytest.raises(ModelError, match="FreeCDGA to a FiniteCDGA"):
        CDGAMorphism(b, b, {"1": {"1": Fraction(1)}, "a": {"a": Fraction(1)}})


def test_classifying_map_is_quasi_iso():
    a = free_s2()
    b = h_s2()
    theta = CDGAMorphism(a, b, {"x": {"a": Fraction(1)}, "y": {}})
    assert theta.verify() == []
    ok, table = is_quasi_iso(theta, 10)
    assert ok
    assert all(row["iso"] for row in table)


def test_verify_minimal_examples():
    assert verify_minimal(free_s2(), 12)["pass"]
    assert verify_minimal(
        FreeCDGA([Generator(0, "x", 3)], {}), 12)["pass"]
    u = Generator(0, "u", 2)
    w = Generator(1, "w", 3)
    assert verify_minimal(FreeCDGA([u, w], {}), 12)["pass"]


def test_verify_minimal_rejects_linear_differential():
    u = Generator(0, "u", 3)
    w = Generator(1, "w", 2)
    a = FreeCDGA([w, u], {"u": {((w, 2),): Fraction(1)}})
    assert verify_minimal(a, 12)["pass"]
    b = FreeCDGA([Generator(0, "p", 2), Generator(1, "q", 1)], {})
    rep = verify_minimal(b, 12)
    assert not rep["pass"]  # degree-1 generator


def test_builder_sphere2():
    a, theta = build_minimal_model(h_s2(), 12)
    degrees = sorted(g.degree for g in a.algebra.generators)
    assert degrees == [2, 3]
    dy = a.differential.on_generator(
        [g for g in a.algebra.generators if g.degree == 3][0]
    )
    (mono, c), = dy.items()
    assert [(g.degree, e) for g, e in mono] == [(2, 2)]
    assert verify_minimal(a, 12)["pass"]
    assert is_quasi_iso(theta, 12)[0]


def test_builder_sphere3():
    a, theta = build_minimal_model(h_s3(), 12)
    assert [g.degree for g in a.algebra.generators] == [3]
    assert a.differential.on_generator(a.algebra.generators[0]) == {}
    assert verify_minimal(a, 12)["pass"]
    assert is_quasi_iso(theta, 12)[0]


def test_builder_cp2():
    a, theta = build_minimal_model(h_cp2(), 12)
    assert sorted(g.degree for g in a.algebra.generators) == [2, 5]
    assert verify_minimal(a, 12)["pass"]
    assert is_quasi_iso(theta, 12)[0]


def test_builder_trivial():
    b = FiniteCDGA([("1", 0)], {}, {})
    a, theta = build_minimal_model(b, 12)
    assert a.algebra.generators == ()
    assert is_quasi_iso(theta, 12)[0]


def test_builder_rejects_non_1_connected():
    b = FiniteCDGA([("1", 0), ("t", 1)], {("t", "t"): {}}, {})
    with pytest.raises(ModelError):
        build_minimal_model(b, 10)


def test_generator_counts_agree_across_quasi_isomorphic_models():
    # a quasi-isomorphism between minimal models forces equal counts
    a1, _ = build_minimal_model(h_s2(), 12)
    a2 = free_s2()
    count1 = {}
    for g in a1.algebra.generators:
        count1[g.degree] = count1.get(g.degree, 0) + 1
    count2 = {}
    for g in a2.algebra.generators:
        count2[g.degree] = count2.get(g.degree, 0) + 1
    assert count1 == count2


@pytest.mark.parametrize("finite", [h_s2, h_s3, h_cp2],
                         ids=["s2", "s3", "cp2"])
def test_seed_invariance(finite):
    cutoff = 8
    tables = []
    for seed in (None, 1, 2, 12345):
        if seed is not None:
            _, theta = build_minimal_model(finite(), cutoff, seed=seed)
            assert is_quasi_iso(theta, cutoff)[0]
        ctx = F.LoopContext(finite(), cutoff, seed=seed)
        hh, sh = F.HH(ctx), F.SH(ctx)
        tables.append([(hh.weights(n), sh.weights(n))
                       for n in range(cutoff + 1)])
    assert all(t == tables[0] for t in tables)


def test_hh_through_builder_equals_free_model():
    via_model = F.HH(F.LoopContext(h_s2(), 12))
    hh = F.HH(F.LoopContext(free_s2(), 12))
    assert all(
        via_model.total(n) == hh.total(n) for n in range(13)
    )


def test_context_records_model():
    ctx = F.LoopContext(h_s3(), 8)
    assert [(g.name, g.degree) for g in ctx.algebra.algebra.generators] == [
        ("v3_0", 3)]
