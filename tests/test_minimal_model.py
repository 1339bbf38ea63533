"""Finite CDGAs, morphisms and the minimal model builder."""

from fractions import Fraction

import pytest

from cdgacyc import functors as F
from cdgacyc import linalg, minimal_model
from cdgacyc.complexes import audit
from cdgacyc.free_loop import base_cochain
from cdgacyc.gralg import FreeCDGA, Generator
from cdgacyc.minimal_model import (
    CDGAMorphism,
    FiniteCDGA,
    ModelError,
    build_minimal_model,
    verify_minimal,
)


@audit("classifying map is a quasi-isomorphism")
def is_quasi_iso(f, cutoff):
    """Audit that H^n(f) is bijective for every n <= cutoff - 1; a
    witness is a degree where it is not.  The builder checks only the
    chain condition on generators, so this is the reference for the
    models it builds."""
    src_c = base_cochain(f.source, cutoff)
    bad = []
    for n in range(cutoff):
        m = linalg.induced_map(
            f.matrix(n), src_c.cohomology(n), f.target.complex.cohomology(n)
        )
        if not (m.rows == m.cols and linalg.rank(m) == m.rows):
            bad.append({"check": f"H(f) of rank {linalg.rank(m)} from dim "
                                 f"{m.cols} to dim {m.rows}", "degree": n})
    return bad


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
    rep = is_quasi_iso(zero, 6)
    assert rep.status == "fail"  # ... but misses the class of a
    assert [w["degree"] for w in rep.witnesses] == [2]
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
    rep = is_quasi_iso(theta, 10)
    assert rep.status == "pass" and rep.witnesses == ()


def minimal(A, cutoff):
    return all(a.status == "pass" for a in verify_minimal(A, cutoff))


def test_verify_minimal_examples():
    assert minimal(free_s2(), 12)
    assert minimal(FreeCDGA([Generator(0, "x", 3)], {}), 12)
    u = Generator(0, "u", 2)
    w = Generator(1, "w", 3)
    assert minimal(FreeCDGA([u, w], {}), 12)


def test_verify_minimal_rejects_linear_differential():
    u = Generator(0, "u", 3)
    w = Generator(1, "w", 2)
    a = FreeCDGA([w, u], {"u": {((w, 2),): Fraction(1)}})
    assert minimal(a, 12)
    b = FreeCDGA([Generator(0, "p", 2), Generator(1, "q", 1)], {})
    degree_one, _ = verify_minimal(b, 12)
    assert degree_one.status == "fail"
    assert degree_one.witnesses == ({"check": "generator q", "degree": 1},)


def test_builder_sphere2():
    a, theta = build_minimal_model(h_s2(), 12)
    degrees = sorted(g.degree for g in a.algebra.generators)
    assert degrees == [2, 3]
    dy = a.differential.on_generator(
        [g for g in a.algebra.generators if g.degree == 3][0]
    )
    (mono, c), = dy.items()
    assert [(g.degree, e) for g, e in mono] == [(2, 2)]
    assert minimal(a, 12)
    assert is_quasi_iso(theta, 12).status == "pass"


def test_builder_sphere3():
    a, theta = build_minimal_model(h_s3(), 12)
    assert [g.degree for g in a.algebra.generators] == [3]
    assert a.differential.on_generator(a.algebra.generators[0]) == {}
    assert minimal(a, 12)
    assert is_quasi_iso(theta, 12).status == "pass"


def test_builder_cp2():
    a, theta = build_minimal_model(h_cp2(), 12)
    assert sorted(g.degree for g in a.algebra.generators) == [2, 5]
    assert minimal(a, 12)
    assert is_quasi_iso(theta, 12).status == "pass"


def test_builder_trivial():
    b = FiniteCDGA([("1", 0)], {}, {})
    a, theta = build_minimal_model(b, 12)
    assert a.algebra.generators == ()
    assert is_quasi_iso(theta, 12).status == "pass"


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
            assert is_quasi_iso(theta, cutoff).status == "pass"
        ctx = F.LoopContext(finite(), cutoff, seed=seed)
        hh, sh = F.HH(ctx), F.SH(ctx)
        tables.append([(hh.weights(n), sh.weights(n))
                       for n in range(cutoff + 1)])
    assert all(t == tables[0] for t in tables)


def h_s2xs2():
    """H(S^2 x S^2): H^2 has dimension 2, so the builder mixes."""
    return FiniteCDGA([("1", 0), ("a", 2), ("b", 2), ("ab", 4)],
                      {("a", "b"): {"ab": 1}}, {})


def h_s2_wedge_s3():
    """H(S^2 v S^3): at stage 3 the primitive of w with dw = v^2 is shifted
    by a random multiple of the class x."""
    return FiniteCDGA([("1", 0), ("a", 2), ("x", 3)], {}, {})


@pytest.mark.parametrize("finite, generator", [(h_s2xs2, "v2_1"),
                                               (h_s2_wedge_s3, "w3_2")],
                         ids=["s2xs2-mix", "s2vs3-shift"])
def test_seeded_branches_fire_and_change_no_table(finite, generator,
                                                  monkeypatch):
    mixed = []
    mix = minimal_model._mix

    def counted(rng, vectors):
        mixed.append(len(vectors))
        return mix(rng, vectors)

    monkeypatch.setattr(minimal_model, "_mix", counted)
    cutoff = 6
    values, tables = [], []
    for seed in (None, 1, 2, 3):
        _, theta = build_minimal_model(finite(), cutoff + 3, seed=seed)
        assert is_quasi_iso(theta, cutoff).status == "pass"
        values.append(theta.values[generator])
        ctx = F.LoopContext(finite(), cutoff, seed=seed)
        hh, sh = F.HH(ctx), F.SH(ctx)
        tables.append([(hh.weights(n), sh.weights(n))
                       for n in range(cutoff + 1)])
    # the branch ran on some seed and changed the model it built
    assert any(v != values[0] for v in values[1:])
    if finite is h_s2xs2:
        assert max(mixed) >= 2
    else:
        assert values[0] == {}   # d(w) = v^2 has the primitive 0 unshifted
    assert all(t == tables[0] for t in tables)


@pytest.mark.parametrize("finite", [h_s2, h_cp2, h_s2xs2, h_s2_wedge_s3],
                         ids=["s2", "cp2", "s2xs2", "s2vs3"])
def test_builder_builds_each_stage_once(finite, monkeypatch):
    # one algebra, theta and source complex per stage n = 2..cutoff-1,
    # read by both of its steps, and the algebra it returns
    built = {"algebras": 0, "complexes": 0}

    class Counted(FreeCDGA):
        def __init__(self, *args):
            built["algebras"] += 1
            super().__init__(*args)

    def counted(*args, **kwargs):
        built["complexes"] += 1
        return base_cochain(*args, **kwargs)

    monkeypatch.setattr(minimal_model, "FreeCDGA", Counted)
    monkeypatch.setattr(minimal_model, "base_cochain", counted)
    cutoff = 9
    _, theta = build_minimal_model(finite(), cutoff, seed=1)
    assert built == {"algebras": cutoff - 1, "complexes": cutoff - 2}
    assert theta.verify() == []
    assert is_quasi_iso(theta, cutoff - 1).status == "pass"


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
