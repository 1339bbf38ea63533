"""Cochain complexes, mixed complexes, bands, cones and exact sequences."""

from fractions import Fraction
from pathlib import Path

import pytest

from cdgacyc.complexes import (
    ChainMap,
    CochainComplex,
    ComplexError,
    ConsistencyError,
    MixedComplex,
    ShortExactSequence,
    band_complex,
    beta_acyclic_check,
    label_inclusion,
    label_projection,
    ladder_audit,
    les_audit,
    mapping_cone,
    plus_complex,
    shift_complex,
)
from cdgacyc.cli import load_algebra
from cdgacyc.free_loop import free_loop, ideals
from cdgacyc.functors import ch_weight_range
from cdgacyc.gralg import FreeCDGA, Generator
from cdgacyc.linalg import PreconditionError, SparseMatrix

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cdgacyc" / "fixtures"


def sphere2():
    x = Generator(0, "x", 2)
    y = Generator(1, "y", 3)
    return FreeCDGA([x, y], {"y": {((x, 2),): Fraction(1)}})


def sphere3():
    return FreeCDGA([Generator(0, "x", 3)], {})


def M_(rows):
    """The matrix with these dense rows."""
    return SparseMatrix.validated(len(rows), len(rows[0]) if rows else 0, {
        (i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)})


def test_cochain_requires_d_squared_zero():
    labels = {0: ["a"], 1: ["b"], 2: ["c"]}
    good = {0: M_([[1]]), 1: M_([[0]])}
    assert CochainComplex(labels, good).betti(1) == 0
    bad = CochainComplex(labels, {0: M_([[1]]), 1: M_([[1]])})
    # d.d != 0 only through degree 1: the degrees around it still compute
    assert bad.betti(0) == 0
    assert bad.betti(2) == 0
    with pytest.raises(PreconditionError):
        bad.betti(1)


def test_betti_interval():
    # 0 -> Q -1-> Q -> 0: acyclic
    c = CochainComplex({0: ["a"], 1: ["b"]}, {0: M_([[1]])})
    assert c.betti(0) == 0
    assert c.betti(1) == 0
    c2 = CochainComplex({0: ["a"], 1: ["b"]}, {0: M_([[0]])})
    assert c2.betti(0) == 1
    assert c2.betti(1) == 1


def test_shift_even_only():
    c = CochainComplex({0: ["a"]}, {})
    s = shift_complex(c, 2)
    assert s.labels == {2: ["a"]}
    with pytest.raises(ComplexError):
        shift_complex(c, 1)


def test_truncation_and_shift_share_cohomology():
    # 0 -> Q -1-> Q -> 0: acyclic, but cut at degree 0 it is Q
    c = CochainComplex({0: ["a"], 1: ["b"]}, {0: M_([[1]])})
    t = c.truncated(0)
    assert t.labels == {0: ["a"]} and t.betti(0) == 1 and c.betti(0) == 0
    s = shift_complex(c, 2)
    assert [s.betti(n) for n in range(4)] == [0, 0, 0, 0]
    assert s.cohomology(3) is c.cohomology(1)
    assert s.d(2) is c.d(0)
    cut = c.truncated(1)
    assert cut.cohomology(0) is c.cohomology(0)
    assert cut.d(0) is c.d(0)


def test_mixed_complex_validation_catches_corruption():
    loop = free_loop(sphere2())
    M = loop.mixed_complex(8)
    assert M.validate(ks=[-1, 2, 3, 6]) == []
    # corrupt one beta entry: the square/anticommutator axioms must fail
    beta = dict(M.beta)
    b3 = beta[3]
    entries = dict(b3.entries)
    (i0, j0), v0 = next(iter(entries.items()))
    entries[(i0, j0)] = v0 + 1
    beta[3] = SparseMatrix.validated(b3.rows, b3.cols, entries)
    bad = MixedComplex(M.labels, M.delta, beta, weights=M.weights)
    assert bad.validate(ks=[2]) != []


def _touches(mat, row=None, col=None):
    return any(i == row or j == col for i, j in mat.entries)


def test_wrong_weight_tag_fails_only_the_power_maps_that_touch_it():
    M = free_loop(sphere2()).mixed_complex(8)
    ks = [-1, 2, 3, 6]
    # the degree-4 label with the most delta and beta entries
    m = 4
    i = max(range(M.dim(m)), key=lambda i: sum(
        _touches(a, row=r, col=c) for a, r, c in (
            (M.delta_m(m - 1), i, None), (M.delta_m(m), None, i),
            (M.beta_m(m), None, i), (M.beta_m(m + 1), i, None))))
    weights = {n: list(v) for n, v in M.weights.items()}
    weights[m][i] += 1
    bad = MixedComplex(M.labels, M.delta, M.beta, weights=weights)
    delta_degrees = [n for n, hit in ((m - 1, _touches(M.delta_m(m - 1), row=i)),
                                      (m, _touches(M.delta_m(m), col=i))) if hit]
    beta_degrees = [n for n, hit in ((m, _touches(M.beta_m(m), col=i)),
                                     (m + 1, _touches(M.beta_m(m + 1), row=i)))
                    if hit]
    assert delta_degrees and beta_degrees
    expected = []
    for k in ks:
        expected += [f"Psi_{k}.delta != delta.Psi_{k} at degree {n}"
                     for n in delta_degrees]
        expected += [f"Psi_{k}.beta != k.beta.Psi_{k} at degree {n}"
                     for n in beta_degrees]
    assert bad.validate(ks=ks) == expected
    assert bad.validate() == []


def test_corrupted_beta_cannot_produce_a_number():
    # nothing but validate() checks the mixed axioms at construction, so a
    # corrupted beta block must still fail where cohomology is taken
    loop = free_loop(sphere2())
    M = loop.mixed_complex(8)
    beta = dict(M.beta)
    b3 = beta[3]
    entries = dict(b3.entries)
    (i0, j0), v0 = next(iter(entries.items()))
    entries[(i0, j0)] = v0 + 1
    beta[3] = SparseMatrix.validated(b3.rows, b3.cols, entries)
    bad = MixedComplex(M.labels, M.delta, beta, weights=M.weights)
    # the plus band whose degree-3 top slot holds the corrupted column
    band = band_complex(bad, bad.weight_of(3, j0), "plus", 0, 8)
    assert (3, M.labels[3][j0]) in band.labels[3]
    with pytest.raises(PreconditionError):
        for r in range(8):
            band.betti(r)


def test_power_map_axioms_on_loop():
    loop = free_loop(sphere3())
    M = loop.mixed_complex(9)
    for k in (-1, 2, 3, 6):
        for n in range(1, 9):
            psi_n = M.power_matrix(k, n)
            psi_prev = M.power_matrix(k, n - 1)
            assert psi_prev @ M.beta_m(n) == (M.beta_m(n) @ psi_n).scale(k)
            assert M.delta_m(n - 1) @ psi_prev == psi_n @ M.delta_m(n - 1)


def test_band_complex_weight_slots():
    loop = free_loop(sphere3())
    M = loop.mixed_complex(10)
    band = band_complex(M, 1, "plus", 0, 8)
    # degree 2: only the top slot (2, xbar)
    assert [lab for lab in band.labels[2]] == [(2, ((loop.barred[0], 1),))]
    # plus band of weight 1 at sphere3: cohomology 1 in degree 2 only
    dims = [band.betti(n) for n in range(8)]
    assert dims == [0, 0, 1, 0, 0, 0, 0, 0]


def test_band_negative_degree_periodic():
    loop = free_loop(sphere3())
    M = loop.mixed_complex(10)
    band = band_complex(M, 2, "periodic", -1, 2)
    # degree -1 holds the slot m=3 (weight 0: x)
    assert band.dim(-1) == 1
    assert band.betti(0) == 0


def test_plus_complex_dims():
    loop = free_loop(sphere3())
    M = loop.mixed_complex(8)
    plus = plus_complex(M, 0, 8)
    for r in range(9):
        expect = sum(M.dim(m) for m in range(r % 2, r + 1, 2))
        assert plus.dim(r) == expect


@pytest.mark.parametrize("name", ["sphere2", "sphere3", "product_s2_s3"])
def test_plus_bands_partition_plus_complex(name):
    M = free_loop(load_algebra(FIXTURES / f"{name}.json")).mixed_complex(7)
    plus = plus_complex(M, 0, 7)
    bands = {w: band_complex(M, w, "plus", 0, 7) for w in range(-3, 7)}
    for r in range(7):
        ws = ch_weight_range(r)
        assert sum(bands[w].dim(r) for w in ws) == plus.dim(r)
        assert sum(bands[w].betti(r) for w in ws) == plus.betti(r)


def test_band_assembly_errors():
    # delta sends the weight-0 element a onto the weight-1 element b
    bad_delta = MixedComplex({0: ["a"], 1: ["b", "c"]}, {0: M_([[1], [0]])},
                             {}, weights={0: [0], 1: [1, 0]})
    with pytest.raises(ConsistencyError, match="delta breaks"):
        band_complex(bad_delta, 0, "plus", 0, 1)
    # beta sends the weight-0 element b onto the weight-0 element e
    bad_beta = MixedComplex({0: ["a", "e"], 1: ["b"]}, {},
                            {1: M_([[0], [1]])}, weights={0: [1, 0], 1: [0]})
    with pytest.raises(ConsistencyError, match="beta breaks"):
        band_complex(bad_beta, 0, "plus", 1, 2)
    with pytest.raises(ComplexError, match="unknown band kind"):
        band_complex(bad_delta, 0, "cyclic", 0, 1)


def test_mapping_cone_les():
    loop = free_loop(sphere3())
    M = loop.mixed_complex(10)
    amb = band_complex(M, 0, "plus", 0, 8)
    sub = shift_complex(band_complex(M, 1, "plus", 0, 6), 2)
    incl = label_inclusion(sub, amb)
    cone, inc, proj = mapping_cone(incl)
    ses = ShortExactSequence(inc, proj, degrees=range(0, 7))
    audit = les_audit(*ses.les(1, 6))
    assert audit["pass"]


def test_corrupted_connecting_map_fails_audit():
    loop = free_loop(sphere3())
    M = loop.mixed_complex(10)
    plus_w = band_complex(M, 0, "plus", 0, 8)
    plus_w1 = shift_complex(band_complex(M, 1, "plus", 0, 6), 2)
    slice_w = band_complex(M, 0, "slice", 0, 8)
    incl = label_inclusion(plus_w1, plus_w)
    proj = label_projection(plus_w, slice_w)
    ses = ShortExactSequence(incl, proj, degrees=range(0, 7))
    names, dims, maps = ses.les(1, 6)
    tampered = False
    fixed = []
    for i, m in enumerate(maps):
        # connecting maps sit at every third position; drop one entirely
        if not tampered and i % 3 == 2 and m.entries:
            fixed.append(SparseMatrix(m.rows, m.cols, {}))
            tampered = True
        else:
            fixed.append(m)
    assert tampered
    audit = les_audit(names, dims, fixed)
    assert not audit["pass"]
    bad_nodes = [node for node in audit["nodes"] if not node["exact"]]
    assert bad_nodes  # the witness names the broken node
    assert all("node" in node for node in bad_nodes)


def test_label_projection_and_inclusion():
    c = CochainComplex({0: ["a", "b"], 1: ["c"]},
                       {0: M_([[1, 0]])})
    sub = CochainComplex({0: ["b"]}, {})
    inc = label_inclusion(sub, c)
    assert inc.matrix(0) == M_([[0], [1]])
    quot = CochainComplex({1: ["c"]}, {})
    proj = label_projection(c, quot)
    assert proj.matrix(1) == M_([[1]])


def test_label_inclusion_rejects_missing_label():
    amb = CochainComplex({0: ["a", "b"]}, {})
    sub = CochainComplex({0: ["c"]}, {})
    with pytest.raises(ComplexError, match="missing"):
        label_inclusion(sub, amb)


def sphere3_weight0_ladder():
    """fig2's ladder for sphere3 at effective weight 0 and cutoff 8."""
    M = free_loop(sphere3()).mixed_complex(9)
    plus_w = band_complex(M, 0, "plus", 0, 9)
    plus_w1 = shift_complex(band_complex(M, 1, "plus", 0, 7), 2)
    slice_w = band_complex(M, 0, "slice", 0, 9)
    per_w = band_complex(M, 0, "periodic", 0, 9)
    minus_w = band_complex(M, 0, "minus", 0, 9)
    row1 = ShortExactSequence(label_inclusion(plus_w1, plus_w),
                              label_projection(plus_w, slice_w),
                              degrees=range(0, 9))
    row2 = ShortExactSequence(label_inclusion(plus_w1, per_w),
                              label_projection(per_w, minus_w),
                              degrees=range(0, 9))
    verticals = (label_inclusion(plus_w1, plus_w1),
                 label_inclusion(plus_w, per_w),
                 label_inclusion(slice_w, minus_w))
    return row1, row2, verticals


def test_ladder_audit_passes_with_true_verticals():
    row1, row2, verticals = sphere3_weight0_ladder()
    report = ladder_audit(row1, row2, verticals, 7)
    assert report["row1"]["pass"] and report["row2"]["pass"]
    assert report["squares"] is True
    assert report["pass"]


def test_ladder_audit_fails_with_scaled_vertical():
    row1, row2, (va, vb, vc) = sphere3_weight0_ladder()
    doubled = ChainMap(vc.source, vc.target,
                       {n: m.scale(2) for n, m in vc.mats.items()})
    report = ladder_audit(row1, row2, (va, vb, doubled), 7)
    assert report["row1"]["pass"] and report["row2"]["pass"]
    assert report["squares"] is False
    assert not report["pass"]


def test_coordinate_subcomplex_closure_check():
    loop = free_loop(sphere2())
    M = loop.mixed_complex(6)
    # dropping the unit only is fine
    keep = {
        n: [i for i, lab in enumerate(M.labels[n]) if lab != ()]
        for n in M.labels
    }
    keep = {n: idx for n, idx in keep.items() if idx}
    M.coordinate_subcomplex(keep)
    # dropping a monomial that receives differential must fail
    bad = {n: list(range(M.dim(n))) for n in M.labels}
    bad[3] = bad[3][1:]
    with pytest.raises(ConsistencyError):
        M.coordinate_subcomplex(bad)


def test_beta_acyclic_lemma_on_ideal():
    for base in (sphere2(), sphere3()):
        loop = free_loop(base)
        ideal = ideals(loop.mixed_complex(10))
        rep = beta_acyclic_check(ideal)
        assert rep["beta_acyclic"]
        assert rep["dims_match"]


def test_chain_map_commuting_enforced():
    c = CochainComplex({0: ["a"], 1: ["b"]}, {0: M_([[1]])})
    d = CochainComplex({0: ["a"], 1: ["b"]}, {0: M_([[0]])})
    with pytest.raises(ComplexError):
        ChainMap(c, d, {0: M_([[1]]), 1: M_([[1]])},
                 check_degrees=range(0, 1))
