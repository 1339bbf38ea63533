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
    label_map,
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
from cdgacyc import complexes, linalg
from cdgacyc.gralg import FreeCDGA, Generator
from cdgacyc.linalg import PreconditionError, SparseMatrix

from matrices import entries

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


def _corrupt_beta(M, n):
    """M with one entry of its first degree-n beta block changed, and
    (that block's key, the column of the entry)."""
    key = next(key for key in M.beta if key[0] == n)
    b = M.beta[key]
    changed = entries(b)
    (i0, j0), v0 = next(iter(changed.items()))
    changed[(i0, j0)] = v0 + 1
    beta = {**M.beta, key: SparseMatrix.validated(b.rows, b.cols, changed)}
    return MixedComplex(M.blocks, M.delta, beta, M.top), key, j0


def test_mixed_complex_validation_catches_corruption():
    loop = free_loop(sphere2())
    M = loop.mixed_complex(8)
    assert M.validate(ks=[-1, 2, 3, 6]).status == "pass"
    # corrupt one beta entry: the square/anticommutator axioms must fail
    bad, _, _ = _corrupt_beta(M, 3)
    assert bad.validate(ks=[2]).status == "fail"


def test_corrupted_beta_cannot_produce_a_number():
    # nothing but validate() checks the mixed axioms at construction, so a
    # corrupted beta block must still fail where cohomology is taken
    loop = free_loop(sphere2())
    M = loop.mixed_complex(8)
    bad, (n, p), j0 = _corrupt_beta(M, 3)
    # the plus band whose degree-3 top slot holds the corrupted column
    band = band_complex(bad, p, "plus", 0, 8)
    assert (3, M.blocks[(n, p)][j0]) in band.labels[3]
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
    plus = plus_complex(M, 8)
    for r in range(9):
        expect = sum(M.dim(m) for m in range(r % 2, r + 1, 2))
        assert plus.dim(r) == expect


@pytest.mark.parametrize("name", ["sphere2", "sphere3", "product_s2_s3"])
def test_plus_bands_partition_plus_complex(name):
    M = free_loop(load_algebra(FIXTURES / f"{name}.json")).mixed_complex(7)
    plus = plus_complex(M, 7)
    bands = {w: band_complex(M, w, "plus", 0, 7) for w in range(-3, 7)}
    for r in range(7):
        ws = ch_weight_range(r)
        assert sum(bands[w].dim(r) for w in ws) == plus.dim(r)
        assert sum(bands[w].betti(r) for w in ws) == plus.betti(r)


def test_band_assembly_errors():
    M = free_loop(sphere3()).mixed_complex(2)
    with pytest.raises(ComplexError, match="unknown band kind"):
        band_complex(M, 0, "cyclic", 0, 1)


def test_mapping_cone_les():
    loop = free_loop(sphere3())
    M = loop.mixed_complex(10)
    amb = band_complex(M, 0, "plus", 0, 8)
    sub = shift_complex(band_complex(M, 1, "plus", 0, 6), 2)
    incl = label_inclusion(sub, amb)
    cone, inc, proj = mapping_cone(incl)
    ses = ShortExactSequence(inc, proj, degrees=range(0, 7))
    assert les_audit(*ses.les(1, 6)) == []


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
        if not tampered and i % 3 == 2 and not m.is_zero():
            fixed.append(SparseMatrix(m.rows, m.cols, {}))
            tampered = True
        else:
            fixed.append(m)
    assert tampered
    # the zeroed map runs from node i to node i + 1, and the witness
    # names one of them
    (i,) = [i for i, (m, f) in enumerate(zip(maps, fixed)) if m is not f]
    bad_nodes = les_audit(names, dims, fixed)
    assert bad_nodes
    assert {(w["node"], w["degree"]) for w in bad_nodes} & {names[i],
                                                            names[i + 1]}


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
    assert ladder_audit(row1, row2, verticals, 7) == []


def test_ladder_audit_fails_with_scaled_vertical():
    row1, row2, (va, vb, vc) = sphere3_weight0_ladder()
    doubled = ChainMap(vc.source, vc.target,
                       {n: m.scale(2) for n, m in vc.mats.items()})
    # both rows stay exact: the one witness is the first failing square
    assert ladder_audit(row1, row2, (va, vb, doubled), 7) == [
        {"check": "square does not commute", "degree": 3,
         "square": "va.delta1 = delta2.vc"}]


def test_ladder_audit_reads_a_shared_row_once(monkeypatch):
    # fig2's rows are one object at every w <= 0: its long exact sequence
    # is audited once, and each witness is reported for both rows
    row1, _, _ = sphere3_weight0_ladder()
    identities = tuple(label_inclusion(c, c) for c in (row1.a, row1.b, row1.c))
    assert ladder_audit(row1, row1, identities, 7) == []
    audited = []

    def one_witness(names, dims, maps):
        audited.append(names)
        return [{"check": "not exact", "degree": 2, "node": "B"}]

    monkeypatch.setattr(complexes, "les_audit", one_witness)
    assert ladder_audit(row1, row1, identities, 7) == [
        {"check": f"row {k} not exact", "degree": 2, "node": "B"}
        for k in (1, 2)]
    assert len(audited) == 1


def test_cone_shift_shares_the_cohomology_of_its_source(monkeypatch):
    # C1[1] has differential -d1, so its H^n is C1's H^{n+1}, the same
    # subquotient; an identity matrix on one shared subquotient induces
    # the identity without reading coordinates
    row1, _, (va, _, _) = sphere3_weight0_ladder()
    c1 = row1.incl.source
    _, _, project = mapping_cone(row1.incl)
    _, _, again = mapping_cone(row1.incl)
    shifted = project.target
    degrees = range(-1, 9)
    for n in degrees:
        assert shifted.cohomology(n) is c1.cohomology(n + 1)
    assert any(shifted.betti(n) for n in degrees)
    identities = [va, label_inclusion(shifted, again.target)]
    direct = [[linalg.induced_map(f.matrix(n), f.source.cohomology(n),
                                  f.target.cohomology(n)) for n in degrees]
              for f in identities]

    def forbidden(*args):
        raise AssertionError("an identity read coordinates")

    monkeypatch.setattr(linalg, "induced_map", forbidden)
    for f, want in zip(identities, direct):
        got = [f.induced(n) for n in degrees]
        assert got == want
        assert all(m == SparseMatrix.identity(m.rows) for m in got)


def test_ideal_is_the_complex_without_the_unit():
    # no delta or beta block lands in or leaves the unit's block (0, 0),
    # so the ideal keeps every other block and M's delta and beta on them
    torus = FreeCDGA([Generator(0, "a", 1), Generator(1, "b", 1)], {})
    for loop in (free_loop(sphere2()), free_loop(sphere3()),
                 free_loop(torus, weight_cutoff=2)):
        M = loop.mixed_complex(6)
        ideal = ideals(M)
        assert M.blocks[(0, 0)] == [()]
        assert ideal.blocks == {key: labs for key, labs in M.blocks.items()
                                if key != (0, 0)}
        # the unit is the first label of degree 0
        assert M.labels[0][0] == () and ideal.labels[0] == M.labels[0][1:]
        assert entries(ideal.delta_m(0)) == {
            (i, j - 1): v for (i, j), v in entries(M.delta_m(0)).items()}
        assert entries(ideal.beta_m(1)) == {
            (i - 1, j): v for (i, j), v in entries(M.beta_m(1)).items()}
        for n in range(1, 7):
            assert ideal.labels[n] == M.labels[n]
            assert ideal.delta_m(n) == M.delta_m(n)
            assert ideal.beta_m(n + 1) == M.beta_m(n + 1)
        assert ideal.validate(ks=[2]).status == "pass"


def test_beta_acyclic_lemma_on_ideal():
    for base in (sphere2(), sphere3()):
        loop = free_loop(base)
        ideal = ideals(loop.mixed_complex(10))
        assert beta_acyclic_check(ideal).status == "pass"


def test_chain_map_commuting_enforced():
    c = CochainComplex({0: ["a"], 1: ["b"]}, {0: M_([[1]])})
    d = CochainComplex({0: ["a"], 1: ["b"]}, {0: M_([[0]])})
    with pytest.raises(ComplexError):
        ChainMap(c, d, {0: M_([[1]]), 1: M_([[1]])},
                 check_degrees=range(0, 1))


def test_chain_map_off_by_a_third_is_caught():
    # d is 1/2 on the source and 3/2 on the target, so f^1 = 3 f^0
    src = CochainComplex({0: ["a"], 1: ["b"]}, {0: M_([[Fraction(1, 2)]])})
    tgt = CochainComplex({0: ["a"], 1: ["b"]}, {0: M_([[Fraction(3, 2)]])})
    f0 = M_([[Fraction(1, 3)]])
    ChainMap(src, tgt, {0: f0, 1: M_([[1]])}, check_degrees=[0])
    # off by 1/3 either way, and scaled by 1/3: the last two sides have
    # the same numerator and different denominators
    for f1 in (Fraction(4, 3), Fraction(2, 3), Fraction(1, 3)):
        with pytest.raises(ConsistencyError):
            ChainMap(src, tgt, {0: f0, 1: M_([[f1]])}, check_degrees=[0])


def test_collapsing_label_map_is_the_general_matrix():
    src = CochainComplex({0: ["a", "b", "c"]}, {})
    tgt = CochainComplex({0: ["s", "t"]}, {})
    f = label_map(src, tgt, lambda n, lab: "s" if lab == "c" else "t")
    general = M_([[0, 0, 1], [1, 1, 0]])
    m = f.matrix(0)
    assert m == general and entries(m) == entries(general)
    v = {0: Fraction(1, 2), 1: Fraction(1, 3)}
    assert m.apply(v) == general.apply(v) == {1: Fraction(5, 6)}
    assert linalg.rank(m) == linalg.rank(general) == 2
    x = M_([[1, Fraction(1, 2)], [2, 0], [0, 3]])
    y = M_([[Fraction(1, 3), 1]])
    assert m @ x == general @ x and y @ m == y @ general
    inc = label_inclusion(CochainComplex({0: ["t"]}, {}), tgt)
    assert inc.matrix(0) @ y @ m == inc.matrix(0) @ y @ general


def _ses_in_degree_0(a, b, c, incl, proj):
    """ShortExactSequence of complexes concentrated in degree 0, with the
    inclusion and projection given as {(row, col): value} matrices."""
    A, B, C = (CochainComplex({0: list(range(k))}, {}) for k in (a, b, c))
    return ShortExactSequence(
        ChainMap(A, B, {0: SparseMatrix.validated(b, a, incl)}),
        ChainMap(B, C, {0: SparseMatrix.validated(c, b, proj)}),
        degrees=[0])


def test_short_exact_sequence_rank_checks():
    # label-shaped maps (one entry per row and column) and general ones
    _ses_in_degree_0(1, 2, 1, {(0, 0): 1}, {(0, 1): 1})
    _ses_in_degree_0(1, 2, 1, {(0, 0): 1, (1, 0): 1}, {(0, 0): 1, (0, 1): -1})
    with pytest.raises(ConsistencyError, match="inclusion not injective"):
        _ses_in_degree_0(1, 2, 1, {}, {(0, 1): 1})
    with pytest.raises(ConsistencyError, match="inclusion not injective"):
        # two entries in one row: rank 1, not its entry count 2
        _ses_in_degree_0(2, 3, 1, {(0, 0): 1, (0, 1): 1}, {(0, 2): 1})
    with pytest.raises(ConsistencyError, match="projection not surjective"):
        _ses_in_degree_0(1, 2, 1, {(0, 0): 1}, {})


def test_proj_incl_is_checked_where_both_ends_are_nonzero():
    with pytest.raises(ConsistencyError, match="proj.incl != 0 at degree 0"):
        _ses_in_degree_0(1, 2, 1, {(0, 0): 1}, {(0, 0): 1})
    # A or C of dimension 0: proj.incl is a zero matrix by its shape
    _ses_in_degree_0(0, 1, 1, {}, {(0, 0): 1})
    _ses_in_degree_0(1, 1, 0, {(0, 0): 1}, {})


def test_chain_map_next_to_empty_degrees_still_commutes_or_raises():
    # degrees 0 and 3 are empty on both sides, so only degree 1 can fail
    src = CochainComplex({1: ["a"], 2: ["b"]}, {1: M_([[1]])})
    tgt = CochainComplex({1: ["a"], 2: ["b"]}, {1: M_([[0]])})
    ones = {1: M_([[1]]), 2: M_([[1]])}
    ChainMap(src, src, ones, check_degrees=range(-1, 4))
    with pytest.raises(ConsistencyError) as err:
        ChainMap(src, tgt, ones, check_degrees=range(-1, 4))
    assert (err.value.check, err.value.degree) == (
        "map does not commute with d", 1)


def test_les_audit_rejects_maps_that_disagree_with_the_nodes():
    names = [("A", 1), ("B", 1), ("C", 1)]
    one, empty = M_([[1]]), SparseMatrix.zero(0, 1)
    witness = [{"check": "not exact", "degree": 1, "node": "B"}]
    # maps through a group the dims call 0, and through a 0 the dims call 1
    assert les_audit(names, [1, 0, 1], [one, one]) == witness
    assert les_audit(names, [1, 1, 1],
                     [empty, SparseMatrix.zero(1, 0)]) == witness
    assert les_audit(names, [1, 0, 1],
                     [empty, SparseMatrix.zero(1, 0)]) == []
    # maps whose shapes disagree with each other cannot be composed
    with pytest.raises(linalg.LinalgError, match="shape mismatch"):
        les_audit(names, [1, 0, 1], [empty, one])


def test_mapping_cone_blocks_keep_their_fractions():
    # d is 1/2 on C1 and 3/2 on C2, and f = (1/3, 1) commutes with them
    c1 = CochainComplex({0: ["a"], 1: ["b"]}, {0: M_([[Fraction(1, 2)]])})
    c2 = CochainComplex({0: ["x"], 1: ["y"]}, {0: M_([[Fraction(3, 2)]])})
    f = ChainMap(c1, c2, {0: M_([[Fraction(1, 3)]]), 1: M_([[1]])},
                 check_degrees=[0])
    cone, include, project = mapping_cone(f)
    assert cone.labels == {-1: [(1, "a")], 0: [(0, "x"), (1, "b")],
                           1: [(0, "y")]}
    # [[d2, f], [0, -d1]] at degrees -1 and 0
    assert entries(cone.d(-1)) == {(0, 0): Fraction(1, 3),
                                  (1, 0): Fraction(-1, 2)}
    assert entries(cone.d(0)) == {(0, 0): Fraction(3, 2), (0, 1): 1}
    assert entries(project.target.d(-1)) == {(0, 0): Fraction(-1, 2)}
    for m in (cone.d(-1), cone.d(0), project.target.d(-1)):
        assert all(type(v) is Fraction for v in entries(m).values())
    # f is a quasi-isomorphism of acyclic complexes: its cone is acyclic
    assert [cone.betti(n) for n in (-1, 0, 1)] == [0, 0, 0]
