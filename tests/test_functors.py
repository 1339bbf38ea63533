"""The cohomology functors on the sphere fixtures."""

from fractions import Fraction
from pathlib import Path

import pytest

from cdgacyc import functors as F
from cdgacyc.cli import load_algebra
from cdgacyc.complexes import (CochainComplex, band_complex, label_map,
                               mapping_cone, shift_complex)
from cdgacyc.free_loop import base_cochain
from cdgacyc.gralg import FreeCDGA, Generator

import oracles

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cdgacyc" / "fixtures"


def sphere2():
    x = Generator(0, "x", 2)
    y = Generator(1, "y", 3)
    return FreeCDGA([x, y], {"y": {((x, 2),): Fraction(1)}})


def sphere3():
    return FreeCDGA([Generator(0, "x", 3)], {})


def sphere_even4():
    x = Generator(0, "x", 4)
    y = Generator(1, "y", 7)
    return FreeCDGA([x, y], {"y": {((x, 2),): Fraction(1)}})


@pytest.fixture(scope="module")
def ctx3():
    return F.LoopContext(sphere3(), 12)


@pytest.fixture(scope="module")
def ctx2():
    return F.LoopContext(sphere2(), 12)


@pytest.fixture(scope="module")
def ctx3_10():
    return F.LoopContext(sphere3(), 10)


@pytest.fixture(scope="module")
def ctx2_10():
    return F.LoopContext(sphere2(), 10)


def test_hh_sphere3_matches_oracle(ctx3):
    hh = F.HH(ctx3)
    assert [hh.total(n) for n in range(13)] == oracles.hh_sphere3(13)


def test_hh_sphere2_matches_oracle(ctx2):
    hh = F.HH(ctx2)
    assert [hh.total(n) for n in range(13)] == oracles.hh_sphere2(13)


def test_hh_weights_sum_to_totals(ctx2):
    hh = F.HH(ctx2)
    for n in range(13):
        assert sum(hh.weights(n).values()) == hh.total(n)


def test_ch_sphere3(ctx3):
    ch = F.CH(ctx3)
    for n in range(13):
        if n == 0:
            assert ch.total(n) == 1 and ch.weights(n) == {0: 1}
        elif n % 2 == 0:
            m = n // 2
            assert ch.weights(n) == {-m: 1, m: 1}
        else:
            assert ch.total(n) == 0


def test_reduced_ch_sphere3(ctx3):
    rch = F.reduced_CH(ctx3)
    for n in range(13):
        assert rch.total(n) == (1 if n % 2 == 0 and n > 0 else 0)


def test_k_groups(ctx3, ctx2):
    k3 = F.K_groups(ctx3)
    assert (k3["even"], k3["odd"]) == (1, 1)
    assert (k3["reduced_even"], k3["reduced_odd"]) == (0, 1)
    assert k3["certified"]
    k2 = F.K_groups(ctx2)
    assert (k2["even"], k2["odd"]) == (2, 0)
    assert k2["certified"]


def test_sh_sphere3(ctx3):
    sh = F.SH(ctx3)
    assert sh.total(0) == 1
    assert sh.total(1) == 1
    for n in range(2, 13):
        assert sh.total(n) == (0 if n % 2 == 0 else 2)


def test_theorem2(ctx3, ctx2):
    for ctx in (ctx3, ctx2):
        rep = F.theorem2_check(ctx)
        assert rep["pass"]
        assert any(v.get("status") == "pass" for v in rep["degrees"].values())


def test_ph_stabilizes(ctx3):
    ph = F.PH(ctx3)
    for n in range(13):
        assert ph.certified(n)
        assert ph.total(n) == (1 if n % 2 == 0 else 0)


def test_ph_agrees_with_periodic():
    # PH is read off the CH table; PH_periodic sums periodic bands
    for name in ("trivial", "sphere2", "sphere3", "sphereEven4",
                 "product_s2_s3"):
        ctx = F.LoopContext(load_algebra(str(FIXTURES / f"{name}.json")), 12)
        ph = F.PH(ctx)
        php = F.PH_periodic(ctx)
        for n in range(13):
            assert ph.certified(n) and php.certified(n)
            assert ph.weights(n) == php.weights(n), (name, n)


def test_fig2_audit_passes(ctx3_10, ctx2_10):
    for ctx in (ctx3_10, ctx2_10):
        rep = F.fig2_audit(ctx)
        assert rep["pass"]
        assert rep["intertwining"]


def test_fig7_audit_passes(ctx3_10, ctx2_10):
    for ctx in (ctx3_10, ctx2_10):
        rep = F.fig7_audit(ctx)
        assert rep["pass"]
        assert all(w["quasi_iso"] for w in rep["weights"].values())


def test_t4_audit_passes(ctx3_10, ctx2_10):
    for ctx in (ctx3_10, ctx2_10):
        rep = F.t4_audit(ctx)
        assert rep["pass"]


def test_t4_even_sphere():
    ctx = F.LoopContext(sphere_even4(), 12)
    assert F.t4_audit(ctx)["pass"]
    assert F.theorem2_check(ctx)["pass"]


def test_euler_sphere3(ctx3):
    series = F.euler_series(ctx3)
    for w, row in series["chiH"].items():
        if row["certified"]:
            assert row["value"] == 0


def test_euler_weight0_is_base_characteristic(ctx3, ctx2):
    for ctx, chi in ((ctx3, 0), (ctx2, 2)):
        series = F.euler_series(ctx)
        row = series["chiH"][0]
        assert row["certified"]
        assert row["value"] == chi


def test_euler_stable_under_cutoff(ctx3, ctx3_10):
    s10 = F.euler_series(ctx3_10)
    s12 = F.euler_series(ctx3)
    for w, row in s10["chiH"].items():
        if row["certified"] and s12["chiH"].get(w, {}).get("certified"):
            assert row["value"] == s12["chiH"][w]["value"]


def test_dropping_weight_projection_breaks_theorem2(ctx3_10):
    sh_good = F.SH(ctx3_10)
    sh_bad = F.SH(ctx3_10, project_weight_zero=False)
    assert any(
        sh_good.total(n) != sh_bad.total(n) for n in range(11)
    )
    k = F.K_groups(ctx3_10)
    rch = F.reduced_CH(ctx3_10)
    broken = []
    for r in range(1, 11):
        kbar = k["reduced_even"] if r % 2 == 0 else k["reduced_odd"]
        if sh_bad.total(r) != kbar + rch.total(r - 1):
            broken.append(r)
    assert broken  # located witness degrees


def test_quasi_iso_invariance_of_functors():
    # two free models of the S^3 cohomology: Lambda[x3] and an acyclic
    # extension Lambda[x3, a4, b7] with da = 0 ... instead use the model
    # builder path indirectly: rename generators (an isomorphism)
    a = sphere3()
    b = FreeCDGA([Generator(0, "z", 3)], {})
    ta = F.HH(F.LoopContext(a, 10))
    tb = F.HH(F.LoopContext(b, 10))
    assert all(ta.total(n) == tb.total(n) for n in range(11))


def test_table_json_schema():
    doc = F.HH(F.LoopContext(sphere3(), 8)).to_json()
    assert set(doc) == {"degrees"}
    for row in doc["degrees"]:
        assert set(row) == {"n", "total", "weights", "certified"}
        assert isinstance(row["certified"], bool)
        assert all(isinstance(k, str) for k in row["weights"])


@pytest.mark.parametrize("stem", ["product_s2_s3", "sphereEven4",
                                  "cp2_finite"])
@pytest.mark.parametrize("descending", [False, True])
def test_shared_bands_equal_fresh_ones(stem, descending):
    # a band of any top t is the truncation of the one band per (w, kind)
    # and shares its cohomology below t; it must equal the band built
    # fresh over 0..t from a mixed complex built at top t, in every
    # degree including t, whichever of them is read first
    cutoff = 6
    ctx = F.LoopContext(load_algebra(str(FIXTURES / f"{stem}.json")), cutoff)
    tops = range(cutoff + 1, -1, -1) if descending else range(cutoff + 2)
    for t in tops:
        M = ctx.loop.mixed_complex(t)
        for kind, ws in (("plus", range(-(t // 2) - 1, t + 2)),
                         ("slice", range(0, t + 2))):
            for w in ws:
                got = ctx.band(w, kind, t)
                want = band_complex(M, w, kind, 0, t)
                full = ctx.band(w, kind, cutoff + 1)
                assert got.labels == want.labels
                for n in range(t + 1):
                    assert got.d(n) == want.d(n)
                    assert got.betti(n) == want.betti(n)
                    if n < t:
                        assert got.cohomology(n) is full.cohomology(n)


def _sh_oracle(ctx):
    """Per-weight SH^r for r <= cutoff with Ibar and its cone built at top
    r + 1 for each r and each weight SH reads.  As in SH, a weight is
    skipped when CH^{r-1}(w + 1) and the base cohomology in degree r + 2w
    both vanish: the base block starts in degree 0, so below that the
    truncated cone is not the cone SH means."""
    cutoff, loop = ctx.cutoff, ctx.loop
    M = loop.mixed_complex(cutoff + 1)
    bound, _ = ctx.base_bound()
    ranges = {}
    for r in range(cutoff + 1):
        w_lo = -((r + 1) // 2) - 1
        ranges[r] = range(w_lo, max(r - 2, (bound - r) // 2 + 1, w_lo) + 1)
    base = base_cochain(ctx.algebra, max(
        r + 3 + 2 * max(ws) for r, ws in ranges.items()))
    rows = {}
    for r, ws in ranges.items():
        rows[r] = {}
        for w in ws:
            band = band_complex(M, w + 1, "plus", 0, r)
            if ((r == 0 or band.betti(r - 1) == 0)
                    and (r + 2 * w < 0 or base.betti(r + 2 * w) == 0)):
                continue
            source = shift_complex(band, 2)
            target = CochainComplex(
                {n: [("b", mono) for mono in base.labels.get(n + 2 * w, [])]
                 for n in range(max(0, -2 * w), r + 3)},
                {n: base.d(n + 2 * w) for n in range(max(0, -2 * w), r + 2)})

            def top_slot(n, lab, w=w):
                m, mono = lab
                if m == n + 2 * w and loop.weight(mono) == 0:
                    return ("b", loop.lower(mono))
                return None

            f = label_map(source, target, top_slot,
                          check_degrees=range(0, r + 1))
            d = mapping_cone(f)[0].betti(r)
            if d:
                rows[r][w] = d
    return rows


@pytest.mark.parametrize("stem", sorted(p.stem for p in
                                        FIXTURES.glob("*.json")))
def test_sh_per_weight_matches_cones_built_per_degree(stem):
    # SH reads every SH^r(w) off one cone per weight built at cutoff + 1;
    # each must equal the cone over Ibar built at top r + 1
    algebra = load_algebra(str(FIXTURES / f"{stem}.json"))
    for cutoff in range(9):
        ctx = F.LoopContext(algebra, cutoff)
        sh = F.SH(ctx)
        rows = _sh_oracle(ctx)
        assert {r: sh.weights(r) for r in sh.degrees} == rows, cutoff
