"""Acceptance gate: the eight headline checks at cutoff 12.

Each test prints exactly one PASS/FAIL line and enforces a 60 second
budget per fixture.  Run with -s to see the lines as they appear.
"""

import time
from pathlib import Path

from cdgacyc import functors as F
from cdgacyc.cli import load_algebra
from cdgacyc.complexes import beta_acyclic_check, les_audit
from cdgacyc.free_loop import free_loop, ideals, u_model
from cdgacyc.linalg import SparseMatrix
from cdgacyc.minimal_model import build_minimal_model, verify_minimal

import oracles
from matrices import entries
from periodic import PH_periodic
from test_functors import unprojected_sh_band
from test_minimal_model import is_quasi_iso

N = 12
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cdgacyc" / "fixtures"
FREE = ["trivial", "sphere2", "sphere3", "sphereEven4", "product_s2_s3"]

_cache = {}


def fixture(name):
    if name not in _cache:
        _cache[name] = load_algebra(str(FIXTURES / f"{name}.json"))
    return _cache[name]


_ctx_cache = {}


def ctx(name, cutoff=N):
    if (name, cutoff) not in _ctx_cache:
        _ctx_cache[name, cutoff] = F.LoopContext(fixture(name), cutoff)
    return _ctx_cache[name, cutoff]


class _Budget:
    """Asserts each fixture stays under the 60 second budget."""

    def __init__(self):
        self.t = time.monotonic()

    def lap(self, name):
        now = time.monotonic()
        elapsed = now - self.t
        self.t = now
        assert elapsed < 60.0, f"{name} took {elapsed:.1f}s (budget 60s)"


def report(num, label, ok):
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({label}) failed"


def test_criterion_1_mixed_complex_axioms():
    budget = _Budget()
    ok = True
    for name in FREE:
        loop = free_loop(fixture(name))
        M = loop.mixed_complex(N)
        ok = ok and M.validate(ks=[-1, 2, 3, 6]).status == "pass"
        budget.lap(name)
    report(1, "mixed complex and power map axioms", ok)


def test_criterion_2_power_map_eigenstructure():
    budget = _Budget()
    ok = True
    for name in ("sphere2", "sphere3", "sphereEven4"):
        ok = ok and F.t4_audit(ctx(name)).status == "pass"
        budget.lap(name)
    report(2, "power map eigenstructure and vanishing bounds", ok)


def test_criterion_3_exact_sequences():
    budget = _Budget()
    ok = True
    for name in ("sphere2", "sphere3"):
        ok = ok and F.fig2_audit(ctx(name, 10)).status == "pass"
        ok = ok and F.fig7_audit(ctx(name, 10)).status == "pass"
        budget.lap(name)
    # at cutoff 10 no sphereEven4 degree is certified, so the identity
    # is compared at cutoff 12
    for name in ("sphere2", "sphere3", "sphereEven4", "product_s2_s3"):
        ok = ok and F.theorem2_check(ctx(name)).status == "pass"
        budget.lap(name)
    report(3, "long exact sequences and the SH dimension identity", ok)


def test_criterion_4_cross_pipelines():
    budget = _Budget()
    ok = True
    # (a) circle-model cohomology equals CH, (b) HH totals equal weight
    # sums, (d) the augmentation ideal is interior-acyclic
    for name in FREE:
        c = ctx(name)
        um = u_model(c.loop, N + 1)
        ch = F.CH(c)
        ok = ok and all(um.betti(n) == ch.total(n) for n in range(N + 1))
        hh = F.HH(c)
        ok = ok and all(
            sum(hh.weights(n).values()) == hh.total(n) for n in range(N + 1)
        )
        if fixture(name).algebra.generators:
            ideal = ideals(c.mixed())
            ok = ok and beta_acyclic_check(ideal).status == "pass"
        budget.lap(name)
    # (c) stabilized PH equals the periodic complex
    for name in ("trivial", "sphere2", "sphere3", "product_s2_s3"):
        c = ctx(name)
        ph = F.PH(c)
        php = PH_periodic(c)
        for n in range(N + 1):
            if ph.certified(n) and php.certified(n):
                ok = ok and ph.total(n) == php.total(n)
        budget.lap(name)
    report(4, "independent pipelines agree", ok)


def test_criterion_5_betti_oracle():
    budget = _Budget()
    expect3 = [1, 0, 1] + [1] * 10
    expect2 = [1] * 13
    o3 = oracles.hh_sphere3(N + 1)
    o2 = oracles.hh_sphere2(N + 1)
    hh3 = F.HH(ctx("sphere3"))
    hh2 = F.HH(ctx("sphere2"))
    ok = (
        o3 == expect3 and o2 == expect2
        and [hh3.total(n) for n in range(N + 1)] == o3
        and [hh2.total(n) for n in range(N + 1)] == o2
    )
    budget.lap("oracle")
    report(5, "independent brute-force Betti numbers", ok)


def minimal(A, theta):
    """The model passes its minimality audits and theta is a
    quasi-isomorphism."""
    audits = verify_minimal(A, N) + [is_quasi_iso(theta, N)]
    return all(a.status == "pass" for a in audits)


def test_criterion_6_minimal_models():
    budget = _Budget()
    ok = True
    b2 = fixture("s2_cohomology")
    a2, theta2 = build_minimal_model(b2, N)
    ok = ok and sorted(g.degree for g in a2.algebra.generators) == [2, 3]
    ok = ok and minimal(a2, theta2)
    budget.lap("s2_cohomology")
    b3 = fixture("s3_cohomology")
    a3, theta3 = build_minimal_model(b3, N)
    ok = ok and [g.degree for g in a3.algebra.generators] == [3]
    ok = ok and minimal(a3, theta3)
    budget.lap("s3_cohomology")
    via_builder = F.HH(F.LoopContext(b2, N))
    direct = F.HH(ctx("sphere2"))
    ok = ok and all(
        via_builder.total(n) == direct.total(n) for n in range(N + 1)
    )
    budget.lap("builder HH")
    report(6, "minimal model construction", ok)


def test_criterion_7_euler_characteristics():
    budget = _Budget()
    ok = True
    s3 = F.euler_series(ctx("sphere3"))
    ok = ok and any(row["certified"] for row in s3["chiH"].values())
    for row in s3["chiH"].values():
        if row["certified"]:
            ok = ok and row["value"] == 0
    budget.lap("sphere3")
    chi_base = {"trivial": 1, "sphere2": 2, "sphere3": 0,
                "sphereEven4": 2, "product_s2_s3": 0}
    series = {}
    for name in FREE:
        series[name] = F.euler_series(ctx(name))
        row = series[name]["chiH"][0]
        ok = ok and row["certified"] and row["value"] == chi_base[name]
        budget.lap(name)
    for name in FREE:
        s10 = F.euler_series(ctx(name, 10))
        for w, row in s10["chiH"].items():
            r12 = series[name]["chiH"].get(w)
            if row["certified"] and r12 and r12["certified"]:
                ok = ok and row["value"] == r12["value"]
        budget.lap(name + " stability")
    report(7, "Euler characteristics", ok)


def test_criterion_8_negative_controls(monkeypatch):
    budget = _Budget()
    from cdgacyc.complexes import (
        MixedComplex,
        ShortExactSequence,
        band_complex,
        label_inclusion,
        label_projection,
        shift_complex,
    )

    ok = True
    # (a) flip the sign of delta on y_bar: axioms must fail with a witness
    loop = free_loop(fixture("sphere2"))
    M = loop.mixed_complex(8)
    ybar = ((loop.barred[1], 1),)
    key = (2, loop.weight(ybar))
    col = M.blocks[key].index(ybar)
    d = M.delta[key]
    flipped = {(i, j): (-v if j == col else v)
               for (i, j), v in entries(d).items()}
    delta = {**M.delta, key: SparseMatrix(d.rows, d.cols, flipped)}
    bad = MixedComplex(M.blocks, delta, M.beta, M.top)
    axioms = bad.validate(ks=[2])
    ok = ok and axioms.status == "fail" and axioms.witnesses == (
        {"check": "delta.beta + beta.delta != 0", "degree": 3},)
    budget.lap("sign flip")

    # (b) zero out a connecting map: the exactness audit must locate it
    loop3 = free_loop(fixture("sphere3"))
    M3 = loop3.mixed_complex(10)
    plus_w = band_complex(M3, 0, "plus", 0, 8)
    plus_w1 = shift_complex(band_complex(M3, 1, "plus", 0, 6), 2)
    slice_w = band_complex(M3, 0, "slice", 0, 8)
    ses = ShortExactSequence(
        label_inclusion(plus_w1, plus_w),
        label_projection(plus_w, slice_w),
        degrees=range(0, 7),
    )
    names, dims, maps = ses.les(1, 6)
    tampered = []
    for i, m in enumerate(maps):
        if not tampered and i % 3 == 2 and not m.is_zero():
            tampered.append(i)
            maps[i] = SparseMatrix(m.rows, m.cols, {})
    # the zeroed map runs from node i to node i + 1
    nodes = {(w["node"], w["degree"]) for w in les_audit(names, dims, maps)}
    ok = ok and tampered and nodes & {names[tampered[0]],
                                      names[tampered[0] + 1]}
    budget.lap("connecting map")

    # (c) drop the weight-zero projection: the dimension identity breaks
    monkeypatch.setattr(F, "_sh_band", unprojected_sh_band())
    identity = F.theorem2_check(ctx("sphere3", 10))
    ok = ok and identity.status == "fail" and [
        w["degree"] for w in identity.witnesses] == [1, 3, 5, 7, 9]
    budget.lap("projection drop")
    report(8, "negative controls fail with witnesses", bool(ok))
