"""Command line front end: parsing, commands, exit codes."""

import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdgacyc import cli, complexes, free_loop, functors
from cdgacyc.free_loop import LoopAlgebra
from cdgacyc.minimal_model import verify_minimal

from periodic import PH_periodic
from test_functors import unprojected_sh_band

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "cdgacyc" / "fixtures"

S2 = str(FIXTURES / "sphere2.json")
S3 = str(FIXTURES / "sphere3.json")
S2H = str(FIXTURES / "s2_cohomology.json")
TRIV = str(FIXTURES / "trivial.json")
SH_SKIP = ("SKIP  SH dimension identity  (no degree from 1 to the cutoff has "
           "certified SH, K and CH rows)")


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_hh_table(capsys):
    code, out, _ = run(["hh", S3, "--cutoff", "8"], capsys)
    assert code == 0
    assert "HH up to degree 8" in out
    dims = [int(line.split()[2]) for line in out.splitlines()
            if line.strip().startswith(tuple("0123456789"))]
    assert dims == [1, 0, 1, 1, 1, 1, 1, 1, 1]


def test_hh_json_schema(capsys):
    code, out, _ = run(["hh", S3, "--cutoff", "6", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"degrees"}
    for row in doc["degrees"]:
        assert set(row) == {"n", "total", "weights", "certified"}


def test_ch_per_weight(capsys):
    code, out, _ = run(["ch", S3, "--cutoff", "6", "--per-weight"], capsys)
    assert code == 0
    assert "[" in out  # weight breakdown shown


def test_cohomology_of_base(capsys):
    code, out, _ = run(["cohomology", S2, "--cutoff", "5"], capsys)
    assert code == 0
    dims = [int(line.split()[2]) for line in out.splitlines()
            if line.strip().startswith(tuple("0123456789"))]
    assert dims == [1, 0, 1, 0, 0, 0]


def test_euler(capsys):
    code, out, _ = run(["euler", S3, "--cutoff", "8", "--json"], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["chiH"]["0"]["value"] == 0
    assert doc["chiH"]["0"]["certified"]


def test_check_passes(capsys):
    code, out, _ = run(["check", S2, "--cutoff", "8"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 7
    assert all(ln.startswith("PASS") for ln in lines)


@pytest.mark.parametrize("fixture, cutoff", [
    ("sphere2", 0), ("sphere3", 1), ("sphereEven4", 2), ("product_s2_s3", 0),
])
def test_check_skips_audit_that_does_not_apply(fixture, cutoff, capsys):
    # below the lowest generator degree - 1, beta vanishes on the ideal;
    # below cutoff 2 the long exact sequences have no degree to compare,
    # and below the base vanishing window no SH degree is certified
    path = str(FIXTURES / f"{fixture}.json")
    code, out, _ = run(["check", path, "--cutoff", str(cutoff)], capsys)
    assert code == 0
    lines = out.splitlines()
    reason = f"(cutoff {cutoff} leaves no degree to compare)"
    diagrams = [f"SKIP  long exact sequences (rows and verticals)  {reason}",
                f"SKIP  comparison diagram  {reason}"]
    assert [ln for ln in lines if ln.startswith("SKIP")] == diagrams * (
        cutoff < 2) + [
        SH_SKIP,
        "SKIP  interior-acyclicity lemma on the ideal  "
        "(beta is identically zero on a nonzero complex)"]
    assert not [ln for ln in lines if ln.startswith("FAIL")]


@pytest.fixture
def torus(tmp_path):
    # degree-0 barred partners: the weight cutoff truncates every degree
    path = tmp_path / "torus.json"
    path.write_text(json.dumps({
        "generators": [{"name": "a", "degree": 1},
                       {"name": "b", "degree": 1}],
    }))
    return path


@pytest.mark.parametrize("command", ["hh", "ch", "ph", "sh"])
def test_weight_truncated_rows_uncertified(command, torus, capsys):
    for weight_max in ("1", "3"):
        code, out, _ = run([command, str(torus), "--cutoff", "3",
                            "--weight-max", weight_max], capsys)
        assert code == 0
        rows = [ln for ln in out.splitlines() if "dim" in ln]
        assert len(rows) == 4
        assert all(ln.endswith("(uncertified)") for ln in rows)


def test_weight_truncated_euler_uncertified(torus, capsys):
    # at --weight-max 3, chiC weight 2 is -4.  The torus has delta = 0,
    # so the +band of weight 2 through degree 3 is a truncated Koszul
    # complex: beta sends a block (m, p) to (m - 1, p + 1), with blocks
    # (0, 2) in degree 0, (1, 2) in degree 1, (2, 2) + (0, 3) in degree 2
    # and (1, 3) in degree 3, and no (0, 4) past the weight cutoff.  Its
    # cohomology has dimensions 3, 2, 0, 5.
    for weight_max in ("1", "3"):
        code, out, _ = run(["euler", str(torus), "--cutoff", "3",
                            "--weight-max", weight_max, "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert not any(row["certified"] for part in doc.values()
                       for row in part.values())
    assert doc["chiC"]["2"]["value"] == -4


def test_check_skips_audits_under_weight_cutoff(torus, capsys):
    code, out, _ = run(["check", str(torus), "--cutoff", "3",
                        "--weight-max", "1"], capsys)
    assert code == 0
    reason = "  (the weight cutoff 1 truncates the loop complex from degree 0)"
    lines = out.splitlines()
    assert [ln for ln in lines if not ln.startswith("PASS")] == [
        "SKIP  power map eigenstructure" + reason,
        SH_SKIP,
        "SKIP  circle model agrees with CH" + reason,
        "SKIP  interior-acyclicity lemma on the ideal" + reason,
    ]
    assert len(lines) == 7


def test_check_skips_identity_with_no_certified_degree(capsys):
    # the weight cutoff 3 leaves every SH row of sphere3 uncertified
    code, out, _ = run(["check", S3, "--cutoff", "6", "--weight-max", "3"],
                       capsys)
    assert code == 0
    assert SH_SKIP in out.splitlines()
    assert "PASS  SH dimension identity" not in out


def test_audits_skip_themselves_under_weight_cutoff(torus):
    ctx = functors.LoopContext(cli.load_algebra(str(torus)), 3,
                               weight_cutoff=1)
    reason = "the weight cutoff 1 truncates the loop complex from degree 0"
    assert ctx.truncated == reason
    for audit in (functors.t4_audit, functors.circle_audit,
                  functors.ideal_audit):
        record = audit(ctx)
        assert (record.status, record.reason) == ("skipped", reason)


TAGS = {"pass": "PASS", "fail": "FAIL", "skipped": "SKIP"}


def _text_line(record):
    line = f"{TAGS[record['status']]}  {record['name']}"
    if record["status"] != "pass" and record["reason"]:
        line += f"  ({record['reason']})"
    return line


@pytest.mark.parametrize("argv", [
    [S2, "--cutoff", "0"],
    [str(FIXTURES / "product_s2_s3.json"), "--cutoff", "6"],
    ["TORUS", "--cutoff", "3", "--weight-max", "1"],
])
def test_check_json_matches_text(argv, torus, capsys):
    argv = [str(torus) if a == "TORUS" else a for a in argv]
    code, text, _ = run(["check"] + argv, capsys)
    json_code, out, _ = run(["check"] + argv + ["--json"], capsys)
    records = json.loads(out)
    assert json_code == code
    assert len(records) == 7
    assert [_text_line(r) for r in records] == text.splitlines()
    assert all(set(r) == {"name", "status", "reason", "witnesses"}
               for r in records)


def test_inconsistency_fails_its_audit_and_the_others_still_run(
        monkeypatch, capsys):
    # a comparison rule that drops degree 3 is not a chain map
    top_slot = functors._top_slot

    def dropping(ctx, w):
        image = top_slot(ctx, w)
        return lambda r, lab: None if r == 3 else image(r, lab)

    monkeypatch.setattr(functors, "_top_slot", dropping)
    # record the weights the comparison diagram checks
    checked = []
    fig7_weight = functors._fig7_weight

    def recording(ctx, w):
        checked.append(w)
        return fig7_weight(ctx, w)

    monkeypatch.setattr(functors, "_fig7_weight", recording)
    code, out, _ = run(["check", S2, "--cutoff", "6"], capsys)
    lines = out.splitlines()
    assert code == 1
    assert len(lines) == 7
    assert ("FAIL  comparison diagram  (map does not commute with d at "
            "degree 3, weight 0)") in lines
    code, out, _ = run(["check", S2, "--cutoff", "6", "--json"], capsys)
    [record] = [r for r in json.loads(out) if r["status"] == "fail"]
    assert code == 1
    assert record["witnesses"]
    for witness in record["witnesses"]:
        assert witness == {"check": "map does not commute with d",
                           "degree": 3, "weight": witness["weight"]}
    # the weights after the first failing one are still checked
    failing = min(w["weight"] for w in record["witnesses"])
    assert max(checked) > failing


def test_verify_minimal_fails_with_witness(torus, capsys):
    code, out, _ = run(["verify-minimal", str(torus)], capsys)
    assert code == 1
    assert out.splitlines() == [
        "FAIL  no degree-1 generators  "
        "(generator a at degree 1; generator b at degree 1)",
        "PASS  differential decomposable"]


def test_weight_cutoff_above_the_window_changes_nothing(capsys):
    # SH reads the loop complex through degree cutoff + 1
    for argv, weight_max in (
        (["hh", S3, "--cutoff", "4", "--per-weight"], "5"),
        (["sh", S3, "--cutoff", "8", "--per-weight"], "9"),
        (["ph", S3, "--cutoff", "8", "--per-weight"], "9"),
    ):
        _, plain, _ = run(argv, capsys)
        _, wide, _ = run(argv + ["--weight-max", weight_max], capsys)
        assert wide == plain
        assert "uncertified" not in plain
    # weight cutoff 1 drops xbar^2 from degree 4, where HH^4 = 1
    _, narrow, _ = run(["hh", S3, "--cutoff", "4", "--weight-max", "1"],
                       capsys)
    assert "    4  dim   0  (uncertified)" in narrow.splitlines()


@pytest.mark.parametrize("command", ["hh", "ch", "ph", "sh", "euler", "check"])
def test_one_mixed_complex_per_command(command, monkeypatch, capsys):
    # every band, cone and slice these commands read lies in degrees
    # <= cutoff + 1, so the loop mixed complex is built once, there
    tops = []
    build = LoopAlgebra.mixed_complex

    def counted(self, top):
        tops.append(top)
        return build(self, top)

    monkeypatch.setattr(LoopAlgebra, "mixed_complex", counted)
    code, _, _ = run([command, str(FIXTURES / "product_s2_s3.json"),
                      "--cutoff", "4"], capsys)
    assert code == 0
    assert tops == [5]


@pytest.mark.parametrize("argv", [
    # sphereEven4 has empty base degrees, which the built complex drops
    ["sh", str(FIXTURES / "sphereEven4.json"), "--cutoff", "12"],
    ["check", S2, "--cutoff", "5"],
], ids=["sh", "check"])
def test_base_complex_built_once_at_its_top(argv, monkeypatch, capsys):
    # the base complex is built once, through cutoff + 2 + 2W, where W is
    # the largest weight at which SH or the comparison diagram builds a
    # cone, and each of its differentials once
    calls, built = [], []
    build = functors.base_cochain
    make = free_loop.derivation_matrix

    def counted(algebra, top):
        built.clear()
        out = build(algebra, top)
        calls.append((top, len(built), len(out.diff)))
        return out

    def counted_make(*args, **kwargs):
        built.append(None)
        return make(*args, **kwargs)

    monkeypatch.setattr(functors, "base_cochain", counted)
    monkeypatch.setattr(free_loop, "derivation_matrix", counted_make)
    code, _, _ = run(argv, capsys)
    assert code == 0
    cutoff = int(argv[-1])
    top = cutoff + 2 + 2 * max(cutoff - 2, cutoff // 2 + 1, 2)
    assert calls == [(top, top, top)]


def test_each_loop_block_is_built_once(monkeypatch):
    # SH and the audits read the loop complex through cutoff + 1, so it
    # is built once, there, and each delta and beta block once in it
    tops, blocks = [], []
    build = LoopAlgebra.mixed_complex
    make = free_loop.derivation_matrix

    def counted(self, top):
        tops.append(top)
        return build(self, top)

    def counted_make(derv, basis_in, index_out):
        blocks.append((derv, tuple(basis_in)))
        return make(derv, basis_in, index_out)

    monkeypatch.setattr(LoopAlgebra, "mixed_complex", counted)
    monkeypatch.setattr(free_loop, "derivation_matrix", counted_make)
    ctx = functors.LoopContext(
        cli.load_algebra(str(FIXTURES / "product_s2_s3.json")), 4)
    functors.SH(ctx)
    records = functors.audits(ctx)
    assert all(record.status != "fail" for record in records)
    assert tops == [ctx.cutoff + 1]
    M = ctx.mixed()
    loop = [(derv, labs) for derv, labs in blocks
            if derv in (ctx.loop.delta, ctx.loop.iota)]
    assert len(loop) == len(set(loop))
    # delta out of every block below the top, beta out of every block
    assert set(loop) == {(derv, tuple(labs))
                         for (n, _), labs in M.blocks.items()
                         for derv in (ctx.loop.delta, ctx.loop.iota)
                         if derv is ctx.loop.iota or n < M.top}


def test_cross_checks_leave_the_context_complex(monkeypatch):
    # PH_periodic and the negative control without the weight-zero
    # projection read the loop complex above cutoff + 1 from complexes
    # of their own: the context's complex stays the one built at
    # cutoff + 1, and the bands read after them are built on it
    ctx = functors.LoopContext(
        cli.load_algebra(str(FIXTURES / "product_s2_s3.json")), 4)
    M = ctx.mixed()
    PH_periodic(ctx)
    with monkeypatch.context() as patch:
        patch.setattr(functors, "_sh_band", unprojected_sh_band())
        functors.SH(ctx)
    assert ctx.mixed() is M and M.top == ctx.cutoff + 1
    assert all(record.status != "fail" for record in functors.audits(ctx))


def test_check_builds_each_band_and_cone_once(monkeypatch, capsys):
    # every reader of a plus band or slice shares the one band per
    # (weight, kind), a band is assembled once per distinct slot table
    # (for w <= 0 the periodic and minus bands are the plus band and the
    # slice, and a minus band with the periodic band's slots is that
    # band), and SH and the comparison diagram share one cone over Ibar
    # per weight
    bands, tables, blocks, ibar_cones = [], [], [], []
    band = functors.band_complex
    block = functors._base_block
    cone = functors.mapping_cone

    def counted_band(M, w, kind, r_min, r_max):
        bands.append((w, kind))
        tables.append(tuple(tuple(complexes._slot_basis(M, r, kind, w))
                            for r in range(r_min, r_max + 1)))
        return band(M, w, kind, r_min, r_max)

    def counted_block(ctx, w, top):
        blocks.append(w)
        return block(ctx, w, top)

    def counted_cone(f):
        if any(lab[0] == "b" for labs in f.target.labels.values()
               for lab in labs):
            ibar_cones.append(f)
        return cone(f)

    monkeypatch.setattr(functors, "band_complex", counted_band)
    monkeypatch.setattr(functors, "_base_block", counted_block)
    monkeypatch.setattr(functors, "mapping_cone", counted_cone)
    code, out, _ = run(["check", str(FIXTURES / "product_s2_s3.json"),
                        "--cutoff", "6"], capsys)
    assert code == 0 and "FAIL" not in out
    shared = [b for b in bands if b[1] in ("plus", "slice")]
    assert shared and len(shared) == len(set(shared))
    assert len(tables) == len(set(tables))
    assert any(kind == "periodic" for _, kind in bands)
    assert not [b for b in bands if b[1] in ("periodic", "minus")
                and b[0] <= 0]
    assert blocks and len(blocks) == len(set(blocks)) == len(ibar_cones)


def test_finite_input_goes_through_model(capsys):
    code, out, _ = run(["hh", S2H, "--cutoff", "8"], capsys)
    assert code == 0
    assert "model generators" in out


@pytest.mark.parametrize("cutoff", range(7))
@pytest.mark.parametrize("command", ["hh", "ch", "ph", "sh", "euler", "check"])
def test_finite_input_model_deep_enough(command, cutoff, capsys):
    # the loop complex through degree cutoff + 1 reads the generators of
    # degree <= cutoff + 2, so a shallower model changes low rows
    for finite, free in (("s2_cohomology", "sphere2"),
                         ("s3_cohomology", "sphere3")):
        outs = []
        for stem in (finite, free):
            code, out, _ = run([command, str(FIXTURES / f"{stem}.json"),
                                "--cutoff", str(cutoff)], capsys)
            assert code == 0
            outs.append(out)
        got, want = outs
        if command not in ("euler", "check"):
            model_line, _, got = got.partition("\n")
            assert model_line.startswith("model generators: ")
        assert got == want, finite


def test_minimal_model_emit_roundtrip(tmp_path, capsys):
    out_file = tmp_path / "model.json"
    code, out, _ = run(
        ["minimal-model", S2H, "--cutoff", "10", "--emit", str(out_file)],
        capsys,
    )
    assert code == 0
    assert out_file.exists()
    reparsed = cli.load_algebra(str(out_file))
    assert all(a.status == "pass" for a in verify_minimal(reparsed, 10))


def test_minimal_model_emit_unwritable(tmp_path, capsys):
    target = str(tmp_path / "missing" / "x.json")
    code, out, err = run(
        ["minimal-model", S2H, "--cutoff", "6", "--emit", target], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


def test_verify_minimal_command(capsys):
    code, out, _ = run(["verify-minimal", S2, "--cutoff", "10"], capsys)
    assert code == 0
    assert "PASS" in out


def test_float_coefficient_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}],
        "differential": {"y": [{"coeff": 0.5,
                                "monomial": [["x", 2]]}]},
    }))
    code, _, err = run(["hh", str(bad)], capsys)
    assert code == 2
    assert "float" in err


def test_bad_coefficient_string_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}],
        "differential": {"y": [{"coeff": "1.5",
                                "monomial": [["x", 2]]}]},
    }))
    code, _, err = run(["hh", str(bad)], capsys)
    assert code == 2
    assert "coefficient" in err


def test_unknown_field_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 3}],
        "tolerance": 1,
    }))
    code, _, err = run(["hh", str(bad)], capsys)
    assert code == 2
    assert "unknown fields" in err


def test_degree_one_needs_weight_max(tmp_path, capsys):
    circle = tmp_path / "circle.json"
    circle.write_text(json.dumps({
        "generators": [{"name": "t", "degree": 1}],
    }))
    code, _, err = run(["hh", str(circle), "--cutoff", "4"], capsys)
    assert code == 2
    code, out, _ = run(
        ["hh", str(circle), "--cutoff", "4", "--weight-max", "4"], capsys)
    assert code == 0


@pytest.mark.parametrize("flags", [
    ["--cutoff", "-1"],
    ["--cutoff", "3", "--weight-max", "-2"],
])
def test_negative_bounds_rejected(flags, capsys):
    code, out, err = run(["hh", S3, *flags], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "nonnegative" in err


def test_missing_file(capsys):
    code, _, err = run(["hh", "/nonexistent/algebra.json"], capsys)
    assert code == 2
    assert "cannot read" in err


def test_broken_d_squared_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 2},
                       {"name": "y", "degree": 3},
                       {"name": "z", "degree": 4}],
        "differential": {
            "y": [{"coeff": 1, "monomial": [["x", 2]]}],
            "x": [],
            "z": [],
        },
    }))
    # fine: d^2 = 0 here. now make z hit y so d^2(z) = x^2 != 0
    bad.write_text(json.dumps({
        "generators": [{"name": "x", "degree": 2},
                       {"name": "y", "degree": 3},
                       {"name": "z", "degree": 2}],
        "differential": {
            "y": [{"coeff": 1, "monomial": [["x", 2]]}],
            "z": [{"coeff": 1, "monomial": [["y", 1]]}],
        },
    }))
    code, _, err = run(["hh", str(bad)], capsys)
    assert code == 2


def test_finite_differential_of_wrong_degree_rejected(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "basis": [{"name": "1", "degree": 0}, {"name": "a", "degree": 2},
                  {"name": "b", "degree": 4}],
        "products": [],
        "differential": {"a": [{"coeff": "1", "monomial": [["b", 1]]}]},
    }))
    code, _, err = run(["hh", str(bad), "--cutoff", "4"], capsys)
    assert code == 2
    assert err.startswith("error:") and "d(a) has wrong degree" in err


@pytest.mark.parametrize("command", ["cohomology", "minimal-model"])
def test_finite_basis_of_negative_degree_rejected(command, tmp_path, capsys):
    # H^{-1} would be 1 here; it was ignored, not modelled
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "basis": [{"name": "1", "degree": 0}, {"name": "x", "degree": -1},
                  {"name": "a", "degree": 2}],
        "products": [],
        "differential": {},
    }))
    code, out, err = run([command, str(bad), "--cutoff", "4"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "x has negative degree -1" in err


X2_Y3 = [{"name": "x", "degree": 2}, {"name": "y", "degree": 3}]


@pytest.mark.parametrize("doc, named", [
    ({"generators": X2_Y3,
      "differential": {"y": [{"monomial": [["x", 1], ["x", 1]]}]}},
     "generator x listed twice"),
    ({"generators": [{"name": "a", "degree": 3}, {"name": "y", "degree": 5}],
      "differential": {"y": [{"monomial": [["a", 2]]}]}},
     "odd generator a has exponent 2"),
    ({"generators": X2_Y3,
      "differential": {"y": [{"monomial": [["x", True]]}]}},
     "monomial must be"),
    ({"generators": [{"name": "x", "degree": True}]},
     "bad generator entry"),
    ({"basis": [{"name": "1", "degree": False}, {"name": "u", "degree": 2}],
      "products": [["u", "u", []]]},
     "bad basis entry"),
    ({"basis": [{"name": "1", "degree": 0}, {"name": "u", "degree": 2}],
      "products": [["u", "u", [{"monomial": [["u", True]]}]]]},
     "monomial must be"),
    ({"generators": X2_Y3, "differential": [1]},
     "differential must be an object"),
    ({"basis": [3]}, "basis entries must be objects"),
    ({"basis": [{"name": "1", "degree": 0}], "products": [["1", ["1"], []]]},
     "product entries must be"),
    ({"basis": [{"name": "1", "degree": 0}, {"name": "a", "degree": 2},
                {"name": "b", "degree": 4}],
      "products": [["a", "a", [{"monomial": [["b", 1]]}]], ["a", "a", []]]},
     "pair a,a"),
    ({"generators": X2_Y3,
      "differential": {"y": [{"coeff": "1/-2", "monomial": [["x", 2]]}]}},
     "bad coefficient '1/-2'"),
])
def test_malformed_input_exits_2(doc, named, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(["hh", str(bad), "--cutoff", "4"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and named in err


@pytest.mark.parametrize("raw, named", [
    ('{"generators": [{"name": "\xe9", "degree": 2}]}'.encode("latin-1"),
     "can't decode byte 0xe9"),
    (b"[" * 100_000 + b"]" * 100_000, "JSON nested too deeply"),
])
def test_unreadable_json_exits_2(raw, named, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    code, out, err = run(["hh", str(bad), "--cutoff", "2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and named in err


def test_trivial_fixture(capsys):
    code, out, _ = run(["hh", TRIV, "--cutoff", "4"], capsys)
    assert code == 0
    dims = [int(line.split()[2]) for line in out.splitlines()
            if line.strip().startswith(tuple("0123456789"))]
    assert dims == [1, 0, 0, 0, 0]


# --- the command line: well-formed argv without argparse, the rest with it

OPTIONS = ("--cutoff", "--weight-max", "--per-weight", "--json", "--emit",
           "--seed")
ABBREVIATED = tuple(opt[:5] for opt in OPTIONS)
VALUES = ("3", "-1", " 4", "1_0", "x")
EQ_FORMS = tuple(f"{opt}={v}" for opt in OPTIONS + ABBREVIATED for v in VALUES)
TOKENS = ("hh", "minimal-model", "verify-minimal", "hx", "x.json", "-",
          "--", "-h", *OPTIONS, *ABBREVIATED, *VALUES, *EQ_FORMS)


def shuffled(parts):
    """The pieces of parts in every order, each piece a tuple of tokens."""
    head, options, noise = parts
    return st.permutations([head, *options, *noise]).map(
        lambda pieces: [tok for piece in pieces for tok in piece])


# argv in pieces: the command with its file, options in every form, and a
# few single tokens of any kind
ARGV = st.tuples(
    st.tuples(st.sampled_from(("hh", "minimal-model", "hx")),
              st.sampled_from(("x.json", "y.json", "-", "--"))),
    st.lists(st.one_of(
        st.tuples(st.sampled_from(OPTIONS + ABBREVIATED),
                  st.sampled_from(VALUES)),
        st.tuples(st.sampled_from(OPTIONS + ABBREVIATED + EQ_FORMS)),
    ), max_size=3),
    st.lists(st.tuples(st.sampled_from(TOKENS)), max_size=2),
).flatmap(shuffled)


def argparse_namespace(argv):
    """vars() of argparse's namespace for argv, or None where it exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


@given(ARGV)
@settings(max_examples=400, deadline=None)
def test_fast_path_agrees_with_argparse(argv):
    fast = cli.parse_well_formed(argv)
    assert fast is None or vars(fast) == argparse_namespace(argv)


# well-formed argv: the command, exact long options, and the file at any
# place between the options
OPTION = st.one_of(
    st.sampled_from((["--per-weight"], ["--json"])),
    st.tuples(st.sampled_from(("--cutoff", "--weight-max", "--seed",
                               "--emit")),
              st.sampled_from(("0", "3", " 4", "1_0", "+2")),
              st.booleans()).map(
        lambda o: [f"{o[0]}={o[1]}"] if o[2] else [o[0], o[1]]),
)


def well_formed(command, file, options, at):
    pieces = [*options[:at], [file], *options[at:]]
    return [command, *(tok for piece in pieces for tok in piece)]


WELL_FORMED = st.builds(well_formed, st.sampled_from(cli.COMMANDS),
                        st.sampled_from(("x.json", "a b", "3")),
                        st.lists(OPTION, max_size=4), st.integers(0, 4))


@given(WELL_FORMED)
@settings(max_examples=200, deadline=None)
def test_well_formed_argv_takes_the_fast_path(argv):
    fast = cli.parse_well_formed(argv)
    assert fast is not None
    assert vars(fast) == argparse_namespace(argv)


def test_benchmark_and_test_argv_take_the_fast_path(tmp_path):
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text(
        encoding="utf-8"))["commands"]
    shapes = [key.split() for key in expected] + [
        ["minimal-model", S2H, "--cutoff", "12", "--seed", "3"],
        ["minimal-model", S2H, "--cutoff", "4", "--emit",
         str(tmp_path / "m.json")],
        ["hh", S3],
        ["hh", S3, "--cutoff", "6", "--json"],
        ["check", S2, "--cutoff", "3", "--weight-max", "1", "--json"],
        ["verify-minimal", S2, "--cutoff=10", "--json"],
    ]
    for argv in shapes:
        fast = cli.parse_well_formed(argv)
        assert fast is not None, argv
        assert vars(fast) == argparse_namespace(argv)


def test_well_formed_argv_imports_no_argparse():
    # in a fresh interpreter: pytest itself imports argparse
    code = (
        "import sys\n"
        "from cdgacyc import cli\n"
        f"assert cli.main(['hh', {S2!r}, '--cutoff', '2']) == 0\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize("argv, named", [
    (["hx", S3], "invalid choice: 'hx'"),
    (["hh", S3, "--cutoff", "x"], "invalid int value: 'x'"),
    (["hh"], "required: file"),
    (["hh", S3, "--bogus"], "unrecognized arguments: --bogus"),
    (["hh", S3, "--json=1"], "ignored explicit argument '1'"),
    (["hh", S3, "--emit"], "expected one argument"),
])
def test_argument_errors_exit_2_with_argparse_usage(argv, named, capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(argv)
    out, err = capsys.readouterr()
    assert stop.value.code == 2
    assert out == ""
    assert err.startswith("usage: cdgacyc") and named in err
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(argv)
    assert capsys.readouterr().err == err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["-h"])
    assert stop.value.code == 0
    assert capsys.readouterr().out.startswith("usage: cdgacyc")


def test_abbreviated_options_read_as_the_full_ones(capsys):
    abbreviated = run(["hh", S3, "--cut", "4", "--per"], capsys)
    assert abbreviated == run(["hh", S3, "--cutoff", "4", "--per-weight"],
                              capsys)
