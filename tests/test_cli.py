"""Command line front end: parsing, commands, exit codes."""

import json
from pathlib import Path

import pytest

from cdgacyc import cli, free_loop, functors
from cdgacyc.free_loop import LoopAlgebra
from cdgacyc.minimal_model import verify_minimal

FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cdgacyc" / "fixtures"

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
    # at --weight-max 3, chiC weight 2 is -5: weight 1 misses classes
    for weight_max in ("1", "3"):
        code, out, _ = run(["euler", str(torus), "--cutoff", "3",
                            "--weight-max", weight_max, "--json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert not any(row["certified"] for part in doc.values()
                       for row in part.values())
    assert doc["chiC"]["2"]["value"] == -5


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


def _count_base_growth(monkeypatch):
    """Record each base_cochain call as (top, grown, result, number of
    differentials it built)."""
    calls = []
    grow = functors.base_cochain
    make = free_loop.derivation_matrix
    built = []

    def counted(algebra, top, grown=None):
        built.clear()
        out = grow(algebra, top, grown)
        calls.append((top, grown, out, len(built)))
        return out

    def counted_make(*args, **kwargs):
        built.append(None)
        return make(*args, **kwargs)

    monkeypatch.setattr(functors, "base_cochain", counted)
    monkeypatch.setattr(free_loop, "derivation_matrix", counted_make)
    return calls


def _assert_each_base_degree_built_once(calls):
    tops = [top for top, _, _, _ in calls]
    assert tops == sorted(set(tops))
    # each call grows the previous complex, building d^n once for each n
    assert [grown for _, grown, _, _ in calls] == [None] + [
        out for _, _, out, _ in calls[:-1]]
    assert sum(n for _, _, _, n in calls) == tops[-1]


def test_base_complex_rebuilt_only_when_it_grows(monkeypatch, capsys):
    # sphereEven4 has empty base degrees, which the built complex drops
    calls = _count_base_growth(monkeypatch)
    code, _, _ = run(["sh", str(FIXTURES / "sphereEven4.json"),
                      "--cutoff", "12"], capsys)
    assert code == 0
    _assert_each_base_degree_built_once(calls)


def test_check_builds_each_band_and_cone_once(monkeypatch, capsys):
    # every reader of a plus band or slice shares the one band per
    # (weight, kind), SH and the comparison diagram share one cone over
    # Ibar per weight, and the base complex grows degree by degree
    bands, blocks, ibar_cones = [], [], []
    band = functors.band_complex
    block = functors._base_block
    cone = functors.mapping_cone

    def counted_band(M, w, kind, r_min, r_max):
        bands.append((w, kind))
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
    calls = _count_base_growth(monkeypatch)
    code, out, _ = run(["check", str(FIXTURES / "product_s2_s3.json"),
                        "--cutoff", "6"], capsys)
    assert code == 0 and "FAIL" not in out
    shared = [b for b in bands if b[1] in ("plus", "slice")]
    assert shared and len(shared) == len(set(shared))
    assert blocks and len(blocks) == len(set(blocks)) == len(ibar_cones)
    _assert_each_base_degree_built_once(calls)


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
    assert verify_minimal(reparsed, 10)["pass"]


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
])
def test_malformed_input_exits_2(doc, named, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run(["hh", str(bad), "--cutoff", "4"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and named in err


def test_trivial_fixture(capsys):
    code, out, _ = run(["hh", TRIV, "--cutoff", "4"], capsys)
    assert code == 0
    dims = [int(line.split()[2]) for line in out.splitlines()
            if line.strip().startswith(tuple("0123456789"))]
    assert dims == [1, 0, 0, 0, 0]
