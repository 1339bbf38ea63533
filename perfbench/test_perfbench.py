"""Tests of the benchmark itself.

    python -m pytest perfbench -q      # about three minutes

They run each workload once untraced and twice traced, and check that
tracing changes no output, that the spans cover the commands' time and
that the work counts repeat exactly, and that the speed gauge runs.
"""

import json
import subprocess
import sys
import time

import pytest

import calibrate
import run
import workloads

# Share of in-process command time that the spans must cover.  Measured
# at 0.988 (tables) to 0.9996 (periodic); a missed binding of a busy
# function drops it well below this.
COVERAGE_FLOOR = 0.95

EXACT = ("free_loop.mixed_complex.calls", "complexes.band_complex.calls",
         "complexes.band_complex.repeat_ratio", "linalg.bareiss.calls",
         "linalg.bareiss.cells", "linalg.bareiss.repeat_ratio",
         "linalg.SparseMatrix.constructions", "linalg.cohomology_at.calls",
         "linalg.induced_map.calls", "linalg.solve.calls")


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def passes(request):
    """Two traced passes and one untraced pass on the same seeded inputs.

    The repeat ratios depend on the coefficients (two matrices can
    coincide for one scaling and not another), so the counts are compared
    on one seed.
    """
    name = request.param
    expected = run.load_expected()
    paths = workloads.write_inputs(workloads.fixture_dir(run.ROOT),
                                   run.WORK / "test-inputs", 1)
    out = {"plain": run.run_pass(name, paths, 1, expected)}
    for key in ("a", "b"):
        spans_dir = run.WORK / f"test-spans-{key}"
        spans_dir.mkdir(parents=True, exist_ok=True)
        out[key] = run.run_pass(name, paths, 1, expected, spans_dir)
        out[key]["metrics"] = run.layer_metrics(out[key]["spans"])
    return out


def test_traced_output_equals_untraced(passes):
    assert passes["plain"]["failed"] == 0
    assert passes["a"]["failed"] == passes["b"]["failed"] == 0
    assert passes["a"]["outputs"] == passes["plain"]["outputs"]
    assert passes["b"]["outputs"] == passes["plain"]["outputs"]


def test_spans_cover_the_commands(passes):
    for key in ("a", "b"):
        coverage, _ = passes[key]["metrics"]["trace.coverage"]
        assert coverage >= COVERAGE_FLOOR


def test_work_counts_repeat_exactly(passes):
    for key in EXACT:
        assert passes["a"]["metrics"][key] == passes["b"]["metrics"][key], key


def test_every_binding_is_wrapped():
    code = (
        "import json, tracer\n"
        "import cdgacyc.cli as cli, cdgacyc.functors as f,"
        " cdgacyc.linalg as la\n"
        "tracer.install(tracer.Recorder('t'))\n"
        "names = {'functors': (f, ['band_complex', 'plus_complex',"
        " 'mapping_cone', 'label_inclusion', 'label_projection',"
        " 'shift_complex', 'les_audit']),"
        " 'linalg': (la, ['bareiss']),"
        " 'cli': (cli, ['base_cochain', 'u_model', 'ideals',"
        " 'beta_acyclic_check', 'build_minimal_model', 'functor_on_cdga',"
        " 'verify_minimal', 'load_algebra'])}\n"
        "print(json.dumps([f'{m}.{a}' for m, (mod, attrs) in names.items()"
        " for a in attrs"
        " if not hasattr(getattr(mod, a), '__wrapped_by_tracer__')]))\n"
    )
    env = run.child_env()
    env["PYTHONPATH"] += ":" + str(run.BENCH)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, cwd=run.ROOT, check=True)
    assert json.loads(res.stdout) == []


def test_seeded_inputs(tmp_path):
    fixtures = workloads.fixture_dir(run.ROOT)
    a = workloads.write_inputs(fixtures, tmp_path / "a", 5)
    b = workloads.write_inputs(fixtures, tmp_path / "b", 5)
    c = workloads.write_inputs(fixtures, tmp_path / "c", 6)
    for stem in workloads.FIXTURES:
        assert a[stem].read_text() == b[stem].read_text()
    for stem in workloads.FINITE:
        assert (json.loads(c[stem].read_text())
                == json.loads((fixtures / f"{stem}.json").read_text()))
    assert a["sphere2"].read_text() != c["sphere2"].read_text()
    assert workloads.argv_for(("hh", "s2_cohomology"), a, 5)[-2:] == [
        "--seed", "5"]


def test_speed_gauge():
    gauge = calibrate.SpeedGauge().start()
    try:
        before = gauge.reading()
        time.sleep(0.2)
        after = gauge.reading()
    finally:
        gauge.stop()
    assert after[0] > before[0]
    assert 0 < calibrate.speed(before, after) < 10
    assert calibrate.speed(after, after) is None
