"""End-to-end and per-layer benchmark of the cdgacyc command line.

    python3 perfbench/run.py --workload periodic --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all       # every workload, one table

Run from the root of a checkout.  Each command of a workload runs through
the real entry point, ``python -m cdgacyc.cli``, in a fresh interpreter,
one at a time from this single process (a closed loop with one client).
Its standard output is compared byte for byte with the output recorded in
``perfbench/expected.json`` (see ``record.py``); a difference, a nonzero
exit or a timeout counts the command as failed.

``--trace 0`` measures for ``--seconds`` seconds: after a warm-up import,
whole passes over the workload run until the next one would overrun, and
the set-up time is sampled in fresh interpreters before the first pass
and after each one.  The process and its children are pinned to one
core, and ``calibrate.SpeedGauge`` measures that core's speed while they
run; times are CPU times scaled by it to the gauge's reference speed, so
that they follow the program and not the shared machine's drift.
Reported are ``pass_s`` (median pass), ``setup_s`` (median sample) and
``peak_rss_mb`` (largest resident set of any command, median over
passes).  The raw wall and CPU times of each pass are printed beside
them.

``--trace 1`` runs one untraced pass and one pass under ``tracer.py`` and
reports per-layer counts and self times from the spans.  It ignores
``--seconds``.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the metrics are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) names listed in
``BENCHMARK.json``.  The lines before it show every metric, including
the per-layer metrics that are zero on some workload and so are not in
``BENCHMARK.json``, the error rate (failed / attempted, which is 0 on a
correct program and so is not in ``BENCHMARK.json`` either) and the
environment stamp.
"""

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import calibrate
from workloads import WORKLOADS, argv_for, command_key, fixture_dir, write_inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / "_work"
EXPECTED = BENCH / "expected.json"
COMMAND_TIMEOUT = 150
SETUP_SAMPLES = 10  # per round: before the first pass and after each pass
SETUP_CODE = (
    "import sys, cdgacyc.cli as cli\n"
    "for path in sys.argv[1:]:\n"
    "    cli.load_algebra(path)\n"
)


class Child:
    """Outcome of one child process."""

    __slots__ = ("code", "stdout", "wall", "cpu", "rss_mb", "timed_out")


def child_env():
    """The environment of every child: the checkout's sources first on
    the path, and bytecode cached as in an installed package, so that
    each command does not compile the package again."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get(
        "PYTHONPATH") else src
    return env


def run_child(argv, out_path, timeout=COMMAND_TIMEOUT):
    """Run argv to completion; stdout goes through out_path.

    Waits with wait4 so that CPU time and peak resident set are this
    child's own.  A child still running after timeout seconds is killed.
    """
    res = Child()
    with open(out_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                cwd=ROOT, env=child_env())
        fired = threading.Event()

        def kill():
            fired.set()
            proc.kill()

        killer = threading.Timer(timeout, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        res.wall = time.perf_counter() - start
    proc.returncode = res.code = os.waitstatus_to_exitcode(status)
    res.timed_out = fired.is_set()
    res.cpu = usage.ru_utime + usage.ru_stime
    res.rss_mb = usage.ru_maxrss / 1024
    res.stdout = Path(out_path).read_bytes()
    return res


def load_expected():
    return json.loads(EXPECTED.read_text(encoding="utf-8"))["commands"]


def run_pass(name, paths, seed, expected, spans_dir=None, gauge=None):
    """One pass over a workload; traced under tracer.py when spans_dir.

    With a gauge, ``speed`` is the core's relative speed over the pass and
    ``norm`` the commands' CPU time scaled to the reference speed.
    """
    cmds = WORKLOADS[name]
    out = {"failed": 0, "rss_mb": 0.0, "cpu": 0.0, "spans": [],
           "outputs": []}
    before = gauge.reading() if gauge else None
    start = time.perf_counter()
    for i, cmd in enumerate(cmds):
        argv = argv_for(cmd, paths, seed)
        if spans_dir is None:
            full = [sys.executable, "-m", "cdgacyc.cli", *argv]
        else:
            spans = spans_dir / f"{name}-{i}.json"
            full = [sys.executable, str(BENCH / "tracer.py"), str(spans),
                    f"{name}/{i}", "--", *argv]
            out["spans"].append(spans)
        res = run_child(full, WORK / "stdout.txt")
        want = expected[command_key(cmd)]
        ok = (not res.timed_out and res.code == want["exit"]
              and res.stdout == want["stdout"].encode("utf-8"))
        if not ok:
            out["failed"] += 1
            print(f"FAILED {command_key(cmd)} (exit {res.code}"
                  f"{', timed out' if res.timed_out else ''})", file=sys.stderr)
        out["rss_mb"] = max(out["rss_mb"], res.rss_mb)
        out["cpu"] += res.cpu
        out["outputs"].append(res.stdout)
    out["wall"] = time.perf_counter() - start
    if gauge:
        out["speed"] = checked_speed(before, gauge.reading())
        out["norm"] = out["cpu"] * out["speed"]
    return out


def checked_speed(before, after):
    speed = calibrate.speed(before, after)
    if speed is None:
        raise SystemExit("error: the speed gauge did not run")
    return speed


def pin_to_one_core():
    """Pin this thread, and so the gauge thread and every child started
    after, to the highest-numbered core this process may use."""
    core = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {core})
    return core


def environment(kernel):
    """What a baseline may only be compared under."""
    return {"kernel": kernel, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


def warm_up():
    """Import once (compiling bytecode) and return the kernel name."""
    out = WORK / "warmup.txt"
    res = run_child([sys.executable, "-c",
                     "import cdgacyc.cli; from cdgacyc.kernels import "
                     "KERNEL_NAME; print(KERNEL_NAME)"], out)
    if res.code != 0:
        raise SystemExit("error: cannot import cdgacyc from "
                         f"{ROOT / 'src'}")
    return res.stdout.decode().strip()


def measure_setup(files, samples, gauge):
    """Append SETUP_SAMPLES times of a fresh interpreter importing the CLI
    and parsing the workload's inputs: CPU time scaled to the reference
    speed, and the raw wall time."""
    before = gauge.reading()
    cpu, wall = [], []
    for _ in range(SETUP_SAMPLES):
        res = run_child([sys.executable, "-c", SETUP_CODE, *map(str, files)],
                        WORK / "setup.txt")
        if res.code != 0:
            raise SystemExit("error: set-up probe failed")
        cpu.append(res.cpu)
        wall.append(res.wall)
    speed = checked_speed(before, gauge.reading())
    samples["norm"] += [c * speed for c in cpu]
    samples["wall"] += wall


def workload_files(name, paths):
    return sorted({paths[cmd[1]] for cmd in WORKLOADS[name]})


def measure(name, seed, seconds, expected):
    """Untraced run: end-to-end metrics and the failure count."""
    paths = write_inputs(fixture_dir(ROOT), WORK / "inputs", seed)
    kernel = warm_up()
    files = workload_files(name, paths)
    env = environment(kernel)
    core = pin_to_one_core()
    gauge = calibrate.SpeedGauge().start()
    # set-up samples are spread over the run, so that their median does
    # not rest on the machine in one short window
    setup = {"norm": [], "wall": []}
    passes = []
    start = time.perf_counter()
    try:
        measure_setup(files, setup, gauge)
        while True:
            passes.append(run_pass(name, paths, seed, expected, gauge=gauge))
            measure_setup(files, setup, gauge)
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["wall"] for p in passes)
            if elapsed + typical > seconds:
                break
    finally:
        gauge.stop()
    attempted = len(passes) * len(WORKLOADS[name])
    failed = sum(p["failed"] for p in passes)
    metrics = {
        "pass_s": (statistics.median(p["norm"] for p in passes), "s"),
        "setup_s": (statistics.median(setup["norm"]), "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
        "error_rate": (failed / attempted, "ratio"),
    }
    notes = {
        "passes": len(passes),
        "pass_wall_s": [round(p["wall"], 4) for p in passes],
        "pass_cpu_s": [round(p["cpu"], 4) for p in passes],
        "pass_speed": [round(p["speed"], 4) for p in passes],
        "setup_wall_s": round(statistics.median(setup["wall"]), 4),
        "environment": dict(env, core=core),
    }
    return attempted, failed, metrics, notes


# Per-layer metrics computed from the spans.  Calls and counts repeat
# exactly from run to run; times do not.
SPAN_CALLS = ("free_loop.mixed_complex", "complexes.band_complex",
              "linalg.bareiss", "linalg.cohomology_at", "linalg.induced_map",
              "linalg.solve", "minimal_model.build_minimal_model")
SPAN_SELF = ("free_loop.mixed_complex", "free_loop.base_cochain",
             "free_loop.u_model", "complexes.band_complex",
             "complexes.plus_complex", "complexes.mapping_cone",
             "complexes.MixedComplex.validate", "linalg.bareiss",
             "linalg.cohomology_at", "linalg.induced_map", "linalg.solve",
             "cli.load_algebra")
SPAN_INCL = ("functors.HH", "functors.CH", "functors.PH", "functors.SH",
             "functors.t4_audit", "functors.fig2_audit", "functors.fig7_audit",
             "functors.theorem2_check", "minimal_model.build_minimal_model")
LAYER_SELF = ("free_loop", "complexes", "linalg", "functors", "minimal_model")


def layer_metrics(span_files):
    """Per-layer metrics of one traced pass (one spans file per command).

    Self time is a span's duration minus the durations of its direct
    children; inclusive time counts only spans with no ancestor of the
    same name.  Ratios of repeats count within a command.
    """
    calls, self_ns, incl_ns, layer_ns, counts = (Counter() for _ in range(5))
    main_ns = 0
    for path in span_files:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        spans = doc["spans"]
        covered = [0] * len(spans)
        for _, parent, s, e in spans:
            if parent >= 0:
                covered[parent] += e - s
        for i, (name, parent, s, e) in enumerate(spans):
            calls[name] += 1
            own = e - s - covered[i]
            self_ns[name] += own
            layer_ns[name.split(".", 1)[0]] += own
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                incl_ns[name] += e - s
        counts.update(doc["counts"])
        main_ns += doc["main_ns"]

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    for name in SPAN_CALLS:
        m[f"{name}.calls"] = (calls[name], "count")
    for name in SPAN_SELF:
        m[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    for name in SPAN_INCL:
        m[f"{name}.incl_s"] = (incl_ns[name] / 1e9, "s")
    for layer in LAYER_SELF:
        m[f"{layer}.self_s"] = (layer_ns[layer] / 1e9, "s")
    m["linalg.bareiss.cells"] = (counts["linalg.bareiss.cells"], "count")
    m["linalg.bareiss.repeat_ratio"] = (ratio(
        counts["linalg.bareiss.repeats"], calls["linalg.bareiss"]), "ratio")
    m["complexes.band_complex.repeat_ratio"] = (ratio(
        counts["complexes.band_complex.repeats"],
        calls["complexes.band_complex"]), "ratio")
    m["linalg.SparseMatrix.constructions"] = (
        counts["linalg.SparseMatrix.constructions"], "count")
    m["trace.coverage"] = (ratio(sum(self_ns.values()), main_ns), "ratio")
    return m


def measure_traced(name, seed, expected):
    """Traced run: per-layer metrics from one traced pass."""
    paths = write_inputs(fixture_dir(ROOT), WORK / "inputs", seed)
    kernel = warm_up()
    spans_dir = WORK / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    plain = run_pass(name, paths, seed, expected)
    traced = run_pass(name, paths, seed, expected, spans_dir=spans_dir)
    metrics = layer_metrics(traced["spans"])
    metrics["trace.overhead"] = (traced["wall"] / plain["wall"], "ratio")
    # both passes are held to the same expected output, so a traced output
    # that differs from the untraced one counts as failed
    attempted = 2 * len(WORKLOADS[name])
    failed = plain["failed"] + traced["failed"]
    metrics["error_rate"] = (failed / attempted, "ratio")
    return attempted, failed, metrics, {"environment": environment(kernel)}


def declared_metrics():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ([m["name"] for m in doc["end_to_end"]],
            [m["name"] for m in doc["per_layer"]])


def show(name, metrics, notes):
    for key, (value, unit) in metrics.items():
        text = f"{value:.6f}" if isinstance(value, float) else str(value)
        print(f"{name:9s} {key:42s} {text:>14s} {unit}")
    for key, value in notes.items():
        print(f"{name:9s} {key:42s} {value}")


def check_checkout():
    """Refuse to run without the program's sources."""
    if not (ROOT / "src" / "cdgacyc" / "cli.py").is_file():
        print(f"error: no cdgacyc sources under {ROOT / 'src'}",
              file=sys.stderr)
        raise SystemExit(2)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    # a terminated run stops its current child before it exits
    signal.signal(signal.SIGTERM, _terminate)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    check_checkout()
    WORK.mkdir(exist_ok=True)
    expected = load_expected()
    e2e, per_layer = declared_metrics()
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    any_failed = False
    for name in names:
        if args.trace:
            attempted, failed, metrics, notes = measure_traced(
                name, args.seed, expected)
            wanted = per_layer
        else:
            attempted, failed, metrics, notes = measure(
                name, args.seed, args.seconds, expected)
            wanted = e2e
        show(name, metrics, notes)
        any_failed = any_failed or failed > 0
    if args.workload == "all":
        return 1 if any_failed else 0
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                    for k in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
