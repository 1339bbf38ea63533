"""The program as it is run: ``python -m cdgacyc.cli`` in a fresh
interpreter, which ends through ``cli.run`` without interpreter teardown
and runs with the cyclic garbage collector off, against ``cli.main``
called in-process."""

import gc
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cdgacyc import cli

from models import even_sphere, free_cdga, tensor

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "cdgacyc" / "fixtures"
S2 = str(FIXTURES / "sphere2.json")
S3 = str(FIXTURES / "sphere3.json")
S2H = str(FIXTURES / "s2_cohomology.json")


@pytest.fixture
def env(monkeypatch):
    # argparse wraps its usage and help text to the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    # block-buffered output, as in a shell: output still buffered when
    # main returns is lost unless run flushes it
    monkeypatch.delenv("PYTHONUNBUFFERED", raising=False)
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def in_process(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
    return code, out.getvalue(), err.getvalue()


def as_program(argv, env, **kwargs):
    """(exit code, stdout, stderr) of the program run with argv."""
    done = subprocess.run([sys.executable, "-m", "cdgacyc.cli", *argv],
                          env=env, capture_output=True, text=True,
                          timeout=120, **kwargs)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("argv, code", [
    (["hh", S3, "--cutoff", "6", "--per-weight"], 0),
    (["check", S2, "--cutoff", "4", "--json"], 0),
    (["hh", "{bad}", "--cutoff", "2"], 2),
    (["hh", S3, "--bogus"], 2),
    (["-h"], 0),
])
def test_program_prints_what_main_prints(argv, code, env, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": [{"name": "x", "degree": 2.0}]}')
    argv = [a.replace("{bad}", str(bad)) for a in argv]
    want = in_process(argv)
    assert want[0] == code
    assert as_program(argv, env) == want


def test_program_emits_the_file_main_emits(env, tmp_path):
    target = tmp_path / "model.json"
    argv = ["minimal-model", S2H, "--cutoff", "8", "--emit", str(target)]
    want = in_process(argv)
    assert want[0] == 0
    emitted = target.read_bytes()
    target.unlink()
    assert as_program(argv, env) == want
    assert target.read_bytes() == emitted


@pytest.mark.parametrize("argv, unbuffered", [
    # buffered when main returns, so run's flush fails
    (["hh", S2, "--cutoff", "2"], False),
    # past the buffer, so a print inside main fails
    (["cohomology", S2, "--cutoff", "3000"], False),
    # unbuffered, so the first print fails
    (["hh", S2, "--cutoff", "2"], True),
])
def test_failed_write_ends_one_way(argv, unbuffered, env):
    # stdout is a full device: whichever write fails, the program ends
    # with one line on stderr and the one exit code
    if unbuffered:
        env = {**env, "PYTHONUNBUFFERED": "1"}
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "cdgacyc.cli", *argv],
            env=env, stdout=full, stderr=subprocess.PIPE, text=True,
            timeout=120)
    assert (done.returncode, done.stderr) == (
        cli.WRITE_FAILED,
        "error: cannot write the output: [Errno 28] No space left on "
        "device\n")


@pytest.mark.parametrize("argv, unbuffered", [
    # buffered when main returns, so run's flush fails
    (["hh", S2, "--cutoff", "2"], False),
    (["hh", S2, "--cutoff", "40", "--json"], False),
    # past the buffer, so a print inside main fails
    (["cohomology", S2, "--cutoff", "3000"], False),
    # unbuffered, so the first print fails
    (["hh", S2, "--cutoff", "2"], True),
])
def test_closed_pipe_ends_one_way(argv, unbuffered, env):
    # stdout is a pipe whose reader is gone: whichever write fails, the
    # program ends with the one exit code and no report
    if unbuffered:
        env = {**env, "PYTHONUNBUFFERED": "1"}
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cdgacyc.cli", *argv],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True,
            timeout=120)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (cli.CLOSED_PIPE, "")


def test_no_exit_handler_is_registered(env):
    # run ends with os._exit, which skips atexit callbacks: an import that
    # registers one fails here instead of being skipped.  -S keeps the
    # handlers of site-installed packages out of the count.
    code = (
        "import atexit\n"
        "from cdgacyc import cli\n"
        f"assert cli.main(['hh', {S3!r}, '--cutoff', '2']) == 0\n"
        f"assert cli.main(['hh', {S2H!r}, '--cutoff', '2']) == 0\n"
        "print(atexit._ncallbacks())"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0"


# Every command on one fixture, run in-process in a fresh interpreter
# with the collector off, each followed by a collection, so that a
# collection walks the objects of the commands and not those of pytest.
_NO_GARBAGE = """
import gc, io, sys
from contextlib import redirect_stderr, redirect_stdout
from cdgacyc import cli

def in_process(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass

path = sys.argv[1]
gc.disable()
gc.collect()
for command in cli.COMMANDS:
    for opts in ([], ["--per-weight"]):
        in_process([command, path, "--cutoff", "4", *opts])
        assert gc.collect() == 0, (command, opts)
    found = set()
    for cutoff in ("3", "5"):
        in_process([command, path, "--cutoff", cutoff, "--json"])
        found.add(gc.collect())
    assert len(found) == 1, (command, found)
"""


@pytest.mark.parametrize("fixture", sorted(p.name for p in
                                           FIXTURES.glob("*.json")))
def test_commands_leave_no_cyclic_garbage(fixture, env):
    # the program runs with the collector off: a command must make no
    # reference cycle, or it would keep every object of one alive.  The
    # json encoder makes the same few cycles at every cutoff.
    done = subprocess.run(
        [sys.executable, "-c", _NO_GARBAGE, str(FIXTURES / fixture)],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("enabled", [True, False])
def test_library_use_leaves_the_collector_as_it_was(enabled, env):
    code = (
        "import gc\n"
        f"gc.enable() if {enabled} else gc.disable()\n"
        "import cdgacyc\n"
        "from cdgacyc import cli\n"
        "print(gc.isenabled())\n"
        f"assert cli.main(['check', {S2!r}, '--cutoff', '4']) == 0\n"
        "print(gc.isenabled())"
    )
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert (lines[0], lines[-1]) == (str(enabled), str(enabled))


# The program as python -m runs it (the module as __main__) and as the
# cdgacyc script runs it (cli.run), reporting at os._exit whether the
# collector is on and how many collections ran once the program started:
# for -m, from the import of complexes, which cli imports after its first
# statement; for the script, from the call of run.
_PROGRAM = """
import gc, os, runpy, sys
collections = []
def count(phase, info):
    if phase == "start" and "cdgacyc.complexes" in sys.modules:
        collections.append(info)
gc.callbacks.append(count)
exit_ = os._exit
def report(code):
    print(gc.isenabled(), len(collections), file=sys.stderr, flush=True)
    exit_(code)
os._exit = report
sys.argv = ["cdgacyc", "check", {path!r}, "--cutoff", "6"]
if {as_module}:
    runpy.run_module("cdgacyc.cli", run_name="__main__", alter_sys=True)
else:
    from cdgacyc import cli
    collections.clear()
    cli.run()
"""


@pytest.mark.parametrize("as_module", [True, False])
def test_program_runs_without_the_collector(as_module, env):
    code = _PROGRAM.format(path=S2, as_module=as_module)
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == in_process(["check", S2, "--cutoff", "6"])[1]
    assert done.stderr.splitlines()[-1] == "False 0"


@pytest.mark.slow
def test_program_without_the_collector_prints_what_main_prints(env,
                                                               tmp_path):
    # a check long enough for collections of every generation when the
    # collector is on, against main in this process with it on
    model = tensor(*[even_sphere(2, i) for i in range(3)])
    path = tmp_path / "s2_cubed.json"
    path.write_text(json.dumps(cli.emit_free(free_cdga(model))))
    argv = ["check", str(path), "--cutoff", "10"]
    assert gc.isenabled()
    before = gc.get_stats()[2]["collections"]
    want = in_process(argv)
    assert gc.get_stats()[2]["collections"] > before
    assert want[0] == 0
    assert as_program(argv, env) == want
