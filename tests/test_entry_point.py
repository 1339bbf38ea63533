"""The program as it is run: ``python -m cdgacyc.cli`` in a fresh
interpreter, which ends through ``cli.run`` without interpreter teardown,
against ``cli.main`` called in-process."""

import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from cdgacyc import cli

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


def test_failed_flush_takes_the_ordinary_exit(env):
    # stdout is a pipe with no reader: the output is still buffered when
    # main returns, so run's flush fails, and the interpreter reports the
    # flush that fails again at exit
    read, write = os.pipe()
    os.close(read)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "cdgacyc.cli", "hh", S3, "--cutoff", "2"],
            env=env, stdout=write, stderr=subprocess.PIPE, text=True,
            timeout=120)
    finally:
        os.close(write)
    assert done.returncode == 120
    assert done.stderr.startswith("Exception ignored in: <_io.TextIOWrapper "
                                  "name='<stdout>'")
    assert done.stderr.endswith("BrokenPipeError: [Errno 32] Broken pipe\n")


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
