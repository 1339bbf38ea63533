"""The benchmark's tracer still binds the package and changes no output."""

import json
import os
import subprocess
import sys
from pathlib import Path

from cdgacyc import cli

ROOT = Path(__file__).resolve().parent.parent
S2 = str(ROOT / "src" / "cdgacyc" / "fixtures" / "sphere2.json")
ARGS = ["hh", S2, "--cutoff", "6", "--per-weight"]


def test_traced_stdout_is_the_untraced_stdout(tmp_path, capsys):
    assert cli.main(ARGS) == 0
    untraced = capsys.readouterr().out
    spans_path = tmp_path / "spans.json"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    traced = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"),
         str(spans_path), "t", "--", *ARGS],
        env=env, capture_output=True, text=True, timeout=120)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == untraced
    record = json.loads(spans_path.read_text(encoding="utf-8"))
    assert "linalg.bareiss" in {name for name, *_ in record["spans"]}
    assert record["counts"]["linalg.SparseMatrix.constructions"] > 0
