"""Every table the benchmark records stays byte-identical.

Runs each command of perfbench/expected.json in-process on the unscaled
fixtures and compares its standard output and exit code with the
recorded ones.  The expectations file is only read here.
"""

import json
from pathlib import Path

import pytest

from cdgacyc import cli

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "cdgacyc" / "fixtures"
EXPECTED = json.loads(
    (ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8")
)["commands"]


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_table_is_byte_identical(command, capsys):
    sub, fixture, *flags = command.split()
    code = cli.main([sub, str(FIXTURES / fixture), *flags])
    out = capsys.readouterr().out
    assert out == EXPECTED[command]["stdout"]
    assert code == EXPECTED[command]["exit"]
