"""Every table the benchmark records stays byte-identical.

Runs each command of perfbench/expected.json in-process on the unscaled
fixtures and compares its standard output and exit code with the
recorded ones.  Each command on a free-form fixture runs again on a
seeded rational rescaling of it, an isomorphic model whose loop
matrices have denominators other than 1, and must print the same.  The
expectations file is only read here.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from cdgacyc import cli
from models import _scale

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "src" / "cdgacyc" / "fixtures"
EXPECTED = json.loads(
    (ROOT / "perfbench" / "expected.json").read_text(encoding="utf-8")
)["commands"]


def _is_free(fixture):
    doc = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    return "generators" in doc


def rescaled(doc, rng):
    """An isomorphic copy of a free-form model document: x' = s_x x for a
    seeded nonzero rational s_x turns c * prod x^e in d(y) into
    c * s_y / prod s_x^e."""
    s = {g["name"]: _scale(rng) for g in doc["generators"]}
    diff = {}
    for y, terms in (doc.get("differential") or {}).items():
        diff[y] = []
        for term in terms:
            c = Fraction(term.get("coeff", 1)) * s[y]
            for x, e in term.get("monomial", []):
                c /= s[x] ** e
            diff[y].append({"coeff": str(c),
                            "monomial": term.get("monomial", [])})
    return dict(doc, differential=diff)


def run(command, path):
    sub, _, *flags = command.split()
    return cli.main([sub, str(path), *flags])


@pytest.mark.parametrize("command", sorted(EXPECTED))
def test_table_is_byte_identical(command, capsys):
    code = run(command, FIXTURES / command.split()[1])
    out = capsys.readouterr().out
    assert out == EXPECTED[command]["stdout"]
    assert code == EXPECTED[command]["exit"]


@pytest.mark.parametrize("command", sorted(
    c for c in EXPECTED if _is_free(c.split()[1])))
def test_table_of_a_rescaled_model_is_byte_identical(command, capsys,
                                                     tmp_path):
    fixture = command.split()[1]
    doc = json.loads((FIXTURES / fixture).read_text(encoding="utf-8"))
    # at this seed every rescaled coefficient has a denominator
    copy = rescaled(doc, random.Random(f"4:{fixture}"))
    coefficients = [Fraction(t["coeff"])
                    for terms in copy["differential"].values()
                    for t in terms]
    # the rescaling reaches the denominators the integer forms carry
    assert all(c.denominator > 1 for c in coefficients)
    path = tmp_path / fixture
    path.write_text(json.dumps(copy), encoding="utf-8")
    code = run(command, path)
    out = capsys.readouterr().out
    assert out == EXPECTED[command]["stdout"]
    assert code == EXPECTED[command]["exit"]
