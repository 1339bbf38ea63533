"""The per-weight HH tables against the closed forms of tests/theory.py.

``hh --per-weight`` runs in-process through cutoff 30 on every sphere
fixture, free and finite; a finite input goes through its minimal
model, and HH does not depend on the model.  Every row must be
certified and equal the closed form, weight by weight.
"""

import re
from pathlib import Path

import pytest

from cdgacyc import cli

import oracles
import theory

CUTOFF = 30
FIXTURES = Path(__file__).resolve().parent.parent / "src" / "cdgacyc" / "fixtures"
ROW = re.compile(r" +(\d+)  dim +(\d+)(  \(uncertified\))?(?:  \[(.*)\])?")


def printed_rows(text):
    """{degree: ({weight: dimension}, total, certified)} of a printed
    per-weight HH table, read from the lines below its title."""
    rows = {}
    lines = text.splitlines()
    for line in lines[lines.index(f"HH up to degree {CUTOFF}:") + 1:]:
        n, total, uncertified, weights = ROW.fullmatch(line).groups()
        cells = {}
        for cell in weights.split(", ") if weights else ():
            w, d = cell.split(":")
            cells[int(w)] = int(d)
        rows[int(n)] = (cells, int(total), uncertified is None)
    return rows


@pytest.mark.parametrize("fixture, closed_form", [
    ("sphere3", lambda c: theory.hh_odd_sphere(3, c)),
    ("s3_cohomology", lambda c: theory.hh_odd_sphere(3, c)),
    ("sphere2", lambda c: theory.hh_even_sphere(2, c)),
    ("s2_cohomology", lambda c: theory.hh_even_sphere(2, c)),
    ("sphereEven4", lambda c: theory.hh_even_sphere(4, c)),
])
def test_hh_per_weight_matches_the_closed_form(fixture, closed_form,
                                               capsys):
    code = cli.main(["hh", str(FIXTURES / f"{fixture}.json"), "--cutoff",
                     str(CUTOFF), "--per-weight"])
    out = capsys.readouterr().out
    assert code == 0
    expected = {n: (cells, sum(cells.values()), True)
                for n, cells in closed_form(CUTOFF).items()}
    assert printed_rows(out) == expected


def test_closed_forms_agree_with_the_oracle():
    # the row totals, against the brute-force loop complexes
    for form, oracle in ((theory.hh_odd_sphere(3, 12), oracles.hh_sphere3),
                         (theory.hh_even_sphere(2, 12), oracles.hh_sphere2)):
        assert [sum(form[n].values()) for n in range(13)] == oracle(13)
