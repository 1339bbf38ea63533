"""The benchmark's workloads and the seeded inputs they run on.

A workload is a list of CLI commands.  Each command names a bundled
fixture; before a run the fixture is rewritten from the seed into the
run's work directory and the command receives only that file:

- free-form models get a nonzero rational scale per generator, and the
  differential coefficients are rewritten so the model is isomorphic to
  the fixture (x' = s_x x turns c * prod x^e in d(y) into
  c * s_y / prod s_x^e);
- finite-form algebras are copied unchanged and the seed is passed on
  as the model builder's ``--seed``.

Every printed table depends only on the isomorphism class, so the
expected output of a command does not depend on the seed.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

FIXTURES = ("cp2_finite", "product_s2_s3", "s2_cohomology", "s3_cohomology",
            "sphere2", "sphere3", "sphereEven4", "trivial")
FINITE = ("cp2_finite", "s2_cohomology", "s3_cohomology")


def _tables():
    cmds = []
    for fx in FIXTURES:
        cmds.append(("cohomology", fx, "--cutoff", "12"))
        for kind in ("hh", "ch", "sh"):
            cmds.append((kind, fx, "--cutoff", "12", "--per-weight"))
        cmds.append(("euler", fx, "--cutoff", "12"))
    for fx in FINITE:
        cmds.append(("minimal-model", fx, "--cutoff", "12"))
    return tuple(cmds)


# Each command is (subcommand, fixture stem, *flags).  Why these three:
# periodic is few large eliminations and subquotients with no audits;
# audit is the full audit battery with its rebuilds and re-eliminations;
# tables is many short commands, each paying interpreter start, with
# many tiny matrices and the only minimal-model builds.
# `ph product_s2_s3` is left out: PH builds the +complex to degree
# cutoff + 13, and it does not finish within 300 s even at cutoff 6.
WORKLOADS = {
    "periodic": (("ph", "sphere2", "--cutoff", "10"),),
    "audit": (("check", "product_s2_s3", "--cutoff", "10"),),
    "tables": _tables(),
}


def command_key(cmd):
    """Stable text key of a command, used to index expected outputs."""
    return " ".join((cmd[0], cmd[1] + ".json") + tuple(cmd[2:]))


def _scale(rng):
    num = rng.choice((1, 2, 3))
    den = rng.choice((1, 2, 3))
    return Fraction(rng.choice((-1, 1)) * num, den)


def rescale_free(doc, rng):
    """An isomorphic copy of a free-form model document."""
    scale = {g["name"]: _scale(rng) for g in doc["generators"]}
    diff = {}
    for name, terms in (doc.get("differential") or {}).items():
        out = []
        for term in terms:
            c = Fraction(term.get("coeff", 1)) * scale[name]
            for gen, exp in term.get("monomial", []):
                c /= scale[gen] ** exp
            out.append({"coeff": str(c), "monomial": term.get("monomial", [])})
        diff[name] = out
    return {"generators": doc["generators"], "differential": diff}


def write_inputs(fixture_dir, work_dir, seed):
    """Seeded copies of every fixture: stem -> path of the written file."""
    work_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for stem in FIXTURES:
        doc = json.loads((fixture_dir / f"{stem}.json").read_text())
        if stem not in FINITE:
            # a string seed is hashed with SHA-512, so the draw does not
            # depend on PYTHONHASHSEED
            doc = rescale_free(doc, random.Random(f"{seed}:{stem}"))
        path = work_dir / f"{stem}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        paths[stem] = path
    return paths


def argv_for(cmd, paths, seed):
    """CLI arguments of a command on the given inputs; seed None passes
    no --seed."""
    sub, stem, *flags = cmd
    argv = [sub, str(paths[stem]), *flags]
    if stem in FINITE and seed is not None:
        argv += ["--seed", str(seed)]
    return argv


def fixture_dir(root):
    return Path(root) / "src" / "cdgacyc" / "fixtures"
