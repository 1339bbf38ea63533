"""Record the expected output of every workload command.

    python3 perfbench/record.py

Runs each command once on the bundled, unscaled fixtures (no --seed) and
writes its standard output and exit code to perfbench/expected.json.
The expectations come from the program under test, so they are then
confirmed against independent sources where those exist:

- the HH totals of sphere2 and sphere3 against the brute-force oracle in
  tests/oracles.py, which shares no code with the package;
- the certified rows of ``ph sphere2`` against ``PH_periodic``, which
  computes PH band by band instead of through the total +complex.

The rows that were cross-checked are stored beside the outputs.  Any
disagreement stops the script before anything is written.
"""

import json
import re
import sys

from run import BENCH, EXPECTED, ROOT, WORK, run_child
from workloads import FIXTURES, WORKLOADS, argv_for, command_key, fixture_dir

ROW = re.compile(r"^\s+(\d+)\s+dim\s+(\d+)(\s+\(uncertified\))?")


def rows(text):
    """degree -> (total, certified) of a printed table."""
    out = {}
    for line in text.splitlines():
        m = ROW.match(line)
        if m:
            out[int(m.group(1))] = (int(m.group(2)), m.group(3) is None)
    return out


def cross_check(commands):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    import oracles
    from cdgacyc.cli import load_algebra
    from cdgacyc.functors import PH_periodic

    checks = []
    for stem, oracle in (("sphere2", oracles.hh_sphere2),
                         ("sphere3", oracles.hh_sphere3)):
        key = f"hh {stem}.json --cutoff 12 --per-weight"
        got = rows(commands[key]["stdout"])
        want = oracle(13)
        checked = [n for n in sorted(got) if got[n][0] == want[n]]
        if len(checked) != 13:
            raise SystemExit(f"{key}: differs from tests/oracles.py")
        checks.append({"command": key, "source": "tests/oracles.py",
                       "degrees": checked})

    key = "ph sphere2.json --cutoff 10"
    got = rows(commands[key]["stdout"])
    php = PH_periodic(load_algebra(str(fixture_dir(ROOT) / "sphere2.json")),
                      10)
    checked = []
    for n, (total, certified) in sorted(got.items()):
        if certified and php.certified(n):
            if php.total(n) != total:
                raise SystemExit(f"{key}: degree {n} differs from PH_periodic")
            checked.append(n)
    checks.append({"command": key, "source": "functors.PH_periodic",
                   "degrees": checked})
    return checks


def main():
    WORK.mkdir(exist_ok=True)
    paths = {stem: fixture_dir(ROOT) / f"{stem}.json" for stem in FIXTURES}
    commands = {}
    for cmd in sum(WORKLOADS.values(), ()):
        argv = [sys.executable, "-m", "cdgacyc.cli",
                *argv_for(cmd, paths, None)]
        res = run_child(argv, WORK / "stdout.txt")
        commands[command_key(cmd)] = {"exit": res.code,
                                      "stdout": res.stdout.decode("utf-8")}
        print(f"{res.wall:8.2f} s  exit {res.code}  {command_key(cmd)}")
    doc = {"commands": commands, "cross_checks": cross_check(commands)}
    EXPECTED.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {EXPECTED.relative_to(BENCH.parent)}")


if __name__ == "__main__":
    main()
