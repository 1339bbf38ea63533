"""Batch front end: parse algebra files, run computations and audits.

Commands: cohomology, hh, ch, ph, sh, euler, check, minimal-model,
verify-minimal.  Input files are UTF-8 JSON in either free form
(generators + differential) or finite form (basis + structure constants).
All coefficients are exact rational strings; floats are rejected.
Exit codes: 0 success / no check fails, 1 check failures, 2 bad input,
74 an output write that fails, 141 a closed output pipe.

A well-formed command line (the command, the file and exact long options)
is read without argparse, which would cost a few milliseconds of every
run; help, abbreviated options and every usage error go through the
argparse parser of build_parser, the reference for both.

Run as a program (``python -m cdgacyc.cli`` or the ``cdgacyc`` script),
a command goes through ``run``: it flushes its output and then ends the
process with ``os._exit``, skipping interpreter teardown.  The teardown
frees every module, cache and object the process is about to discard,
about 9-13 ms of a run of some 50 ms, and the process holds nothing that
needs it (a file written by ``--emit`` is closed before ``main``
returns).  A closed output pipe ends it with exit code 141 and no
report, any other failed write with one error line and exit code 74;
any other exception or exit in ``main`` takes the ordinary exit path.
``main`` called as a library returns its exit code and ends nothing.

Such a process also runs with the cyclic garbage collector off: the
first statement of this module, run as ``__main__``, turns it off
before any other import, and ``run`` does for the ``cdgacyc`` script.
A command makes no reference cycles (``gc.collect()`` finds nothing
after any command on any fixture, and a constant 31-33 objects of the
json encoder after ``--json``, at any cutoff), and the process ends
through ``os._exit``, so a collection only walks live objects.  Timed
with ``gc.callbacks`` around ``main`` (one 2-vCPU host), those walks
took 1.11 s of the 3.83 s of ``check`` on (S^2)^4 at cutoff 10 (4,312
collections), 0.19 s of 0.84 s on (S^2)^3, and 4 ms of 65 ms on ``check
product_s2_s3.json --cutoff 10``.  Importing the package, or calling
``main`` as a library, leaves the collector as it was.
"""

import gc

if __name__ == "__main__":
    gc.disable()

import json
import os
import re
import sys
import types
from fractions import Fraction

from cdgacyc import functors, gralg
from cdgacyc.complexes import UnsupportedConfiguration
from cdgacyc.free_loop import base_cochain
from cdgacyc.gralg import FreeCDGA, Generator
from cdgacyc.minimal_model import (
    FiniteCDGA,
    ModelError,
    build_minimal_model,
    verify_minimal,
)


class InputError(Exception):
    pass


_COEFF_RE = re.compile(r"^-?\d+(/[1-9]\d*)?$")


def _no_floats(s):
    raise InputError(f"float literal {s!r}: floats are forbidden, "
                     "use exact rational strings")


def _coeff(v):
    if isinstance(v, bool):
        raise InputError(f"bad coefficient {v!r}")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, str):
        if not _COEFF_RE.match(v):
            raise InputError(f"bad coefficient {v!r}: expected 'p' or 'p/q'")
        return Fraction(v)
    raise InputError(f"bad coefficient {v!r}")


def _is_int(v):
    """A JSON integer; true and false are not integers here."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_keys(obj, allowed, where):
    extra = set(obj) - set(allowed)
    if extra:
        raise InputError(f"unknown fields {sorted(extra)} in {where}")


def _differential(data):
    diff = data.get("differential") or {}
    if not isinstance(diff, dict):
        raise InputError("differential must be an object name -> terms")
    return diff


def _parse_terms(terms, where):
    """[(coeff, [[name, exp], ...]), ...] in raw name form."""
    if not isinstance(terms, list):
        raise InputError(f"{where}: expected a list of terms")
    out = []
    for t in terms:
        if not isinstance(t, dict):
            raise InputError(f"{where}: term must be an object")
        _check_keys(t, ("coeff", "monomial"), where)
        c = _coeff(t.get("coeff", 1))
        mono = t.get("monomial", [])
        if not isinstance(mono, list) or not all(
            isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
            and _is_int(p[1]) and p[1] >= 1
            for p in mono
        ):
            raise InputError(f"{where}: monomial must be [[name, exp], ...]")
        out.append((c, mono))
    return out


def parse_free(data):
    _check_keys(data, ("generators", "differential"), "algebra file")
    raw_gens = data.get("generators", [])
    gens = []
    for i, g in enumerate(raw_gens):
        if not isinstance(g, dict):
            raise InputError("generator entries must be objects")
        _check_keys(g, ("name", "degree"), "generator")
        name, degree = g.get("name"), g.get("degree")
        if not isinstance(name, str) or not _is_int(degree):
            raise InputError(f"bad generator entry {g!r}")
        gens.append(Generator(i, name, degree))
    by_name = {g.name: g for g in gens}
    if len(by_name) != len(gens):
        raise InputError("duplicate generator name")
    values = {}
    for name, terms in _differential(data).items():
        if name not in by_name:
            raise InputError(f"differential on unknown generator {name}")
        poly = {}
        for c, mono in _parse_terms(terms, f"d({name})"):
            seen = set()
            for h, e in mono:
                if h not in by_name:
                    raise InputError(f"unknown generator {h!r} in d({name})")
                if h in seen:
                    raise InputError(
                        f"d({name}): generator {h} listed twice in one monomial")
                if by_name[h].degree % 2 and e > 1:
                    raise InputError(
                        f"d({name}): odd generator {h} has exponent {e}; "
                        "odd generators square to zero")
                seen.add(h)
            key = tuple(sorted(((by_name[h], e) for h, e in mono),
                               key=lambda p: p[0].uid))
            poly[key] = poly.get(key, Fraction(0)) + c
        values[name] = {m: c for m, c in poly.items() if c}
    try:
        return FreeCDGA(gens, values)
    except gralg.AlgebraError as exc:
        raise InputError(str(exc))


def _finite_element(terms, names, where):
    elem = {}
    for c, mono in _parse_terms(terms, where):
        if len(mono) != 1 or mono[0][1] != 1:
            raise InputError(
                f"{where}: finite-form terms name single basis elements"
            )
        name = mono[0][0]
        if name not in names:
            raise InputError(f"{where}: unknown basis element {name}")
        elem[name] = elem.get(name, Fraction(0)) + c
    return {n: c for n, c in elem.items() if c}


def parse_finite(data):
    _check_keys(data, ("basis", "products", "differential"), "algebra file")
    basis = []
    for b in data.get("basis", []):
        if not isinstance(b, dict):
            raise InputError("basis entries must be objects")
        _check_keys(b, ("name", "degree"), "basis entry")
        name, degree = b.get("name"), b.get("degree")
        if not isinstance(name, str) or not _is_int(degree):
            raise InputError(f"bad basis entry {b!r}")
        basis.append((name, degree))
    names = {n for n, _ in basis}
    products = {}
    for entry in data.get("products", []):
        if not (isinstance(entry, list) and len(entry) == 3
                and all(isinstance(x, str) for x in entry[:2])):
            raise InputError("product entries must be [name, name, terms]")
        a, b, terms = entry
        if a not in names or b not in names:
            raise InputError(f"product on unknown pair {a},{b}")
        if (a, b) in products:
            raise InputError(f"second product entry for the pair {a},{b}")
        products[(a, b)] = _finite_element(terms, names, f"{a}*{b}")
    differential = {}
    for name, terms in _differential(data).items():
        if name not in names:
            raise InputError(f"differential on unknown element {name}")
        differential[name] = _finite_element(terms, names, f"d({name})")
    try:
        return FiniteCDGA(basis, products, differential)
    except ModelError as exc:
        raise InputError(str(exc))


def load_algebra(path):
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh, parse_float=_no_floats)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise InputError(f"{path}: {exc}")
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply")
    if not isinstance(data, dict):
        raise InputError(f"{path}: expected a JSON object")
    if "generators" in data:
        return parse_free(data)
    if "basis" in data:
        return parse_finite(data)
    raise InputError(f"{path}: need either 'generators' or 'basis'")


def emit_free(A):
    """Free-form JSON document for a free CDGA."""
    diff = {}
    for g in A.algebra.generators:
        dv = A.differential.on_generator(g)
        if dv:
            diff[g.name] = [
                {
                    "coeff": str(c),
                    "monomial": [[h.name, e] for h, e in mono],
                }
                for mono, c in sorted(
                    dv.items(), key=lambda p: gralg.monomial_str(p[0])
                )
            ]
    return {
        "generators": [
            {"name": g.name, "degree": g.degree}
            for g in A.algebra.generators
        ],
        "differential": diff,
    }


def print_table(table, header, args):
    """The table as JSON with --json, else its header and one line per
    degree, with the weights under --per-weight.  Exit code 0."""
    if args.json:
        print(json.dumps(table.to_json(), indent=2))
        return 0
    print(header)
    for n in table.degrees:
        line = f"  {n:3d}  dim {table.total(n):3d}"
        if not table.certified(n):
            line += "  (uncertified)"
        if args.per_weight and table.weights(n):
            ws = ", ".join(
                f"{w}:{d}" for w, d in sorted(table.weights(n).items())
            )
            line += f"  [{ws}]"
        print(line)
    return 0


def cmd_functor(kind, ctx, args, finite):
    fn = {"hh": functors.HH, "ch": functors.CH,
          "ph": functors.PH, "sh": functors.SH}[kind]
    table = fn(ctx)
    if finite and not args.json:
        print("model generators: " + ", ".join(
            f"{g.name} (degree {g.degree})"
            for g in ctx.algebra.algebra.generators))
    return print_table(table, f"{kind.upper()} up to degree {args.cutoff}:",
                       args)


def cmd_cohomology(algebra, args):
    c = (algebra if isinstance(algebra, FiniteCDGA)
         else base_cochain(algebra, args.cutoff + 1))
    table = functors.CohomologyTable("cohomology")
    for n in range(args.cutoff + 1):
        table.set_row(n, c.betti(n), {}, True)
    return print_table(table, f"cohomology up to degree {args.cutoff}:", args)


def cmd_euler(ctx, args):
    series = functors.euler_series(ctx)
    if args.json:
        print(json.dumps({
            name: {str(w): row for w, row in sorted(part.items())}
            for name, part in series.items()
        }, indent=2))
        return 0
    for name, part in series.items():
        print(f"{name}:")
        for w, row in sorted(part.items()):
            mark = "" if row["certified"] else "  (uncertified)"
            print(f"  weight {w:3d}: {row['value']}{mark}")
    return 0


def print_audits(records, as_json):
    """One PASS, FAIL or SKIP line per audit record, a FAIL or SKIP with
    its reason, or the records as a JSON list.  Exit code 1 when an audit
    fails."""
    if as_json:
        print(json.dumps([a._asdict() for a in records], indent=2,
                         default=str))
    else:
        for a in records:
            line = f"{a.status[:4].upper()}  {a.name}"
            if a.reason and a.status != "pass":
                line += f"  ({a.reason})"
            print(line)
    return 1 if any(a.status == "fail" for a in records) else 0


def cmd_minimal_model(algebra, args):
    if not isinstance(algebra, FiniteCDGA):
        raise InputError("minimal-model needs a finite-form input file")
    A, theta = build_minimal_model(algebra, args.cutoff, seed=args.seed)
    if args.emit:
        try:
            with open(args.emit, "w", encoding="utf-8") as fh:
                json.dump(emit_free(A), fh, indent=2)
                fh.write("\n")
        except OSError as exc:
            raise InputError(f"cannot write {args.emit}: {exc}")
    print("model generators: " + (", ".join(
        f"{g.name} (degree {g.degree})" for g in A.algebra.generators
    ) or "none"))
    if args.emit:
        reparsed = load_algebra(args.emit)
        if any(a.status == "fail"
               for a in verify_minimal(reparsed, args.cutoff)):
            print("emitted model fails the minimality check", file=sys.stderr)
            return 1
        print(f"wrote {args.emit}")
    return 0


CLOSED_PIPE = 141
WRITE_FAILED = 74
COMMANDS = ("cohomology", "hh", "ch", "ph", "sh", "euler", "check",
            "minimal-model", "verify-minimal")
_VALUED = {"--cutoff": int, "--weight-max": int, "--emit": str, "--seed": int}
_FLAGS = ("--per-weight", "--json")


def parse_well_formed(argv):
    """The namespace build_parser().parse_args(argv) returns, when argv is
    the command, the file and exact long options, each option's value
    after "=" or as the next token and not starting with "-"; None for
    anything else (help, abbreviations, "--", every usage error)."""
    found = {"cutoff": 12, "weight_max": None, "per_weight": False,
             "json": False, "emit": None, "seed": None}
    positional = []
    tokens = iter(argv)
    for tok in tokens:
        if not tok.startswith("-"):
            positional.append(tok)
            continue
        opt, eq, value = tok.partition("=")
        key = opt[2:].replace("-", "_")
        if opt in _FLAGS and not eq:
            found[key] = True
            continue
        if opt not in _VALUED:
            return None
        if not eq:
            value = next(tokens, "-")  # a missing value reads as "-"
        if value.startswith("-"):
            return None
        try:
            found[key] = _VALUED[opt](value)
        except ValueError:
            return None
    if len(positional) != 2 or positional[0] not in COMMANDS:
        return None
    return types.SimpleNamespace(command=positional[0], file=positional[1],
                                 **found)


def build_parser():
    import argparse

    p = argparse.ArgumentParser(
        prog="cdgacyc",
        description="Exact cohomology of commutative DG algebras "
                    "via the free-loop complex",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("file")
    p.add_argument("--cutoff", type=int, default=12)
    p.add_argument("--weight-max", type=int, default=None)
    p.add_argument("--per-weight", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--emit", default=None)
    p.add_argument("--seed", type=int, default=None)
    return p


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = parse_well_formed(argv) or build_parser().parse_args(argv)
    try:
        for flag, value in (("--cutoff", args.cutoff),
                            ("--weight-max", args.weight_max)):
            if value is not None and value < 0:
                raise InputError(f"{flag} must be nonnegative, got {value}")
        algebra = load_algebra(args.file)
        if args.command == "cohomology":
            return cmd_cohomology(algebra, args)
        if args.command == "minimal-model":
            return cmd_minimal_model(algebra, args)
        if args.command == "verify-minimal":
            if isinstance(algebra, FiniteCDGA):
                raise InputError("verify-minimal needs a free-form input file")
            return print_audits(verify_minimal(algebra, args.cutoff),
                                args.json)
        ctx = functors.LoopContext(algebra, args.cutoff,
                                   weight_cutoff=args.weight_max,
                                   seed=args.seed)
        if args.command == "euler":
            return cmd_euler(ctx, args)
        if args.command == "check":
            return print_audits(functors.audits(ctx), args.json)
        return cmd_functor(args.command, ctx, args,
                           finite=isinstance(algebra, FiniteCDGA))
    except (InputError, ModelError, UnsupportedConfiguration,
            gralg.AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run():
    """The program's entry point: main(), its output flushed, and the
    process ended with main's exit code without interpreter teardown.
    A write into a closed pipe, in main or in the flush, ends it with
    exit code 141 (128 + SIGPIPE) and no report; any other failed write
    with one line on stderr and exit code 74 (EX_IOERR).  The cyclic
    garbage collector is off from here on (see the module docstring)."""
    gc.disable()
    try:
        code = main()
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:
                stream.flush()
    except BrokenPipeError:
        os._exit(CLOSED_PIPE)  # drops the buffered output unreported
    except OSError as exc:
        try:
            print(f"error: cannot write the output: {exc}", file=sys.stderr,
                  flush=True)
        finally:
            os._exit(WRITE_FAILED)
    os._exit(code or 0)


if __name__ == "__main__":
    run()
