"""Batch front end: parse algebra files, run computations and audits.

Commands: cohomology, hh, ch, ph, sh, euler, check, minimal-model,
verify-minimal.  Input files are UTF-8 JSON in either free form
(generators + differential) or finite form (basis + structure constants).
All coefficients are exact rational strings; floats are rejected.
Exit codes: 0 success / no check fails, 1 check failures, 2 bad input.
"""

import argparse
import json
import re
import sys
from fractions import Fraction

from cdgacyc import functors, gralg
from cdgacyc.complexes import (
    UnsupportedConfiguration,
    beta_acyclic_check,
)
from cdgacyc.free_loop import base_cochain, ideals, u_model
from cdgacyc.gralg import FreeCDGA, Generator
from cdgacyc.minimal_model import (
    FiniteCDGA,
    ModelError,
    build_minimal_model,
    functor_on_cdga,
    verify_minimal,
)


class InputError(Exception):
    pass


_COEFF_RE = re.compile(r"^-?\d+(/-?[1-9]\d*)?$")


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
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: {exc}")
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


def print_table(table, per_weight=False, out=None):
    if out is None:
        out = sys.stdout
    for n in table.degrees:
        line = f"  {n:3d}  dim {table.total(n):3d}"
        if not table.certified(n):
            line += "  (uncertified)"
        if per_weight and table.weights(n):
            ws = ", ".join(
                f"{w}:{d}" for w, d in sorted(table.weights(n).items())
            )
            line += f"  [{ws}]"
        print(line, file=out)


def _make_table(kind, algebra, args):
    weight_cutoff = args.weight_max
    if isinstance(algebra, FiniteCDGA):
        result = functor_on_cdga(
            algebra, kind.upper(), args.cutoff,
            seed=args.seed, weight_cutoff=weight_cutoff,
        )
        return result["table"], result["model_generators"]
    ctx = functors.LoopContext(algebra, args.cutoff,
                               weight_cutoff=weight_cutoff)
    fn = {"hh": functors.HH, "ch": functors.CH,
          "ph": functors.PH, "sh": functors.SH}[kind]
    return fn(ctx, args.cutoff), None


def cmd_functor(kind, algebra, args):
    table, model = _make_table(kind, algebra, args)
    if args.json:
        print(json.dumps(table.to_json(), indent=2))
    else:
        if model is not None:
            print("model generators: "
                  + ", ".join(f"{n} (degree {d})" for n, d in model))
        print(f"{kind.upper()} up to degree {args.cutoff}:")
        print_table(table, per_weight=args.per_weight)
    return 0


def cmd_cohomology(algebra, args):
    N = args.cutoff
    if isinstance(algebra, FiniteCDGA):
        rows = [(n, algebra.betti(n), True) for n in range(N + 1)]
    else:
        c = base_cochain(algebra, N + 1)
        rows = [(n, c.betti(n), True) for n in range(N + 1)]
    if args.json:
        print(json.dumps({
            "degrees": [
                {"n": n, "total": d, "weights": {}, "certified": cert}
                for n, d, cert in rows
            ]
        }, indent=2))
    else:
        print(f"cohomology up to degree {N}:")
        for n, d, cert in rows:
            print(f"  {n:3d}  dim {d:3d}")
    return 0


def cmd_euler(algebra, args):
    if isinstance(algebra, FiniteCDGA):
        algebra, _ = build_minimal_model(algebra, args.cutoff, seed=args.seed)
    ctx = functors.LoopContext(algebra, args.cutoff,
                               weight_cutoff=args.weight_max)
    series = functors.euler_series(ctx, args.cutoff)
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


def cmd_check(algebra, args):
    if isinstance(algebra, FiniteCDGA):
        algebra, _ = build_minimal_model(algebra, args.cutoff, seed=args.seed)
    ctx = functors.LoopContext(algebra, args.cutoff,
                               weight_cutoff=args.weight_max)
    N = args.cutoff
    results = []
    # audits that compare with expectations for the untruncated complex
    complete = ctx.loop.complete_through
    truncated = None
    if complete < N + 1:
        truncated = (f"the weight cutoff {args.weight_max} truncates the "
                     f"loop complex from degree {complete + 1}")

    M = ctx.mixed(N + 1)
    failures = M.validate(ks=[-1, 2, 3, 6])
    results.append(("mixed complex axioms", not failures,
                    "; ".join(failures)))

    if truncated:
        results.append(("power map eigenstructure", None, truncated))
    else:
        t4 = functors.t4_audit(ctx, N)
        results.append(("power map eigenstructure", t4["pass"], ""))

    f2 = functors.fig2_audit(ctx, N)
    results.append(("long exact sequences (rows and verticals)",
                    f2["pass"], ""))

    f7 = functors.fig7_audit(ctx, N)
    results.append(("comparison diagram", f7["pass"], ""))

    t2 = functors.theorem2_check(ctx, N)
    results.append(("SH dimension identity", t2["pass"], ""))

    if truncated:
        results.append(("circle model agrees with CH", None, truncated))
        results.append(("interior-acyclicity lemma on the ideal", None,
                        truncated))
    else:
        um = u_model(ctx.loop, N + 1)
        ch = functors.CH(ctx, N)
        agree = all(um.betti(n) == ch.total(n) for n in range(N + 1))
        results.append(("circle model agrees with CH", agree, ""))

        ba = beta_acyclic_check(ideals(ctx.loop, N + 1))
        ba_ok = ba.get("beta_acyclic", False) and ba.get("dims_match", False)
        results.append(("interior-acyclicity lemma on the ideal",
                        None if "skipped" in ba else ba_ok, ba.get("skipped")))

    ok = True
    for name, passed, detail in results:
        status = "SKIP" if passed is None else "PASS" if passed else "FAIL"
        line = f"{status}  {name}"
        if detail and not passed:
            line += f"  ({detail})"
        print(line)
        ok = ok and status != "FAIL"
    return 0 if ok else 1


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
        report = verify_minimal(reparsed, args.cutoff)
        if not report["pass"]:
            print("emitted model fails the minimality check", file=sys.stderr)
            return 1
        print(f"wrote {args.emit}")
    return 0


def cmd_verify_minimal(algebra, args):
    if isinstance(algebra, FiniteCDGA):
        raise InputError("verify-minimal needs a free-form input file")
    report = verify_minimal(algebra, args.cutoff)
    for c in report["checks"]:
        status = "PASS" if c["pass"] else "FAIL"
        line = f"{status}  {c['check']}"
        if c.get("detail"):
            line += f"  ({c['detail']})"
        print(line)
    return 0 if report["pass"] else 1


def build_parser():
    p = argparse.ArgumentParser(
        prog="cdgacyc",
        description="Exact cohomology of commutative DG algebras "
                    "via the free-loop complex",
    )
    p.add_argument("command", choices=[
        "cohomology", "hh", "ch", "ph", "sh", "euler", "check",
        "minimal-model", "verify-minimal",
    ])
    p.add_argument("file")
    p.add_argument("--cutoff", type=int, default=12)
    p.add_argument("--weight-max", type=int, default=None)
    p.add_argument("--per-weight", action="store_true")
    p.add_argument("--json", action="store_true")
    p.add_argument("--emit", default=None)
    p.add_argument("--seed", type=int, default=None)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        for flag, value in (("--cutoff", args.cutoff),
                            ("--weight-max", args.weight_max)):
            if value is not None and value < 0:
                raise InputError(f"{flag} must be nonnegative, got {value}")
        algebra = load_algebra(args.file)
        if args.command in ("hh", "ch", "ph", "sh"):
            return cmd_functor(args.command, algebra, args)
        if args.command == "cohomology":
            return cmd_cohomology(algebra, args)
        if args.command == "euler":
            return cmd_euler(algebra, args)
        if args.command == "check":
            return cmd_check(algebra, args)
        if args.command == "minimal-model":
            return cmd_minimal_model(algebra, args)
        return cmd_verify_minimal(algebra, args)
    except (InputError, ModelError, UnsupportedConfiguration,
            gralg.AlgebraError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
