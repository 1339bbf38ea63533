"""Run one cdgacyc CLI command with a span at every layer boundary.

    python perfbench/tracer.py SPANS.json COMMAND_ID -- <cli arguments>

The layers are the package's modules.  Every public function of
free_loop, complexes, linalg, functors and minimal_model is wrapped,
plus ``cli.load_algebra``, ``LoopAlgebra.mixed_complex`` (reported as
``free_loop.mixed_complex``), ``MixedComplex.validate`` and the
elimination kernel (reported as ``linalg.bareiss``).  Several modules
import these functions by name, so every binding of each function in
every cdgacyc module is replaced, not only the defining one.  The CLI
front end itself (argument parsing, ``cmd_*``, printing) gets no span:
time spent there is what ``trace.coverage`` leaves uncovered, so a
binding this file misses shows up as lost coverage.

Spans are kept in memory as [name, parent index, start ns, end ns] and
written to SPANS.json after the command returns, with the counters and
the in-process wall time of ``cli.main``.  Nothing is printed, so the
command's standard output is exactly the untraced one.
"""

import functools
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("free_loop", "complexes", "linalg", "functors", "minimal_model")


class Recorder:
    """Spans and counters of one command."""

    def __init__(self, command_id):
        self.command_id = command_id
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self._seen = set()

    def wrap(self, name, fn, note=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            rec = [name, stack[-1] if stack else -1, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                rec[3] = clock()

        span.__wrapped_by_tracer__ = name
        return span

    def repeated(self, key):
        """Whether key was seen before in this command (then records it)."""
        if key in self._seen:
            return True
        self._seen.add(key)
        return False

    def note_bareiss(self, args, kwargs):
        rows, ncols = args
        self.counts["linalg.bareiss.cells"] += len(rows) * ncols
        key = ("bareiss", ncols, hash(tuple(map(tuple, rows))))
        self.counts["linalg.bareiss.repeats"] += self.repeated(key)

    def note_band(self, args, kwargs):
        M, w, kind, r_min, r_max = args
        key = ("band", M.top, w, kind, r_min, r_max)
        self.counts["complexes.band_complex.repeats"] += self.repeated(key)

    def count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _public_functions(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr, value


def install(rec):
    """Wrap every timed function and rebind it everywhere in cdgacyc."""
    import cdgacyc.cli as cli
    from cdgacyc import complexes, free_loop, kernels, linalg

    wrappers = {}   # original function -> wrapper
    for layer in LAYERS:
        for attr, fn in _public_functions(sys.modules[f"cdgacyc.{layer}"]):
            note = rec.note_band if fn is complexes.band_complex else None
            wrappers[fn] = rec.wrap(f"{layer}.{attr}", fn, note)
    wrappers[cli.load_algebra] = rec.wrap("cli.load_algebra", cli.load_algebra)
    wrappers[kernels.bareiss] = rec.wrap("linalg.bareiss", kernels.bareiss,
                                         rec.note_bareiss)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("cdgacyc"):
            continue
        for attr, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(mod, attr, wrappers[value])

    for cls, meth, name in (
        (free_loop.LoopAlgebra, "mixed_complex", "free_loop.mixed_complex"),
        (complexes.MixedComplex, "validate", "complexes.MixedComplex.validate"),
    ):
        setattr(cls, meth, rec.wrap(name, getattr(cls, meth)))
    linalg.SparseMatrix.__init__ = rec.count(
        "linalg.SparseMatrix.constructions", linalg.SparseMatrix.__init__)


def main(argv):
    out_path, command_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json COMMAND_ID -- ARGS")
    import cdgacyc.cli as cli

    rec = Recorder(command_id)
    install(rec)
    t0 = time.perf_counter_ns()
    try:
        code = cli.main(cli_args)
    finally:
        t1 = time.perf_counter_ns()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({
                "command_id": command_id,
                "main_ns": t1 - t0,
                "counts": rec.counts,
                "spans": rec.spans,
            }, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
