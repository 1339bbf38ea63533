"""Mixed complexes and their derived cochain complexes.

A mixed complex is a nonnegatively graded space with a degree +1 operator
delta and a degree -1 operator beta that square to zero and anticommute.
From it we build the derived complexes: the total +complex (always a
finite product per degree), the bands of the +, - and 2-periodic
complexes at a fixed effective weight, the weight slices of (C, delta),
mapping cones, and the long exact sequences of short exact sequences with
explicit zig-zag connecting maps.

Effective weight: a basis element of weight p sitting in the degree-m slot
of a degree-r slice has effective weight w = p + (m - r)/2.  Both delta
(weight-preserving, slot degree +1) and beta (weight +1, slot degree -1)
preserve w, so each derived complex splits into finite per-w bands.

Blocks: a mixed complex is stored as its (degree, weight) blocks C^{n,p},
with delta blocks C^{n,p} -> C^{n+1,p} and beta blocks C^{n,p} ->
C^{n-1,p+1}.  Every band, weight slice and the total +complex is delta +
beta restricted to a slot table {r: [(m, p)]} that lists the blocks
placed in each degree r, and d^r is those blocks put at their offsets.
One builder, _slot_complex, makes all of them; the kinds differ only in
their tables (_slot_basis for bands and slices, every block of C^{r-2k}
for the +complex).  The per-degree delta and beta are assembled the same
way, and one assembler, _assemble, also puts a mapping cone's blocks
together.

Each invariant is checked once, in one place.  Inputs are validated where
they enter (the free CDGA, the finite CDGA and the loop algebra check
their axioms on generators or structure constants), and the weight
grading where the loop complex is built, block by block, so no assembly
reads a column to check it.  d.d = 0 is checked
only where cohomology is taken: linalg.cohomology_at raises for every
degree whose Betti number, representatives or induced map is computed,
so no complex is built with a check of degrees nobody reads.  The
matrix-level mixed-complex axioms are MixedComplex.validate, run as an
audit.

A truncation, an even shift and a cone's shift C1[1] are built on the
same matrices, up to sign, and share the cohomology cache of the
complex they come from, in every degree whose two differentials they
share: only a truncation's top degree, where its d is zero, is a
subquotient of its own.  An identity matrix on one shared subquotient
induces the identity, with no coordinates read.

Chain maps between labelled complexes come from one builder, label_map,
which sends each label to a label or to zero; inclusions, projections
and the canonical maps of a cone are label maps.  A diagram audit is
ladder_audit: a morphism of short exact sequences checked as both long
exact sequences (once, when the two rows are one object) plus the three
squares.  Each induced map and each connecting map is computed once
per degree and cached, as cohomology is, so the sequences and the
squares share them.  A composite through a zero group is zero by its
shape, so the chain-map and proj.incl checks, the exactness test of a
node and a ladder square form no product there, and a connecting map
out of a zero group lifts nothing.

An audit returns one Audit record, made by the audit decorator from the
witnesses it finds: les_audit finds the nodes that are not exact,
ladder_audit those nodes and its first failing square.
"""

import functools
import math
from typing import NamedTuple

from cdgacyc import linalg
from cdgacyc.linalg import SparseMatrix


class ComplexError(Exception):
    pass


class UnsupportedConfiguration(ComplexError):
    """The requested computation needs data the complex does not carry."""


class ConsistencyError(ComplexError):
    """Internal structure violated: what fails (check) and, where it is
    known, the degree it fails at."""

    def __init__(self, check, degree=None):
        super().__init__(check if degree is None
                         else f"{check} at degree {degree}")
        self.check, self.degree = check, degree


class Skip(Exception):
    """Raised by an audit that does not apply; the message says why."""


class Audit(NamedTuple):
    """status is "pass", "fail" or "skipped"; reason says why it skipped
    or what failed.  A witness is a dict locating one failure: what fails
    ("check"), its "degree", and its "weight", "node", "square" or
    "vector" where it has one."""
    name: str
    status: str
    reason: str = ""
    witnesses: tuple = ()


def _describe(witness):
    where = ", ".join(f"{key} {value}" for key, value in witness.items()
                      if key not in ("check", "vector"))
    return f"{witness['check']} at {where}" if where else witness["check"]


def located(fn, *args, **kwargs):
    """fn's witnesses, or the one witness of the inconsistency it raises
    (ConsistencyError, LinalgError): what fails, its degree where it has
    one, and NotChainCompatible's vector."""
    try:
        return fn(*args, **kwargs)
    except ConsistencyError as exc:
        found = {"check": exc.check}
        if exc.degree is not None:
            found["degree"] = exc.degree
    except linalg.LinalgError as exc:
        found = {"check": str(exc)}
        if isinstance(exc, linalg.NotChainCompatible):
            found["vector"] = exc.witness
    return [found]


def audit(name):
    """Decorator: fn returns the witnesses it finds (or another audit's
    record, reported under this name) and raises Skip when it does not
    apply; the audit returns Audit(name, ...).  An inconsistency raised on
    the way fails the audit with its located witness (see located).
    """
    def decorate(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            try:
                found = located(fn, *args, **kwargs)
            except Skip as exc:
                return Audit(name, "skipped", str(exc))
            if isinstance(found, Audit):
                return found._replace(name=name)
            return Audit(name, "fail" if found else "pass",
                         "; ".join(map(_describe, found)), tuple(found))
        return run
    return decorate


class CochainComplex:
    """Finitely supported cochain complex: labels and d^n: C^n -> C^{n+1}.

    shares=(c, s, lo, hi) declares that for every lo <= n < hi this
    complex's d^{n-1} and d^n are c's d^{n-s-1} and d^{n-s} up to sign
    (-d has the kernel, image, RREF and pivots of d; only an image vector
    may flip sign), so its H^n is c's H^{n-s}, taken from c's cache.
    """

    def __init__(self, labels, diff, shares=None):
        self.labels = {n: list(v) for n, v in labels.items() if v}
        self.diff = {}
        for n, m in diff.items():
            if m.rows != self.dim(n + 1) or m.cols != self.dim(n):
                raise ComplexError(f"differential at {n} has wrong shape")
            self.diff[n] = m
        self._cohomology = {}
        self._shares = shares

    @property
    def degrees(self):
        return sorted(self.labels)

    def dim(self, n):
        return len(self.labels.get(n, ()))

    def d(self, n):
        if n in self.diff:
            return self.diff[n]
        return SparseMatrix.zero(self.dim(n + 1), self.dim(n))

    def cohomology(self, n):
        if n not in self._cohomology:
            if (self._shares is not None
                    and self._shares[2] <= n < self._shares[3]):
                c, s, _, _ = self._shares
                self._cohomology[n] = c.cohomology(n - s)
            else:
                self._cohomology[n] = linalg.cohomology_at(self.d(n - 1),
                                                           self.d(n))
        return self._cohomology[n]

    def betti(self, n):
        return self.cohomology(n).dim

    def truncated(self, top):
        """The complex on degrees <= top, with d^top = 0.  Below top it has
        this complex's matrices and cohomology; only H^top is its own."""
        return CochainComplex(
            {n: v for n, v in self.labels.items() if n <= top},
            {n: m for n, m in self.diff.items() if n < top},
            shares=(self, 0, -math.inf, top),
        )


class ChainMap:
    """Degree-preserving map of cochain complexes; commutation with d is
    checked in check_degrees."""

    def __init__(self, source, target, mats, check_degrees=()):
        self.source = source
        self.target = target
        self.mats = {}
        degrees = set(source.labels) | set(mats)
        for n in degrees:
            m = mats[n] if n in mats else SparseMatrix.zero(
                target.dim(n), source.dim(n))
            if m.rows != target.dim(n) or m.cols != source.dim(n):
                raise ComplexError(f"chain map has wrong shape at degree {n}")
            self.mats[n] = m
        for n in check_degrees:
            # both sides map C^n to C^{n+1}: zero where either is 0
            if not (source.dim(n) and target.dim(n + 1)):
                continue
            lhs = self.matrix(n + 1) @ source.d(n)
            rhs = target.d(n) @ self.matrix(n)
            if lhs != rhs:
                raise ConsistencyError("map does not commute with d", n)
        self._induced = {}

    def matrix(self, n):
        if n in self.mats:
            return self.mats[n]
        return SparseMatrix.zero(self.target.dim(n), self.source.dim(n))

    def induced(self, n):
        if n not in self._induced:
            m, h = self.matrix(n), self.source.cohomology(n)
            if h is self.target.cohomology(n) and m.is_identity():
                self._induced[n] = SparseMatrix.identity(h.dim)
            else:
                self._induced[n] = linalg.induced_map(
                    m, h, self.target.cohomology(n))
        return self._induced[n]


def shift_complex(c, s):
    """Complex whose degree-n piece is c^{n-s} (even shifts only, so the
    differential needs no sign change)."""
    if s % 2:
        raise ComplexError("only even shifts preserve the differential sign")
    return CochainComplex(
        {n + s: v for n, v in c.labels.items()},
        {n + s: m for n, m in c.diff.items()},
        shares=(c, s, -math.inf, math.inf),
    )


def label_map(source, target, image, check_degrees=()):
    """ChainMap sending the source label lab in degree n to the target label
    image(n, lab), or to zero where image returns None.  An image label
    missing from the target raises ComplexError."""
    mats = {}
    for n in source.degrees:
        index = {lab: i for i, lab in enumerate(target.labels.get(n, []))}
        row_of = {}
        for j, lab in enumerate(source.labels[n]):
            t = image(n, lab)
            if t is None:
                continue
            if t not in index:
                raise ComplexError(f"label {t!r} missing in target at {n}")
            row_of[j] = index[t]
        mats[n] = SparseMatrix.relabelling(target.dim(n), source.dim(n),
                                           row_of)
    return ChainMap(source, target, mats, check_degrees)


def label_inclusion(sub, amb):
    """ChainMap including a complex whose labels are a subset of another's."""
    return label_map(sub, amb, lambda n, lab: lab)


def label_projection(amb, quot):
    """ChainMap projecting onto the labels retained by the quotient."""
    kept = {n: set(v) for n, v in quot.labels.items()}
    return label_map(amb, quot,
                     lambda n, lab: lab if lab in kept.get(n, ()) else None)


class MixedComplex:
    """(C, delta, beta) on degrees 0..top, in (degree, weight) blocks.

    blocks: dict (n, p) -> the labels of C^{n,p}, the degree-n basis
    elements of weight p; an empty block is absent.
    delta: dict (n, p) -> matrix C^{n,p} -> C^{n+1,p}.
    beta: dict (n, p) -> matrix C^{n,p} -> C^{n-1,p+1}.
    A block with no matrix is zero.  The per-degree readers (keys,
    labels, weights, dim, delta_m, beta_m, power_matrix, cochain) stack
    the blocks of a degree in weight order.  Construction checks shapes
    only; validate() checks the axioms on the assembled matrices.
    """

    def __init__(self, blocks, delta, beta, top):
        self.blocks, self.delta, self.beta, self.top = blocks, delta, beta, top
        self.keys = {n: [] for n in range(top + 1)}
        self.labels = {n: [] for n in range(top + 1)}
        self.weights = {n: [] for n in range(top + 1)}
        for (n, p), labs in sorted(blocks.items()):
            self.keys[n].append((n, p))
            self.labels[n] += labs
            self.weights[n] += [p] * len(labs)
        for name, mats, dn, dp in (("delta", delta, 1, 0),
                                   ("beta", beta, -1, 1)):
            for (n, p), m in mats.items():
                if (m.rows, m.cols) != (len(blocks.get((n + dn, p + dp), ())),
                                        len(blocks.get((n, p), ()))):
                    raise ComplexError(f"{name} at {(n, p)} has wrong shape")
        self._by_degree = {}

    def dim(self, n):
        return len(self.labels.get(n, ()))

    def block_matrix(self, row_keys, col_keys):
        """delta + beta from the blocks col_keys into the blocks row_keys,
        each stacked in its listed order; a block whose image lies in no
        block of row_keys contributes nothing."""
        rows, n_rows = self._stacked(row_keys)
        cols, n_cols = self._stacked(col_keys)
        return _assemble(n_rows, n_cols, [
            (mats[(m, p)], rows[out], j0) for (m, p), j0 in cols.items()
            for mats, out in ((self.delta, (m + 1, p)),
                              (self.beta, (m - 1, p + 1)))
            if (m, p) in mats and out in rows])

    def _stacked(self, keys):
        """({key: offset of its block}, total size) of the blocks keys."""
        offsets, size = {}, 0
        for key in keys:
            offsets[key] = size
            size += len(self.blocks[key])
        return offsets, size

    def delta_m(self, n):
        return self._degree_matrix(n, n + 1)

    def beta_m(self, n):
        return self._degree_matrix(n, n - 1)

    def _degree_matrix(self, n, n_out):
        """delta (n_out = n + 1) or beta (n_out = n - 1) on C^n, assembled
        once from its blocks."""
        if (n, n_out) not in self._by_degree:
            self._by_degree[(n, n_out)] = self.block_matrix(
                self.keys.get(n_out, ()), self.keys.get(n, ()))
        return self._by_degree[(n, n_out)]

    @audit("mixed complex axioms")
    def validate(self, ks=()):
        """Audit of delta^2 = 0, beta^2 = 0, delta beta + beta delta = 0,
        and the power-map relations for each k in ks, all as exact matrix
        identities inside the data window; a witness per failing one."""
        bad = []

        def check(ok, identity, n):
            if not ok:
                bad.append({"check": identity, "degree": n})

        for n in range(0, self.top - 1):
            check((self.delta_m(n + 1) @ self.delta_m(n)).is_zero(),
                  "delta.delta != 0", n)
        for n in range(2, self.top + 1):
            check((self.beta_m(n - 1) @ self.beta_m(n)).is_zero(),
                  "beta.beta != 0", n)
        for n in range(1, self.top):
            anti = self.delta_m(n - 1) @ self.beta_m(n) + self.beta_m(
                n + 1
            ) @ self.delta_m(n)
            check(anti.is_zero(), "delta.beta + beta.delta != 0", n)
        for k in ks:
            if k == 0:
                raise ComplexError("Psi_0 is not defined")
            for n in range(0, self.top):
                check(self._scales_by(k, 1, n + 1, n, self.delta_m(n)),
                      f"Psi_{k}.delta != delta.Psi_{k}", n)
            for n in range(1, self.top + 1):
                check(self._scales_by(k, k, n - 1, n, self.beta_m(n)),
                      f"Psi_{k}.beta != k.beta.Psi_{k}", n)
        return bad

    def _scales_by(self, k, c, n_out, n_in, mat):
        """Whether Psi_k . mat = c . mat . Psi_k for mat: C^n_in -> C^n_out.

        The (i, j) entries of the two sides are k^{w_i} v and c v k^{w_j};
        a stored entry v is nonzero, so they agree iff k^{w_i} = c k^{w_j},
        an identity of integers (weights are nonnegative ints).
        """
        if mat.is_zero():
            return True
        left = [k ** w for w in self.weights[n_out]]
        right = [c * k ** w for w in self.weights[n_in]]
        return all(left[i] == right[j] for i, j in mat.integer()[1])

    def power_matrix(self, k, n):
        """Psi_k on C^n: diagonal k^weight."""
        return _powers(k, self.weights.get(n, []))

    def cochain(self):
        """(C, delta) as a plain cochain complex."""
        return CochainComplex(
            self.labels, {n: self.delta_m(n) for n in range(self.top)}
        )


def _powers(k, exponents):
    """The diagonal matrix of k**e for the listed int exponents e, k a
    nonzero int, in integer form over den = |k|**s, s = max(0, -min e)."""
    if k == 0:
        raise ComplexError("Psi_0 is not defined")
    s = -min([0, *exponents])
    den = k ** s
    sign = 1 if den > 0 else -1
    return SparseMatrix(len(exponents), len(exponents), integer=(
        sign * den, {(i, i): sign * k ** (e + s)
                     for i, e in enumerate(exponents)}))


def _assemble(rows, cols, pieces):
    """The rows x cols matrix of the pieces (matrix, i0, j0), each placed
    with its (0, 0) entry at (i0, j0), in integer form over their common
    denominator; with no piece, the shared zero of its shape."""
    if not pieces:
        return SparseMatrix.zero(rows, cols)
    forms = [(m.integer(), i0, j0) for m, i0, j0 in pieces]
    den = math.lcm(*[d for (d, _), _, _ in forms])
    nums = {}
    for (d, part), i0, j0 in forms:
        s = den // d
        nums.update({(i + i0, j + j0): v * s for (i, j), v in part.items()})
    return SparseMatrix(rows, cols, integer=(den, nums))


def _slot_complex(M, slot_table):
    """delta + beta of M restricted to a table of slots.

    slot_table maps each of a run of consecutive degrees r to its slots,
    blocks (m, p) of M.  The result has degree-r labels (m, label) in
    slot order, and d^r is M.block_matrix from the degree-r slots into
    the degree-(r + 1) ones: an image landing in a block with no slot
    there is dropped.
    """
    labels = {r: [(m, lab) for m, p in slots for lab in M.blocks[(m, p)]]
              for r, slots in slot_table.items()}
    return CochainComplex(labels, {
        r: M.block_matrix(slot_table[r + 1], slot_table[r])
        for r in sorted(slot_table)[:-1]})


def _slot_basis(M, r, kind, w):
    """Slots, blocks (m, p) of M, of the degree-r slice of a band.

    kind: "plus" (m <= r), "minus" (m >= r), "periodic" (all m) or
    "slice" (m = r); w is the effective weight, so slot m carries weight
    p = w + (r - m)/2.  Slots run over 0 <= m <= M.top with m = r mod 2
    and p >= 0, and are the blocks of M among them.
    """
    lo = max(r if kind in ("minus", "slice") else 0, 0)
    hi = min(r if kind in ("plus", "slice") else M.top, M.top, r + 2 * w)
    return [(m, w + (r - m) // 2) for m in range(lo + (r - lo) % 2, hi + 1, 2)
            if (m, w + (r - m) // 2) in M.blocks]


def band_complex(M, w, kind, r_min, r_max):
    """Effective-weight-w band of the +, - or 2-periodic complex, or the
    weight-w slice of (C, delta) (kind "slice").

    Returns a CochainComplex over degrees r_min..r_max whose degree-r
    labels are (m, original label): the slot of underlying degree m.  The
    differential is delta + beta restricted to the band; a beta image
    falling below the band (possible only for "minus" at its bottom slot,
    and everywhere for "slice") is dropped, exactly as in the defining
    formulas.
    """
    if kind not in ("plus", "minus", "periodic", "slice"):
        raise ComplexError(f"unknown band kind {kind!r}")
    return _slot_complex(
        M, {r: _slot_basis(M, r, kind, w) for r in range(r_min, r_max + 1)}
    )


def plus_complex(M):
    """Total +complex through degree M.top: degree r is the finite product
    of C^{r-2k}, k >= 0, with differential (delta w_{r-2j} + beta
    w_{r-2j+2}) in slot j."""
    return _slot_complex(M, {r: _plus_slots(M, r)
                             for r in range(M.top + 1)})


def _plus_slots(M, r):
    """Every block of C^m, m <= r and m = r mod 2: degree r of the
    +complex."""
    return [key for m in range(r % 2, r + 1, 2) for key in M.keys.get(m, ())]


def plus_power_matrix(M, k, r):
    """The +Psi_k matrix on degree r of the total +complex: slot of
    underlying degree m is scaled by k^((m-r)/2) times Psi_k."""
    return _powers(k, [(m - r) // 2 + p for m, p in _plus_slots(M, r)
                       for _ in M.blocks[(m, p)]])


def mapping_cone(f):
    """Cone of a chain map f: C1 -> C2, with the canonical maps.

    Cone^n = C2^n + C1^{n+1}, d = [[d2, f], [0, -d1]].  Returns
    (cone, include: C2 -> cone, project: cone -> C1[1]), where the
    degree-n piece of C1[1] is C1^{n+1} with differential -d1.  Labels
    are tagged (0, label2) and (1, label1), so both maps are label maps.
    C1[1] shares C1's cohomology: its H^n is C1's H^{n+1} (Weibel, An
    Introduction to Homological Algebra, 1.5).
    """
    c1, c2 = f.source, f.target
    degrees = sorted(set(c1.degrees) | set(c2.degrees) | {n - 1 for n in c1.degrees})
    labels = {}
    for n in degrees:
        labs = [(0, lab) for lab in c2.labels.get(n, [])] + [
            (1, lab) for lab in c1.labels.get(n + 1, [])
        ]
        if labs:
            labels[n] = labs
    # -d1 is the differential of C1[1], and a block of the cone's
    minus_d1 = {n - 1: c1.d(n).scale(-1) for n in c1.degrees}
    diff = {}
    for n in degrees:
        a, b = c2.dim(n), c2.dim(n + 1)
        pieces = [(c2.d(n), 0, 0), (f.matrix(n + 1), 0, a)]
        if n in minus_d1:
            pieces.append((minus_d1[n], b, a))
        diff[n] = _assemble(b + c1.dim(n + 2), a + c1.dim(n + 1), pieces)
    cone = CochainComplex(labels, diff)
    shifted = CochainComplex(
        {n - 1: [(1, lab) for lab in c1.labels[n]] for n in c1.degrees},
        minus_d1, shares=(c1, -1, -math.inf, math.inf),
    )
    include = label_map(c2, cone, lambda n, lab: (0, lab))
    project = label_map(cone, shifted,
                        lambda n, lab: lab if lab[0] == 1 else None)
    return cone, include, project


class ShortExactSequence:
    """0 -> A -> B -> C -> 0 of cochain complexes, verified degreewise."""

    def __init__(self, incl, proj, degrees):
        if incl.target is not proj.source:
            raise ComplexError("inclusion target differs from projection source")
        self.incl = incl
        self.proj = proj
        a, b, c = incl.source, incl.target, proj.target
        self.a, self.b, self.c = a, b, c
        for n in degrees:
            # proj.incl maps A^n to C^n: zero where either is 0
            if (a.dim(n) and c.dim(n)
                    and not (proj.matrix(n) @ incl.matrix(n)).is_zero()):
                raise ConsistencyError("proj.incl != 0", n)
            ri = linalg.rank(incl.matrix(n))
            rp = linalg.rank(proj.matrix(n))
            if ri != a.dim(n):
                raise ConsistencyError("inclusion not injective", n)
            if rp != c.dim(n):
                raise ConsistencyError("projection not surjective", n)
            if a.dim(n) + c.dim(n) != b.dim(n):
                raise ConsistencyError("dimensions do not add up", n)
        self._connecting = {}

    def connecting(self, r):
        """H^r(C) -> H^{r+1}(A) by the zig-zag lift: lift a C-cocycle to B,
        apply d, pull back along the inclusion."""
        if r in self._connecting:
            return self._connecting[r]
        hc = self.c.cohomology(r)
        ha = self.a.cohomology(r + 1)
        if not hc.dim:
            # out of a zero group: nothing to lift
            self._connecting[r] = SparseMatrix.zero(ha.dim, 0)
            return self._connecting[r]
        lifts = linalg.solve(self.proj.matrix(r), hc.representatives)
        if None in lifts:
            raise ConsistencyError("cocycle fails to lift", r)
        d_b = self.b.d(r)
        pulled = linalg.solve(self.incl.matrix(r + 1),
                              [d_b.apply(b) for b in lifts])
        if None in pulled:
            raise ConsistencyError("d(lift) not in the subcomplex", r)
        # in a zero ambient every pulled vector is 0, a class with no
        # coordinates
        cols = ha.coordinates(pulled) if ha.ambient else [{}] * len(pulled)
        if None in cols:
            raise ConsistencyError("connecting image not a cocycle", r)
        self._connecting[r] = SparseMatrix.from_columns(ha.dim, cols)
        return self._connecting[r]

    def les(self, r_min, r_max):
        """The long exact sequence as (node names, dims, maps).

        Nodes run ... H^r(A) -> H^r(B) -> H^r(C) -> H^{r+1}(A) ... for
        r in r_min..r_max; maps[i] goes from node i to node i+1.
        """
        names = []
        dims = []
        maps = []
        for r in range(r_min, r_max + 1):
            names += [("A", r), ("B", r), ("C", r)]
            dims += [
                self.a.betti(r),
                self.b.betti(r),
                self.c.betti(r),
            ]
            maps.append(self.incl.induced(r))
            maps.append(self.proj.induced(r))
            if r < r_max:
                maps.append(self.connecting(r))
        return names, dims, maps


def les_audit(names, dims, maps):
    """The nodes at which a finite stretch of a long sequence is not exact.

    At each interior node the consecutive composite must vanish and
    rank(incoming) + rank(outgoing) must equal the node dimension.
    Endpoint nodes are not checked (their exactness is not determined by
    the data).  A witness names the node and its degree.
    """
    ranks = [linalg.rank(m) for m in maps]
    bad = []
    for i in range(1, len(dims) - 1):
        into, out = maps[i - 1], maps[i]
        # a composite through a zero group is zero: its ranks decide
        through_zero = not (into.rows or out.cols)
        if not ((through_zero or (out @ into).is_zero())
                and ranks[i - 1] + ranks[i] == dims[i]):
            bad.append({"check": "not exact", "degree": names[i][1],
                        "node": names[i][0]})
    return bad


def ladder_audit(top, bottom, verticals, r_hi):
    """Audit a morphism of short exact sequences over degrees 1..r_hi.

    top and bottom are the rows 0 -> A_i -> B_i -> C_i -> 0; verticals is
    the triple of chain maps (va, vb, vc) from the top row to the bottom
    one.  Both long exact sequences go through les_audit, and the three
    squares vb.i1 = i2.va, vc.p1 = p2.vb and va.delta1 = delta2.vc are
    checked as identities of induced matrices, degree by degree up to the
    first that fails.  Returns the witnesses: the nodes of either row that
    are not exact, and the first square that does not commute.  When the
    two rows are one object its sequence is audited once, and each of its
    witnesses is reported for row 1 and for row 2.
    """
    va, vb, vc = verticals
    rows = [les_audit(*top.les(1, r_hi))]
    rows.append(rows[0] if bottom is top else les_audit(*bottom.les(1, r_hi)))
    bad = [dict(w, check=f"row {row} {w['check']}")
           for row, ws in enumerate(rows, 1) for w in ws]

    def differ(f, g, h, k):
        """Whether f.g != h.k.  Two composites of one empty shape, from a
        source or into a target group of dimension 0, are equal zeros."""
        if (f.cols == g.rows and h.cols == k.rows and not (f.rows and g.cols)
                and (f.rows, g.cols) == (h.rows, k.cols)):
            return False
        return f @ g != h @ k

    for r in range(1, r_hi + 1):
        squares = [
            ("vb.i1 = i2.va", differ(vb.induced(r), top.incl.induced(r),
                                     bottom.incl.induced(r), va.induced(r))),
            ("vc.p1 = p2.vb", differ(vc.induced(r), top.proj.induced(r),
                                     bottom.proj.induced(r), vb.induced(r))),
        ]
        if r < r_hi:
            squares.append(("va.delta1 = delta2.vc", differ(
                va.induced(r + 1), top.connecting(r),
                bottom.connecting(r), vc.induced(r))))
        failing = [name for name, differs in squares if differs]
        if failing:
            bad.append({"check": "square does not commute", "degree": r,
                        "square": failing[0]})
            break
    return bad


@audit("interior-acyclicity lemma")
def beta_acyclic_check(M):
    """Audit of beta-acyclicity and the resulting +cohomology
    identification.

    A mixed complex is beta-acyclic when ker(beta) = im(beta) in every
    degree (in degree 0: beta: C^1 -> C^0 is surjective).  In that case
    (Im beta, delta) computes the +cohomology; both sides are compared
    dimensionwise in the window where each is exact.  With beta
    identically zero on a nonzero complex the audit is skipped.
    """
    if all(M.beta_m(n).is_zero() for n in range(1, M.top + 1)) and any(
        M.dim(n) for n in M.labels
    ):
        raise Skip("beta is identically zero on a nonzero complex")
    bad = [{"check": "ker beta != im beta", "degree": n}
           for n in range(0, M.top)
           if linalg.nullity(M.beta_m(n)) != linalg.rank(M.beta_m(n + 1))]

    # (Im beta, delta) as a cochain complex
    im_bases = {}
    for n in range(0, M.top):
        im_bases[n] = linalg.image_basis(M.beta_m(n + 1))
    im_labels = {n: [("im", n, j) for j in range(len(b))] for n, b in im_bases.items()}
    im_diff = {}
    for n in range(0, M.top - 1):
        if not im_bases[n]:
            im_diff[n] = SparseMatrix.zero(len(im_bases[n + 1]), 0)
            continue
        tgt = SparseMatrix.from_columns(M.dim(n + 1), im_bases[n + 1])
        delta = M.delta_m(n)
        cols = linalg.solve(tgt, [delta.apply(v) for v in im_bases[n]])
        if None in cols:
            raise ConsistencyError("delta leaves Im(beta)", n)
        im_diff[n] = SparseMatrix.from_columns(len(im_bases[n + 1]), cols)
    im_complex = CochainComplex(im_labels, im_diff)

    plus = plus_complex(M)
    for r in range(0, max(0, M.top - 1)):
        im, full = im_complex.betti(r), plus.betti(r)
        if im != full:
            bad.append({"check": f"dim H(Im beta) {im} != dim +H {full}",
                        "degree": r})
    return bad
