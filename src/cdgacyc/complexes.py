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

Slot tables: every band, weight slice and the total +complex is delta +
beta restricted to a table {r: [(m, indices)]} that lists, for each
degree r, the basis elements of C^m placed in it.  One builder,
_slot_complex, assembles all of them; the kinds differ only in their
tables (_slot_basis for bands and slices, all of C^{r-2k} for the
+complex).

Each invariant is checked once, in one place.  Inputs are validated where
they enter (the free CDGA, the finite CDGA and the loop algebra check
their axioms on generators or structure constants).  d.d = 0 is checked
only where cohomology is taken: linalg.cohomology_at raises for every
degree whose Betti number, representatives or induced map is computed,
so no complex is built with a check of degrees nobody reads.  The
matrix-level mixed-complex axioms are MixedComplex.validate, run as an
audit.

A truncation to a smaller top and an even shift are built on the same
matrices and share the cohomology cache of the complex they come from,
in every degree whose two differentials they share: only a
truncation's top degree, where its d is zero, is a subquotient of its
own.

Chain maps between labelled complexes come from one builder, label_map,
which sends each label to a label or to zero; inclusions, projections
and the canonical maps of a cone are label maps.  A diagram audit is
ladder_audit: a morphism of short exact sequences checked as both long
exact sequences plus the three squares.  Each induced map and each
connecting map is computed once per degree and cached, as cohomology
is, so the sequences and the squares share them.
"""

import math
from fractions import Fraction

from cdgacyc import linalg
from cdgacyc.linalg import SparseMatrix


class ComplexError(Exception):
    pass


class UnsupportedConfiguration(ComplexError):
    """The requested computation needs data the complex does not carry."""


class ConsistencyError(ComplexError):
    """Internal structure violated; carries a witness description."""


class CochainComplex:
    """Finitely supported cochain complex: labels and d^n: C^n -> C^{n+1}.

    shares=(c, s, below) declares that for every n < below this complex's
    d^{n-1} and d^n are c's d^{n-s-1} and d^{n-s}, the same matrices, so
    its H^n is c's H^{n-s} and is taken from c's cache.
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
            if self._shares is not None and n < self._shares[2]:
                c, s, _ = self._shares
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
            shares=(self, 0, top),
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
            lhs = self.matrix(n + 1) @ source.d(n)
            rhs = target.d(n) @ self.matrix(n)
            if lhs != rhs:
                raise ConsistencyError(f"map does not commute with d at {n}")
        self._induced = {}

    def matrix(self, n):
        if n in self.mats:
            return self.mats[n]
        return SparseMatrix.zero(self.target.dim(n), self.source.dim(n))

    def induced(self, n):
        if n not in self._induced:
            self._induced[n] = linalg.induced_map(
                self.matrix(n), self.source.cohomology(n),
                self.target.cohomology(n))
        return self._induced[n]


def shift_complex(c, s):
    """Complex whose degree-n piece is c^{n-s} (even shifts only, so the
    differential needs no sign change)."""
    if s % 2:
        raise ComplexError("only even shifts preserve the differential sign")
    return CochainComplex(
        {n + s: v for n, v in c.labels.items()},
        {n + s: m for n, m in c.diff.items()},
        shares=(c, s, math.inf),
    )


def label_map(source, target, image, check_degrees=()):
    """ChainMap sending the source label lab in degree n to the target label
    image(n, lab), or to zero where image returns None.  An image label
    missing from the target raises ComplexError."""
    mats = {}
    for n in source.degrees:
        index = {lab: i for i, lab in enumerate(target.labels.get(n, []))}
        entries = {}
        for j, lab in enumerate(source.labels[n]):
            t = image(n, lab)
            if t is None:
                continue
            if t not in index:
                raise ComplexError(f"label {t!r} missing in target at {n}")
            entries[(index[t], j)] = Fraction(1)
        mats[n] = SparseMatrix(target.dim(n), source.dim(n), entries)
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
    """(C, delta, beta) on degrees 0..top with weights and power maps.

    labels: dict degree -> list of labels.
    delta: dict degree n -> matrix C^n -> C^{n+1} (n in 0..top-1).
    beta: dict degree n -> matrix C^n -> C^{n-1} (n in 1..top).
    weights: dict degree -> list of nonnegative ints per label.
    Construction checks shapes only; validate() checks the axioms.
    """

    def __init__(self, labels, delta, beta, weights):
        self.labels = {n: list(v) for n, v in labels.items()}
        self.top = max(self.labels, default=0)
        self.delta = dict(delta)
        self.beta = dict(beta)
        self.weights = {n: list(v) for n, v in weights.items()}
        for n, m in self.delta.items():
            if m.rows != self.dim(n + 1) or m.cols != self.dim(n):
                raise ComplexError(f"delta at {n} has wrong shape")
        for n, m in self.beta.items():
            if m.rows != self.dim(n - 1) or m.cols != self.dim(n):
                raise ComplexError(f"beta at {n} has wrong shape")
        for n, v in self.labels.items():
            if len(self.weights.get(n, [])) != len(v):
                raise ComplexError(f"weight list at {n} has wrong length")

    def dim(self, n):
        return len(self.labels.get(n, ()))

    def delta_m(self, n):
        if n in self.delta:
            return self.delta[n]
        return SparseMatrix.zero(self.dim(n + 1), self.dim(n))

    def beta_m(self, n):
        if n in self.beta:
            return self.beta[n]
        return SparseMatrix.zero(self.dim(n - 1), self.dim(n))

    def validate(self, ks=()):
        """Axiom failures (empty list = all pass): delta^2 = 0, beta^2 = 0,
        delta beta + beta delta = 0, and the power-map relations for each
        k in ks, all as exact matrix identities inside the data window."""
        bad = []
        for n in range(0, self.top - 1):
            if not (self.delta_m(n + 1) @ self.delta_m(n)).is_zero():
                bad.append(f"delta.delta != 0 at degree {n}")
        for n in range(2, self.top + 1):
            if not (self.beta_m(n - 1) @ self.beta_m(n)).is_zero():
                bad.append(f"beta.beta != 0 at degree {n}")
        for n in range(1, self.top):
            anti = self.delta_m(n - 1) @ self.beta_m(n) + self.beta_m(
                n + 1
            ) @ self.delta_m(n)
            if not anti.is_zero():
                bad.append(f"delta.beta + beta.delta != 0 at degree {n}")
        for k in ks:
            if k == 0:
                raise ComplexError("Psi_0 is not defined")
            for n in range(0, self.top):
                if not self._scales_by(k, 1, n + 1, n, self.delta.get(n)):
                    bad.append(f"Psi_{k}.delta != delta.Psi_{k} at degree {n}")
            for n in range(1, self.top + 1):
                if not self._scales_by(k, k, n - 1, n, self.beta.get(n)):
                    bad.append(f"Psi_{k}.beta != k.beta.Psi_{k} at degree {n}")
        return bad

    def _scales_by(self, k, c, n_out, n_in, mat):
        """Whether Psi_k . mat = c . mat . Psi_k for mat: C^n_in -> C^n_out.

        The (i, j) entries of the two sides are k^{w_i} v and c v k^{w_j};
        a stored entry v is nonzero, so they agree iff k^{w_i} = c k^{w_j},
        an identity of integers (weights are nonnegative ints).
        """
        if mat is None or not mat.entries:
            return True
        left = [k ** w for w in self.weights[n_out]]
        right = [c * k ** w for w in self.weights[n_in]]
        return all(left[i] == right[j] for i, j in mat.entries)

    def weight_of(self, n, i):
        return self.weights[n][i]

    def weight_indices(self, n, p):
        return [i for i, q in enumerate(self.weights.get(n, [])) if q == p]

    def power_matrix(self, k, n):
        """Psi_k on C^n: diagonal k^weight."""
        if k == 0:
            raise ComplexError("Psi_0 is not defined")
        return SparseMatrix(
            self.dim(n),
            self.dim(n),
            {
                (i, i): _power(k, self.weight_of(n, i))
                for i in range(self.dim(n))
            },
        )

    def cochain(self):
        """(C, delta) as a plain cochain complex."""
        return CochainComplex(
            self.labels, {n: self.delta_m(n) for n in range(self.top)}
        )

    def coordinate_subcomplex(self, keep):
        """Mixed subcomplex spanned by the kept label indices.

        keep: dict degree -> sorted list of indices.  Raises if delta or
        beta carries a kept element outside the kept span.
        """
        labels = {n: [self.labels[n][i] for i in idx] for n, idx in keep.items()}
        weights = {n: [self.weights[n][i] for i in idx] for n, idx in keep.items()}

        def restrict(mat, n, n_out):
            kept_in = keep.get(n, [])
            kept_out = {i: r for r, i in enumerate(keep.get(n_out, []))}
            cols = mat.columns()
            entries = {}
            for c, i in enumerate(kept_in):
                for row, v in cols.get(i, ()):
                    if row not in kept_out:
                        raise ConsistencyError(
                            f"subcomplex not closed: degree {n} index {i} "
                            f"maps onto dropped index {row} at degree {n_out}"
                        )
                    entries[(kept_out[row], c)] = v
            return SparseMatrix(len(keep.get(n_out, [])), len(kept_in), entries)

        delta = {
            n: restrict(self.delta_m(n), n, n + 1)
            for n in range(self.top)
            if keep.get(n)
        }
        beta = {
            n: restrict(self.beta_m(n), n, n - 1)
            for n in range(1, self.top + 1)
            if keep.get(n)
        }
        return MixedComplex(labels, delta, beta, weights=weights)


def _power(k, e):
    """k**e as an exact Fraction, from integer powers (k a nonzero int)."""
    return Fraction(k ** e) if e >= 0 else Fraction(1, k ** -e)


def _slot_complex(M, slot_table):
    """delta + beta of M restricted to a table of slots.

    slot_table maps each of a run of consecutive degrees r to its slots
    [(m, indices)]: the listed basis elements of C^m.  The result has
    degree-r labels (m, label) in slot order.  An image landing in a slot
    degree outside that slot's indices breaks the grading and raises; an
    image landing in a degree with no slot is dropped.
    """
    labels = {
        r: [(m, M.labels[m][i]) for m, idx in slots for i in idx]
        for r, slots in slot_table.items()
    }
    diff = {}
    for r in sorted(slot_table)[:-1]:
        tgt_pos, rows = {}, 0
        for m, idx in slot_table[r + 1]:
            tgt_pos[m] = {i: rows + k for k, i in enumerate(idx)}
            rows += len(idx)
        entries, col = {}, 0
        for m, idx in slot_table[r]:
            for name, mat, m_out in (("delta", M.delta_m, m + 1),
                                     ("beta", M.beta_m, m - 1)):
                pos = tgt_pos.get(m_out)
                if pos is None:
                    continue
                columns = mat(m).columns()
                for c, i in enumerate(idx):
                    for row, v in columns.get(i, ()):
                        if row not in pos:
                            raise ConsistencyError(
                                f"{name} breaks the weight grading at degree {m}"
                            )
                        entries[(pos[row], col + c)] = v
            col += len(idx)
        diff[r] = SparseMatrix(rows, col, entries)
    return CochainComplex(labels, diff)


def _slot_basis(M, r, kind, w):
    """Slots (m, indices) of the degree-r slice of a band.

    kind: "plus" (m <= r), "minus" (m >= r), "periodic" (all m) or
    "slice" (m = r); w is the effective weight, so slot m carries weight
    p = w + (r - m)/2.  Slots run over 0 <= m <= M.top with m = r mod 2
    and p >= 0.
    """
    lo = r if kind in ("minus", "slice") else 0
    hi = r if kind in ("plus", "slice") else M.top
    slots = []
    for m in range(max(lo, 0), min(hi, M.top) + 1):
        p = w + (r - m) // 2
        if (r - m) % 2 or p < 0:
            continue
        idx = M.weight_indices(m, p)
        if idx:
            slots.append((m, idx))
    return slots


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


def plus_complex(M, r_min=0, r_max=None):
    """Total +complex: degree r is the finite product of C^{r-2k}, k >= 0,
    with differential (delta w_{r-2j} + beta w_{r-2j+2}) in slot j."""
    if r_max is None:
        r_max = M.top
    return _slot_complex(M, {
        r: [(m, range(M.dim(m))) for m in range(r % 2, r + 1, 2) if M.dim(m)]
        for r in range(r_min, r_max + 1)
    })


def plus_power_matrix(M, plus, k, r):
    """The +Psi_k matrix on degree r of the total +complex: slot of
    underlying degree m is scaled by k^((m-r)/2) times Psi_k."""
    if k == 0:
        raise ComplexError("Psi_0 is not defined")
    index = {}
    entries = {}
    for j, (m, lab) in enumerate(plus.labels.get(r, [])):
        if m not in index:
            index[m] = {label: i for i, label in enumerate(M.labels[m])}
        i = index[m][lab]
        entries[(j, j)] = _power(k, (m - r) // 2 + M.weight_of(m, i))
    return SparseMatrix(plus.dim(r), plus.dim(r), entries)


def mapping_cone(f):
    """Cone of a chain map f: C1 -> C2, with the canonical maps.

    Cone^n = C2^n + C1^{n+1}, d = [[d2, f], [0, -d1]].  Returns
    (cone, include: C2 -> cone, project: cone -> C1[1]), where the
    degree-n piece of C1[1] is C1^{n+1} with differential -d1.  Labels
    are tagged (0, label2) and (1, label1), so both maps are label maps.
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
    diff = {}
    for n in degrees:
        d2 = c2.d(n)
        d1 = c1.d(n + 1)
        fm = f.matrix(n + 1)
        rows = c2.dim(n + 1) + c1.dim(n + 2)
        cols = c2.dim(n) + c1.dim(n + 1)
        entries = {}
        for (i, j), v in d2.entries.items():
            entries[(i, j)] = v
        for (i, j), v in fm.entries.items():
            entries[(i, c2.dim(n) + j)] = v
        for (i, j), v in d1.entries.items():
            entries[(c2.dim(n + 1) + i, c2.dim(n) + j)] = -v
        diff[n] = SparseMatrix(rows, cols, entries)
    cone = CochainComplex(labels, diff)
    shifted = CochainComplex(
        {n - 1: [(1, lab) for lab in c1.labels[n]] for n in c1.degrees},
        {n - 1: c1.d(n).scale(-1) for n in c1.degrees},
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
            comp = proj.matrix(n) @ incl.matrix(n)
            if not comp.is_zero():
                raise ConsistencyError(f"proj.incl != 0 at degree {n}")
            ri = linalg.rank(incl.matrix(n))
            rp = linalg.rank(proj.matrix(n))
            if ri != a.dim(n):
                raise ConsistencyError(f"inclusion not injective at {n}")
            if rp != c.dim(n):
                raise ConsistencyError(f"projection not surjective at {n}")
            if a.dim(n) + c.dim(n) != b.dim(n):
                raise ConsistencyError(f"dimensions do not add up at {n}")
        self._connecting = {}

    def connecting(self, r):
        """H^r(C) -> H^{r+1}(A) by the zig-zag lift: lift a C-cocycle to B,
        apply d, pull back along the inclusion."""
        if r in self._connecting:
            return self._connecting[r]
        hc = self.c.cohomology(r)
        ha = self.a.cohomology(r + 1)
        lifts = linalg.solve(self.proj.matrix(r), hc.representatives)
        if None in lifts:
            raise ConsistencyError(f"cocycle fails to lift at degree {r}")
        d_b = self.b.d(r)
        pulled = linalg.solve(self.incl.matrix(r + 1),
                              [d_b.apply(b) for b in lifts])
        if None in pulled:
            raise ConsistencyError(f"d(lift) not in the subcomplex at {r}")
        cols = ha.coordinates(pulled)
        if None in cols:
            raise ConsistencyError(f"connecting image not a cocycle at {r}")
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
    """Exactness report for a finite stretch of a long sequence.

    Checks, at each interior node, that consecutive composites vanish and
    rank(incoming) + rank(outgoing) equals the node dimension.  Endpoint
    nodes are not checked (their exactness is not determined by the
    data).  Returns a dict with pass/fail and per-node findings.
    """
    ranks = [linalg.rank(m) for m in maps]
    findings = []
    ok = True
    for i in range(1, len(dims) - 1):
        comp_zero = (maps[i] @ maps[i - 1]).is_zero()
        exact = comp_zero and ranks[i - 1] + ranks[i] == dims[i]
        findings.append(
            {
                "node": names[i],
                "dim": dims[i],
                "rank_in": ranks[i - 1],
                "rank_out": ranks[i],
                "composite_zero": comp_zero,
                "exact": exact,
            }
        )
        ok = ok and exact
    return {"pass": ok, "nodes": findings}


def ladder_audit(top, bottom, verticals, r_hi):
    """Audit a morphism of short exact sequences over degrees 1..r_hi.

    top and bottom are the rows 0 -> A_i -> B_i -> C_i -> 0; verticals is
    the triple of chain maps (va, vb, vc) from the top row to the bottom
    one.  Both long exact sequences go through les_audit, and the three
    squares vb.i1 = i2.va, vc.p1 = p2.vb and va.delta1 = delta2.vc are
    checked as identities of induced matrices in every degree.
    """
    va, vb, vc = verticals
    row1 = les_audit(*top.les(1, r_hi))
    row2 = les_audit(*bottom.les(1, r_hi))
    squares = True
    for r in range(1, r_hi + 1):
        pairs = [
            (vb.induced(r) @ top.incl.induced(r),
             bottom.incl.induced(r) @ va.induced(r)),
            (vc.induced(r) @ top.proj.induced(r),
             bottom.proj.induced(r) @ vb.induced(r)),
        ]
        if r < r_hi:
            pairs.append((va.induced(r + 1) @ top.connecting(r),
                          bottom.connecting(r) @ vc.induced(r)))
        squares = squares and all(lhs == rhs for lhs, rhs in pairs)
    return {
        "row1": row1,
        "row2": row2,
        "squares": squares,
        "pass": row1["pass"] and row2["pass"] and squares,
    }


def beta_acyclic_check(M):
    """Check beta-acyclicity and the resulting +cohomology identification.

    A mixed complex is beta-acyclic when beta: C^1 -> C^0 is surjective
    and ker(beta) = im(beta) in every positive degree.  In that case
    (Im beta, delta) computes the +cohomology; the report compares both
    sides dimensionwise in the window where each is exact.
    """
    report = {"beta_acyclic": True, "degrees": {}, "dims_match": None}
    if all(M.beta_m(n).is_zero() for n in range(1, M.top + 1)) and any(
        M.dim(n) for n in M.labels
    ):
        report["beta_acyclic"] = False
        report["skipped"] = "beta is identically zero on a nonzero complex"
        return report
    for n in range(0, M.top):
        if n == 0:
            ok = linalg.rank(M.beta_m(1)) == M.dim(0)
        else:
            ok = (
                linalg.nullity(M.beta_m(n)) == linalg.rank(M.beta_m(n + 1))
            )
        report["degrees"][n] = ok
        report["beta_acyclic"] = report["beta_acyclic"] and ok

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
            raise ConsistencyError(f"delta leaves Im(beta) at degree {n}")
        im_diff[n] = SparseMatrix.from_columns(len(im_bases[n + 1]), cols)
    im_complex = CochainComplex(im_labels, im_diff)

    plus = plus_complex(M)
    window = range(0, max(0, M.top - 1))
    pairs = {
        r: (im_complex.betti(r), plus.betti(r)) for r in window
    }
    report["dims"] = pairs
    report["dims_match"] = all(a == b for a, b in pairs.values())
    return report
