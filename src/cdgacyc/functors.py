"""Cohomology functors of a free connected CDGA via its free-loop complex.

HH is the cohomology of the loop complex itself; CH of its +complex; PH
the colimit of CH under the degree +2 inclusion S, read off the CH table;
SH the cohomology of the cone over the zero-weight comparison map into
the periodic complex of the base.  All computations are organized by
effective weight, where each derived complex is an honest finite complex,
and come with certification flags recording when a reported number is
provably unaffected by the degree cutoff.  Every functor and audit
takes one LoopContext, which fixes the algebra and both cutoffs.  Every
table and audit reads the loop complex only through degree cutoff + 1.

Every audit returns a complexes.Audit record; audits(ctx) returns those
of the check command.
"""

from fractions import Fraction

from cdgacyc import linalg
from cdgacyc.complexes import (
    CochainComplex,
    ConsistencyError,
    Skip,
    audit,
    _slot_basis,
    band_complex,
    beta_acyclic_check,
    label_inclusion,
    label_map,
    label_projection,
    ladder_audit,
    located,
    mapping_cone,
    plus_complex,
    plus_power_matrix,
    shift_complex,
    ShortExactSequence,
)
from cdgacyc.free_loop import base_cochain, free_loop, ideals, u_model
from cdgacyc.gralg import FreeCDGA
from cdgacyc.linalg import SparseMatrix
from cdgacyc.minimal_model import FiniteCDGA, build_minimal_model


class FunctorError(Exception):
    pass


class CohomologyTable:
    """Per-degree totals with their per-weight breakdown, which must sum
    to the total unless it is empty (a table with no weights)."""

    def __init__(self, name=""):
        self.name = name
        self.rows = {}

    def set_row(self, n, total, weights, certified):
        if weights and sum(weights.values()) != total:
            raise FunctorError(
                f"{self.name} degree {n}: total {total} != weight sum")
        weights = {w: d for w, d in weights.items() if d}
        self.rows[n] = {"total": total, "weights": weights, "certified": certified}

    @property
    def degrees(self):
        return sorted(self.rows)

    def total(self, n):
        return self.rows[n]["total"]

    def weights(self, n):
        return self.rows[n]["weights"]

    def weight(self, n, w):
        return self.weights(n).get(w, 0)

    def certified(self, n):
        return self.rows[n]["certified"]

    def to_json(self):
        return {
            "degrees": [
                {
                    "n": n,
                    "total": self.total(n),
                    "weights": {str(w): d for w, d in self.weights(n).items()},
                    "certified": self.certified(n),
                }
                for n in self.degrees
            ]
        }


class LoopContext:
    """The one handle every functor and audit takes.  It owns the free
    algebra, the degree cutoff and the weight cutoff (on ``loop``), and
    builds each derived complex once: the loop mixed complex, the base
    complex, the +complex, the bands and the comparison cones.

    A finite input is replaced by its minimal model, built here with the
    builder's seed.  The loop complex through degree cutoff + 1 reads
    every generator of degree <= cutoff + 2 (its barred partner lies in
    degree cutoff + 1), and the builder at cutoff c adjoins generators
    through degree c - 1, so the model is built at cutoff + 3.

    The mixed complex and the +complex are built once, through degree
    cutoff + 1, which covers every degree HH, CH, PH, SH, euler and
    check read; its blocks (n, p) say which weights each degree has.
    band(w, kind) is the one "plus" band or slice of weight w, built
    through cutoff + 1 once per distinct table of (m, p) slots (its
    degree-r piece reads the mixed complex only in degrees <= r).  A
    reader of fewer degrees takes its truncation, which shares the
    band's matrices and its cohomology below that top.  fig2_audit
    builds the periodic and minus bands, which are not kept.

    The base complex is built once, through base_top = cutoff + 2 + 2W,
    where W = max(cutoff - 2, cutoff//2 + 1, 2) is the largest weight of
    a cone: SH reads weights w <= max(r - 2, (bound - r)//2 + 1) with r
    and bound <= cutoff, fig7_audit w <= max(2, bound//2 + 1), and the
    base block of _sh_band(w) reads base labels through cutoff + 2 + 2w
    and H^n for n <= cutoff + 1 + 2w.  SH's skip test reads H^n for n <=
    3 cutoff - 4, every other reader below cutoff + 1.  A degree past
    base_top would read as zero, so base_betti and _base_block raise.

    truncated says why an audit that expects the untruncated loop complex
    skips, or is None.
    """

    def __init__(self, algebra, cutoff, weight_cutoff=None, seed=None):
        if isinstance(algebra, FiniteCDGA):
            algebra, _ = build_minimal_model(algebra, cutoff + 3, seed=seed)
        if not isinstance(algebra, FreeCDGA):
            raise FunctorError("expected a free or finite CDGA")
        self.algebra = algebra
        self.cutoff = cutoff
        self.loop = free_loop(algebra, weight_cutoff=weight_cutoff)
        complete = self.loop.complete_through
        self.truncated = None if complete >= cutoff + 1 else (
            f"the weight cutoff {weight_cutoff} truncates the loop complex "
            f"from degree {complete + 1}")
        self._mixed = None
        self._cochain = None
        self._base = None
        self.base_top = cutoff + 2 + 2 * max(cutoff - 2, cutoff // 2 + 1, 2)
        self._plus = None
        self._bands = {}
        self._tables = {}
        self._cones = {}

    def mixed(self):
        if self._mixed is None:
            self._mixed = self.loop.mixed_complex(self.cutoff + 1)
        return self._mixed

    def cochain(self):
        """(C, delta) of the loop mixed complex, for HH and t4_audit."""
        if self._cochain is None:
            self._cochain = self.mixed().cochain()
        return self._cochain

    def base(self):
        if self._base is None:
            self._base = base_cochain(self.algebra, self.base_top)
        return self._base

    def base_betti(self, n):
        """dim H^n of the base complex (0 for n < 0); it needs d^n."""
        if n >= self.base_top:
            raise ConsistencyError("base H^n read past the base", n)
        return self.base().betti(n) if n >= 0 else 0

    def plus(self):
        if self._plus is None:
            self._plus = plus_complex(self.mixed())
        return self._plus

    def band(self, w, kind):
        """The "plus" band or "slice" of weight w through cutoff + 1."""
        if (w, kind) not in self._bands:
            M = self.mixed()
            slots = tuple(tuple(_slot_basis(M, r, kind, w))
                          for r in range(self.cutoff + 2))
            if slots not in self._tables:
                self._tables[slots] = band_complex(M, w, kind, 0,
                                                   self.cutoff + 1)
            self._bands[w, kind] = self._tables[slots]
        return self._bands[w, kind]

    def base_bound(self):
        """(largest degree with nonzero base cohomology within the window,
        vanishing-window certificate).  The certificate holds when the base
        cohomology vanishes on a top window of width max generator degree
        plus one, which is the boundedness evidence all tail arguments use.
        """
        top = self.cutoff + 1
        betti = {n: self.base_betti(n) for n in range(top)}
        g = self.algebra.max_generator_degree()
        window = range(max(0, top - 1 - g), top)
        certified = all(betti[m] == 0 for m in window) and top - 1 - g > 0
        bound = max((n for n, d in betti.items() if d), default=-1)
        return bound, certified


def HH(ctx):
    """Loop-complex cohomology with its weight decomposition.

    Totals come from the full complex, per-weight dimensions from the
    weight slices, one per block (n, p); their agreement is asserted (the
    slices partition the complex and the differential preserves weight).
    Row n is certified when the weight cutoff drops no monomial through
    degree n + 1.
    """
    M = ctx.mixed()
    C = ctx.cochain()
    table = CohomologyTable("HH")
    for n in range(ctx.cutoff + 1):
        weights = {p: ctx.band(p, "slice").betti(n) for _, p in M.keys[n]}
        table.set_row(n, C.betti(n), weights,
                      certified=n + 1 <= ctx.loop.complete_through)
    return table


def CH(ctx):
    """+complex cohomology, decomposed by effective weight (an integer:
    the unit tower contributes negative weights): w = p - (n - m)/2 for
    the blocks (m, p), m <= n and m = n mod 2, the slots of degree n.
    Row n is certified when the weight cutoff drops no monomial through
    degree n + 1."""
    M = ctx.mixed()
    table = CohomologyTable("CH")
    for n in range(ctx.cutoff + 1):
        ws = sorted({p - (n - m) // 2 for m in range(n % 2, n + 1, 2)
                     for _, p in M.keys[m]})
        weights = {w: ctx.band(w, "plus").betti(n) for w in ws}
        table.set_row(n, sum(weights.values()), weights,
                      certified=n + 1 <= ctx.loop.complete_through)
    return table


def K_groups(ctx):
    """The even/odd products of base cohomology.

    K^r sums dim H^m(base) over m of the parity of r; finiteness rests on
    the vanishing-window certificate of the base cohomology.
    """
    betti = [ctx.base_betti(n) for n in range(ctx.cutoff + 1)]
    even, odd = sum(betti[0::2]), sum(betti[1::2])
    return {
        "even": even,
        "odd": odd,
        "certified": ctx.base_bound()[1],
    }


def PH(ctx):
    """Colimit of CH^{r+2k} along S, read off the CH table.

    S includes the +band of weight w + 1 in degree n - 2 into the +band
    of weight w in degree n as the slots of the same (m, p), so PH^r is
    the sum over w of colim_k CH^{r+2k}(w - k), and

        PH^r(w) = CH^{r+2k}(w - k),  k = max(w, 0),

    for w from -(r//2) to (cutoff - r)//2.

    Stable level.  In the long exact sequence of
    0 -> +C^{*-2}(v+1) -S-> +C^*(v) -> C^*(v) -> 0 (row 1 of fig2_audit),
    S is an isomorphism when v < 0: the slices HH^{n-1}(v) and HH^n(v)
    are empty, since every weight is >= 0.  In the chain for w the step
    from level k to k + 1 has v = w - k - 1, so the chain is constant
    from k = max(w, 0) on.

    Tail.  At that level the +band has the slots of the periodic band of
    weight w around degree r: slot m carries p = w + (r - m)/2 >= 0, so
    m <= r + 2w, and the +band cap m <= r + 2k no longer binds.  Filter
    that band by s = m + p, which is finite in each degree: beta keeps s
    and delta raises it by 1.  E1 is then the beta-cohomology of
    L[V + Vbar], which over Q is the unit alone (the Poincare lemma; check
    audits it as the interior-acyclicity lemma), and the unit (m = p = 0)
    lies in the band only when w = -r/2.  So PH^r(w) = 0 for w != -r/2,
    which covers the weights above (cutoff - r)//2 that are not read;
    below -(r//2) the band is empty.

    Row r is certified when every CH row it reads is certified.
    """
    cutoff = ctx.cutoff
    ch = CH(ctx)
    table = CohomologyTable("PH")
    for r in range(cutoff + 1):
        reads = {w: (r + 2 * max(w, 0), w - max(w, 0))
                 for w in range(-(r // 2), (cutoff - r) // 2 + 1)}
        weights = {w: ch.weight(n, v) for w, (n, v) in reads.items()}
        table.set_row(r, sum(weights.values()), weights,
                      certified=all(ch.certified(n) for n, _ in reads.values()))
    return table


def _base_block(ctx, w, top):
    """The periodic complex of (base, d, 0) at effective weight w: the
    single block base^{r+2w} in degree r, labels tagged ("b", monomial).

    It is the base complex shifted by -2w on degrees -1..top, on the
    base's own matrices, so below top its H^r is the base's H^{r+2w} in
    every degree; degree -1 carries base^{2w-1} and d^{2w-1}, which the
    cone's H^0 reads."""
    if top + 2 * w > ctx.base_top:
        raise ConsistencyError("base block reads past the base", top + 2 * w)
    base = ctx.base()
    labels = {r: [("b", mono) for mono in base.labels.get(r + 2 * w, [])]
              for r in range(-1, top + 1)}
    diff = {r: base.d(r + 2 * w) for r in range(-1, top)}
    return CochainComplex(labels, diff, shares=(base, -2 * w, 0, top))


def _top_slot(ctx, w):
    """The comparison rule at effective weight w: a +band label (m, mono)
    in degree r goes to the base block label ("b", mono) when it sits in
    the top slot m = r + 2w and has weight 0, a base monomial, and to
    zero otherwise."""
    loop = ctx.loop

    def image(r, lab):
        m, mono = lab
        if m == r + 2 * w and loop.weight(mono) == 0:
            return ("b", mono)
        return None

    return image


def _sh_band(ctx, w):
    """The comparison map Ibar at effective weight w and its cone, as
    (Ibar, cone, include, project), built once per weight.

    Source: the degree-r piece is the +band of effective weight w + 1 at
    level r - 2, for r <= cutoff + 2.  Target: the base block (weight-0
    projection of the top slot) on degrees -1..cutoff + 2.

    One cone serves every SH^r(w), r <= cutoff.  Its H^r reads cone
    degrees r - 1..r + 1, that is the source +band through degree r and
    the target through degree r + 1.  A +band's degree-r piece reads the
    mixed complex only in degrees <= r, and the base block's reads
    base^{r+2w}, all of which the larger top covers.  So the cone built
    at top cutoff + 1 has the same degrees r - 1..r + 1 as one built at
    top r + 1, and the same H^r.
    """
    if w not in ctx._cones:
        top = ctx.cutoff + 1
        source = shift_complex(ctx.band(w + 1, "plus").truncated(top - 1), 2)
        f = label_map(source, _base_block(ctx, w, top + 1),
                      _top_slot(ctx, w), check_degrees=range(0, top))
        ctx._cones[w] = (f, *mapping_cone(f))
    return ctx._cones[w]


def SH(ctx):
    """Cohomology of the cone over the zero-weight comparison map.

    Per weight w the cone pairs the base block in degree r+2w with the
    +band of weight w+1 one level down; one cone per weight gives SH^r(w)
    for every r (see _sh_band).  The block's H^r is the base's H^{r+2w}
    in every degree, so in the cone's long exact sequence SH^r(w) sits
    between H^{r+2w}(base) and CH^{r-1}(w+1): a weight where both vanish
    is skipped, exactly, as zero, and the others are read off the cone.
    In degree 0 the source terms CH^{-2} and CH^{-1} vanish, so SH^0(w)
    is H^{2w}(base): SH^0 = K^0, the sum of the even Betti numbers of the
    base, once the base cohomology vanishes past bound.  Rows are
    certified by the base vanishing window, and only when the weight
    cutoff drops no monomial through degree cutoff + 1, the top degree the
    bands read.
    """
    cutoff = ctx.cutoff
    bound, base_cert = ctx.base_bound()
    certified = base_cert and cutoff + 1 <= ctx.loop.complete_through
    table = CohomologyTable("SH")
    for r in range(cutoff + 1):
        weights = {}
        w_lo = -((r + 1) // 2) - 1
        w_hi = max(r - 2, (bound - r) // 2 + 1, w_lo)
        for w in range(w_lo, w_hi + 1):
            ch_next = ctx.band(w + 1, "plus").betti(r - 1) if r >= 1 else 0
            if ch_next == 0 and ctx.base_betti(r + 2 * w) == 0:
                continue
            d = _sh_band(ctx, w)[1].betti(r)
            if d:
                weights[w] = d
        table.set_row(r, sum(weights.values()), weights, certified=certified)
    return table


@audit("SH dimension identity")
def theorem2_check(ctx):
    """dim SH^r = dim K~^r + dim CH~^{r-1} in every certified degree,
    where ~ marks reduction by the one-point algebra.  A witness is a
    degree where the two sides differ; with no certified degree the
    audit is skipped.

    The one-point algebra adds its unit to K^r for even r, so
    K~^r = K^r - [r even], and CH~^n = CH^n - [n even] by this lemma:
    the +band of weight -n/2 in degree n is the unit block (0, 0) alone
    (slot m carries p = -m/2), and degree n - 1 has no slot, since
    there p = -(m+1)/2 < 0; delta and beta of the unit vanish, so the
    unit is a cocycle that is never a coboundary.  So the identity reads
    dim SH^r = dim K^r + dim CH^{r-1} - 1 for r >= 1.
    """
    sh = SH(ctx)
    k = K_groups(ctx)
    ch = CH(ctx)
    rows = [r for r in range(1, ctx.cutoff + 1)
            if sh.certified(r) and k["certified"] and ch.certified(r - 1)]
    if not rows:
        raise Skip("no degree from 1 to the cutoff has certified SH, K and "
                   "CH rows")
    kbar = (k["even"] - 1, k["odd"])
    chbar = {r: ch.total(r - 1) - r % 2 for r in rows}
    return [{"check": f"dim SH {sh.total(r)} != dim K~ {kbar[r % 2]} + "
                      f"dim CH~ {chbar[r]}", "degree": r}
            for r in rows if sh.total(r) != kbar[r % 2] + chbar[r]]


@audit("long exact sequences (rows and verticals)")
def fig2_audit(ctx):
    """Exactness and commutativity audit of the two standard long exact
    sequences of the loop mixed complex, per effective weight.

    Row 1: 0 -> +C^{*-2}(w+1) -> +C^*(w) -> C^*(w) -> 0.
    Row 2: 0 -> +C^{*-2}(w+1) -> PC^*(w) -> -C^*(w) -> 0.
    The verticals between the rows are the identity on the first node,
    the inclusion +C -> PC and the top-slot inclusion C -> -C; the rows
    and squares are one ladder_audit, whose witnesses carry their weight;
    an inconsistency raised at one weight is that weight's witness.
    Also checks the intertwining of S with the power maps on the total
    +complex.  Below cutoff 2 no degree is compared, and the audit is
    skipped.
    """
    cutoff = ctx.cutoff
    if cutoff < 2:
        raise Skip(f"cutoff {cutoff} leaves no degree to compare")
    top = cutoff + 1
    M = ctx.mixed()
    bad = []
    for w in range(-(cutoff // 2) - 1, cutoff // 2 + 2):
        # certified stretch for the minus/periodic bands
        r_hi = min(cutoff - 1, top - 2 * w - 2)
        if r_hi >= 1:
            bad += [dict(x, weight=w)
                    for x in located(_fig2_weight, ctx, w, r_hi)]

    # intertwining on the total +complex: S . +Psi_k = k . +Psi_k . S,
    # where S: +C^{*-2} -> +C^* is the slotwise inclusion
    plus = ctx.plus()
    lower = CochainComplex(
        {n + 2: v for n, v in plus.labels.items() if n + 2 <= top}, {})
    s = label_inclusion(lower, plus)
    for k in (2, 3):
        for r in range(2, cutoff + 1):
            psi_lo = plus_power_matrix(M, k, r - 2)
            psi_hi = plus_power_matrix(M, k, r)
            lhs = s.matrix(r) @ psi_lo
            rhs = (psi_hi @ s.matrix(r)).scale(k)
            if lhs != rhs:
                bad.append({"check": f"S.+Psi_{k} != {k}.+Psi_{k}.S",
                            "degree": r})
    return bad


def _fig2_weight(ctx, w, r_hi):
    top = r_hi + 2
    plus_w = ctx.band(w, "plus").truncated(top)
    plus_w1 = shift_complex(ctx.band(w + 1, "plus").truncated(r_hi), 2)
    slice_w = ctx.band(w, "slice").truncated(top)

    def row(middle, last):
        return ShortExactSequence(label_inclusion(plus_w1, middle),
                                  label_projection(middle, last),
                                  degrees=range(0, top))

    # for w <= 0 these are the plus band and the slice (row 2 is row 1); the
    # minus band is the periodic one's slots m >= r (labels ascend in m)
    per_w, minus_w = plus_w, slice_w
    if w > 0:
        per_w = minus_w = band_complex(ctx.mixed(), w, "periodic", 0, top)
        if any(labs and labs[0][0] < r for r, labs in per_w.labels.items()):
            minus_w = band_complex(ctx.mixed(), w, "minus", 0, top)
    row1 = row(plus_w, slice_w)
    row2 = row1 if w <= 0 else row(per_w, minus_w)
    verticals = (label_inclusion(plus_w1, plus_w1),
                 label_inclusion(plus_w, per_w),
                 label_inclusion(slice_w, minus_w))
    return ladder_audit(row1, row2, verticals, r_hi)


@audit("comparison diagram")
def fig7_audit(ctx):
    """Audit of the comparison diagram between the CH/HH sequence and the
    CH/K/SH sequence, per effective weight.

    Row 1 is the long exact sequence of the cone over the inclusion
    +C^{*-2}(w+1) -> +C^*(w); its cone node is identified with the loop
    cohomology slice by an explicit quasi-isomorphism (top-slot
    projection), whose induced matrices are checked invertible.  Row 2 is
    the long exact sequence of the cone over the zero-weight comparison
    map; its middle node is the periodic base complex, i.e. the K-groups
    per weight.  The rows and squares are one ladder_audit, and the
    triangle identity T^r . S^{r-2} = H(Ibar) ties the rows to the
    colimit defining PH.  Each witness carries its weight, and an
    inconsistency raised at one weight is that weight's witness.  Below
    cutoff 2 no degree is compared, and the audit is skipped.
    """
    cutoff = ctx.cutoff
    if cutoff < 2:
        raise Skip(f"cutoff {cutoff} leaves no degree to compare")
    bound, _ = ctx.base_bound()
    return [dict(x, weight=w)
            for w in range(-(cutoff // 2) - 1, max(2, bound // 2 + 1) + 1)
            for x in located(_fig7_weight, ctx, w)]


def _fig7_weight(ctx, w):
    r_hi = ctx.cutoff - 1
    band_w = ctx.band(w, "plus")
    band_w1 = shift_complex(ctx.band(w + 1, "plus").truncated(r_hi), 2)
    slice_w = ctx.band(w, "slice")

    # row 1: cone over the inclusion, plus the quasi-isomorphism onto the
    # loop-cohomology slice (the top slot of the +band part)
    incl = label_inclusion(band_w1, band_w)
    cone1, inc1, proj1 = mapping_cone(incl)
    ses1 = ShortExactSequence(inc1, proj1, degrees=range(0, r_hi + 2))
    q = label_map(cone1, slice_w,
                  lambda r, lab: lab[1] if lab[0] == 0 and lab[1][0] == r
                  else None,
                  check_degrees=range(0, r_hi + 2))
    bad = [{"check": "top-slot projection not a quasi-isomorphism",
            "degree": r}
           for r, m in enumerate(map(q.induced, range(1, r_hi + 1)), 1)
           if not (m.rows == m.cols and linalg.rank(m) == m.rows)]

    # row 2: cone over the zero-weight comparison map, shared with SH
    f2, cone2, inc2, proj2 = _sh_band(ctx, w)
    ses2 = ShortExactSequence(inc2, proj2, degrees=range(0, r_hi + 2))

    # verticals: T (the top-slot rule) on the CH node, the functorial cone
    # map on the middle node, the identity on the shifted CH node
    top_slot = _top_slot(ctx, w)
    t = label_map(band_w, f2.target, top_slot, check_degrees=range(0, r_hi + 1))

    def cone_image(r, lab):
        if lab[0] == 1:
            return lab
        image = top_slot(r, lab[1])
        return None if image is None else (0, image)

    vcone = label_map(cone1, cone2, cone_image,
                      check_degrees=range(0, r_hi + 1))
    bad += ladder_audit(
        ses1, ses2, (t, vcone, label_inclusion(proj1.target, proj2.target)),
        r_hi)

    # triangle: T^r . S^{r-2} equals the chain-level comparison H(Ibar)
    return bad + [{"check": "T.S != Ibar", "degree": r}
                  for r in range(1, r_hi + 1)
                  if t.matrix(r) @ incl.matrix(r) != f2.matrix(r)]


@audit("power map eigenstructure")
def t4_audit(ctx):
    """Eigenstructure audit of the induced power maps.

    (a) the induced matrices on HH^n and CH^n are annihilated by the
    product of (Psi - k^w) over the occurring weights and are
    diagonalizable with eigenspace dimensions equal to the weight-slice
    dimensions, identically for every k; (b) the weight-0 row of HH is
    the base cohomology; (c) slices with weight above the degree vanish;
    (d) the per-weight totals obey the (dim V)^w bound.  A witness is a
    check that fails, with its degree or weight.  Skipped when the weight
    cutoff truncates the loop complex.
    """
    if ctx.truncated:
        raise Skip(ctx.truncated)
    cutoff = ctx.cutoff
    M = ctx.mixed()
    C = ctx.cochain()
    plus = ctx.plus()
    hh = HH(ctx)
    ch = CH(ctx)
    bad = []

    def check(ok, what, **where):
        if not ok:
            bad.append({"check": what, **where})

    for k in (2, 3):
        for n in range(cutoff + 1):
            for name, cx, power, table in (
                ("HH", C, M.power_matrix(k, n), hh),
                ("CH", plus, plus_power_matrix(M, k, n), ch),
            ):
                psi = linalg.induced_map(power, cx.cohomology(n),
                                         cx.cohomology(n))
                ws = sorted(table.weights(n))
                check(
                    _annihilated(psi, [Fraction(k) ** w for w in ws]),
                    f"{name} Psi_{k} not annihilated by the weight spectrum",
                    degree=n,
                )
                dims = [_eigenspace_dim(psi, Fraction(k) ** w) for w in ws]
                check(
                    dims == [table.weight(n, w) for w in ws]
                    and sum(dims) == psi.rows,
                    f"{name} Psi_{k} eigenspaces differ from weight slices",
                    degree=n,
                )

    for n in range(cutoff + 1):
        check(hh.weight(n, 0) == ctx.base_betti(n),
              "HH(0) differs from base cohomology", degree=n)
        # the tables stop at weight n, so the bands are read directly
        vanish = all(ctx.band(p, kind).betti(n) == 0
                     for p in (n + 1, n + 2) for kind in ("slice", "plus"))
        check(vanish, "HH(p) or CH(p) nonzero for p > degree", degree=n)

    dim_v = len(ctx.algebra.algebra.generators)
    h_total = sum(ctx.base_betti(n) for n in range(cutoff + 1))
    for w in range(0, cutoff + 1):
        partial = sum(hh.weight(n, w) for n in range(cutoff + 1))
        check(partial <= (dim_v**w) * h_total,
              "total above (dim V)^w * total base cohomology", weight=w)
    return bad


@audit("circle model agrees with CH")
def circle_audit(ctx):
    """The circle model u_model, built independently of the +complex, has
    the Betti numbers of CH.  Skipped when the weight cutoff truncates the
    loop complex."""
    if ctx.truncated:
        raise Skip(ctx.truncated)
    um = u_model(ctx.loop, ctx.cutoff + 1)
    ch = CH(ctx)
    return [{"check": f"dim H(circle model) {um.betti(n)} != dim CH "
                      f"{ch.total(n)}", "degree": n}
            for n in range(ctx.cutoff + 1) if um.betti(n) != ch.total(n)]


@audit("interior-acyclicity lemma on the ideal")
def ideal_audit(ctx):
    """beta_acyclic_check on the augmentation ideal of the loop mixed
    complex.  Skipped when the weight cutoff truncates that complex."""
    if ctx.truncated:
        raise Skip(ctx.truncated)
    return beta_acyclic_check(ideals(ctx.mixed()))


def audits(ctx):
    """The records of the check command, in its order."""
    return [ctx.mixed().validate(ks=[-1, 2, 3, 6]),
            t4_audit(ctx), fig2_audit(ctx), fig7_audit(ctx),
            theorem2_check(ctx), circle_audit(ctx), ideal_audit(ctx)]


def _annihilated(m, eigenvalues):
    acc = SparseMatrix.identity(m.rows)
    for lam in eigenvalues:
        acc = (m - SparseMatrix.scalar(m.rows, lam)) @ acc
    return acc.is_zero()


def _eigenspace_dim(m, lam):
    return linalg.nullity(m - SparseMatrix.scalar(m.rows, lam))


def euler_series(ctx):
    """Per-weight Euler characteristics of HH and CH.

    chiH(w) = sum over i of (-1)^i dim HH^i(w); a coefficient is certified
    when every row it sums is certified and the weight slice has no
    cohomology in the top vanishing window (so nothing beyond the cutoff
    can contribute).  chiC is indexed by the integer effective weight;
    the unit tower contributes to negative weights.
    """
    cutoff = ctx.cutoff
    hh = HH(ctx)
    ch = CH(ctx)
    g = ctx.algebra.max_generator_degree()
    window = range(max(0, cutoff - g), cutoff + 1)
    rows = range(cutoff + 1)
    out = {"chiH": {}, "chiC": {}}
    for name, table, ws in (("chiH", hh, range(0, cutoff + 1)),
                            ("chiC", ch, range(-cutoff, cutoff + 1))):
        whole = all(table.certified(n) for n in rows)
        for w in ws:
            coeff = sum((-1) ** n * table.weight(n, w) for n in rows)
            certified = whole and all(table.weight(n, w) == 0
                                      for n in window)
            out[name][w] = {"value": coeff, "certified": certified}
    return out
