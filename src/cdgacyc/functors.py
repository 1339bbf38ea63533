"""Cohomology functors of a free connected CDGA via its free-loop complex.

HH is the cohomology of the loop complex itself; CH of its +complex; PH
the colimit of CH under the degree +2 inclusion S, read off the CH table;
SH the cohomology of the cone over the zero-weight comparison map into
the periodic complex of the base.  All computations are organized by
effective weight, where each derived complex is an honest finite complex,
and come with certification flags recording when a reported number is
provably unaffected by the degree cutoff.  Every functor and audit
takes one LoopContext, which fixes the algebra and both cutoffs.  Every
table and audit reads the loop complex only through degree cutoff + 1;
the independent cross-check PH_periodic alone reads further.
"""

from fractions import Fraction

from cdgacyc import linalg
from cdgacyc.complexes import (
    CochainComplex,
    band_complex,
    label_inclusion,
    label_map,
    label_projection,
    ladder_audit,
    mapping_cone,
    plus_complex,
    plus_power_matrix,
    shift_complex,
    ShortExactSequence,
)
from cdgacyc.free_loop import base_cochain, free_loop
from cdgacyc.gralg import FreeCDGA
from cdgacyc.linalg import SparseMatrix
from cdgacyc.minimal_model import FiniteCDGA, build_minimal_model


class FunctorError(Exception):
    pass


class CohomologyTable:
    """Per-degree totals with their per-weight breakdown."""

    def __init__(self, name=""):
        self.name = name
        self.rows = {}

    def set_row(self, n, total, weights, certified):
        weights = {w: d for w, d in weights.items() if d}
        if sum(weights.values()) != total:
            raise FunctorError(
                f"{self.name} degree {n}: total {total} != weight sum")
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

    The mixed complex is built once, through max(top, cutoff + 1), which
    covers every degree HH, CH, PH, SH, euler and check read; only
    PH_periodic asks for more, and then it is rebuilt larger.  A "plus" or
    "slice" band's degree-r piece reads the mixed complex only in degrees
    <= r, so one band per (w, kind) is assembled, through cutoff + 1, and
    a reader with a smaller top gets its truncation, which shares the
    band's matrices and its cohomology below that top.  The base complex
    grows by the new degrees only, keeping its matrices and cohomology.
    """

    def __init__(self, algebra, cutoff, weight_cutoff=None, seed=None):
        if isinstance(algebra, FiniteCDGA):
            algebra, _ = build_minimal_model(algebra, cutoff + 3, seed=seed)
        if not isinstance(algebra, FreeCDGA):
            raise FunctorError("expected a free or finite CDGA")
        self.algebra = algebra
        self.cutoff = cutoff
        self.loop = free_loop(algebra, weight_cutoff=weight_cutoff)
        self._mixed = None
        self._cochain = None
        self._base = None
        self._base_top = -1
        self._plus = {}
        self._bands = {}
        self._cones = {}

    def mixed(self, top):
        if self._mixed is None or self._mixed.top < top:
            self._mixed = self.loop.mixed_complex(max(top, self.cutoff + 1))
        return self._mixed

    def cochain(self):
        """(C, delta) of the loop mixed complex, for HH and t4_audit."""
        if self._cochain is None:
            self._cochain = self.mixed(self.cutoff + 1).cochain()
        return self._cochain

    def base(self, top):
        # the complex drops empty degrees, so its labels do not record top
        if self._base_top < top:
            self._base = base_cochain(self.algebra, top, self._base)
            self._base_top = top
        return self._base

    def plus(self, top):
        if top not in self._plus:
            self._plus[top] = plus_complex(self.mixed(top), 0, top)
        return self._plus[top]

    def band(self, w, kind, top):
        key = (w, kind, top)
        if key not in self._bands:
            full = max(top, self.cutoff + 1)
            if top == full:
                self._bands[key] = band_complex(self.mixed(top), w, kind, 0,
                                                top)
            else:
                self._bands[key] = self.band(w, kind, full).truncated(top)
        return self._bands[key]

    def base_bound(self):
        """(largest degree with nonzero base cohomology within the window,
        vanishing-window certificate).  The certificate holds when the base
        cohomology vanishes on a top window of width max generator degree
        plus one, which is the boundedness evidence all tail arguments use.
        """
        top = self.cutoff + 1
        base = self.base(top)
        betti = {n: base.betti(n) for n in range(top)}
        g = self.algebra.max_generator_degree()
        window = range(max(0, top - 1 - g), top)
        certified = all(betti[m] == 0 for m in window) and top - 1 - g > 0
        bound = max((n for n, d in betti.items() if d), default=-1)
        return bound, certified


def hh_weight_range(n):
    """Weights that can occur in loop degree n (weight <= degree)."""
    return range(0, n + 1)


def ch_weight_range(n):
    """Effective weights that can occur in CH^n: a slot of underlying
    degree m <= n and weight p <= m gives w = p - (n-m)/2 in [-n/2, n]."""
    return range(-(n // 2), n + 1)


def HH(ctx):
    """Loop-complex cohomology with its weight decomposition.

    Totals come from the full complex, per-weight dimensions from the
    weight slices; their agreement is asserted (the slices partition the
    complex and the differential preserves weight).  Row n is certified
    when the weight cutoff drops no monomial through degree n + 1.
    """
    cutoff = ctx.cutoff
    C = ctx.cochain()
    table = CohomologyTable("HH")
    for n in range(cutoff + 1):
        weights = {}
        ws = hh_weight_range(n)
        if ctx.loop.weight_cutoff is not None:
            # degree-1 generators break the weight <= degree bound
            ws = range(0, max(n, ctx.loop.weight_cutoff) + 1)
        for w in ws:
            weights[w] = ctx.band(w, "slice", cutoff + 1).betti(n)
        total = C.betti(n)
        table.set_row(n, total, weights,
                      certified=n + 1 <= ctx.loop.complete_through)
    return table


def CH(ctx):
    """+complex cohomology, decomposed by effective weight (an integer:
    the unit tower contributes negative weights).  Row n is certified when
    the weight cutoff drops no monomial through degree n + 1."""
    cutoff = ctx.cutoff
    top = cutoff + 1
    table = CohomologyTable("CH")
    for n in range(cutoff + 1):
        weights = {}
        for w in ch_weight_range(n):
            band = ctx.band(w, "plus", top)
            d = band.betti(n)
            if d:
                weights[w] = d
        table.set_row(n, sum(weights.values()), weights,
                      certified=n + 1 <= ctx.loop.complete_through)
    return table


def reduced_CH(ctx):
    """CH modulo the image of the one-point algebra: the unit tower class
    at effective weight -n/2 is removed wherever it survives."""
    cutoff = ctx.cutoff
    table = CH(ctx)
    out = CohomologyTable("CH~")
    for n in table.degrees:
        weights = dict(table.weights(n))
        total = table.total(n)
        if n % 2 == 0:
            w0 = -(n // 2)
            band = ctx.band(w0, "plus", cutoff + 1)
            labs = band.labels.get(n, [])
            if (0, ()) in labs:
                [coords] = band.cohomology(n).coordinates(
                    [{labs.index((0, ())): Fraction(1)}])
                if coords:
                    weights[w0] = weights.get(w0, 0) - 1
                    total -= 1
        out.set_row(n, total, weights, certified=table.certified(n))
    return out


def K_groups(ctx):
    """The even/odd products of base cohomology, with per-slot breakdown.

    K^r sums dim H^m(base) over m of the parity of r; finiteness rests on
    the vanishing-window certificate of the base cohomology.
    """
    cutoff = ctx.cutoff
    base = ctx.base(cutoff + 1)
    betti = {n: base.betti(n) for n in range(cutoff + 1)}
    bound, certified = ctx.base_bound()
    even = sum(d for n, d in betti.items() if n % 2 == 0)
    odd = sum(d for n, d in betti.items() if n % 2 == 1)
    return {
        "even": even,
        "odd": odd,
        "reduced_even": even - 1,
        "reduced_odd": odd,
        "base_betti": betti,
        "bound": bound,
        "certified": certified,
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


def PH_periodic(ctx):
    """PH via the direct-sum periodic complex, weight by weight.

    PC splits as the direct sum of the finite effective-weight bands of
    the 2-periodic complex, so its cohomology is the sum over w of the
    band cohomologies.  The sum is cut off after two consecutive zero
    weights past the structural markers, and a row is uncertified if it
    reaches weight cutoff + 5 first; certification additionally needs the
    base vanishing-window certificate.
    """
    cutoff = ctx.cutoff
    bound, base_cert = ctx.base_bound()
    table = CohomologyTable("PHper")
    for r in range(cutoff + 1):
        weights = {}
        w = -(r // 2) - 1
        zeros = 0
        ran_out = False
        while True:
            w += 1
            if w > cutoff + 4:
                ran_out = True
                break
            top = max(r + 1, r + 1 + 2 * w)
            M = ctx.mixed(top)
            band = band_complex(M, w, "periodic", r - 1, r + 1)
            d = band.cohomology(r).dim
            if d:
                weights[w] = d
                zeros = 0
            else:
                zeros += 1
            if w >= 0 and r + 2 * w > bound and zeros >= 2:
                break
        table.set_row(
            r,
            sum(weights.values()),
            weights,
            certified=base_cert and not ran_out,
        )
    return table


def _base_block(ctx, w, top):
    """The periodic complex of (base, d, 0) at effective weight w: the
    single block base^{r+2w} in degree r, labels tagged ("b", monomial)."""
    base = ctx.base(max(0, top + 2 * w) + 1)
    labels = {}
    diff = {}
    for r in range(top + 1):
        m = r + 2 * w
        if 0 <= m:
            labels[r] = [("b", mono) for mono in base.labels.get(m, [])]
    for r in range(top):
        m = r + 2 * w
        if m >= 0:
            diff[r] = base.d(m)
        elif m == -1:
            diff[r] = SparseMatrix.zero(len(labels.get(r + 1, [])), 0)
    return CochainComplex(labels, diff)


def _top_slot(ctx, w):
    """The comparison rule at effective weight w: a +band label (m, mono)
    in degree r goes to the base block label ("b", lower(mono)) when it
    sits in the top slot m = r + 2w and has weight 0, and to zero
    otherwise."""
    loop = ctx.loop

    def image(r, lab):
        m, mono = lab
        if m == r + 2 * w and loop.weight(mono) == 0:
            return ("b", loop.lower(mono))
        return None

    return image


def _sh_band(ctx, w, project_weight_zero=True):
    """The comparison map Ibar at effective weight w and its cone, as
    (Ibar, cone, include, project), built once per weight and flag.

    Source: the degree-r piece is the +band of effective weight w + 1 at
    level r - 2, for r <= cutoff + 2.  Target: the base block (weight-0
    projection of the top slot) through degree cutoff + 2.  With
    project_weight_zero=False the projection is skipped and the full
    periodic band of the loop complex is the target (negative control).

    One cone serves every SH^r(w), r <= cutoff.  Its H^r reads cone
    degrees r - 1..r + 1, that is the source +band through degree r and
    the target through degree r + 1.  A +band's degree-r piece reads the
    mixed complex only in degrees <= r, the base block's is base^{r+2w},
    and the periodic target's reads degrees <= r + 2w, all of which the
    larger top covers.  So the cone built at top cutoff + 1 has the same
    degrees r - 1..r + 1 as one built at top r + 1, and the same H^r.
    """
    key = (w, project_weight_zero)
    if key not in ctx._cones:
        top = ctx.cutoff + 1
        source = shift_complex(ctx.band(w + 1, "plus", top - 1), 2)
        if project_weight_zero:
            f = label_map(source, _base_block(ctx, w, top + 1),
                          _top_slot(ctx, w), check_degrees=range(0, top))
        else:
            M = ctx.mixed(max(top + 2, top + 2 + 2 * w))
            f = label_inclusion(source,
                                band_complex(M, w, "periodic", 0, top + 1))
        ctx._cones[key] = (f, *mapping_cone(f))
    return ctx._cones[key]


def SH(ctx, project_weight_zero=True):
    """Cohomology of the cone over the zero-weight comparison map.

    Per weight w the cone pairs the base block in degree r+2w with the
    +band of weight w+1 one level down; one cone per weight gives SH^r(w)
    for every r (see _sh_band).  Weights whose surrounding exact sequence
    terms both vanish (base cohomology at r+2w and CH^{r-1} at w+1) are
    skipped as zero; others are read off the cone.  Rows are certified by
    the base vanishing window, and only when the weight cutoff drops no
    monomial through degree cutoff + 1, the top degree the bands read.
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
            ch_next = ctx.band(w + 1, "plus", cutoff + 1).betti(r - 1) if r >= 1 else 0
            mb = r + 2 * w
            base = ctx.base(max(cutoff + 1, mb + 1))
            h_base = base.betti(mb) if mb >= 0 else 0
            if ch_next == 0 and h_base == 0:
                continue
            d = _sh_band(ctx, w, project_weight_zero)[1].betti(r)
            if d:
                weights[w] = d
        table.set_row(r, sum(weights.values()), weights, certified=certified)
    return table


def theorem2_check(ctx):
    """dim SH^r = dim K~^r + dim CH~^{r-1} in every certified degree,
    where ~ marks reduction by the one-point algebra.  With no certified
    degree the report passes None and says why it skipped."""
    cutoff = ctx.cutoff
    sh = SH(ctx)
    k = K_groups(ctx)
    chr_ = reduced_CH(ctx)
    report = {"pass": True, "degrees": {}}
    for r in range(1, cutoff + 1):
        if not (sh.certified(r) and k["certified"] and chr_.certified(r - 1)):
            report["degrees"][r] = {"status": "skipped"}
            continue
        kbar = k["reduced_even"] if r % 2 == 0 else k["reduced_odd"]
        lhs = sh.total(r)
        rhs = kbar + chr_.total(r - 1)
        ok = lhs == rhs
        report["degrees"][r] = {
            "status": "pass" if ok else "fail",
            "SH": lhs,
            "K_reduced": kbar,
            "CH_reduced_prev": chr_.total(r - 1),
        }
        report["pass"] = report["pass"] and ok
    if all(row["status"] == "skipped" for row in report["degrees"].values()):
        report["pass"] = None
        report["skipped"] = ("no degree from 1 to the cutoff has certified "
                             "SH, K and CH rows")
    return report


def _nothing_to_compare(cutoff):
    """Report of a diagram audit below cutoff 2: its sequences run over
    degrees 1..cutoff - 1, so no node, square or triangle is compared."""
    return {"pass": None, "weights": {},
            "skipped": f"cutoff {cutoff} leaves no degree to compare"}


def fig2_audit(ctx):
    """Exactness and commutativity audit of the two standard long exact
    sequences of the loop mixed complex, per effective weight.

    Row 1: 0 -> +C^{*-2}(w+1) -> +C^*(w) -> C^*(w) -> 0.
    Row 2: 0 -> +C^{*-2}(w+1) -> PC^*(w) -> -C^*(w) -> 0.
    The verticals between the rows are the identity on the first node,
    the inclusion +C -> PC and the top-slot inclusion C -> -C; the rows
    and squares are one ladder_audit.  Also checks the intertwining of S
    with the power maps on the total +complex.  Below cutoff 2 no degree
    is compared, and the report passes None.
    """
    cutoff = ctx.cutoff
    if cutoff < 2:
        return _nothing_to_compare(cutoff)
    top = cutoff + 1
    M = ctx.mixed(top)
    report = {"pass": True, "weights": {}}
    for w in range(-(cutoff // 2) - 1, cutoff // 2 + 2):
        # certified stretch for the minus/periodic bands
        r_hi = min(cutoff - 1, top - 2 * w - 2)
        if r_hi < 1:
            continue
        plus_w = ctx.band(w, "plus", r_hi + 2)
        plus_w1 = shift_complex(ctx.band(w + 1, "plus", r_hi), 2)
        slice_w = ctx.band(w, "slice", r_hi + 2)
        per_w = band_complex(M, w, "periodic", 0, r_hi + 2)
        minus_w = band_complex(M, w, "minus", 0, r_hi + 2)

        row1 = ShortExactSequence(
            label_inclusion(plus_w1, plus_w),
            label_projection(plus_w, slice_w),
            degrees=range(0, r_hi + 2),
        )
        row2 = ShortExactSequence(
            label_inclusion(plus_w1, per_w),
            label_projection(per_w, minus_w),
            degrees=range(0, r_hi + 2),
        )
        verticals = (label_inclusion(plus_w1, plus_w1),
                     label_inclusion(plus_w, per_w),
                     label_inclusion(slice_w, minus_w))
        entry = ladder_audit(row1, row2, verticals, r_hi)
        report["weights"][w] = entry
        report["pass"] = report["pass"] and entry["pass"]

    # intertwining on the total +complex: S . +Psi_k = k . +Psi_k . S,
    # where S: +C^{*-2} -> +C^* is the slotwise inclusion
    plus = ctx.plus(top)
    lower = CochainComplex(
        {n + 2: v for n, v in plus.labels.items() if n + 2 <= top}, {})
    s = label_inclusion(lower, plus)
    inter = True
    for k in (2, 3):
        for r in range(2, cutoff + 1):
            psi_lo = plus_power_matrix(M, plus, k, r - 2)
            psi_hi = plus_power_matrix(M, plus, k, r)
            lhs = s.matrix(r) @ psi_lo
            rhs = (psi_hi @ s.matrix(r)).scale(k)
            if lhs != rhs:
                inter = False
    report["intertwining"] = inter
    report["pass"] = report["pass"] and inter
    return report


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
    colimit defining PH.  Below cutoff 2 no degree is compared, and the
    report passes None.
    """
    cutoff = ctx.cutoff
    if cutoff < 2:
        return _nothing_to_compare(cutoff)
    bound, _ = ctx.base_bound()
    report = {"pass": True, "weights": {}}
    for w in range(-(cutoff // 2) - 1, max(2, bound // 2 + 1) + 1):
        entry = _fig7_weight(ctx, w)
        report["weights"][w] = entry
        report["pass"] = report["pass"] and entry["pass"]
    return report


def _fig7_weight(ctx, w):
    r_hi = ctx.cutoff - 1
    band_w = ctx.band(w, "plus", r_hi + 2)
    band_w1 = shift_complex(ctx.band(w + 1, "plus", r_hi), 2)
    slice_w = ctx.band(w, "slice", r_hi + 2)

    # row 1: cone over the inclusion, plus the quasi-isomorphism onto the
    # loop-cohomology slice (the top slot of the +band part)
    incl = label_inclusion(band_w1, band_w)
    cone1, inc1, proj1 = mapping_cone(incl)
    ses1 = ShortExactSequence(inc1, proj1, degrees=range(0, r_hi + 2))
    q = label_map(cone1, slice_w,
                  lambda r, lab: lab[1] if lab[0] == 0 and lab[1][0] == r
                  else None,
                  check_degrees=range(0, r_hi + 2))
    quasi_iso = all(m.rows == m.cols and linalg.rank(m) == m.rows
                    for m in map(q.induced, range(1, r_hi + 1)))

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
    entry = ladder_audit(
        ses1, ses2, (t, vcone, label_inclusion(proj1.target, proj2.target)),
        r_hi)

    # triangle: T^r . S^{r-2} equals the chain-level comparison H(Ibar)
    entry["triangle"] = all(t.matrix(r) @ incl.matrix(r) == f2.matrix(r)
                            for r in range(1, r_hi + 1))
    entry["quasi_iso"] = quasi_iso
    entry["pass"] = entry["pass"] and quasi_iso and entry["triangle"]
    return entry


def t4_audit(ctx):
    """Eigenstructure audit of the induced power maps.

    (a) the induced matrices on HH^n and CH^n are annihilated by the
    product of (Psi - k^w) over the occurring weights and are
    diagonalizable with eigenspace dimensions equal to the weight-slice
    dimensions, identically for every k; (b) the weight-0 row of HH is
    the base cohomology; (c) slices with weight above the degree vanish;
    (d) the per-weight totals obey the (dim V)^w bound.
    """
    cutoff = ctx.cutoff
    M = ctx.mixed(cutoff + 1)
    C = ctx.cochain()
    plus = ctx.plus(cutoff + 1)
    hh = HH(ctx)
    ch = CH(ctx)
    base = ctx.base(cutoff + 1)
    report = {"pass": True, "findings": []}

    def check(name, ok):
        report["findings"].append({"check": name, "pass": bool(ok)})
        report["pass"] = report["pass"] and bool(ok)

    for k in (2, 3):
        for n in range(cutoff + 1):
            for name, cx, power, table in (
                ("HH", C, M.power_matrix(k, n), hh),
                ("CH", plus, plus_power_matrix(M, plus, k, n), ch),
            ):
                psi = linalg.induced_map(power, cx.cohomology(n),
                                         cx.cohomology(n))
                ws = sorted(table.weights(n))
                check(
                    f"{name}^{n} Psi_{k} annihilated by weight spectrum",
                    _annihilated(psi, [Fraction(k) ** w for w in ws]),
                )
                dims = [_eigenspace_dim(psi, Fraction(k) ** w) for w in ws]
                check(
                    f"{name}^{n} Psi_{k} eigenspaces match weight slices",
                    dims == [table.weight(n, w) for w in ws]
                    and sum(dims) == psi.rows,
                )

    for n in range(cutoff + 1):
        check(
            f"HH^{n}(0) equals base cohomology",
            hh.weight(n, 0) == base.betti(n),
        )
        vanish = all(hh.weight(n, p) == 0 for p in range(n + 1, n + 3))
        vanish = vanish and all(
            ch.weight(n, p) == 0 for p in range(n + 1, n + 3)
        )
        check(f"HH^{n}(p) = CH^{n}(p) = 0 for p > {n}", vanish)

    dim_v = len(ctx.algebra.algebra.generators)
    h_total = sum(base.betti(n) for n in range(cutoff + 1))
    for w in range(0, cutoff + 1):
        partial = sum(hh.weight(n, w) for n in range(cutoff + 1))
        check(
            f"weight {w} total bounded by (dim V)^w * total base cohomology",
            partial <= (dim_v**w) * h_total,
        )
    return report


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
