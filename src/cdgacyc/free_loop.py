"""The free-loop construction on a free connected CDGA.

From (L[V], d) build L[V + Vbar] with degree(vbar) = degree(v) - 1, the
exterior differential delta (delta v = d v, delta vbar = -i(d v)), the
interior differential i (i v = vbar, i vbar = 0), the weight grading
(total exponent of barred factors), on which the power maps Psi_k act by
k^weight.  delta preserves the weight and i raises it by one, so the loop
mixed complex is built as (degree, weight) blocks.  Also provides the
augmentation ideal and the polynomial-circle model C (x) L[u].
"""

import math
from fractions import Fraction

from cdgacyc import gralg
from cdgacyc.complexes import (
    CochainComplex,
    ConsistencyError,
    MixedComplex,
    UnsupportedConfiguration,
)
from cdgacyc.gralg import Derivation, Generator
from cdgacyc.linalg import SparseMatrix


def derivation_matrix(derv, basis_in, index_out):
    """Matrix of a derivation between two monomial bases.

    index_out maps the target monomials to row indices; an image hitting
    a monomial absent from index_out raises ConsistencyError.  With no
    entry it is the shared zero of its shape.
    """
    entries = {}
    for j, mono in enumerate(basis_in):
        for m, c in derv.apply_monomial(mono).items():
            if m not in index_out:
                raise ConsistencyError(
                    f"image monomial {gralg.monomial_str(m)} outside the basis"
                )
            entries[(index_out[m], j)] = c
    if not entries:
        return SparseMatrix.zero(len(index_out), len(basis_in))
    return SparseMatrix(len(index_out), len(basis_in), entries)


class LoopAlgebra:
    """L[V + Vbar] with its exterior and interior differentials.

    The unbarred generators are the base's own, and the barred uids start
    past the largest base uid, so every barred factor sorts after every
    unbarred one: a weight-0 loop monomial is a base monomial, and delta
    on a base generator is the base differential, unchanged."""

    def __init__(self, base, weight_cutoff=None):
        self.base = base
        self.weight_cutoff = weight_cutoff
        base_gens = base.algebra.generators
        degree_one = any(g.degree == 1 for g in base_gens)
        if degree_one and weight_cutoff is None:
            raise UnsupportedConfiguration(
                "degree-1 generators produce degree-0 barred partners; "
                "supply an explicit weight cutoff"
            )
        # Highest degree through which the weight cutoff drops no monomial:
        # a monomial of degree m has weight <= m unless a degree-0 barred
        # generator makes the weights of every degree unbounded.
        if weight_cutoff is None:
            self.complete_through = math.inf
        else:
            self.complete_through = -1 if degree_one else weight_cutoff
        past = max((g.uid for g in base_gens), default=-1) + 1
        self.barred = tuple(
            Generator(past + i, g.name + "_bar", g.degree - 1)
            for i, g in enumerate(base_gens)
        )
        self.algebra = gralg.GradedAlgebra(base_gens + self.barred)
        self.barred_uids = {g.uid for g in self.barred}

        self.iota = Derivation(
            self.algebra,
            -1,
            {g.name: {((bar, 1),): Fraction(1)}
             for g, bar in zip(base_gens, self.barred)},
        )
        delta_values = {}
        for g, bar in zip(base_gens, self.barred):
            dv = base.differential.on_generator(g)
            delta_values[g.name] = dv
            delta_values[bar.name] = gralg.poly_scale(-1, self.iota.apply(dv))
        self.delta = Derivation(self.algebra, 1, delta_values)
        self._check_axioms()

    def _check_axioms(self):
        for g in self.algebra.generators:
            one = self.algebra.gen_poly(g.name)
            dd = self.delta.apply(self.delta.apply(one))
            if dd:
                raise ConsistencyError(
                    f"delta.delta({g.name}) = {gralg.poly_str(dd)}"
                )
            ii = self.iota.apply(self.iota.apply(one))
            if ii:
                raise ConsistencyError(f"i.i({g.name}) = {gralg.poly_str(ii)}")
            anti = gralg.poly_add(
                self.delta.apply(self.iota.apply(one)),
                self.iota.apply(self.delta.apply(one)),
            )
            if anti:
                raise ConsistencyError(
                    f"(delta.i + i.delta)({g.name}) = {gralg.poly_str(anti)}"
                )

    def weight(self, mono):
        return sum(e for g, e in mono if g.uid in self.barred_uids)

    def basis(self, n):
        """Monomials of degree n (weight-truncated when a cutoff is set)."""
        return self.algebra.basis(
            n,
            counted=self.barred_uids,
            max_count=self.weight_cutoff
            if self.weight_cutoff is not None
            else n + 1,
        )

    def mixed_complex(self, top):
        """The loop mixed complex on degrees 0..top, in (degree, weight)
        blocks.

        delta preserves the weight and the interior differential raises
        it by one, so the block (n, p) has a delta block into (n + 1, p)
        and a beta block into (n - 1, p + 1).  An image outside its target
        block raises ConsistencyError: the weight grading is checked here,
        once per block.  A block matrix with no entry is not stored.
        When a weight cutoff W is set, the complex is the direct summand
        of weights <= W, and no beta is built out of weight W (the weight
        decomposition is a direct sum, so this is again a mixed
        structure).
        """
        blocks, delta, beta = {}, {}, {}
        for n in range(top + 1):
            for mono in self.basis(n):
                blocks.setdefault((n, self.weight(mono)), []).append(mono)
        index = {key: {m: i for i, m in enumerate(labs)}
                 for key, labs in blocks.items()}
        for (n, p), labs in blocks.items():
            for derv, mats, out, build in (
                    (self.delta, delta, (n + 1, p), n < top),
                    (self.iota, beta, (n - 1, p + 1),
                     p != self.weight_cutoff)):
                if build:
                    m = derivation_matrix(derv, labs, index.get(out, {}))
                    if not m.is_zero():
                        mats[(n, p)] = m
        return MixedComplex(blocks, delta, beta, top)


def free_loop(base, weight_cutoff=None):
    return LoopAlgebra(base, weight_cutoff=weight_cutoff)


def base_cochain(base, top, bottom=0):
    """(Lambda[V], d) as a cochain complex on degrees bottom..top, with d^n
    for bottom <= n < top.  Built from bottom = 0, its H^n for n < top is
    that of (Lambda[V], d); built from bottom > 0, it has no d^{bottom-1},
    so only its H^n with bottom < n < top are.
    """
    labels = {n: base.algebra.basis(n) for n in range(bottom, top + 1)}
    index = {n: {m: i for i, m in enumerate(labels[n])}
             for n in range(bottom, top + 1)}
    diff = {n: derivation_matrix(base.differential, labels[n], index[n + 1])
            for n in range(bottom, top)}
    return CochainComplex(labels, diff)


def ideals(M):
    """The augmentation ideal of a loop mixed complex M: M less the block
    (0, 0), which holds only the unit.  No delta or beta block lands in
    (0, 0) or leaves it (delta and beta of the unit are 0), so it is a
    mixed subcomplex on M's blocks and matrices."""
    blocks = {key: labs for key, labs in M.blocks.items() if key != (0, 0)}
    return MixedComplex(blocks, M.delta, M.beta, M.top)


def u_model(loop, top):
    """The circle model (loop complex (x) L[u], |u| = 2).

    Degree n basis: (monomial of degree m, r) with m + 2r = n.  The
    differential sends (a, r) to (delta a, r) + (i a, r+1); the power map
    acts by k^(weight - r).  Complete for every degree <= top.
    """
    labels = {}
    for n in range(top + 1):
        labs = []
        for r in range(n // 2 + 1):
            labs.extend((m, r) for m in loop.basis(n - 2 * r))
        labels[n] = labs
    index = {
        n: {lab: i for i, lab in enumerate(v)} for n, v in labels.items()
    }
    diff = {}
    for n in range(top):
        entries = {}
        for j, (mono, r) in enumerate(labels[n]):
            for m, c in loop.delta.apply_monomial(mono).items():
                entries[(index[n + 1][(m, r)], j)] = c
            for m, c in loop.iota.apply_monomial(mono).items():
                key = (m, r + 1)
                if key in index[n + 1]:
                    entries[(index[n + 1][key], j)] = c
                elif loop.weight_cutoff is not None:
                    continue  # interior image beyond the weight cutoff
                else:
                    raise ConsistencyError(
                        f"u-model slot missing for {gralg.monomial_str(m)}"
                    )
        diff[n] = SparseMatrix(len(labels[n + 1]), len(labels[n]), entries)
    return CochainComplex(labels, diff)

