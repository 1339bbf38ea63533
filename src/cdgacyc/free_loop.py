"""The free-loop construction on a free connected CDGA.

From (L[V], d) build L[V + Vbar] with degree(vbar) = degree(v) - 1, the
exterior differential delta (delta v = d v, delta vbar = -i(d v)), the
interior differential i (i v = vbar, i vbar = 0), the weight grading
(total exponent of barred factors), on which the power maps Psi_k act by
k^weight.  Also provides the augmentation ideal and the polynomial-circle
model C (x) L[u].
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


def derivation_matrix(derv, basis_in, index_out, dim_out, on_missing="error"):
    """Matrix of a derivation between two monomial bases.

    index_out maps monomials to row indices; images hitting monomials
    absent from index_out either raise (on_missing="error") or are
    silently dropped (on_missing="drop", used for weight truncation).
    """
    entries = {}
    for j, mono in enumerate(basis_in):
        for m, c in derv.apply_monomial(mono).items():
            if m in index_out:
                entries[(index_out[m], j)] = c
            elif on_missing == "error":
                raise ConsistencyError(
                    f"image monomial {gralg.monomial_str(m)} outside the basis"
                )
    return SparseMatrix(dim_out, len(basis_in), entries)


class LoopAlgebra:
    """L[V + Vbar] with its exterior and interior differentials."""

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
        n = len(base_gens)
        self.gens = tuple(
            Generator(i, g.name, g.degree) for i, g in enumerate(base_gens)
        )
        self.barred = tuple(
            Generator(n + i, g.name + "_bar", g.degree - 1)
            for i, g in enumerate(base_gens)
        )
        self.algebra = gralg.GradedAlgebra(self.gens + self.barred)
        self.barred_uids = {g.uid for g in self.barred}
        self._base_to_loop = {
            old.uid: new for old, new in zip(base_gens, self.gens)
        }
        self._bar_of = {
            new.uid: bar for new, bar in zip(self.gens, self.barred)
        }

        self.iota = Derivation(
            self.algebra,
            -1,
            {
                g.name: {((self._bar_of[g.uid], 1),): Fraction(1)}
                for g in self.gens
            },
        )
        delta_values = {}
        for old, new in zip(base_gens, self.gens):
            dv = self.lift(base.differential.on_generator(old))
            delta_values[new.name] = dv
            bar = self._bar_of[new.uid]
            delta_values[bar.name] = gralg.poly_scale(-1, self.iota.apply(dv))
        self.delta = Derivation(self.algebra, 1, delta_values)
        self._check_axioms()
        self._basis_cache = {}

    def lower(self, mono):
        """Weight-0 loop monomial as a base-algebra monomial."""
        return tuple(
            (self.base.algebra.by_name[g.name], e) for g, e in mono
        )

    def lift(self, p):
        """Transport a polynomial of the base algebra into the loop algebra."""
        out = {}
        for mono, c in p.items():
            new = tuple((self._base_to_loop[g.uid], e) for g, e in mono)
            out[new] = c
        return out

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
        if n not in self._basis_cache:
            monos = self.algebra.basis(
                n,
                counted=self.barred_uids,
                max_count=self.weight_cutoff
                if self.weight_cutoff is not None
                else n + 1,
            )
            self._basis_cache[n] = monos
        return self._basis_cache[n]

    def mixed_complex(self, top):
        """The loop mixed complex on degrees 0..top with weight tags.

        When a weight cutoff W is set, the complex is the direct summand
        of weights <= W (delta preserves weight; the interior differential
        is projected back onto weights <= W, which is again a mixed
        structure because the weight decomposition is a direct sum).
        """
        labels = {n: self.basis(n) for n in range(top + 1)}
        weights = {n: [self.weight(m) for m in labels[n]] for n in labels}
        index = {
            n: {m: i for i, m in enumerate(labels[n])} for n in labels
        }
        truncating = self.weight_cutoff is not None
        delta = {
            n: derivation_matrix(
                self.delta, labels[n], index[n + 1], len(labels[n + 1])
            )
            for n in range(top)
        }
        beta = {
            n: derivation_matrix(
                self.iota,
                labels[n],
                index[n - 1],
                len(labels[n - 1]),
                on_missing="drop" if truncating else "error",
            )
            for n in range(1, top + 1)
        }
        return MixedComplex(labels, delta, beta, weights=weights)


def free_loop(base, weight_cutoff=None):
    return LoopAlgebra(base, weight_cutoff=weight_cutoff)


def base_cochain(base, top, grown=None):
    """(Lambda[V], d) as a cochain complex on degrees 0..top.

    grown, a complex this function built on degrees 0..t with t < top, is
    grown by the new degrees only: the result keeps its matrices, builds
    d^t..d^{top-1}, and takes its cohomology below degree t.
    """
    t, labels, diff, shares = 0, {}, {}, None
    if grown is not None:
        # a complex built here has one differential per degree below its top
        t = len(grown.diff)
        labels, diff = dict(grown.labels), dict(grown.diff)
        shares = (grown, 0, t)
    labels.update({n: base.algebra.basis(n) for n in range(t, top + 1)})
    index = {n: {m: i for i, m in enumerate(labels[n])}
             for n in range(t, top + 1)}
    for n in range(t, top):
        diff[n] = derivation_matrix(base.differential, labels[n],
                                    index[n + 1], len(index[n + 1]))
    return CochainComplex(labels, diff, shares=shares)


def ideals(M):
    """The augmentation ideal of a loop mixed complex M.

    It drops exactly the unit monomial in degree 0 and is a mixed
    subcomplex (the closure of delta and beta on it is verified).
    """
    keep = {}
    for n in M.labels:
        idx = [i for i, m in enumerate(M.labels[n]) if m != gralg.ONE]
        if idx:
            keep[n] = idx
    return M.coordinate_subcomplex(keep)


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

