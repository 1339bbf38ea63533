"""Free graded-commutative algebras over Q and graded derivations.

A monomial is a tuple of (generator, exponent) pairs sorted by generator
id; a polynomial is a dict mapping monomials to nonzero rationals.  All
signs follow the Koszul rule: moving a factor of degree p past one of
degree q costs (-1)^(p*q), and odd generators square to zero.
"""

from fractions import Fraction
from typing import NamedTuple


class AlgebraError(Exception):
    pass


class Generator(NamedTuple):
    """Algebra generator; uid fixes the declaration (and sort) order."""

    uid: int
    name: str
    degree: int


ONE = ()  # the empty monomial


def monomial_degree(mono):
    return sum(g.degree * e for g, e in mono)


def monomial_str(mono):
    if not mono:
        return "1"
    parts = []
    for g, e in mono:
        parts.append(g.name if e == 1 else f"{g.name}^{e}")
    return "*".join(parts)


def monomial_mul(m1, m2):
    """(sign, product monomial), or None when an odd generator squares."""
    sign = 1
    out = []
    i, j = 0, 0
    rem1 = monomial_degree(m1)
    while i < len(m1) and j < len(m2):
        g1, e1 = m1[i]
        g2, e2 = m2[j]
        if g1.uid < g2.uid:
            out.append((g1, e1))
            rem1 -= g1.degree * e1
            i += 1
        elif g1.uid > g2.uid:
            if (g2.degree * e2) % 2 and rem1 % 2:
                sign = -sign
            out.append((g2, e2))
            j += 1
        else:
            if g1.degree % 2:
                return None
            out.append((g1, e1 + e2))
            rem1 -= g1.degree * e1
            i += 1
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return sign, tuple(out)


def poly_add(p, q):
    out = dict(p)
    for m, c in q.items():
        out[m] = out.get(m, Fraction(0)) + c
        if not out[m]:
            del out[m]
    return out


def poly_scale(c, p):
    c = Fraction(c)
    if not c:
        return {}
    return {m: c * v for m, v in p.items()}


def poly_degree(p):
    """Degree of a homogeneous polynomial; AlgebraError if mixed."""
    degs = {monomial_degree(m) for m in p}
    if len(degs) > 1:
        raise AlgebraError(f"polynomial not homogeneous, degrees {sorted(degs)}")
    return degs.pop() if degs else None


def poly_str(p):
    if not p:
        return "0"
    parts = []
    for m in sorted(p, key=lambda m: (monomial_degree(m), m)):
        c = p[m]
        s = monomial_str(m)
        if s == "1":
            parts.append(str(c))
        elif c == 1:
            parts.append(s)
        elif c == -1:
            parts.append(f"-{s}")
        else:
            parts.append(f"{c}*{s}")
    return " + ".join(parts).replace("+ -", "- ")


class GradedAlgebra:
    """Free graded-commutative algebra on a finite list of generators."""

    def __init__(self, generators):
        uids = [g.uid for g in generators]
        if len(set(uids)) != len(uids):
            raise AlgebraError("duplicate generator uid")
        names = [g.name for g in generators]
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate generator name")
        self.generators = tuple(sorted(generators))
        self.by_name = {g.name: g for g in self.generators}
        self._tails_memo = {}

    def gen_poly(self, name):
        g = self.by_name[name]
        return {((g, 1),): Fraction(1)}

    def basis(self, n, counted=None, max_count=None):
        """All monomials of degree n, in lexicographic order of their
        exponent vectors over ``generators``.

        When ``counted`` (a set of generator uids) is given, only monomials
        whose total exponent over those generators is at most ``max_count``
        are produced.  Degree-0 generators must be counted, otherwise the
        basis would be infinite.  Each degree is enumerated once per
        (counted, max_count) and cached; every call returns a fresh list.
        """
        counted = frozenset(counted or ())
        for g in self.generators:
            if g.degree == 0 and g.uid not in counted:
                raise AlgebraError(
                    f"degree-0 generator {g.name} needs a count bound"
                )
        if g_degree_negative := [g for g in self.generators if g.degree < 0]:
            raise AlgebraError(
                f"negative-degree generator {g_degree_negative[0].name}"
            )
        if n < 0:
            return []
        # the count is read only for counted generators
        count = (max_count if max_count is not None else n + 1) if counted else 0
        return list(self._tails(0, n, count, counted))

    def _tails(self, idx, deg, count, counted):
        """Monomials in generators[idx:] of degree deg and count at most
        count, in exponent-vector order; memoized per (counted, idx, deg,
        count), so each is built once."""
        key = (counted, idx, deg, count)
        memo = self._tails_memo
        if key in memo:
            return memo[key]
        if idx == len(self.generators):
            out = ((),) if deg == 0 else ()
        else:
            g = self.generators[idx]
            if g.degree % 2:
                top = min(1, deg // g.degree)
            elif g.degree == 0:
                top = count
            else:
                top = deg // g.degree
            is_counted = g.uid in counted
            if is_counted:
                top = min(top, count)
            out = []
            for e in range(top + 1):
                rest = self._tails(idx + 1, deg - g.degree * e,
                                   count - e if is_counted else count, counted)
                if e:
                    head = ((g, e),)
                    out.extend(head + t for t in rest)
                else:
                    out.extend(rest)
            out = tuple(out)
        memo[key] = out
        return out


class Derivation:
    """Graded derivation of fixed degree shift, given on generators."""

    def __init__(self, algebra, shift, values):
        self.algebra = algebra
        self.shift = shift
        self.values = {}
        for name, p in values.items():
            g = algebra.by_name.get(name)
            if g is None:
                raise AlgebraError(f"derivation value on unknown generator {name}")
            d = poly_degree(p)
            if d is not None and d != g.degree + shift:
                raise AlgebraError(
                    f"derivation value on {name} has degree {d}, "
                    f"expected {g.degree + shift}"
                )
            # Fractions, so that apply_monomial's int multiples stay exact
            self.values[g.uid] = {m: Fraction(c) for m, c in p.items()}
        self._memo = {ONE: {}}

    def on_generator(self, g):
        return self.values.get(g.uid, {})

    def apply_monomial(self, mono):
        """d(p g^e) = d(p) g^e + (-1)^(shift |p|) p d(g^e), with p = mono[:-1]
        through the same memo (d(1) = 0) and d(g^e) = e g^(e-1) d(g)."""
        memo = self._memo
        if mono in memo:
            return memo[mono]
        prefix = mono[:-1]
        g, e = mono[-1]
        out = {}
        power = ((g, e),)
        for m, c in self.apply_monomial(prefix).items():
            r = monomial_mul(m, power)
            if r is not None:
                sign, prod = r
                out[prod] = out.get(prod, 0) + (c if sign > 0 else -c)
        dg = self.values.get(g.uid)
        if dg:
            # p g^(e-1) needs no reordering: g follows every factor of p
            head = prefix + ((g, e - 1),) if e > 1 else prefix
            scale = -e if self.shift % 2 and monomial_degree(prefix) % 2 else e
            for m, c in dg.items():
                r = monomial_mul(head, m)
                if r is not None:
                    sign, prod = r
                    out[prod] = out.get(prod, 0) + sign * scale * c
        out = {m: c for m, c in out.items() if c}
        memo[mono] = out
        return out

    def apply(self, p):
        out = {}
        for m, c in p.items():
            for k, v in self.apply_monomial(m).items():
                out[k] = out.get(k, 0) + c * v
        return {k: v for k, v in out.items() if v}


class FreeCDGA:
    """Connected free CDGA: generators of positive degree, differential of
    degree +1 squaring to zero."""

    def __init__(self, generators, differential_values):
        for g in generators:
            if g.degree < 1:
                raise AlgebraError(
                    f"generator {g.name} has degree {g.degree}; "
                    "a connected free CDGA needs positive degrees"
                )
        self.algebra = GradedAlgebra(generators)
        self.differential = Derivation(self.algebra, 1, differential_values)
        self._check_squares()

    def _check_squares(self):
        d = self.differential
        for g in self.algebra.generators:
            dd = d.apply(d.apply(self.algebra.gen_poly(g.name)))
            if dd:
                raise AlgebraError(
                    f"differential does not square to zero on {g.name}: "
                    f"d(d({g.name})) = {poly_str(dd)}"
                )

    def max_generator_degree(self):
        return max((g.degree for g in self.algebra.generators), default=0)
