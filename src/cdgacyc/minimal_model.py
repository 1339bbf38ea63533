"""Minimality checks, quasi-isomorphisms and the inductive model builder.

A FiniteCDGA is a finite-dimensional CDGA given by structure constants;
all axioms (associativity, graded commutativity, unit, Leibniz, d^2 = 0)
are verified on construction, and then its one cochain complex is built
(FiniteCDGA.complex, whose cohomology is cached).  CDGAMorphism is the
classifying map of a free CDGA into a finite one.  build_minimal_model
produces, degree by degree, a free CDGA with decomposable differential
together with a quasi-isomorphism onto a homologically 1-connected finite
input.
"""

import random
from fractions import Fraction

from cdgacyc import gralg, linalg
from cdgacyc.complexes import CochainComplex, audit
from cdgacyc.free_loop import base_cochain
from cdgacyc.gralg import FreeCDGA, Generator
from cdgacyc.linalg import SparseMatrix


class ModelError(Exception):
    pass


class FiniteCDGA:
    """Finite-dimensional CDGA from structure constants.

    basis: list of (name, degree) pairs of nonnegative degree; exactly
    one degree-0 element, the unit.  products: dict (name, name) ->
    element, where an element is a dict name -> Fraction; missing pairs
    mean zero, unit products and graded-commutative partners are filled
    in.  differential: dict name -> element.
    """

    def __init__(self, basis, products, differential):
        names = [n for n, _ in basis]
        if len(set(names)) != len(names):
            raise ModelError("duplicate basis name")
        for n, d in basis:
            if d < 0:
                raise ModelError(f"basis element {n} has negative degree {d}")
        self.names = names
        self.degree = {n: d for n, d in basis}
        units = [n for n in names if self.degree[n] == 0]
        if len(units) != 1:
            raise ModelError("need exactly one degree-0 basis element")
        self.unit = units[0]
        self.by_degree = {}
        for n in names:
            self.by_degree.setdefault(self.degree[n], []).append(n)

        self.products = {}
        for (a, b), elem in products.items():
            self.products[(a, b)] = {
                n: Fraction(c) for n, c in elem.items() if Fraction(c)
            }
        for a in names:
            self._fill_unit(a)
        for a in names:
            for b in names:
                self._fill_commutative(a, b)
        self.differential = {
            n: {m: Fraction(c) for m, c in e.items() if Fraction(c)}
            for n, e in differential.items()
        }
        self._check_axioms()
        # built only now: d_matrix relies on the degree checks above
        top = max(self.degree.values())
        self.complex = CochainComplex(
            {n: self.basis_of(n) for n in range(top + 1)},
            {n: self.d_matrix(n) for n in range(top)},
        )
        if self.betti(0) != 1:
            raise ModelError("H^0 is not one-dimensional")

    def _fill_unit(self, a):
        for pair, value in (((self.unit, a), {a: Fraction(1)}),
                            ((a, self.unit), {a: Fraction(1)})):
            have = self.products.get(pair)
            if have is None:
                self.products[pair] = dict(value)
            elif have != value:
                raise ModelError(f"unit product broken for {a}")

    def _fill_commutative(self, a, b):
        sign = -1 if (self.degree[a] % 2 and self.degree[b] % 2) else 1
        ab = self.products.get((a, b))
        ba = self.products.get((b, a))
        if ab is None and ba is None:
            self.products[(a, b)] = {}
            self.products[(b, a)] = {}
        elif ab is None:
            self.products[(a, b)] = {n: sign * c for n, c in ba.items()}
        elif ba is None:
            self.products[(b, a)] = {n: sign * c for n, c in ab.items()}

    def mul(self, e1, e2):
        out = {}
        for a, c1 in e1.items():
            for b, c2 in e2.items():
                for n, c in self.products[(a, b)].items():
                    out[n] = out.get(n, Fraction(0)) + c1 * c2 * c
                    if not out[n]:
                        del out[n]
        return out

    def d(self, e):
        out = {}
        for a, c in e.items():
            for n, v in self.differential.get(a, {}).items():
                out[n] = out.get(n, Fraction(0)) + c * v
                if not out[n]:
                    del out[n]
        return out

    def element_degree(self, e):
        degs = {self.degree[n] for n in e}
        if len(degs) > 1:
            raise ModelError(f"element not homogeneous: degrees {sorted(degs)}")
        return degs.pop() if degs else None

    def _check_axioms(self):
        for (a, b), e in self.products.items():
            d = self.element_degree(e)
            if d is not None and d != self.degree[a] + self.degree[b]:
                raise ModelError(f"product {a}*{b} has wrong degree")
        for a, e in self.differential.items():
            d = self.element_degree(e)
            if d is not None and d != self.degree[a] + 1:
                raise ModelError(f"d({a}) has wrong degree")
        for a in self.names:
            for b in self.names:
                sign = -1 if (self.degree[a] % 2 and self.degree[b] % 2) else 1
                ab = self.products[(a, b)]
                ba = gralg.poly_scale(sign, self.products[(b, a)])
                if ab != ba:
                    raise ModelError(f"graded commutativity fails on {a},{b}")
        for a in self.names:
            for b in self.names:
                for c in self.names:
                    lhs = self.mul(self.products[(a, b)], {c: Fraction(1)})
                    rhs = self.mul({a: Fraction(1)}, self.products[(b, c)])
                    if lhs != rhs:
                        raise ModelError(
                            f"associativity fails on {a},{b},{c}"
                        )
        for a in self.names:
            if self.d(self.d({a: Fraction(1)})):
                raise ModelError(f"d^2 nonzero on {a}")
        for a in self.names:
            for b in self.names:
                lhs = self.d(self.products[(a, b)])
                sign = -1 if self.degree[a] % 2 else 1
                rhs = gralg.poly_add(
                    self.mul(self.d({a: Fraction(1)}), {b: Fraction(1)}),
                    gralg.poly_scale(sign, self.mul({a: Fraction(1)},
                                                    self.d({b: Fraction(1)}))),
                )
                if lhs != rhs:
                    raise ModelError(f"Leibniz fails on {a},{b}")

    def basis_of(self, n):
        return self.by_degree.get(n, [])

    def d_matrix(self, n):
        src = self.basis_of(n)
        tgt = self.basis_of(n + 1)
        pos = {m: i for i, m in enumerate(tgt)}
        entries = {}
        for j, a in enumerate(src):
            for m, c in self.differential.get(a, {}).items():
                entries[(pos[m], j)] = c
        return SparseMatrix.validated(len(tgt), len(src), entries)

    def betti(self, n):
        return self.complex.betti(n)

    def is_homologically_1_connected(self):
        return self.betti(0) == 1 and self.betti(1) == 0


def _vector(B, e, n):
    """{index: Fraction} coordinates of an element e of B on B.basis_of(n)."""
    pos = {m: i for i, m in enumerate(B.basis_of(n))}
    return {pos[m]: c for m, c in e.items() if c}


class CDGAMorphism:
    """The classifying map theta: Lambda[V] -> B of a free CDGA into a
    finite one.

    values maps each generator name to an element of B; theta is
    multiplicative by construction, so verify() checks degrees and the
    chain condition on generators only.
    """

    def __init__(self, source, target, values):
        if not (isinstance(source, FreeCDGA) and isinstance(target, FiniteCDGA)):
            raise ModelError(
                f"a CDGAMorphism maps a FreeCDGA to a FiniteCDGA, not "
                f"{type(source).__name__} to {type(target).__name__}")
        self.source = source
        self.target = target
        self.values = values
        self._memo = {}

    def apply(self, e):
        """Image in B of a polynomial of the source."""
        out = {}
        for mono, c in e.items():
            out = gralg.poly_add(out, gralg.poly_scale(c, self._image_mono(mono)))
        return out

    def _image_mono(self, mono):
        if mono in self._memo:
            return self._memo[mono]
        img = {self.target.unit: Fraction(1)}
        for g, e in mono:
            if g.name not in self.values:
                raise ModelError(f"no value for generator {g.name}")
            for _ in range(e):
                img = self.target.mul(img, self.values[g.name])
        self._memo[mono] = img
        return img

    def matrix(self, n):
        cols = [_vector(self.target, self._image_mono(mono), n)
                for mono in self.source.algebra.basis(n)]
        return SparseMatrix.from_columns(len(self.target.basis_of(n)), cols)

    def verify(self):
        """Failure strings for the degree and chain checks on generators."""
        problems = []
        for g in self.source.algebra.generators:
            img = self.values.get(g.name)
            if img is None:
                problems.append(f"missing value for {g.name}")
                continue
            degs = {self.target.degree[n] for n in img}
            if degs and degs != {g.degree}:
                problems.append(f"value of {g.name} not degree-preserving")
            lhs = self.apply(self.source.differential.on_generator(g))
            if lhs != self.target.d(img):
                problems.append(f"chain condition fails on {g.name}")
        return problems


def verify_minimal(A, cutoff):
    """Minimality audits of a free CDGA up to the cutoff: no generator has
    degree 1 (with one, the ordering condition is unverifiable), and every
    differential value is decomposable (each monomial has at least two
    factors counted with multiplicity), with degree-2 generators closed.
    """
    return [_no_degree_one(A), _decomposable(A, cutoff)]


@audit("no degree-1 generators")
def _no_degree_one(A):
    return [{"check": f"generator {g.name}", "degree": 1}
            for g in A.algebra.generators if g.degree == 1]


@audit("differential decomposable")
def _decomposable(A, cutoff):
    bad = []
    for g in A.algebra.generators:
        if g.degree > cutoff:
            continue
        dv = A.differential.on_generator(g)
        if any(sum(e for _, e in mono) < 2 for mono in dv):
            bad.append({"check": f"d({g.name}) = {gralg.poly_str(dv)} is "
                                 "not decomposable", "degree": g.degree})
        if g.degree == 2 and dv:
            bad.append({"check": f"d({g.name}) != 0", "degree": 2})
    return bad


def _mix(rng, vectors):
    """Random unimodular recombination of a list of coordinate vectors."""
    vecs = list(vectors)
    rng.shuffle(vecs)
    for i in range(len(vecs)):
        for j in range(len(vecs)):
            if i != j and rng.random() < 0.5:
                c = rng.randint(-2, 2)
                vecs[i] = gralg.poly_add(vecs[i], gralg.poly_scale(c, vecs[j]))
    return vecs


def build_minimal_model(B, cutoff, seed=None):
    """Minimal free model of a homologically 1-connected finite CDGA.

    Stage n (n = 2..cutoff-1) first adjoins closed generators hitting a
    complement of the image of H^n(theta), then generators whose
    differentials kill the kernel of H^{n+1}(theta), with target values
    solved as primitives.  Returns (A, theta).

    Each stage builds its algebra, theta and source complex once, before
    its closed generators are adjoined, and both steps read them.  The
    closed generators of degree n change nothing the second step reads:
    no generator has degree 1, so none of them enters a monomial of
    degree n + 1, and Lambda^{n+1}, its labels, theta^{n+1} and d^{n+1}
    stay the same; in degree n they add only themselves, with d = 0, so
    d^n gains only zero columns, and its image, hence H^{n+1}, is
    unchanged.
    """
    if not isinstance(B, FiniteCDGA):
        raise ModelError("build_minimal_model expects a FiniteCDGA")
    if not B.is_homologically_1_connected():
        raise ModelError("input must be homologically 1-connected")
    rng = random.Random(seed) if seed is not None else None
    gens = []
    diff_values = {}
    theta_values = {}
    uid = 0
    counter = 0
    tgt_c = B.complex

    for n in range(2, cutoff):
        A = FreeCDGA(gens, diff_values)
        theta = CDGAMorphism(A, B, dict(theta_values))
        # the stage reads H^n and H^{n+1}: d^{n-1}, d^n and d^{n+1} only
        src_c = base_cochain(A, n + 2, bottom=n - 1)

        # surjectivity in degree n: adjoin closed generators for a
        # complement of the image of H^n(theta)
        hn_src = src_c.cohomology(n)
        hn_tgt = tgt_c.cohomology(n)
        m = linalg.induced_map(theta.matrix(n), hn_src, hn_tgt)
        # the unit vectors e_i outside span(image, e_<i): those i that
        # are the highest index of no image vector
        missing = linalg.cohomology_at(
            m, SparseMatrix.zero(0, m.rows)).representatives
        if rng and len(missing) > 1:
            missing = _mix(rng, missing)
        for coords in missing:
            vec = {}
            for i, c in coords.items():
                vec = gralg.poly_add(
                    vec, gralg.poly_scale(c, hn_tgt.representatives[i]))
            cocycle = {B.basis_of(n)[pos]: v for pos, v in vec.items()}
            name = f"v{n}_{counter}"
            counter += 1
            gens.append(Generator(uid, name, n))
            uid += 1
            theta_values[name] = cocycle

        # injectivity in degree n+1: adjoin generators killing the kernel
        # (A, theta and src_c serve unchanged: see the docstring)
        h_src = src_c.cohomology(n + 1)
        h_tgt = tgt_c.cohomology(n + 1)
        m = linalg.induced_map(theta.matrix(n + 1), h_src, h_tgt)
        kernel = linalg.kernel_basis(m)
        if rng and len(kernel) > 1:
            kernel = _mix(rng, kernel)
        z_polys = []
        for coords in kernel:
            # cocycle z in Lambda[V]^{n+1} representing the killed class
            z_vec = {}
            for i, c in coords.items():
                z_vec = gralg.poly_add(
                    z_vec, gralg.poly_scale(c, h_src.representatives[i]))
            z_polys.append({src_c.labels[n + 1][pos]: v
                            for pos, v in z_vec.items()})
        # primitives b in B^n with d(b) = theta(z)
        sols = linalg.solve(
            tgt_c.d(n),
            [_vector(B, theta.apply(z), n + 1) for z in z_polys],
        )
        if None in sols:
            raise ModelError(
                f"no primitive for a killed class in degree {n + 1}"
            )
        for z_poly, sol in zip(z_polys, sols):
            if rng:
                # primitive ambiguity: shift by a random cocycle
                for rep in hn_tgt.representatives:
                    if rng.random() < 0.5:
                        c = rng.randint(-2, 2)
                        sol = gralg.poly_add(sol, gralg.poly_scale(c, rep))
            primitive = {B.basis_of(n)[i]: c for i, c in sol.items()}
            name = f"w{n}_{counter}"
            counter += 1
            gens.append(Generator(uid, name, n))
            uid += 1
            diff_values[name] = z_poly
            theta_values[name] = primitive

    A = FreeCDGA(gens, diff_values)
    theta = CDGAMorphism(A, B, dict(theta_values))
    problems = theta.verify()
    if problems:
        raise ModelError(f"builder produced a bad morphism: {problems}")
    return A, theta
