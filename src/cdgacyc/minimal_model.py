"""Minimality checks, quasi-isomorphisms and the inductive model builder.

A FiniteCDGA is a finite-dimensional CDGA given by structure constants;
all axioms (associativity, graded commutativity, unit, Leibniz, d^2 = 0)
are verified on construction.  build_minimal_model produces, degree by
degree, a free CDGA with decomposable differential together with a
quasi-isomorphism onto a homologically 1-connected finite input.
"""

import random
from fractions import Fraction

from cdgacyc import gralg, linalg
from cdgacyc.complexes import CochainComplex
from cdgacyc.free_loop import base_cochain
from cdgacyc.gralg import FreeCDGA, Generator
from cdgacyc.linalg import SparseMatrix


class ModelError(Exception):
    pass


class FiniteCDGA:
    """Finite-dimensional CDGA from structure constants.

    basis: list of (name, degree) pairs; exactly one degree-0 element,
    the unit.  products: dict (name, name) -> element, where an element
    is a dict name -> Fraction; missing pairs mean zero, unit products
    and graded-commutative partners are filled in.  differential: dict
    name -> element.
    """

    def __init__(self, basis, products, differential):
        names = [n for n, _ in basis]
        if len(set(names)) != len(names):
            raise ModelError("duplicate basis name")
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

    # element arithmetic (elements are dicts name -> Fraction)
    def add(self, e1, e2):
        out = dict(e1)
        for n, c in e2.items():
            out[n] = out.get(n, Fraction(0)) + c
            if not out[n]:
                del out[n]
        return out

    def scale(self, c, e):
        c = Fraction(c)
        return {n: c * v for n, v in e.items()} if c else {}

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
                ba = self.scale(sign, self.products[(b, a)])
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
                rhs = self.add(
                    self.mul(self.d({a: Fraction(1)}), {b: Fraction(1)}),
                    self.scale(sign, self.mul({a: Fraction(1)},
                                              self.d({b: Fraction(1)}))),
                )
                if lhs != rhs:
                    raise ModelError(f"Leibniz fails on {a},{b}")
        if self.betti(0) != 1:
            raise ModelError("H^0 is not one-dimensional")

    def basis_of(self, n):
        return self.by_degree.get(n, [])

    def unit_element(self):
        return {self.unit: Fraction(1)}

    def d_matrix(self, n):
        src = self.basis_of(n)
        tgt = self.basis_of(n + 1)
        pos = {m: i for i, m in enumerate(tgt)}
        entries = {}
        for j, a in enumerate(src):
            for m, c in self.differential.get(a, {}).items():
                entries[(pos[m], j)] = c
        return SparseMatrix.validated(len(tgt), len(src), entries)

    def cohomology(self, n):
        return linalg.cohomology_at(
            self.d_matrix(n - 1) if n >= 1 else SparseMatrix.zero(
                len(self.basis_of(n)), 0),
            self.d_matrix(n),
        )

    def betti(self, n):
        return self.cohomology(n).dim

    def is_homologically_1_connected(self):
        return self.betti(0) == 1 and self.betti(1) == 0

    def cochain(self, top):
        labels = {n: list(self.basis_of(n)) for n in range(top + 1)}
        diff = {n: self.d_matrix(n) for n in range(top)}
        return CochainComplex(labels, diff)


class _FreeSide:
    """The element interface of FiniteCDGA over a free CDGA."""

    def __init__(self, a):
        self.cdga = a

    def basis_of(self, n):
        return self.cdga.algebra.basis(n)

    def unit_element(self):
        return {gralg.ONE: Fraction(1)}

    def mul(self, e1, e2):
        return gralg.poly_mul(e1, e2)

    def add(self, e1, e2):
        return gralg.poly_add(e1, e2)

    def scale(self, c, e):
        return gralg.poly_scale(c, e)

    def d(self, e):
        return self.cdga.differential.apply(e)

    def cochain(self, top):
        return base_cochain(self.cdga, top)


def _side(a):
    """The element interface of an algebra: a FiniteCDGA is its own."""
    if isinstance(a, FreeCDGA):
        return _FreeSide(a)
    if isinstance(a, FiniteCDGA):
        return a
    raise ModelError(f"unsupported algebra type {type(a).__name__}")


def _vector(side, e, n):
    """{index: Fraction} coordinates of e on side.basis_of(n)."""
    pos = {m: i for i, m in enumerate(side.basis_of(n))}
    return {pos[m]: c for m, c in e.items() if c}


class CDGAMorphism:
    """Degree-preserving multiplicative chain map.

    For a free source, values maps generator names to target elements
    and multiplicativity is automatic; for a finite source, values maps
    every basis name to a target element and multiplicativity is checked
    pairwise by verify().
    """

    def __init__(self, source, target, values):
        self.source = source
        self.target = target
        self.src = _side(source)
        self.tgt = _side(target)
        self.values = values
        self._memo = {}

    def _image_of_generator(self, g):
        if g.name not in self.values:
            raise ModelError(f"no value for generator {g.name}")
        return self.values[g.name]

    def apply(self, e):
        """Image of a source element (poly for free, dict for finite)."""
        if isinstance(self.source, FiniteCDGA):
            out = {}
            for name, c in e.items():
                img = self.values.get(name)
                if img is None:
                    raise ModelError(f"no value for basis element {name}")
                out = self.tgt.add(out, self.tgt.scale(c, img))
            return out
        out = {}
        for mono, c in e.items():
            out = self.tgt.add(out, self.tgt.scale(c, self._image_mono(mono)))
        return out

    def _image_mono(self, mono):
        if mono in self._memo:
            return self._memo[mono]
        img = self.tgt.unit_element()
        for g, e in mono:
            base = self._image_of_generator(g)
            for _ in range(e):
                img = self.tgt.mul(img, base)
        self._memo[mono] = img
        return img

    def matrix(self, n):
        src_basis = self.src.basis_of(n)
        cols = []
        for key in src_basis:
            if isinstance(self.source, FiniteCDGA):
                img = self.apply({key: Fraction(1)})
            else:
                img = self._image_mono(key)
            cols.append(_vector(self.tgt, img, n))
        return SparseMatrix.from_columns(len(self.tgt.basis_of(n)), cols)

    def verify(self, top):
        """Failure strings for degree, chain and multiplicativity checks."""
        problems = []
        if isinstance(self.source, FiniteCDGA):
            B = self.source
            for name in B.names:
                img = self.values.get(name)
                if img is None:
                    problems.append(f"missing value for {name}")
                    continue
                degs = self._degrees_of(img)
                if degs and degs != {B.degree[name]}:
                    problems.append(f"value of {name} not degree-preserving")
            unit = self.values.get(B.unit)
            if unit != self.tgt.unit_element():
                problems.append("unit not preserved")
            for a in B.names:
                lhs = self.apply(B.d({a: Fraction(1)}))
                rhs = self.tgt.d(self.apply({a: Fraction(1)}))
                if lhs != rhs:
                    problems.append(f"chain condition fails on {a}")
            for a in B.names:
                for b in B.names:
                    if B.degree[a] + B.degree[b] > top:
                        continue
                    lhs = self.apply(B.products[(a, b)])
                    rhs = self.tgt.mul(self.apply({a: Fraction(1)}),
                                       self.apply({b: Fraction(1)}))
                    if lhs != rhs:
                        problems.append(f"multiplicativity fails on {a},{b}")
        else:
            for g in self.source.algebra.generators:
                img = self.values.get(g.name)
                if img is None:
                    problems.append(f"missing value for {g.name}")
                    continue
                degs = self._degrees_of(img)
                if degs and degs != {g.degree}:
                    problems.append(f"value of {g.name} not degree-preserving")
                lhs = self.apply(
                    self.source.differential.apply(
                        self.source.algebra.gen_poly(g.name)))
                rhs = self.tgt.d(self.values.get(g.name, {}))
                if lhs != rhs:
                    problems.append(f"chain condition fails on {g.name}")
        return problems

    def _degrees_of(self, e):
        if isinstance(self.target, FiniteCDGA):
            return {self.target.degree[n] for n in e}
        return {gralg.monomial_degree(m) for m in e}


def verify_minimal(A, cutoff):
    """Minimality report for a free CDGA up to the cutoff.

    Checks that no generator has degree 1, that every differential value
    is decomposable (each monomial has at least two factors counted with
    multiplicity) and that degree-2 generators are closed.
    """
    checks = []
    ok = True
    deg1 = [g.name for g in A.algebra.generators if g.degree == 1]
    if deg1:
        checks.append({"check": "no degree-1 generators", "pass": False,
                       "detail": f"found {deg1}; ordering condition "
                                 "unverifiable"})
        ok = False
    else:
        checks.append({"check": "no degree-1 generators", "pass": True})
    for g in A.algebra.generators:
        if g.degree > cutoff:
            continue
        dv = A.differential.on_generator(g)
        decomposable = all(
            sum(e for _, e in mono) >= 2 for mono in dv
        )
        if not decomposable:
            checks.append({"check": f"d({g.name}) decomposable",
                           "pass": False,
                           "detail": gralg.poly_str(dv)})
            ok = False
        if g.degree == 2 and dv:
            checks.append({"check": f"d({g.name}) = 0 in degree 2",
                           "pass": False})
            ok = False
    if ok:
        checks.append({"check": "differential decomposable", "pass": True})
    return {"pass": ok, "checks": checks}


def is_quasi_iso(f, cutoff):
    """(bool, table): H^n(f) bijective for every n <= cutoff - 1."""
    src_c = f.src.cochain(cutoff)
    tgt_c = f.tgt.cochain(cutoff)
    table = []
    ok = True
    for n in range(cutoff):
        m = linalg.induced_map(
            f.matrix(n), src_c.cohomology(n), tgt_c.cohomology(n)
        )
        iso = m.rows == m.cols and linalg.rank(m) == m.rows
        table.append({
            "n": n,
            "dim_source": m.cols,
            "dim_target": m.rows,
            "rank": linalg.rank(m),
            "iso": iso,
        })
        ok = ok and iso
    return ok, table


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

    for n in range(2, cutoff):
        A = FreeCDGA(gens, diff_values)
        theta = CDGAMorphism(A, B, dict(theta_values))
        src_c = base_cochain(A, n + 2)
        tgt_c = B.cochain(n + 2)

        # surjectivity in degree n: adjoin closed generators for a
        # complement of the image of H^n(theta)
        hn_src = src_c.cohomology(n)
        hn_tgt = tgt_c.cohomology(n)
        m = linalg.induced_map(theta.matrix(n), hn_src, hn_tgt)
        # unit vectors outside the image: pivot columns of [image | units]
        d = m.rows
        units = {(i, m.cols + i): Fraction(1) for i in range(d)}
        _, pivots = SparseMatrix(d, m.cols + d, m.entries | units).echelon()
        missing = [{j - m.cols: Fraction(1)} for j in pivots if j >= m.cols]
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
        A = FreeCDGA(gens, diff_values)
        theta = CDGAMorphism(A, B, dict(theta_values))
        src_c = base_cochain(A, n + 2)
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
            B.d_matrix(n),
            [_vector(B, theta.apply(z), n + 1) for z in z_polys],
        )
        if None in sols:
            raise ModelError(
                f"no primitive for a killed class in degree {n + 1}"
            )
        for z_poly, sol in zip(z_polys, sols):
            if rng and h_tgt is not None:
                # primitive ambiguity: shift by a random cocycle
                hb = tgt_c.cohomology(n)
                for rep in hb.representatives:
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
    problems = theta.verify(cutoff)
    if problems:
        raise ModelError(f"builder produced a bad morphism: {problems}")
    return A, theta
