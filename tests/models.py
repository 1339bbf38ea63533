"""Seeded generated models for the laws tested on more than the fixtures.

A model is a pair ``(generators, differential)``: ``generators`` lists
``(name, degree)`` and ``differential`` maps a generator name to a
polynomial ``{((name, exp), ...): Fraction}``: spheres and projective
spaces, their tensor products, a model that is not pure, and two
nilmanifolds with degree-1 generators, the torus and the Heisenberg
manifold.  Factors get distinct names from their tag, so tensor
products are plain unions.
``rescaled`` gives an isomorphic copy (x' = s_x x for a seeded nonzero
rational s_x, so c * prod x^e in d(y) becomes c * s_y / prod s_x^e);
every table of the package depends only on the isomorphism class.
``brute_form`` gives a model in the form ``tests/oracles.py`` takes.
"""

from fractions import Fraction

from cdgacyc.gralg import FreeCDGA, Generator


def odd_sphere(degree, tag):
    """S^n, n odd: one closed generator x of degree n."""
    return [(f"x{tag}", degree)], {}


def even_sphere(degree, tag):
    """S^n, n even: x of degree n and y of degree 2n - 1 with dy = x^2."""
    x, y = f"x{tag}", f"y{tag}"
    return [(x, degree), (y, 2 * degree - 1)], {y: {((x, 2),): Fraction(1)}}


def projective_space(n, tag):
    """CP^n: x of degree 2 and y of degree 2n + 1 with dy = x^(n+1)."""
    x, y = f"x{tag}", f"y{tag}"
    return [(x, 2), (y, 2 * n + 1)], {y: {((x, n + 1),): Fraction(1)}}


def non_pure():
    """Lambda(a2, b2, x3, y3, z4) with dx = a^2, dy = ab, dz = ay - bx.
    The even generator z has dz != 0, so the model is not pure; with 3
    even and 2 odd generators its cohomology is infinite."""
    one = Fraction(1)
    return ([("a", 2), ("b", 2), ("x", 3), ("y", 3), ("z", 4)],
            {"x": {(("a", 2),): one},
             "y": {(("a", 1), ("b", 1)): one},
             "z": {(("a", 1), ("y", 1)): one, (("b", 1), ("x", 1)): -one}})


def torus(tag):
    """T^2: two closed generators of degree 1."""
    return [(f"a{tag}", 1), (f"b{tag}", 1)], {}


def heisenberg(tag):
    """The Heisenberg nilmanifold: x, y, z of degree 1 with dz = xy."""
    x, y, z = f"x{tag}", f"y{tag}", f"z{tag}"
    return ([(x, 1), (y, 1), (z, 1)],
            {z: {((x, 1), (y, 1)): Fraction(1)}})


def tensor(*models):
    gens, diff = [], {}
    for g, d in models:
        gens += g
        diff.update(d)
    return gens, diff


def _scale(rng):
    return Fraction(rng.choice((-1, 1)) * rng.choice((1, 2, 3)),
                    rng.choice((1, 2, 3)))


def rescaled(model, rng):
    gens, diff = model
    s = {name: _scale(rng) for name, _ in gens}
    out = {}
    for y, p in diff.items():
        out[y] = {}
        for mono, c in p.items():
            for x, e in mono:
                c /= s[x] ** e
            out[y][mono] = c * s[y]
    return gens, out


def free_cdga(model):
    gens, diff = model
    by_name = {name: Generator(i, name, deg)
               for i, (name, deg) in enumerate(gens)}
    values = {
        y: {tuple(sorted(((by_name[x], e) for x, e in mono),
                         key=lambda p: p[0].uid)): c
            for mono, c in p.items()}
        for y, p in diff.items()}
    return FreeCDGA(list(by_name.values()), values)


def brute_form(model):
    """The model as ``tests/oracles.BruteAlgebra`` takes it: the same
    generators, and d as [(coeff, exponent tuple)] in generator order."""
    gens, diff = model
    slot = {name: i for i, (name, _) in enumerate(gens)}

    def exponents(mono):
        v = [0] * len(gens)
        for x, e in mono:
            v[slot[x]] = e
        return tuple(v)

    return gens, {y: [(c, exponents(m)) for m, c in p.items()]
                  for y, p in diff.items()}
