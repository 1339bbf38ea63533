"""Closed forms for the per-weight Hochschild tables of spheres.

Each formula is derived from the loop model, not read off the package.
The loop model of a free model (ΛV, d) is (Λ(V ⊕ V̄), δ) with
|v̄| = |v| - 1, s the degree -1 derivation v ↦ v̄ (s v̄ = 0), δ = d on V
and δv̄ = -s(dv).  Its weight is the number of barred letters, which δ
keeps, so HH splits into weights, and H(Λ(V ⊕ V̄), δ) is the cohomology
of the free loop space (Vigué-Poirrier–Sullivan, J. Diff. Geom. 11
(1976)).  A table is {degree: {weight: dimension}} for the degrees
0..cutoff, with {} for a zero row.
"""


def _table(classes, cutoff):
    """The table of the (degree, weight) pairs of a basis of classes."""
    out = {n: {} for n in range(cutoff + 1)}
    for n, w in classes:
        if 0 <= n <= cutoff:
            out[n][w] = out[n].get(w, 0) + 1
    return out


def hh_odd_sphere(n, cutoff):
    """HH of S^n, n odd: weight w in degrees (n - 1)w and (n - 1)w + n.

    The model is Λ(x), |x| = n, with d = 0, so δ = 0 too: HH is the whole
    loop algebra Λ(x) ⊗ Q[x̄], x̄ even of degree n - 1.  This is the
    Hochschild-Kostant-Rosenberg theorem for a free graded commutative
    algebra with d = 0, HH = Ω (Loday, *Cyclic Homology*, §3.4).  The
    basis x̄^w and x x̄^w has weight w and degrees (n - 1)w and
    (n - 1)w + n.  For S^3: weight w in degrees 2w and 2w + 3.
    """
    return _table([((n - 1) * w + e * n, w)
                   for w in range(cutoff + 1) for e in (0, 1)], cutoff)


def hh_even_sphere(n, cutoff):
    """HH of S^n, n even: weight 0 in degrees 0 and n, and weight w >= 1
    in degrees (2n - 2)w - (n - 1) and (2n - 2)w + n.

    The model is Λ(a, b), |a| = n, |b| = 2n - 1, db = a^2.  In the loop
    model ā is odd of degree n - 1, b̄ even of degree 2n - 2, δā = 0 and
    δb̄ = -s(a^2) = c a ā with c = -2 != 0.  Weight 0 is the model
    itself, with H = Q{1, a}.  In weight w >= 1 a basis is a^i b̄^w,
    a^i b b̄^w, a^i ā b̄^(w-1) and a^i b ā b̄^(w-1), i >= 0, and ā^2 = 0
    gives

        δ(a^i b̄^w)           = c w a^(i+1) ā b̄^(w-1),
        δ(a^i b b̄^w)         = a^(i+2) b̄^w ± c w a^(i+1) b ā b̄^(w-1),
        δ(a^i ā b̄^(w-1))     = 0,
        δ(a^i b ā b̄^(w-1))   = a^(i+2) ā b̄^(w-1).

    Odd degrees: the cocycles are the a^i ā b̄^(w-1), and the first line
    hits every one with i >= 1, so ā b̄^(w-1) is the one class, of degree
    (2n - 2)w - (n - 1).  Even degrees: a^i b̄^w and a^(i-1) b ā b̄^(w-1)
    share a degree, both map to multiples of a^(i+1) ā b̄^(w-1), so for
    i >= 1 one combination z_i of them is a cocycle, and for i = 0 there
    is none.  The second line's image, of a^(i-2) b b̄^w, is a nonzero
    cocycle in z_i's degree, so it spans z_i for i >= 2.  That leaves z_1,
    of degree n + (2n - 2)w.  For S^2: weight 0 in degrees 0 and 2, and
    weight w >= 1 in degrees 2w - 1 and 2w + 2.
    """
    return _table([(0, 0), (n, 0)] + [
        ((2 * n - 2) * w + e, w)
        for w in range(1, cutoff + 1) for e in (-(n - 1), n)], cutoff)
