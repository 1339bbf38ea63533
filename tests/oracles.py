"""Independent brute-force cohomology oracle.

Deliberately shares no code with the package: monomials are plain
exponent tuples over a fixed generator order, signs are counted
directly, and ranks come from naive dense Gaussian elimination over
Fraction.  Used to freeze the loop-space Betti numbers of the sphere
fixtures before comparing against the main pipeline.
"""

from fractions import Fraction


class BruteAlgebra:
    """Free graded-commutative algebra with explicit generator list.

    gens: list of (name, degree).  Monomial = exponent tuple; odd
    generators cap at exponent 1.
    """

    def __init__(self, gens, diff):
        self.names = [n for n, _ in gens]
        self.degrees = [d for _, d in gens]
        self.odd = [d % 2 == 1 for _, d in gens]
        # diff: name -> list of (coeff, exponent tuple)
        self.diff = {self.names.index(n): v for n, v in diff.items()}

    def mono_degree(self, m):
        return sum(e * d for e, d in zip(m, self.degrees))

    def mul(self, m1, m2):
        """(sign, product) or None when an odd exponent exceeds 1."""
        sign = 1
        for i in range(len(m1)):
            if not (self.odd[i] and m2[i]):
                continue
            # moving the odd factor at slot i of m2 past the odd tail of m1
            crossings = sum(
                m1[j] for j in range(i + 1, len(m1)) if self.odd[j]
            )
            if crossings % 2:
                sign = -sign
        out = tuple(a + b for a, b in zip(m1, m2))
        if any(self.odd[i] and out[i] > 1 for i in range(len(out))):
            return None
        return sign, out

    def d_mono(self, m):
        """Differential by the Leibniz rule, as dict monomial -> coeff.

        Term i: (-1)^{|prefix|} * e_i * prefix g_i^{e_i-1} dg_i suffix.
        dg_i is moved right past the suffix (sign (-1)^{|dg_i||suffix|})
        and then merged into sorted position by mul().
        """
        out = {}
        for i, e in enumerate(m):
            if e == 0 or i not in self.diff:
                continue
            prefix_deg = sum(m[j] * self.degrees[j] for j in range(i))
            suffix_deg = sum(
                m[j] * self.degrees[j] for j in range(i + 1, len(m))
            )
            stripped = tuple(
                v - 1 if j == i else v for j, v in enumerate(m)
            )
            for c, dm in self.diff[i]:
                r = self.mul(stripped, dm)
                if r is None:
                    continue
                s, prod = r
                coeff = Fraction(c) * e * s
                if prefix_deg % 2:
                    coeff = -coeff
                if (self.mono_degree(dm) % 2) and (suffix_deg % 2):
                    coeff = -coeff
                out[prod] = out.get(prod, Fraction(0)) + coeff
                if not out[prod]:
                    del out[prod]
        return out

    def basis(self, n, counted=None, cap=None):
        """Exponent tuples of total degree n."""
        out = []

        def rec(i, left, acc):
            if i == len(self.degrees):
                if left == 0:
                    out.append(tuple(acc))
                return
            d = self.degrees[i]
            top = 1 if self.odd[i] else (left // d if d else 0)
            for e in range(top + 1):
                if e * d > left:
                    break
                acc.append(e)
                rec(i + 1, left - e * d, acc)
                acc.pop()

        rec(0, n, [])
        return out


def rref(rows):
    """Reduced row echelon form by naive dense Gauss-Jordan over Fraction.

    Returns (nonzero rows as Fraction lists, pivot columns).
    """
    rows = [[Fraction(v) for v in r] for r in rows if any(r)]
    rank = 0
    col = 0
    width = len(rows[0]) if rows else 0
    pivots = []
    while rank < len(rows) and col < width:
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][col]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        col += 1
    return rows[:rank], pivots


def rref_rank(rows):
    """Rank by naive Gaussian elimination over Fraction."""
    return len(rref(rows)[1])


def cohomology_dims(algebra, top):
    """dim H^n for n = 0..top-1 of (algebra, d)."""
    bases = {n: algebra.basis(n) for n in range(top + 1)}
    d_rank = {}
    for n in range(top):
        idx = {m: i for i, m in enumerate(bases[n + 1])}
        rows = []
        for m in bases[n]:
            row = [Fraction(0)] * len(bases[n + 1])
            for prod, c in algebra.d_mono(m).items():
                row[idx[prod]] = c
            rows.append(row)
        d_rank[n] = rref_rank(rows) if rows and bases[n + 1] else 0
    dims = []
    for n in range(top):
        dims.append(len(bases[n]) - d_rank[n] - d_rank.get(n - 1, 0))
    return dims


def loop_sphere3():
    """Free loop algebra of (L[x3], 0): gens x (3), xbar (2)."""
    return BruteAlgebra(
        [("x", 3), ("xbar", 2)],
        {},  # delta x = 0, delta xbar = 0
    )


def loop_sphere2():
    """Free loop algebra of (L[x2, y3], dy = x^2).

    Generator order x, y, xbar, ybar with degrees 2, 3, 1, 2;
    delta y = x^2, delta ybar = -2 x xbar.
    """
    return BruteAlgebra(
        [("x", 2), ("y", 3), ("xbar", 1), ("ybar", 2)],
        {
            "y": [(Fraction(1), (2, 0, 0, 0))],
            "ybar": [(Fraction(-2), (1, 0, 1, 0))],
        },
    )


def hh_sphere3(top):
    return cohomology_dims(loop_sphere3(), top)


def hh_sphere2(top):
    return cohomology_dims(loop_sphere2(), top)
