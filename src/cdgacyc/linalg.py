"""Exact sparse linear algebra over the rationals.

Everything downstream (cohomology of every complex, induced maps,
audits) reduces to the operations here: rank, kernel, image, subquotient
bases and maps induced on subquotients.  Each is read off a sparse
reduced row echelon form over Q, computed once per matrix and cached on
it.  The elimination leaves its rows integral (``kernels.bareiss``): a
rank reads only the pivots and divides nothing, and a reader that needs
entries of a row divides just those.  A subquotient Ker(d_out)/Im(d_in)
works in kernel coordinates, the entries of a cocycle on the free
columns of RREF(d_out): its dimension is nullity(d_out) - rank(d_in),
and its representatives and the coordinates of a class come from one
elimination of the image in those coordinates, made on first use, so no
coordinate lookup or induced map eliminates anything.  This engine
runs over Z: image, representatives and pivot table are integer vectors
and rows, one integer reduction gives the coordinates of a class and
the columns of an induced map, and the {index: Fraction} image and
representatives are views built on first read.  ``solve`` appends a
whole batch of right-hand sides to the matrix, so lifts never eliminate
once per vector.  All arithmetic is exact; matrices are immutable after
construction.

What the shapes alone fix is returned without computing it.  The map
induced into or out of a subquotient of a zero ambient is the zero
matrix of its shape, with no coordinates read; a zero ambient needs no
d_out . d_in test; a product with a zero operand is the zero of its
shape, and ``SparseMatrix.zero`` gives one shared, read-only instance
per shape.

A vector is a sparse dict ``{index: Fraction}`` with no stored zeros and
every index in range of its ambient space; the zero vector is ``{}``.
Kernel and image bases, representatives, right-hand sides, solutions,
coordinates and matrix-vector products all take and give this form.

A matrix stores one form, its integer form: a pair ``(den, {(row, col):
int})`` with den > 0, no stored zero, every index in range of its
shape, and the matrix equal to the integer matrix divided by den.  Its
``entries``, ``{(row, col): Fraction}`` with the same invariant, are a
read-only view of that form, built the first time they are read.  The
constructor trusts its caller, since every matrix the package builds is
made from exact data: builders that hold integers (power maps, slots,
cones, arithmetic) give the integer form, and a {(row, col): Fraction}
dict is converted once.  Entries from outside (structure constants of a
finite algebra, matrices written by hand) go through
``SparseMatrix.validated``, which converts them, checks the shape and
the indices, drops zeros and raises ``LinalgError`` on anything else.

Arithmetic runs over Z.  Products, sums, differences, scalings,
equality, zero tests and elimination read the integer form, and a
matrix made by arithmetic is born in it.  One integer column index per
matrix serves matrix-vector products, the cocycle test ``d_out . v = 0``
and the slot builders of ``complexes``: an integer vector meets only the
columns that it hits, and a Fraction vector is first scaled by the lcm
of its denominators.  A relabelling (a label map, the identity) is the
0/1 matrix of an injective column -> row map and keeps that map beside
its integer form: applying it, multiplying by it on either side or
solving against it moves entries by index, with no arithmetic or
elimination, and its rank is its number of entries.  A map that is not
injective gives a general matrix.
"""

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType

from cdgacyc.kernels import bareiss


class LinalgError(Exception):
    pass


class PreconditionError(LinalgError):
    """A stated precondition (e.g. d_out . d_in = 0) fails."""


class SparseMatrix:
    """Immutable sparse matrix over Q, entries indexed (row, col).

    It stores one form, the integer form (den, {(row, col): int}), with
    one column index over it built on first use; ``entries`` is a
    read-only Fraction view of it, built the first time it is read.  A
    relabelling also keeps its column -> row map.
    """

    __slots__ = ("rows", "cols", "_integer", "_image", "_entries",
                 "_columns", "_echelon")

    def __init__(self, rows, cols, entries=None, integer=None, image=None):
        """A matrix of shape rows x cols from its integer form, a pair
        (den, {(row, col): int}) with den > 0 taken as it is, or else from
        a {(row, col): Fraction} dict, converted here; indices in range
        and no stored zero.  A relabelling passes its injective
        {col: row} map beside its integer form."""
        if integer is None:
            ratios = {k: v.as_integer_ratio() for k, v in entries.items()}
            den = lcm(*[d for _, d in ratios.values()])
            integer = (den, {k: n * (den // d)
                             for k, (n, d) in ratios.items()})
        self.rows = rows
        self.cols = cols
        self._integer = integer
        self._image = image
        self._entries = None
        self._columns = None
        self._echelon = None

    @classmethod
    def validated(cls, rows, cols, entries):
        """A matrix from entries that are not known to be exact: ints,
        Fractions or rational strings, zeros dropped.  Raises LinalgError
        on a negative shape, an index out of range or any other value."""
        if rows < 0 or cols < 0:
            raise LinalgError("negative dimension")
        clean = {}
        for (i, j), v in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise LinalgError(f"index ({i},{j}) out of range {rows}x{cols}")
            if not isinstance(v, (Fraction, int, str)):
                raise LinalgError(f"non-rational entry {v!r}")
            try:
                v = Fraction(v)
            except (ValueError, ZeroDivisionError):
                raise LinalgError(f"non-rational entry {v!r}") from None
            if v:
                clean[(i, j)] = v
        return cls(rows, cols, clean)

    @classmethod
    def zero(cls, rows, cols):
        """The rows x cols zero matrix: one shared instance per shape,
        its integer form, column index and entries read-only."""
        m = _ZEROS.get((rows, cols))
        if m is None:
            m = _ZEROS[(rows, cols)] = cls(rows, cols, integer=(1, _EMPTY))
            m._columns = _EMPTY
        return m

    @classmethod
    def identity(cls, n):
        return cls.relabelling(n, n, {i: i for i in range(n)})

    @classmethod
    def relabelling(cls, rows, cols, image):
        """The 0/1 matrix with a 1 at (image[j], j) for each column j in
        image.  An injective image gives a relabelling, whose products and
        applications move entries by index; any other gives the general
        matrix with the same entries."""
        integer = (1, {(i, j): 1 for j, i in image.items()})
        if len(set(image.values())) == len(image):
            return cls(rows, cols, integer=integer, image=image)
        return cls(rows, cols, integer=integer)

    @classmethod
    def scalar(cls, n, c):
        """c times the identity, for an int or Fraction c."""
        p, q = c.as_integer_ratio()
        return cls(n, n, integer=(q, {(i, i): p for i in range(n)} if p
                                  else {}))

    @classmethod
    def from_columns(cls, ambient, columns):
        """The matrix with these {index: Fraction} columns; with no row or
        no column, the shared zero of its shape."""
        if not (ambient and columns):
            return cls.zero(ambient, len(columns))
        return cls(ambient, len(columns), {
            (i, j): x for j, v in enumerate(columns) for i, x in v.items()})

    @property
    def entries(self):
        """{(row, col): nonzero Fraction}, read-only."""
        if self._entries is None:
            den, nums = self._integer
            self._entries = MappingProxyType(
                {k: Fraction(v, den) for k, v in nums.items()})
        return self._entries

    def integer(self):
        """(den, {(row, col): nonzero int}): the matrix is the integer
        matrix divided by den > 0."""
        return self._integer

    def __eq__(self, other):
        if self is other:
            return True
        if not (isinstance(other, SparseMatrix) and self.rows == other.rows
                and self.cols == other.cols):
            return False
        if self._image is not None and other._image is not None:
            return self._image == other._image
        a, left = self._integer
        b, right = other._integer
        if len(left) != len(right):
            return False
        if a == b:
            return left == right
        return all(b * v == a * right.get(k, 0) for k, v in left.items())

    def __repr__(self):
        return (f"SparseMatrix({self.rows}x{self.cols}, "
                f"{len(self._integer[1])} entries)")

    def is_zero(self):
        return not self._integer[1]

    def is_identity(self):
        """Whether this is the identity matrix; a relabelling reads it off
        its column -> row map, with no dict built."""
        if self.rows != self.cols:
            return False
        if self._image is not None:
            return len(self._image) == self.cols and all(
                i == j for j, i in self._image.items())
        den, nums = self._integer
        return den == 1 and len(nums) == self.cols and all(
            nums.get((j, j)) == 1 for j in range(self.cols))

    def _combine(self, other, sign):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in + or -")
        a, left = self._integer
        b, right = other._integer
        den = lcm(a, b)
        p, q = den // a, sign * (den // b)
        nums = {k: v * p for k, v in left.items()} if p != 1 else dict(left)
        for k, v in right.items():
            x = nums.get(k, 0) + q * v
            if x:
                nums[k] = x
            else:
                del nums[k]
        return _born(self.rows, self.cols, den, nums)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def scale(self, c):
        """c times the matrix, for an int or Fraction c."""
        p, q = c.as_integer_ratio()
        if not p:
            return SparseMatrix.zero(self.rows, self.cols)
        den, nums = self._integer
        return _born(self.rows, self.cols, den * q,
                     {k: p * v for k, v in nums.items()})

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in @")
        rows, cols = self.rows, other.cols
        if self.is_zero() or other.is_zero():
            return SparseMatrix.zero(rows, cols)
        outer, inner = self._image, other._image
        a, left = self._integer
        b, right = other._integer
        if outer is not None and inner is not None:
            return SparseMatrix.relabelling(rows, cols, {
                j: outer[i] for j, i in inner.items() if i in outer})
        if outer is not None:
            # row i of other is row outer[i] of the product
            return SparseMatrix(rows, cols, integer=(b, {
                (outer[i], j): v for (i, j), v in right.items()
                if i in outer}))
        if inner is not None:
            # column j of the product is column inner[j] of self
            back = {i: j for j, i in inner.items()}
            return SparseMatrix(rows, cols, integer=(a, {
                (i, back[j]): v for (i, j), v in left.items() if j in back}))
        return _born(rows, cols, a * b, _product(left, right))

    def columns(self):
        """Column j -> [(row, int)] of the integer form's entries, built
        once per matrix; columns with no entry are absent."""
        if self._columns is None:
            self._columns = {}
            for (i, j), v in self._integer[1].items():
                self._columns.setdefault(j, []).append((i, v))
        return self._columns

    def _hits(self, u):
        """{row: nonzero int}: the integer form's numerators times the
        integer vector of the (index, int) pairs u, meeting only the
        columns that u hits; a relabelling moves the entries."""
        image = self._image
        if image is not None:
            return {image[j]: y for j, y in u if j in image}
        cols = self.columns()
        acc = {}
        for j, y in u:
            for i, w in cols.get(j, ()):
                acc[i] = acc.get(i, 0) + w * y
        return {i: x for i, x in acc.items() if x}

    def apply(self, vec):
        """Matrix times a column vector, both {index: Fraction} dicts,
        computed over Z."""
        s, u = _scaled(vec)
        return _view(self._integer[0] * s, self._hits(u.items()))

    def echelon(self):
        """Reduced row echelon form of the integer form, cached: (its rows
        as primitive {col: int} dicts, ascending pivot columns), as
        kernels.bareiss gives them."""
        if self._echelon is None:
            self._echelon = _rref(self.rows, self.cols, self._integer[1])
        return self._echelon


_ZEROS = {}
_EMPTY = MappingProxyType({})


def _scaled(vec):
    """(s, {index: int}): the {index: Fraction} vector times the lcm s of
    its denominators."""
    s = lcm(*[x.denominator for x in vec.values()])
    return s, {j: x.numerator * (s // x.denominator) for j, x in vec.items()}


def _view(den, u):
    """The {index: Fraction} vector u / den of an {index: int} vector u."""
    return {i: Fraction(x, den) for i, x in u.items()}


def _born(rows, cols, den, nums):
    """The matrix nums / den, with the common factor of den and the
    numerators divided out."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
    return SparseMatrix(rows, cols, integer=(den, nums))


def _product(left, right):
    """The product of two integer matrices given as {(row, col): int}
    dicts, in the same form with no stored zero."""
    by_row = {}
    for (j, k), w in right.items():
        by_row.setdefault(j, []).append((k, w))
    acc = {}
    for (i, j), v in left.items():
        terms = by_row.get(j)
        if terms:
            for k, w in terms:
                key = (i, k)
                acc[key] = acc.get(key, 0) + v * w
    return {key: x for key, x in acc.items() if x}


def _rref(nrows, ncols, entries):
    """bareiss of the nrows x ncols matrix with these {(row, col): int}
    entries; a matrix with no entries is not eliminated."""
    if not entries:
        return [], ()
    rows = [[] for _ in range(nrows)]
    for (i, j), v in entries.items():
        rows[i].append((j, v))
    return bareiss([tuple(sorted(r)) for r in rows], ncols)


def rank(m):
    """Rank of m; a relabelling's is its number of entries."""
    if m._image is not None:
        return len(m._image)
    return len(m.echelon()[1])


def nullity(m):
    return m.cols - rank(m)


def kernel_basis(m):
    """Exact basis of Ker m, one vector per free column, ascending."""
    pivots = set(m.echelon()[1])
    return [_view(*k) for k in _kernel_vectors(
        m, [j for j in range(m.cols) if j not in pivots])]


def _kernel_vectors(m, frees):
    """The kernel vectors k_f of m for the free columns f listed, 1 at f
    and 0 at every other free column, each as (L, L k_f) with L k_f an
    {index: int} vector."""
    rows, pivots = m.echelon()
    terms = {f: {} for f in frees}
    for p, row in zip(pivots, rows):
        for j, x in row.items():
            if j in terms:
                terms[j][p] = (-x, row[p])
    out = []
    for f, ts in terms.items():
        L = lcm(*[d for _, d in ts.values()])
        out.append((L, {f: L} | {p: x * (L // d) for p, (x, d) in ts.items()}))
    return out


def image_basis(m):
    """Columns of m forming a basis of its column space (pivot columns),
    with a Fraction built only for their entries."""
    _, pivots = m.echelon()
    den, columns = m._integer[0], m.columns()
    return [{i: Fraction(v, den) for i, v in columns[j]} for j in pivots]


def solve(m, rhs):
    """Solutions of m x = b for every b in rhs, from one elimination.

    Each b and each answer is an {index: Fraction} vector.  The answer is
    the solution whose free coordinates are zero, or None when b is not
    in the column space of m.  [den m | s b] is eliminated, with den m
    the integer form of m and s b the integer vector of b (_scaled), and
    x is den / s times its solution.  A relabelling eliminates nothing:
    x_j = b[image[j]] for each column j in its image, and b is outside
    its column space exactly when b has an entry on a row outside the
    image; the columns outside the image are free and get 0, as in the
    elimination.
    """
    if not rhs:
        return []
    if m._image is not None:
        back = {i: j for j, i in m._image.items()}
        return [dict(sorted((back[i], x) for i, x in b.items()))
                if back.keys() >= b.keys() else None for b in rhs]
    n = m.cols
    den, nums = m._integer
    entries = dict(nums)
    scales = []
    for k, b in enumerate(rhs):
        s, u = _scaled(b)
        scales.append(s)
        entries.update({(i, n + k): x for i, x in u.items()})
    rows, pivots = _rref(m.rows, n + len(rhs), entries)
    r = sum(p < n for p in pivots)
    # b is outside the column space exactly when a row past rank(m) has
    # an entry in its column.
    outside = set().union(*rows[r:])
    out = [None if n + k in outside else {} for k in range(len(rhs))]
    for p, row in zip(pivots[:r], rows):
        d = row[p]
        for c, x in row.items():
            if c >= n and out[c - n] is not None:
                out[c - n][p] = Fraction(x * den, d * scales[c - n])
    return out


class SubquotientBasis:
    """Ker(d_out) / Im(d_in) inside an ambient Q^n, read off RREF(d_out).

    Let F be the free columns of RREF(d_out).  The kernel vector k_f is 1
    at f and 0 at every other free column, so a cocycle is determined by
    its entries on F: they are its coordinates on the kernel basis.  The
    dimension is nullity(d_out) - rank(d_in).  The image basis, the
    representatives and the pivot table of the image on F are built on
    first use: the image restricted to F is eliminated once, with the
    free columns in descending order, so a pivot t is the highest free
    index of an image vector.  The representatives are the k_f whose f is
    not such a pivot: each is independent of the image and of the kernel
    vectors before it.  All three are kept over Z: the pivot columns of
    d_in's integer column index, the representatives as (L, L k_f) and
    the integral RREF rows; ``image`` and ``representatives`` are
    Fraction views.
    """

    __slots__ = ("ambient", "dim", "_d_in", "_d_out", "_columns", "_table",
                 "_kernel", "_image", "_representatives")

    def __init__(self, d_in, d_out):
        self.ambient = d_out.cols
        self.dim = nullity(d_out) - rank(d_in)
        self._d_in = d_in
        self._d_out = d_out
        self._columns = None
        self._table = None
        self._kernel = None
        self._image = None
        self._representatives = None

    def _image_columns(self):
        if self._columns is None:
            columns = self._d_in.columns()
            self._columns = [columns[j] for j in self._d_in.echelon()[1]]
        return self._columns

    @property
    def image(self):
        if self._image is None:
            self._image = image_basis(self._d_in)
        return self._image

    def _pivot_table(self):
        """({pivot t: (d, its integral RREF row on F less the leading
        entry d at t)}, {free column of a representative: its index})."""
        if self._table is None:
            pivots = set(self._d_out.echelon()[1])
            free = [j for j in range(self.ambient) if j not in pivots]
            table = {}
            if self._image_columns():
                # column c of the eliminated matrix is free[last - c]
                last = len(free) - 1
                pos = {f: last - c for c, f in enumerate(free)}
                rows = [[(pos[j], x) for j, x in v if j in pos]
                        for v in self._columns]
                echelon, leads = bareiss(rows, len(free))
                for c, row in zip(leads, echelon):
                    table[free[last - c]] = (row[c], {
                        free[last - j]: x for j, x in row.items() if j != c})
            reps = {f: i for i, f in enumerate(
                [f for f in free if f not in table])}
            self._table = (table, reps)
        return self._table

    def _representative_vectors(self):
        if self._kernel is None:
            self._kernel = _kernel_vectors(
                self._d_out, list(self._pivot_table()[1])) if self.dim else []
        return self._kernel

    @property
    def representatives(self):
        if self._representatives is None:
            self._representatives = [
                _view(*k) for k in self._representative_vectors()]
        return self._representatives

    def _reduce(self, u):
        """(L, {index: int}): the coordinates of [u] are the ints over L,
        for an {index: int} vector u; None where u is not a cocycle.

        [representatives | image] is a basis of Ker(d_out).  A cocycle's
        entries on F, less u_t times the pivot row of each pivot t, lie on
        the representatives' columns, and they are its coordinates."""
        if self._d_out._hits(u.items()):
            return None
        if not self.dim:
            return 1, {}
        table, reps = self._pivot_table()
        hit = [t for t in u if t in table]
        L = lcm(*[table[t][0] for t in hit])
        x = {j: c * L for j, c in u.items() if j in reps}
        for t in hit:
            d, row = table[t]
            c = u[t] * (L // d)
            for j, y in row.items():
                x[j] = x.get(j, 0) - c * y
        return L, {reps[j]: c for j, c in x.items() if c}

    def coordinates(self, vectors):
        """Coordinates of each [v] on the representatives, or None where v
        is not a cocycle.  Vectors and coordinates are {index: Fraction}
        dicts; a class that is zero has coordinates {}.  Each vector is
        scaled to integers once, and each coordinate divided once."""
        out = []
        for v in vectors:
            s, u = _scaled(v)
            found = self._reduce(u)
            out.append(None if found is None
                       else _view(s * found[0], found[1]))
        return out

    def __repr__(self):
        return f"SubquotientBasis(dim={self.dim}, ambient={self.ambient})"


def cohomology_at(d_in, d_out):
    """Subquotient Ker(d_out)/Im(d_in), with representatives on demand.

    d_in has shape (n, p) and lands in the ambient Q^n; d_out has shape
    (q, n) and maps out of it.  Requires d_out . d_in = 0.  The
    representatives are the kernel vectors that are pivot columns of
    [image | kernel]: each one is independent of the image and of the
    kernel vectors before it.
    """
    if d_in.rows != d_out.cols:
        raise LinalgError("ambient dimension mismatch")
    if d_in.rows and not (d_out @ d_in).is_zero():
        raise PreconditionError("d_out . d_in != 0")
    return SubquotientBasis(d_in, d_out)


class NotChainCompatible(LinalgError):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


def induced_map(f, source, target):
    """Matrix of the map induced by f on subquotients, over Z.

    Checks that f carries source image into target image span and source
    kernel into target kernel span; raises NotChainCompatible with the
    first failing vector (image vectors first) otherwise, read from
    source.image or source.representatives.  f's numerators times each
    integer image column and representative go through the target's
    reduction: the columns [representatives | image] are independent, so
    an image vector lands in the target image exactly when its
    representative coordinates exist and are all zero.
    """
    if f.cols != source.ambient or f.rows != target.ambient:
        raise LinalgError("shape mismatch for induced map")
    if not (source.ambient and target.ambient):
        return SparseMatrix.zero(target.dim, source.dim)
    for i, u in enumerate(source._image_columns()):
        found = target._reduce(f._hits(u))
        if found is None or found[1]:
            raise NotChainCompatible("image not carried into image",
                                     source.image[i])
    cols = []
    for j, (L, u) in enumerate(source._representative_vectors()):
        found = target._reduce(f._hits(u.items()))
        if found is None:
            raise NotChainCompatible("kernel not carried into kernel",
                                     source.representatives[j])
        cols.append((L * found[0], found[1]))
    # column j is its ints over f's den times c
    m = lcm(*[c for c, _ in cols])
    return _born(target.dim, source.dim, f._integer[0] * m, {
        (i, j): x * (m // c) for j, (c, xs) in enumerate(cols)
        for i, x in xs.items()})
