"""Exact sparse linear algebra over the rationals.

Everything downstream (cohomology of every complex, induced maps, audits)
reduces to the operations here: rank, kernel, image, subquotient bases and
maps induced on subquotients.  Each is read off one sparse reduced row
echelon form over Q: a subquotient picks its representatives from one
echelon of [image | kernel], and ``solve`` appends a whole batch of
right-hand sides to the matrix, so coordinates, lifts and induced maps
never eliminate once per vector.  All arithmetic is exact; matrices are
immutable after construction.
"""

from fractions import Fraction

from cdgacyc.kernels import bareiss


class LinalgError(Exception):
    pass


class PreconditionError(LinalgError):
    """A stated precondition (e.g. d_out . d_in = 0) fails."""


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise LinalgError(f"non-rational entry {x!r}")


class SparseMatrix:
    """Immutable sparse matrix over Q, entries indexed (row, col)."""

    __slots__ = ("rows", "cols", "entries", "_echelon")

    def __init__(self, rows, cols, entries=None):
        if rows < 0 or cols < 0:
            raise LinalgError("negative dimension")
        self.rows = rows
        self.cols = cols
        clean = {}
        for (i, j), v in (entries or {}).items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise LinalgError(f"index ({i},{j}) out of range {rows}x{cols}")
            v = _frac(v)
            if v:
                clean[(i, j)] = v
        self.entries = clean
        self._echelon = None

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def scalar(cls, n, c):
        c = _frac(c)
        return cls(n, n, {(i, i): c for i in range(n)})

    @classmethod
    def from_dense(cls, dense):
        rows = len(dense)
        cols = len(dense[0]) if rows else 0
        entries = {}
        for i, row in enumerate(dense):
            if len(row) != cols:
                raise LinalgError("ragged dense matrix")
            for j, v in enumerate(row):
                entries[(i, j)] = _frac(v)
        return cls(rows, cols, entries)

    @classmethod
    def from_columns(cls, ambient, columns):
        entries = {}
        for j, v in enumerate(columns):
            if len(v) != ambient:
                raise LinalgError("column of wrong length")
            for i, x in enumerate(v):
                entries[(i, j)] = _frac(x)
        return cls(ambient, len(columns), entries)

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in +")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries.get(k, Fraction(0)) + v
        return SparseMatrix(self.rows, self.cols, entries)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = _frac(c)
        return SparseMatrix(
            self.rows, self.cols, {k: c * v for k, v in self.entries.items()}
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in @")
        by_row = {}
        for (i, j), v in self.entries.items():
            by_row.setdefault(i, []).append((j, v))
        by_col = {}
        for (j, k), v in other.entries.items():
            by_col.setdefault(j, {})
            by_col[j][k] = v
        entries = {}
        for i, terms in by_row.items():
            acc = {}
            for j, v in terms:
                for k, w in by_col.get(j, {}).items():
                    acc[k] = acc.get(k, Fraction(0)) + v * w
            for k, x in acc.items():
                if x:
                    entries[(i, k)] = x
        return SparseMatrix(self.rows, other.cols, entries)

    def apply(self, vec):
        """Matrix times column vector (tuple of rationals)."""
        if len(vec) != self.cols:
            raise LinalgError("vector of wrong length")
        out = [Fraction(0)] * self.rows
        for (i, j), v in self.entries.items():
            x = vec[j]
            if x:
                out[i] += v * x
        return tuple(out)

    def column(self, j):
        col = [Fraction(0)] * self.rows
        for (i, jj), v in self.entries.items():
            if jj == j:
                col[i] = v
        return tuple(col)

    def echelon(self):
        """Reduced row echelon form, cached: (nonzero rows as {col: Fraction}
        dicts in pivot order, ascending pivot columns)."""
        if self._echelon is None:
            rows = [[] for _ in range(self.rows)]
            for (i, j), v in self.entries.items():
                rows[i].append((j, v))
            self._echelon = bareiss([tuple(sorted(r)) for r in rows],
                                    self.cols)
        return self._echelon


def rank(m):
    return len(m.echelon()[1])


def nullity(m):
    return m.cols - rank(m)


def kernel_basis(m):
    """Exact basis of Ker m, one vector per free column, ascending."""
    rows, pivots = m.echelon()
    pivot_set = set(pivots)
    basis = {}
    for free in range(m.cols):
        if free not in pivot_set:
            basis[free] = [Fraction(0)] * m.cols
            basis[free][free] = Fraction(1)
    for p, row in zip(pivots, rows):
        for j, x in row.items():
            if j != p:
                basis[j][p] = -x
    return [tuple(v) for v in basis.values()]


def image_basis(m):
    """Columns of m forming a basis of its column space (pivot columns)."""
    _, pivots = m.echelon()
    cols = {j: [Fraction(0)] * m.rows for j in pivots}
    for (i, j), v in m.entries.items():
        if j in cols:
            cols[j][i] = v
    return [tuple(c) for c in cols.values()]


def solve(m, rhs):
    """Solutions of m x = b for every b in rhs, from one elimination.

    Each answer is the solution whose free coordinates are zero, or None
    when b is not in the column space of m.
    """
    if not rhs:
        return []
    n = m.cols
    entries = dict(m.entries)
    for k, b in enumerate(rhs):
        if len(b) != m.rows:
            raise LinalgError("rhs of wrong length")
        entries.update({(i, n + k): x for i, x in enumerate(b) if x})
    rows, pivots = SparseMatrix(m.rows, n + len(rhs), entries).echelon()
    r = sum(p < n for p in pivots)
    # b is outside the column space exactly when a row past rank(m) has
    # an entry in its column.
    outside = set().union(*rows[r:])
    out = [None if n + k in outside else [Fraction(0)] * n
           for k in range(len(rhs))]
    for p, row in zip(pivots[:r], rows):
        for c, x in row.items():
            if c >= n and out[c - n] is not None:
                out[c - n][p] = x
    return [None if x is None else tuple(x) for x in out]


class SubquotientBasis:
    """Concrete model of Ker(d_out) / Im(d_in) inside an ambient Q^n."""

    __slots__ = ("ambient", "image", "representatives")

    def __init__(self, ambient, image, representatives):
        self.ambient = ambient
        self.image = image
        self.representatives = representatives

    @property
    def dim(self):
        return len(self.representatives)

    def coordinates(self, vectors):
        """Coordinates of each [v] on the representatives, or None where v
        is not in the kernel span."""
        m = SparseMatrix.from_columns(
            self.ambient, list(self.representatives) + list(self.image)
        )
        return [None if x is None else x[: self.dim]
                for x in solve(m, vectors)]

    def __repr__(self):
        return f"SubquotientBasis(dim={self.dim}, ambient={self.ambient})"


def cohomology_at(d_in, d_out):
    """Subquotient Ker(d_out)/Im(d_in) with explicit representatives.

    d_in has shape (n, p) and lands in the ambient Q^n; d_out has shape
    (q, n) and maps out of it.  Requires d_out . d_in = 0.  The
    representatives are the kernel vectors that are pivot columns of
    [image | kernel]: each one is independent of the image and of the
    kernel vectors before it.
    """
    if d_in.rows != d_out.cols:
        raise LinalgError("ambient dimension mismatch")
    if not (d_out @ d_in).is_zero():
        raise PreconditionError("d_out . d_in != 0")
    ambient = d_in.rows
    kern = kernel_basis(d_out)
    img = image_basis(d_in)
    _, pivots = SparseMatrix.from_columns(ambient, img + kern).echelon()
    reps = [kern[j - len(img)] for j in pivots if j >= len(img)]
    return SubquotientBasis(ambient, img, reps)


class NotChainCompatible(LinalgError):
    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


def induced_map(f, source, target):
    """Matrix of the map induced by f on subquotients.

    Checks that f carries source image into target image span and source
    kernel into target kernel span; raises NotChainCompatible with the
    first failing vector (image vectors first) otherwise.  One batch of
    target coordinates decides both: the columns [representatives |
    image] are independent, so an image vector lands in the target image
    exactly when its representative coordinates exist and are zero.
    """
    if f.cols != source.ambient or f.rows != target.ambient:
        raise LinalgError("shape mismatch for induced map")
    k = len(source.image)
    coords = target.coordinates(
        [f.apply(v) for v in source.image + source.representatives]
    )
    for v, x in zip(source.image, coords[:k]):
        if x is None or any(x):
            raise NotChainCompatible("image not carried into image", v)
    cols = coords[k:]
    for v, x in zip(source.representatives, cols):
        if x is None:
            raise NotChainCompatible("kernel not carried into kernel", v)
    return SparseMatrix.from_columns(target.dim, cols)
