"""Exact sparse linear algebra over the rationals.

Everything downstream (cohomology of every complex, induced maps, audits)
reduces to the operations here: rank, kernel, image, subquotient bases and
maps induced on subquotients.  Each is read off a sparse reduced row
echelon form over Q, computed once per matrix and cached on it.  A
subquotient Ker(d_out)/Im(d_in) works in kernel coordinates, the entries
of a cocycle on the free columns of RREF(d_out): its dimension is
nullity(d_out) - rank(d_in), and its representatives and the coordinates
of a class come from one elimination of the image in those coordinates,
made on first use, so no coordinate lookup or induced map eliminates
anything.  ``solve`` appends a whole batch of right-hand sides to the
matrix, so lifts never eliminate once per vector.  All arithmetic is
exact; matrices are immutable after construction.

A vector is a sparse dict ``{index: Fraction}`` with no stored zeros and
every index in range of its ambient space; the zero vector is ``{}``.
Kernel and image bases, representatives, right-hand sides, solutions,
coordinates and matrix-vector products all take and give this form.

A matrix holds the same invariant: its entries map ``(row, col)`` in
range of its shape to nonzero ``Fraction``s.  The constructor trusts its
caller, since every matrix the package builds is made from exact
entries; the arithmetic here drops the zeros it creates.  Entries from
outside (structure constants of a finite algebra, matrices written by
hand) go through ``SparseMatrix.validated``, which converts them,
checks the shape and the indices, drops zeros and raises
``LinalgError`` on anything else.
"""

from fractions import Fraction

from cdgacyc.kernels import bareiss


class LinalgError(Exception):
    pass


class PreconditionError(LinalgError):
    """A stated precondition (e.g. d_out . d_in = 0) fails."""


class SparseMatrix:
    """Immutable sparse matrix over Q, entries indexed (row, col)."""

    __slots__ = ("rows", "cols", "entries", "_echelon", "_columns")

    def __init__(self, rows, cols, entries):
        """A matrix of shape rows x cols with these entries, taken as
        they are: a fresh {(row, col): Fraction} dict, indices in range
        and no stored zero."""
        self.rows = rows
        self.cols = cols
        self.entries = entries
        self._echelon = None
        self._columns = None

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
        return cls(rows, cols, {})

    @classmethod
    def identity(cls, n):
        return cls(n, n, {(i, i): Fraction(1) for i in range(n)})

    @classmethod
    def scalar(cls, n, c):
        """c times the identity, for a Fraction c."""
        return cls(n, n, {(i, i): c for i in range(n)} if c else {})

    @classmethod
    def from_columns(cls, ambient, columns):
        return cls(ambient, len(columns), {
            (i, j): x for j, v in enumerate(columns) for i, x in v.items()})

    def __eq__(self, other):
        return (
            isinstance(other, SparseMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"SparseMatrix({self.rows}x{self.cols}, {len(self.entries)} entries)"

    def is_zero(self):
        return not self.entries

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise LinalgError("shape mismatch in +")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            x = entries.get(k)
            if x is not None:
                v = x + v
                if not v:
                    del entries[k]
                    continue
            entries[k] = v
        return SparseMatrix(self.rows, self.cols, entries)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        """c times the matrix, for an int or Fraction c."""
        if not c:
            return SparseMatrix(self.rows, self.cols, {})
        return SparseMatrix(
            self.rows, self.cols, {k: c * v for k, v in self.entries.items()}
        )

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise LinalgError("shape mismatch in @")
        if not self.entries or not other.entries:
            return SparseMatrix(self.rows, other.cols, {})
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
                    x = acc.get(k)
                    acc[k] = v * w if x is None else x + v * w
            for k, x in acc.items():
                if x:
                    entries[(i, k)] = x
        return SparseMatrix(self.rows, other.cols, entries)

    def columns(self):
        """Column j -> [(row, value)] of the nonzero entries, built once
        per matrix; columns with no entry are absent."""
        if self._columns is None:
            self._columns = {}
            for (i, j), v in self.entries.items():
                self._columns.setdefault(j, []).append((i, v))
        return self._columns

    def apply(self, vec):
        """Matrix times a column vector, both {index: Fraction} dicts,
        read through the column index."""
        cols = self.columns()
        out = {}
        for j, x in vec.items():
            for i, v in cols.get(j, ()):
                y = out.get(i)
                out[i] = v * x if y is None else y + v * x
        return {i: x for i, x in out.items() if x}

    def echelon(self):
        """Reduced row echelon form, cached: (nonzero rows as {col: Fraction}
        dicts in pivot order, ascending pivot columns).  A matrix with no
        entries is not eliminated."""
        if self._echelon is None and not self.entries:
            self._echelon = ([], [])
        elif self._echelon is None:
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
    pivots = set(m.echelon()[1])
    return _kernel_vectors(m, [j for j in range(m.cols) if j not in pivots])


def _kernel_vectors(m, frees):
    """The kernel vectors k_f of m for the free columns f listed: 1 at f,
    0 at every other free column."""
    rows, pivots = m.echelon()
    basis = {f: {f: Fraction(1)} for f in frees}
    for p, row in zip(pivots, rows):
        for j, x in row.items():
            if j in basis:
                basis[j][p] = -x
    return list(basis.values())


def image_basis(m):
    """Columns of m forming a basis of its column space (pivot columns)."""
    _, pivots = m.echelon()
    cols = {j: {} for j in pivots}
    for (i, j), v in m.entries.items():
        if j in cols:
            cols[j][i] = v
    return list(cols.values())


def solve(m, rhs):
    """Solutions of m x = b for every b in rhs, from one elimination.

    Each b and each answer is an {index: Fraction} vector.  The answer is
    the solution whose free coordinates are zero, or None when b is not
    in the column space of m.
    """
    if not rhs:
        return []
    n = m.cols
    entries = dict(m.entries)
    for k, b in enumerate(rhs):
        entries.update({(i, n + k): x for i, x in b.items()})
    rows, pivots = SparseMatrix(m.rows, n + len(rhs), entries).echelon()
    r = sum(p < n for p in pivots)
    # b is outside the column space exactly when a row past rank(m) has
    # an entry in its column.
    outside = set().union(*rows[r:])
    out = [None if n + k in outside else {} for k in range(len(rhs))]
    for p, row in zip(pivots[:r], rows):
        for c, x in row.items():
            if c >= n and out[c - n] is not None:
                out[c - n][p] = x
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
    vectors before it.
    """

    __slots__ = ("ambient", "dim", "_d_in", "_d_out", "_image", "_table",
                 "_representatives")

    def __init__(self, d_in, d_out):
        self.ambient = d_out.cols
        self.dim = nullity(d_out) - rank(d_in)
        self._d_in = d_in
        self._d_out = d_out
        self._image = None
        self._table = None
        self._representatives = None

    @property
    def image(self):
        if self._image is None:
            self._image = image_basis(self._d_in)
        return self._image

    def _pivot_table(self):
        """({pivot t: its RREF row on F less the leading 1 at t},
        {free column of a representative: its index})."""
        if self._table is None:
            pivots = set(self._d_out.echelon()[1])
            free = [j for j in range(self.ambient) if j not in pivots]
            table = {}
            if self.image:
                # column c of the eliminated matrix is free[last - c]
                last = len(free) - 1
                pos = {f: last - c for c, f in enumerate(free)}
                rows = [[(pos[j], x) for j, x in v.items() if j in pos]
                        for v in self.image]
                echelon, leads = bareiss(rows, len(free))
                for c, row in zip(leads, echelon):
                    table[free[last - c]] = {free[last - j]: x
                                             for j, x in row.items() if j != c}
            reps = {f: i for i, f in enumerate(
                [f for f in free if f not in table])}
            self._table = (table, reps)
        return self._table

    @property
    def representatives(self):
        if self._representatives is None:
            self._representatives = _kernel_vectors(
                self._d_out, list(self._pivot_table()[1])) if self.dim else []
        return self._representatives

    def coordinates(self, vectors):
        """Coordinates of each [v] on the representatives, or None where v
        is not a cocycle.  Vectors and coordinates are {index: Fraction}
        dicts; a class that is zero has coordinates {}.

        [representatives | image] is a basis of Ker(d_out).  A cocycle's
        entries on F, less x_t times the pivot row of each pivot t, lie on
        the representatives' columns, and they are its coordinates."""
        d_out = self._d_out
        if not self.dim:
            return [None if d_out.apply(v) else {} for v in vectors]
        table, reps = self._pivot_table()
        out = []
        for v in vectors:
            if d_out.apply(v):
                out.append(None)
                continue
            x = {j: c for j, c in v.items() if j in reps}
            for t in [t for t in v if t in table]:
                c = v[t]
                for j, y in table[t].items():
                    z = x.get(j, 0) - c * y
                    if z:
                        x[j] = z
                    else:
                        del x[j]
            out.append({reps[j]: c for j, c in x.items()})
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
    if not (d_out @ d_in).is_zero():
        raise PreconditionError("d_out . d_in != 0")
    return SubquotientBasis(d_in, d_out)


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
    exactly when its representative coordinates exist and are the empty
    {index: Fraction} dict.
    """
    if f.cols != source.ambient or f.rows != target.ambient:
        raise LinalgError("shape mismatch for induced map")
    k = len(source.image)
    coords = target.coordinates(
        [f.apply(v) for v in source.image + source.representatives]
    )
    for v, x in zip(source.image, coords[:k]):
        if x is None or x:
            raise NotChainCompatible("image not carried into image", v)
    cols = coords[k:]
    for v, x in zip(source.representatives, cols):
        if x is None:
            raise NotChainCompatible("kernel not carried into kernel", v)
    return SparseMatrix.from_columns(target.dim, cols)
