"""Exact linear algebra over a GF context: RREF, kernels, subspaces.

Subspaces are the unit of currency for everything downstream.  A
Subspace stores the unique reduced-row-echelon basis of its row space
as a tuple of rows, each a tuple of Python int codes, so equality is
tuple equality and hashing is hashing that tuple.

Elimination runs on those rows too, not on arrays: the matrices here
are 8x8 or smaller, where numpy's per-call overhead costs more than the
arithmetic.  There is one kernel, _eliminate, driven by the two row
operations each GF chose for itself.  Spans, sums and intersection_dim
(dim(U & V) from a single rank) hand it the basis tuples directly, so
enumerating a point or testing membership builds no array.  numpy stays
at the edges: as_matrix, rref and row_space on arrays, matmul,
matrix_inverse, kernel and intersect, the random matrices, and the
field tables.  from_rows still accepts arrays.
"""

import numpy as np

from .field import GF


def as_matrix(gf, rows):
    """Validate and convert nested lists or arrays to an int64 code matrix."""
    mat = np.asarray(rows, dtype=np.int64)
    if mat.ndim == 1:
        mat = mat[None, :]
    if mat.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {mat.shape}")
    if mat.size and (mat.min() < 0 or mat.max() >= gf.q):
        raise ValueError(f"entries must be codes in [0, {gf.q})")
    return mat


def _eliminate(gf, rows, ncols):
    """Reduce a list of row lists to RREF in place; returns (rank, pivots).

    rows[:rank] is the reduced basis and every later row is zero.  The
    pivot is always the topmost nonzero entry of the leftmost unfinished
    column.  The row operations are the ones the field chose for itself.
    """
    scale_row, sub_row, inv = gf._scale_row, gf._sub_row, gf.inv
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if rows[i][c]:
                break
        else:
            continue
        piv = rows[i]
        if i != r:
            rows[i] = rows[r]
        pv = piv[c]
        if pv != 1:
            piv = scale_row(piv, inv(pv))
        rows[r] = piv
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                if f:
                    rows[i] = sub_row(rows[i], f, piv)
        pivots.append(c)
        r += 1
    return r, tuple(pivots)


def rref(gf, mat):
    """Reduced row echelon form.

    Returns (R, rank, pivots) where R is the fully reduced int64 matrix
    (zero rows at the bottom), and pivots are the 0-based pivot columns
    in order.
    """
    mat = np.asarray(mat, dtype=np.int64)
    rows = mat.tolist()
    rk, pivots = _eliminate(gf, rows, mat.shape[1])
    return np.array(rows, dtype=np.int64).reshape(mat.shape), rk, pivots


def rank(gf, mat):
    return rref(gf, as_matrix(gf, mat))[1]


def row_space(gf, mat):
    """Canonical RREF basis of the row space, as a (rank, m) matrix."""
    R, rk, pivots = rref(gf, as_matrix(gf, mat))
    return R[:rk], pivots


def intersection_dim(U, V):
    """dim(U & V) as dim U + dim V - rank[U; V], by one elimination."""
    U._check_ambient(V)
    rows = [*U.basis, *V.basis]
    return len(rows) - _eliminate(U.gf, rows, U.m)[0]


def matmul(gf, a, b):
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
    if gf.e == 1:
        # every sum of products must fit in int64 before it is reduced
        if a.shape[1] * (gf.p - 1) ** 2 >= 2**63:
            raise OverflowError(
                f"a {a.shape[1]}-term dot product over GF({gf.p}) overflows int64"
            )
        return (a @ b) % gf.p
    # every product a[i, k] * b[k, j] at once, then one sum over k
    return gf.sum(gf.mul(a[:, :, None], b[None, :, :]), axis=1)


def matrix_inverse(gf, mat):
    mat = as_matrix(gf, mat)
    n = mat.shape[0]
    if mat.shape[1] != n:
        raise ValueError("inverse of a non-square matrix")
    aug = np.hstack([mat, np.eye(n, dtype=np.int64)])
    R, rk, pivots = rref(gf, aug)
    if pivots[:n] != tuple(range(n)) or rk < n:
        raise ValueError("matrix is singular")
    return R[:, n:].copy()


def kernel(gf, mat):
    """Right null space {x : mat @ x = 0}, as a Subspace of the column space."""
    mat = as_matrix(gf, mat)
    n = mat.shape[1]
    R, rk, pivots = rref(gf, mat)
    pivset = set(pivots)
    free = [j for j in range(n) if j not in pivset]
    rows = np.zeros((len(free), n), dtype=np.int64)
    for idx, f in enumerate(free):
        rows[idx, f] = 1
        for i, pcol in enumerate(pivots):
            rows[idx, pcol] = int(gf.neg(int(R[i, f])))
    return Subspace.from_rows(gf, rows, ambient=n)


def random_matrix(gf, nrows, ncols, rng):
    return np.array(
        [[rng.randrange(gf.q) for _ in range(ncols)] for _ in range(nrows)],
        dtype=np.int64,
    ).reshape(nrows, ncols)


def random_invertible(gf, n, rng):
    while True:
        mat = random_matrix(gf, n, n, rng)
        if rref(gf, mat)[1] == n:
            return mat


def _code_rows(gf, rows, ambient=None):
    """Spanning rows as a tuple of int tuples, checked; returns (rows, m).

    Takes nested sequences or an array; a single vector is one row.  The
    rows must be equally long and hold codes in [0, q).  An empty set of
    rows takes its length from the array shape or from ambient.
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim == 1:
            rows = rows[None, :]
        if rows.ndim != 2:
            raise ValueError(f"expected a 2-d matrix, got shape {rows.shape}")
        if ambient is None:
            ambient = rows.shape[1]
        rows = tuple(map(tuple, rows.astype(np.int64, copy=False).tolist()))
    else:
        if rows and not isinstance(rows[0], (list, tuple, np.ndarray)):
            rows = [rows]
        try:
            rows = tuple(tuple(map(int, row)) for row in rows)
        except TypeError:
            raise ValueError("expected a 2-d matrix of codes") from None
    m = len(rows[0]) if rows else ambient
    if m is None:
        raise ValueError("an empty set of rows needs the ambient dimension")
    if ambient is not None and m != ambient:
        raise ValueError(f"rows of length {m} in ambient dimension {ambient}")
    q = gf.q
    for row in rows:
        if len(row) != m:
            raise ValueError("rows of different lengths")
        if row and (min(row) < 0 or max(row) >= q):
            raise ValueError(f"entries must be codes in [0, {q})")
    return rows, m


class Subspace:
    """A subspace of GF(q)^m held by its unique RREF basis.

    basis is a tuple of rows, each a tuple of int codes, and pivots the
    pivot column of each row.  Instances are immutable and hashable; two
    Subspace objects compare equal exactly when they are the same
    subspace of the same ambient space over the same field.

    With validate=False the basis, pivots and ambient dimension are taken
    as given: the caller vouches for a canonical tuple basis.
    """

    __slots__ = ("gf", "m", "basis", "pivots", "_hash")

    def __init__(self, gf, basis, pivots=None, validate=True, ambient=None):
        if validate:
            basis, ambient = _code_rows(gf, basis, ambient)
            d = len(basis)
            if pivots is None:
                pivots = []
                for row in basis:
                    for c, x in enumerate(row):
                        if x:
                            pivots.append(c)
                            break
                    else:
                        raise ValueError("zero row in a subspace basis")
            pivots = tuple(int(c) for c in pivots)
            if d > ambient:
                raise ValueError("more rows than the ambient dimension")
            if len(pivots) != d or any(
                pivots[i] >= pivots[i + 1] for i in range(d - 1)
            ):
                raise ValueError("pivot columns must strictly increase")
            if pivots and (pivots[0] < 0 or pivots[-1] >= ambient):
                raise ValueError("pivot column outside the ambient space")
            for i, c in enumerate(pivots):
                if basis[i][c] != 1:
                    raise ValueError("pivot entries must be 1")
                if any(basis[i][:c]):
                    raise ValueError("nonzero entry left of a pivot")
                if sum(1 for row in basis if row[c]) != 1:
                    raise ValueError("pivot column must be a unit column")
        object.__setattr__(self, "gf", gf)
        object.__setattr__(self, "m", ambient)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_rows(cls, gf, rows, ambient=None):
        """Canonicalize arbitrary spanning rows into a Subspace."""
        rows, m = _code_rows(gf, rows, ambient)
        return cls._span(gf, list(rows), m)

    @classmethod
    def _span(cls, gf, rows, m):
        """The span of valid code rows; rows is a list _eliminate may reorder."""
        rk, pivots = _eliminate(gf, rows, m)
        return cls(gf, tuple(map(tuple, rows[:rk])), pivots, validate=False, ambient=m)

    @classmethod
    def zero(cls, gf, m):
        return cls(gf, (), (), validate=False, ambient=m)

    @classmethod
    def full(cls, gf, m):
        eye = tuple(tuple(int(i == j) for j in range(m)) for i in range(m))
        return cls(gf, eye, tuple(range(m)), validate=False, ambient=m)

    @property
    def dim(self):
        return len(self.basis)

    def to_rows(self):
        return [list(row) for row in self.basis]

    def _residual(self, v):
        """v less its combination of basis rows at the pivot coordinates."""
        sub_row = self.gf._sub_row
        for row, c in zip(self.basis, self.pivots):
            f = v[c]
            if f:
                v = sub_row(v, f, row)
        return v

    def reduce(self, vec):
        """Residual of a vector after eliminating all pivot coordinates."""
        v = np.asarray(vec, dtype=np.int64)
        if v.shape != (self.m,):
            raise ValueError(f"expected a vector of length {self.m}")
        return np.array(self._residual(v.tolist()), dtype=np.int64)

    def contains_vector(self, vec):
        return not np.any(self.reduce(vec))

    def __le__(self, other):
        self._check_ambient(other)
        if self.dim > other.dim:
            return False
        return not any(any(other._residual(row)) for row in self.basis)

    def __lt__(self, other):
        return self.dim < other.dim and self.__le__(other)

    def __ge__(self, other):
        return other.__le__(self)

    def __gt__(self, other):
        return other.__lt__(self)

    def __add__(self, other):
        self._check_ambient(other)
        return Subspace._span(self.gf, [*self.basis, *other.basis], self.m)

    def intersect(self, other):
        """Intersection via the left null space of the stacked bases."""
        self._check_ambient(other)
        if self.dim == 0 or other.dim == 0:
            return Subspace.zero(self.gf, self.m)
        stacked = np.vstack([self.basis, other.basis])
        relations = kernel(self.gf, stacked.T)
        if relations.dim == 0:
            return Subspace.zero(self.gf, self.m)
        coeffs = [row[: self.dim] for row in relations.basis]
        rows = matmul(self.gf, coeffs, self.basis)
        return Subspace.from_rows(self.gf, rows, ambient=self.m)

    __and__ = intersect

    def perp(self):
        """Annihilator under the standard coordinatewise bilinear form."""
        if self.dim == 0:
            return Subspace.full(self.gf, self.m)
        return kernel(self.gf, self.basis)

    def vector_at(self, t):
        """The t-th vector in the canonical coefficient order.

        Coefficients of basis row 0 are the most significant digit of t
        in base q, so t = 0 is always the zero vector.
        """
        q, d = self.gf.q, self.dim
        if not 0 <= t < q**d:
            raise ValueError(f"index {t} outside [0, {q**d})")
        v = np.zeros(self.m, dtype=np.int64)
        for i in range(d - 1, -1, -1):
            c = t % q
            t //= q
            if c:
                v = self.gf.add(v, self.gf.mul(c, self.basis[i]))
        return v

    def vectors(self, nonzero=False):
        q, d = self.gf.q, self.dim
        for t in range(1 if nonzero else 0, q**d):
            yield self.vector_at(t)

    def _check_ambient(self, other):
        if not isinstance(other, Subspace):
            raise TypeError(f"expected a Subspace, got {type(other).__name__}")
        if self.gf != other.gf or self.m != other.m:
            raise ValueError("subspaces live in different ambient spaces")

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return self is other or (
            self.basis == other.basis and self.m == other.m and self.gf == other.gf
        )

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.gf, self.m, self.basis))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self):
        return f"Subspace(dim={self.dim}, m={self.m}, {self.gf!r})"
