"""Exact linear algebra over a GF context: RREF, annihilators, subspaces.

Subspaces are the unit of currency for everything downstream.  A
Subspace stores the unique reduced-row-echelon basis of its row space
as a tuple of rows, each a tuple of Python int codes, so equality is
tuple equality and hashing is hashing that tuple.

Every vector and matrix here is Python ints: the matrices are 8x8 or
smaller, where plain lists beat any array library's per-call overhead.
Functions that build a matrix return it as a list of row lists.  Two
kernels eliminate, both driven by the two row operations each GF chose
for itself.  _eliminate reduces to the canonical RREF: rref,
matrix_inverse, spans and sums run on it, and Subspace() checks that
its rows are an RREF basis by spanning them once.  A question that
needs only a rank or the pivot columns gets no RREF: _pivots reduces
each row forward against the rows kept so far (_echelon_step) and
reads the pivots off the kept rows' leading columns.  The rank tests
of the maps and stabilizers and intersection_dim run on it; the image
walk (schubert._cell_within) calls _echelon_step itself, once per
choice of a cell's leading rows.  Rows that are already reduced are not
reduced again: intersection_dim reduces the smaller basis against the
larger one's RREF rows and eliminates only what is left, and perp,
the one annihilator, reads it off a subspace's own RREF basis.  A
matrix's rank is the dim of Subspace.from_rows(gf, mat), its null
space that span's perp, and U & V is (U.perp() + V.perp()).perp().
matmul combines rows with the same row operation on extension fields
and takes Python-int dot products with one % per entry on prime
fields, so no sum can overflow.  intersection_dim, matmul and
matrix_inverse check their arguments, codes included, and hand them to
a private kernel (_intersection_dim, _matmul, _inverse), which the
package calls directly on subspaces and matrices it built itself.

One function, _row_list, lists the canonical order base + sum x_j g_j
(g_0 most significant, each x_j in code order) of cell rows and subspace
vectors alike; _row_chunks reads it in pieces of about q^(k/2) rows.

Random matrices draw every code through one helper, _draw_codes, which
runs CPython's rejection loop for randrange(q) on the public
getrandbits: for a random.Random the stream is randrange's, code for
code, without randrange's per-call cost.  random_invertible tests rank
row by row as it draws, reducing each row against the rows kept so far
with _echelon_step; a dependent row ends the matrix, whose remaining
entries are still drawn so that the stream stays the same.
"""

import random
from functools import lru_cache
from operator import mul

from .errors import _exact


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


def _row_list(gf, base, gens):
    """Every base + sum x_j gens[j], as tuples, gens[0] most significant.

    This is the canonical order: each x_j runs through the codes in order,
    so with unit vectors off the base's support as gens, the x_j land as
    codes in their columns.  One pass per generator g puts each v - f * g
    right after its v.
    """
    choices = [tuple(base)]
    sub_row, negs = gf._sub_row, gf._negs
    for g in gens:
        grown = []
        append = grown.append
        for v in choices:
            append(v)
            for f in negs:
                append(tuple(sub_row(v, f, g)))
        choices = grown
    return choices


def _row_chunks(gf, base, gens):
    """_row_list(gf, base, gens) as consecutive lists, listed lazily.

    The first half of the k generators is listed once, and the rest is
    listed under each of those choices, so no more than about q^(k/2) of
    the q^k rows are held at a time.  Below two generators the whole
    list is the one chunk.
    """
    half = len(gens) // 2
    if not half:
        return (_row_list(gf, base, gens),)
    rest = gens[half:]
    return (_row_list(gf, head, rest) for head in _row_list(gf, base, gens[:half]))


@lru_cache(maxsize=None)
def _identity(m):
    """The m x m identity matrix as a tuple of int tuples, built once per m."""
    return tuple(tuple(int(i == j) for j in range(m)) for i in range(m))


def rref(gf, mat):
    """Reduced row echelon form.

    Returns (R, rank, pivots) where R is the fully reduced matrix as a
    list of row lists (zero rows at the bottom), and pivots are the
    0-based pivot columns in order.
    """
    rows, m = _code_rows(gf, mat)
    rows = list(rows)
    rk, pivots = _eliminate(gf, rows, m)
    return [list(row) for row in rows], rk, pivots


def intersection_dim(U, V):
    """dim(U & V), from the residuals of U's rows against V.

    Each row of U is reduced against V's RREF rows (their pivot columns
    are unit columns, so one pass clears them).  The residuals span
    (U + V) / V, so dim(U & V) = dim U - rank(residuals).  U is taken as
    the smaller of the two, to reduce fewer rows; only two or more
    nonzero residuals need an elimination, and a forward one gives their
    rank.  When V is the whole space, U & V is U and nothing is reduced.
    """
    U._check_ambient(V)
    return _intersection_dim(U, V)


def _intersection_dim(U, V):
    """intersection_dim without the checks: U and V share a field and an m."""
    u, v = U.basis, V.basis
    if len(u) > len(v):
        U, V, u, v = V, U, v, u
    if len(v) == V.m:  # V is the whole space, so U & V is U
        return len(u)
    left = [r for r in map(V._residual, u) if any(r)]
    if len(left) > 1:
        return len(u) - len(_pivots(V.gf, left))
    return len(u) - len(left)


def matmul(gf, a, b):
    """The product of two code matrices, as a list of row lists.

    Each row of a must be as long as b has rows, and both are checked as
    from_rows checks rows: equally long rows of int codes in [0, q).
    """
    n = len(b)
    for i, row in enumerate(a):
        if len(row) != n:
            raise ValueError(f"row {i} of length {len(row)} times {n} rows")
    a, _ = _code_rows(gf, a, n)
    if b:
        b, _ = _code_rows(gf, b)
        if len(b) != n:
            raise ValueError("expected a 2-d matrix of codes")
    return _matmul(gf, a, b)


def _matmul(gf, a, b):
    """matmul without the checks on its arguments: a's rows as long as b is tall."""
    if gf.e == 1:
        p = gf.p
        cols = list(zip(*b))
        return [[sum(map(mul, row, col)) % p for col in cols] for row in a]
    # each product row is a combination of the rows of b
    sub_row, neg = gf._sub_row, gf._neg
    m = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [0] * m
        for c, brow in zip(row, b):
            if c:
                acc = sub_row(acc, neg(c), brow)
        out.append(acc)
    return out


def matrix_inverse(gf, mat):
    rows, n = _code_rows(gf, mat)
    if len(rows) != n:
        raise ValueError("inverse of a non-square matrix")
    return _inverse(gf, rows)


def _inverse(gf, rows):
    """matrix_inverse without the checks on its argument: a square code matrix."""
    n = len(rows)
    aug = [[*row, *unit] for row, unit in zip(rows, _identity(n))]
    rk, pivots = _eliminate(gf, aug, 2 * n)
    if pivots[:n] != tuple(range(n)) or rk < n:
        raise ValueError("matrix is singular")
    return [row[n:] for row in aug]


def _echelon_step(gf, elim, v):
    """Reduce v by the rows kept so far; (pivot, row) to keep, or None.

    elim holds (pivot, row) pairs in the order they were kept, each row
    1 at its pivot and 0 at the earlier pivots, so reducing in that order
    clears every pivot for good.  A nonzero residual comes back scaled to
    1 at its leading column, ready to append to elim.
    """
    sub_row = gf._sub_row
    for p, r in elim:
        c = v[p]
        if c:
            v = sub_row(v, c, r)
    for p, c in enumerate(v):
        if c:
            return p, (v if c == 1 else gf._scale_row(v, gf.inv(c)))
    return None


def _pivots(gf, rows):
    """The sorted pivot columns of the span of rows, by forward elimination.

    Each row is reduced against the rows kept so far (_echelon_step).
    The kept rows' leading columns, sorted, are the RREF's pivots, and
    their count is the rank.  Nothing is reduced upwards, and rows is
    left unchanged.
    """
    elim = []
    for row in rows:
        step = _echelon_step(gf, elim, row)
        if step is not None:
            elim.append(step)
    return tuple(sorted([p for p, _ in elim]))


def _draw_codes(rng, q, count):
    """count codes in [0, q), drawn as count calls of rng.randrange(q) would.

    This is CPython's own rejection loop for randrange: q.bit_length()
    random bits, drawn again while they reach q.  It calls only the public
    getrandbits, so a random.Random gives randrange's stream; a subclass
    that overrides only random() still draws uniformly, from another
    stream.
    """
    getrandbits, k = rng.getrandbits, q.bit_length()
    codes = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= q:
            r = getrandbits(k)
        codes.append(r)
    return codes


def _as_rng(rng):
    """rng itself, a fresh random.Random for None, or one seeded by an exact int."""
    if rng is None:
        return random.Random()
    if isinstance(rng, random.Random):
        return rng
    return random.Random(_exact(rng, "rng", int))


def random_matrix(gf, nrows, ncols, rng=None):
    """A uniform code matrix, its entries drawn row by row.

    The entries are those nrows * ncols calls of rng.randrange(q) would
    give, from the same stream, without calling it.  rng is a
    random.Random, an int seed or None (_as_rng).
    """
    rng = _as_rng(rng)
    q = gf.q
    return [_draw_codes(rng, q, ncols) for _ in range(nrows)]


def random_invertible(gf, n, rng=None):
    """A uniform invertible n x n code matrix: the first full-rank draw.

    Its entries are drawn as random_matrix draws them, from rng as
    random_matrix takes it.  Each row is reduced against the rows kept
    so far as it is drawn; at the first dependent row the rest of that
    matrix is drawn unreduced, so the stream is the one a whole-matrix
    rank test would leave, and the next matrix is drawn.
    """
    rng = _as_rng(rng)
    if n < 1:
        raise ValueError(f"an invertible matrix needs n >= 1, got n = {n}")
    q = gf.q
    while True:
        mat, elim = [], []
        for i in range(n):
            row = _draw_codes(rng, q, n)
            step = _echelon_step(gf, elim, row)
            if step is None:
                _draw_codes(rng, q, (n - 1 - i) * n)
                break
            mat.append(row)
            elim.append(step)
        else:
            return mat


def _code_rows(gf, rows, ambient=None):
    """Spanning rows as a tuple of int tuples, checked; returns (rows, m).

    Takes nested sequences; a single vector is one row.  The rows must be
    equally long and hold codes in [0, q), each exactly an int.  An
    empty set of rows takes its length from ambient.
    """
    if rows and not isinstance(rows[0], (list, tuple)):
        rows = [rows]
    try:
        rows = tuple(map(tuple, rows))
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
        for x in row:
            if type(x) is not int or not 0 <= x < q:
                raise ValueError(f"entries must be codes in [0, {q})")
    return rows, m


class Subspace:
    """A subspace of GF(q)^m held by its unique RREF basis.

    basis is a tuple of rows, each a tuple of int codes, and pivots the
    pivot column of each row.  Instances are immutable and hashable; two
    Subspace objects compare equal exactly when they are the same
    subspace of the same ambient space over the same field.  The
    constructor takes rows that already are the RREF basis and refuses
    any others; from_rows takes any spanning rows.
    """

    __slots__ = ("gf", "m", "basis", "pivots", "_hash")

    def __init__(self, gf, basis, ambient=None):
        basis, ambient = _code_rows(gf, basis, ambient)
        span = Subspace._span(gf, list(basis), ambient)
        if span.basis != basis:
            raise ValueError("rows are not the reduced row echelon basis of their span")
        _fill(self, gf, ambient, basis, span.pivots, None)

    @classmethod
    def _trusted(cls, gf, basis, pivots, m):
        """A Subspace built without checks from its canonical parts.

        The caller vouches that basis is the RREF tuple of int tuples
        of a subspace of GF(q)^m and pivots its pivot columns.
        """
        self = _new(cls)
        _fill(self, gf, m, basis, pivots, None)
        return self

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
        return cls._trusted(gf, tuple(map(tuple, rows[:rk])), pivots, m)

    @classmethod
    def zero(cls, gf, m):
        return cls._trusted(gf, (), (), m)

    @classmethod
    def full(cls, gf, m):
        return cls._trusted(gf, _identity(m), tuple(range(m)), m)

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
        """Residual of a vector after eliminating all pivot coordinates.

        vec is checked as from_rows checks rows: m codes in [0, q).
        """
        (vec,), _ = _code_rows(self.gf, [vec], self.m)
        return list(self._residual(vec))

    def __le__(self, other):
        self._check_ambient(other)
        if self.dim > other.dim:
            return False
        return not any(any(other._residual(row)) for row in self.basis)

    def __add__(self, other):
        self._check_ambient(other)
        return Subspace._span(self.gf, [*self.basis, *other.basis], self.m)

    def intersect(self, other):
        """(U^perp + V^perp)^perp, since the standard form is non-degenerate."""
        self._check_ambient(other)
        return (self.perp() + other.perp()).perp()

    __and__ = intersect

    def perp(self):
        """Annihilator under the standard coordinatewise bilinear form.

        The basis is already in RREF, so the annihilator is read off it
        without an elimination: one row e_f - sum_i R[i][f] e_(pivots[i])
        per free column f.  One span puts them in canonical form.
        """
        gf, m, pivots = self.gf, self.m, self.pivots
        if not pivots:
            return Subspace.full(gf, m)
        neg = gf._neg
        rows = []
        for f in range(m):
            if f not in pivots:
                vec = [0] * m
                vec[f] = 1
                for row, pcol in zip(self.basis, pivots):
                    x = row[f]
                    if x:
                        vec[pcol] = neg(x)
                rows.append(vec)
        return Subspace._span(gf, rows, m)

    def vector_at(self, t):
        """The t-th vector in the canonical coefficient order.

        Coefficients of basis row 0 are the most significant digit of t
        in base q, so t = 0 is always the zero vector.
        """
        gf, d = self.gf, self.dim
        q = gf.q
        if not 0 <= _exact(t, "t", int) < q**d:
            raise ValueError(f"index {t} outside [0, {q**d})")
        v = [0] * self.m
        for i in range(d - 1, -1, -1):
            t, c = divmod(t, q)
            if c:
                v = gf._sub_row(v, gf._neg(c), self.basis[i])
        return v

    def vectors(self, nonzero=False):
        """Yield every vector as a tuple, in the order of vector_at."""
        chunks = iter(_row_chunks(self.gf, (0,) * self.m, self.basis))
        if nonzero:
            yield from next(chunks)[1:]
        for chunk in chunks:
            yield from chunk

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
            _set_hash(self, h)
        return h

    def __repr__(self):
        return f"Subspace(dim={self.dim}, m={self.m}, {self.gf!r})"


def _slot_filler(cls):
    """fill(self, *values): set the five slots of cls, in slot order.

    The slots are stored through their descriptors, past the __setattr__
    that keeps instances immutable; one call per slot, unrolled, since
    every trusted build runs it.
    """
    set_a, set_b, set_c, set_d, set_e = (cls.__dict__[name].__set__ for name in cls.__slots__)

    def fill(self, a, b, c, d, e):
        set_a(self, a)
        set_b(self, b)
        set_c(self, c)
        set_d(self, d)
        set_e(self, e)

    return fill


_new = object.__new__
_fill = _slot_filler(Subspace)
_set_hash = Subspace._hash.__set__
