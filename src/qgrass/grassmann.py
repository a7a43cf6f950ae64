"""Grassmannians of GF(q)^m and flags of nested subspaces.

Enumeration is organized by pivot-column cells: every l-dimensional
subspace has a unique RREF basis, the possible pivot-column sets are the
l-subsets of {0..m-1} in lexicographic order, and within a cell the free
entries are read row-major as the base-q digits of an index, most
significant first.  This gives a total order on the Grassmannian, rank
by one table lookup and unrank by a scan of the cells, without
materializing anything.

A cell is walked, not unranked point by point: the free entries of one
row do not depend on the other rows, so the cell is the product of one
list of choices per row, each in the canonical order that
linalg._row_list lists.  Row 0's choices are read a chunk at a time as
the walk reaches them; every later row's list is built once.

The cells of G(l, m) (_grassmannian_layout) are the package's one cell
layout.  A cell's rows hold column indices, and _walk_cell reads them
on a basis: G(l, m) on the identity, a Schubert variety on its flag's
adapted basis reversed (schubert._schubert_cells), an annihilator walk
on an inverse transpose.  Each tuple of rows the walk yields is one
point, and the walk is itertools' own iterators chained, so it runs no
Python frame per point.  A count walks nothing: a cell with f free
entries yields q ** f tuples, so a count sums those sizes (_count_cells)
under the walk's budget.

What depends only on the shape is built once per process, as immutable
tuples shared by every caller: the cells of G(l, m), which the walk,
rank and unrank all read, the size of G(l, m) that every budget check
reads, and per field the multipliers a row walk steps through.  Rank
reads one dict per (m, l, q), from each cell's pivots to its offset in
the canonical order (_cell_offsets).  What depends on a flag is built
per variety.
"""

import os
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, product, repeat

from .errors import BudgetExceededError, _exact
from .field import field_from_order
from .linalg import Subspace, _as_rng, _echelon_step, _identity, _row_chunks, _row_list, random_invertible

DEFAULT_ENUM_BOUND = 10**6


def enumeration_bound():
    """Active cap on how many subspaces a single call may enumerate."""
    raw = os.environ.get("QGRASS_MAX_ENUM")
    if not raw:
        return DEFAULT_ENUM_BOUND
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"QGRASS_MAX_ENUM must be an int, got {raw!r}") from None


@lru_cache(maxsize=None)
def gaussian_binomial(m, l, q):
    """Number of l-dimensional subspaces of an m-dimensional space, exactly.

    Cached per shape, since every budget check reads it.
    """
    if l < 0 or l > m:
        return 0
    num = 1
    den = 1
    for i in range(l):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def check_alpha(alpha, m, allow_empty=False):
    """Validate a strictly increasing tuple of int dimensions in [1, m]."""
    alpha = tuple(alpha)
    if any(type(a) is not int for a in alpha):
        raise ValueError(f"'alpha' must hold ints, got {alpha!r}")
    if not alpha:
        if allow_empty:
            return alpha
        raise ValueError("empty dimension tuple")
    if any(alpha[i] >= alpha[i + 1] for i in range(len(alpha) - 1)):
        raise ValueError(f"dimensions {alpha} must strictly increase")
    if alpha[0] < 1 or alpha[-1] > m:
        raise ValueError(f"dimensions {alpha} out of range [1, {m}]")
    return alpha


def _walk_cell(gf, basis, rows):
    """An iterator over the row tuples of one cell read on basis, row 0 slowest.

    rows holds one (pivot, free columns) pair of indices per row, as
    _grassmannian_layout lists them: row i ranges over basis[pivot] +
    sum x_j basis[j] over its free columns j.  The later rows' choices
    are listed once, flat, and itertools.product multiplies each chunk
    of row 0's choices out against them; row 0 is read in chunks
    (_row_chunks), since in a cell of G(1, m) it is the whole cell.  The
    chunks are chained in C, so no Python frame runs per tuple; the
    tuples and their order are product(*row_lists)'s.  A cell with no
    rows, the one cell of G(0, m), holds the one empty tuple.  On an
    invertible basis distinct tuples span distinct points, so the cell
    holds as many points as the walk yields tuples: q ** len(free).
    """
    if not rows:
        return iter(((),))
    chunks, later = _cell_choices(gf, basis, rows)
    return chain.from_iterable(map(product, chunks, *map(repeat, later)))


def _cell_choices(gf, basis, rows):
    """Row 0's choices as _row_chunks reads them, and each later row's as one list."""
    (c, free), *rest = rows
    later = [_row_list(gf, basis[b], [basis[j] for j in js]) for b, js in rest]
    return _row_chunks(gf, basis[c], [basis[j] for j in free]), later


def _count_cells(gf, m, l, cells, limit=None):
    """How many points cells of G(l, m) hold, q ** len(free) each, under the walk's budget."""
    check_enumeration_budget(gf, m, l, limit)
    return sum(gf.q ** len(free) for _, _, free in cells)


def check_enumeration_budget(gf, m, l, limit=None):
    """Refuse an enumeration of G(l, m) larger than its budget.

    The budget is the limit argument when given, otherwise the global
    bound.  The size comes from the closed form, so nothing is built.
    """
    total = gaussian_binomial(m, l, gf.q)
    bound = _exact(limit, "limit", int) if limit is not None else enumeration_bound()
    if total > bound:
        raise BudgetExceededError(
            f"Grassmannian has {total} points, over the bound {bound}",
            requested=total,
            bound=bound,
        )


@lru_cache(maxsize=None)
def _grassmannian_layout(m, l):
    """The (pivots, rows, free) of every cell of G(l, m), once per shape.

    free lists the cell's free entries (row, column), row-major: in pivot
    row i, every later column that is no pivot.  rows is what _walk_cell
    takes: row i's pivot column and free columns, as indices into the
    basis the cell is read on.  On the identity, row i is the unit
    vector at pivots[i] plus any combination of the unit vectors at its
    free columns.  A cell holds q ** len(free) points.
    """
    layout = []
    for piv in combinations(range(m), l):
        free = tuple((i, j) for i, c in enumerate(piv) for j in range(c + 1, m) if j not in piv)
        rows = tuple((c, tuple(j for k, j in free if k == i)) for i, c in enumerate(piv))
        layout.append((piv, rows, free))
    return tuple(layout)


def enumerate_grassmannian(gf, m, l, limit=None):
    """An iterator over the l-dimensional subspaces of GF(q)^m, in canonical order.

    Empty for l outside [0, m].  Otherwise refuses to start if the total
    exceeds the enumeration budget (the limit argument when given,
    otherwise the global bound).
    """
    if not 0 <= l <= m:
        return iter(())
    check_enumeration_budget(gf, m, l, limit)
    trusted = Subspace._trusted
    eye = _identity(m)
    return chain.from_iterable(
        map(trusted, repeat(gf), _walk_cell(gf, eye, rows), repeat(piv), repeat(m))
        for piv, rows, _ in _grassmannian_layout(m, l)
    )


def _count_grassmannian(gf, m, l, limit=None):
    """How many points enumerate_grassmannian yields, none of them walked."""
    return _count_cells(gf, m, l, _grassmannian_layout(m, l), limit) if 0 <= l <= m else 0


@lru_cache(maxsize=None)
def _cell_offsets(m, l, q):
    """Each G(l, m) cell's pivots -> (rank of its first point, free entries).

    The rank of a cell's first point is the summed size of the cells
    before it.  Built once per (m, l, q), from _grassmannian_layout.
    """
    offsets = {}
    offset = 0
    for piv, _, free in _grassmannian_layout(m, l):
        offsets[piv] = (offset, free)
        offset += q ** len(free)
    return offsets


def rank_subspace(W):
    """Position of a subspace in the canonical enumeration order.

    The cells before W's own count by their sizes (_cell_offsets); W's
    free entries, row-major, are the base-q digits of its place within
    its cell.
    """
    q, basis = W.gf.q, W.basis
    offset, free = _cell_offsets(W.m, W.dim, q)[W.pivots]
    t = 0
    for i, j in free:
        t = t * q + basis[i][j]
    return offset + t


def unrank_subspace(gf, m, l, r):
    q = gf.q
    total = gaussian_binomial(m, l, q)
    if not 0 <= _exact(r, "r", int) < total:
        raise ValueError(f"rank {r} outside [0, {total})")
    # cells are few; linear scan beats bisect bookkeeping at these sizes
    for piv, _, free in _grassmannian_layout(m, l):
        size = q ** len(free)
        if r < size:
            break
        r -= size
    basis = [list(_identity(m)[c]) for c in piv]
    for i, j in reversed(free):
        r, basis[i][j] = divmod(r, q)
    return Subspace._trusted(gf, tuple(map(tuple, basis)), piv, m)


def random_subspace(gf, m, l, rng=None):
    rng = _as_rng(rng)
    total = gaussian_binomial(m, l, gf.q)
    return unrank_subspace(gf, m, l, rng.randrange(total))


# -- flags -------------------------------------------------------------------


@dataclass(frozen=True)
class Flag:
    """A strictly nested chain of subspaces with prescribed dimensions.

    includes_zero records a formal zero-dimensional member.  It never
    affects which points satisfy anything, but keeping it makes taking
    the annihilator of every member an involution on flags even when the
    top member is the whole space.
    """

    gf: object
    m: int
    alpha: tuple
    subspaces: tuple
    includes_zero: bool = False

    def __post_init__(self):
        _exact(self.includes_zero, "includes_zero", bool)
        alpha = check_alpha(self.alpha, self.m, allow_empty=True)
        object.__setattr__(self, "alpha", alpha)
        subs = tuple(self.subspaces)
        object.__setattr__(self, "subspaces", subs)
        if len(subs) != len(alpha):
            raise ValueError("one subspace per dimension entry")
        for a, S in zip(alpha, subs):
            if not isinstance(S, Subspace):
                raise TypeError("flag members must be Subspace instances")
            if S.gf != self.gf or S.m != self.m:
                raise ValueError("flag member in the wrong ambient space")
            if S.dim != a:
                raise ValueError(f"member of dimension {S.dim} listed under {a}")
        for i in range(len(subs) - 1):
            if not subs[i] <= subs[i + 1]:
                raise ValueError("flag members must be nested")

    @classmethod
    def _trusted(cls, gf, m, alpha, subspaces, includes_zero=False):
        """A flag built without checks.

        The caller vouches that alpha is a strictly increasing tuple of
        ints in [1, m], subspaces a tuple of nested Subspaces of GF(q)^m
        with those dimensions, and includes_zero a bool.
        """
        self = object.__new__(cls)
        self.__dict__.update(gf=gf, m=m, alpha=alpha, subspaces=subspaces, includes_zero=includes_zero)
        return self

    def __getitem__(self, i):
        return self.subspaces[i]

    def to_json_dict(self):
        return {
            "q": self.gf.q,
            "m": self.m,
            "alpha": list(self.alpha),
            "subspaces": [S.to_rows() for S in self.subspaces],
            "includes_zero": self.includes_zero,
        }

    @classmethod
    def from_json_dict(cls, data):
        gf = field_from_order(data["q"])
        m = _exact(data["m"], "m", int)
        alpha = tuple(_exact(data["alpha"], "alpha", list))
        subs = tuple(
            Subspace.from_rows(gf, rows, ambient=m) for rows in data["subspaces"]
        )
        return cls(gf, m, alpha, subs, data.get("includes_zero", False))


def standard_flag(gf, m, alpha):
    """The flag of leading-coordinate subspaces at the given dimensions."""
    alpha = check_alpha(alpha, m)
    full = Subspace.full(gf, m)
    subs = tuple(Subspace._trusted(gf, full.basis[:a], full.pivots[:a], m) for a in alpha)
    return Flag(gf, m, alpha, subs)


def random_flag(gf, m, alpha, rng=None):
    """The flag of prefixes of a random_invertible matrix T at alpha.

    Prefixes of an invertible matrix nest, and the member of dimension m
    is the whole space, so nothing is checked or spanned twice.
    """
    alpha = check_alpha(alpha, m)
    T = random_invertible(gf, m, rng)
    subs = tuple(
        Subspace._span(gf, T[:a], m) if a < m else Subspace.full(gf, m) for a in alpha
    )
    return Flag._trusted(gf, m, alpha, subs)


def adapted_basis(flag):
    """Rows of an invertible matrix whose prefixes realize the flag.

    Row selection is greedy and canonical: the RREF rows of each member
    from last to first, then standard basis vectors, each kept when it
    leaves the span of the rows kept so far.  Equal flags therefore get
    identical adapted bases.  These are the rows a scan of each member's
    vectors in canonical coefficient order would keep, since every vector
    before a member's row r in that order lies in the span of its later
    rows.  One echelon pass tests every candidate against the kept rows.
    Returns a list of row lists.
    """
    gf, m = flag.gf, flag.m
    candidates = [(S.dim, reversed(S.basis)) for S in flag.subspaces]
    candidates.append((m, _identity(m)))
    rows = []
    elim = []
    for dim, vectors in candidates:
        for v in vectors:
            if len(rows) == dim:
                break
            step = _echelon_step(gf, elim, v)
            if step:
                rows.append(list(v))
                elim.append(step)
    return rows
