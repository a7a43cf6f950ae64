"""Schubert varieties in the Grassmannian of GF(q)^m, defined by flags.

A variety here is the set of l-dimensional subspaces W meeting each
member of a fixed flag in at least a prescribed dimension: the member
listed at position i (0-based) must meet W in dimension at least i + 1.

Not every condition matters.  A member whose dimension has a successor
in the dimension tuple is implied by the next condition down the chain,
so the variety only sees the members at the non-redundant dimensions.
That observation drives the fast equality test, and the brute-force
machinery here exists to check it and its consequences honestly.

Points are walked, not filtered out of G(l, m) one by one.  Read in
its flag's adapted basis reversed, a point's RREF pivots c_1 < ... < c_l
say where it meets the flag, and it lies on the variety exactly when
c_(l+1-i) >= m - alpha_i for every i: the pivots clear the floors
m - alpha_i.  The RREF cells of G(l, m) are the Schubert cells of that
reversed basis (Fulton, Young Tableaux, ch. 9; Kleiman and Laksov,
Amer. Math. Monthly 79, 1972), so the variety is the G(l, m) cells
whose pivots clear its floors (_schubert_cells), walked on that basis;
count_points sums their sizes and walks none.  Membership by rank
(contains) checks single points, witnesses among them, with one
intersection_dim per binding member (_binding).

The oracles build no point set either: _images_within walks the
images of a variety's cells under a semilinear map and tests each
image's pivots against a target's floors, the same test the cells are
kept by.  It reduces each choice of a cell's first l - 1 rows once
and carries it down the cell.  With P those rows' pivots, thr(P) is
the smallest last pivot that clears the floors with P, and clearing
is monotone in that pivot, so the last pivots that do are exactly
those off P from thr(P) on: each last-row choice costs one reduction
and a look left of thr(P).  Every point is still tested, and the walk
stops at the first one off the target.

point_set stays for what needs the set itself: alpha-uniqueness and
the stabilizer census's oracle, which tests thousands of maps against
one variety, most of them failing at their first point.

Which cells a dimension tuple keeps and its non-redundant positions
depend on (alpha, m) alone, so they are built once per shape, as
tuples, and the kept cells are the G(l, m) layout's own tuples.  A
variety builds only what its flag decides, its frame: the adapted
basis the cells are read on, on first use, and that basis's inverse,
which takes a point into its adapted coordinates, on first need.
Everything that reads a variety's adapted coordinates (the walk, the
oracles' image walk, the witness construction, the contravariant image
and the campaigns' stabilizers and movers) takes them from the
variety, so one variety derives its frame once however many of them
run on it.
"""

from functools import lru_cache
from itertools import chain, combinations, repeat
from operator import ge

from .errors import _exact
from .field import field_from_order
from .grassmann import (
    Flag,
    _cell_choices,
    _count_cells,
    _grassmannian_layout,
    _walk_cell,
    adapted_basis,
    check_alpha,
    check_enumeration_budget,
    enumerate_grassmannian,
    rank_subspace,
    standard_flag,
)
from .linalg import Subspace, _echelon_step, _intersection_dim, _inverse, _matmul


def alpha_nc(alpha):
    """The non-redundant entries: those whose successor is absent.

    The largest entry always qualifies.  Conditions at the other entries
    are implied, since meeting a member in dimension i + 2 one step up
    forces meeting this one in dimension i + 1.
    """
    aset = set(alpha)
    return tuple(a for a in alpha if a + 1 not in aset)


def condition_word(alpha, m):
    """Entry r (1-based) counts the dimensions in the tuple that are <= r."""
    alpha = tuple(alpha)
    return tuple(sum(1 for a in alpha if a <= r) for r in range(1, m + 1))


def dual_index_set(alpha, m):
    """Reflected complement: {m + 1 - j : j not in alpha}, sorted."""
    aset = set(alpha)
    return tuple(sorted(m + 1 - j for j in range(1, m + 1) if j not in aset))


@lru_cache(maxsize=None)
def _nc_positions(alpha):
    """0-based positions of alpha's non-redundant entries, once per tuple."""
    ncset = set(alpha_nc(alpha))
    return tuple(i for i, a in enumerate(alpha) if a in ncset)


@lru_cache(maxsize=None)
def _binding(alpha, m):
    """Positions of the members every criterion reads: non-redundant, below m.

    A member at m is the whole space, which binds nothing: every point
    meets it in dimension l, every covariant map fixes it, and the
    contravariant image of a self-dual tuple has the whole space at m
    again (the annihilator of the zero space).
    """
    return tuple(i for i in _nc_positions(alpha) if alpha[i] < m)


def _floors(alpha, m):
    """The floors m - alpha_i, lowest first, that a point's pivots must clear.

    In the adapted basis reversed, pivot c stands for adapted row m - c
    (1-based), so the conditions p_i <= alpha_i on the sorted rows p_i
    read c_(l+1-i) >= m - alpha_i.
    """
    return tuple(m - a for a in reversed(alpha))


def _clears(pivots, floors):
    """Whether each pivot is at least its floor: the point is on the variety."""
    return all(map(ge, pivots, floors))


def _threshold(pivots, floors, m):
    """thr(P): the smallest column p off P such that P and p clear the floors.

    m when there is none.  Raising p past another pivot never lowers a
    sorted entry, so clearing is monotone in p: P and p clear the floors
    exactly when p is off P and p >= thr(P).
    """
    return next((p for p in range(m) if p not in pivots and _clears(sorted((*pivots, p)), floors)), m)


@lru_cache(maxsize=None)
def _thresholds(floors, m):
    """thr(P) for every set P of len(floors) - 1 columns, keyed by the bitmask of P."""
    return {
        sum(1 << p for p in prefix): _threshold(prefix, floors, m)
        for prefix in combinations(range(m), len(floors) - 1)
    }


@lru_cache(maxsize=None)
def _schubert_cells(alpha, m, dual=False):
    """The G(l, m) cells whose pivots clear alpha's floors, once per shape.

    These are the (pivots, rows, free) tuples of _grassmannian_layout
    itself, not copies.  Read on a basis adapted to the flag, reversed,
    they are the Schubert cells of the variety: each of its points lies
    in exactly one (Fulton, Young Tableaux, ch. 9).

    With dual, the G(m - l, m) cells whose reversed complement clears
    the floors.  In the basis's own order, a point of cell c has row i
    at position s_i = m - 1 - c_i plus x_ij times each free position
    before it, so y annihilates it exactly when y_(s_i) = -sum x_ij y_j.
    Its annihilator has one row per f not among the s_i: e_f plus -x_if
    times each e_(s_i) past f.  That is the G(m - l, m) cell whose
    reversed complement is c, read on the dual basis in its own order,
    and as the -x_if run over the field as the x_if do, its walk lists
    each annihilator once.
    """
    floors = _floors(alpha, m)
    l = len(alpha)
    if not dual:
        return tuple(cell for cell in _grassmannian_layout(m, l) if _clears(cell[0], floors))
    return tuple(
        cell
        for cell in _grassmannian_layout(m, m - l)
        if _clears([c for c in range(m) if m - 1 - c not in cell[0]], floors)
    )


def cell_count_polynomial(alpha, m):
    """Coefficients (low degree first) of the point count as a polynomial in q.

    One q^len(free) per cell of the variety.  The constant term is
    always 1, and the top one, alpha's own cell, is never 0.
    """
    alpha = check_alpha(alpha, m)
    l = len(alpha)
    coeffs = [0] * (sum(alpha) - l * (l + 1) // 2 + 1)
    for _, _, free in _schubert_cells(alpha, m):
        coeffs[len(free)] += 1
    return tuple(coeffs)


def polynomial_value(coeffs, q):
    acc = 0
    for c in reversed(tuple(coeffs)):
        acc = acc * q + c
    return acc


class SchubertVariety:
    """A Schubert variety, held as its defining flag (the descriptor).

    gf, m, alpha, l and nc_positions are read off the flag once, at
    construction, as plain attributes.

    Equality and hashing compare descriptors, not point sets: two
    different flags can carve out the same set of points, and deciding
    that is exactly what equal_fast and equal_oracle are for.
    """

    def __init__(self, flag):
        if not isinstance(flag, Flag):
            raise TypeError("expected a Flag")
        if not flag.alpha:
            raise ValueError("a variety needs at least one condition")
        self.flag = flag
        self.gf, self.m, self.alpha, self.l = flag.gf, flag.m, flag.alpha, len(flag.alpha)
        self.nc_positions = _nc_positions(flag.alpha)
        self._point_set = None
        self._basis = None
        self._basis_inverse = None

    @classmethod
    def standard(cls, gf, m, alpha):
        return cls(standard_flag(gf, m, alpha))

    def _check_point(self, W):
        if not isinstance(W, Subspace):
            raise TypeError("expected a Subspace")
        if W.gf != self.gf or W.m != self.m:
            raise ValueError("point in the wrong ambient space")
        if W.dim != self.l:
            raise ValueError(
                f"point has dimension {W.dim}, the variety lives in "
                f"dimension {self.l}"
            )

    def contains(self, W):
        """Whether a point of the Grassmannian lies on the variety.

        W is checked once.  Then only the binding members S_i (_binding)
        are tested, one intersection_dim each, for meeting W in dimension
        at least i + 1; they imply the other conditions.
        """
        self._check_point(W)
        members = self.flag.subspaces
        return all(_intersection_dim(W, members[i]) > i for i in _binding(self.alpha, self.m))

    def _adapted(self):
        """The flag's adapted basis as row tuples, built on first use."""
        if self._basis is None:
            self._basis = tuple(map(tuple, adapted_basis(self.flag)))
        return self._basis

    def _adapted_inverse(self):
        """The inverse of the adapted basis, built on first need."""
        if self._basis_inverse is None:
            self._basis_inverse = _inverse(self.gf, self._adapted())
        return self._basis_inverse

    def _walk(self, limit=None):
        """An iterator over the points as row tuples, cell by cell, each once.

        Each cell of _schubert_cells is read on the flag's adapted basis
        reversed.  The budget, checked before the walk starts, is the
        size of the whole Grassmannian, as for enumerating it.
        """
        gf = self.gf
        check_enumeration_budget(gf, self.m, self.l, limit)
        basis = self._adapted()[::-1]
        cells = _schubert_cells(self.alpha, self.m)
        return chain.from_iterable(_walk_cell(gf, basis, rows) for _, rows, _ in cells)

    def _cell_points(self, limit=None):
        """An iterator over the points, each once, in no canonical order.

        The span of a walked tuple puts the point in canonical form.
        """
        return map(Subspace._span, repeat(self.gf), map(list, self._walk(limit)), repeat(self.m))

    def points(self, limit=None):
        """Yield the points in canonical Grassmannian order."""
        yield from sorted(self._cell_points(limit), key=rank_subspace)

    def point_set(self):
        # the budget holds on every call, not only the one that fills the
        # cache; _walk checks it before the walk starts
        if self._point_set is None:
            self._point_set = frozenset(self._cell_points())
        else:
            check_enumeration_budget(self.gf, self.m, self.l)
        return self._point_set

    def count_points(self, limit=None):
        """Number of points: the sizes of the cells _walk would walk, under its budget."""
        return _count_cells(self.gf, self.m, self.l, _schubert_cells(self.alpha, self.m), limit)

    def __eq__(self, other):
        if not isinstance(other, SchubertVariety):
            return NotImplemented
        return self.flag == other.flag

    def __hash__(self):
        return hash(self.flag)

    def __repr__(self):
        return (
            f"SchubertVariety(alpha={self.alpha}, m={self.m}, {self.gf!r})"
        )

    def to_json_dict(self):
        return {
            "q": self.gf.q,
            "m": self.m,
            "alpha": list(self.alpha),
            "flag": self.flag.to_json_dict(),
        }

    @classmethod
    def from_json_dict(cls, data):
        if "flag" in data:
            flag = Flag.from_json_dict(data["flag"])
            gf = field_from_order(data["q"])
            if flag.gf != gf or flag.m != _exact(data["m"], "m", int):
                raise ValueError("flag and variety headers disagree")
            if flag.alpha != tuple(_exact(data["alpha"], "alpha", list)):
                raise ValueError("flag and variety dimension tuples disagree")
        else:
            flag = Flag.from_json_dict(data)
        return cls(flag)


def _images_within(omega, target, frobenius_power=0, matrix=None, dual=False):
    """Whether (theta^k, matrix, dual) sends every point of omega onto target.

    With T omega's adapted basis reversed, a point of a cell is C T for
    C in the cell, and its image spans theta^k(C) theta^k(T) M.  theta^k
    fixes 0 and 1 and permutes the field, so theta^k(C) runs over the
    cell as C does: the images of omega's cells are the walks of
    _schubert_cells on the rows of N = theta^k(T) M.  A contravariant
    image is the annihilator of C N, which is Y N^-T for Y an
    annihilator of C: with T in its own order, the walk of the dual
    cells on the rows of N^-T.  Each walked tuple is a point.

    The rows are first taken into target's adapted coordinates with the
    columns reversed, so a point's pivots are its pivots in the basis
    target's cells are read on, and the point lies on target exactly
    when they clear target's floors.  Each cell is walked by
    _cell_within: every choice of the first l - 1 rows is reduced once,
    row by row, and every last-row choice under it is tested with one
    reduction.  No subspace is built, and the walk stops at the first
    point off target.  The budget, checked before the first cell, is the
    size of G(l, m), as for point_set.
    """
    gf, m = omega.gf, omega.m
    check_enumeration_budget(gf, m, omega.l)
    rows = omega._adapted()
    if frobenius_power:
        rows = gf._frobenius_rows(rows, frobenius_power)
    if matrix is not None:
        rows = _matmul(gf, rows, matrix)
    rows = list(zip(*_inverse(gf, rows))) if dual else rows[::-1]
    rows = _matmul(gf, rows, [row[::-1] for row in target._adapted_inverse()])
    thresholds = _thresholds(_floors(target.alpha, m), m)
    for _, cell, _ in _schubert_cells(omega.alpha, m, dual):
        chunks, later = _cell_choices(gf, rows, cell)
        *prefix, last = [chain.from_iterable(chunks), *later]
        if not _cell_within(gf, prefix, last, [], 0, thresholds):
            return False
    return True


def _cell_within(gf, prefix, last, elim, mask, thresholds):
    """Whether every point of a cell, under the rows reduced so far, clears the floors.

    prefix holds the choices of the rows still to reduce before the last
    one, and elim the (pivot, row) pairs _echelon_step kept for the rows
    above them, whose pivots are the bits of mask.  Each choice of the
    next row is reduced once and carried down.  Under a full prefix with
    pivots P, the point is on target exactly when its last row, reduced
    by elim, is zero left of thr(P): its pivot is then off P and at
    least thr(P).  The walk stops at the first point off target.
    """
    if prefix:
        rest = prefix[1:]
        for v in prefix[0]:
            p, r = _echelon_step(gf, elim, v)
            if not _cell_within(gf, rest, last, [*elim, (p, r)], mask | 1 << p, thresholds):
                return False
        return True
    t = thresholds[mask]
    sub_row = gf._sub_row
    for v in last:
        for p, r in elim:
            c = v[p]
            if c:
                v = sub_row(v, c, r)
        if any(v[:t]):
            return False
    return True


def _check_comparable(o1, o2):
    if o1.gf != o2.gf or o1.m != o2.m:
        raise ValueError("varieties in different ambient spaces")


def equal_oracle(o1, o2):
    """Point-set equality by walking every point.  The slow ground truth.

    Every point of o2 is tested against o1's conditions (_images_within
    under the identity).  Equal dimension tuples give cells of equal
    sizes, so then that inclusion is equality; otherwise the reverse
    inclusion is walked too.
    """
    _check_comparable(o1, o2)
    if o1.l != o2.l:
        return False
    if not _images_within(o2, o1):
        return False
    return o1.alpha == o2.alpha or _images_within(o1, o2)


def equal_fast(o1, o2):
    """Point-set equality via descriptors, without enumerating anything.

    Distinct dimension tuples always give distinct varieties, and for a
    shared tuple only the binding members (_binding) matter.
    """
    _check_comparable(o1, o2)
    if o1.alpha != o2.alpha:
        return False
    return all(o1.flag[i] == o2.flag[i] for i in _binding(o1.alpha, o1.m))


def _witness_candidates(oa, ob, s):
    """Try to build a point on one variety but not the other, directly.

    The generators are adapted-basis rows of the first flag: with the
    difference at the top condition, the first l - 1 rows; otherwise one
    row from just inside each other member.  The final generator is
    searched inside the differing member, off the rival member and off
    the span of the rest.
    """
    gf, m = oa.gf, oa.m
    alpha = oa.alpha
    l = len(alpha)
    adapted = oa._adapted()
    if s == l - 1:
        gens = [adapted[j] for j in range(l - 1)]
    else:
        gens = [adapted[alpha[u] - 1] for u in range(l) if u != s]
    if gens:
        span_g = Subspace.from_rows(gf, gens, ambient=m)
    else:
        span_g = Subspace.zero(gf, m)
    As = oa.flag[s]
    Bs = ob.flag[s]
    for x in As.vectors(nonzero=True):
        if not any(Bs._residual(x)) or not any(span_g._residual(x)):
            continue
        W = Subspace.from_rows(gf, gens + [x], ambient=m)
        if oa.contains(W) != ob.contains(W):
            return W
    return None


def equality_witness(o1, o2):
    """A point on exactly one of the two varieties, or None if equal.

    For flags sharing a dimension tuple the witness is built from the
    largest non-redundant position where the members differ, then
    verified; if the construction comes up empty (or the tuples differ)
    a canonical-order scan of the Grassmannian settles it.
    """
    _check_comparable(o1, o2)
    if o1.alpha == o2.alpha:
        diffs = [i for i in _binding(o1.alpha, o1.m) if o1.flag[i] != o2.flag[i]]
        if not diffs:
            return None
        s = max(diffs)
        for oa, ob in ((o1, o2), (o2, o1)):
            W = _witness_candidates(oa, ob, s)
            if W is not None:
                return W
    if o1.l == o2.l:
        for W in enumerate_grassmannian(o1.gf, o1.m, o1.l):
            if o1.contains(W) != o2.contains(W):
                return W
        return None
    # different point dimensions never collide; o1's canonical first point
    # works, and ranks are unique, so the least one is found without a sort
    return min(o1._cell_points(), key=rank_subspace)
