"""Schubert varieties in the Grassmannian of GF(q)^m, defined by flags.

A variety here is the set of l-dimensional subspaces W meeting each
member of a fixed flag in at least a prescribed dimension: the member
listed at position i (0-based) must meet W in dimension at least i + 1.

Not every condition matters.  A member whose dimension has a successor
in the dimension tuple is implied by the next condition down the chain,
so the variety only sees the members at the non-redundant dimensions.
That observation drives the fast equality test, and the brute-force
machinery here exists to check it and its consequences honestly.

Points are generated, not filtered out of G(l, m).  In a basis adapted
to the flag every point lies in exactly one Schubert cell C_beta with
beta <= alpha componentwise, and each cell is walked like an RREF cell
of the Grassmannian (Fulton, Young Tableaux, ch. 9; Kleiman and Laksov,
Amer. Math. Monthly 79, 1972).  Membership by rank (contains) only
checks single points: witnesses, and the redundancy campaign, which
tests the conditions themselves.

The oracles build no point set either: _images_within walks the
images of a variety's cells under a semilinear map and reduces each
image once against a target's conditions.  point_set stays for what
needs the set itself: alpha-uniqueness, points() and the stabilizer
census, which tests thousands of maps against one variety, most of
them failing at their first point.

The cells of a dimension tuple, the basis indices of each cell's rows
and the non-redundant positions depend on (alpha, m) alone, so they are
built once per shape, as tuples, and shared by every variety of that
shape.  A variety builds only what its flag decides: the adapted basis
and the rows read from it.
"""

import itertools
from functools import lru_cache

from .field import field_from_order
from .grassmann import (
    Flag,
    _walk_cell,
    adapted_basis,
    check_alpha,
    check_enumeration_budget,
    enumerate_grassmannian,
    rank_subspace,
    standard_flag,
)
from .linalg import Subspace, _eliminate, intersection_dim, matmul, matrix_inverse


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


def _cells(alpha, m):
    """The dimension tuples beta componentwise at most alpha, in order.

    Each names one Schubert cell of the variety: in a basis adapted to
    the flag, the points whose rows can be brought to b_(beta_i) plus
    combinations of the b_j with j < beta_i and j not in beta.
    """
    return tuple(
        beta
        for beta in itertools.combinations(range(1, m + 1), len(alpha))
        if all(b <= a for b, a in zip(beta, alpha))
    )


@lru_cache(maxsize=None)
def _cell_layout(alpha, m):
    """Per cell beta, each row's 0-based adapted-basis index and generators.

    Row i of cell beta is basis row beta_i - 1 plus combinations of the
    rows j - 1 with j < beta_i and j not in beta.  Built once per
    (alpha, m), as nested tuples.
    """
    return tuple(
        tuple((x - 1, tuple(j - 1 for j in range(1, x) if j not in beta)) for x in beta)
        for beta in _cells(alpha, m)
    )


@lru_cache(maxsize=None)
def _perp_layout(alpha, m):
    """Per cell beta, the rows whose walk lists its points' annihilators.

    A point of cell beta (in the basis the cells are read in) is spanned
    by rows e_(beta_i) + sum x_ij e_j over j < beta_i, j not in beta, so
    y annihilates it exactly when y_(beta_i) = -sum x_ij y_j.  Its
    annihilator has one row per f not in beta: e_f plus -x_if times each
    e_(beta_i) with beta_i > f.  The -x_if run over the field as the x_if
    do, so walking these rows lists each point's annihilator once.  Laid
    out as _cell_layout is, once per (alpha, m).
    """
    return tuple(
        tuple((f - 1, tuple(b - 1 for b in beta if b > f)) for f in range(1, m + 1) if f not in beta)
        for beta in _cells(alpha, m)
    )


def cell_count_polynomial(alpha, m):
    """Coefficients (low degree first) of the point count as a polynomial in q.

    Summing q^(sum_i (b_i - i)) over the dimension tuples b that are
    componentwise at most alpha.  The constant term is always 1, and the
    top one, alpha's own cell, is never 0.
    """
    alpha = check_alpha(alpha, m)
    l = len(alpha)
    coeffs = [0] * (sum(alpha) - l * (l + 1) // 2 + 1)
    for beta in _cells(alpha, m):
        coeffs[sum(b - i - 1 for i, b in enumerate(beta))] += 1
    return tuple(coeffs)


def polynomial_value(coeffs, q):
    acc = 0
    for c in reversed(tuple(coeffs)):
        acc = acc * q + c
    return acc


class SchubertVariety:
    """A Schubert variety, held as its defining flag (the descriptor).

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
        self._point_set = None
        self._condition_lists = None

    @classmethod
    def standard(cls, gf, m, alpha):
        return cls(standard_flag(gf, m, alpha))

    @property
    def gf(self):
        return self.flag.gf

    @property
    def m(self):
        return self.flag.m

    @property
    def alpha(self):
        return self.flag.alpha

    @property
    def l(self):
        return len(self.flag.alpha)

    @property
    def alpha_nc(self):
        return alpha_nc(self.alpha)

    @property
    def nc_positions(self):
        """0-based positions of the members at non-redundant dimensions."""
        return _nc_positions(self.alpha)

    def all_conditions(self):
        """Every (member, required intersection dimension) pair."""
        return [(S, i + 1) for i, S in enumerate(self.flag.subspaces)]

    def minimal_conditions(self):
        """Only the conditions at non-redundant dimensions."""
        return [(self.flag[i], i + 1) for i in self.nc_positions]

    def contains(self, W, conditions="minimal"):
        """Whether a point of the Grassmannian lies on the variety.

        Each condition dim(W & S) >= r is one intersection_dim, which
        reduces the smaller basis against the other's RREF rows.
        conditions picks the full or the reduced condition list.
        """
        if not isinstance(W, Subspace):
            raise TypeError("expected a Subspace")
        if W.gf != self.gf or W.m != self.m:
            raise ValueError("point in the wrong ambient space")
        if W.dim != self.l:
            raise ValueError(
                f"point has dimension {W.dim}, the variety lives in "
                f"dimension {self.l}"
            )
        if self._condition_lists is None:
            self._condition_lists = {"minimal": self.minimal_conditions(), "all": self.all_conditions()}
        try:
            conds = self._condition_lists[conditions]
        except KeyError:
            raise ValueError("conditions must be 'minimal' or 'all'") from None
        return all(intersection_dim(W, S) >= r for S, r in conds)

    def _cell_rows(self, limit=None):
        """Yield, for each cell beta, the rows _walk_cell takes.

        Row i of a point in cell beta is b_(beta_i) + sum x_j b_j over
        j < beta_i with j not in beta, b the flag's adapted basis.  The
        budget, checked before the first cell, is the size of the whole
        Grassmannian, as for enumerating it.
        """
        check_enumeration_budget(self.gf, self.m, self.l, limit)
        b = adapted_basis(self.flag)
        for cell in _cell_layout(self.alpha, self.m):
            yield [(b[x], [b[j] for j in gens]) for x, gens in cell]

    def _cell_points(self, limit=None):
        """Yield the points cell by cell, each once, in no canonical order.

        The span of a cell's rows puts the point in canonical form.
        """
        gf, m = self.gf, self.m
        span = Subspace._span
        for rows in self._cell_rows(limit):
            for cell_rows in _walk_cell(gf, rows):
                yield span(gf, list(cell_rows), m)

    def points(self, limit=None):
        """Yield the points in canonical Grassmannian order."""
        yield from sorted(self._cell_points(limit), key=rank_subspace)

    def point_set(self, limit=None):
        # the budget holds on every call, not only the one that fills the
        # cache; _cell_rows checks it before the first cell
        if self._point_set is None:
            self._point_set = frozenset(self._cell_points(limit))
        else:
            check_enumeration_budget(self.gf, self.m, self.l, limit)
        return self._point_set

    def count_points(self, limit=None):
        """Number of points: the walk of every cell, counted, not spanned.

        Each tuple of cell rows is one point, so no point is built.
        """
        gf = self.gf
        return sum(1 for rows in self._cell_rows(limit) for _ in _walk_cell(gf, rows))

    def count_polynomial(self):
        return cell_count_polynomial(self.alpha, self.m)

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
            gf = field_from_order(int(data["q"]))
            if flag.gf != gf or flag.m != int(data["m"]):
                raise ValueError("flag and variety headers disagree")
            if tuple(flag.alpha) != tuple(int(a) for a in data["alpha"]):
                raise ValueError("flag and variety dimension tuples disagree")
        else:
            flag = Flag.from_json_dict(data)
        return cls(flag)


def _images_within(omega, target, frobenius_power=0, matrix=None, dual=False):
    """Whether (theta^k, matrix, dual) sends every point of omega onto target.

    With T omega's adapted basis, a point of cell beta is C T for C in
    the cell, and its image spans theta^k(C) theta^k(T) M.  theta^k fixes
    0 and 1 and permutes the field, so theta^k(C) runs over the cell as
    C does: the images of cell beta are the walk of _cell_layout on the
    rows of N = theta^k(T) M.  A contravariant image is the annihilator
    of C N, which is Y N^-T for Y an annihilator of C: the walk of
    _perp_layout on the rows of N^-T.  Each walked tuple is a point.

    The rows are first taken into target's adapted coordinates with the
    columns reversed, so that an elimination's pivot c is the last
    nonzero coordinate m - c (1-based) of a reduced row.  A point meets
    the target's member of dimension a in the rows ending at or before
    a; it lies on target exactly when its sorted end positions p_i are
    at most alpha_i, which is every condition of target at once.  One
    elimination per point, no subspace built, and the walk stops at the
    first point off target.  The budget, checked before the first cell,
    is the size of G(l, m), as for point_set.
    """
    gf, m = omega.gf, omega.m
    check_enumeration_budget(gf, m, omega.l)
    rows = basis = adapted_basis(omega.flag)
    if frobenius_power:
        rows = gf.frobenius(rows, frobenius_power)
    if matrix is not None:
        rows = matmul(gf, rows, matrix)
    layout = _cell_layout
    if dual:
        rows = list(zip(*matrix_inverse(gf, rows)))
        layout = _perp_layout
    if target is not omega:
        basis = adapted_basis(target.flag)
    rows = matmul(gf, rows, [row[::-1] for row in matrix_inverse(gf, basis)])
    # pivots c_1 < ... < c_l end at m - c_l < ... < m - c_1, so p_i <= alpha_i
    # reads c_(l+1-i) >= m - alpha_i
    floors = tuple(m - a for a in reversed(target.alpha))
    for cell in layout(omega.alpha, m):
        for point in _walk_cell(gf, [(rows[x], [rows[j] for j in gens]) for x, gens in cell]):
            pivots = _eliminate(gf, list(point), m)[1]
            for c, floor in zip(pivots, floors):
                if c < floor:
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
    shared tuple only the members at non-redundant dimensions matter.
    """
    _check_comparable(o1, o2)
    if o1.alpha != o2.alpha:
        return False
    return all(o1.flag[i] == o2.flag[i] for i in o1.nc_positions)


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
    adapted = adapted_basis(oa.flag)
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
        if Bs.contains_vector(x) or span_g.contains_vector(x):
            continue
        W = Subspace.from_rows(gf, gens + [x], ambient=m)
        if W.dim != l:
            continue
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
        diffs = [i for i in o1.nc_positions if o1.flag[i] != o2.flag[i]]
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
    # different point dimensions never collide; any point of o1 works
    return next(iter(o1.points()))
