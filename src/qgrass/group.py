"""Semilinear maps on GF(q)^m and how they act on Schubert varieties.

Every map here is stored in a normal form with three parts, applied to a
subspace in a fixed order: an entrywise field automorphism (a Frobenius
power), then right multiplication of row vectors by an invertible
matrix, then optionally the annihilator.  Closure under composition and
inversion is by explicit matrix identities, and the test suite checks
those identities pointwise on whole small Grassmannians rather than
trusting the algebra.

Covariant maps (no annihilator) preserve dimensions and send a variety
to the variety of the mapped flag.  Contravariant maps flip dimension
d to m - d, so they only act on a middle Grassmannian (m = 2l), and the
image variety's flag comes from a completion of the original flag.
"""

import itertools

import numpy as np

from .errors import DiscrepancyError
from .field import field_from_order
from .grassmann import Flag, complete_flag_containing, _as_rng
from .linalg import (
    Subspace,
    as_matrix,
    matmul,
    matrix_inverse,
    random_invertible,
    rref,
)
from .schubert import SchubertVariety, dual_index_set


class SemilinearMap:
    """theta then matrix then optional annihilator, acting on row spans."""

    __slots__ = ("gf", "m", "matrix", "frobenius_power", "dual")

    def __init__(self, gf, m, matrix, frobenius_power=0, dual=False, validate=True):
        matrix = as_matrix(gf, matrix).copy()
        if matrix.shape != (m, m):
            raise ValueError(f"matrix must be {m}x{m}, got {matrix.shape}")
        k = int(frobenius_power)
        if not 0 <= k < gf.e:
            raise ValueError(f"frobenius power {k} outside [0, {gf.e})")
        if validate and rref(gf, matrix)[1] != m:
            raise ValueError("matrix is singular")
        matrix.setflags(write=False)
        object.__setattr__(self, "gf", gf)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "frobenius_power", k)
        object.__setattr__(self, "dual", bool(dual))

    def __setattr__(self, name, value):
        raise AttributeError("SemilinearMap is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, gf, m):
        return cls(gf, m, np.eye(m, dtype=np.int64), 0, False, validate=False)

    @classmethod
    def from_matrix(cls, gf, matrix, frobenius_power=0, dual=False):
        matrix = as_matrix(gf, matrix)
        return cls(gf, matrix.shape[0], matrix, frobenius_power, dual)

    @classmethod
    def frobenius_map(cls, gf, m, k=1):
        return cls(gf, m, np.eye(m, dtype=np.int64), k, False, validate=False)

    @classmethod
    def perp_map(cls, gf, m):
        return cls(gf, m, np.eye(m, dtype=np.int64), 0, True, validate=False)

    @property
    def is_covariant(self):
        return not self.dual

    # -- action -------------------------------------------------------------

    def _on_subspace(self, W):
        B = np.array(W.basis, dtype=np.int64).reshape(W.dim, self.m)
        if self.frobenius_power:
            B = self.gf.frobenius(B, self.frobenius_power)
        B = matmul(self.gf, B, self.matrix)
        S = Subspace.from_rows(self.gf, B, ambient=self.m)
        if self.dual:
            S = S.perp()
        return S

    def _on_flag(self, flag):
        members = []
        if flag.includes_zero:
            members.append(Subspace.zero(self.gf, self.m))
        members.extend(flag.subspaces)
        images = sorted((self._on_subspace(S) for S in members), key=lambda S: S.dim)
        includes_zero = bool(images) and images[0].dim == 0
        kept = tuple(S for S in images if S.dim > 0)
        return Flag(self.gf, self.m, tuple(S.dim for S in kept), kept, includes_zero)

    def __call__(self, x):
        if isinstance(x, Subspace):
            if x.gf != self.gf or x.m != self.m:
                raise ValueError("subspace in the wrong ambient space")
            return self._on_subspace(x)
        if isinstance(x, Flag):
            if x.gf != self.gf or x.m != self.m:
                raise ValueError("flag in the wrong ambient space")
            return self._on_flag(x)
        raise TypeError(f"cannot apply a semilinear map to {type(x).__name__}")

    # -- group structure ----------------------------------------------------

    def __mul__(self, other):
        return compose(self, other)

    def inverse(self):
        gf = self.gf
        k2 = (-self.frobenius_power) % gf.e
        if self.dual:
            mat = np.ascontiguousarray(gf.frobenius(self.matrix, k2).T)
        else:
            mat = gf.frobenius(matrix_inverse(gf, self.matrix), k2)
        return SemilinearMap(gf, self.m, mat, k2, self.dual, validate=False)

    def __eq__(self, other):
        if not isinstance(other, SemilinearMap):
            return NotImplemented
        return (
            self.gf == other.gf
            and self.m == other.m
            and self.frobenius_power == other.frobenius_power
            and self.dual == other.dual
            and np.array_equal(self.matrix, other.matrix)
        )

    def __hash__(self):
        return hash(
            (
                self.gf,
                self.m,
                self.frobenius_power,
                self.dual,
                self.matrix.tobytes(),
            )
        )

    def __repr__(self):
        tags = []
        if self.frobenius_power:
            tags.append(f"frobenius^{self.frobenius_power}")
        tags.append("contravariant" if self.dual else "covariant")
        return f"SemilinearMap(m={self.m}, {self.gf!r}, {', '.join(tags)})"

    def to_json_dict(self):
        return {
            "q": self.gf.q,
            "m": self.m,
            "matrix": [[int(x) for x in row] for row in self.matrix],
            "frobenius_power": self.frobenius_power,
            "dual": self.dual,
        }

    @classmethod
    def from_json_dict(cls, data):
        gf = field_from_order(int(data["q"]))
        return cls(
            gf,
            int(data["m"]),
            data["matrix"],
            int(data.get("frobenius_power", 0)),
            bool(data.get("dual", False)),
        )


def compose(outer, inner):
    """The map sending W to outer(inner(W)), back in normal form."""
    if outer.gf != inner.gf or outer.m != inner.m:
        raise ValueError("maps act on different spaces")
    gf = outer.gf
    k = (outer.frobenius_power + inner.frobenius_power) % gf.e
    dual = outer.dual != inner.dual
    left = gf.frobenius(inner.matrix, outer.frobenius_power)
    if inner.dual:
        # pulling the matrix through an annihilator transposes and inverts
        right = np.ascontiguousarray(matrix_inverse(gf, outer.matrix).T)
    else:
        right = outer.matrix
    mat = matmul(gf, left, right)
    return SemilinearMap(gf, outer.m, mat, k, dual, validate=False)


def random_semilinear(gf, m, rng=None, allow_dual=False, dual=None):
    """A random map: uniform invertible matrix, uniform Frobenius power.

    dual picks the annihilator part outright; with dual=None it is drawn
    uniformly when allow_dual is set, else off.
    """
    rng = _as_rng(rng)
    mat = random_invertible(gf, m, rng)
    k = rng.randrange(gf.e)
    if dual is None:
        dual = bool(rng.randrange(2)) if allow_dual else False
    return SemilinearMap(gf, m, mat, k, dual, validate=False)


def enumerate_invertible(gf, m):
    """All invertible m x m matrices, rows chosen in lexicographic order."""
    vectors = [
        np.array(v, dtype=np.int64)
        for v in itertools.product(range(gf.q), repeat=m)
    ]

    def reduce(elim, v):
        v = v.copy()
        for p, r in elim:
            c = int(v[p])
            if c:
                v = gf.sub(v, gf.mul(c, r))
        return v

    def rec(rows, elim):
        if len(rows) == m:
            yield np.vstack(rows)
            return
        for v in vectors[1:]:
            res = reduce(elim, v)
            nz = np.nonzero(res)[0]
            if nz.size == 0:
                continue
            p = int(nz[0])
            norm = gf.mul(gf.inv(int(res[p])), res)
            yield from rec(rows + [v], elim + [(p, norm)])

    yield from rec([], [])


def group_order(q, m, e=1, include_frobenius=False, include_dual=False):
    """Order of the matrix group, optionally extended by Frobenius and perp."""
    base = 1
    for i in range(m):
        base *= q**m - q**i
    if include_frobenius:
        base *= e
    if include_dual:
        base *= 2
    return base


# -- images and automorphisms ------------------------------------------------


def image_of_schubert(tau, omega):
    """Descriptor of {tau(W) : W on omega}, without touching any points.

    Covariant maps just move the flag.  Contravariant maps reflect the
    dimension tuple and take annihilator images of a completion of the
    flag; which completion is irrelevant, and the verification campaigns
    hold this to account pointwise.
    """
    if tau.gf != omega.gf or tau.m != omega.m:
        raise ValueError("map and variety in different ambient spaces")
    if tau.is_covariant:
        return SchubertVariety(tau(omega.flag))
    m, l = omega.m, omega.l
    if m != 2 * l:
        raise ValueError(
            "a contravariant map sends these points to dimension "
            f"{m - l}; need m = 2l to stay in the same Grassmannian"
        )
    beta = dual_index_set(omega.alpha, m)
    complete = complete_flag_containing(omega.flag)
    members = tuple(tau(complete[m - b]) for b in beta)
    return SchubertVariety(Flag(omega.gf, m, beta, members))


def _nc_members(omega, below_top=False):
    ncset = set(omega.alpha_nc)
    return [
        S
        for a, S in zip(omega.alpha, omega.flag.subspaces)
        if a in ncset and (not below_top or a < omega.m)
    ]


def is_automorphism_fast(tau, omega, paranoid=False):
    """Does tau map the variety onto itself?  Decided from the flag alone.

    Covariant: tau must fix every member at a non-redundant dimension.
    Contravariant: the dimension tuple must equal its own reflected
    complement, and tau must permute the non-redundant members of
    dimension below m among themselves (each lands at the complementary
    dimension).  The full-space member, when present, is excluded: its
    image is the zero space, while the image variety's top member is
    forced back to the full space, so it can never constrain anything.

    paranoid=True replays the decision against the point-set oracle and
    raises DiscrepancyError on disagreement.
    """
    if tau.gf != omega.gf or tau.m != omega.m:
        raise ValueError("map and variety in different ambient spaces")
    if not tau.is_covariant and omega.m != 2 * omega.l:
        raise ValueError(
            "a contravariant map cannot preserve this Grassmannian "
            "unless m = 2l"
        )
    if tau.is_covariant:
        result = all(tau(S) == S for S in _nc_members(omega))
    else:
        if dual_index_set(omega.alpha, omega.m) != omega.alpha:
            result = False
        else:
            members = _nc_members(omega, below_top=True)
            result = {tau(S) for S in members} == set(members)
    if paranoid:
        expect = is_automorphism_oracle(tau, omega)
        if expect != result:
            raise DiscrepancyError(
                "flag criterion disagrees with the point-set oracle",
                detail={
                    "alpha": omega.alpha,
                    "dual": tau.dual,
                    "fast": result,
                    "oracle": expect,
                },
            )
    return result


def is_automorphism_oracle(tau, omega):
    """Ground truth: map every point and compare the sets."""
    if tau.gf != omega.gf or tau.m != omega.m:
        raise ValueError("map and variety in different ambient spaces")
    if not tau.is_covariant and omega.m != 2 * omega.l:
        raise ValueError(
            "a contravariant map cannot preserve this Grassmannian "
            "unless m = 2l"
        )
    pts = omega.point_set()
    # invertible maps act injectively on subspaces, so landing inside the
    # point set is the same as permuting it; this lets the scan exit early
    return all(tau(W) in pts for W in pts)
