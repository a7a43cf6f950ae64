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
d to m - d, so they only act on a middle Grassmannian (m = 2l).  The
image variety's members are images of prefixes of the flag's adapted
basis.  Only the image's non-redundant members matter, and each of
those is the image of a member of the flag (or of the zero space).

A map holds its matrix as a tuple of int tuples and acts on the tuple
basis of a subspace directly: Frobenius on the whole basis through the
field's log tables (GF._frobenius_rows, skipped at power 0), then
matmul, then one elimination.

The automorphism oracle maps no subspace.  It hands the map's three
parts to schubert._images_within, which reads the variety's cells, the
G(l, m) cells that clear its floors, on the mapped adapted basis
(theta^k permutes a cell's free entries, and a contravariant image
reads the annihilators' cells on the inverse transpose) and tests each
image point against the variety's own floors, one reduction a point.
"""

import itertools

from .errors import _exact
from .field import field_from_order
from .grassmann import Flag
from .linalg import (
    Subspace,
    _as_rng,
    _code_rows,
    _echelon_step,
    _identity,
    _inverse,
    _matmul,
    _pivots,
    _slot_filler,
    random_invertible,
)
from .schubert import SchubertVariety, _binding, _images_within, dual_index_set


def _transpose(mat):
    return list(zip(*mat))


class SemilinearMap:
    """theta then matrix then optional annihilator, acting on row spans."""

    __slots__ = ("gf", "m", "matrix", "frobenius_power", "dual")

    def __init__(self, gf, m, matrix, frobenius_power=0, dual=False):
        matrix, ncols = _code_rows(gf, matrix, m)
        if len(matrix) != m:
            raise ValueError(f"matrix must be {m}x{m}, got {len(matrix)}x{ncols}")
        k = _exact(frobenius_power, "frobenius_power", int)
        if not 0 <= k < gf.e:
            raise ValueError(f"frobenius power {k} outside [0, {gf.e})")
        if len(_pivots(gf, matrix)) != m:
            raise ValueError("matrix is singular")
        _fill(self, gf, m, matrix, k, _exact(dual, "dual", bool))

    @classmethod
    def _trusted(cls, gf, m, matrix, frobenius_power, dual):
        """A map built without checks; matrix becomes a tuple of row tuples.

        The caller vouches for an invertible m x m matrix of codes, an
        int power in [0, e) and a bool dual.
        """
        self = object.__new__(cls)
        _fill(self, gf, m, tuple(map(tuple, matrix)), frobenius_power, dual)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("SemilinearMap is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, gf, m):
        return cls._trusted(gf, m, _identity(m), 0, False)

    @classmethod
    def perp_map(cls, gf, m):
        return cls._trusted(gf, m, _identity(m), 0, True)

    # -- action -------------------------------------------------------------

    def _on_subspace(self, W):
        B = W.basis
        if self.frobenius_power:
            B = self.gf._frobenius_rows(B, self.frobenius_power)
        S = Subspace._span(self.gf, _matmul(self.gf, B, self.matrix), self.m)
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
        # an invertible map keeps the chain nested (an annihilator reverses
        # it, which the sort undoes) and its dimensions distinct
        return Flag._trusted(self.gf, self.m, tuple(S.dim for S in kept), kept, includes_zero)

    def __call__(self, x):
        if isinstance(x, Subspace):
            kind, act = "subspace", self._on_subspace
        elif isinstance(x, Flag):
            kind, act = "flag", self._on_flag
        else:
            raise TypeError(f"cannot apply a semilinear map to {type(x).__name__}")
        if x.gf != self.gf or x.m != self.m:
            raise ValueError(f"{kind} in the wrong ambient space")
        return act(x)

    # -- group structure ----------------------------------------------------

    def __mul__(self, other):
        return compose(self, other)

    def inverse(self):
        gf = self.gf
        k2 = (-self.frobenius_power) % gf.e
        mat = _transpose(self.matrix) if self.dual else _inverse(gf, self.matrix)
        if k2:
            mat = gf._frobenius_rows(mat, k2)
        return SemilinearMap._trusted(gf, self.m, mat, k2, self.dual)

    def _key(self):
        return (self.gf, self.m, self.frobenius_power, self.dual, self.matrix)

    def __eq__(self, other):
        if not isinstance(other, SemilinearMap):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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
            "matrix": [list(row) for row in self.matrix],
            "frobenius_power": self.frobenius_power,
            "dual": self.dual,
        }

    @classmethod
    def from_json_dict(cls, data):
        gf = field_from_order(data["q"])
        return cls(
            gf,
            _exact(data["m"], "m", int),
            data["matrix"],
            data.get("frobenius_power", 0),
            data.get("dual", False),
        )


_fill = _slot_filler(SemilinearMap)


def compose(outer, inner):
    """The map sending W to outer(inner(W)), back in normal form."""
    if outer.gf != inner.gf or outer.m != inner.m:
        raise ValueError("maps act on different spaces")
    gf = outer.gf
    k = (outer.frobenius_power + inner.frobenius_power) % gf.e
    dual = outer.dual != inner.dual
    left = inner.matrix
    if outer.frobenius_power:
        left = gf._frobenius_rows(left, outer.frobenius_power)
    if inner.dual:
        # pulling the matrix through an annihilator transposes and inverts
        right = _transpose(_inverse(gf, outer.matrix))
    else:
        right = outer.matrix
    mat = _matmul(gf, left, right)
    return SemilinearMap._trusted(gf, outer.m, mat, k, dual)


def random_semilinear(gf, m, rng=None, dual=False):
    """A random map: uniform invertible matrix, uniform Frobenius power.

    dual picks the annihilator part: False or True outright, or None for
    a fair coin drawn after the matrix and the power.
    """
    if dual is not None:
        _exact(dual, "dual", bool)
    rng = _as_rng(rng)
    mat = random_invertible(gf, m, rng)
    k = rng.randrange(gf.e)
    if dual is None:
        dual = bool(rng.randrange(2))
    return SemilinearMap._trusted(gf, m, mat, k, dual)


def enumerate_invertible(gf, m):
    """All invertible m x m matrices, rows chosen in lexicographic order.

    Each matrix is a tuple of int tuples.  A candidate row is reduced by
    the rows chosen so far, each normalized at its own pivot, and kept
    when something is left.
    """
    vectors = list(itertools.product(range(gf.q), repeat=m))[1:]

    def rec(rows, elim):
        if len(rows) == m:
            yield tuple(rows)
            return
        for v in vectors:
            step = _echelon_step(gf, elim, v)
            if step:
                yield from rec(rows + [v], elim + [step])

    yield from rec([], [])


def group_order(q, m):
    """Order of GL(m, q)."""
    base = 1
    for i in range(m):
        base *= q**m - q**i
    return base


# -- images and automorphisms ------------------------------------------------


def image_of_schubert(tau, omega):
    """Descriptor of {tau(W) : W on omega}, without touching any points.

    Covariant maps just move the flag.  Contravariant maps reflect the
    dimension tuple, and the member at each reflected dimension b is the
    image of the flag's adapted-basis prefix of length m - b.  Only the
    image's non-redundant members matter, and the prefixes behind those
    are the flag's own members (or the zero space), so any other
    completion of the flag gives the same variety; the verification
    campaigns hold this to account pointwise.
    """
    _check_action(tau, omega)
    if not tau.dual:
        return SchubertVariety(tau(omega.flag))
    return _reflected_image(tau, omega, dual_index_set(omega.alpha, omega.m))


def _reflected_image(tau, omega, beta):
    """The variety at tuple beta whose members are images of prefixes.

    The member at b is tau of the flag's adapted-basis prefix of length
    m - b, read off the variety's own adapted basis.
    """
    gf, m = omega.gf, omega.m
    basis = omega._adapted()
    members = tuple(tau(Subspace._span(gf, list(basis[: m - b]), m)) for b in beta)
    return SchubertVariety(Flag(gf, m, beta, members))


def _check_action(tau, omega):
    """The one rule for a map acting on a variety: same space, and m = 2l if contravariant."""
    if tau.gf != omega.gf or tau.m != omega.m:
        raise ValueError("map and variety in different ambient spaces")
    if tau.dual and omega.m != 2 * omega.l:
        raise ValueError(
            "a contravariant map cannot preserve this Grassmannian "
            "unless m = 2l"
        )


def is_automorphism_fast(tau, omega):
    """Does tau map the variety onto itself?  Decided from the flag alone.

    Only the binding members (schubert._binding) are read: the
    whole-space member is skipped for both variances, since it never
    constrains anything.  Covariant: tau must fix each binding member.
    Contravariant: the dimension tuple must equal its own reflected
    complement, and tau must permute the binding members among
    themselves (each lands at the complementary dimension).
    """
    _check_action(tau, omega)
    flag, alpha, m = omega.flag, omega.alpha, omega.m
    binding = _binding(alpha, m)
    if not tau.dual:
        return all(tau(flag[i]) == flag[i] for i in binding)
    if dual_index_set(alpha, m) != alpha:
        return False
    members = {flag[i] for i in binding}
    return {tau(S) for S in members} == members


def is_automorphism_oracle(tau, omega):
    """Ground truth: map every point and test it against the variety."""
    _check_action(tau, omega)
    # invertible maps act injectively on subspaces, so landing inside the
    # variety is the same as permuting its points; the walk exits early
    return _images_within(omega, omega, tau.frobenius_power, tau.matrix, tau.dual)
