"""Finite field arithmetic on integer codes, vectorized over numpy arrays.

Elements of GF(p^e) are stored as plain integers in [0, p^e).  The base-p
digits of a code, least significant first, are the coefficients of a
polynomial in the canonical generator, constant term first.  For prime
fields this makes codes and residues mod p coincide, so arithmetic is
direct modular arithmetic.

A proper extension (e > 1) builds one set of O(q) tables at construction
and every operation reads them.  With g the smallest primitive element
and n = q - 1, exp[k] = g^k (the powers written out twice, so a sum of
two logs needs no % n), log inverts it, and zech[k] = log(1 + g^k) is the
Zech logarithm (K. Huber, IEEE Trans. Inf. Theory 36(4), 1990).  Zero has
the log 2n and exp reads 0 from there on, so a product is always
exp[log a + log b].  In characteristic 2 a sum is the XOR of the codes;
otherwise a + b = g^(log a + zech[log b - log a]) for nonzero a and b.
Negation is exp[log a + n/2] in odd characteristic and the identity in
characteristic 2, inverses are exp[n - log a] and the Frobenius map
multiplies logs by p^k.

Row reduction does not go through the array operations.  Each GF picks
once, at construction, the two scalar row operations the elimination
kernel in linalg runs on Python lists: % arithmetic for prime fields,
list lookups in the same tables for the rest.

The modulus is never chosen randomly: for each (p, e) we take the
lexicographically smallest monic irreducible polynomial of degree e,
comparing coefficient sequences from the constant term up.  Two GF
instances with equal (p, e) therefore agree element-for-element, and
serialized data round-trips between processes.  The choice of g is
internal: it never shows in a code.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError

# Fields at or above this order are refused outright: every structure in
# this package enumerates vectors or subspaces sooner or later, and a huge
# base field makes all of those astronomically large.
DEFAULT_ORDER_BOUND = 1 << 20


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _prime_factors(n):
    """The distinct primes dividing n, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _divides(small, big, p):
    """Whether the monic polynomial small divides big over GF(p)."""
    rem = list(big)
    ds = len(small) - 1
    while len(rem) - 1 >= ds:
        lead = rem[-1]
        if lead == 0:
            rem.pop()
            continue
        shift = len(rem) - 1 - ds
        for i, c in enumerate(small):
            rem[shift + i] = (rem[shift + i] - lead * c) % p
        rem.pop()
    return all(c == 0 for c in rem)


def _monic_polys(p, degree):
    """All monic polynomials of exactly the given degree (low-to-high)."""
    for tail in itertools.product(range(p), repeat=degree):
        yield list(tail) + [1]


def _is_irreducible(poly, p):
    degree = len(poly) - 1
    if degree == 1:
        return True
    if poly[0] == 0:
        return False
    for d in range(1, degree // 2 + 1):
        for cand in _monic_polys(p, d):
            if _divides(cand, poly, p):
                return False
    return True


@lru_cache(maxsize=None)
def _smallest_irreducible(p, e):
    """Lexicographically smallest monic irreducible of degree e over GF(p).

    Ordering is by the coefficient tuple (constant term first), so the
    result is deterministic and shared by every consumer of (p, e).
    """
    if e == 1:
        return (0, 1)
    for poly in _monic_polys(p, e):
        if _is_irreducible(poly, p):
            return tuple(poly)
    raise RuntimeError("no irreducible polynomial found")  # unreachable


def _matrix_power(mat, k, p):
    """mat^k mod p for a square int64 matrix with entries below p."""
    out = np.eye(len(mat), dtype=np.int64)
    while k:
        if k & 1:
            out = out @ mat % p
        mat = mat @ mat % p
        k >>= 1
    return out


class GF:
    """Arithmetic context for GF(p^e) acting on integer-code arrays.

    All binary operations accept numpy int64 arrays (or python ints) of
    codes and broadcast like numpy ufuncs.  Scalar-only operations
    (inv, power, frobenius on scalars) take and return ints.
    """

    def __init__(self, p, e=1, order_bound=None):
        if not _is_prime(p):
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        bound = DEFAULT_ORDER_BOUND if order_bound is None else order_bound
        q = p**e
        if q >= bound:
            raise BudgetExceededError(
                f"field order {q} exceeds the bound {bound}",
                requested=q,
                bound=bound,
            )
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _smallest_irreducible(p, e)
        self._tables = None
        if e > 1:
            self._build_tables()
        self._choose_row_ops()

    # -- construction of the log tables --------------------------------------

    def _primitive_element(self):
        """Matrix of multiplication by the smallest primitive element.

        Multiplication by a code is GF(p)-linear on digit vectors, and its
        matrix is that code's polynomial evaluated at the companion matrix
        of the modulus.  g is primitive when g^((q-1)/r) != 1 for every
        prime r dividing q - 1.
        """
        p, e, q = self.p, self.e, self.q
        x = np.zeros((e, e), dtype=np.int64)
        x[1:, :-1] = np.eye(e - 1, dtype=np.int64)
        x[:, -1] = [-c % p for c in self.modulus[:-1]]
        x_powers = [np.eye(e, dtype=np.int64)]
        for _ in range(e - 1):
            x_powers.append(x_powers[-1] @ x % p)
        exponents = [(q - 1) // r for r in _prime_factors(q - 1)]
        for g in range(2, q):
            mat = sum(d * xp for d, xp in zip(self._digits_of(g), x_powers)) % p
            if not any(np.array_equal(_matrix_power(mat, k, p), x_powers[0]) for k in exponents):
                return mat
        raise RuntimeError("no primitive element found")  # unreachable

    def _times_table(self, mat):
        """times[c] = the code of b * c for every c, where mat multiplies by b.

        Built one digit position at a time: a code c + d * p^j maps to the
        image of c plus d times column j, a digit-wise sum.
        """
        p = self.p
        weights = p ** np.arange(self.e, dtype=np.int64)
        table = np.zeros(1, dtype=np.int64)
        for j in range(self.e):
            blocks = []
            for d in range(p):
                col = np.full_like(table, (d * mat[:, j] % p) @ weights)
                blocks.append(self.sum(np.stack([table, col]), axis=0))
            table = np.concatenate(blocks)
        return table

    def _build_tables(self):
        p, q = self.p, self.q
        n = q - 1
        times_g = self._times_table(self._primitive_element()).tolist()
        powers = [0] * n
        x = 1
        for k in range(n):
            powers[k] = x
            x = times_g[x]
        g_k = np.array(powers, dtype=np.int64)
        log = np.full(q, 2 * n, dtype=np.int64)  # log of zero: exp reads 0 from 2n on
        log[g_k] = np.arange(n)
        # 1 + g^k: one more in the constant digit
        zech = log[g_k - g_k % p + (g_k + 1) % p]
        self._tables = {
            "exp": np.concatenate([g_k, g_k, np.zeros(2 * n + 1, dtype=np.int64)]),
            "log": log,
            "zech": zech,
        }
        # list copies for scalar lookups in the row operations and inv
        self._exp = powers + powers + [0] * (2 * n + 1)
        self._log = log.tolist()
        self._zech = zech.tolist()

    def _choose_row_ops(self):
        """Fix the two row operations the elimination kernel runs on.

        Rows are Python lists of codes.  scale_row(row, c) is c * row and
        sub_row(row, f, piv) is row - f * piv, for nonzero c and f.  Prime
        fields use %, extensions the list copies of the log tables.
        """
        if self.e == 1:
            p = self.p

            def scale_row(row, c):
                return [x * c % p for x in row]

            def sub_row(row, f, piv):
                return [(x - f * y) % p for x, y in zip(row, piv)]

        else:
            exp, log, zech = self._exp, self._log, self._zech
            n = self.q - 1

            def scale_row(row, c):
                lc = log[c]
                return [exp[lc + log[x]] for x in row]

            if self.p == 2:

                def sub_row(row, f, piv):
                    lf = log[f]
                    return [x ^ exp[lf + log[y]] for x, y in zip(row, piv)]

            else:
                half = n // 2

                def sub_row(row, f, piv):
                    # row + (-f) * piv, each sum through its Zech log
                    lt = (log[f] + half) % n
                    out = []
                    for x, y in zip(row, piv):
                        if y:
                            t = lt + log[y]
                            if x:
                                lx = log[x]
                                x = exp[lx + zech[(t - lx) % n]]
                            else:
                                x = exp[t]
                        out.append(x)
                    return out

        self._scale_row = scale_row
        self._sub_row = sub_row

    # -- digits ---------------------------------------------------------------

    def _digits_of(self, a):
        p = self.p
        out = []
        for _ in range(self.e):
            out.append(a % p)
            a //= p
        return out

    def _code_of(self, digits):
        code = 0
        for c in reversed(digits):
            code = code * self.p + (c % self.p)
        return code

    # -- public arithmetic --------------------------------------------------

    def add(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        if self.e == 1:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        exp, log, zech = self._tables["exp"], self._tables["log"], self._tables["zech"]
        la = log[a]
        s = exp[la + zech[(log[b] - la) % (self.q - 1)]]
        # [()] turns a 0-d result into a scalar, as the other operations give
        return np.where(a == 0, b, np.where(b == 0, a, s))[()]

    def sub(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.p
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.e == 1:
            return (-np.asarray(a, dtype=np.int64)) % self.p
        # -1 = g^(n/2) in odd characteristic and 1 = g^0 in characteristic 2
        shift = (self.q - 1) // 2 if self.p != 2 else 0
        return self._tables["exp"][self._tables["log"][np.asarray(a, dtype=np.int64)] + shift]

    def mul(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        log = self._tables["log"]
        return self._tables["exp"][log[a] + log[b]]

    def inv(self, a):
        """Multiplicative inverse of a single nonzero element."""
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._exp[self.q - 1 - self._log[a]]

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def power(self, a, n):
        """a**n for a single element, n >= 0."""
        a = int(a)
        n = int(n)
        if n < 0:
            return self.power(self.inv(a), -n)
        if self.e == 1:
            return pow(a, n, self.p)
        if a == 0:
            return int(n == 0)
        return self._exp[self._log[a] * n % (self.q - 1)]

    def frobenius(self, a, k=1):
        """Apply x -> x^(p^k) elementwise; k must lie in [0, e)."""
        k = int(k)
        if not 0 <= k < self.e:
            raise ValueError(f"frobenius power {k} outside [0, {self.e})")
        scalar = np.isscalar(a)
        if k == 0 or self.e == 1:
            return int(a) if scalar else np.asarray(a, dtype=np.int64)
        if scalar:
            return self.power(a, self.p**k)
        a = np.asarray(a, dtype=np.int64)
        twisted = self._tables["exp"][self._tables["log"][a] * self.p**k % (self.q - 1)]
        return np.where(a == 0, 0, twisted)[()]

    def sum(self, a, axis):
        """Field sum of a code array along one axis."""
        a = np.asarray(a, dtype=np.int64)
        if self.e == 1:
            return a.sum(axis=axis) % self.p
        if self.p == 2:
            return np.bitwise_xor.reduce(a, axis=axis)
        # sum each base-p digit mod p; the digits sit on a new last axis
        p = self.p
        weights = p ** np.arange(self.e, dtype=np.int64)
        digits = a[..., None] // weights % p
        return digits.sum(axis=axis % a.ndim) % p @ weights

    def dot(self, u, v):
        """Standard bilinear form sum_i u_i * v_i of two code vectors."""
        return int(self.sum(np.ravel(self.mul(u, v)), axis=0))

    # -- structure ----------------------------------------------------------

    def elements(self):
        return range(self.q)

    def digits(self, a):
        """Base-p digit tuple of a code, constant coefficient first."""
        return tuple(self._digits_of(int(a)))

    def from_digits(self, digits):
        return self._code_of(list(digits))

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GF)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return hash((GF, self.p, self.e, self.modulus))

    def __repr__(self):
        return f"GF({self.q})"

    def to_json_dict(self):
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @classmethod
    def from_json_dict(cls, data):
        gf = make_field(int(data["p"]), int(data["e"]))
        want = tuple(int(c) for c in data.get("modulus", gf.modulus))
        if want != gf.modulus:
            raise ValueError(
                f"modulus {list(want)} differs from the canonical choice "
                f"{list(gf.modulus)} for GF({gf.q})"
            )
        return gf


@dataclass(frozen=True)
class FieldAutomorphism:
    """A power of the absolute Frobenius x -> x^(p^k) on a fixed field."""

    gf: GF
    k: int

    def __post_init__(self):
        if not 0 <= self.k < self.gf.e:
            raise ValueError(f"power {self.k} outside [0, {self.gf.e})")

    def __call__(self, a):
        return self.gf.frobenius(a, self.k)

    def compose(self, other):
        if self.gf != other.gf:
            raise ValueError("automorphisms of different fields")
        return FieldAutomorphism(self.gf, (self.k + other.k) % self.gf.e)

    def inverse(self):
        return FieldAutomorphism(self.gf, (-self.k) % self.gf.e)


def automorphism_group(gf):
    """All field automorphisms, identity first; cyclic of order e."""
    return [FieldAutomorphism(gf, k) for k in range(gf.e)]


@lru_cache(maxsize=None)
def make_field(p, e=1):
    """Shared GF(p^e) instance; cached so repeat callers get one object."""
    return GF(p, e)


def field_from_order(q):
    """GF instance for a prime-power order q, factoring q automatically."""
    q = int(q)
    if q < 2:
        raise ValueError(f"{q} is not a prime power")
    p = None
    n = q
    for d in itertools.chain([2], range(3, q + 1, 2)):
        if d * d > n:
            p = n
            break
        if n % d == 0:
            p = d
            break
    e = 0
    while n % p == 0 and n > 1:
        n //= p
        e += 1
    if n != 1:
        raise ValueError(f"{q} is not a prime power")
    return make_field(p, e)
