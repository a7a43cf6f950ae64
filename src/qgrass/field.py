"""Finite field arithmetic on integer codes, vectorized over numpy arrays.

Elements of GF(p^e) are stored as plain integers in [0, p^e).  The base-p
digits of a code, least significant first, are the coefficients of a
polynomial in the canonical generator, constant term first.  For prime
fields this makes codes and residues mod p coincide, so arithmetic is
direct modular arithmetic on arrays.  For proper extensions with small
order we precompute full operation tables once and every array operation
becomes a fancy-indexing lookup; beyond the table bound a slow generic
path keeps the same API working.

Row reduction does not go through the array operations.  Each GF picks
once, at construction, the two scalar row operations the elimination
kernel in linalg runs on Python lists: % arithmetic for prime fields,
list copies of the tables for tabled fields, the scalar slow path for
the rest.

The modulus is never chosen randomly: for each (p, e) we take the
lexicographically smallest monic irreducible polynomial of degree e,
comparing coefficient sequences from the constant term up.  Two GF
instances with equal (p, e) therefore agree element-for-element, and
serialized data round-trips between processes.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import BudgetExceededError

# Largest field order for which full op tables are built by default.
TABLE_BOUND = 256

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


def _poly_mod(poly, modulus, p):
    """Reduce poly (low-to-high coefficient list) modulo a monic modulus."""
    poly = [c % p for c in poly]
    e = len(modulus) - 1
    while len(poly) > e:
        lead = poly.pop()
        if lead:
            # subtract lead * x^(len(poly)-e) * modulus
            shift = len(poly) - e
            for i, c in enumerate(modulus[:-1]):
                poly[shift + i] = (poly[shift + i] - lead * c) % p
    while len(poly) < e:
        poly.append(0)
    return poly


def _poly_mul_mod(a, b, modulus, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            out[i + j] = (out[i + j] + ca * cb) % p
    return _poly_mod(out, modulus, p)


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


class GF:
    """Arithmetic context for GF(p^e) acting on integer-code arrays.

    All binary operations accept numpy int64 arrays (or python ints) of
    codes and broadcast like numpy ufuncs.  Scalar-only operations
    (inv, power, frobenius on scalars) take and return ints.
    """

    def __init__(self, p, e=1, order_bound=None, use_tables=None):
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
        if use_tables is None:
            use_tables = e > 1 and q <= TABLE_BOUND
        self._tables = None
        if use_tables and e > 1:
            self._build_tables()
        self._choose_row_ops()

    # -- construction of the lookup tables ---------------------------------

    def _reduction_rows(self):
        """Row k holds the digit vector of x^k mod modulus, k in [0, 2e-2]."""
        e, p = self.e, self.p
        rows = np.zeros((2 * e - 1, e), dtype=np.int64)
        cur = [1] + [0] * (e - 1)
        for k in range(2 * e - 1):
            rows[k] = cur
            cur = _poly_mod([0] + cur, list(self.modulus), p)
        return rows

    def _build_tables(self):
        p, e, q = self.p, self.e, self.q
        codes = np.arange(q, dtype=np.int64)
        powers = p ** np.arange(e, dtype=np.int64)
        digits = (codes[:, None] // powers[None, :]) % p  # (q, e)

        add_digits = (digits[:, None, :] + digits[None, :, :]) % p
        add = (add_digits * powers).sum(axis=2)

        red = self._reduction_rows()  # (2e-1, e)
        conv = np.zeros((q, q, 2 * e - 1), dtype=np.int64)
        for i in range(e):
            for j in range(e):
                conv[:, :, i + j] += np.multiply.outer(digits[:, i], digits[:, j])
        mul_digits = np.tensordot(conv, red, axes=([2], [0])) % p
        mul = (mul_digits * powers).sum(axis=2)

        neg_digits = (-digits) % p
        neg = (neg_digits * powers).sum(axis=1)

        inv = np.zeros(q, dtype=np.int64)
        nz_rows, nz_cols = np.nonzero(mul == 1)
        inv[nz_rows] = nz_cols

        # frob[k] = frob1 iterated k times, frob1[a] = a^p via the mul table
        frob1 = np.zeros(q, dtype=np.int64)
        for a in range(q):
            acc = 1
            for _ in range(p):
                acc = mul[acc, a]
            frob1[a] = acc
        frob = np.zeros((e, q), dtype=np.int64)
        frob[0] = np.arange(q)
        for k in range(1, e):
            frob[k] = frob1[frob[k - 1]]

        self._tables = {
            "add": add,
            "mul": mul,
            "neg": neg,
            "inv": inv,
            "frob": frob,
        }
        # list copies: scalar lookups in the elimination kernel and inv
        self._lists = {name: self._tables[name].tolist() for name in ("add", "mul", "neg", "inv")}

    def _choose_row_ops(self):
        """Fix the two row operations the elimination kernel runs on.

        Rows are Python lists of codes.  scale_row(row, c) is c * row and
        sub_row(row, f, piv) is row - f * piv.  Prime fields use %, tabled
        fields index the list tables, and the rest the scalar slow path.
        """
        if self.e == 1:
            p = self.p

            def scale_row(row, c):
                return [x * c % p for x in row]

            def sub_row(row, f, piv):
                return [(x - f * y) % p for x, y in zip(row, piv)]

        elif self._tables is not None:
            add, mul, neg = self._lists["add"], self._lists["mul"], self._lists["neg"]

            def scale_row(row, c):
                mc = mul[c]
                return [mc[x] for x in row]

            def sub_row(row, f, piv):
                mf = mul[neg[f]]
                return [add[x][mf[y]] for x, y in zip(row, piv)]

        else:
            slow_add, slow_mul, slow_neg = self._slow_add, self._slow_mul, self._slow_neg

            def scale_row(row, c):
                return [slow_mul(c, x) for x in row]

            def sub_row(row, f, piv):
                nf = slow_neg(f)
                return [slow_add(x, slow_mul(nf, y)) for x, y in zip(row, piv)]

        self._scale_row = scale_row
        self._sub_row = sub_row

    # -- generic slow path helpers -----------------------------------------

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

    def _slow_add(self, a, b):
        da, db = self._digits_of(int(a)), self._digits_of(int(b))
        return self._code_of([(x + y) % self.p for x, y in zip(da, db)])

    def _slow_neg(self, a):
        return self._code_of([(-x) % self.p for x in self._digits_of(int(a))])

    def _slow_mul(self, a, b):
        da, db = self._digits_of(int(a)), self._digits_of(int(b))
        prod = _poly_mul_mod(da, db, list(self.modulus), self.p)
        return self._code_of(prod)

    # -- public arithmetic --------------------------------------------------

    def add(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.p
        if self._tables is not None:
            return self._tables["add"][a, b]
        fn = np.frompyfunc(self._slow_add, 2, 1)
        return np.asarray(fn(a, b)).astype(np.int64)

    def sub(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.p
        return self.add(a, self.neg(b))

    def neg(self, a):
        if self.e == 1:
            return (-np.asarray(a, dtype=np.int64)) % self.p
        if self._tables is not None:
            return self._tables["neg"][a]
        fn = np.frompyfunc(self._slow_neg, 1, 1)
        return np.asarray(fn(a)).astype(np.int64)

    def mul(self, a, b):
        if self.e == 1:
            return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.p
        if self._tables is not None:
            return self._tables["mul"][a, b]
        fn = np.frompyfunc(self._slow_mul, 2, 1)
        return np.asarray(fn(a, b)).astype(np.int64)

    def inv(self, a):
        """Multiplicative inverse of a single nonzero element."""
        a = int(a)
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        if self._tables is not None:
            return self._lists["inv"][a]
        return self.power(a, self.q - 2)

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
        if self._tables is not None:
            table = self._lists["mul"]

            def mul(x, y):
                return table[x][y]

        else:
            mul = self._slow_mul
        acc = 1
        while n:
            if n & 1:
                acc = mul(acc, a)
            a = mul(a, a)
            n >>= 1
        return acc

    def frobenius(self, a, k=1):
        """Apply x -> x^(p^k) elementwise; k must lie in [0, e)."""
        k = int(k)
        if not 0 <= k < self.e:
            raise ValueError(f"frobenius power {k} outside [0, {self.e})")
        if k == 0 or self.e == 1:
            return np.asarray(a, dtype=np.int64) if not np.isscalar(a) else a
        if self._tables is not None:
            return self._tables["frob"][k][a]
        fn = np.frompyfunc(lambda x: self.power(x, self.p**k), 1, 1)
        return np.asarray(fn(a)).astype(np.int64)

    def dot(self, u, v):
        """Standard bilinear form sum_i u_i * v_i of two code vectors."""
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        prods = self.mul(u, v)
        acc = 0
        for x in np.ravel(prods):
            acc = int(self.add(acc, int(x)))
        return acc

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
