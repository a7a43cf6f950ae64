"""Finite field arithmetic on integer codes, in plain Python ints.

Elements of GF(p^e) are stored as plain integers in [0, p^e).  The base-p
digits of a code, least significant first, are the coefficients of a
polynomial in the canonical generator, constant term first.  For prime
fields this makes codes and residues mod p coincide, so arithmetic is
direct modular arithmetic.

A proper extension (e > 1) builds one set of O(q) tables at construction
and every operation reads them.  With g the smallest primitive element
and n = q - 1, exp[k] = g^k (the powers written out twice, so a sum of
two logs needs no % n), log inverts it, and in odd characteristic
zech[k] = log(1 + g^k) is the Zech logarithm (K. Huber, IEEE Trans. Inf.
Theory 36(4), 1990).  Zero has the log 2n and exp reads 0 from there to
its end at 3n - 1, the largest index a lookup with one nonzero log can
reach.  In characteristic 2 a sum is the XOR of the codes; otherwise
a + b = g^(log a + zech[log b - log a]) for nonzero a and b.  Negation is
exp[log a + n/2] in odd characteristic and the identity in
characteristic 2, inverses are exp[n - log a] and the Frobenius map
multiplies logs by p^k.

The tables come from one walk through the powers of g.  Multiplication
by g is GF(p)-linear on digit vectors, so g * x is the digit-wise sum of
the images of the low and the high digits of x, each read from a table
of about sqrt(q) entries.  In characteristic 2 that sum is an XOR;
otherwise it is two lookups in a table of digit-wise sums of half-width
codes, plus one digit mod p when e is odd.

Each GF picks once, at construction, the two row operations the
elimination kernel in linalg runs on Python lists, and its negation: %
arithmetic for prime fields (XOR rows for GF(2)), lookups in the tables
for the rest.  Every other operation comes from those: a sum or a
difference is a one-entry row minus a multiple of another, and a
product scales a one-entry row, so the scalar operations run the code
the kernel runs.  The public add, sub, neg, mul and frobenius take
codes, or rows or matrices of codes (a code next to a row goes with
every entry), and answer in kind: an int for ints, nested lists for
sequences.  Each takes a code only if it is exactly an int in [0, q)
(_form), wherever it stands.  Frobenius has one rule, written once in
_frobenius_rows: a matrix of codes in, each nonzero entry's log
multiplied by p^k.  The public frobenius hands it a code as a 1 x 1
matrix and a row as a one-row matrix; group's semilinear maps and
schubert's image walk hand it their matrices whole, so theta^k costs a
lookup an entry.

The modulus is never chosen randomly: for each (p, e) we take the
lexicographically smallest monic irreducible polynomial of degree e,
comparing coefficient sequences from the constant term up.  Two GF
instances with equal (p, e) therefore agree element-for-element, and
serialized data round-trips between processes.  The choice of g is
internal: it never shows in a code.
"""

import itertools
from functools import cached_property, lru_cache
from operator import xor

from .errors import BudgetExceededError, _exact

# Fields at or above this order are refused outright: every structure in
# this package enumerates vectors or subspaces sooner or later, and a huge
# base field makes all of those astronomically large.
DEFAULT_ORDER_BOUND = 1 << 20


def _prime_factors(n):
    """The distinct primes dividing n, ascending; [] for n < 2.

    The one trial division in the package: it steps through 2 and then
    the odd numbers, dividing each factor out as it is found.
    """
    out = []
    for d in itertools.chain([2], itertools.count(3, 2)):
        if d * d > n:
            break
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
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


def _form(q, a):
    """0 for a code, 1 for a row of codes, 2 for a matrix of them.

    A code is exactly an int in [0, q): no bool, float or string, as
    errors._exact takes no bool for an int.  A row or a matrix is a list
    or a tuple.  Anything else raises the ValueError _code_rows raises.
    """
    if type(a) is int and 0 <= a < q:
        return 0
    if isinstance(a, (list, tuple)):
        if all(type(x) is int and 0 <= x < q for x in a):
            return 1
        if all(isinstance(row, (list, tuple)) and _form(q, row) == 1 for row in a):
            return 2
    raise ValueError(f"entries must be codes in [0, {q})")


def _entrywise(fn, q, *args):
    """fn on codes, or entry by entry through rows and matrices of codes.

    Every operand passes _form first.  A code next to a row or a matrix
    goes with every entry, so mul(c, row) scales a row; the other
    operands must all be rows, or all matrices, of one length.
    Sequences come back as lists.
    """
    forms = [_form(q, x) for x in args]
    depth = max(forms)
    if not depth:
        return fn(*args)
    if any(form not in (0, depth) for form in forms) or len({len(x) for x in args if type(x) is not int}) > 1:
        raise ValueError("operands of different lengths")
    cols = [x if form else itertools.repeat(x) for x, form in zip(args, forms)]
    if depth == 1:
        return list(map(fn, *cols))
    return [_entrywise(fn, q, *rows) for rows in zip(*cols)]


class GF:
    """Arithmetic context for GF(p^e) on integer codes.

    add, sub, neg, mul and frobenius work on codes and, entry by entry,
    on rows and matrices of codes.  inv and power take and return
    codes, and dot two rows of them.  The elements are the codes
    range(q), and nothing else is taken for one.
    """

    def __init__(self, p, e=1):
        if _prime_factors(p) != [p]:
            raise ValueError(f"characteristic {p} is not prime")
        if e < 1:
            raise ValueError("extension degree must be >= 1")
        q = p**e
        if q >= DEFAULT_ORDER_BOUND:
            raise BudgetExceededError(
                f"field order {q} exceeds the bound {DEFAULT_ORDER_BOUND}",
                requested=q,
                bound=DEFAULT_ORDER_BOUND,
            )
        self.p = p
        self.e = e
        self.q = q
        self.modulus = _smallest_irreducible(p, e)
        # ints and tuples of ints hash alike in every process
        self._hash = hash((p, e, self.modulus))
        self._tables = None
        if e > 1:
            self._build_tables()
        self._choose_ops()

    # -- construction of the log tables --------------------------------------

    def _times_x(self, digits):
        """A digit vector times the generator x, reduced by the modulus."""
        p, top = self.p, digits[-1]
        out = [0] + digits[:-1]
        if top:
            out = [(d - top * c) % p for d, c in zip(out, self.modulus)]
        return out

    def _mul_digits(self, a, b):
        """The product of two digit vectors, as a digit vector."""
        p = self.p
        out = [0] * self.e
        for d in a:
            if d:
                out = [(o + d * y) % p for o, y in zip(out, b)]
            b = self._times_x(b)
        return out

    def _primitive_element(self):
        """The smallest code g with g^((q-1)/r) != 1 for every prime r | q - 1."""
        q = self.q
        one = self._digits_of(1)
        primes = _prime_factors(q - 1)
        for g in range(2, q):
            g_digits = self._digits_of(g)
            for r in primes:
                k, base, acc = (q - 1) // r, g_digits, one
                while k:
                    if k & 1:
                        acc = self._mul_digits(acc, base)
                    base = self._mul_digits(base, base)
                    k >>= 1
                if acc == one:
                    break
            else:
                return g_digits
        raise RuntimeError("no primitive element found")  # unreachable

    def _powers(self, g_digits):
        """[g^0, ..., g^(n-1)] as codes, by one walk of x -> g * x.

        The low w = e // 2 digits of x and the remaining high digits each
        index a table of their images under multiplication by g.  In odd
        characteristic each image is split into its low w digits, its
        next w digits and, for odd e, its top digit, and
        add_digits[a * P + b] is the digit-wise sum of two w-digit codes.
        """
        p, e, n = self.p, self.e, self.q - 1
        w = e // 2
        P = p**w
        low = [self._mul_digits(self._digits_of(v), g_digits) for v in range(P)]
        high = [self._mul_digits(self._digits_of(v * P), g_digits) for v in range(p ** (e - w))]
        powers = [0] * n
        if p == 2:
            low = [self._code_of(img) for img in low]
            high = [self._code_of(img) for img in high]
            x = 1
            for k in range(n):
                powers[k] = x
                x = low[x & (P - 1)] ^ high[x >> w]
            return powers
        add_digits, width = [0], 1  # digit-wise sums, one low digit more per pass
        low_sums = [[(a + b) % p for b in range(p)] for a in range(p)]
        for _ in range(w):
            shifted = [p * s for s in add_digits]
            add_digits = [
                s + h
                for a in range(width)
                for alpha in range(p)
                for h in shifted[a * width : (a + 1) * width]
                for s in low_sums[alpha]
            ]
            width *= p

        def split(table, scale):
            return (
                [scale * self._code_of(img[:w]) for img in table],
                [scale * self._code_of(img[w : 2 * w]) for img in table],
                [img[2 * w] if e % 2 else 0 for img in table],
            )

        lo_low, lo_mid, lo_top = split(low, P)
        hi_low, hi_mid, hi_top = split(high, 1)
        lo, hi = 1, 0  # x = lo + P * hi
        for k in range(n):
            powers[k] = lo + P * hi
            lo, hi = (
                add_digits[lo_low[lo] + hi_low[hi]],
                add_digits[lo_mid[lo] + hi_mid[hi]] + P * ((lo_top[lo] + hi_top[hi]) % p),
            )
        return powers

    def _build_tables(self):
        p, q = self.p, self.q
        n = q - 1
        powers = self._powers(self._primitive_element())
        log = [2 * n] * q  # log of zero: exp reads 0 from 2n on
        for k, x in enumerate(powers):
            log[x] = k
        self._tables = {"exp": powers + powers + [0] * n, "log": log}
        if p != 2:
            # log(x + 1), where + 1 is one more in the constant digit of x
            log_plus_one = log[1:] + [0]
            log_plus_one[p - 1 :: p] = log[::p]
            self._tables["zech"] = [log_plus_one[x] for x in powers]

    def _choose_ops(self):
        """Fix the negation and the two row operations.

        Rows are Python lists of codes.  scale_row(row, c) is c * row and
        sub_row(row, f, piv) is row - f * piv, for nonzero c and f.  Prime
        fields use % (GF(2) subtracts by XOR, f being 1), extensions the
        log tables.  Every other operation is derived from these three.
        """
        p, n = self.p, self.q - 1
        if self.e == 1:

            def neg(a):
                return -a % p

            def scale_row(row, c):
                return [x * c % p for x in row]

            if p == 2:

                def sub_row(row, f, piv):
                    return list(map(xor, row, piv))  # f is 1

            else:

                def sub_row(row, f, piv):
                    return [(x - f * y) % p for x, y in zip(row, piv)]

        else:
            exp, log = self._tables["exp"], self._tables["log"]

            def scale_row(row, c):
                lc = log[c]
                return [exp[lc + log[x]] for x in row]

            if p == 2:

                def neg(a):
                    return a

                def sub_row(row, f, piv):
                    lf = log[f]
                    return [x ^ exp[lf + log[y]] for x, y in zip(row, piv)]

            else:
                zech = self._tables["zech"]
                half = n // 2

                def neg(a):
                    return exp[log[a] + half]  # -1 = g^(n/2)

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

        self._neg = neg
        self._scale_row = scale_row
        self._sub_row = sub_row

    def _add(self, a, b):
        return self._sub_row([a], self._neg(1), [b])[0]

    def _mul(self, a, b):
        return self._scale_row([b], a)[0] if a else 0

    @cached_property
    def _negs(self):
        """-x for x = 1..q-1, so that v - f * g runs over v + x * g in code order.

        Built on the first row listing and then read as a plain attribute;
        a field near the order bound that lists no rows never holds them.
        """
        return tuple(map(self._neg, range(1, self.q)))

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
        return _entrywise(self._add, self.q, a, b)

    def sub(self, a, b):
        sub_row = self._sub_row
        return _entrywise(lambda x, y: sub_row([x], 1, [y])[0], self.q, a, b)

    def neg(self, a):
        return _entrywise(self._neg, self.q, a)

    def mul(self, a, b):
        return _entrywise(self._mul, self.q, a, b)

    def inv(self, a):
        """Multiplicative inverse of a single nonzero element."""
        if _form(self.q, a):
            raise ValueError("inv takes a single code")
        if a == 0:
            raise ZeroDivisionError("inverse of zero in a finite field")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._tables["exp"][self.q - 1 - self._tables["log"][a]]

    def power(self, a, n):
        """a**n for a single element; a negative n inverts a first."""
        if _form(self.q, a):
            raise ValueError("power takes a single code")
        _exact(n, "n", int)
        if n < 0:
            return self.power(self.inv(a), -n)
        if self.e == 1:
            return pow(a, n, self.p)
        if a == 0:
            return int(n == 0)
        return self._tables["exp"][self._tables["log"][a] * n % (self.q - 1)]

    def frobenius(self, a, k=1):
        """Apply x -> x^(p^k) to a code, a row or a matrix; k must lie in [0, e).

        Each form goes through _frobenius_rows: a code as a 1 x 1 matrix,
        a row as a one-row matrix.
        """
        if not 0 <= _exact(k, "k", int) < self.e:
            raise ValueError(f"frobenius power {k} outside [0, {self.e})")
        form = _form(self.q, a)
        out = self._frobenius_rows(a if form == 2 else [a] if form else [[a]], k)
        return out if form == 2 else out[0] if form else out[0][0]

    def _frobenius_rows(self, rows, k):
        """theta^k on every entry of a matrix of codes, as a list of row lists.

        For k in [1, e), a nonzero x goes to exp[log x * p^k mod n] and 0
        stays 0; k = 0 copies the rows.  The caller vouches for k.
        """
        if not k:
            return [list(row) for row in rows]
        exp, log = self._tables["exp"], self._tables["log"]
        pk, n = self.p**k, self.q - 1
        return [[exp[log[x] * pk % n] if x else 0 for x in row] for row in rows]

    def dot(self, u, v):
        """Standard bilinear form sum_i u_i * v_i of two code vectors."""
        if _form(self.q, u) != 1 or _form(self.q, v) != 1:
            raise ValueError("dot takes two rows of codes")
        if len(u) != len(v):
            raise ValueError("vectors of different lengths")
        add, mul = self._add, self._mul
        acc = 0
        for x, y in zip(u, v):
            acc = add(acc, mul(x, y))
        return acc

    # -- structure ----------------------------------------------------------

    def __eq__(self, other):
        return self is other or (
            isinstance(other, GF)
            and self.p == other.p
            and self.e == other.e
            and self.modulus == other.modulus
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"GF({self.q})"


@lru_cache(maxsize=None)
def make_field(p, e=1):
    """Shared GF(p^e) instance; cached so repeat callers get one object."""
    return GF(p, e)


def field_from_order(q):
    """GF instance for a prime-power order q, an int, factoring q automatically."""
    _exact(q, "q", int)
    return make_field(*_prime_power(q))


@lru_cache(maxsize=None)
def _prime_power(q):
    """(p, e) with p^e = q, factored once per order; ValueError if q is no prime power."""
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p,) = primes
    e, n = 0, q
    while n > 1:
        n //= p
        e += 1
    return p, e
