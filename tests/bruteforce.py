"""Independent brute-force oracles used by the test suite.

Nothing in this module imports the package under test.  Everything here
recomputes answers from first principles in the dumbest reliable way:
subspaces are literal sets of vector tuples (over GF(p^e) through the
polynomial arithmetic of PolyField), row reduction is done on lists or
on GF(2) bitmasks, and counting means enumerating and counting.
Slow is fine; these exist to catch the fast implementations lying.
"""

import functools
import itertools


# -- GF(2) subspaces as bitmask rows ----------------------------------------


def vec_to_bits(vec):
    """Pack a 0/1 tuple into an int, first coordinate as the top bit."""
    x = 0
    for b in vec:
        x = (x << 1) | (b & 1)
    return x


def bits_to_vec(x, m):
    return tuple((x >> (m - 1 - j)) & 1 for j in range(m))


def rref_bits(rows):
    """Canonical reduced form of a list of GF(2) bitmask rows.

    Returns a tuple of row masks sorted by descending leading bit, i.e.
    ascending pivot column.  Equal subspaces give equal tuples.
    """
    basis = []  # (pivot_bit, row), pivot_bit descending
    for r in rows:
        for pb, pr in basis:
            if (r >> pb) & 1:
                r ^= pr
        if r:
            pb = r.bit_length() - 1
            basis = [(b, x ^ r if (x >> pb) & 1 else x) for b, x in basis]
            basis.append((pb, r))
            basis.sort(key=lambda t: -t[0])
    return tuple(x for _, x in basis)


# -- generic small-p subspaces as vector tuples -----------------------------


def naive_rref(rows, p):
    """Reduced row echelon form over GF(p) by textbook elimination."""
    mat = [[int(x) % p for x in r] for r in rows]
    if not mat:
        return (), ()
    m = len(mat[0])
    pivots = []
    r = 0
    for c in range(m):
        pr = next((i for i in range(r, len(mat)) if mat[i][c] % p), None)
        if pr is None:
            continue
        mat[r], mat[pr] = mat[pr], mat[r]
        inv = pow(mat[r][c], p - 2, p)
        mat[r] = [(x * inv) % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p:
                f = mat[i][c]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(x % p for x in row) for row in mat[:r]), tuple(pivots)


def _arithmetic(field):
    """(q, add, mul) for a prime p, mod p, or for a PolyField."""
    if isinstance(field, PolyField):
        return field.q, field.add, field.mul
    q = field

    def add(a, b):
        return (a + b) % q

    def mul(a, b):
        return a * b % q

    return q, add, mul


def span_set(rows, field, m):
    """Every linear combination of the rows, as a frozenset of tuples.

    field is a prime p, for arithmetic mod p, or a PolyField for GF(p^e).
    The span grows one row at a time: each vector found so far plus each
    multiple of the next row.
    """
    q, add, mul = _arithmetic(field)
    out = {(0,) * m}
    for row in rows:
        multiples = [tuple(mul(c, x) for x in row) for c in range(1, q)]
        out |= {tuple(map(add, v, w)) for v in out for w in multiples}
    return frozenset(out)


def span_dim(vectors, p):
    """Dimension of a set of vectors, read off the cardinality of its span."""
    n = len(vectors)
    d = 0
    while p**d < n:
        d += 1
    if p**d != n:
        raise ValueError("cardinality is not a power of p")
    return d


def naive_subspaces(m, l, p):
    """All l-dimensional subspaces of GF(p)^m as frozensets of tuples."""
    canon = set()
    vectors = list(itertools.product(range(p), repeat=m))
    for rows in itertools.product(vectors, repeat=l):
        form, _ = naive_rref(rows, p)
        if len(form) == l:
            canon.add(form)
    return [span_set(c, p, m) for c in sorted(canon)]


def naive_subspace_count(m, l, p):
    """Number of l-dimensional subspaces of GF(p)^m, by raw enumeration."""
    if p == 2:
        canon = set()
        for rows in itertools.product(range(1 << m), repeat=l):
            form = rref_bits(rows)
            if len(form) == l:
                canon.add(form)
        return len(canon)
    canon = set()
    vectors = list(itertools.product(range(p), repeat=m))
    for rows in itertools.product(vectors, repeat=l):
        form, _ = naive_rref(rows, p)
        if len(form) == l:
            canon.add(form)
    return len(canon)


# -- q-binomial coefficients as polynomials ---------------------------------


def q_binomial_poly(m, l):
    """Coefficient tuple (low degree first) of the q-binomial [m choose l].

    Built from the Pascal-type recurrence
    [m, l] = [m-1, l-1] + q^l * [m-1, l], so it never divides anything.
    """
    if l < 0 or l > m:
        return (0,)
    prev = [(1,)]
    for k in range(1, m + 1):
        cur = [(1,)]
        for j in range(1, k):
            a = prev[j - 1]
            b = prev[j] if j < len(prev) else (0,)
            shifted = (0,) * j + tuple(b)
            n = max(len(a), len(shifted))
            cur.append(
                tuple(
                    (a[i] if i < len(a) else 0)
                    + (shifted[i] if i < len(shifted) else 0)
                    for i in range(n)
                )
            )
        cur.append((1,))
        prev = cur
    return prev[l]


def schubert_count_poly(alpha):
    """Coefficient tuple of sum q^(sum_i beta_i - i) over beta <= alpha.

    beta runs over the strictly increasing tuples of positive integers
    that are componentwise at most alpha: the Schubert cells of the
    variety at alpha.  Built from the recurrence on the last entry,
    P(caps) = sum over b <= caps_l of q^(b - l) P(min(caps_i, b - 1)),
    with P(()) = 1; no Grassmannian is involved.
    """

    @functools.lru_cache(maxsize=None)
    def count(caps):
        if not caps:
            return (1,)
        l = len(caps)
        total = [0] * (sum(caps) - l * (l + 1) // 2 + 1)
        for b in range(l, caps[-1] + 1):
            for d, c in enumerate(count(tuple(min(a, b - 1) for a in caps[:-1]))):
                total[b - l + d] += c
        return tuple(total)

    return count(tuple(alpha))


def poly_eval(coeffs, x):
    acc = 0
    for c in reversed(tuple(coeffs)):
        acc = acc * x + c
    return acc


# -- GF(p^e) as polynomials modulo the canonical irreducible -----------------


def _poly_divides(small, big, p):
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


def smallest_irreducible(p, e):
    """Canonical modulus by naive factor search: the smallest monic
    irreducible of degree e, comparing coefficients constant term first."""

    def has_root(poly):
        for x in range(p):
            acc = 0
            for c in reversed(poly):
                acc = (acc * x + c) % p
            if acc == 0:
                return True
        return False

    def irreducible(poly):
        deg = len(poly) - 1
        if deg == 1:
            return True
        if has_root(poly):
            return False
        for d in range(2, deg // 2 + 1):
            for tail in itertools.product(range(p), repeat=d):
                if _poly_divides(list(tail) + [1], poly, p):
                    return False
        return True

    if e == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=e):
        poly = list(tail) + [1]
        if irreducible(poly):
            return tuple(poly)
    raise AssertionError("unreachable")


class PolyField:
    """GF(p^e) as polynomials over GF(p) modulo the canonical irreducible.

    A code is read as its base-p digits, constant term first, the way the
    package stores elements, so answers compare code for code.  Products
    are schoolbook polynomial products reduced by long division.
    """

    def __init__(self, p, e):
        self.p, self.e, self.q = p, e, p**e
        self.modulus = smallest_irreducible(p, e)
        self._digits = []
        for a in range(self.q):
            out = []
            for _ in range(e):
                a, d = divmod(a, p)
                out.append(d)
            self._digits.append(out)

    def digits(self, a):
        return self._digits[a]

    def code(self, digits):
        a = 0
        for d in reversed(digits):
            a = a * self.p + d % self.p
        return a

    def add(self, a, b):
        return self.code([x + y for x, y in zip(self.digits(a), self.digits(b))])

    def neg(self, a):
        return self.code([-x for x in self.digits(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        p, e = self.p, self.e
        da, db = self.digits(a), self.digits(b)
        prod = [0] * (2 * e - 1)
        for i, x in enumerate(da):
            for j, y in enumerate(db):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * e - 2, e - 1, -1):
            lead = prod[top]
            if lead:
                for i, c in enumerate(self.modulus):
                    prod[top - e + i] = (prod[top - e + i] - lead * c) % p
        return self.code(prod[:e])

    def power(self, a, n):
        acc = 1
        while n:
            if n & 1:
                acc = self.mul(acc, a)
            a = self.mul(a, a)
            n >>= 1
        return acc

    def frobenius(self, a, k):
        return self.power(a, self.p**k)


@functools.lru_cache(maxsize=None)
def cached_field(p, e):
    """PolyField for GF(p^e), its operations memoized for speed."""
    ref = PolyField(p, e)
    for name in ("add", "mul", "frobenius"):
        setattr(ref, name, functools.lru_cache(maxsize=None)(getattr(ref, name)))
    return ref


# -- adapted bases by the vector scan -----------------------------------------


def adapted_basis_scan(members, field, m):
    """The adapted basis of a flag by scanning vectors, as a list of tuples.

    members are the rows of each flag member, smallest member first.  The
    vectors of a member are walked in canonical coefficient order (the
    coefficient of its row 0 is the most significant base-q digit), and a
    vector is kept when it leaves the span of the vectors kept so far,
    until the kept ones span the member.  The standard basis vectors then
    complete the basis the same way.  This costs up to q^dim vectors per
    member; it is the reference the package's construction must match.
    """
    q, add, mul = _arithmetic(field)
    kept = []
    span = {(0,) * m}
    for rows in members:
        d = len(rows)
        for t in range(1, q**d):
            if len(span) >= q**d:
                break
            coeffs = []
            for _ in range(d):
                t, c = divmod(t, q)
                coeffs.append(c)
            v = (0,) * m
            for c, row in zip(reversed(coeffs), rows):
                v = tuple(add(x, mul(c, y)) for x, y in zip(v, row))
            if v not in span:
                kept.append(v)
                span = span_set(kept, field, m)
    for i in range(m):
        e_i = tuple(int(i == j) for j in range(m))
        if e_i not in span:
            kept.append(e_i)
            span = span_set(kept, field, m)
    return kept


# -- the paper's result as a closed form ---------------------------------------


def reflected_complement(alpha, m):
    """{m + 1 - j : j in 1..m, j not in alpha}, sorted."""
    return tuple(sorted(m + 1 - j for j in range(1, m + 1) if j not in alpha))


def automorphism_count(q, e, m, alpha, frobenius=False, dual=False):
    """How many semilinear maps the paper says preserve a Schubert variety.

    Aut is the stabilizer of the flag members at the non-redundant
    dimensions (an entry a with a + 1 not in alpha), where a member equal
    to the whole space constrains nothing.  GL(m, q) is transitive on
    partial flags of one type, so the stabilizer's order is |GL(m, q)|
    over the number of such flags, a product of Gaussian binomials.  Each
    of the e Frobenius powers adds one coset of that size; contravariant
    maps add one more coset when alpha is its own reflected complement,
    and none otherwise.
    """
    gl = 1
    for i in range(m):
        gl *= q**m - q**i
    flags, below = 1, 0
    for a in alpha:
        if a + 1 not in alpha and a < m:
            flags *= poly_eval(q_binomial_poly(m - below, a - below), q)
            below = a
    count = gl // flags
    if frobenius:
        count *= e
    if dual and reflected_complement(alpha, m) == tuple(alpha):
        count *= 2
    return count
