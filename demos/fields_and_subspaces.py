"""
Finite fields and row-reduced subspaces
=======================================

Elements of a field with q = p^e elements are integer codes 0..q-1;
the base-p digits of a code are the coefficients of a polynomial in a
fixed generator.  A subspace is stored as its reduced row echelon
basis, a tuple of rows of Python ints, so two equal subspaces hold
equal tuples.  Vectors and matrices everywhere are plain Python ints in
lists and tuples; the package needs nothing beyond the standard library.
"""

from qgrass import Subspace, make_field

# the 9-element field: codes are pairs of base-3 digits
gf = make_field(3, 2)
print("field:", gf, "with", gf.q, "elements")

a, b = 5, 7
print(f"{a} + {b} =", gf.add(a, b))
print(f"{a} * {b} =", gf.mul(a, b))
print(f"{a}^-1   =", gf.inv(a), " check:", gf.mul(a, gf.inv(a)))

# arithmetic works entry by entry on rows of codes
v = [1, 2, 3, 4]
w = [8, 7, 6, 5]
print("v + w  =", gf.add(v, w))
print("v . w  =", gf.dot(v, w))

# the Frobenius power map x -> x^3 generates the field symmetries
x = 5
print("frobenius(5) =", gf.frobenius(x), " applied twice:", gf.frobenius(gf.frobenius(x)))

# subspaces canonicalize on construction: any spanning set gives the
# same stored basis
# (in GF(9), 2 * 2 = 1, so the second row is twice the first)
rows = [[1, 2, 0, 1], [2, 1, 0, 2], [0, 0, 1, 1]]
S = Subspace.from_rows(gf, rows)
print("\nspan of three rows (one dependent):")
print(S.basis, " dim =", S.dim, " pivots =", S.pivots)
print("same basis from the rows in another order:",
      Subspace.from_rows(gf, rows[::-1]).basis == S.basis)

T = Subspace.from_rows(gf, [[1, 1, 1, 2], [0, 0, 1, 1]])
print("\nsecond plane:")
print(T.basis)

meet = S & T
join = S + T
print("\nintersection dim =", meet.dim, " sum dim =", join.dim)
print("dimension formula holds:", S.dim + T.dim == meet.dim + join.dim)

# the annihilator under the standard dot form
print("\nannihilator of S:")
print(S.perp().basis)
print("double annihilator returns S:", S.perp().perp() == S)
