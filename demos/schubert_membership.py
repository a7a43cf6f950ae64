"""
Schubert varieties and their point counts
=========================================

A variety is cut out by meeting conditions against a nested chain of
subspaces.  Some conditions are implied by their neighbors; dropping
them never changes the point set, and the count of points is a
polynomial in the field size.
"""

from qgrass import (
    SchubertVariety,
    alpha_nc,
    cell_count_polynomial,
    enumerate_grassmannian,
    make_field,
    polynomial_value,
)
from qgrass.linalg import intersection_dim

gf = make_field(2)
omega = SchubertVariety.standard(gf, 4, (2, 4))
print("variety over", gf, "in 4-space with dimension tuple", omega.alpha)

pts = list(omega.points())
print("points:", len(pts))
print("complement count 35 - 2^4 =", 35 - 2**4)

coeffs = cell_count_polynomial((2, 4), 4)
print("count polynomial coefficients (low degree first):", coeffs)
print("value at q=2:", polynomial_value(coeffs, 2))
print("value at q=3:", polynomial_value(coeffs, 3))

# conditions at chain members whose successor dimension is also present
# are implied; the reduced tuple drops them
print("\nreduced condition dimensions for (2,3,4) in 5-space:", alpha_nc((2, 3, 4)))
print("reduced condition dimensions for (2,4):", alpha_nc((2, 4)))

# contains reads only the reduced conditions.  In (2, 3) the member of
# dimension 2 is redundant, yet over all of G(2, 4) contains agrees with
# the full list: each member S_i meets W in dimension at least i + 1
omega23 = SchubertVariety.standard(gf, 4, (2, 3))
grassmannian = list(enumerate_grassmannian(gf, 4, 2))
full = [
    all(intersection_dim(W, S) > i for i, S in enumerate(omega23.flag.subspaces))
    for W in grassmannian
]
reduced = [omega23.contains(W) for W in grassmannian]
print(
    f"reduced vs full agreement on all {len(grassmannian)} points of G(2, 4):",
    full == reduced,
    f"({sum(full)} on the variety {omega23.alpha})",
)

# two different tuples can tie on the COUNT without tying on the SET
a, b = (1, 4), (2, 3)
ca = cell_count_polynomial(a, 4)
cb = cell_count_polynomial(b, 4)
print(f"\ncounts tie: {a} -> {ca}, {b} -> {cb}")
sa = SchubertVariety.standard(gf, 4, a).point_set()
sb = SchubertVariety.standard(gf, 4, b).point_set()
print("but the point sets differ:", sa != sb, f"({len(sa)} vs {len(sb)} points, overlap {len(sa & sb)})")
