"""
Semilinear maps acting on varieties
===================================

A map is a field symmetry followed by an invertible matrix, optionally
followed by the annihilator.  Covariant maps move a variety to one with
the same dimension tuple; annihilator maps reflect the tuple, and can
only preserve a Grassmannian of middle dimension.
"""

import random

from qgrass import (
    SchubertVariety,
    SemilinearMap,
    Subspace,
    dual_index_set,
    image_of_schubert,
    is_automorphism_fast,
    is_automorphism_oracle,
    make_field,
    random_semilinear,
    standard_flag,
)
from qgrass.grassmann import Flag

gf = make_field(2)
m = 4

omega = SchubertVariety.standard(gf, m, (2, 4))
tau = random_semilinear(gf, m, rng=random.Random(1))
image = image_of_schubert(tau, omega)
print("covariant image keeps the tuple:", image.alpha == omega.alpha)
print("and moves exactly the points:",
      {tau(W) for W in omega.point_set()} == image.point_set())

# the annihilator map reflects the tuple through the ambient dimension
sigma = SemilinearMap.perp_map(gf, m)
print("\nannihilator image tuple for (1,3):", dual_index_set((1, 3), m))
print("annihilator image tuple for (2,4):", dual_index_set((2, 4), m))

# a plane equal to its own annihilator makes the reflection fixable
plane = Subspace.from_rows(gf, [[1, 1, 0, 0], [0, 0, 1, 1]])
print("\nself-annihilating plane:", plane.perp() == plane)
flag = Flag(gf, m, (2, 4), (plane, Subspace.full(gf, m)))
target = SchubertVariety(flag)
print("annihilator map preserves its variety:")
print("  criterion:", is_automorphism_fast(sigma, target))
print("  oracle:   ", is_automorphism_oracle(sigma, target))

# the standard flag's plane is NOT self-annihilating, and the map moves
# that variety
std = SchubertVariety.standard(gf, m, (2, 4))
print("\nsame tuple, standard chain instead:")
print("  criterion:", is_automorphism_fast(sigma, std))
print("  oracle:   ", is_automorphism_oracle(sigma, std))

# composition and inversion stay in normal form
rho = random_semilinear(gf, m, rng=random.Random(7), dual=True)
both = rho * sigma
print("\ncomposition of two annihilator maps is covariant:", not both.dual)
round_trip = rho * rho.inverse()
W = Subspace.from_rows(gf, [[1, 0, 1, 0]])
print("inverse really inverts:", round_trip(W) == W)
