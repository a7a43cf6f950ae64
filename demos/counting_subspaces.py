"""
Counting and enumerating subspaces
==================================

The number of l-dimensional subspaces of an m-dimensional space over a
field with q elements is a polynomial in q.  Enumeration walks echelon
cells in a fixed order, so every subspace has a stable integer rank.
"""

from qgrass import (
    enumerate_grassmannian,
    gaussian_binomial,
    make_field,
    rank_subspace,
    unrank_subspace,
)

for q in (2, 3, 4, 5):
    print(f"planes in 4-space over {q} elements:", gaussian_binomial(4, 2, q))

# the count is exact however large the numbers get
print("\n30-dim subspaces of 60-space over 2 elements:")
print(" ", gaussian_binomial(60, 30, 2))

# full enumeration at small size, in canonical order
gf = make_field(2)
points = list(enumerate_grassmannian(gf, 4, 2))
print("\nenumerated", len(points), "planes; the first three:")
for W in points[:3]:
    print(W.to_rows())

# ranks round-trip: position in the enumeration is recoverable
W = points[17]
r = rank_subspace(W)
print("\npoint 17 has rank", r, "and unrank returns it:", unrank_subspace(gf, 4, 2, r) == W)

# the same counts by summing cell sizes: each echelon cell contributes
# a power of q
total = 0
for W in points:
    total += 1
print("walked", total, "of", gaussian_binomial(4, 2, 2))
