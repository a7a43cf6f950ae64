"""
When do two chains cut out the same variety?
============================================

Only the chain members at non-redundant dimensions matter.  Changing a
redundant member leaves the point set fixed; changing a non-redundant
one always moves it, and a separating point can be constructed.
"""

import random

from qgrass import (
    SchubertVariety,
    Subspace,
    equal_fast,
    equal_oracle,
    equality_witness,
    make_field,
    random_flag,
    standard_flag,
)
from qgrass.grassmann import Flag

gf = make_field(2)
m = 4

# dimension tuple (1,2): the condition at dimension 1 is implied by the
# one at dimension 2, so the line member is redundant
base = standard_flag(gf, m, (1, 2))
other_line = Subspace.from_rows(gf, [[0, 1, 0, 0]])
moved = Flag(gf, m, (1, 2), (other_line, base[1]))

o1 = SchubertVariety(base)
o2 = SchubertVariety(moved)
print("chains share only the plane member; varieties equal?")
print("  descriptor test:", equal_fast(o1, o2))
print("  enumeration test:", equal_oracle(o1, o2))
print("  both varieties are the single point:", sorted(W.to_rows() for W in o1.point_set()))

# now move a member that matters
rng = random.Random(5)
f1 = random_flag(gf, m, (1, 4), rng=rng)
f2 = random_flag(gf, m, (1, 4), rng=rng)
p1 = SchubertVariety(f1)
p2 = SchubertVariety(f2)
print("\ntwo independent chains with tuple (1,4):")
print("  equal?", equal_fast(p1, p2))
if not equal_fast(p1, p2):
    W = equality_witness(p1, p2)
    print("  separating point:", W.to_rows())
    print("  in first:", p1.contains(W), " in second:", p2.contains(W))

# the descriptor test checked against enumeration
print("\ndescriptor and enumeration agree:", equal_fast(p1, p2) == equal_oracle(p1, p2))
