#!/usr/bin/env python3
"""Euclidean remainder without storing the quotient.

Dividing A = 1 + 2X + X^3 by B = 1 + X^2 over F7: the quotient is X and
the remainder 1 + X.  Three ways to get the remainder, in decreasing
order of extra space:

  remainder_blockwise  -- A, B read-only, one deg(B)-sized scratch;
  remainder_in_place   -- no scratch at all, A and B read-only (B restored
                          by any strategy that borrows it);
  divmod_over_place    -- A itself becomes [remainder | quotient], and
                          the transformation is exactly reversible.
"""

from ffpoly import (
    Buffer,
    Field,
    divmod_over_place,
    divmod_over_place_inv,
    poly_region,
    remainder_acc,
    remainder_blockwise,
    remainder_in_place,
    snapshot,
)
from ffpoly.reference import ref_divmod

F7 = Field(7)
A = [1, 2, 0, 1]
B = [1, 0, 1]
print("oracle divmod:", ref_divmod(A, B, 7))

a = poly_region(F7, A)
b = poly_region(F7, B)
r = Buffer.zeros(F7, 2).region()
scratch = Buffer.zeros(F7, 2).region()
remainder_blockwise(r, a, b, scratch)
print("blockwise remainder:", r.to_list())

r = Buffer.zeros(F7, 2).region()
guard = snapshot(b)
remainder_in_place(r, a, b)
guard.assert_restored()
print("in-place remainder: ", r.to_list(), " (B restored)")

# Over-place: A's buffer morphs into remainder and quotient...
divmod_over_place(a, b)
print("over-place layout:  ", a.to_list(), " = [R | Q]")
# ...and morphs back.
divmod_over_place_inv(a, b)
print("recovered dividend: ", a.to_list())

# Accumulating variant: R += A mod B with A and B both restored.
r = poly_region(F7, [1, 0])
guard = snapshot(a, b)
remainder_acc(r, a, b)
guard.assert_restored()
print("accumulated:        ", r.to_list(), " (= [1,0] + [1,1])")

# A larger instance, deg A = 40, deg B = 7, same story.
import random

rng = random.Random(13)
F13 = Field(13)
A = [rng.randrange(13) for _ in range(41)]
B = [rng.randrange(13) for _ in range(7)] + [rng.randrange(1, 13)]
a, b = poly_region(F13, A), poly_region(F13, B)
r = Buffer.zeros(F13, 7).region()
guard = snapshot(a, b)
remainder_in_place(r, a, b)
guard.assert_restored()
print("deg 40 mod deg 7:   ", r.to_list())
print("oracle:             ", ref_divmod(A, B, 13)[1])
