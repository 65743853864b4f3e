#!/usr/bin/env python3
"""Accumulated modular multiplication r += a*c mod b, fully in place.

The headline application: multiply-accumulate in an extension field
F_p[X]/(b) without a single temporary polynomial.  All three operands
come back bit-identical.
"""

import random

from ffpoly import Buffer, Field, mulmod_acc, mulmod_acc_full, poly_region, snapshot
from ffpoly.reference import ref_mulmod

F7 = Field(7)

# (2 + X)(1 + 2X + 3X^2) mod (1 + X^2) over F7.
r = Buffer.zeros(F7, 2).region()
a = poly_region(F7, [2, 1])
c = poly_region(F7, [1, 2, 3])
b = poly_region(F7, [1, 0, 1])
guard = snapshot(a, c, b)
mulmod_acc(r, a, c, b)
guard.assert_restored()
print("constrained-degree:", r.to_list(),
      " oracle:", ref_mulmod([2, 1], [1, 2, 3], [1, 0, 1], 7))

# Arbitrary degrees: (1 + X^3) * X^3 mod (1 + X^2) over F5; here both
# operands are longer than b, so each is reduced mod b over-place first,
# the two remainders are multiplied, and both operands are rebuilt.
F5 = Field(5)
r = Buffer.zeros(F5, 2).region()
a = poly_region(F5, [1, 0, 0, 1])
c = poly_region(F5, [0, 0, 0, 1])
b = poly_region(F5, [1, 0, 1])
guard = snapshot(a, c, b)
mulmod_acc_full(r, a, c, b)
guard.assert_restored()
print("any-degree:        ", r.to_list(),
      " oracle:", ref_mulmod([1, 0, 0, 1], [0, 0, 0, 1], [1, 0, 1], 5))

# Extension-field arithmetic: b irreducible quadratic over F7, elements
# are degree <= 1 polynomials; accumulate a running product of ten of
# them into r.
rng = random.Random(7)
b = poly_region(F7, [1, 1, 1])        # X^2 + X + 1, irreducible over F7
r = Buffer.zeros(F7, 2).region()
expect = [0, 0]
for _ in range(10):
    x = [rng.randrange(7), rng.randrange(1, 7)]
    y = [rng.randrange(7), rng.randrange(1, 7)]
    mulmod_acc_full(r, poly_region(F7, x), poly_region(F7, y), b)
    prod = ref_mulmod(x, y, [1, 1, 1], 7)
    expect = [(u + v) % 7 for u, v in zip(expect, prod)]
print("field extension MAC:", r.to_list(), " oracle:", expect)
