#!/usr/bin/env python3
"""Accumulating convolutions c += a*b mod (X^n - f), walked through by hand.

The point of the exercise: c picks up the wrapped product while a and b
are only borrowed -- they are bit-identical afterwards -- and no scratch
buffer of field elements is ever allocated.
"""

from ffpoly import Field, Schoolbook, conv_acc, measure, poly_region, snapshot
from ffpoly.reference import ref_convolution

F5 = Field(5)

# (1 + 2X)(3 + X) = 3 + 2X + 2X^2 over F5; with X^2 = 2 the top
# coefficient wraps to the constant term scaled by 2.
a = poly_region(F5, [1, 2])
b = poly_region(F5, [3, 1])
c = poly_region(F5, [0, 0])
conv_acc(c, a, b, f=2)
print("f=2 wrap:        ", c.to_list(), "  oracle:", ref_convolution([1, 2], [3, 1], 2, 2, 5))

# Same product accumulated mod (X^2 - 1) on top of c = 1 + X.
c = poly_region(F5, [1, 1])
conv_acc(c, a, b, f=1)
print("f=1 accumulate:  ", c.to_list())

# f=0 is the truncated product: only coefficients below X^2 survive.
c = poly_region(F5, [0, 0])
conv_acc(c, a, b, f=0)
print("short product:   ", c.to_list())

# The operands really are restored, even though the algorithm scribbles
# on them mid-flight.  Force the recursive path with a tiny threshold so
# the scribbling actually happens.
a = poly_region(F5, [1, 2, 3, 4, 0, 1, 2, 3])
b = poly_region(F5, [4, 4, 1, 0, 2, 2, 3, 1])
c = poly_region(F5, [0] * 8)
guard = snapshot(a, b)
conv_acc(c, a, b, f=3, strategy=Schoolbook(threshold=2))
guard.assert_restored()
print("n=8 f=3 restored:", a.to_list(), b.to_list())
print("          result:", c.to_list())

# GF(2) takes the same path as every field: f=0 is one truncated product,
# a single strategy call whatever the threshold.
F2 = Field(2)
a = poly_region(F2, [1, 1, 1, 0, 1, 1, 0, 1, 1])
b = poly_region(F2, [1, 0, 1, 1, 1, 0, 0, 1, 0])
c = poly_region(F2, [0] * 9)
conv_acc(c, a, b, f=0, strategy=Schoolbook(threshold=2))
print("GF(2) short:     ", c.to_list())
print("          oracle:", ref_convolution(a.to_list(), b.to_list(), 0, 9, 2))

# Everything above allocated zero auxiliary field elements.
a = poly_region(F5, [1, 2, 3, 4] * 16)
b = poly_region(F5, [2, 0, 1, 3] * 16)
c = poly_region(F5, [0] * 64)
with measure(F5, max_aux=0) as scope:
    conv_acc(c, a, b, f=2)
print(f"n=64 cost: {scope.muls} muls, {scope.adds} adds, {scope.divs} divs, "
      f"peak aux = {scope.peak_aux}, depth = {scope.peak_depth}")
