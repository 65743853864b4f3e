#!/usr/bin/env python3
"""Structured matrix-vector products without ever storing a matrix.

Circulant and Toeplitz matrices live entirely in their defining vectors;
products and triangular solves run over the vectors in place.
"""

from ffpoly import (
    CirculantView,
    Field,
    ToeplitzView,
    circulant_acc,
    poly_region,
    rect_toeplitz_acc,
    square_toeplitz_acc,
    tri_toeplitz_mul_overplace,
    tri_toeplitz_solve_overplace,
)
from ffpoly.reference import ref_dense_circulant, ref_dense_toeplitz, ref_matvec

F7 = Field(7)

# The 2-circulant of [1, 3] over F7 is [[1, 3], [6, 1]]: the lower-left
# entry is scaled by f=2.
a = poly_region(F7, [1, 3])
print("dense f-circulant:", ref_dense_circulant([1, 3], 2, 7))
c = poly_region(F7, [0, 0])
circulant_acc(c, CirculantView(a, 2), poly_region(F7, [1, 1]))
print("circulant_acc:    ", c.to_list(), " dense matvec:",
      ref_matvec(ref_dense_circulant([1, 3], 2, 7), [1, 1], 7))

# A square Toeplitz from the vector [1, 2, 3] is [[2, 3], [1, 2]]; the
# product splits into a triangular circulant part plus a truncated product
# on reversed views for the strictly lower triangle.
c = poly_region(F7, [0, 0])
square_toeplitz_acc(c, poly_region(F7, [1]), poly_region(F7, [2, 3]),
                    poly_region(F7, [1, 1]))
print("square Toeplitz:  ", c.to_list())

# Rectangular shapes peel square blocks: a 3x2 from [1, 2, 3, 4] is
# [[3, 4], [2, 3], [1, 2]].
F5 = Field(5)
vec = poly_region(F5, [1, 2, 3, 4])
print("dense 3x2:        ", ref_dense_toeplitz([1, 2, 3, 4], 3, 2))
c = poly_region(F5, [0, 0, 0])
rect_toeplitz_acc(c, ToeplitzView(vec, 3, 2), poly_region(F5, [1, 1]))
print("rect_toeplitz_acc:", c.to_list())

# Over-place triangular work: b is replaced by T.b, then solved back.
# "lower" reads the vector as the first column bottom-up ([[2,0],[1,2]]),
# "upper" as the first row ([[1,2],[0,1]]).
t = poly_region(F5, [1, 2])
b = poly_region(F5, [3, 4])
tri_toeplitz_mul_overplace(t, b, "lower")
print("lower tri mul:    ", b.to_list())
tri_toeplitz_solve_overplace(t, b, "lower")
print("solved back:      ", b.to_list())

b = poly_region(F5, [3, 4])
tri_toeplitz_mul_overplace(t, b, "upper")
print("upper tri mul:    ", b.to_list())
tri_toeplitz_solve_overplace(t, b, "upper")
print("solved back:      ", b.to_list())
