import random

import pytest

from ffpoly import (
    AliasedOperands,
    BadParameter,
    Buffer,
    CirculantView,
    LengthMismatch,
    Schoolbook,
    SingularDiagonal,
    ToeplitzView,
    banded_upper_mul_overplace,
    banded_upper_solve_overplace,
    circulant_acc,
    measure,
    measure_call,
    poly_region,
    rect_toeplitz_acc,
    snapshot,
    square_toeplitz_acc,
    tri_toeplitz_mul_overplace,
    tri_toeplitz_solve_overplace,
)
from ffpoly.reference import (
    ref_convolution,
    ref_dense_circulant,
    ref_dense_toeplitz,
    ref_matvec,
    ref_solve_lower,
    ref_solve_upper,
)

from conftest import field, rand_coeffs, region_of

THRESHOLDS = (1, 2, 16)


def test_circulant_worked_examples():
    assert ref_dense_circulant([1, 3], 2, 7) == [[1, 3], [6, 1]]
    assert ref_matvec([[1, 3], [6, 1]], [1, 1], 7) == [4, 0]
    c = region_of(7, [0, 0])
    circulant_acc(c, CirculantView(region_of(7, [1, 3]), 2), region_of(7, [1, 1]))
    assert c.to_list() == [4, 0]

    assert ref_dense_circulant([2, 3], 0, 5) == [[2, 3], [0, 2]]
    c = region_of(5, [0, 0])
    circulant_acc(c, CirculantView(region_of(5, [2, 3]), 0), region_of(5, [1, 4]))
    assert c.to_list() == [4, 3]

    # identity: first unit vector, any f
    c = region_of(7, [1, 2, 3])
    circulant_acc(c, CirculantView(region_of(7, [1, 0, 0]), 4), region_of(7, [2, 5, 6]))
    assert c.to_list() == [3, 0, 2]


def test_pinned_correspondence_dense_all_m_all_f():
    # mandatory dense validation: every m <= 32, every f over F5, plus the
    # operational reversal identity against the convolution itself.
    rng = random.Random(314)
    p = 5
    for m in range(1, 33):
        for f in range(5):
            a = rand_coeffs(rng, p, m)
            b = rand_coeffs(rng, p, m)
            c0 = rand_coeffs(rng, p, m)
            dense = ref_dense_circulant(a, f, p)
            # transpose(Circ_f(a)) . b is the convolution coefficient vector
            tr = [[dense[j][i] for j in range(m)] for i in range(m)]
            assert ref_matvec(tr, b, p) == ref_convolution(a, b, f, m, p)
            # Circ_f(a) . b = reverse(conv_f(a, reverse(b)))
            assert ref_matvec(dense, b, p) == \
                ref_convolution(a, b[::-1], f, m, p)[::-1]
            rc = region_of(p, c0)
            ra, rb = region_of(p, a), region_of(p, b)
            circulant_acc(rc, CirculantView(ra, f), rb,
                          strategy=Schoolbook(rng.choice(THRESHOLDS)))
            want = [(x + y) % p for x, y in zip(c0, ref_matvec(dense, b, p))]
            assert rc.to_list() == want, (m, f)
            assert ra.to_list() == a and rb.to_list() == b


def test_square_worked_examples():
    assert ref_dense_toeplitz([1, 2, 3], 2, 2) == [[2, 3], [1, 2]]
    c = region_of(7, [0, 0])
    square_toeplitz_acc(c, region_of(7, [1]), region_of(7, [2, 3]),
                        region_of(7, [1, 1]))
    assert c.to_list() == [5, 3]

    # zero lower part reduces to the 0-circulant of the row vector
    c = region_of(7, [0, 0])
    square_toeplitz_acc(c, region_of(7, [0]), region_of(7, [2, 3]),
                        region_of(7, [1, 1]))
    c2 = region_of(7, [0, 0])
    circulant_acc(c2, CirculantView(region_of(7, [2, 3]), 0), region_of(7, [1, 1]))
    assert c.to_list() == c2.to_list()


def test_square_fuzz_dense():
    rng = random.Random(999)
    for p in (2, 5, 13, 65521):
        for _ in range(150):
            s = rng.randrange(1, 24)
            vec = rand_coeffs(rng, p, 2 * s - 1)
            b = rand_coeffs(rng, p, s)
            c0 = rand_coeffs(rng, p, s)
            rv = region_of(p, vec)
            rb, rc = region_of(p, b), region_of(p, c0)
            snap = snapshot(rv, rb)
            square_toeplitz_acc(rc, rv.sub(0, s - 1), rv.sub(s - 1, 2 * s - 1), rb,
                                strategy=Schoolbook(rng.choice(THRESHOLDS)))
            dense = ref_dense_toeplitz(vec, s, s)
            want = [(x + y) % p for x, y in zip(c0, ref_matvec(dense, b, p))]
            assert rc.to_list() == want
            snap.assert_restored()


def test_rect_worked_examples():
    assert ref_dense_toeplitz([1, 2, 3, 4], 3, 2) == [[3, 4], [2, 3], [1, 2]]
    c = region_of(5, [0, 0, 0])
    rect_toeplitz_acc(c, ToeplitzView(region_of(5, [1, 2, 3, 4]), 3, 2),
                      region_of(5, [1, 1]))
    assert c.to_list() == [2, 0, 3]

    # single row: plain dot product with the defining vector
    c = region_of(7, [1])
    rect_toeplitz_acc(c, ToeplitzView(region_of(7, [2, 3, 4]), 1, 3),
                      region_of(7, [1, 1, 1]))
    assert c.to_list() == [(1 + 2 + 3 + 4) % 7]


def test_rect_fuzz_dense():
    rng = random.Random(1001)
    for p in (2, 7, 65521):
        for _ in range(250):
            m = rng.randrange(1, 22)
            n = rng.randrange(1, 22)
            vec = rand_coeffs(rng, p, m + n - 1)
            b = rand_coeffs(rng, p, n)
            c0 = rand_coeffs(rng, p, m)
            rv, rb, rc = region_of(p, vec), region_of(p, b), region_of(p, c0)
            snap = snapshot(rv, rb)
            neg = rng.random() < 0.3
            rect_toeplitz_acc(rc, ToeplitzView(rv, m, n), rb, negate=neg,
                              strategy=Schoolbook(rng.choice(THRESHOLDS)))
            mv = ref_matvec(ref_dense_toeplitz(vec, m, n), b, p)
            sign = -1 if neg else 1
            want = [(x + sign * y) % p for x, y in zip(c0, mv)]
            assert rc.to_list() == want, (p, m, n)
            snap.assert_restored()


def test_tri_worked_examples():
    assert ref_dense_toeplitz([1, 2, 0], 2, 2) == [[2, 0], [1, 2]]
    b = region_of(5, [3, 4])
    tri_toeplitz_mul_overplace(region_of(5, [1, 2]), b, "lower")
    assert b.to_list() == [1, 1]

    assert ref_dense_toeplitz([0, 1, 2], 2, 2) == [[1, 2], [0, 1]]
    b = region_of(5, [3, 4])
    tri_toeplitz_mul_overplace(region_of(5, [1, 2]), b, "upper")
    assert b.to_list() == [1, 4]

    b = region_of(5, [3, 4])
    tri_toeplitz_solve_overplace(region_of(5, [1, 2]), b, "upper")
    assert b.to_list() == [0, 4]

    # identity matrix in the upper orientation
    b = region_of(5, [3, 4])
    tri_toeplitz_mul_overplace(region_of(5, [1, 0]), b, "upper")
    assert b.to_list() == [3, 4]


def _dense_tri(a, orientation):
    m = len(a)
    if orientation == "lower":
        return ref_dense_toeplitz(a + [0] * (m - 1), m, m)
    return ref_dense_toeplitz([0] * (m - 1) + a, m, m)


def test_tri_fuzz_and_roundtrip():
    rng = random.Random(2002)
    for p in (2, 5, 13, 65521):
        for _ in range(200):
            m = rng.randrange(1, 40)
            orientation = rng.choice(["lower", "upper"])
            a = rand_coeffs(rng, p, m)
            a[0 if orientation == "upper" else m - 1] = rng.randrange(1, p)
            b0 = rand_coeffs(rng, p, m)
            ra, rb = region_of(p, a), region_of(p, b0)
            thr = Schoolbook(rng.choice(THRESHOLDS))
            dense = _dense_tri(a, orientation)
            tri_toeplitz_mul_overplace(ra, rb, orientation, strategy=thr)
            assert rb.to_list() == ref_matvec(dense, b0, p)
            assert ra.to_list() == a
            tri_toeplitz_solve_overplace(ra, rb, orientation, strategy=thr)
            assert rb.to_list() == b0, (p, m, orientation)
            solver = ref_solve_upper if orientation == "upper" else ref_solve_lower
            rb2 = region_of(p, b0)
            tri_toeplitz_solve_overplace(ra, rb2, orientation, strategy=thr)
            assert rb2.to_list() == solver(dense, b0, p)
            assert ra.to_list() == a


def test_solve_then_mul_is_identity():
    rng = random.Random(2003)
    for _ in range(60):
        m = rng.randrange(1, 30)
        orientation = rng.choice(["lower", "upper"])
        a = rand_coeffs(rng, 13, m)
        a[0 if orientation == "upper" else m - 1] = rng.randrange(1, 13)
        b0 = rand_coeffs(rng, 13, m)
        ra, rb = region_of(13, a), region_of(13, b0)
        tri_toeplitz_solve_overplace(ra, rb, orientation)
        tri_toeplitz_mul_overplace(ra, rb, orientation)
        assert rb.to_list() == b0


def test_singular_diagonal():
    with pytest.raises(SingularDiagonal):
        tri_toeplitz_solve_overplace(region_of(5, [0, 1]), region_of(5, [1, 2]),
                                     "upper")
    with pytest.raises(SingularDiagonal):
        tri_toeplitz_solve_overplace(region_of(5, [1, 0]), region_of(5, [1, 2]),
                                     "lower")
    # multiplication does not need an invertible diagonal
    b = region_of(5, [1, 2])
    tri_toeplitz_mul_overplace(region_of(5, [0, 1]), b, "upper")
    assert b.to_list() == ref_matvec([[0, 1], [0, 0]], [1, 2], 5)


def test_banded_fuzz():
    rng = random.Random(2004)
    for p in (2, 5, 65521):
        for _ in range(200):
            m = rng.randrange(1, 50)
            k = rng.randrange(1, m + 4)
            x = [rng.randrange(1, p)] + rand_coeffs(rng, p, k - 1)
            y0 = rand_coeffs(rng, p, m)
            rx, ry = region_of(p, x), region_of(p, y0)
            thr = Schoolbook(rng.choice(THRESHOLDS))
            dense = [[x[j - i] if 0 <= j - i < k else 0 for j in range(m)]
                     for i in range(m)]
            banded_upper_mul_overplace(rx, ry, strategy=thr)
            assert ry.to_list() == ref_matvec(dense, y0, p), (p, m, k)
            assert rx.to_list() == x
            banded_upper_solve_overplace(rx, ry, strategy=thr)
            assert ry.to_list() == y0
            assert rx.to_list() == x


def test_banded_errors():
    with pytest.raises(LengthMismatch):
        banded_upper_mul_overplace(region_of(5, []), region_of(5, [1, 2]))
    with pytest.raises(SingularDiagonal):
        banded_upper_solve_overplace(region_of(5, [0, 1]), region_of(5, [1, 2]))


def test_length_checks():
    with pytest.raises(LengthMismatch):
        circulant_acc(region_of(5, [0, 0]), CirculantView(region_of(5, [1]), 0),
                      region_of(5, [1, 1]))
    with pytest.raises(LengthMismatch):
        ToeplitzView(region_of(5, [1, 2]), 2, 2)
    with pytest.raises(LengthMismatch):
        square_toeplitz_acc(region_of(5, [0, 0]), region_of(5, [1, 1]),
                            region_of(5, [1, 2]), region_of(5, [1, 1]))
    with pytest.raises(LengthMismatch):
        tri_toeplitz_mul_overplace(region_of(5, [1]), region_of(5, [1, 2]), "lower")


def test_circulant_checks_f_before_the_empty_no_op():
    # three empty regions used to return before f was looked at, so a wrap
    # scalar outside [0, p) passed
    def empty():
        return region_of(7, [])
    for f in (8, -1, 2.0):
        with pytest.raises(BadParameter):
            circulant_acc(empty(), CirculantView(empty(), f), empty())
    circulant_acc(empty(), CirculantView(empty(), 6), empty())


def test_quadratic_growth_ratio():
    # doubling m scales the over-place triangular cost by about four
    f = field(65521)
    rng = random.Random(61)
    costs = {}
    for m in (64, 128, 256, 512):
        a = poly_region(f, [1] + rand_coeffs(rng, f.p, m - 1))
        b = poly_region(f, rand_coeffs(rng, f.p, m))
        costs[m] = (measure_call(f, tri_toeplitz_mul_overplace, a, b, "upper").counter.total,
                    measure_call(f, tri_toeplitz_solve_overplace, a, b, "upper").counter.total)
    for m in (64, 128, 256):
        for which in (0, 1):
            ratio = costs[2 * m][which] / costs[m][which]
            assert 2.8 <= ratio <= 5.2, (m, which, ratio)


def test_zero_auxiliary_space():
    f = field(65521)
    rng = random.Random(62)
    m = 96
    vec = poly_region(f, rand_coeffs(rng, f.p, 2 * m - 1))
    b = poly_region(f, rand_coeffs(rng, f.p, m))
    c = Buffer.zeros(f, m).region()
    with measure(f, max_aux=0):
        square_toeplitz_acc(c, vec.sub(0, m - 1), vec.sub(m - 1, 2 * m - 1), b)
    a = poly_region(f, [1] + rand_coeffs(rng, f.p, m - 1))
    with measure(f, max_aux=0):
        tri_toeplitz_mul_overplace(a, b, "upper")
        tri_toeplitz_solve_overplace(a, b, "upper")


@pytest.mark.parametrize("m, n", [(1, 40), (40, 1), (16, 33), (33, 16),
                                  (17, 17), (40, 40), (100, 33), (33, 100)])
@pytest.mark.parametrize("neg", [False, True])
def test_rect_strip_is_one_quadratic_base_case(m, n, neg):
    # every shape, at, below or above the threshold, is one middle product:
    # exactly m*n adds and muls and no tracked sub-call
    f = field(65521)
    rng = random.Random(m * 100 + n)
    vec = rand_coeffs(rng, f.p, m + n - 1)
    b = rand_coeffs(rng, f.p, n)
    c0 = rand_coeffs(rng, f.p, m)
    rv, rb, rc = poly_region(f, vec), poly_region(f, b), poly_region(f, c0)
    scope = measure_call(f, rect_toeplitz_acc, rc, ToeplitzView(rv, m, n), rb,
                         negate=neg, strategy=Schoolbook(16))
    sign = -1 if neg else 1
    mv = ref_matvec(ref_dense_toeplitz(vec, m, n), b, f.p)
    assert rc.to_list() == [(x + sign * y) % f.p for x, y in zip(c0, mv)]
    assert (scope.adds, scope.muls, scope.divs) == (m * n, m * n, 0)
    assert scope.peak_depth == 1
    assert rv.to_list() == vec and rb.to_list() == b


@pytest.mark.parametrize("m", [8, 40])
@pytest.mark.parametrize("orientation", ["lower", "upper"])
def test_triangular_aliasing_rejected_before_any_write(m, orientation):
    rng = random.Random(m)
    x = region_of(65521, [1] + rand_coeffs(rng, 65521, 2 * m - 1))
    snap = snapshot(x)
    for fn in (tri_toeplitz_mul_overplace, tri_toeplitz_solve_overplace):
        with pytest.raises(AliasedOperands):
            fn(x.sub(0, m), x.sub(0, m), orientation)
        with pytest.raises(AliasedOperands):
            fn(x.sub(0, m), x.sub(m - 1, 2 * m - 1).reversed(), orientation)
        snap.assert_restored()


@pytest.mark.parametrize("m", [8, 40])
def test_banded_aliasing_rejected_before_any_write(m):
    rng = random.Random(m)
    y = region_of(65521, [1] + rand_coeffs(rng, 65521, m - 1))
    snap = snapshot(y)
    for fn in (banded_upper_mul_overplace, banded_upper_solve_overplace):
        with pytest.raises(AliasedOperands):
            fn(y.sub(0, 5), y)
        snap.assert_restored()


def test_square_and_rect_aliasing_rejected_before_any_write():
    rng = random.Random(5)
    buf = region_of(65521, rand_coeffs(rng, 65521, 12))
    b = region_of(65521, rand_coeffs(rng, 65521, 4))
    snap = snapshot(buf, b)
    # a1 overlapping c
    with pytest.raises(AliasedOperands):
        square_toeplitz_acc(buf.sub(0, 4), buf.sub(1, 4), buf.sub(4, 8), b)
    snap.assert_restored()
    # c overlapping b in its last row only
    with pytest.raises(AliasedOperands):
        rect_toeplitz_acc(buf.sub(0, 3), ToeplitzView(buf.sub(4, 7), 3, 1), buf.sub(2, 3))
    snap.assert_restored()
    # the defining vector overlapping b
    with pytest.raises(AliasedOperands):
        rect_toeplitz_acc(buf.sub(0, 3), ToeplitzView(buf.sub(4, 9), 3, 3), buf.sub(8, 11))
    snap.assert_restored()
