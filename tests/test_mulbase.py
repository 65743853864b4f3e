import random

import pytest

from ffpoly import (
    AliasedOperands,
    Buffer,
    LengthMismatch,
    NonInvertibleLeading,
    Schoolbook,
    SingularDiagonal,
    TargetTooShort,
    ToeplitzView,
    acc_mul_full,
    acc_mul_short,
    measure,
    quad_rem,
    quad_rem_overplace,
    quad_tri_mul_overplace,
    quad_tri_solve_overplace,
    rect_toeplitz_acc,
    short_acc,
    snapshot,
    tri_toeplitz_mul_overplace,
    tri_toeplitz_solve_overplace,
)
from ffpoly.reference import ref_divmod, ref_matvec, ref_mul, ref_rem, ref_solve_upper

from conftest import FIELD_PRIMES, field, rand_coeffs, rand_monic_tail, region_of


def test_acc_mul_full_worked_example():
    # oracle first
    assert ref_mul([2, 3], [1, 4], 7) == [2, 4, 5]
    c = region_of(7, [1, 1, 1])
    acc_mul_full(c, region_of(7, [2, 3]), region_of(7, [1, 4]))
    assert c.to_list() == [3, 5, 6]


def test_acc_mul_full_identity_and_zero():
    c = region_of(7, [1, 1, 1])
    acc_mul_full(c.sub(0, 3), region_of(7, [2, 3, 4]), region_of(7, [1]))
    assert c.to_list() == [3, 4, 5]
    acc_mul_full(c, region_of(7, [0, 0]), region_of(7, [5, 5]))
    assert c.to_list() == [3, 4, 5]


def test_acc_mul_full_matches_oracle_bulk():
    rng = random.Random(2024)
    sizes = ([lambda: rng.randrange(0, 11)] * 90
             + [lambda: rng.randrange(0, 49)] * 9
             + [lambda: rng.randrange(0, 257)])
    for p in FIELD_PRIMES:
        f = field(p)
        for i in range(10_000):
            pick = sizes[i % len(sizes)]
            la, lb = pick(), pick()
            a = rand_coeffs(rng, p, la)
            b = rand_coeffs(rng, p, lb)
            need = max(la + lb - 1, 0)
            c = rand_coeffs(rng, p, need)
            ra, rb, rc = region_of(p, a), region_of(p, b), region_of(p, c)
            snap = snapshot(ra, rb)
            acc_mul_full(rc, ra, rb)
            prod = ref_mul(a, b, p)
            want = [(x + y) % p for x, y in zip(c, prod + [0] * need)]
            assert rc.to_list() == want
            snap.assert_restored()


def test_acc_mul_full_negate_onto_longer_target():
    rng = random.Random(77)
    for p in (2, 5, 65521):
        for _ in range(300):
            la, lb = rng.randrange(0, 12), rng.randrange(0, 12)
            extra = rng.randrange(0, la + lb + 1)
            a, b = rand_coeffs(rng, p, la), rand_coeffs(rng, p, lb)
            need = max(la + lb - 1, 0)
            c = rand_coeffs(rng, p, need + extra)
            buf = region_of(p, c)
            neg = rng.random() < 0.5
            acc_mul_full(buf, region_of(p, a), region_of(p, b), negate=neg)
            prod = ref_mul(a, b, p) + [0] * len(c)
            want = [(x - y if neg else x + y) % p for x, y in zip(c, prod)]
            assert buf.to_list() == want


@pytest.mark.parametrize("call", [
    lambda c, a, b: acc_mul_full(c, a, b),
    lambda c, a, b: acc_mul_short(c, a, b, 4),
    lambda c, a, b: short_acc(c, a, b),
], ids=["acc_mul_full", "acc_mul_short", "short_acc"])
def test_product_entry_points_reject_aliased_operands(call):
    # a = [1, 2, 3] and c = [3, 0, 0, 0] share a cell; unchecked, the column
    # sweep reads a[2] after writing it: c = [4, 4, 1, 1], not [4, 4, 0, 6]
    r = region_of(7, [1, 2, 3, 0, 0, 0])
    with pytest.raises(AliasedOperands):
        call(r.sub(2, 6), r.sub(0, 3), region_of(7, [1, 2]))
    assert r.to_list() == [1, 2, 3, 0, 0, 0]


def test_acc_mul_full_zero_aux():
    f = field(65521)
    rng = random.Random(5)
    a = region_of(65521, rand_coeffs(rng, f.p, 64))
    b = region_of(65521, rand_coeffs(rng, f.p, 64))
    c = Buffer.zeros(f, 127).region()
    with measure(f, max_aux=0) as scope:
        acc_mul_full(c, a, b)
    assert scope.peak_aux == 0


def test_acc_mul_full_target_too_short():
    with pytest.raises(TargetTooShort):
        acc_mul_full(region_of(7, [0, 0]), region_of(7, [1, 1]), region_of(7, [1, 1]))


def test_acc_mul_short_examples():
    c = region_of(5, [0, 0])
    acc_mul_short(c, region_of(5, [1, 2]), region_of(5, [3, 1]), 2)
    assert c.to_list() == [3, 2]
    c = region_of(5, [1])
    acc_mul_short(c, region_of(5, [2]), region_of(5, [3]), 1)
    assert c.to_list() == [2]
    c = region_of(5, [4])
    acc_mul_short(c, region_of(5, [2]), region_of(5, [3]), 0)
    assert c.to_list() == [4]


def test_acc_mul_short_rejects_a_negative_length_before_writing():
    # n < 0 used to return having done nothing
    c, a, b = region_of(7, [1, 2]), region_of(7, [3, 4]), region_of(7, [5, 6])
    snap = snapshot(c, a, b)
    with pytest.raises(LengthMismatch):
        acc_mul_short(c, a, b, -1)
    snap.assert_restored()


def test_acc_mul_short_matches_truncated_oracle():
    rng = random.Random(31)
    for p in (2, 7, 65521):
        for _ in range(400):
            la, lb = rng.randrange(0, 14), rng.randrange(0, 14)
            n = rng.randrange(0, 16)
            a, b = rand_coeffs(rng, p, la), rand_coeffs(rng, p, lb)
            c = rand_coeffs(rng, p, n)
            rc = region_of(p, c)
            acc_mul_short(rc, region_of(p, a), region_of(p, b), n)
            prod = ref_mul(a, b, p) + [0] * n
            want = [(x + y) % p for x, y in zip(c, prod)]
            assert rc.to_list() == want


def _region_view(p, coeffs, reverse):
    """A region reading coeffs, through a reversed view when asked."""
    r = region_of(p, coeffs[::-1] if reverse else coeffs)
    return r.reversed() if reverse else r


def test_acc_mul_middle_matches_oracle():
    # c[i] += sum_{j < len y} x[i+j]*y[j], len x = len c + len y - 1, on
    # forward and reversed views: len c * len y adds and muls, x and y
    # restored; the first shapes have an empty c or y
    rng = random.Random(37)
    for p in (2, 65521):
        f = field(p)
        for trial in range(300):
            if trial < 4:
                lc, ly = ((0, 7), (7, 0), (0, 1), (1, 0))[trial]
            else:
                lc = rng.randrange(0, 20)
                ly = rng.randrange(0 if lc else 1, 20)
            x, y, c = (rand_coeffs(rng, p, k) for k in (lc + ly - 1, ly, lc))
            rx, ry, rc = (_region_view(p, v, rng.random() < 0.5) for v in (x, y, c))
            neg = rng.random() < 0.5
            snap = snapshot(rx, ry)
            with measure(f) as scope:
                Schoolbook().acc_mul_middle(rc, rx, ry, neg)
            sign = -1 if neg else 1
            want = [(c[i] + sign * sum(x[i + j] * y[j] for j in range(ly))) % p
                    for i in range(lc)]
            assert rc.to_list() == want, (p, lc, ly, neg)
            assert (scope.adds, scope.muls, scope.divs) == (lc * ly, lc * ly, 0)
            snap.assert_restored()


def test_acc_mul_middle_rejects_a_wrong_x_before_writing():
    # len x must be len c + len y - 1: too short and too long both raise,
    # with c, x and y untouched
    p = 65521
    for lc, lx in ((4, 5), (2, 9), (0, 3), (4, 0)):
        c, x, y = region_of(p, [0] * lc), region_of(p, [1] * lx), region_of(p, [1] * 3)
        snap = snapshot(c, x, y)
        with pytest.raises(LengthMismatch):
            Schoolbook().acc_mul_middle(c, x, y)
        snap.assert_restored()
    assert issubclass(LengthMismatch, ValueError)


class _CountingSchoolbook(Schoolbook):
    """Schoolbook recording (len c, len y, negate) of each middle product."""

    def __init__(self, threshold):
        super().__init__(threshold)
        self.middle = []

    def acc_mul_middle(self, c, x, y, negate=False):
        self.middle.append((len(c), len(y), negate))
        super().acc_mul_middle(c, x, y, negate)


def _off_diagonal_blocks(m, threshold, solve):
    """Off-diagonal blocks of the triangular halving recursion, in call order."""
    if m <= threshold:
        return []
    k = (m + 1) // 2
    first, second = (m - k, k) if solve else (k, m - k)
    return (_off_diagonal_blocks(first, threshold, solve) + [(k, m - k, solve)]
            + _off_diagonal_blocks(second, threshold, solve))


@pytest.mark.parametrize("threshold", [1, 2, 4, 16])
def test_toeplitz_blocks_are_one_strategy_middle_product_each(threshold):
    # the strategy argument is honoured: every rectangular product and every
    # off-diagonal block of the triangular recursion is exactly one call
    rng = random.Random(threshold)
    p = 65521
    for m, n in ((1, 40), (17, 17), (100, 33), (33, 100)):
        vec, b, c = (region_of(p, rand_coeffs(rng, p, k)) for k in (m + n - 1, n, m))
        strategy = _CountingSchoolbook(threshold)
        rect_toeplitz_acc(c, ToeplitzView(vec, m, n), b, True, strategy)
        assert strategy.middle == [(m, n, True)]
    for m in (5, 40, 77):
        for orientation in ("lower", "upper"):
            a = [1] + rand_coeffs(rng, p, m - 1)
            b0 = rand_coeffs(rng, p, m)
            ra = region_of(p, a if orientation == "upper" else a[::-1])
            rb = region_of(p, b0)
            for solve, fn in ((False, tri_toeplitz_mul_overplace),
                              (True, tri_toeplitz_solve_overplace)):
                strategy = _CountingSchoolbook(threshold)
                fn(ra, rb, orientation, strategy)
                assert strategy.middle == _off_diagonal_blocks(m, threshold, solve)
            assert rb.to_list() == b0, (m, orientation)


def test_quad_tri_worked_examples():
    u = [[1, 2], [0, 1]]
    assert ref_matvec(u, [3, 4], 5) == [1, 4]
    v = region_of(5, [3, 4])
    quad_tri_mul_overplace(u, v)
    assert v.to_list() == [1, 4]

    assert ref_solve_upper(u, [3, 4], 5) == [0, 4]
    v = region_of(5, [3, 4])
    quad_tri_solve_overplace(u, v)
    assert v.to_list() == [0, 4]
    # and U * [0, 4] = [3, 4]
    assert ref_matvec(u, [0, 4], 5) == [3, 4]

    eye = [[1, 0], [0, 1]]
    v = region_of(5, [2, 3])
    quad_tri_mul_overplace(eye, v)
    assert v.to_list() == [2, 3]
    quad_tri_solve_overplace(eye, v)
    assert v.to_list() == [2, 3]


def test_quad_tri_solve_inverts_mul():
    rng = random.Random(9)
    for p in (5, 13, 65521):
        for _ in range(100):
            m = rng.randrange(1, 12)
            u = [[rng.randrange(p) if j > i else 0 for j in range(m)] for i in range(m)]
            for i in range(m):
                u[i][i] = rng.randrange(1, p)
            v0 = rand_coeffs(rng, p, m)
            v = region_of(p, v0)
            quad_tri_mul_overplace(u, v)
            assert v.to_list() == ref_matvec(u, v0, p)
            quad_tri_solve_overplace(u, v)
            assert v.to_list() == v0


def test_quad_tri_solve_singular():
    with pytest.raises(SingularDiagonal):
        quad_tri_solve_overplace([[0, 1], [0, 1]], region_of(5, [1, 2]))


def test_quad_rem_worked_examples():
    # oracle first: hand long division gives q = X, r = 1 + X
    assert ref_divmod([1, 2, 0, 1], [1, 0, 1], 7) == ([0, 1], [1, 1])
    r = Buffer.zeros(field(7), 2).region()
    quad_rem(r, region_of(7, [1, 2, 0, 1]), region_of(7, [1, 0, 1]))
    assert r.to_list() == [1, 1]

    # deg a < deg b: remainder is a itself (padded)
    r = Buffer.zeros(field(7), 2).region()
    quad_rem(r, region_of(7, [4]), region_of(7, [1, 0, 1]))
    assert r.to_list() == [4, 0]

    # b = X^M: remainder is the low window of a
    r = Buffer.zeros(field(7), 2).region()
    quad_rem(r, region_of(7, [3, 5, 2, 6]), region_of(7, [0, 0, 1]))
    assert r.to_list() == [3, 5]


def test_quad_rem_matches_oracle():
    rng = random.Random(12)
    for p in FIELD_PRIMES:
        for _ in range(200):
            m = rng.randrange(0, 9)
            n = rng.randrange(0, 25)
            a = rand_coeffs(rng, p, n + 1)
            b = rand_monic_tail(rng, p, m)
            ra, rb = region_of(p, a), region_of(p, b)
            r = Buffer.zeros(field(p), m).region()
            quad_rem(r, ra, rb)
            assert r.to_list() == ref_rem(a, b, p)
            assert ra.to_list() == a and rb.to_list() == b
            # reconstruction through the oracle quotient
            q, _ = ref_divmod(a, b, p)
            recon = ref_mul(b, q, p)
            recon = [(x + y) % p for x, y in
                     zip(recon + [0] * (n + 1), r.to_list() + [0] * (n + 1))][:n + 1]
            if n >= m:
                assert recon == a


@pytest.mark.parametrize("mm,nn", [(4, 4), (4, 6), (5, 17), (8, 9), (3, 11)])
def test_quad_rem_computes_only_real_digits(monkeypatch, mm, nn):
    # N+1 not a multiple of M (except (3, 11)): the top block is short, and
    # only its real digits may be computed.  Each of the N-M+1 quotient
    # digits costs M-1 products inside the dot products, plus the two
    # scalings the structural count of M+1 muls per digit includes.
    import ffpoly.mulbase as mulbase
    dot_terms = []
    real_mac = mulbase._mac

    def counting_mac(*args):
        dot_terms.append(args[-1])
        real_mac(*args)

    monkeypatch.setattr(mulbase, "_mac", counting_mac)
    rng = random.Random(mm * 100 + nn)
    p = 65521
    a, b = rand_coeffs(rng, p, nn + 1), rand_monic_tail(rng, p, mm)
    r = Buffer.zeros(field(p), mm).region()
    with measure(field(p)) as m:
        quad_rem(r, region_of(p, a), region_of(p, b))
    assert r.to_list() == ref_rem(a, b, p)
    digits = nn - mm + 1
    assert m.muls == digits * (mm + 1) and m.adds == digits * mm
    assert sum(dot_terms) == digits * (mm - 1)


def test_quad_rem_overplace_layout():
    rng = random.Random(13)
    for p in (5, 7, 65521):
        for _ in range(200):
            m = rng.randrange(1, 8)
            n = rng.randrange(m, 20)
            a = rand_coeffs(rng, p, n + 1)
            b = rand_monic_tail(rng, p, m)
            ra = region_of(p, a)
            quad_rem_overplace(ra, region_of(p, b))
            q, r = ref_divmod(a, b, p)
            assert ra.to_list() == ref_rem(a, b, p) + q


def test_quad_rem_rejects_zero_leading():
    with pytest.raises(NonInvertibleLeading):
        quad_rem(Buffer.zeros(field(5), 1).region(), region_of(5, [1, 1]),
                 region_of(5, [1, 0]))
    with pytest.raises(NonInvertibleLeading):
        quad_rem_overplace(region_of(5, [1, 1]), region_of(5, []))


def test_threshold_validation():
    with pytest.raises(ValueError):
        Schoolbook(0)
    assert Schoolbook(1).threshold == 1
