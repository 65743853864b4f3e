import random

import pytest

from ffpoly import (
    AliasedOperands,
    BadParameter,
    F2_SHORT_SCHEDULE,
    LengthMismatch,
    Schoolbook,
    conv_acc,
    conv_even_1,
    conv_even_f,
    conv_odd_f,
    measure,
    plan_convolution,
    poly_region,
    short_acc,
    short_acc_ragged,
    snapshot,
)
from ffpoly.conv import _apply_bilinear_step
from ffpoly.reference import ref_convolution, ref_mul

from conftest import FIELD_PRIMES, field, rand_coeffs, region_of

THRESHOLDS = (1, 2, 16)


def _conv_case(p, a, b, c, f, thr=16, fn=None, negate=False):
    ra, rb, rc = region_of(p, a), region_of(p, b), region_of(p, c)
    snap = snapshot(ra, rb)
    kwargs = dict(negate=negate, strategy=Schoolbook(thr))
    if fn is None:
        conv_acc(rc, ra, rb, f, **kwargs)
    elif fn is conv_even_1:
        conv_even_1(rc, ra, rb, **kwargs)
    elif fn is short_acc:
        short_acc(rc, ra, rb, **kwargs)
    else:
        fn(rc, ra, rb, f, **kwargs)
    snap.assert_restored()
    sign = -1 if negate else 1
    want = [(x + sign * y) % p
            for x, y in zip(c, ref_convolution(a, b, f, len(c), p))]
    return rc.to_list(), want


def test_worked_examples():
    # oracle values recomputed first, then the implementations
    assert ref_convolution([1, 2], [3, 1], 2, 2, 5) == [2, 2]
    assert ref_convolution([1, 2], [3, 1], 1, 2, 5) == [0, 2]
    assert ref_convolution([1, 0, 1], [0, 1, 0], 2, 3, 5) == [2, 1, 0]
    assert ref_convolution([1, 2], [3, 1], 0, 2, 5) == [3, 2]
    assert ref_convolution([1, 1, 1], [1, 0, 1], 0, 3, 2) == [1, 1, 0]
    for thr in THRESHOLDS:
        got, want = _conv_case(5, [1, 2], [3, 1], [0, 0], 2, thr)
        assert got == want == [2, 2]
        got, want = _conv_case(5, [1, 2], [3, 1], [1, 1], 1, thr)
        assert got == want == [1, 3]
        got, want = _conv_case(5, [1, 0, 1], [0, 1, 0], [0, 0, 0], 2, thr)
        assert got == want == [2, 1, 0]
        got, want = _conv_case(5, [1, 2], [3, 1], [0, 0], 0, thr)
        assert got == want == [3, 2]
        got, want = _conv_case(2, [1, 1, 1], [1, 0, 1], [0, 0, 0], 0, thr)
        assert got == want == [1, 1, 0]


def test_even_f_trace_and_degenerates():
    got, want = _conv_case(5, [1, 2], [3, 1], [0, 0], 2, 1, fn=conv_even_f)
    assert got == want == [2, 2]
    # zero a: the scalar renormalization round-trips and c is unchanged
    got, want = _conv_case(7, [0] * 4, [1, 2, 3, 4], [5, 6, 0, 1], 3, 1,
                           fn=conv_even_f)
    assert got == [5, 6, 0, 1]
    rng = random.Random(8)
    a, b, c = (rand_coeffs(rng, 7, 4) for _ in range(3))
    got, want = _conv_case(7, a, b, c, 3, 1, fn=conv_even_f)
    assert got == want


def test_even_1_examples():
    got, want = _conv_case(5, [1, 2], [3, 1], [1, 1], 1, 1, fn=conv_even_1)
    assert got == want == [1, 3]
    # constant-1 multiplicand: c += a
    got, want = _conv_case(7, [3, 4, 5, 6], [1, 0, 0, 0], [1, 1, 1, 1], 1, 2,
                           fn=conv_even_1)
    assert got == [4, 5, 6, 0]
    rng = random.Random(9)
    a, b, c = (rand_coeffs(rng, 13, 8) for _ in range(3))
    got, want = _conv_case(13, a, b, c, 1, 2, fn=conv_even_1)
    assert got == want


def test_odd_f_examples():
    got, want = _conv_case(5, [1, 0, 1], [0, 1, 0], [0, 0, 0], 2, 1, fn=conv_odd_f)
    assert got == want == [2, 1, 0]
    got, want = _conv_case(7, [3], [4], [1], 5, 1, fn=conv_odd_f)
    assert got == want == [(1 + 12) % 7]
    rng = random.Random(10)
    a, b, c = (rand_coeffs(rng, 7, 5) for _ in range(3))
    got, want = _conv_case(7, a, b, c, 4, 1, fn=conv_odd_f)
    assert got == want


def test_short_examples():
    got, want = _conv_case(5, [1, 2], [3, 1], [0, 0], 0, 1, fn=short_acc)
    assert got == want == [3, 2]
    got, want = _conv_case(2, [1, 1, 1], [1, 0, 1], [0, 0, 0], 0, 1, fn=short_acc)
    assert got == want == [1, 1, 0]
    rng = random.Random(11)
    for n in (6, 7, 8):   # n mod 3 covers 0, 1, 2: both scalar tails
        a, b, c = (rand_coeffs(rng, 2, n) for _ in range(3))
        got, want = _conv_case(2, a, b, c, 0, 2, fn=short_acc)
        assert got == want


def test_dispatcher_routing(monkeypatch):
    # conv_acc and short_acc reach the variants through `conv._convolve`;
    # record which one it runs.
    from ffpoly import conv
    seen = []
    for route, name in (("short", "short_acc"), ("odd", "conv_odd_f"),
                        ("even_one", "conv_even_1"), ("even_general", "conv_even_f")):
        monkeypatch.setattr(conv, name, lambda *args, route=route, **kw: seen.append(route))
    f5 = field(5)
    for n, f, route in ((8, 0, "short"), (7, 2, "odd"), (7, 1, "odd"),
                        (8, 1, "even_one"), (8, 3, "even_general")):
        assert plan_convolution(f5, n, f).route == route
        conv_acc(region_of(5, [0] * n), region_of(5, [1] * n), region_of(5, [2] * n), f)
        assert seen.pop() == route
    # the truncated product is two wrapped ones, mod X^n - 1 and mod X^n - g
    short_acc(region_of(5, [0] * 32), region_of(5, [1] * 32), region_of(5, [2] * 32))
    assert seen == ["even_one", "even_general"]
    plan = plan_convolution(f5, 4, 0)
    assert plan.lam == 2 and plan.g == 2
    assert plan_convolution(field(2), 4, 0).lam is None
    with pytest.raises(BadParameter):
        plan_convolution(f5, 0, 0)
    with pytest.raises(BadParameter):
        plan_convolution(f5, 4, 5)
    with pytest.raises(BadParameter):
        conv_acc(region_of(5, [0] * 4), region_of(5, [1] * 4), region_of(5, [2] * 4), 5)


def test_truncation_scaling_pair_always_usable():
    for p in FIELD_PRIMES:
        if p == 2:
            continue
        plan = plan_convolution(field(p), 4, 0)
        assert plan.lam not in (0, 1)
        assert plan.g not in (0, 1)


def test_domain_errors():
    with pytest.raises(BadParameter):
        conv_even_f(region_of(5, [0, 0]), region_of(5, [1, 1]),
                    region_of(5, [1, 1]), 1, strategy=Schoolbook(1))
    with pytest.raises(BadParameter):
        conv_even_f(region_of(5, [0] * 3), region_of(5, [0] * 3),
                    region_of(5, [0] * 3), 2, strategy=Schoolbook(1))
    with pytest.raises(BadParameter):
        conv_odd_f(region_of(5, [0] * 4), region_of(5, [0] * 4),
                   region_of(5, [0] * 4), 2, strategy=Schoolbook(1))
    with pytest.raises(BadParameter):
        conv_odd_f(region_of(5, [0] * 3), region_of(5, [0] * 3),
                   region_of(5, [0] * 3), 0, strategy=Schoolbook(1))
    with pytest.raises(LengthMismatch):
        conv_acc(region_of(5, [0, 0]), region_of(5, [1]), region_of(5, [1, 1]), 1)
    with pytest.raises(BadParameter):
        conv_acc(region_of(5, []), region_of(5, []), region_of(5, []), 1)


def test_aliased_operands_rejected_before_any_write():
    # squaring through one region used to be accepted: the variants that
    # add or scale blocks of a and of b then touched the same storage twice
    rng = random.Random(0xA1)
    p, n = 65521, 40
    for f in (0, 1, 2, 3):
        a = region_of(p, rand_coeffs(rng, p, n))
        c = region_of(p, rand_coeffs(rng, p, n))
        snap = snapshot(a, c)
        with pytest.raises(AliasedOperands):
            conv_acc(c, a, a, f)
        snap.assert_restored()
    # c overlapping an operand through a reversed view of one buffer
    r = region_of(p, rand_coeffs(rng, p, 2 * n))
    b = region_of(p, rand_coeffs(rng, p, n))
    snap = snapshot(r, b)
    with pytest.raises(AliasedOperands):
        conv_acc(r.sub(0, n), r.sub(n - 1, 2 * n - 1).reversed(), b, 2)
    snap.assert_restored()
    # disjoint windows of one buffer are not aliased
    c0, a0 = r.sub(0, n).to_list(), r.sub(n, 2 * n).to_list()
    conv_acc(r.sub(0, n), r.sub(n, 2 * n), b, 2)
    assert r.sub(0, n).to_list() == [
        (x + y) % p for x, y in zip(c0, ref_convolution(a0, b.to_list(), 2, n, p))]


def test_fuzz_all_routes():
    rng = random.Random(0xC0)
    for p in FIELD_PRIMES:
        for _ in range(350):
            n = rng.randrange(1, 36)
            f = rng.randrange(p)
            thr = rng.choice(THRESHOLDS)
            a, b, c = (rand_coeffs(rng, p, n) for _ in range(3))
            neg = rng.random() < 0.25
            got, want = _conv_case(p, a, b, c, f, thr, negate=neg)
            assert got == want, (p, n, f, thr, neg)


def test_exhaustive_small_sweep_over_f5():
    # every length up to 48, every wrap scalar, forced recursion
    rng = random.Random(0xE5)
    for n in range(1, 49):
        for f in range(5):
            a, b, c = (rand_coeffs(rng, 5, n) for _ in range(3))
            got, want = _conv_case(5, a, b, c, f, thr=2)
            assert got == want, (n, f)


def test_exhaustive_small_sweep_over_gf2():
    # the three-way split runs at every length and both tail shapes
    rng = random.Random(0xE2)
    for n in range(1, 41):
        for f in (0, 1):
            for _ in range(3):
                a, b, c = (rand_coeffs(rng, 2, n) for _ in range(3))
                got, want = _conv_case(2, a, b, c, f, thr=1)
                assert got == want, (n, f)


def test_bilinear_schedule_self_inverse():
    # pre- then post-transform with zero products is the identity on c
    rng = random.Random(40)
    t = 5
    for step in F2_SHORT_SCHEDULE:
        c0 = rand_coeffs(rng, 2, 3 * t)
        a0 = rand_coeffs(rng, 2, 3 * t)
        b0 = rand_coeffs(rng, 2, 3 * t)
        rc, ra, rb = (region_of(2, x) for x in (c0, a0, b0))
        cb = tuple(rc.sub(i * t, (i + 1) * t) for i in range(3))
        ab = tuple(ra.sub(i * t, (i + 1) * t) for i in range(3))
        bb = tuple(rb.sub(i * t, (i + 1) * t) for i in range(3))
        zero = region_of(2, [0] * t)
        _apply_bilinear_step(
            type(step)(step.a_adds, step.a_block, step.b_adds, step.b_block,
                       step.rows, step.couple), cb, ab, bb, False, Schoolbook(16))
        # replace the product by zero: rerun with zeroed operand
        rc2 = region_of(2, c0)
        cb2 = tuple(rc2.sub(i * t, (i + 1) * t) for i in range(3))
        zb = tuple(region_of(2, [0] * t) for _ in range(3))
        _apply_bilinear_step(step, cb2, zb, zb, False, Schoolbook(16))
        assert rc2.to_list() == c0
        assert ra.to_list() == a0 and rb.to_list() == b0


def test_bilinear_step_net_effect():
    # one record adds exactly (rows coupling matrix) . (product halves), or
    # the low half alone when it names a single row
    rng = random.Random(41)
    t = 4
    for step in F2_SHORT_SCHEDULE:
        a0 = rand_coeffs(rng, 2, 3 * t)
        b0 = rand_coeffs(rng, 2, 3 * t)
        c0 = rand_coeffs(rng, 2, 3 * t)
        ra, rb, rc = (region_of(2, x) for x in (a0, b0, c0))
        ab = tuple(ra.sub(i * t, (i + 1) * t) for i in range(3))
        bb = tuple(rb.sub(i * t, (i + 1) * t) for i in range(3))
        cb = tuple(rc.sub(i * t, (i + 1) * t) for i in range(3))
        _apply_bilinear_step(step, cb, ab, bb, False, Schoolbook(16))
        # oracle: build the combined operands, multiply, couple rows
        def combined(blocks, adds, which):
            out = [list(blocks[i * t:(i + 1) * t]) for i in range(3)]
            for d, s in adds:
                out[d] = [(x + y) % 2 for x, y in zip(out[d], out[s])]
            return out[which]
        pa = combined(a0, step.a_adds, step.a_block)
        pb = combined(b0, step.b_adds, step.b_block)
        prod = ref_mul(pa, pb, 2) + [0] * (2 * t)
        rho = [prod[:t], prod[t:2 * t - 1] + [0]]
        i, j = step.rows[0], step.rows[-1]
        want = [list(c0[k * t:(k + 1) * t]) for k in range(3)]
        if len(step.rows) == 1:
            # a single row gains the truncated product pa*pb mod X^t
            want[i] = [(x + r0) % 2 for x, r0 in zip(want[i], rho[0])]
        elif step.couple:
            # (ci; cj) += [[1,0],[1,1]] . (rho0; rho1)
            want[i] = [(x + r0) % 2 for x, r0 in zip(want[i], rho[0])]
            want[j] = [(x + r0 + r1) % 2 for x, r0, r1 in zip(want[j], rho[0], rho[1])]
        else:
            want[i] = [(x + r0) % 2 for x, r0 in zip(want[i], rho[0])]
            want[j] = [(x + r1) % 2 for x, r1 in zip(want[j], rho[1])]
        assert rc.to_list() == [v for blk in want for v in blk]


def test_short_acc_ragged_matches_truncated_product():
    rng = random.Random(0xAB)
    for p in (2, 5, 13, 65521):
        for _ in range(400):
            n = rng.randrange(0, 30)
            la = rng.randrange(0, 34)
            lb = rng.randrange(0, 34)
            a, b = rand_coeffs(rng, p, la), rand_coeffs(rng, p, lb)
            c = rand_coeffs(rng, p, n)
            ra, rb, rc = region_of(p, a), region_of(p, b), region_of(p, c)
            snap = snapshot(ra, rb)
            neg = rng.random() < 0.3
            short_acc_ragged(rc, ra, rb, negate=neg,
                             strategy=Schoolbook(rng.choice(THRESHOLDS)))
            prod = ref_mul(a, b, p) + [0] * n
            sign = -1 if neg else 1
            want = [(x + sign * y) % p for x, y in zip(c, prod)]
            assert rc.to_list() == want, (p, n, la, lb)
            snap.assert_restored()


def test_recurrence_structure_even_one():
    # the even 1-convolution is exactly four half-size accumulations
    f = field(65521)
    rng = random.Random(50)
    for n in (32, 64, 128):
        a, b, c = (poly_region(f, rand_coeffs(rng, f.p, n)) for _ in range(3))
        with measure(f) as sc:
            conv_acc(c, a, b, 1)
        assert sc.counter.total == 4 * (2 * (n // 2) ** 2)
