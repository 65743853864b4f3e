import random

import pytest

from ffpoly import (
    Buffer,
    GuardViolation,
    Schoolbook,
    acc_mul_full,
    conv_acc,
    divmod_over_place,
    measure,
    measure_call,
    mulmod_acc_full,
    poly_region,
    tri_toeplitz_mul_overplace,
)

from conftest import field, rand_coeffs, rand_monic_tail


def test_schoolbook_counts_are_definitional():
    f = field(65521)
    a = poly_region(f, list(range(1, 9)))
    b = poly_region(f, list(range(2, 10)))
    c = Buffer.zeros(f, 15).region()
    with measure(f) as scope:
        acc_mul_full(c, a, b)
    assert scope.muls == 64
    assert scope.adds == 64
    assert scope.divs == 0


def test_counts_are_deterministic():
    import random

    f = field(13)
    rng = random.Random(55)
    coeffs = [rand_coeffs(rng, 13, 64) for _ in range(3)]
    scopes = []
    for _ in range(2):
        a, b, c = (poly_region(f, x) for x in coeffs)
        scopes.append(measure_call(f, conv_acc, c, a, b, 5))
    s0, s1 = scopes
    assert (s0.adds, s0.muls, s0.divs) == (s1.adds, s1.muls, s1.divs)
    assert s0.peak_depth == s1.peak_depth


def test_counts_do_not_depend_on_values():
    # Zero operands cost exactly as much as dense ones.
    f = field(13)
    n = 48
    dense = [rand_coeffs(__import__("random").Random(7), 13, n) for _ in range(3)]
    a, b, c = (poly_region(f, x) for x in dense)
    s_dense = measure_call(f, conv_acc, c, a, b, 2)
    a, b, c = (poly_region(f, [0] * n) for _ in range(3))
    s_zero = measure_call(f, conv_acc, c, a, b, 2)
    assert (s_dense.adds, s_dense.muls) == (s_zero.adds, s_zero.muls)


def test_zero_aux_ceiling_passes_for_conv():
    import random

    f = field(65521)
    rng = random.Random(3)
    a, b, c = (poly_region(f, rand_coeffs(rng, f.p, 64)) for _ in range(3))
    with measure(f, max_aux=0) as scope:
        conv_acc(c, a, b, 3)
    assert scope.peak_aux == 0


def test_alloc_ceiling_trips():
    f = field(7)
    with pytest.raises(GuardViolation):
        with measure(f, max_aux=4):
            Buffer.zeros(f, 5)


def test_depth_ceiling_trips():
    import random

    f = field(65521)
    rng = random.Random(4)
    a, b, c = (poly_region(f, rand_coeffs(rng, f.p, 128)) for _ in range(3))
    with pytest.raises(GuardViolation):
        with measure(f, max_depth=1):
            conv_acc(c, a, b, 1, strategy=Schoolbook(2))


def test_keyword_calls_are_tracked():
    # the scope finds the field through keyword arguments too, so a
    # keyword call has the depth of its positional twin and the depth
    # ceiling stops it
    import random

    f = field(65521)
    rng = random.Random(5)
    a, b, c = (poly_region(f, rand_coeffs(rng, f.p, 64)) for _ in range(3))
    t, y = (poly_region(f, [1] + rand_coeffs(rng, f.p, 7)) for _ in range(2))
    calls = ((lambda: conv_acc(c, a, b, 0), lambda: conv_acc(c=c, a=a, b=b, f=0)),
             (lambda: tri_toeplitz_mul_overplace(t, y, "upper"),
              lambda: tri_toeplitz_mul_overplace(a=t, b=y, orientation="upper")))
    for positional, keyword in calls:
        with measure(f) as pos:
            positional()
        with measure(f) as kw:
            keyword()
        assert kw.peak_depth == pos.peak_depth > 0
        with pytest.raises(GuardViolation):
            with measure(f, max_depth=0):
                keyword()


class _BorrowingSchoolbook(Schoolbook):
    """Schoolbook that acquires one scratch cell in every kernel call."""

    def acc_mul_full(self, c, a, b, negate=False):
        Buffer.zeros(a.field, 1)
        super().acc_mul_full(c, a, b, negate)

    def acc_mul_short(self, c, a, b, n, negate=False):
        Buffer.zeros(a.field, 1)
        super().acc_mul_short(c, a, b, n, negate)

    def acc_mul_middle(self, c, x, y, negate=False):
        Buffer.zeros(x.field, 1)
        super().acc_mul_middle(c, x, y, negate)


def _guard_case(name, p):
    # (operand coefficients, call on their regions) of one guarded call
    rng = random.Random(name)
    if name.startswith("conv"):
        _, f, n = name.split("-")
        return ([rand_coeffs(rng, p, int(n)) for _ in range(3)],
                lambda c, a, b, s: conv_acc(c, a, b, int(f), strategy=s))
    b = rand_monic_tail(rng, p, 32)
    if name == "divmod":
        return ([rand_coeffs(rng, p, 200), b],
                lambda a, b, s: divmod_over_place(a, b, s))
    return ([[0] * 32, rand_monic_tail(rng, p, 150), rand_monic_tail(rng, p, 120), b],
            lambda r, a, c, b, s: mulmod_acc_full(r, a, c, b, s))


GUARD_CASES = [f"conv-{f}-{n}" for f in range(4) for n in (64, 63)] + ["divmod", "mulmod"]


@pytest.mark.parametrize("name", GUARD_CASES)
def test_guard_violation_raises_after_the_call_completes(name):
    # a ceiling exceeded anywhere inside the call fails the scope when it
    # closes, and every region equals the unguarded run: no call is left
    # half done with its operands rescaled or coupled
    f = field(65521)
    coeffs, call = _guard_case(name, f.p)

    def run(strategy, **ceilings):
        regions = [poly_region(f, list(x)) for x in coeffs]
        with measure(f, **ceilings) as scope:
            call(*regions, strategy)
        return [r.to_list() for r in regions], scope

    want, scope = run(Schoolbook(16))
    assert scope.peak_depth >= 2
    ceilings = [(Schoolbook(16), {"max_depth": k}) for k in range(scope.peak_depth)]
    ceilings.append((_BorrowingSchoolbook(16), {"max_aux": 0}))
    for strategy, ceiling in ceilings:
        regions = [poly_region(f, list(x)) for x in coeffs]
        with pytest.raises(GuardViolation):
            with measure(f, **ceiling):
                call(*regions, strategy)
        assert [r.to_list() for r in regions] == want, ceiling


def test_scopes_do_not_nest():
    f = field(7)
    with measure(f):
        with pytest.raises(RuntimeError):
            with measure(f):
                pass


def test_scalar_ops_tick_counters():
    f = field(7)
    with measure(f) as scope:
        f.add(1, 2)
        f.sub(1, 2)
        f.neg(4)
        f.mul(2, 3)
        f.inv(3)
        f.div(1, 2)
    assert scope.adds == 3
    assert scope.muls == 2   # div = inv + mul
    assert scope.divs == 2


def test_counter_and_guard_reports():
    f = field(7)
    with measure(f) as scope:
        f.mul(2, 3)
    counter = scope.counter
    guard = scope.guard
    assert counter.total == 1
    assert guard.peak_aux == 0
    assert "muls=1" in repr(counter)
