"""Operands survive a strategy that raises part way through a call.

A `Schoolbook` subclass raises on its k-th product call, before that call
writes anything.  For every k the injected exception must propagate
unchanged and the operands a and b must come back bit for bit; the
accumulator c is unspecified after a raise.
"""

import random

import pytest

from ffpoly import Schoolbook, conv_acc, snapshot

from conftest import rand_coeffs, region_of


class _Fault(Exception):
    """Raised by `_FaultySchoolbook` and by nothing else."""


class _FaultySchoolbook(Schoolbook):
    """Raises `make()` on product call number k (from 0); k = None only counts."""

    def __init__(self, threshold, k=None, make=_Fault):
        super().__init__(threshold)
        self.k, self.make, self.calls, self.raised = k, make, 0, None

    def _tick(self):
        if self.calls == self.k:
            self.raised = self.make()
            raise self.raised
        self.calls += 1

    def acc_mul_full(self, c, a, b, negate=False):
        self._tick()
        super().acc_mul_full(c, a, b, negate)

    def acc_mul_short(self, c, a, b, n, negate=False):
        self._tick()
        super().acc_mul_short(c, a, b, n, negate)

    def acc_mul_middle(self, c, x, y, negate=False):
        self._tick()
        super().acc_mul_middle(c, x, y, negate)


def _conv_cases():
    # the two-truncated-product route: f in {1, 3} at odd n above the
    # threshold, and every f at or below it, at both parities
    for n in (3, 5, 17, 33):
        for f in (1, 3):
            for thr in (1, 2, 16):
                yield 65521, n, f, thr
    for n in range(1, 9):
        for f in range(7):
            yield 7, n, f, 8


@pytest.mark.parametrize("make", [_Fault, KeyboardInterrupt], ids=["fault", "interrupt"])
def test_conv_acc_restores_its_operands_at_every_fault(make):
    rng = random.Random(0xFA)
    for p, n, f, thr in _conv_cases():
        def run(strategy):
            a, b, c = (region_of(p, rand_coeffs(rng, p, n)) for _ in range(3))
            snap = snapshot(a, b)
            try:
                conv_acc(c, a, b, f, negate=rng.random() < 0.5, strategy=strategy)
            finally:
                snap.assert_restored()

        counting = _FaultySchoolbook(thr)
        run(counting)
        assert counting.calls >= 1, (p, n, f, thr)
        for k in range(counting.calls):
            faulty = _FaultySchoolbook(thr, k, make)
            with pytest.raises(make) as raised:
                run(faulty)
            assert raised.value is faulty.raised, (p, n, f, thr, k)
