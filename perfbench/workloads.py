"""Workload shapes and seeded input generation for the wall-clock benchmark.

Shapes: (N, M) = (deg a, deg b) for `rem` and `quorem`; (deg a, deg c,
deg b) for `mulmod`; the length n for the convolutions.  `conv_fo` runs
at n - 1 so that the odd-length route is taken.  `conv_gf2` runs over
GF(2), on the dedicated truncated-product schedule.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

P16 = 65521
P61 = (1 << 61) - 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    p: int
    rem: tuple        # (N, M)
    quorem: tuple     # (N, M)
    mulmod: tuple     # (deg a, deg c, deg b)
    conv: int         # n for conv_f0 / conv_f1 / conv_fe; n - 1 for conv_fo
    gf2: int          # n for conv_gf2


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "wide",
            "large operands: Toeplitz and conv recursion reach the mulbase kernel "
            "with big blocks, so a faster multiplication shows here",
            P16, rem=(16383, 512), quorem=(4095, 512), mulmod=(383, 1023, 511),
            conv=1024, gf2=1024),
        Workload(
            "narrow",
            "M = 16 is the Schoolbook threshold: every Toeplitz product is a base "
            "case and kernels see 16 or fewer coefficients, so per-call overhead shows",
            P16, rem=(16383, 16), quorem=(16383, 16), mulmod=(16, 1023, 16),
            conv=64, gf2=64),
        Workload(
            "wide-p61",
            "the shapes of wide (rem at N = 8191) at p = 2^61 - 1: residues exceed "
            "2^31 and products are 122-bit, so a word-sized kernel path must fall back",
            P61, rem=(8191, 512), quorem=(4095, 512), mulmod=(383, 1023, 511),
            conv=1024, gf2=1024),
    )
}

# Shapes small enough for the smoke test to run every workload in a second.
TINY = {
    name: Workload(name, w.why, w.p, rem=(40, 8), quorem=(37, 8), mulmod=(6, 30, 8),
                   conv=20, gf2=20)
    for name, w in WORKLOADS.items()
}


@dataclass(frozen=True)
class Inputs:
    """Coefficient lists (low degree first) for one round, from one seed."""

    rem_a: list
    rem_b: list
    quorem_a: list
    quorem_b: list
    mulmod_r: list
    mulmod_a: list
    mulmod_c: list
    mulmod_b: list
    conv: dict        # op name -> (c, a, b, f)


def generate(w: Workload, seed: int) -> Inputs:
    """Same seed, same inputs.  Leading coefficients of divisors and of the
    mulmod operands are nonzero, so every degree is the stated one."""
    rng = random.Random(f"{w.name}:{seed}")

    def poly(p, deg):
        return [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]

    def vec(p, n):
        return [rng.randrange(p) for _ in range(n)]

    p = w.p
    la, lc, lb = w.mulmod
    conv = {}
    for name, n, f in (("conv_f0", w.conv, 0), ("conv_f1", w.conv, 1),
                       ("conv_fe", w.conv, 2), ("conv_fo", w.conv - 1, 3)):
        conv[name] = (vec(p, n), vec(p, n), vec(p, n), f)
    conv["conv_gf2"] = (vec(2, w.gf2), vec(2, w.gf2), vec(2, w.gf2), 0)
    return Inputs(
        rem_a=poly(p, w.rem[0]), rem_b=poly(p, w.rem[1]),
        quorem_a=poly(p, w.quorem[0]), quorem_b=poly(p, w.quorem[1]),
        mulmod_r=vec(p, lb), mulmod_a=poly(p, la), mulmod_c=poly(p, lc),
        mulmod_b=poly(p, lb),
        conv=conv,
    )
