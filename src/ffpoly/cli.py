"""Command-line front end: file-based polynomial I/O, verification, benchmarks.

Polynomial file format (bit-exact):
  line 1: the modulus p in decimal;
  line 2: space-separated coefficients, low degree first, canonical
          residues in decimal; an empty line is the zero polynomial;
  trailing newline.  Numbers are plain ASCII digits; a sign, an
  underscore or a third line is a parse error.

Commands: rem, quorem, aper, mulmod, conv, bench, selftest.
Exit codes: 0 ok, 1 violated precondition, 2 parse error.
"""

from __future__ import annotations

import argparse
import random
import sys

from .conv import BadParameter, LengthMismatch, conv_acc
from .euclid import divmod_over_place, divmod_over_place_inv, remainder_acc, remainder_in_place
from .ff import Field, FieldError
from .instrument import measure
from .modmul import DegreeConstraint, mulmod_acc_full
from .mulbase import NonInvertibleLeading, acc_mul_full
from .region import Buffer, poly_region, snapshot
from . import reference


class CliParseError(Exception):
    pass


class CliPreconditionError(Exception):
    pass


def _decimal(tok: str) -> int:
    """tok as an int if it is plain ASCII digits; `int` also takes signs and underscores."""
    if not (tok.isascii() and tok.isdigit()):
        raise ValueError(f"not a decimal number: {tok!r}")
    return int(tok)


def read_poly(path: str) -> tuple[int, list[int]]:
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise CliParseError(f"{path}: {e}") from e
    lines = text.splitlines()
    if not lines:
        raise CliParseError(f"{path}: empty file")
    if len(lines) > 2:
        raise CliParseError(f"{path}: {len(lines)} lines, expected at most 2")
    try:
        p = _decimal(lines[0].strip())
    except ValueError as e:
        raise CliParseError(f"{path}: bad modulus line: {lines[0]!r}") from e
    coeff_line = lines[1].strip() if len(lines) > 1 else ""
    try:
        coeffs = [_decimal(tok) for tok in coeff_line.split()] if coeff_line else []
    except ValueError as e:
        raise CliParseError(f"{path}: bad coefficient line") from e
    for v in coeffs:
        if not 0 <= v < p:
            raise CliParseError(f"{path}: non-canonical coefficient {v} mod {p}")
    return p, coeffs


def format_poly(p: int, coeffs: list[int]) -> str:
    return f"{p}\n{' '.join(str(v) for v in coeffs)}\n"


def write_poly(path: str | None, p: int, coeffs: list[int]) -> None:
    text = format_poly(p, coeffs)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii") as fh:
            fh.write(text)


def _field_for(args, moduli: list[int]) -> Field:
    p = args.mod
    if p is None:
        p = moduli[0]
    for seen in moduli:
        if seen != p:
            raise CliPreconditionError(f"modulus mismatch: {seen} vs {p}")
    try:
        return Field(p)
    except FieldError as e:
        raise CliPreconditionError(str(e)) from e


def cmd_rem(args) -> int:
    pa, a = read_poly(args.a)
    pb, b = read_poly(args.b)
    field = _field_for(args, [pa, pb])
    m = len(b) - 1
    ra = poly_region(field, a)
    rb = poly_region(field, b)
    r = Buffer.zeros(field, max(m, 0)).region()
    remainder_in_place(r, ra, rb)
    write_poly(args.out, field.p, r.to_list())
    return 0


def cmd_quorem(args) -> int:
    pa, a = read_poly(args.a)
    pb, b = read_poly(args.b)
    field = _field_for(args, [pa, pb])
    m = len(b) - 1
    ra = poly_region(field, a)
    rb = poly_region(field, b)
    divmod_over_place(ra, rb)
    buf = ra.to_list()
    if m > len(a) - 1:
        rem, quo = buf + [0] * (m - len(buf)), []
    else:
        rem, quo = buf[:m], buf[m:]
    write_poly(args.out, field.p, rem)
    qpath = args.out_quotient or (args.out + ".q" if args.out else None)
    write_poly(qpath, field.p, quo)
    divmod_over_place_inv(ra, rb)
    return 0


def cmd_aper(args) -> int:
    pr, r0 = read_poly(args.r)
    pa, a = read_poly(args.a)
    pb, b = read_poly(args.b)
    field = _field_for(args, [pr, pa, pb])
    rr = poly_region(field, r0)
    remainder_acc(rr, poly_region(field, a), poly_region(field, b))
    write_poly(args.out, field.p, rr.to_list())
    return 0


def cmd_mulmod(args) -> int:
    pa, a = read_poly(args.a)
    pc, c = read_poly(args.c)
    pb, b = read_poly(args.b)
    moduli = [pa, pc, pb]
    r0 = [0] * (len(b) - 1)
    if args.acc:
        pr, r0 = read_poly(args.acc)
        moduli.append(pr)
    field = _field_for(args, moduli)
    rr = poly_region(field, r0)
    mulmod_acc_full(rr, poly_region(field, a), poly_region(field, c),
                    poly_region(field, b))
    write_poly(args.out, field.p, rr.to_list())
    return 0


def cmd_conv(args) -> int:
    pa, a = read_poly(args.a)
    pb, b = read_poly(args.b)
    pc, c = read_poly(args.c)
    field = _field_for(args, [pa, pb, pc])
    rc = poly_region(field, c)
    conv_acc(rc, poly_region(field, a), poly_region(field, b), args.f)
    write_poly(args.out, field.p, rc.to_list())
    return 0


BENCH_HEADER = "op,p,n,m,l,adds,muls,divs,peak_aux,depth"

BENCH_CONV_SIZES = (64, 128, 256, 512, 1024, 2048)
BENCH_REM_FIXED_M = 16
BENCH_REM_FIXED_SIZES = (128, 256, 512, 1024, 2048)
BENCH_REM_GRID = tuple((n, m) for n in (1024, 2048) for m in (128, 256))
BENCH_MULMOD = ((48, 192, 96), (64, 256, 128))


def _bench_rows(field: Field, sizes, rng) -> list[str]:
    rows = []

    def rand_region(n):
        return poly_region(field, [rng.randrange(field.p) for _ in range(n)])

    def emit(op, n, m, l, scope):
        rows.append(f"{op},{field.p},{n},{m},{l},{scope.adds},{scope.muls},"
                    f"{scope.divs},{scope.peak_aux},{scope.peak_depth}")

    half_sizes = sorted({-(-n // 2) for n in sizes})
    for h in half_sizes:
        a, b = rand_region(h), rand_region(h)
        c = Buffer.zeros(field, 2 * h - 1).region()
        with measure(field) as scope:
            acc_mul_full(c, a, b)
        emit("mul_full", h, 0, 0, scope)
    for n in sizes:
        for f, op in ((0, "conv_f0"), (1, "conv_f1"), (2 % field.p, "conv_f2")):
            a, b, c = rand_region(n), rand_region(n), rand_region(n)
            with measure(field) as scope:
                conv_acc(c, a, b, f)
            emit(op, n, 0, f, scope)
    rem_points = [(n, BENCH_REM_FIXED_M) for n in BENCH_REM_FIXED_SIZES]
    rem_points += list(BENCH_REM_GRID)
    for n_deg, m_deg in rem_points:
        a = rand_region(n_deg + 1)
        b = poly_region(field, [rng.randrange(field.p) for _ in range(m_deg)]
                        + [rng.randrange(1, field.p)])
        r = Buffer.zeros(field, m_deg).region()
        with measure(field) as scope:
            remainder_in_place(r, a, b)
        emit("rem_inplace", n_deg, m_deg, 0, scope)
    for l_deg, n_deg, m_deg in BENCH_MULMOD:
        a = rand_region(l_deg + 1)
        c = rand_region(n_deg + 1)
        b = poly_region(field, [rng.randrange(field.p) for _ in range(m_deg)]
                        + [rng.randrange(1, field.p)])
        r = Buffer.zeros(field, m_deg).region()
        with measure(field) as scope:
            mulmod_acc_full(r, a, c, b)
        emit("mulmod_full", n_deg, m_deg, l_deg, scope)
    return rows


def cmd_bench(args) -> int:
    p = args.mod if args.mod is not None else 65521
    try:
        field = Field(p)
    except FieldError as e:
        raise CliPreconditionError(str(e)) from e
    sizes = BENCH_CONV_SIZES
    if args.sizes:
        try:
            sizes = tuple(int(tok) for tok in args.sizes.split(","))
        except ValueError as e:
            raise CliParseError(f"bad --sizes list: {args.sizes!r}") from e
        if any(n < 1 for n in sizes):
            raise CliPreconditionError("sizes must be positive")
    rng = random.Random(args.seed)
    rows = _bench_rows(field, sizes, rng)
    text = BENCH_HEADER + "\n" + "\n".join(rows) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write(text)
    return 0


def _selftest_examples() -> list[str]:
    """Worked-example table; every expected value recomputed from the oracles."""
    failures = []

    def check(label, got, oracle):
        if got != oracle:
            failures.append(f"{label}: got {got}, oracle says {oracle}")

    f2, f5, f7 = Field(2), Field(5), Field(7)

    def conv_case(field, a, b, c, f):
        rc = poly_region(field, c)
        conv_acc(rc, poly_region(field, a), poly_region(field, b), f)
        want = [(x + y) % field.p
                for x, y in zip(c, reference.ref_convolution(a, b, f, len(c), field.p))]
        return rc.to_list(), want

    check("conv p5 f2", *conv_case(f5, [1, 2], [3, 1], [0, 0], 2))
    check("conv p5 f1", *conv_case(f5, [1, 2], [3, 1], [1, 1], 1))
    check("conv p5 n3 f2", *conv_case(f5, [1, 0, 1], [0, 1, 0], [0, 0, 0], 2))
    check("conv p5 f0", *conv_case(f5, [1, 2], [3, 1], [0, 0], 0))
    check("conv p2 f0", *conv_case(f2, [1, 1, 1], [1, 0, 1], [0, 0, 0], 0))

    r = Buffer.zeros(f7, 2).region()
    remainder_in_place(r, poly_region(f7, [1, 2, 0, 1]), poly_region(f7, [1, 0, 1]))
    check("rem p7", r.to_list(), reference.ref_rem([1, 2, 0, 1], [1, 0, 1], 7))

    a = poly_region(f7, [1, 2, 0, 1])
    b = poly_region(f7, [1, 0, 1])
    divmod_over_place(a, b)
    q, rem = reference.ref_divmod([1, 2, 0, 1], [1, 0, 1], 7)
    check("quorem p7 layout", a.to_list(), rem + q)
    divmod_over_place_inv(a, b)
    check("quorem p7 restore", a.to_list(), [1, 2, 0, 1])

    rr = poly_region(f7, [1, 0])
    remainder_acc(rr, poly_region(f7, [1, 2, 0, 1]), poly_region(f7, [1, 0, 1]))
    want = [(x + y) % 7 for x, y in zip([1, 0], reference.ref_rem([1, 2, 0, 1], [1, 0, 1], 7))]
    check("aper p7", rr.to_list(), want)

    rr = Buffer.zeros(f7, 2).region()
    mulmod_acc_full(rr, poly_region(f7, [2, 1]), poly_region(f7, [1, 2, 3]),
                    poly_region(f7, [1, 0, 1]))
    check("mulmod p7", rr.to_list(), reference.ref_mulmod([2, 1], [1, 2, 3], [1, 0, 1], 7))

    rr = Buffer.zeros(f5, 2).region()
    mulmod_acc_full(rr, poly_region(f5, [1, 0, 0, 1]), poly_region(f5, [0, 0, 0, 1]),
                    poly_region(f5, [1, 0, 1]))
    check("mulmod p5", rr.to_list(),
          reference.ref_mulmod([1, 0, 0, 1], [0, 0, 0, 1], [1, 0, 1], 5))
    return failures


def _selftest_fuzz(seed: int, cases_per_field: int = 60) -> list[str]:
    failures = []
    rng = random.Random(seed)
    for p in (2, 3, 5, 7, 13, 65521):
        field = Field(p)
        for _ in range(cases_per_field):
            n = rng.randrange(1, 24)
            f = rng.randrange(p)
            a = [rng.randrange(p) for _ in range(n)]
            b = [rng.randrange(p) for _ in range(n)]
            c = [rng.randrange(p) for _ in range(n)]
            ra, rb, rc = (poly_region(field, x) for x in (a, b, c))
            snap = snapshot(ra, rb)
            conv_acc(rc, ra, rb, f)
            want = [(x + y) % p
                    for x, y in zip(c, reference.ref_convolution(a, b, f, n, p))]
            if rc.to_list() != want:
                failures.append(f"conv fuzz p={p} n={n} f={f}")
            if not snap.restored():
                failures.append(f"conv fuzz restoration p={p} n={n} f={f}")

            m_deg = rng.randrange(1, 8)
            n_deg = rng.randrange(0, 24)
            pa = [rng.randrange(p) for _ in range(n_deg + 1)]
            pb = [rng.randrange(p) for _ in range(m_deg)] + [rng.randrange(1, p)]
            ra, rb = poly_region(field, pa), poly_region(field, pb)
            snap = snapshot(ra, rb)
            r = Buffer.zeros(field, m_deg).region()
            remainder_in_place(r, ra, rb)
            if r.to_list() != reference.ref_rem(pa, pb, p):
                failures.append(f"rem fuzz p={p} N={n_deg} M={m_deg}")
            if not snap.restored():
                failures.append(f"rem fuzz restoration p={p} N={n_deg} M={m_deg}")
    return failures


def cmd_selftest(args) -> int:
    failures = _selftest_examples()
    failures += _selftest_fuzz(args.seed if args.seed is not None else 20240801)
    if failures:
        for line in failures:
            print(f"selftest FAIL {line}")
        print(f"selftest: {len(failures)} failure(s)")
        return 1
    print("selftest: worked-example table OK")
    print("selftest: oracle fuzz OK")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ffpoly",
                                  description="polynomial arithmetic over F_p")
    sub = top.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--mod", type=int, default=None, help="modulus p (prime)")
        sp.add_argument("--out", default=None, help="output file (default stdout)")

    sp = sub.add_parser("rem", help="remainder a mod b")
    common(sp)
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=cmd_rem)

    sp = sub.add_parser("quorem", help="quotient and remainder of a by b")
    common(sp)
    sp.add_argument("--out-quotient", default=None,
                    help="quotient file (default: <out>.q)")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=cmd_quorem)

    sp = sub.add_parser("aper", help="accumulate a mod b into r")
    common(sp)
    sp.add_argument("r")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.set_defaults(fn=cmd_aper)

    sp = sub.add_parser("mulmod", help="r += a*c mod b (r defaults to zero)")
    common(sp)
    sp.add_argument("--acc", default=None, help="initial accumulator file")
    sp.add_argument("a")
    sp.add_argument("c")
    sp.add_argument("b")
    sp.set_defaults(fn=cmd_mulmod)

    sp = sub.add_parser("conv", help="c += a*b mod (X^n - f)")
    common(sp)
    sp.add_argument("--f", type=int, default=0, help="wrap scalar f")
    sp.add_argument("a")
    sp.add_argument("b")
    sp.add_argument("c")
    sp.set_defaults(fn=cmd_conv)

    sp = sub.add_parser("bench", help="operation-count benchmark CSV")
    common(sp)
    sp.add_argument("--seed", type=int, default=None, help="RNG seed")
    sp.add_argument("--sizes", default=None,
                    help="comma-separated convolution lengths")
    sp.set_defaults(fn=cmd_bench)

    sp = sub.add_parser("selftest", help="worked examples and oracle fuzz")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed")
    sp.set_defaults(fn=cmd_selftest)
    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except CliParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CliPreconditionError, FieldError, NonInvertibleLeading,
            DegreeConstraint, LengthMismatch, BadParameter) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
