"""Wall-clock benchmark of ffpoly's CLI-level operations, with a traced per-layer run.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 25 --trace 0

One process, one thread, closed loop: a round calls each operation once,
in a fixed order, and the next call starts only when the previous one has
returned.  Every call is checked against the `ffpoly.reference` oracle
(computed untimed, before the rounds) and every operand that must come
back bit-exact is checked with `snapshot`.  Before the rounds, a
certification pass runs each operation once under `measure(field,
max_aux=0)` on the regions' own `Field`; after the rounds, its op counts
are compared with the rows `ffpoly bench` prints for the shapes both share.

--trace 0 prints the end-to-end metrics; --trace 1 rotates plain,
certified and traced rounds and prints the per-layer metrics.  The last
line of standard output is one JSON object; details (samples, op counts,
per-op layer tables and, for --trace 1, the spans of one traced round) go
to perfbench/out/.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import resource
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

from tracer import Tracer, aggregate, by_layer
from workloads import WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_REPS = 15
BASELINE_REPS = 3
OPS = ("rem", "quorem", "mulmod", "conv_f0", "conv_f1", "conv_fe", "conv_fo", "conv_gf2")
# `ffpoly bench` row name for each conv op whose shape it shares.
BENCH_ROWS = {"conv_f0": "conv_f0", "conv_f1": "conv_f1", "conv_fe": "conv_f2"}


class SetupError(RuntimeError):
    """The library could not be imported from this checkout."""


# ---------------------------------------------------------------------------
# Set-up: import ffpoly, construct the fields, build the operand regions.

@dataclass
class Op:
    name: str
    field: object            # the Field instance the regions were built on
    steps: list              # [(call, region to check or None)]; each call timed alone
    restored: tuple          # regions that must come back bit-exact
    pristine: tuple          # their contents: the input lists they were built from
    reset: object = None     # untimed; puts the accumulator back to its start


def _import_ffpoly():
    for name in [n for n in sys.modules if n == "ffpoly" or n.startswith("ffpoly.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        api = importlib.import_module("ffpoly")
    except ImportError as e:
        raise SetupError(f"cannot import ffpoly from {SRC}: {e}") from e
    if not Path(api.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"ffpoly imported from {api.__file__}, not from {SRC}")
    return api


def _build(api, w, inp):
    """Fields and regions; returns the ops in round order."""
    F = api.Field(w.p)
    F2 = api.Field(2)
    reg = api.poly_region
    ops = []

    def op(name, field, steps, restored, pristine, start_region=None, start=None):
        reset = None
        if start_region is not None:
            def reset():
                for k, v in enumerate(start):
                    start_region[k] = v
        ops.append(Op(name, field, steps, restored, pristine, reset))

    a, b = reg(F, inp.rem_a), reg(F, inp.rem_b)
    r = api.Buffer.zeros(F, len(inp.rem_b) - 1).region()
    op("rem", F, [(lambda: api.remainder_in_place(r, a, b), r)], (a, b),
       (inp.rem_a, inp.rem_b))

    qa, qb = reg(F, inp.quorem_a), reg(F, inp.quorem_b)
    op("quorem", F, [(lambda: api.divmod_over_place(qa, qb), qa),
                     (lambda: api.divmod_over_place_inv(qa, qb), None)], (qa, qb),
       (inp.quorem_a, inp.quorem_b))

    mr = reg(F, inp.mulmod_r)
    ma, mc, mb = reg(F, inp.mulmod_a), reg(F, inp.mulmod_c), reg(F, inp.mulmod_b)
    op("mulmod", F, [(lambda: api.mulmod_acc_full(mr, ma, mc, mb), mr)], (ma, mc, mb),
       (inp.mulmod_a, inp.mulmod_c, inp.mulmod_b), mr, inp.mulmod_r)

    for name, (c0, a0, b0, f) in inp.conv.items():
        field = F2 if name == "conv_gf2" else F
        cc, ca, cb = reg(field, c0), reg(field, a0), reg(field, b0)
        op(name, field, [(lambda cc=cc, ca=ca, cb=cb, f=f: api.conv_acc(cc, ca, cb, f), cc)],
           (ca, cb), (a0, b0), cc, c0)
    return ops


def setup(w, inp):
    """Run the set-up SETUP_REPS times; returns (seconds per rep, api, ops)."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = perf_counter()
        api = _import_ffpoly()
        ops = _build(api, w, inp)
        times.append(perf_counter() - t0)
    return times, api, ops


# ---------------------------------------------------------------------------
# Oracles and checked calls.

def oracles(api, w, inp):
    """Expected output of every step, from the allocating reference oracles."""
    ref = api.reference
    p = w.p
    q, rr = ref.ref_divmod(inp.quorem_a, inp.quorem_b, p)
    prod = ref.ref_mulmod(inp.mulmod_a, inp.mulmod_c, inp.mulmod_b, p)
    expect = {
        "rem": [ref.ref_rem(inp.rem_a, inp.rem_b, p)],
        "quorem": [rr + q, None],
        "mulmod": [[(x + y) % p for x, y in zip(inp.mulmod_r, prod)]],
    }
    for name, (c0, a0, b0, f) in inp.conv.items():
        pp = 2 if name == "conv_gf2" else p
        out = ref.ref_convolution(a0, b0, f, len(c0), pp)
        expect[name] = [[(x + y) % pp for x, y in zip(c0, out)]]
    return expect


class Clock:
    """Accumulates the wall time spent inside `with clock:` blocks."""

    def __init__(self):
        self.ns = 0

    def __enter__(self):
        self.t0 = perf_counter_ns()

    def __exit__(self, *exc):
        self.ns += perf_counter_ns() - self.t0


class TraceClock(Clock):
    """A Clock that also switches span recording on for the timed block."""

    def __init__(self, tracer, field):
        super().__init__()
        self.tracer = tracer
        self.field = field

    def __enter__(self):
        self.tracer.scope = self.field.scope
        self.tracer.on = True
        super().__enter__()

    def __exit__(self, *exc):
        super().__exit__()
        self.tracer.on = False


def run_op(api, op, expect, clock, measured):
    """One checked call of `op`; returns (errors, scope or None).

    The accumulator reset and the snapshot are untimed; so are the output
    checks between the steps.  With `measured`, the steps run inside
    `measure(op.field, max_aux=0)`.
    """
    if op.reset is not None:
        op.reset()
    snap = api.snapshot(*op.restored)
    errors = []
    scope = None
    cm = api.measure(op.field, max_aux=0) if measured else contextlib.nullcontext()
    try:
        with cm as scope:
            for (call, out), want in zip(op.steps, expect[op.name]):
                with clock:
                    call()
                if out is not None and out.to_list() != want:
                    errors.append(f"{op.name}: output differs from the oracle")
    except Exception:  # a failed call is counted, and the run goes on
        errors.append(f"{op.name}: {traceback.format_exc()}")
    if not snap.restored():
        errors.append(f"{op.name}: operands not restored")
    if errors:
        for region, values in zip(op.restored, op.pristine):
            for k, v in enumerate(values):
                region[k] = v
    return errors, scope


def counts_of(scope):
    return {"adds": scope.adds, "muls": scope.muls, "divs": scope.divs,
            "peak_aux": scope.peak_aux, "depth": scope.peak_depth}


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def add(self, errors):
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors)


def run_round(api, ops, expect, tally, make_clock=lambda op: Clock(), measured=False,
              counts=None):
    """One round; returns {op: ns}.  With `counts`, measured op counts must match."""
    times = {}
    for op in ops:
        clock = make_clock(op)
        errors, scope = run_op(api, op, expect, clock, measured)
        if counts is not None and scope is not None and counts_of(scope) != counts[op.name]:
            errors.append(f"{op.name}: op counts differ from the certification pass")
        tally.add(errors)
        times[op.name] = clock.ns
    return times


def certify(api, ops, expect, tally):
    """Certification pass: exact counts per op and zero aux."""
    counts = {}
    for op in ops:
        errors, scope = run_op(api, op, expect, Clock(), measured=True)
        if scope is not None:
            counts[op.name] = counts_of(scope)
            if scope.muls == 0:
                errors.append(f"{op.name}: measure scope saw no multiplication")
        tally.add(errors)
    return counts


def check_bench_rows(w, ops, counts, tally, seed):
    """The certified counts must equal the `ffpoly bench` rows of the shared shapes.

    Runs after the metrics are taken, so its allocations stay out of
    `peak_rss_mb`.
    """
    bench = None
    for op in ops:
        if op.name not in BENCH_ROWS or op.name not in counts:
            continue
        n = len(op.restored[0])
        if bench is None:
            bench = _bench_rows(w.p, n, seed)
        want = bench.get((BENCH_ROWS[op.name], n))
        tally.add([] if want == counts[op.name] else
                  [f"{op.name}: op counts {counts[op.name]} differ from "
                   f"the `ffpoly bench` row {want}"])


def _bench_rows(p, n, seed):
    """{(row name, n): counts} as `ffpoly bench --sizes n` prints them."""
    cli = importlib.import_module("ffpoly.cli")
    text = io.StringIO()
    with contextlib.redirect_stdout(text):
        code = cli.main(["bench", "--mod", str(p), "--sizes", str(n), "--seed", str(seed)])
    rows = {}
    for line in text.getvalue().splitlines()[1:] if code == 0 else []:
        row = line.split(",")
        rows[(row[0], int(row[2]))] = dict(
            zip(("adds", "muls", "divs", "peak_aux", "depth"), map(int, row[5:])))
    return rows


# ---------------------------------------------------------------------------
# Summaries.

def tail_percentile(values):
    """Highest of the usual percentiles with at least ten samples above it."""
    n = len(values)
    for q in (99.9, 99, 95, 90, 75, 50):
        if n * (1 - q / 100) >= 10:
            return q, sorted(values)[math.ceil(q / 100 * n) - 1]
    return None


def describe(name, value, unit, samples=None):
    shown = f"{value:>14d}" if isinstance(value, int) else f"{value:>14.6g}"
    line = f"{name:<28} {shown} {unit}"
    if samples is not None:
        line += f"  (n={len(samples)}"
        tail = tail_percentile(samples)
        if tail is not None:
            line += f", p{tail[0]:g}={tail[1]:.6g}"
        line += ")"
    return line


def timed_rounds(api, ops, expect, tally, seconds):
    deadline = perf_counter() + seconds
    rounds = []
    while True:
        rounds.append(run_round(api, ops, expect, tally))
        if perf_counter() >= deadline:
            return rounds


def end_to_end(setup_times, rounds):
    """{metric: (value, unit, samples or None)} for --trace 0."""
    out = {"setup_s": (median(setup_times), "s", setup_times)}
    totals = [sum(r.values()) / 1e9 for r in rounds]
    out["round_s"] = (median(totals), "s", totals)
    for name in OPS:
        xs = [r[name] / 1e6 for r in rounds]
        out[f"{name}_ms"] = (median(xs), "ms", xs)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["peak_rss_mb"] = (rss, "MB", None)
    return out


def traced_rounds(api, ops, expect, tally, counts, seconds):
    """Rotate plain, certified and traced rounds until the deadline.

    The tracer is installed only for traced rounds, so plain and certified
    rounds run the unwrapped library.  Returns the round totals of each
    kind, the per-round aggregate tables and the spans of the first traced
    round.
    """
    kinds = ("plain", "certified", "traced")
    totals = {k: [] for k in kinds}
    per_op = {k: [] for k in kinds}
    tables = []
    first_spans = None
    deadline = perf_counter() + seconds
    i = 0
    while i < len(kinds) or perf_counter() < deadline:
        kind = kinds[i % len(kinds)]
        if kind == "traced":
            tracer = Tracer()
            tracer.round = len(tables)
            tracer.install()

            def make_clock(op, tracer=tracer):
                tracer.op = op.name
                return TraceClock(tracer, op.field)
            try:
                times = run_round(api, ops, expect, tally, make_clock, True, counts)
            finally:
                tracer.uninstall()
            threshold = api.default_strategy().threshold
            tables.append((aggregate(tracer.spans, threshold), len(
                [s for s in tracer.spans if s[0] in tracer.tracked])))
            if first_spans is None:
                first_spans = tracer.spans
        else:
            times = run_round(api, ops, expect, tally, measured=kind == "certified",
                              counts=counts)
        totals[kind].append(sum(times.values()))
        per_op[kind].append(times)
        i += 1
    return totals, per_op, tables, first_spans


def per_layer(w, inp, api, ops, expect, tally, counts, seconds):
    """{metric: (value, unit, samples or None)} for --trace 1, and detail tables."""
    totals, per_op, tables, spans = traced_rounds(api, ops, expect, tally, counts, seconds)
    plain = median(totals["plain"])
    traced = median(totals["traced"])
    layer_rounds = [by_layer(t) for t, _ in tables]
    first = layer_rounds[0]

    def self_s(layer):
        xs = [lr[layer]["self_ns"] / 1e9 for lr in layer_rounds]
        return (median(xs), "s", xs)

    def base_frac(table, op_names=None):
        toe = by_layer(table, op_names)["toeplitz"]
        return toe["base"] / toe["tri"] if toe["tri"] else 0.0

    m = {}
    mb = first["mulbase"]
    m["mulbase.calls"] = (mb["calls"], "count", None)
    m["mulbase.self_s"] = self_s("mulbase")
    m["mulbase.muls"] = (mb["muls"], "count", None)
    m["mulbase.adds"] = (mb["adds"], "count", None)
    m["mulbase.ns_per_mul"] = (m["mulbase.self_s"][0] * 1e9 / max(mb["muls"], 1), "ns", None)
    m["mulbase.mean_len"] = (mb["size_sum"] / max(mb["calls"], 1), "coeffs", None)
    m["toeplitz.calls"] = (first["toeplitz"]["calls"], "count", None)
    m["toeplitz.self_s"] = self_s("toeplitz")
    m["toeplitz.muls"] = (first["toeplitz"]["muls"], "count", None)
    m["toeplitz.base_frac"] = (base_frac(tables[0][0]), "ratio", None)
    m["toeplitz.base_frac_rem"] = (base_frac(tables[0][0], ("rem",)), "ratio", None)
    m["toeplitz.base_frac_quorem"] = (base_frac(tables[0][0], ("quorem",)), "ratio", None)
    m["conv.calls"] = (first["conv"]["calls"], "count", None)
    m["conv.self_s"] = self_s("conv")
    m["conv.muls"] = (first["conv"]["muls"], "count", None)
    for layer in ("euclid", "modmul", "region"):
        m[f"{layer}.calls"] = (first[layer]["calls"], "count", None)
        m[f"{layer}.self_s"] = self_s(layer)
    m["instrument.tracked_calls"] = (tables[0][1], "count", None)
    m["instrument.peak_depth"] = (max(c["depth"] for c in counts.values()), "frames", None)
    m["instrument.overhead_frac"] = (median(totals["certified"]) / plain - 1, "ratio", None)
    m["ff.divs"] = (sum(c["divs"] for c in counts.values()), "count", None)

    ref_ms = baselines(api, w, inp, ops[0], expect, tally)
    rem_ms = median([t["rem"] for t in per_op["plain"]]) / 1e6
    mulmod_ms = median([t["mulmod"] for t in per_op["plain"]]) / 1e6
    m["reference.ref_rem_ms"] = (ref_ms["ref_rem"], "ms", None)
    m["reference.ref_mulmod_ms"] = (ref_ms["ref_mulmod"], "ms", None)
    m["reference.ref_conv_ms"] = (ref_ms["ref_conv"], "ms", None)
    m["mulbase.quad_rem_ms"] = (ref_ms["quad_rem"], "ms", None)
    m["rem_vs_quad"] = (rem_ms / ref_ms["quad_rem"], "ratio", None)
    m["mulmod_vs_ref"] = (mulmod_ms / ref_ms["ref_mulmod"], "ratio", None)

    self_total = [sum(lr[k]["self_ns"] for k in lr) for lr in layer_rounds]
    m["trace.coverage"] = (median(self_total) / traced, "ratio", None)
    m["trace.entry_self_frac"] = (median(
        [sum(lr[k]["root_ns"] for k in lr) / total
         for lr, total in zip(layer_rounds, self_total)]), "ratio", None)
    m["trace.overhead_frac"] = (traced / plain - 1, "ratio", None)
    detail = {
        "round_ns": totals,
        "per_op_layers": {f"{op}/{layer}": agg for (op, layer), agg in tables[0][0].items()},
        "span_fields": ["name", "layer", "op", "round", "start_ns", "end_ns", "parent",
                        "adds", "muls", "divs", "size"],
        "spans": spans,
    }
    return m, detail


def baselines(api, w, inp, rem_op, expect, tally):
    """Median ms of BASELINE_REPS calls of each quadratic baseline, on the same inputs."""
    ref = api.reference
    p = w.p
    a, b = rem_op.restored
    r = api.Buffer.zeros(a.field, len(b) - 1).region()
    c0, a0, b0, f = inp.conv["conv_f0"]
    calls = {
        "ref_rem": lambda: ref.ref_rem(inp.rem_a, inp.rem_b, p),
        "ref_mulmod": lambda: ref.ref_mulmod(inp.mulmod_a, inp.mulmod_c, inp.mulmod_b, p),
        "ref_conv": lambda: ref.ref_convolution(a0, b0, f, len(c0), p),
        "quad_rem": lambda: api.quad_rem(r, a, b),
    }
    ms = {}
    for name, call in calls.items():
        xs = []
        for _ in range(BASELINE_REPS):
            t0 = perf_counter_ns()
            call()
            xs.append((perf_counter_ns() - t0) / 1e6)
        ms[name] = median(xs)
    tally.add([] if r.to_list() == expect["rem"][0]
              else ["quad_rem: output differs from the oracle"])
    return ms


# ---------------------------------------------------------------------------

def main(argv=None, workloads=WORKLOADS) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    w = workloads[args.workload]

    inp = generate(w, args.seed)
    try:
        setup_times, api, ops = setup(w, inp)
    except SetupError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    expect = oracles(api, w, inp)
    tally = Tally()
    counts = certify(api, ops, expect, tally)
    peak_aux = max((c["peak_aux"] for c in counts.values()), default=0)

    detail = {"workload": w.name, "seed": args.seed, "shapes": {
        "p": w.p, "rem": w.rem, "quorem": w.quorem, "mulmod": w.mulmod,
        "conv": w.conv, "gf2": w.gf2}, "op_counts": counts}
    if args.trace:
        metrics, extra = per_layer(w, inp, api, ops, expect, tally, counts, args.seconds)
        detail.update(extra)
    else:
        rounds = timed_rounds(api, ops, expect, tally, args.seconds)
        metrics = end_to_end(setup_times, rounds)
        detail["samples"] = {k: v[2] for k, v in metrics.items() if v[2] is not None}
    check_bench_rows(w, ops, counts, tally, args.seed)

    correct = tally.failed == 0 and peak_aux == 0 and len(counts) == len(ops)
    for e in tally.errors[:20]:
        print(f"FAIL {e}", file=sys.stderr)
    for name, c in counts.items():
        print(f"opcount {name:<9} " + " ".join(f"{k}={v}" for k, v in c.items()))
    for name, (value, unit, samples) in metrics.items():
        print(describe(name, value, unit, samples))
    print(describe("peak_aux", peak_aux, "elements"))
    print(describe("failed_frac", tally.failed / max(tally.attempted, 1), "ratio")
          + f"  ({tally.failed} of {tally.attempted} calls)")

    OUT.mkdir(exist_ok=True)
    detail["metrics"] = {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(detail))
    print(json.dumps({
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
