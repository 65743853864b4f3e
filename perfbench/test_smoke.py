"""Smoke test of the benchmark at tiny shapes.

    python3 -m pytest perfbench/test_smoke.py -q

Every workload runs once per trace mode; each metric that BENCHMARK.json
names must print, in the human-readable lines and in the closing JSON,
with its unit.  Op counts must repeat exactly across seeds, and the
correctness gate must catch a wrong result.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import run
from workloads import TINY

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _run(capsys, workload, seed, trace):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                     "--trace", str(trace)], workloads=TINY)
    lines = capsys.readouterr().out.splitlines()
    return code, lines, json.loads(lines[-1])


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in run.WORKLOADS.values()]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_metric_prints_with_its_unit(capsys, workload, trace):
    code, lines, result = _run(capsys, workload, 1, trace)
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [m["name"]] and line.split()[2] == m["unit"]
                   for line in lines[:-1])


def test_op_counts_repeat_across_seeds(capsys):
    counts = []
    for seed in (1, 2):
        code, _, _ = _run(capsys, "wide", seed, 0)
        assert code == 0
        detail = json.loads((run.OUT / f"wide-seed{seed}-trace0.json").read_text())
        counts.append(detail["op_counts"])
    assert counts[0] == counts[1]
    assert all(c["muls"] > 0 and c["peak_aux"] == 0 for c in counts[0].values())


def test_gate_counts_a_wrong_result():
    w = TINY["narrow"]
    inp = run.generate(w, 1)
    _, api, ops = run.setup(w, inp)
    expect = run.oracles(api, w, inp)
    conv = next(op for op in ops if op.name == "conv_f1")
    a = conv.restored[0]
    call, out = conv.steps[0]

    def scribble():
        call()
        a[0] = (a[0] + 1) % w.p      # leaves an operand changed

    conv.steps = [(scribble, out)]
    tally = run.Tally()
    run.run_round(api, [conv], expect, tally)
    assert tally.failed == 1 and "operands not restored" in tally.errors[0]
    assert a.to_list() == conv.pristine[0]
