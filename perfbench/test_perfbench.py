"""Tests of the benchmark itself, on the shrunken workloads.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from run import BENCHMARK, measure, use_checkout_source

use_checkout_source()

import robustfsc.model  # noqa: E402
import robustfsc.planner  # noqa: E402
import robustfsc.robusteval  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from run import Measurement  # noqa: E402

DECLARED = json.loads(BENCHMARK.read_text())
RUN = Path(__file__).resolve().parent / "run.py"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in DECLARED["workloads"]])
def test_every_declared_metric_is_printed_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", "5", "--seconds", "0",
         "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    section = DECLARED["per_layer" if trace else "end_to_end"]
    assert result["metrics"] == {
        m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in section
    }
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)


@pytest.mark.parametrize("name", ["desk", "eval-ladder"])
def test_spans_nest_and_self_times_add_up(name):
    run, tracer = measure(workloads.TINY[name], seed=0, seconds=0, trace=True)
    parts = len(run.parts)
    assert parts == (1 if name == "desk" else 3)
    assert run.failed == 0 and run.traced_parts == list(range(parts))
    assert [len(w) for w in run.walls] == [len(w) for w in run.traced_walls] == [1] * parts

    spans = {s.id: s for s in tracer.spans}
    for s in tracer.spans:
        if s.parent is not None:
            parent = spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end

    own = tracer.self_times()
    root_of = tracer.root_of()
    roots = tracer.roots()
    assert [r.name for r in roots] == [tracing.SETUP_ROOT] + [tracing.OP_ROOT] * parts
    if name == "desk":
        assert [s.name for s in tracer.spans if s.parent == roots[1].id] == ["planner.run"]
    for root in roots:
        subtree = sum(t for sid, t in own.items() if root_of[sid] == root.id)
        assert subtree == pytest.approx(root.end - root.start, rel=1e-9)

    # per-layer self times, planner.self_s included, add up to one traced
    # setup plus the traced parts of the operation, which make the traced wall_s
    layers = tracing.per_layer(tracer, run.traced_parts)
    assert layers[tracing.UNATTRIBUTED] == 0.0
    total = sum(layers[m] for m in tracing.TIME_METRICS)
    setup, *ops = roots
    assert total == pytest.approx(sum(r.end - r.start for r in roots), rel=1e-9)
    for op, traced in zip(ops, run.traced_walls):
        assert op.end - op.start == pytest.approx(traced[0], abs=1e-3)


def test_per_layer_counts_each_part_once_per_operation():
    run, tracer = measure(workloads.TINY["eval-ladder"], seed=0, seconds=0, trace=True)
    once = tracing.per_layer(tracer, run.traced_parts)
    # trace the first part twice more: per operation, nothing changes
    for _ in range(2):
        run.once(0, tracer, workloads)
    again = tracing.per_layer(tracer, run.traced_parts)
    for key in tracing.COUNT_METRICS:
        assert again[key] == pytest.approx(once[key], rel=1e-9), key


def test_untraced_run_records_no_spans_and_restores_the_package():
    originals = (robustfsc.planner.build_chain, robustfsc.model.project_row, workloads.run)
    run, tracer = measure(workloads.TINY["desk"], seed=0, seconds=0, trace=False)
    assert tracer is None and run.traced_walls == [[]] and [len(w) for w in run.walls] == [1]
    measure(workloads.TINY["desk"], seed=0, seconds=0, trace=True)
    assert (robustfsc.planner.build_chain, robustfsc.model.project_row, workloads.run) == originals
    assert robustfsc.planner.build_chain is robustfsc.robusteval.build_chain


class _CorruptDesk(workloads.PlannerWorkload):
    def operate(self, model):
        result = super().operate(model)
        result.records[-1].best_robust_value *= 1.0 + 1e-6
        return result


class _CorruptLadder(workloads.LadderWorkload):
    def operate(self, cases):
        outputs = super().operate(cases)
        if cases[0].spec == self.specs[0]:
            outputs[0].pessimistic.at_initial *= 1.0 + 1e-6
        if cases[0].spec == self.specs[1]:
            row = next(iter(outputs[0].worst.worst_case.transitions.values()))
            successor = next(iter(row))
            row[successor] = 1.0 - row[successor]  # leaves the interval
        return outputs


class _RaisingDesk(workloads.PlannerWorkload):
    def operate(self, model):
        raise FloatingPointError("injected")


def test_corrupted_outputs_count_as_failed():
    desk = workloads.TINY["desk"]
    corrupt = _CorruptDesk(desk.name, desk.spec, desk.config)
    run, _ = measure(corrupt, seed=0, seconds=0, trace=False)
    assert (run.attempted, run.failed) == (desk.config.iterations, 1)

    ladder = workloads.TINY["eval-ladder"]
    corrupt = _CorruptLadder(ladder.name, ladder.specs, ladder.clusters, ladder.hidden_size)
    run, _ = measure(corrupt, seed=0, seconds=0, trace=False)
    assert (run.attempted, run.failed) == (9, 2)

    raising = Measurement(_RaisingDesk(desk.name, desk.spec, desk.config), [desk.setup(0)])
    raising.once(0)
    assert raising.failed == raising.attempted == desk.config.iterations
    assert "FloatingPointError" in raising.errors[0]


def test_fixed_controllers_match_the_reference_values():
    ladder = workloads.TINY["eval-ladder"]
    cases = ladder.setup(7)
    outputs = ladder.operate(cases)
    assert ladder.check(cases, outputs) == 0
    assert [case.fsc.num_nodes for case in cases] == [ladder.clusters] * len(cases)


def test_member_value_agrees_with_the_package():
    ladder = workloads.TINY["eval-ladder"]
    for case in ladder.setup(0):
        midpoint = robustfsc.model.nominal_midpoint(case.model)
        expected = robustfsc.robusteval.evaluate_member(midpoint, case.fsc)
        assert workloads.member_value(midpoint, case.fsc) == pytest.approx(expected, rel=1e-9)
