"""Span recording for the traced run, and the per-layer metrics built from it.

The tracer leaves the package untouched.  While it is installed it rebinds
public layer functions, in the namespaces that call them, with wrappers that
record one span per call (id, parent, name, start, end) and a few counts
read off the call's return value.  The rebound names are every function
``robustfsc.planner`` imports, the package functions the benchmark's own
workload module imports, ``robustfsc.adversary.nominal_midpoint`` and
``robustfsc.model.project_row``; the last is counted, not timed, because the
desk run calls it about 22,000 times.  Uninstalling restores the originals,
so an untraced operation runs the package exactly as shipped.

A span's self time is its duration minus the durations of its children.
Every span nests inside one root span opened by the benchmark, so the self
times of a root's subtree add up to the root's duration.
"""

from __future__ import annotations

import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps

import numpy as np

import robustfsc.adversary
import robustfsc.model
import robustfsc.planner

SETUP_ROOT = "bench.setup"
OP_ROOT = "bench.op"

# per-layer time metric -> span names whose self time it sums
TIME_METRICS = {
    "robusteval.rvi_s": ("robusteval.robust_value_iteration",),
    "robusteval.build_chain_s": ("robusteval.build_chain",),
    "adversary.select_s": ("adversary.select_worst_case",),
    "extract.build_fsc_s": ("extract.build_fsc",),
    "extract.fidelity_s": ("extract.fsc_fidelity",),
    "extract.collect_s": ("extract.collect_hidden_states",),
    "extract.cluster_s": ("extract.kmeans_fit", "extract.qbn_fit_posthoc",
                          "extract.qbn_init", "extract.clustering_from_e2e"),
    "simulate.simulate_s": ("simulate.simulate",),
    "rnn.train_s": ("rnn.train_epochs", "extract.train_epochs_e2e", "rnn.init_params"),
    "model.member_s": ("model.nominal_midpoint", "model.bound_member", "model.sample_member"),
    "model.validate_s": ("model.validate",),
    "solvers.solve_s": ("solvers.solve_mdp", "solvers.solve_fib"),
    "grids.generate_s": ("grids.generate_grid",),
    "modelio.parse_s": ("modelio.parse_model",),
    "modelio.serialize_s": ("modelio.serialize_model", "modelio.serialize_concrete"),
    "planner.self_s": ("planner.run",),
    "bench.self_s": (SETUP_ROOT, OP_ROOT),
}
COUNT_METRICS = (
    "robusteval.rvi_calls", "robusteval.rvi_sweeps", "robusteval.edge_visits",
    "robusteval.chain_states", "robusteval.chain_edges", "robusteval.infinite_values",
    "adversary.calls", "adversary.skipped", "simulate.steps", "rnn.batches",
    "model.member_calls", "model.project_row_calls", "solvers.calls", "modelio.doc_bytes",
)
UNATTRIBUTED = "unattributed_s"


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float


def _on_rvi(counts: Counter, values) -> None:
    counts["robusteval.rvi_calls"] += 1
    counts["robusteval.rvi_sweeps"] += values.sweeps
    counts["robusteval.edge_visits"] += len(values.chain.succ) * values.sweeps
    counts["robusteval.infinite_values"] += int(not np.isfinite(values.at_initial))


def _on_chain(counts: Counter, chain) -> None:
    counts["robusteval.chain_states"] += chain.num_states
    counts["robusteval.chain_edges"] += len(chain.succ)


def _on_run(counts: Counter, result) -> None:
    best = float("inf")
    for record in result.records:
        counts["planner.rounds"] += 1
        if record.best_robust_value < best:
            counts["planner.improving"] += 1
            best = record.best_robust_value
        # pip keeps the previous instance when the round's value is infinite
        if result.config.method == "pip" and not np.isfinite(record.robust_value):
            counts["adversary.skipped"] += 1


def _on_serialize(counts: Counter, text: str) -> None:
    counts["modelio.doc_bytes"] += len(text.encode())


def _on_fidelity(counts: Counter, fidelity: float) -> None:
    counts["extract.fidelity_calls"] += 1
    counts["extract.fidelity_sum"] += fidelity


def _on_fsc(counts: Counter, fsc) -> None:
    counts["extract.fsc_calls"] += 1
    counts["extract.fsc_nodes_sum"] += fsc.num_nodes


def _increment(key: str):
    def hook(counts: Counter, _result) -> None:
        counts[key] += 1
    return hook


HOOKS = {
    "robusteval.robust_value_iteration": _on_rvi,
    "robusteval.build_chain": _on_chain,
    "adversary.select_worst_case": _increment("adversary.calls"),
    "extract.build_fsc": _on_fsc,
    "extract.fsc_fidelity": _on_fidelity,
    "simulate.simulate": lambda counts, data: counts.update({"simulate.steps": data.num_steps}),
    "rnn.train_epochs": lambda counts, out: counts.update({"rnn.batches": len(out[-1])}),
    "extract.train_epochs_e2e": lambda counts, out: counts.update({"rnn.batches": len(out[-1])}),
    "model.nominal_midpoint": _increment("model.member_calls"),
    "model.bound_member": _increment("model.member_calls"),
    "model.sample_member": _increment("model.member_calls"),
    "solvers.solve_mdp": _increment("solvers.calls"),
    "solvers.solve_fib": _increment("solvers.calls"),
    "modelio.serialize_model": _on_serialize,
    "modelio.serialize_concrete": _on_serialize,
    "planner.run": _on_run,
}


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def _package_functions(module) -> list[str]:
    """Names in ``module`` bound to functions defined in another package module."""
    return [
        name for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__.startswith("robustfsc.")
        and obj.__module__ != module.__name__
    ]


class Tracer:
    """Spans and counts of one process, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, Counter] = {}  # root span id -> counts under it
        self._stack: list[int] = []
        self._next_id = 0

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            self.counts[sid] = Counter()
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield self.counts[self._stack[0]]
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, name, start, end))

    def _wrap(self, fn):
        name = span_name(fn)
        hook = HOOKS.get(name)

        @wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(counts, result)
            return result
        return traced

    def _count_calls(self, fn, key: str):
        @wraps(fn)
        def counted(*args, **kwargs):
            if self._stack:
                self.counts[self._stack[0]][key] += 1
            return fn(*args, **kwargs)
        return counted

    @contextmanager
    def installed(self, caller):
        """Rebind the traced names in ``caller``, the planner, adversary and model."""
        targets = [(robustfsc.planner, name) for name in _package_functions(robustfsc.planner)]
        targets += [(caller, name) for name in _package_functions(caller)]
        targets.append((robustfsc.adversary, "nominal_midpoint"))
        swaps = [(module, name, getattr(module, name), self._wrap(getattr(module, name)))
                 for module, name in targets]
        project_row = robustfsc.model.project_row
        swaps.append((robustfsc.model, "project_row", project_row,
                      self._count_calls(project_row, "model.project_row_calls")))
        try:
            for module, name, _, replacement in swaps:
                setattr(module, name, replacement)
            yield self
        finally:
            for module, name, original, _ in swaps:
                setattr(module, name, original)

    def self_times(self) -> dict[int, float]:
        own = {s.id: s.end - s.start for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.end - s.start
        return own

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def root_of(self) -> dict[int, int]:
        parent = {s.id: s.parent for s in self.spans}
        out = {}
        for sid in parent:
            root = sid
            while parent[root] is not None:
                root = parent[root]
            out[sid] = root
        return out

    def to_jsonl(self, origin: float) -> str:
        """One span per line, times in seconds since ``origin``."""
        return "".join(
            json.dumps({"id": s.id, "parent": s.parent, "name": s.name,
                        "start": s.start - origin, "end": s.end - origin}) + "\n"
            for s in sorted(self.spans, key=lambda s: s.id)
        )


def per_layer(tracer: Tracer, op_parts: list[int] | None = None) -> dict[str, float]:
    """Per-layer metrics of one traced setup plus the mean traced operation.

    ``op_parts`` names the part of the operation that each operation root,
    in order, ran; by default every root ran the whole operation.  The setup
    root counts once; a root of a part traced N times counts 1/N, so times
    and counts read "per operation" while the setup layers (grids, modelio,
    validate) keep their one-setup totals.
    """
    roots = tracer.roots()
    ops = sorted((r for r in roots if r.name != SETUP_ROOT), key=lambda r: r.id)
    parts = op_parts if op_parts is not None else [0] * len(ops)
    times = Counter(parts)
    weight = {r.id: 1.0 for r in roots}
    weight.update({r.id: 1.0 / times[part] for r, part in zip(ops, parts, strict=True)})
    root_of = tracer.root_of()
    metric_of = {name: metric for metric, names in TIME_METRICS.items() for name in names}

    out = {metric: 0.0 for metric in TIME_METRICS}
    out[UNATTRIBUTED] = 0.0
    names = {s.id: s.name for s in tracer.spans}
    for sid, own in tracer.self_times().items():
        out[metric_of.get(names[sid], UNATTRIBUTED)] += own * weight[root_of[sid]]

    counts: Counter = Counter()
    for root_id, c in tracer.counts.items():
        for key, value in c.items():
            counts[key] += value * weight[root_id]
    for key in COUNT_METRICS:
        out[key] = float(counts[key])

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out["extract.fsc_nodes"] = ratio(counts["extract.fsc_nodes_sum"], counts["extract.fsc_calls"])
    out["extract.fidelity"] = ratio(counts["extract.fidelity_sum"], counts["extract.fidelity_calls"])
    out["simulate.steps_per_s"] = ratio(counts["simulate.steps"], out["simulate.simulate_s"])
    out["planner.improving_frac"] = ratio(counts["planner.improving"], counts["planner.rounds"])
    return out
