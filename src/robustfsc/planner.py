"""The outer planning loop: supervise, imitate, extract, evaluate, re-select.

One iteration solves the current concrete instance with a fast belief-value
bound, rolls out its argmin policy into a dataset, trains the recurrent
policy on it (warm-started across iterations), extracts a controller,
evaluates the controller's exact worst case on the uncertain model and, in
the adversarial mode, swaps in the worst-case member for the next round.

The baselines never consult the adversary: ``baseline-nominal`` trains on
the interval-midpoint member throughout, ``baseline-random`` on a member
redrawn uniformly from the intervals each round (domain randomization).
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field

import numpy as np

from robustfsc.adversary import select_worst_case
from robustfsc.extract import QUANT_LEVELS, build_fsc, collect_hidden_states, fsc_fidelity, kmeans_fit, qbn_fit_posthoc
from robustfsc.model import Fsc, RobustPomdp, nominal_midpoint, sample_member, validate
from robustfsc.rnn import init_params, train_epochs
from robustfsc.robusteval import build_chain, robust_value_iteration
from robustfsc.simulate import simulate
from robustfsc.solvers import DivergenceError, solve_fib, solve_mdp

METHODS = ("pip", "baseline-nominal", "baseline-random")
SUPERVISIONS = ("qmdp", "fib")
EXTRACTORS = ("kmeans", "qbn-posthoc")
BATCH_SIZE = 32  # minibatch size of the GRU and the bottleneck


@dataclass
class RunConfig:
    method: str = "pip"
    supervision: str = "qmdp"
    extractor: str = "kmeans"
    iterations: int = 50
    episodes: int = 256
    horizon: int = 200
    hidden_size: int = 16
    embed_size: int = 8
    clusters: int = 9
    bottleneck: int = 2
    quant_levels: int = 3
    epochs_per_iteration: int = 8
    learning_rate: float = 1e-3
    seed: int = 0
    vi_tol: float = 1e-6  # read by perfbench only; robust evaluation is exact without it
    target_value: float | None = None

    def check(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.supervision not in SUPERVISIONS:
            raise ValueError(f"supervision must be one of {SUPERVISIONS}")
        if self.extractor not in EXTRACTORS:
            raise ValueError(f"extractor must be one of {EXTRACTORS}")
        if self.iterations < 0:
            raise ValueError("iterations must be nonnegative")
        for name in ("episodes", "horizon", "hidden_size", "embed_size", "clusters", "bottleneck", "epochs_per_iteration"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0.0 < self.learning_rate < np.inf:  # also catches NaN
            raise ValueError("learning_rate must be positive and finite")
        if self.quant_levels not in QUANT_LEVELS:
            raise ValueError(f"quant_levels must be one of {QUANT_LEVELS}")


@dataclass
class IterationRecord:
    iteration: int
    train_loss: float
    extract_metric: float
    fsc_nodes: int
    robust_value: float
    best_robust_value: float
    wall_ms: float
    fidelity: float = float("nan")  # diagnostic, not part of the CSV schema


@dataclass
class RunResult:
    config: RunConfig
    best_fsc: Fsc | None
    best_value: float
    records: list[IterationRecord] = field(default_factory=list)

    @property
    def found_policy(self) -> bool:
        return self.best_fsc is not None


def run(config: RunConfig, model: RobustPomdp) -> RunResult:
    """Execute the configured number of iterations and track the best controller."""
    config.check()
    report = validate(model)
    if not report.ok:
        raise ValueError(f"model invalid:\n{report}")

    if config.method == "baseline-random":
        instance = sample_member(model, (config.seed, 0, 0))
    else:
        instance = nominal_midpoint(model)

    params = init_params(
        model.num_observations,
        model.num_actions,
        hidden_size=config.hidden_size,
        embed_size=config.embed_size,
        rng_seed=(config.seed, 0, 1),
    )

    best_fsc: Fsc | None = None
    best_value = float("inf")
    records: list[IterationRecord] = []

    for it in range(config.iterations):
        t_start = time.perf_counter()
        try:
            supervision = (solve_mdp if config.supervision == "qmdp" else solve_fib)(instance)
            dataset = simulate(
                instance, supervision,
                num_episodes=config.episodes, horizon=config.horizon,
                rng_seed=(config.seed, it, 3),
            )

            params, trace = train_epochs(
                params, dataset, config.epochs_per_iteration,
                batch_size=BATCH_SIZE, lr=config.learning_rate,
                rng_seed=(config.seed, it, 4),
            )
            hidden = collect_hidden_states(params, dataset)
            # A degenerate dataset (all starts are goals) has no states:
            # cluster the initial hidden state so extraction still yields a policy.
            points = hidden if len(hidden) else np.zeros((1, config.hidden_size))
            if config.extractor == "kmeans":
                k = min(config.clusters, len(points))
                clustering = kmeans_fit(points, k, rng_seed=(config.seed, it, 5))
            else:
                clustering = qbn_fit_posthoc(
                    points, config.bottleneck, config.quant_levels,
                    epochs=config.epochs_per_iteration, lr=config.learning_rate,
                    batch_size=BATCH_SIZE, rng_seed=(config.seed, it, 5),
                )

            fsc = build_fsc(params, clustering, model)
            values = robust_value_iteration(build_chain(model, fsc))
            robust_value = values.at_initial
            fidelity = fsc_fidelity(params, fsc, dataset, hidden)
            # free the rollouts before the next simulate, which sets the peak
            del dataset, hidden, points

            if robust_value < best_value:
                best_value = robust_value
                best_fsc = fsc

            # the mean over the last epoch; every epoch has the same number of batches
            last_epoch = trace[len(trace) - len(trace) // config.epochs_per_iteration:]
            train_loss = float(np.mean(last_epoch)) if last_epoch else float("nan")
            records.append(IterationRecord(
                iteration=it,
                train_loss=train_loss,
                extract_metric=clustering.fit_metric,
                fsc_nodes=fsc.num_nodes,
                robust_value=robust_value,
                best_robust_value=best_value,
                wall_ms=(time.perf_counter() - t_start) * 1000.0,
                fidelity=fidelity,
            ))

            if config.target_value is not None and best_value <= config.target_value:
                break

            if config.method == "pip":
                if np.isfinite(robust_value):
                    instance = select_worst_case(model, fsc, values).worst_case
            elif config.method == "baseline-random":
                instance = sample_member(model, (config.seed, it + 1, 0))
        except DivergenceError as err:
            raise DivergenceError(f"iteration {it}: {err}") from err

    return RunResult(config=config, best_fsc=best_fsc, best_value=best_value, records=records)


CSV_HEADER = "iteration,train_loss,extract_metric,fsc_nodes,robust_value,best_robust_value,wall_ms"


def records_to_csv(records: list[IterationRecord]) -> str:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            f"{r.iteration},{float(r.train_loss)!r},{float(r.extract_metric)!r},"
            f"{r.fsc_nodes},{float(r.robust_value)!r},{float(r.best_robust_value)!r},"
            f"{float(r.wall_ms)!r}"
        )
    return "\n".join(lines) + "\n"


def summary_json(result: RunResult, best_fsc_path: str | None) -> str:
    payload = {
        "config": asdict(result.config),
        "iterations_run": len(result.records),
        "found_policy": result.found_policy,
        "best_robust_value": result.best_value if np.isfinite(result.best_value) else None,
        "best_fsc_path": best_fsc_path,
        "best_fsc_nodes": result.best_fsc.num_nodes if result.best_fsc is not None else None,
        # interval midpoints admit several renormalizations; record ours
        "notes": {"midpoint_projection": "clamp then proportional slack fill"},
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
