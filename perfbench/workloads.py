"""The benchmark's workloads: how each builds its inputs, runs, and is checked.

Every workload drives the package through its public API only, the way the
CLI does: a grid document is generated, serialized, parsed and validated,
then handed to ``planner.run`` (``solve``) or to ``build_chain`` /
``robust_value_iteration`` / ``select_worst_case`` / ``serialize_concrete``
(``eval-fsc`` in both modes and ``worst-case``).

The workload seed becomes the grid seed, which the generators record in the
model name, so it reaches every document and the work done with it.  The
planner seed and the ladder's controller seed stay pinned: on the desk
configuration, planner seeds 0-5 gave best robust values from 714 to 4,476
and wall times from 6.5 to 10.6 s (2-vCPU Xeon VM, Python 3.11, one BLAS
thread), and ladder controllers from network seeds 0-3 moved the intercept
6x6 pessimistic value from 46,890 to 118,362.
That spread belongs to the algorithm, not to the code under test, and would
hide a regression of either speed or quality.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.sparse import csr_matrix, identity
from scipy.sparse.linalg import spsolve

from robustfsc.adversary import select_worst_case
from robustfsc.extract import build_fsc, collect_hidden_states, kmeans_fit
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import ConcretePomdp, Fsc, Interval, RobustPomdp, nominal_midpoint, validate
from robustfsc.modelio import parse_model, serialize_concrete, serialize_model
from robustfsc.planner import RunConfig, RunResult, records_to_csv, run
from robustfsc.rnn import init_params
from robustfsc.robusteval import build_chain, robust_value_iteration
from robustfsc.simulate import Episode, Step, TrajectoryDataset

REFERENCE = Path(__file__).resolve().parent / "reference.json"
REL_TOL = 1e-9
EVAL_TOL = 1e-9  # the CLI's default --tol for eval-fsc and worst-case
CONTROLLER_SEED = 0


def load_models(specs: tuple[GridSpec, ...], seed: int) -> list[RobustPomdp]:
    """Generate, serialize, parse and validate each grid document."""
    models = []
    for spec in specs:
        model = parse_model(serialize_model(generate_grid(spec, seed))).model
        report = validate(model)
        if not report.ok:
            raise ValueError(f"generated model invalid:\n{report}")
        models.append(model)
    return models


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def member_value(member: ConcretePomdp, fsc: Fsc) -> float:
    """Expected cost of ``fsc`` on one concrete member by one sparse linear solve.

    Written independently of ``robusteval``: the reachable product of states
    and nodes is enumerated breadth-first, goal successors are dropped (they
    absorb at zero cost) and (I - P) v = c is solved over what remains.
    """
    starts = [(int(s), fsc.initial_node) for s in np.flatnonzero(member.initial_belief)]
    index = {pair: i for i, pair in enumerate(starts)}
    order = list(starts)
    rows: list[int] = []
    cols: list[int] = []
    probs: list[float] = []
    cost: list[float] = []
    i = 0
    while i < len(order):
        s, n = order[i]
        c = 0.0
        if s not in member.goals:
            z = int(member.obs_of[s])
            n_next = int(fsc.memory_map[n, z])
            for a, d in enumerate(fsc.action_map[n, z]):
                if d == 0.0:
                    continue
                c += d * member.cost[(s, a)]
                for sp, p in member.row(s, a).items():
                    if sp in member.goals:
                        continue
                    j = index.get((sp, n_next))
                    if j is None:
                        j = index[(sp, n_next)] = len(order)
                        order.append((sp, n_next))
                    rows.append(i)
                    cols.append(j)
                    probs.append(d * p)
        cost.append(c)
        i += 1
    size = len(order)
    p_mat = csr_matrix((probs, (rows, cols)), shape=(size, size))
    v = np.asarray(spsolve((identity(size, format="csr") - p_mat).tocsc(), np.array(cost)))
    weights = member.initial_belief[[s for s, _ in starts]]
    return float(weights @ v.reshape(-1)[: len(starts)])


# ---------------------------------------------------------------------------
# planner workloads: one operation is one planner.run, checked per iteration,
# and it is not split into parts

@dataclass(frozen=True)
class PlannerWorkload:
    name: str
    spec: GridSpec
    config: RunConfig

    def setup(self, seed: int) -> RobustPomdp:
        return load_models((self.spec,), seed)[0]

    def parts(self, model: RobustPomdp) -> list[RobustPomdp]:
        return [model]

    def operate(self, model: RobustPomdp) -> RunResult:
        return run(self.config, model)

    def attempted(self, model: RobustPomdp) -> int:
        return self.config.iterations

    def check(self, model: RobustPomdp, result: RunResult) -> int:
        """Number of iterations that fail their checks (all, if the run does)."""
        n = self.config.iterations
        records = result.records
        failed = set(range(len(records), n))
        best = math.inf
        for i, record in enumerate(records):
            best = min(best, record.robust_value)
            if record.iteration != i or record.best_robust_value != best:
                failed.add(i)
        run_ok = (
            len(records) == n
            and np.isfinite(result.best_value)
            and result.best_value == best
            and result.best_fsc is not None
        )
        if run_ok:
            try:
                result.best_fsc.check()
                fresh = robust_value_iteration(
                    build_chain(model, result.best_fsc), "pessimistic", tol=self.config.vi_tol
                ).at_initial
                run_ok = _close(fresh, result.best_value)
            except ValueError:
                run_ok = False
        return n if not run_ok else len(failed)

    def quality(self, model: RobustPomdp, result: RunResult) -> dict:
        best = min(result.records, key=lambda r: r.robust_value, default=None)
        csv = records_to_csv(result.records)
        stripped = "\n".join(",".join(line.split(",")[:-1]) for line in csv.splitlines())
        return {
            "best_robust_value": float(result.best_value),
            "fsc_nodes": result.best_fsc.num_nodes if result.best_fsc is not None else 0,
            "fidelity": float(best.fidelity) if best is not None else float("nan"),
            "run_csv_digest": _digest(stripped),
        }

    def combine(self, qualities: list[dict]) -> dict:
        return qualities[0]


# ---------------------------------------------------------------------------
# the evaluation ladder: three operations per model (two evaluations and the
# worst-case export), on a controller fixed before timing starts; each model
# is a part timed on its own, so that a run repeats each of them several times

@dataclass
class LadderCase:
    spec: GridSpec
    model: RobustPomdp
    fsc: Fsc


@dataclass
class LadderOutput:
    pessimistic: object  # RobustValues
    optimistic: object
    worst: object | None  # AdversaryResult, None when the worst case is infinite
    document: str


def fixed_controller(model: RobustPomdp, clusters: int, hidden_size: int = 16) -> Fsc:
    """Controller extracted by k-means from the untrained network.

    The hidden states come from 32 random observation sequences of length 20
    over the model's realizable observations; nothing is simulated or trained.
    """
    params = init_params(model.num_observations, model.num_actions,
                         hidden_size=hidden_size, embed_size=8, rng_seed=(CONTROLLER_SEED, 0, 1))
    rng = np.random.default_rng((CONTROLLER_SEED, 7))
    observations = model.realizable_observations()
    target = np.full(model.num_actions, 1.0 / model.num_actions)
    episodes = [
        Episode([Step(int(z), 0, target, model.initial_belief) for z in rng.choice(observations, 20)],
                0.0, False)
        for _ in range(32)
    ]
    dataset = TrajectoryDataset(episodes, model.num_observations, model.num_actions,
                                CONTROLLER_SEED, 20, "untrained")
    hidden = collect_hidden_states(params, dataset)
    return build_fsc(params, kmeans_fit(hidden, clusters, rng_seed=(CONTROLLER_SEED, 0, 5)), model)


def reference_key(spec: GridSpec, mode: str) -> str:
    return f"{spec.kind}-{spec.width}x{spec.height}/{mode}"


@dataclass(frozen=True)
class LadderWorkload:
    name: str
    specs: tuple[GridSpec, ...]
    clusters: int
    hidden_size: int = 16

    def setup(self, seed: int) -> list[LadderCase]:
        return [LadderCase(spec, model, fixed_controller(model, self.clusters, self.hidden_size))
                for spec, model in zip(self.specs, load_models(self.specs, seed))]

    def parts(self, cases: list[LadderCase]) -> list[list[LadderCase]]:
        return [[case] for case in cases]

    def operate(self, cases: list[LadderCase]) -> list[LadderOutput]:
        outputs = []
        for case in cases:
            pessimistic = robust_value_iteration(build_chain(case.model, case.fsc), "pessimistic", tol=EVAL_TOL)
            optimistic = robust_value_iteration(build_chain(case.model, case.fsc), "optimistic", tol=EVAL_TOL)
            worst, document = None, ""
            if np.isfinite(pessimistic.at_initial):
                worst = select_worst_case(case.model, case.fsc, pessimistic)
                document = serialize_concrete(worst.worst_case)
            outputs.append(LadderOutput(pessimistic, optimistic, worst, document))
        return outputs

    def attempted(self, cases: list[LadderCase]) -> int:
        return 3 * len(cases)

    def check(self, cases: list[LadderCase], outputs: list[LadderOutput]) -> int:
        """Failed operations: each evaluation and each worst-case export."""
        reference = json.loads(REFERENCE.read_text())["values"]
        failed = 3 * max(0, len(cases) - len(outputs))
        for case, out in zip(cases, outputs):
            spec = case.spec
            pess = out.pessimistic.at_initial
            opt = out.optimistic.at_initial
            midpoint = member_value(nominal_midpoint(case.model), case.fsc)
            slack = REL_TOL * max(1.0, abs(midpoint))
            failed += not (_close(pess, reference[reference_key(spec, "pessimistic")])
                           and midpoint <= pess + slack)
            failed += not (_close(opt, reference[reference_key(spec, "optimistic")])
                           and opt <= midpoint + slack)
            worst_ok = (
                out.worst is not None
                and out.worst.worst_case.is_member_of(case.model)
                and out.document == serialize_concrete(out.worst.worst_case)
                and member_value(out.worst.worst_case, case.fsc) <= pess + 1e-8 * max(1.0, abs(pess))
            )
            failed += not worst_ok
        return failed

    def quality(self, cases: list[LadderCase], outputs: list[LadderOutput]) -> dict:
        values = {
            reference_key(case.spec, mode): float(getattr(out, mode).at_initial)
            for case, out in zip(cases, outputs)
            for mode in ("pessimistic", "optimistic")
        }
        text = json.dumps(values, sort_keys=True) + "".join(out.document for out in outputs)
        return {
            # the ladder has no "best": its quality is the pessimistic value
            # of each fixed controller, summed over the ladder
            "best_robust_value": sum(v for k, v in values.items() if k.endswith("/pessimistic")),
            "fsc_nodes": [case.fsc.num_nodes for case in cases],
            "values": values,
            "ladder_digest": _digest(text),
        }

    def combine(self, qualities: list[dict]) -> dict:
        """The quality of the whole ladder from that of its parts, in order."""
        values = {key: value for q in qualities for key, value in q["values"].items()}
        return {
            "best_robust_value": sum(q["best_robust_value"] for q in qualities),
            "fsc_nodes": [n for q in qualities for n in q["fsc_nodes"]],
            "values": values,
            "ladder_digest": _digest("".join(q["ladder_digest"] for q in qualities)),
        }


DESK_SPEC = GridSpec(4, 4, "intercept", view_radius=1, slip_interval=Interval(0.1, 0.4),
                     step_cost=1.0, penalty_cost=100.0)
DESK_CONFIG = RunConfig(method="pip", supervision="qmdp", extractor="kmeans", iterations=10,
                        episodes=64, horizon=50, clusters=9, hidden_size=16, embed_size=8,
                        epochs_per_iteration=8, seed=0)
# learn-random runs 256 episodes rather than 1,024, and the ladder's avoid
# grid is 4x4 rather than 5x5, so that one run repeats a learn-random
# operation a dozen times and each ladder model three times or more: on a
# shared 2-vCPU Xeon VM the median of three 7-second learn-random operations
# moved by a quarter from run to run
LEARN_RANDOM_CONFIG = RunConfig(method="baseline-random", supervision="fib",
                                extractor="qbn-posthoc", iterations=3, episodes=256,
                                horizon=200, hidden_size=16, embed_size=8,
                                epochs_per_iteration=8, seed=0)

WORKLOADS = {
    "desk": PlannerWorkload("desk", DESK_SPEC, DESK_CONFIG),
    "eval-ladder": LadderWorkload(
        "eval-ladder",
        (GridSpec(4, 4, "evade"), GridSpec(4, 4, "avoid"), GridSpec(6, 6, "intercept")),
        clusters=9,
    ),
    "learn-random": PlannerWorkload("learn-random", DESK_SPEC, LEARN_RANDOM_CONFIG),
}

# the same workloads shrunk to a few seconds, for the benchmark's own tests
TINY_SPEC = GridSpec(3, 4, "intercept")
TINY = {
    "desk": PlannerWorkload("desk", TINY_SPEC, replace(
        DESK_CONFIG, iterations=2, episodes=8, horizon=10, hidden_size=6, clusters=3,
        epochs_per_iteration=2)),
    "eval-ladder": LadderWorkload(
        "eval-ladder",
        (GridSpec(4, 3, "evade"), GridSpec(3, 3, "avoid"), GridSpec(3, 4, "intercept")),
        clusters=3, hidden_size=6,
    ),
    "learn-random": PlannerWorkload("learn-random", TINY_SPEC, replace(
        LEARN_RANDOM_CONFIG, iterations=2, episodes=16, horizon=20, hidden_size=6,
        epochs_per_iteration=2)),
}
