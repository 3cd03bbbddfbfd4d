"""Robust finite-state-controller synthesis for interval-uncertain POMDPs."""

from robustfsc.adversary import AdversaryResult, select_worst_case
from robustfsc.extract import build_fsc, kmeans_fit, qbn_fit_posthoc
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import (
    Belief,
    ConcretePomdp,
    Fsc,
    Interval,
    RobustPomdp,
    belief_update,
    nominal_midpoint,
    project_row,
    sample_member,
    validate,
)
from robustfsc.modelio import (
    ModelDocument,
    ModelFormatError,
    parse_fsc,
    parse_model,
    serialize_fsc,
    serialize_model,
)
from robustfsc.planner import IterationRecord, RunConfig, RunResult, run
from robustfsc.rnn import NetworkParams, forward, gradient_check, init_params, train_epochs
from robustfsc.robusteval import (
    RobustChain,
    RobustValues,
    build_chain,
    evaluate_member,
    inner_max,
    inner_min,
    robust_value_iteration,
)
from robustfsc.simulate import TrajectoryDataset, simulate
from robustfsc.solvers import DivergenceError, solve_fib, solve_mdp, supervision_policy

__all__ = [
    "AdversaryResult",
    "Belief",
    "ConcretePomdp",
    "DivergenceError",
    "Fsc",
    "GridSpec",
    "Interval",
    "IterationRecord",
    "ModelDocument",
    "ModelFormatError",
    "NetworkParams",
    "RobustChain",
    "RobustPomdp",
    "RobustValues",
    "RunConfig",
    "RunResult",
    "TrajectoryDataset",
    "belief_update",
    "build_chain",
    "build_fsc",
    "evaluate_member",
    "forward",
    "generate_grid",
    "gradient_check",
    "init_params",
    "inner_max",
    "inner_min",
    "kmeans_fit",
    "nominal_midpoint",
    "parse_fsc",
    "parse_model",
    "project_row",
    "qbn_fit_posthoc",
    "robust_value_iteration",
    "run",
    "sample_member",
    "select_worst_case",
    "serialize_fsc",
    "serialize_model",
    "simulate",
    "solve_fib",
    "solve_mdp",
    "supervision_policy",
    "train_epochs",
    "validate",
]

__version__ = "0.1.0"
