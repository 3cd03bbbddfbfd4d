"""Command-line interface.

Verbs: solve, eval-fsc, worst-case, gen-grid, validate.  Exit codes: 0 on
success, 2 on validation or format failure, 3 on numerical divergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from robustfsc.adversary import select_worst_case
from robustfsc.extract import QUANT_LEVELS
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import Interval
from robustfsc.modelio import (
    ModelFormatError,
    parse_fsc,
    parse_model,
    serialize_concrete,
    serialize_fsc,
    serialize_model,
)
from robustfsc.planner import (
    EXTRACTORS,
    METHODS,
    SUPERVISIONS,
    RunConfig,
    records_to_csv,
    run,
    summary_json,
)
from robustfsc.robusteval import build_chain, robust_value_iteration
from robustfsc.solvers import DivergenceError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_DIVERGED = 3


def _load_model(path: str):
    return parse_model(Path(path).read_text()).model


def _load_fsc(path: str, model):
    fsc = parse_fsc(Path(path).read_text())
    if fsc.num_observations != model.num_observations:
        raise ModelFormatError(
            0,
            f"controller covers {fsc.num_observations} observations, "
            f"model has {model.num_observations}",
        )
    return fsc


def _cmd_validate(args) -> int:
    _load_model(args.model)  # parse_model validates and raises ModelFormatError on any issue
    print("model ok")
    return EXIT_OK


def _cmd_gen_grid(args) -> int:
    spec = GridSpec(
        width=args.width,
        height=args.height,
        kind=args.kind,
        view_radius=args.view_radius,
        slip_interval=Interval(args.slip_lo, args.slip_hi),
        step_cost=args.step_cost,
        penalty_cost=args.penalty_cost,
    )
    model = generate_grid(spec, args.seed)
    text = serialize_model(model)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} ({model.num_states} states, {model.num_observations} observations)")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_eval_fsc(args) -> int:
    model = _load_model(args.model)
    fsc = _load_fsc(args.fsc, model)
    mode = "optimistic" if args.optimistic else "pessimistic"
    values = robust_value_iteration(build_chain(model, fsc), mode)
    if values.diagnosis:
        print(f"warning: {values.diagnosis}", file=sys.stderr)
    print(values.at_initial)
    if args.out:
        Path(args.out).write_text(f"{values.at_initial}\n")
    return EXIT_OK


def _cmd_worst_case(args) -> int:
    model = _load_model(args.model)
    fsc = _load_fsc(args.fsc, model)
    values = robust_value_iteration(build_chain(model, fsc))
    if not np.isfinite(values.at_initial):
        print(f"error: {values.diagnosis or 'robust value is infinite'}", file=sys.stderr)
        return EXIT_DIVERGED
    result = select_worst_case(model, fsc, values)
    text = serialize_concrete(result.worst_case)
    if args.out:
        Path(args.out).write_text(text)
        print(f"wrote {args.out} (proxy objective {result.proxy_objective})")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_solve(args) -> int:
    model = _load_model(args.model)
    config = RunConfig(**{f.name: getattr(args, f.name) for f in fields(RunConfig)})
    result = run(config, model)

    out_dir = Path(args.out) if args.out else None
    fsc_path = None
    if out_dir is not None:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "run.csv").write_text(records_to_csv(result.records))
        if result.best_fsc is not None:
            fsc_path = str(out_dir / "best_fsc.fsc")
            Path(fsc_path).write_text(serialize_fsc(result.best_fsc))
        (out_dir / "summary.json").write_text(summary_json(result, fsc_path))

    for record in result.records:
        print(
            f"iter {record.iteration:3d}  loss {record.train_loss:.4f}  "
            f"nodes {record.fsc_nodes:3d}  fidelity {record.fidelity:.3f}  "
            f"robust {record.robust_value:.6g}  best {record.best_robust_value:.6g}"
        )
    if result.found_policy:
        print(f"best robust value: {result.best_value}")
    else:
        print("no policy (zero iterations or no finite evaluation)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="robustfsc",
        description="Finite-state controller synthesis for interval-uncertain POMDPs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a model document")
    p.add_argument("model")
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen-grid", help="generate a grid-world model document")
    p.add_argument("--kind", required=True, choices=("evade", "intercept", "avoid"))
    p.add_argument("--width", type=int, default=5)
    p.add_argument("--height", type=int, default=5)
    p.add_argument("--view-radius", type=int, default=GridSpec.view_radius)
    p.add_argument("--slip-lo", type=float, default=GridSpec.slip_interval.lo)
    p.add_argument("--slip-hi", type=float, default=GridSpec.slip_interval.hi)
    p.add_argument("--step-cost", type=float, default=GridSpec.step_cost)
    p.add_argument("--penalty-cost", type=float, default=GridSpec.penalty_cost)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen_grid)

    p = sub.add_parser("eval-fsc", help="robust value of a controller on a model")
    p.add_argument("--model", required=True)
    p.add_argument("--fsc", required=True)
    p.add_argument("--optimistic", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval_fsc)

    p = sub.add_parser("worst-case", help="worst-case member for a controller")
    p.add_argument("--model", required=True)
    p.add_argument("--fsc", required=True)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_worst_case)

    p = sub.add_parser("solve", help="run the iterative planner")
    p.add_argument("--model", required=True)
    p.add_argument("--method", choices=METHODS,
                   help="what each round trains on: pip, the worst member for the previous "
                        "round's controller (the interval-midpoint member in round one); "
                        "baseline-nominal, the midpoint member; baseline-random, a member "
                        "drawn uniformly from the intervals")
    p.add_argument("--supervision", choices=SUPERVISIONS)
    p.add_argument("--extractor", choices=EXTRACTORS,
                   help="controller extraction after training: kmeans clusters the hidden "
                        "states, qbn-posthoc fits a quantized bottleneck to them")
    p.add_argument("--iters", dest="iterations", type=int)
    p.add_argument("--episodes", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--hidden", dest="hidden_size", type=int)
    p.add_argument("--clusters", type=int)
    p.add_argument("--bottleneck", type=int)
    p.add_argument("--quant-levels", type=int, choices=QUANT_LEVELS)
    p.add_argument("--epochs", dest="epochs_per_iteration", type=int)
    p.add_argument("--lr", dest="learning_rate", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--target-value", type=float)
    p.add_argument("--out", help="directory for run.csv, summary.json, best_fsc.fsc")
    p.set_defaults(func=_cmd_solve, **asdict(RunConfig()))  # every planner default lives in RunConfig

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
