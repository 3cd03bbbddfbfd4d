import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import interval_rows
from robustfsc import cli
from robustfsc.cli import main
from robustfsc.model import Fsc
from robustfsc.modelio import parse_model, serialize_fsc
from robustfsc.planner import RunConfig, RunResult


SELF_LOOP = """\
rpomdp v1
states 2
actions 1
observations 2
obs 0 0
obs 1 1
trans 0 0 0 0.4 0.6
trans 0 0 1 0.4 0.6
trans 1 0 1 1 1
cost 0 0 1
cost 1 0 0
goal 1
init 0 1
"""


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "loop.rpomdp"
    path.write_text(SELF_LOOP)
    return str(path)


@pytest.fixture
def fsc_file(tmp_path):
    table = np.zeros((1, 2, 1))
    table[0, :, 0] = 1.0
    fsc = Fsc(1, 0, table, np.zeros((1, 2), dtype=int))
    path = tmp_path / "policy.fsc"
    path.write_text(serialize_fsc(fsc))
    return str(path)


def test_validate_ok(model_file, capsys):
    assert main(["validate", model_file]) == 0
    assert "model ok" in capsys.readouterr().out


def test_validate_bad_model(tmp_path, capsys):
    bad = tmp_path / "bad.rpomdp"
    bad.write_text(SELF_LOOP.replace("init 0 1", "init 0 0.5"))
    assert main(["validate", str(bad)]) == 2


@pytest.mark.parametrize(
    "rows",
    [("trans 0 0 0 0.5000000005 0.6", "trans 0 0 1 0.5 0.6"),
     ("trans 0 0 0 0.4 0.4", "trans 0 0 1 0.5999999999 0.5999999999")],
    ids=["lower-bounds-sum-to-1.0000000005", "point-intervals-sum-to-0.9999999999"],
)
def test_validate_box_missing_the_simplex(tmp_path, capsys, rows):
    bad = tmp_path / "bad.rpomdp"
    bad.write_text(SELF_LOOP.replace("trans 0 0 0 0.4 0.6", rows[0]).replace("trans 0 0 1 0.4 0.6", rows[1]))
    assert main(["validate", str(bad)]) == 2
    assert "model ok" not in capsys.readouterr().out


def test_infinite_cost_is_invalid(tmp_path, capsys, fsc_file):
    bad = tmp_path / "bad.rpomdp"
    bad.write_text(SELF_LOOP.replace("cost 0 0 1", "cost 0 0 inf"))
    assert main(["validate", str(bad)]) == 2
    assert "state 0 action 0: infinite cost inf" in capsys.readouterr().err
    assert main(["eval-fsc", "--model", str(bad), "--fsc", fsc_file]) == 2


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.rpomdp"
    bad.write_text(SELF_LOOP.replace("trans 0 0 0 0.4 0.6", "trans 0 0 0 0 0.6"))
    assert main(["validate", str(bad)]) == 2
    assert "error" in capsys.readouterr().err


def test_malformed_fsc_exit_code(model_file, tmp_path, capsys):
    bad = tmp_path / "bad.fsc"
    for text, line in (("fsc v1\nnodes\n", 2),
                       ("fsc v1\nnodes 1\ninit 0\nact 0 0 100000000000 1\nmem 0 0 0\n", 4)):
        bad.write_text(text)
        assert main(["eval-fsc", "--model", model_file, "--fsc", str(bad)]) == 2
        assert f"line {line}" in capsys.readouterr().err


def test_eval_fsc_worst_self_loop(model_file, fsc_file, capsys):
    assert main(["eval-fsc", "--model", model_file, "--fsc", fsc_file]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(2.5, abs=1e-6)


def test_eval_fsc_optimistic(model_file, fsc_file, capsys):
    assert main(["eval-fsc", "--model", model_file, "--fsc", fsc_file,
                 "--optimistic"]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value == pytest.approx(1.0 / 0.6, abs=1e-6)


def test_worst_case_roundtrips_and_is_member(model_file, fsc_file, tmp_path, capsys):
    out = tmp_path / "worst.rpomdp"
    assert main(["worst-case", "--model", model_file, "--fsc", fsc_file, "--out", str(out)]) == 0
    doc = parse_model(out.read_text())
    parent = parse_model(Path(model_file).read_text()).model
    assert doc.model.num_states == parent.num_states
    worst = interval_rows(doc.model)
    row = worst[(0, 0)]
    assert row[0].lo == row[0].hi == pytest.approx(0.6)
    # membership: every point interval within the parent's interval
    for key, parent_row in interval_rows(parent).items():
        for sp, iv in worst[key].items():
            assert parent_row[sp].lo - 1e-12 <= iv.lo <= parent_row[sp].hi + 1e-12


def test_gen_grid_writes_valid_model(tmp_path, capsys):
    out = tmp_path / "grid.rpomdp"
    assert main(["gen-grid", "--kind", "intercept", "--width", "4", "--height", "4",
                 "--out", str(out)]) == 0
    model = parse_model(out.read_text()).model
    assert model.num_states == 4 * 4 * 4 * 4 * 2


def test_gen_grid_too_small(capsys):
    assert main(["gen-grid", "--kind", "evade", "--width", "3", "--height", "3",
                 "--view-radius", "4"]) == 2


def test_gen_grid_names_the_slip_condition(tmp_path, capsys):
    out = tmp_path / "grid.rpomdp"
    grid = ["gen-grid", "--kind", "intercept", "--width", "4", "--height", "4", "--out", str(out)]
    assert main(grid + ["--slip-lo", "0.5", "--slip-hi", "0.4"]) == 2
    assert capsys.readouterr().err == "error: slip_interval must satisfy 0 < lo <= hi < 1, got [0.5, 0.4]\n"
    assert not out.exists()
    assert main(grid + ["--slip-lo", "0.4", "--slip-hi", "0.4"]) == 0  # a point interval is valid


def test_solve_refuses_a_negative_seed(model_file, capsys):
    solve = ["solve", "--model", model_file, "--iters", "1", "--episodes", "4", "--horizon", "5"]
    assert main(solve + ["--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"
    assert main(solve + ["--seed", "0"]) == 0


def test_solve_refuses_a_nan_target_value(model_file, tmp_path, capsys):
    # NaN compares false with every value, so the run would never stop early
    solve = ["solve", "--model", model_file, "--iters", "1", "--episodes", "4", "--horizon", "5",
             "--out", str(tmp_path / "run")]
    assert main(solve + ["--target-value", "nan"]) == 2
    assert capsys.readouterr().err == "error: target_value must not be NaN\n"
    assert not (tmp_path / "run").exists()
    assert main(solve + ["--target-value", "1e9"]) == 0


def test_solve_refuses_a_negative_iteration_count(model_file, tmp_path, capsys):
    # zero iterations is a valid run, so only a negative count is refused
    solve = ["solve", "--model", model_file, "--episodes", "4", "--horizon", "5", "--out", str(tmp_path / "run")]
    assert main(solve + ["--iters", "-1"]) == 2
    assert capsys.readouterr().err == "error: iterations must be nonnegative\n"
    assert main(solve + ["--iters", "0"]) == 0


def test_solve_writes_artifacts(tmp_path, capsys):
    model = tmp_path / "grid.rpomdp"
    assert main(["gen-grid", "--kind", "avoid", "--width", "3", "--height", "3",
                 "--out", str(model)]) == 0
    out = tmp_path / "run"
    code = main(["solve", "--model", str(model), "--iters", "2", "--episodes", "6",
                 "--horizon", "8", "--hidden", "6", "--clusters", "3", "--epochs", "2",
                 "--seed", "1", "--out", str(out)])
    assert code == 0
    csv_text = (out / "run.csv").read_text()
    assert csv_text.splitlines()[0] == (
        "iteration,train_loss,extract_metric,fsc_nodes,robust_value,best_robust_value,wall_ms"
    )
    summary = json.loads((out / "summary.json").read_text())
    assert summary["config"]["seed"] == 1
    assert summary["iterations_run"] == 2
    assert (out / "best_fsc.fsc").exists()
    # the emitted controller evaluates on the model through the CLI
    assert main(["eval-fsc", "--model", str(model), "--fsc", str(out / "best_fsc.fsc")]) == 0


def test_solve_flags_set_their_config_fields(model_file, monkeypatch, capsys):
    configs = []
    monkeypatch.setattr(cli, "run", lambda config, model: configs.append(config) or RunResult(config, None, np.inf))
    assert main(["solve", "--model", model_file]) == 0
    assert configs.pop() == RunConfig()
    flags = {
        "--method": ("method", "baseline-random"), "--supervision": ("supervision", "fib"),
        "--extractor": ("extractor", "qbn-posthoc"), "--iters": ("iterations", 3),
        "--episodes": ("episodes", 5), "--horizon": ("horizon", 7), "--hidden": ("hidden_size", 4),
        "--clusters": ("clusters", 2), "--bottleneck": ("bottleneck", 3), "--quant-levels": ("quant_levels", 2),
        "--epochs": ("epochs_per_iteration", 2), "--lr": ("learning_rate", 0.01), "--seed": ("seed", 5),
        "--target-value": ("target_value", 1.5),
    }
    for flag, (name, value) in flags.items():
        assert getattr(RunConfig(), name) != value
        assert main(["solve", "--model", model_file, flag, str(value)]) == 0
        assert configs.pop() == replace(RunConfig(), **{name: value})


@pytest.mark.parametrize("supervision", ["qmdp", "fib"])
def test_solve_with_costs_past_1e9(tmp_path, supervision, capsys):
    # both bounds once stopped at values past 1e9 and the run exited 3
    model = tmp_path / "grid.rpomdp"
    assert main(["gen-grid", "--kind", "intercept", "--width", "4", "--height", "4",
                 "--penalty-cost", "1e9", "--out", str(model)]) == 0
    assert main(["solve", "--model", str(model), "--iters", "1", "--episodes", "8", "--horizon", "20",
                 "--supervision", supervision]) == 0
    assert float(capsys.readouterr().out.splitlines()[-1].split(":")[1]) > 1e9


@pytest.mark.parametrize("verb, flag", [("eval-fsc", "--tol"), ("worst-case", "--tol"), ("solve", "--vi-tol")])
def test_no_tolerance_flags(verb, flag, capsys):
    # exact evaluation takes no tolerance
    with pytest.raises(SystemExit):
        main([verb, "--help"])
    assert flag not in capsys.readouterr().out


def test_solve_deterministic_modulo_timing(tmp_path):
    model = tmp_path / "grid.rpomdp"
    main(["gen-grid", "--kind", "avoid", "--width", "3", "--height", "3", "--out", str(model)])
    args = ["solve", "--model", str(model), "--iters", "2", "--episodes", "6",
            "--horizon", "8", "--hidden", "6", "--clusters", "3", "--epochs", "2", "--seed", "3"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0

    def strip_timing(path):
        lines = (path / "run.csv").read_text().splitlines()
        return [",".join(line.split(",")[:-1]) for line in lines]

    assert strip_timing(out_a) == strip_timing(out_b)
    assert (out_a / "summary.json").read_text().replace(str(out_a), "X") == \
        (out_b / "summary.json").read_text().replace(str(out_b), "X")
    assert (out_a / "best_fsc.fsc").read_text() == (out_b / "best_fsc.fsc").read_text()


def test_missing_file_is_invalid_exit(capsys):
    assert main(["validate", "/nonexistent/model.rpomdp"]) == 2
