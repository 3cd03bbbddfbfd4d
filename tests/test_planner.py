import numpy as np
import pytest

from conftest import random_rpomdp
from robustfsc.grids import GridSpec, generate_grid
from robustfsc import planner
from robustfsc.modelio import parse_model
from robustfsc.planner import EXTRACTORS, METHODS, IterationRecord, RunConfig, records_to_csv, run, summary_json
from robustfsc.rnn import train_epochs
from robustfsc.robusteval import build_chain, robust_value_iteration

SMALL = dict(iterations=3, episodes=8, horizon=10, hidden_size=6, embed_size=3,
             clusters=3, epochs_per_iteration=2)


def small_config(**overrides):
    merged = {**SMALL, **overrides}
    return RunConfig(**merged)


def small_model(seed=41):
    return random_rpomdp(np.random.default_rng(seed), num_states=4, num_actions=2)


def test_zero_iterations_yields_no_policy():
    result = run(small_config(iterations=0), small_model())
    assert result.records == []
    assert result.best_fsc is None
    assert not result.found_policy
    assert np.isinf(result.best_value)


def test_best_value_monotone_and_consistent():
    result = run(small_config(iterations=4), small_model())
    assert len(result.records) == 4
    best = np.inf
    for rec in result.records:
        best = min(best, rec.robust_value)
        assert rec.best_robust_value == pytest.approx(best)
    assert result.best_value == pytest.approx(best)
    # the stored controller re-evaluates to the reported best value
    values = robust_value_iteration(build_chain(small_model(), result.best_fsc), tol=1e-6)
    assert values.at_initial == pytest.approx(result.best_value, rel=1e-6)


def test_point_interval_model_pip_equals_nominal():
    model = random_rpomdp(np.random.default_rng(42), num_states=4, num_actions=2, degenerate=True)
    res_pip = run(small_config(method="pip"), model)
    res_nom = run(small_config(method="baseline-nominal"), model)
    csv_pip = records_to_csv(res_pip.records)
    csv_nom = records_to_csv(res_nom.records)
    strip = lambda text: ["".join(line.split(",")[:-1]) for line in text.splitlines()]
    assert strip(csv_pip) == strip(csv_nom)  # identical up to wall-clock column


def test_all_methods_run(caplog):
    model = small_model(43)
    assert METHODS == ("pip", "baseline-nominal", "baseline-random")
    for method in METHODS:
        result = run(small_config(method=method, iterations=2), model)
        assert len(result.records) == 2, method
        assert result.found_policy


def test_supervision_and_extractor_variants():
    model = small_model(44)
    for supervision in ("qmdp", "fib"):
        result = run(small_config(supervision=supervision, iterations=1), model)
        assert result.found_policy
    assert EXTRACTORS == ("kmeans", "qbn-posthoc")
    result = run(small_config(extractor="qbn-posthoc", iterations=2, bottleneck=2), model)
    assert result.found_policy
    assert all(rec.fsc_nodes <= 3 ** 2 for rec in result.records)


def test_target_value_stops_early():
    model = small_model(45)
    result = run(small_config(iterations=10, target_value=1e9), model)
    assert len(result.records) == 1  # any finite value satisfies the target


def test_deterministic_csv_modulo_timing():
    model = small_model(46)
    a = run(small_config(), model)
    b = run(small_config(), model)
    strip = lambda recs: [
        (r.iteration, r.train_loss, r.extract_metric, r.fsc_nodes, r.robust_value, r.best_robust_value)
        for r in recs
    ]
    assert strip(a.records) == strip(b.records)
    assert summary_json(a, None) == summary_json(b, None)


def test_csv_schema():
    result = run(small_config(iterations=2), small_model(47))
    text = records_to_csv(result.records)
    lines = text.strip().splitlines()
    assert lines[0] == "iteration,train_loss,extract_metric,fsc_nodes,robust_value,best_robust_value,wall_ms"
    assert len(lines) == 3
    for line in lines[1:]:
        assert len(line.split(",")) == 7
    # non-finite and numpy values print as Python floats do
    record = IterationRecord(iteration=3, train_loss=float("nan"), extract_metric=np.float64(0.25), fsc_nodes=2,
                             robust_value=np.inf, best_robust_value=-np.inf, wall_ms=1.5)
    assert records_to_csv([record]).splitlines()[1] == "3,nan,0.25,2,inf,-inf,1.5"


# 95% of the episodes start at the goal, so a batch of 32 often has no step
MOSTLY_AT_GOAL = """\
rpomdp v1
states 2
actions 2
observations 2
obs 0 0
obs 1 1
trans 0 0 0 0.3 0.6
trans 0 0 1 0.4 0.7
trans 0 1 0 1.0 1.0
trans 1 0 1 1.0 1.0
trans 1 1 1 1.0 1.0
cost 0 0 1.0
cost 0 1 1.0
cost 1 0 0.0
cost 1 1 0.0
goal 1
init 0 0.05
init 1 0.95
"""


def test_train_loss_is_the_mean_of_the_last_epoch(monkeypatch):
    seen = []

    def recording(params, dataset, epochs, **options):
        params, trace = train_epochs(params, dataset, epochs, **options)
        seen.append((int(np.count_nonzero(dataset.lengths)), epochs, trace))
        return params, trace

    monkeypatch.setattr(planner, "train_epochs", recording)
    result = run(RunConfig(iterations=3, episodes=64, horizon=10, clusters=2), parse_model(MOSTLY_AT_GOAL).model)
    assert len(seen) == len(result.records) == 3
    for record, (with_steps, epochs, trace) in zip(result.records, seen):
        # every epoch batches the episodes that have a step, and only those
        per_epoch = -(-with_steps // planner.BATCH_SIZE)
        assert len(trace) == epochs * per_epoch
        assert record.train_loss == float(np.mean(trace[-per_epoch:]))


def test_invalid_config_rejected():
    for bad in (dict(method="nope"), dict(method="baseline-lower"), dict(extractor="qbn-e2e"),
                *(dict(learning_rate=lr) for lr in (0.0, -1.0, float("nan"), float("inf")))):
        with pytest.raises(ValueError):
            run(small_config(**bad), small_model())
    with pytest.raises(ValueError):
        run(small_config(episodes=0), small_model())


def test_invalid_model_rejected():
    model = small_model()
    model.initial_belief = model.initial_belief * 0.5
    with pytest.raises(ValueError):
        run(small_config(), model)


def test_runs_on_grid_model():
    model = generate_grid(GridSpec(3, 4, "intercept"))
    result = run(small_config(iterations=2, episodes=6, horizon=8), model)
    assert len(result.records) == 2
    assert result.records[-1].fsc_nodes >= 1


def test_baselines_never_select_worst_case(monkeypatch):
    import robustfsc.planner as planner_mod

    def boom(*_args, **_kwargs):
        raise AssertionError("adversary invoked")

    monkeypatch.setattr(planner_mod, "select_worst_case", boom)
    model = small_model(48)
    for method in ("baseline-nominal", "baseline-random"):
        run(small_config(method=method, iterations=2), model)
    with pytest.raises(AssertionError, match="adversary invoked"):
        run(small_config(method="pip", iterations=2), model)


def test_defaults_match_documented_configuration():
    cfg = RunConfig()
    assert cfg.iterations == 50
    assert cfg.episodes == 256
    assert cfg.horizon == 200
    assert cfg.hidden_size == 16
    assert cfg.clusters == 9
    assert cfg.learning_rate == 1e-3
    assert planner.BATCH_SIZE == 32
    assert cfg.method == "pip"
