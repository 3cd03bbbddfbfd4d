"""Acceptance gate: each criterion prints one PASS line with its measurements.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.  The
seed-sweep comparison of the adversarial method against domain randomization
is reported, not asserted; it is skipped unless ROBUSTFSC_SOFT=1 because it
re-runs the end-to-end configuration ten times.
"""

import os
import time

import numpy as np
import pytest

from conftest import random_feasible_boxes, random_fsc, random_rpomdp
from oracles import box_simplex_opt, gradient_check, inner_max, product_chain_cost
from robustfsc.adversary import proxy_objective_of, select_worst_case
from robustfsc.cli import main as cli_main
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import Interval, nominal_midpoint, sample_member
from robustfsc.modelio import serialize_model
from robustfsc.planner import RunConfig, run
from robustfsc.rnn import init_params, loss
from robustfsc.robusteval import build_chain, robust_value_iteration
from robustfsc.simulate import Episode, Step, TrajectoryDataset
from robustfsc.solvers import solve_fib, solve_mdp


def report(name: str, detail: str) -> None:
    print(f"[acceptance] {name}: PASS ({detail})")


# ---------------------------------------------------------------------------
# shared instance suite: 20 interval models x small controllers, 5 degenerate

@pytest.fixture(scope="module")
def instance_suite():
    rng = np.random.default_rng(2024)
    suite = []
    for i in range(20):
        model = random_rpomdp(rng, num_states=int(rng.integers(2, 5)))
        fsc = random_fsc(rng, int(rng.integers(1, 3)), model.num_observations, model.num_actions)
        suite.append((model, fsc, False))
    for i in range(5):
        model = random_rpomdp(rng, num_states=int(rng.integers(2, 5)), degenerate=True)
        fsc = random_fsc(rng, int(rng.integers(1, 3)), model.num_observations, model.num_actions)
        suite.append((model, fsc, True))
    return suite


@pytest.fixture(scope="module")
def evaluated_suite(instance_suite):
    out = []
    for model, fsc, degenerate in instance_suite:
        chain = build_chain(model, fsc)
        pess = robust_value_iteration(chain, "pessimistic", tol=1e-12)
        opt = robust_value_iteration(chain, "optimistic", tol=1e-12)
        out.append((model, fsc, degenerate, pess, opt))
    return out


def test_inner_problem_exactness():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        lo, hi = random_feasible_boxes(rng, n)
        vals = rng.uniform(-10.0, 10.0, size=n)
        cases.append((vals, lo, hi, [Interval(float(a), float(b)) for a, b in zip(lo, hi)]))

    start = time.perf_counter()
    results = [inner_max(vals, ivs) for vals, _lo, _hi, ivs in cases]
    greedy_seconds = time.perf_counter() - start
    assert greedy_seconds < 1.0

    worst_gap = 0.0
    for (vals, lo, hi, _ivs), (obj, p) in zip(cases, results):
        oracle = box_simplex_opt(vals, lo, hi, maximize=True)
        worst_gap = max(worst_gap, abs(obj - oracle))
        assert abs(obj - oracle) <= 1e-12
        assert abs(p.sum() - 1.0) < 1e-12
    report("inner-problem exactness",
           f"1000 instances, max |greedy - oracle| = {worst_gap:.2e}, greedy {greedy_seconds*1e3:.0f} ms")


def test_robust_vi_dominates_sampled_members(evaluated_suite):
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    max_violation = -np.inf
    eq_gap = 0.0
    for model, fsc, degenerate, pess, _opt in evaluated_suite:
        member_values = []
        for _ in range(200):
            member = sample_member(model, int(rng.integers(1 << 30)))
            member_values.append(product_chain_cost(member, fsc))
        worst_sampled = max(member_values)
        assert pess.at_initial >= worst_sampled - 1e-8
        max_violation = max(max_violation, worst_sampled - pess.at_initial)
        if degenerate:
            gap = abs(pess.at_initial - member_values[0])
            eq_gap = max(eq_gap, gap)
            assert gap <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report("robust VI vs brute force",
           f"25 instances x 200 members, max (sampled - robust) = {max_violation:.2e}, "
           f"degenerate gap {eq_gap:.2e}, {elapsed:.1f} s")


def test_conservativeness_bounds(evaluated_suite):
    rng = np.random.default_rng(100)
    checked = 0
    for model, fsc, _deg, pess, opt in evaluated_suite:
        for _ in range(100):
            member = sample_member(model, int(rng.integers(1 << 30)))
            value = product_chain_cost(member, fsc)
            assert value <= pess.at_initial + 1e-8
            assert opt.at_initial <= value + 1e-8
            checked += 1
    report("conservativeness", f"{checked} sampled members within [optimistic, pessimistic] at 1e-8")


def test_adversary_sandwich(evaluated_suite):
    rng = np.random.default_rng(101)
    beats_midpoint = 0
    total = 0
    for model, fsc, _deg, pess, _opt in evaluated_suite:
        result = select_worst_case(model, fsc, pess)
        assert result.worst_case.is_member_of(model)
        v_worst = product_chain_cost(result.worst_case, fsc)
        v_mid = product_chain_cost(nominal_midpoint(model), fsc)
        total += 1
        if v_worst >= v_mid - 1e-9:
            beats_midpoint += 1
        assert v_worst <= pess.at_initial + 1e-8  # static never exceeds dynamic
        for _ in range(100):
            member = sample_member(model, int(rng.integers(1 << 30)))
            assert proxy_objective_of(result, member) <= result.proxy_objective + 1e-9
    fraction = beats_midpoint / total
    assert fraction >= 0.9
    report("adversary sandwich",
           f"worst-case member >= midpoint on {beats_midpoint}/{total} instances "
           f"({100*fraction:.0f}%), proxy and dynamic bounds hold on 100%")


def test_bptt_gradient_check():
    rng = np.random.default_rng(5)
    num_obs, num_actions = 4, 3
    episodes = []
    for _ in range(3):
        steps = [Step(int(rng.integers(num_obs)), int(rng.integers(num_actions)),
                      rng.dirichlet(np.ones(num_actions)), np.ones(1))
                 for _ in range(5)]
        episodes.append(Episode(steps, 5.0, True))
    dataset = TrajectoryDataset(episodes, num_obs, num_actions, 0, 5, "gradcheck")
    params = init_params(num_obs, num_actions, hidden_size=4, embed_size=3, rng_seed=1)
    start = time.perf_counter()
    err = gradient_check(params, dataset)
    elapsed = time.perf_counter() - start
    assert err < 1e-6
    assert elapsed < 5.0
    report("BPTT gradient check", f"max relative error {err:.2e} in {elapsed:.2f} s")


def test_supervision_ordering():
    rng = np.random.default_rng(6)
    worst_gap = -np.inf
    for _ in range(10):
        model = random_rpomdp(rng, num_states=int(rng.integers(2, 5)))
        member = nominal_midpoint(model)
        mdp_vals = solve_mdp(member, tol=1e-12)
        vectors = solve_fib(member, tol=1e-12)
        for _ in range(100):
            b = rng.dirichlet(np.ones(model.num_states))
            gap = mdp_vals.action_values(b) - vectors.action_values(b)
            worst_gap = max(worst_gap, float(gap.max()))
            assert np.all(gap <= 1e-9)

    # fully observable: both bounds collapse onto the optimal action values
    collapse = 0.0
    for _ in range(5):
        model = random_rpomdp(rng, num_states=3)
        observable = type(model)(
            num_states=model.num_states, num_actions=model.num_actions,
            num_observations=model.num_states, obs_of=np.arange(model.num_states),
            transitions=model.transitions, cost=model.cost, goals=model.goals,
            initial_belief=model.initial_belief,
        )
        member = nominal_midpoint(observable)
        mdp_vals = solve_mdp(member, tol=1e-12)
        vectors = solve_fib(member, tol=1e-12)
        collapse = max(collapse, float(np.max(np.abs(vectors.alpha - mdp_vals.q.T))))
        assert collapse < 1e-8
    report("supervision ordering",
           f"QMDP <= FIB at 1e-9 on 1000 beliefs, fully observable collapse {collapse:.2e}")


def test_loss_anchor():
    params = init_params(2, 4, hidden_size=4, embed_size=2, rng_seed=0).zeros_like()
    target = np.full(4, 0.25)
    steps = [Step(0, 0, target, np.ones(1)) for _ in range(3)]
    dataset = TrajectoryDataset([Episode(steps, 0.0, True)], 2, 4, 0, 3, "anchor")
    value = loss(params, dataset)
    gap = abs(value - np.log(4.0))
    assert gap <= 1e-12
    report("loss anchor", f"uniform cross-entropy {value:.12f} vs ln 4, gap {gap:.1e}")


E2E_SPEC = GridSpec(4, 4, "intercept", view_radius=1,
                    slip_interval=Interval(0.1, 0.4), step_cost=1.0, penalty_cost=100.0)
E2E_CONFIG = dict(iterations=10, episodes=64, horizon=50, clusters=9,
                  hidden_size=16, embed_size=8, epochs_per_iteration=8)


def test_end_to_end_desk_run():
    model = generate_grid(E2E_SPEC)
    config = RunConfig(method="pip", supervision="qmdp", extractor="kmeans",
                       seed=0, **E2E_CONFIG)
    start = time.perf_counter()
    result = run(config, model)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    assert len(result.records) == 10
    best = np.inf
    for rec in result.records:
        best = min(best, rec.robust_value)
        assert rec.best_robust_value == pytest.approx(best)
    assert np.isfinite(result.best_value)
    assert result.best_fsc is not None
    report("end-to-end desk run",
           f"10 iterations in {elapsed:.0f} s, best robust value {result.best_value:.2f}, "
           f"{result.best_fsc.num_nodes} controller nodes")


def test_determinism_byte_identical_csv(tmp_path):
    model_path = tmp_path / "grid.rpomdp"
    model_path.write_text(serialize_model(generate_grid(GridSpec(3, 4, "intercept"))))
    args = ["solve", "--model", str(model_path), "--iters", "3", "--episodes", "8",
            "--horizon", "10", "--hidden", "6", "--clusters", "3", "--epochs", "2",
            "--seed", "11"]
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0

    csv_a = (out_a / "run.csv").read_text()
    csv_b = (out_b / "run.csv").read_text()
    # wall_ms is real timing and necessarily differs between runs; every
    # other byte of the CSV must agree (see the decisions note on this
    # deliberate exclusion)
    strip = lambda text: "\n".join(",".join(ln.split(",")[:-1]) for ln in text.splitlines())
    assert strip(csv_a) == strip(csv_b)
    assert (out_a / "best_fsc.fsc").read_bytes() == (out_b / "best_fsc.fsc").read_bytes()
    sanitize = lambda p, d: (p / "summary.json").read_text().replace(str(d), "OUT")
    assert sanitize(out_a, out_a) == sanitize(out_b, out_b)
    report("determinism", "two runs byte-identical in all CSV columns except wall_ms")


@pytest.mark.skipif(os.environ.get("ROBUSTFSC_SOFT") != "1",
                    reason="seed sweep reruns the desk configuration 10x; set ROBUSTFSC_SOFT=1")
def test_soft_seed_sweep_adversarial_vs_randomization():
    model = generate_grid(E2E_SPEC)
    wins = 0
    rows = []
    for seed in range(5):
        pip_cfg = RunConfig(method="pip", seed=seed, **E2E_CONFIG)
        rnd_cfg = RunConfig(method="baseline-random", seed=seed, **E2E_CONFIG)
        v_pip = run(pip_cfg, model).best_value
        v_rnd = run(rnd_cfg, model).best_value
        rows.append((seed, v_pip, v_rnd))
        if v_pip <= v_rnd:
            wins += 1
    for seed, v_pip, v_rnd in rows:
        print(f"[soft] seed {seed}: adversarial {v_pip:.2f} vs randomized {v_rnd:.2f}")
    report("soft seed sweep (reported, not asserted)",
           f"adversarial <= randomized on {wins}/5 seeds")
