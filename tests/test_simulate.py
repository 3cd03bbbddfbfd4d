import tracemalloc

import numpy as np
import pytest

from conftest import random_rpomdp
from oracles import belief_update, from_rows, product_chain_cost, simulate_reference
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import Fsc, Interval, RobustPomdp, nominal_midpoint, sample_member
from robustfsc.simulate import DRAW_BLOCK, simulate
from robustfsc.solvers import solve_fib, solve_mdp


DATASET_ARRAYS = ("observations", "actions", "targets", "lengths", "costs", "reached_goal")
DATASET_METADATA = ("num_observations", "num_actions", "seed", "horizon", "model_hash")


def same_dataset(a, b):
    """Every array equal in shape, dtype and values, and every metadata field equal."""
    arrays = [(getattr(a, name), getattr(b, name)) for name in DATASET_ARRAYS]
    return (all(x.dtype == y.dtype and np.array_equal(x, y) for x, y in arrays)
            and all(getattr(a, name) == getattr(b, name) for name in DATASET_METADATA))


def two_step_chain():
    m = from_rows(
        RobustPomdp,
        num_states=3, num_actions=1, num_observations=3,
        obs_of=np.arange(3),
        transitions={(0, 0): {1: Interval(1.0, 1.0)},
                     (1, 0): {2: Interval(1.0, 1.0)},
                     (2, 0): {2: Interval(1.0, 1.0)}},
        cost={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 0.0},
        goals=frozenset({2}),
        initial_belief=np.array([1.0, 0.0, 0.0]),
    )
    return nominal_midpoint(m)


def test_start_on_goal_gives_empty_episodes():
    member = two_step_chain()
    member.initial_belief = np.array([0.0, 0.0, 1.0])
    ds = simulate(member, solve_mdp(member), num_episodes=5, horizon=10, rng_seed=0)
    assert ds.observations.shape == (5, 0) and ds.targets.shape == (5, 0, 1)
    assert not ds.lengths.any() and not ds.costs.any() and ds.reached_goal.all()


def test_deterministic_two_step_chain():
    member = two_step_chain()
    ds = simulate(member, solve_mdp(member), num_episodes=8, horizon=10, rng_seed=1)
    assert (ds.lengths == 2).all() and (ds.costs == 2.0).all() and ds.reached_goal.all()
    assert ds.observations.tolist() == [[0, 1]] * 8


def test_defaults_recorded_in_metadata():
    member = two_step_chain()
    ds = simulate(member, solve_mdp(member), num_episodes=256, horizon=200, rng_seed=7)
    assert ds.num_episodes == 256
    assert ds.horizon == 200
    assert ds.seed == 7
    assert len(ds.model_hash) == 16


def test_byte_identical_given_seed():
    rng = np.random.default_rng(2)
    member = nominal_midpoint(random_rpomdp(rng, num_states=4, num_actions=2))
    sup = solve_mdp(member)
    a = simulate(member, sup, num_episodes=16, horizon=12, rng_seed=5)
    b = simulate(member, sup, num_episodes=16, horizon=12, rng_seed=5)
    assert same_dataset(a, b)
    c = simulate(member, sup, num_episodes=16, horizon=12, rng_seed=6)
    assert not same_dataset(a, c)


def test_recorded_beliefs_replay_consistently():
    rng = np.random.default_rng(3)
    member = nominal_midpoint(random_rpomdp(rng, num_states=4, num_actions=2))
    sup = solve_mdp(member)
    ds, episodes = simulate_reference(member, sup, num_episodes=10, horizon=15, rng_seed=4)
    assert same_dataset(simulate(member, sup, num_episodes=10, horizon=15, rng_seed=4), ds)
    for ep in episodes:
        for st in ep.steps:
            assert abs(st.belief.sum() - 1.0) < 1e-9
        for prev, nxt in zip(ep.steps, ep.steps[1:]):
            replayed = belief_update(member, prev.belief, prev.action, nxt.observation)
            assert np.allclose(replayed, nxt.belief, atol=1e-12)
        if ep.steps:  # episodes starting on a goal record nothing
            assert np.allclose(ep.steps[0].belief, member.initial_belief)


def test_target_distributions_are_dirac_on_argmin():
    rng = np.random.default_rng(6)
    member = nominal_midpoint(random_rpomdp(rng, num_states=4, num_actions=3))
    sup = solve_mdp(member)
    ds = simulate(member, sup, num_episodes=10, horizon=10, rng_seed=2)
    reference, episodes = simulate_reference(member, sup, num_episodes=10, horizon=10, rng_seed=2)
    assert same_dataset(ds, reference)  # so the oracle's beliefs are the ones simulate tracked
    for row, ep in enumerate(episodes):
        for t, st in enumerate(ep.steps):
            target = ds.targets[row, t]
            assert target.sum() == 1.0
            assert target.max() == 1.0
            expect = int(np.argmin(sup.action_values(st.belief)))
            assert ds.actions[row, t] == expect == int(np.argmax(target))


def test_mean_cost_matches_linear_solve_within_three_se():
    # single-action 3-state chain with a stochastic loop; compare the
    # empirical mean against the exact chain cost from a linear solve
    m = from_rows(
        RobustPomdp,
        num_states=3, num_actions=1, num_observations=3,
        obs_of=np.arange(3),
        transitions={(0, 0): {0: Interval(0.3, 0.3), 1: Interval(0.7, 0.7)},
                     (1, 0): {2: Interval(1.0, 1.0)},
                     (2, 0): {2: Interval(1.0, 1.0)}},
        cost={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 0.0},
        goals=frozenset({2}),
        initial_belief=np.array([1.0, 0.0, 0.0]),
    )
    member = nominal_midpoint(m)
    dirac = np.zeros((1, 3, 1))
    dirac[0, :, 0] = 1.0
    exact = product_chain_cost(member, Fsc(1, 0, dirac, np.zeros((1, 3), dtype=int)))
    ds = simulate(member, solve_mdp(member), num_episodes=10_000, horizon=300, rng_seed=9)
    costs = ds.costs
    se = costs.std(ddof=1) / np.sqrt(len(costs))
    assert abs(costs.mean() - exact) < 3 * se


def looping_chain(stay=0.9):
    """2 states: state 0 stays with probability ``stay``, else reaches the goal."""
    m = from_rows(
        RobustPomdp,
        num_states=2, num_actions=1, num_observations=2,
        obs_of=np.arange(2),
        transitions={(0, 0): {0: Interval(stay, stay), 1: Interval(1.0 - stay, 1.0 - stay)},
                     (1, 0): {1: Interval(1.0, 1.0)}},
        cost={(0, 0): 1.0, (1, 0): 0.0},
        goals=frozenset({1}),
        initial_belief=np.array([1.0, 0.0]),
    )
    return nominal_midpoint(m)


def intercept_members():
    model = generate_grid(GridSpec(4, 4, "intercept"), 3)
    return {"midpoint": nominal_midpoint(model), "sampled": sample_member(model, (3, 1))}


class TestMatchesPerEpisodeReference:
    """The lockstep rollouts give the per-episode ``rng.choice`` loop's bytes."""

    @staticmethod
    def check(member, solver, **kwargs):
        sup = solver(member)
        ours = simulate(member, sup, **kwargs)
        assert same_dataset(ours, simulate_reference(member, sup, **kwargs)[0])
        return ours

    @pytest.mark.parametrize("solver", [solve_mdp, solve_fib], ids=["qmdp", "fib"])
    @pytest.mark.parametrize("which", ["midpoint", "sampled"])
    def test_intercept_members(self, which, solver):
        member = intercept_members()[which]
        self.check(member, solver, num_episodes=64, horizon=50, rng_seed=(0, 2, 3))

    def test_horizon_truncation(self):
        member = intercept_members()["midpoint"]
        ds = self.check(member, solve_mdp, num_episodes=32, horizon=3, rng_seed=4)
        assert ((ds.lengths == 3) & ~ds.reached_goal).any()
        assert self.check(member, solve_mdp, num_episodes=4, horizon=0, rng_seed=4).num_steps == 0

    def test_starts_on_a_goal(self):
        member = two_step_chain()
        member.initial_belief = np.array([0.5, 0.0, 0.5])
        ds = self.check(member, solve_mdp, num_episodes=16, horizon=10, rng_seed=2)
        assert set(ds.lengths.tolist()) == {0, 2}

    def test_one_episode(self):
        self.check(intercept_members()["sampled"], solve_fib, num_episodes=1, horizon=50, rng_seed=8)

    def test_random_dense_models(self):
        # every row reaches every state: long successor rows, wide beliefs
        rng = np.random.default_rng(123)
        for k in range(12):
            m = random_rpomdp(rng, num_states=int(rng.integers(8, 30)), num_actions=3)
            member = sample_member(m, k)
            self.check(member, (solve_mdp, solve_fib)[k % 2], num_episodes=16, horizon=40, rng_seed=k)

    def test_episodes_longer_than_a_draw_block(self):
        ds = self.check(looping_chain(0.99), solve_mdp, num_episodes=16, horizon=300, rng_seed=5)
        assert ds.lengths.max() > 2 * DRAW_BLOCK

    def test_huge_horizon_allocates_nothing_up_front(self):
        member = looping_chain()
        tracemalloc.start()
        try:
            ds = self.check(member, solve_mdp, num_episodes=8, horizon=10**6, rng_seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.reached_goal.all()
        assert peak < 8 * 2**20  # one episodes x horizon array of draws would be 128 MB


@pytest.mark.parametrize("which, solver, episodes, horizon, limit_mb", [
    ("midpoint", solve_mdp, 64, 50, 0.25),  # desk config
    ("sampled", solve_fib, 256, 200, 0.5),  # learn-random config
], ids=["desk", "learn-random"])
def test_dataset_keeps_no_beliefs(which, solver, episodes, horizon, limit_mb):
    # the padded arrays are tens of kB; one stored belief block per step
    # would be over 1 MB (desk) and 4 MB (learn-random)
    member = intercept_members()[which]
    sup = solver(member)
    simulate(member, sup, num_episodes=episodes, horizon=horizon, rng_seed=0)  # fills the member's caches
    tracemalloc.start()
    try:
        ds = simulate(member, sup, num_episodes=episodes, horizon=horizon, rng_seed=0)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ds.num_steps > 0
    assert retained < limit_mb * 2**20


@pytest.mark.parametrize("belief", [[1.5, -0.5, 0.0], [0.5, 0.0, 0.0], [np.nan, 0.0, 1.0]],
                         ids=["negative", "not-normalized", "nan"])
def test_initial_belief_must_be_a_distribution(belief):
    member = two_step_chain()
    member.initial_belief = np.array(belief)
    with pytest.raises(ValueError):
        simulate(member, solve_mdp(two_step_chain()), num_episodes=2, horizon=5)
