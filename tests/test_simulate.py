import tracemalloc

import numpy as np
import pytest

from conftest import random_rpomdp
from oracles import product_chain_cost, simulate_reference
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import Fsc, Interval, RobustPomdp, belief_update, nominal_midpoint, sample_member
from robustfsc.simulate import DRAW_BLOCK, simulate
from robustfsc.solvers import solve_fib, solve_mdp


def two_step_chain():
    m = RobustPomdp(
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
    assert all(len(ep) == 0 and ep.cost == 0.0 and ep.reached_goal for ep in ds.episodes)


def test_deterministic_two_step_chain():
    member = two_step_chain()
    ds = simulate(member, solve_mdp(member), num_episodes=8, horizon=10, rng_seed=1)
    assert all(len(ep) == 2 and ep.cost == 2.0 and ep.reached_goal for ep in ds.episodes)
    for ep in ds.episodes:
        assert [st.observation for st in ep.steps] == [0, 1]


def test_defaults_recorded_in_metadata():
    member = two_step_chain()
    ds = simulate(member, solve_mdp(member), rng_seed=7)
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
    assert a.to_jsonl() == b.to_jsonl()
    c = simulate(member, sup, num_episodes=16, horizon=12, rng_seed=6)
    assert a.to_jsonl() != c.to_jsonl()


def test_recorded_beliefs_replay_consistently():
    rng = np.random.default_rng(3)
    member = nominal_midpoint(random_rpomdp(rng, num_states=4, num_actions=2))
    ds = simulate(member, solve_mdp(member), num_episodes=10, horizon=15, rng_seed=4)
    for ep in ds.episodes:
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
    for ep in ds.episodes:
        for st in ep.steps:
            assert st.target.sum() == 1.0
            assert st.target.max() == 1.0
            expect = int(np.argmin(sup.action_values(st.belief)))
            assert st.action == expect == int(np.argmax(st.target))


def test_mean_cost_matches_linear_solve_within_three_se():
    # single-action 3-state chain with a stochastic loop; compare the
    # empirical mean against the exact chain cost from a linear solve
    m = RobustPomdp(
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
    costs = np.array([ep.cost for ep in ds.episodes])
    se = costs.std(ddof=1) / np.sqrt(len(costs))
    assert abs(costs.mean() - exact) < 3 * se


def looping_chain(stay=0.9):
    """2 states: state 0 stays with probability ``stay``, else reaches the goal."""
    m = RobustPomdp(
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
        assert ours.to_jsonl() == simulate_reference(member, sup, **kwargs).to_jsonl()
        return ours

    @pytest.mark.parametrize("solver", [solve_mdp, solve_fib], ids=["qmdp", "fib"])
    @pytest.mark.parametrize("which", ["midpoint", "sampled"])
    def test_intercept_members(self, which, solver):
        member = intercept_members()[which]
        self.check(member, solver, num_episodes=64, horizon=50, rng_seed=(0, 2, 3))

    def test_horizon_truncation(self):
        member = intercept_members()["midpoint"]
        ds = self.check(member, solve_mdp, num_episodes=32, horizon=3, rng_seed=4)
        assert any(len(ep) == 3 and not ep.reached_goal for ep in ds.episodes)
        assert self.check(member, solve_mdp, num_episodes=4, horizon=0, rng_seed=4).num_steps == 0

    def test_starts_on_a_goal(self):
        member = two_step_chain()
        member.initial_belief = np.array([0.5, 0.0, 0.5])
        ds = self.check(member, solve_mdp, num_episodes=16, horizon=10, rng_seed=2)
        assert {len(ep) for ep in ds.episodes} == {0, 2}

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
        assert max(len(ep) for ep in ds.episodes) > 2 * DRAW_BLOCK

    def test_huge_horizon_allocates_nothing_up_front(self):
        member = looping_chain()
        tracemalloc.start()
        try:
            ds = self.check(member, solve_mdp, num_episodes=8, horizon=10**6, rng_seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(ep.reached_goal for ep in ds.episodes)
        assert peak < 8 * 2**20  # one episodes x horizon array of draws would be 128 MB


@pytest.mark.parametrize("belief", [[1.5, -0.5, 0.0], [0.5, 0.0, 0.0], [np.nan, 0.0, 1.0]],
                         ids=["negative", "not-normalized", "nan"])
def test_initial_belief_must_be_a_distribution(belief):
    member = two_step_chain()
    member.initial_belief = np.array(belief)
    with pytest.raises(ValueError):
        simulate(member, solve_mdp(two_step_chain()), num_episodes=2, horizon=5)
