import numpy as np
import pytest

from conftest import random_rpomdp
from oracles import belief_value_recursive, enumerate_policies_ssp, product_chain_cost
from robustfsc.model import Fsc, Interval, RobustPomdp, nominal_midpoint
from robustfsc.solvers import (
    solve_fib,
    solve_mdp,
    supervision_policy,
)


def chain_model(costs=(1.0,)):
    """Deterministic chain s0 -> s1 -> ... -> goal, unit costs by default."""
    n = len(costs) + 1
    transitions = {}
    cost = {}
    for s in range(n - 1):
        transitions[(s, 0)] = {s + 1: Interval(1.0, 1.0)}
        cost[(s, 0)] = costs[s]
    transitions[(n - 1, 0)] = {n - 1: Interval(1.0, 1.0)}
    cost[(n - 1, 0)] = 0.0
    m = RobustPomdp(
        num_states=n, num_actions=1, num_observations=n,
        obs_of=np.arange(n), transitions=transitions, cost=cost,
        goals=frozenset({n - 1}),
        initial_belief=np.eye(n)[0],
    )
    return nominal_midpoint(m)


class TestSolveMdp:
    def test_unit_chain(self):
        member = chain_model((1.0,))
        vals = solve_mdp(member)
        assert vals.v[0] == pytest.approx(1.0, abs=1e-9)
        assert vals.v[1] == 0.0

    def test_two_action_argmin(self):
        m = RobustPomdp(
            num_states=2, num_actions=2, num_observations=2,
            obs_of=np.array([0, 1]),
            transitions={(0, 0): {1: Interval(1.0, 1.0)}, (0, 1): {1: Interval(1.0, 1.0)},
                         (1, 0): {1: Interval(1.0, 1.0)}, (1, 1): {1: Interval(1.0, 1.0)}},
            cost={(0, 0): 1.0, (0, 1): 5.0, (1, 0): 0.0, (1, 1): 0.0},
            goals=frozenset({1}),
            initial_belief=np.array([1.0, 0.0]),
        )
        vals = solve_mdp(nominal_midpoint(m))
        assert vals.v[0] == pytest.approx(1.0)
        assert int(np.argmin(vals.q[0])) == 0

    def test_matches_policy_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_rpomdp(rng, num_states=5, num_actions=2)
            member = nominal_midpoint(m)
            vals = solve_mdp(member, tol=1e-12)
            oracle = enumerate_policies_ssp(member)
            assert np.max(np.abs(vals.v - oracle)) < 1e-6

    def test_v_is_min_of_q(self):
        rng = np.random.default_rng(4)
        member = nominal_midpoint(random_rpomdp(rng, num_states=4, num_actions=3))
        vals = solve_mdp(member)
        assert np.allclose(vals.v, vals.q.min(axis=1))
        for g in member.goals:
            assert vals.v[g] == 0.0

    def test_unreachable_goal_is_infinite(self):
        m = RobustPomdp(
            num_states=3, num_actions=1, num_observations=3,
            obs_of=np.arange(3),
            transitions={(0, 0): {0: Interval(1.0, 1.0)}, (1, 0): {2: Interval(1.0, 1.0)},
                         (2, 0): {2: Interval(1.0, 1.0)}},
            cost={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 0.0},
            goals=frozenset({2}),
            initial_belief=np.array([0.0, 1.0, 0.0]),
        )
        vals = solve_mdp(nominal_midpoint(m))
        assert np.isinf(vals.v[0])
        assert vals.v[1] == pytest.approx(1.0)

    def test_residual_monotone_on_positive_costs(self):
        rng = np.random.default_rng(23)
        member = nominal_midpoint(random_rpomdp(rng, num_states=4, num_actions=2))
        residuals = []
        v = np.zeros(member.num_states)
        for _ in range(60):
            q = np.zeros((member.num_states, member.num_actions))
            for (s, a), row in member.transitions.items():
                q[s, a] = member.cost[(s, a)] + sum(p * v[sp] for sp, p in row.items())
            v_new = q.min(axis=1)
            residuals.append(np.max(np.abs(v_new - v)))
            v = v_new
        assert all(r1 <= r0 + 1e-12 for r0, r1 in zip(residuals[1:], residuals[2:]))


class TestQmdp:
    def test_dirac_belief_returns_q_row(self):
        rng = np.random.default_rng(8)
        member = nominal_midpoint(random_rpomdp(rng, num_states=4, num_actions=2))
        vals = solve_mdp(member)
        b = np.eye(4)[1]
        assert np.allclose(vals.action_values(b), vals.q[1])

    def test_uniform_belief_is_mean(self):
        rng = np.random.default_rng(9)
        member = nominal_midpoint(random_rpomdp(rng, num_states=4, num_actions=2))
        vals = solve_mdp(member)
        b = np.array([0.5, 0.5, 0.0, 0.0])
        assert np.allclose(vals.action_values(b), 0.5 * (vals.q[0] + vals.q[1]))

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(10)
        member = nominal_midpoint(random_rpomdp(rng, num_states=5, num_actions=3))
        vals = solve_mdp(member)
        b = rng.dirichlet(np.ones(5))
        direct = [sum(b[s] * vals.q[s, a] for s in range(5)) for a in range(3)]
        assert np.allclose(vals.action_values(b), direct, atol=1e-12)


def fully_observable(model: RobustPomdp) -> RobustPomdp:
    """Same dynamics with an injective observation function."""
    return RobustPomdp(
        num_states=model.num_states, num_actions=model.num_actions,
        num_observations=model.num_states, obs_of=np.arange(model.num_states),
        transitions=model.transitions, cost=model.cost, goals=model.goals,
        initial_belief=model.initial_belief,
    )


class TestFib:
    def test_fully_observable_equals_q_star(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            member = nominal_midpoint(fully_observable(random_rpomdp(rng, num_states=4, num_actions=2)))
            mdp_vals = solve_mdp(member, tol=1e-12)
            vectors = solve_fib(member, tol=1e-12)
            assert np.max(np.abs(vectors.alpha - mdp_vals.q.T)) < 1e-8

    def test_dirac_belief_returns_alpha_row(self):
        rng = np.random.default_rng(13)
        member = nominal_midpoint(random_rpomdp(rng, num_states=4, num_actions=2))
        vectors = solve_fib(member)
        b = np.eye(4)[2]
        assert np.allclose(vectors.action_values(b), vectors.alpha[:, 2])

    def test_qmdp_below_fib_below_fsc_upper_bound(self):
        # 4-state aliased model: the lower bounds order and an exact upper
        # bound from fixing a one-node controller after the first action.
        rng = np.random.default_rng(14)
        for trial in range(10):
            m = random_rpomdp(rng, num_states=4, num_actions=2)
            member = nominal_midpoint(m)
            mdp_vals = solve_mdp(member, tol=1e-12)
            vectors = solve_fib(member, tol=1e-12)
            for _ in range(100):
                b = rng.dirichlet(np.ones(4))
                qm = mdp_vals.action_values(b)
                qf = vectors.action_values(b)
                assert np.all(qm <= qf + 1e-9)
            # upper-bound side: play a at b, then follow a memoryless
            # controller; its exact product-chain cost dominates Q*(b, a)
            b = rng.dirichlet(np.ones(4))
            for a in range(member.num_actions):
                for pick in range(member.num_actions):
                    dirac = np.zeros((1, member.num_observations, member.num_actions))
                    dirac[0, :, pick] = 1.0
                    controller = Fsc(1, 0, dirac, np.zeros((1, member.num_observations), dtype=int))
                    after = sum(
                        b[s] * p * product_chain_cost(_pinned(member, sp), controller)
                        for s in range(4) if b[s] > 0
                        for sp, p in member.transitions[(s, a)].items()
                    )
                    stage = sum(b[s] * member.cost[(s, a)] for s in range(4))
                    assert vectors.action_values(b)[a] <= stage + after + 1e-8

    def test_fib_below_exact_belief_tree(self):
        # rapidly absorbing 4-state model so a depth-8 exact expansion leaves
        # a truncation gap far below the assertion slack
        m = RobustPomdp(
            num_states=4, num_actions=2, num_observations=2,
            obs_of=np.array([0, 0, 1, 1]),
            transitions={
                (0, 0): {1: Interval(0.3, 0.3), 3: Interval(0.7, 0.7)},
                (0, 1): {2: Interval(0.5, 0.5), 3: Interval(0.5, 0.5)},
                (1, 0): {0: Interval(0.2, 0.2), 3: Interval(0.8, 0.8)},
                (1, 1): {3: Interval(1.0, 1.0)},
                (2, 0): {3: Interval(1.0, 1.0)},
                (2, 1): {1: Interval(0.4, 0.4), 3: Interval(0.6, 0.6)},
                (3, 0): {3: Interval(1.0, 1.0)},
                (3, 1): {3: Interval(1.0, 1.0)},
            },
            cost={(s, a): c for (s, a), c in {
                (0, 0): 1.0, (0, 1): 1.5, (1, 0): 0.6, (1, 1): 2.0,
                (2, 0): 1.2, (2, 1): 0.4, (3, 0): 0.0, (3, 1): 0.0,
            }.items()},
            goals=frozenset({3}),
            initial_belief=np.array([0.5, 0.5, 0.0, 0.0]),
        )
        member = nominal_midpoint(m)
        vectors = solve_fib(member, tol=1e-12)
        mdp_vals = solve_mdp(member, tol=1e-12)
        rng = np.random.default_rng(15)
        for _ in range(3):
            b = rng.dirichlet(np.ones(4))
            exact7 = belief_value_recursive(member, b, depth=7)
            q_fib = vectors.action_values(b)
            assert q_fib.min() <= exact7 + 0.05  # slack covers depth truncation
            assert mdp_vals.action_values(b).min() <= q_fib.min() + 1e-9

    def test_divergence_on_unreachable_goal(self):
        m = RobustPomdp(
            num_states=2, num_actions=1, num_observations=1,
            obs_of=np.array([0, 0]),
            transitions={(0, 0): {0: Interval(1.0, 1.0)}, (1, 0): {1: Interval(1.0, 1.0)}},
            cost={(0, 0): 1.0, (1, 0): 0.0},
            goals=frozenset({1}),
            initial_belief=np.array([1.0, 0.0]),
        )
        vectors = solve_fib(nominal_midpoint(m))
        assert np.isinf(vectors.alpha[0, 0])


def _pinned(member, state):
    """Copy of a concrete instance whose start is a point mass on ``state``."""
    import copy

    pinned = copy.copy(member)
    belief = np.zeros(member.num_states)
    belief[state] = 1.0
    pinned.initial_belief = belief
    return pinned


class TestSupervisionPolicy:
    def test_argmin_dirac(self):
        assert np.array_equal(supervision_policy(np.array([3.0, 1.0, 2.0])), [0, 1, 0])

    def test_tie_breaks_to_lowest_index(self):
        assert np.array_equal(supervision_policy(np.array([1.0, 1.0, 5.0])), [1, 0, 0])

    def test_scale_invariant(self):
        q = np.array([4.0, 2.0, 8.0])
        assert np.array_equal(supervision_policy(q), supervision_policy(3.0 * q))
