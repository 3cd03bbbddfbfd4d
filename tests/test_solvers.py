import numpy as np
import pytest

from conftest import random_rpomdp
from oracles import belief_value_recursive, enumerate_policies_ssp, from_rows, product_chain_cost
import robustfsc.solvers as solvers
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import ConcretePomdp, Edges, Fsc, Interval, RobustPomdp, nominal_midpoint
from robustfsc.simulate import simulate
from robustfsc.solvers import DivergenceError, SupervisionBound, solve_fib, solve_mdp


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
    m = from_rows(
        RobustPomdp,
        num_states=n, num_actions=1, num_observations=n,
        obs_of=np.arange(n), transitions=transitions, cost=cost,
        goals=frozenset({n - 1}),
        initial_belief=np.eye(n)[0],
    )
    return nominal_midpoint(m)


def trap_model(exit_prob=None):
    """Start 0, trap 1, goal 2.  Action 0 costs 1 and falls into the trap or
    reaches the goal, each with probability 1/2; action 1 costs 2 and reaches
    the goal.  The trap loops at cost 1 and leaves for the goal with
    probability ``exit_prob``, never when it is None."""
    trap = {1: Interval(1.0, 1.0)} | ({2: Interval(exit_prob, exit_prob)} if exit_prob else {})
    goal = {2: Interval(1.0, 1.0)}
    m = from_rows(
        RobustPomdp,
        num_states=3, num_actions=2, num_observations=2,
        obs_of=np.array([0, 0, 1]),
        transitions={(0, 0): {1: Interval(0.5, 0.5), 2: Interval(0.5, 0.5)}, (0, 1): goal,
                     (1, 0): trap, (1, 1): trap, (2, 0): goal, (2, 1): goal},
        cost={(0, 0): 1.0, (0, 1): 2.0, (1, 0): 1.0, (1, 1): 1.0, (2, 0): 0.0, (2, 1): 0.0},
        goals=frozenset({2}),
        initial_belief=np.array([1.0, 0.0, 0.0]),
    )
    return nominal_midpoint(m)


def random_trap_member(rng):
    """Member of a random 8-state model plus a trap, state 8, that loops on itself
    and that only action 0 of state 0 enters: q[8] and q[0, 0] are infinite."""
    m = random_rpomdp(rng, num_states=8, num_actions=3)
    trap = {8: Interval(1.0, 1.0)}
    transitions = m.transitions | {(0, 0): trap} | {(8, a): trap for a in range(m.num_actions)}
    return nominal_midpoint(from_rows(
        RobustPomdp,
        num_states=9, num_actions=m.num_actions, num_observations=m.num_observations,
        obs_of=np.append(m.obs_of, 0), transitions=transitions,
        cost=m.cost | {(8, a): 1.0 for a in range(m.num_actions)}, goals=m.goals,
        initial_belief=np.append(m.initial_belief, 0.0),
    ))


@pytest.mark.parametrize("solver", [solve_mdp, solve_fib])
class TestBothBounds:
    @pytest.mark.parametrize("member", [
        random_trap_member(np.random.default_rng(31)),
        nominal_midpoint(generate_grid(GridSpec(4, 4, "intercept"))),
    ], ids=["random-with-improper-state", "intercept-4x4"])
    def test_a_block_of_beliefs_reads_as_its_rows_bit_for_bit(self, solver, member):
        bound = solver(member)
        assert bound.q.shape == (member.num_states, member.num_actions) and bound.q.flags.c_contiguous
        beliefs = np.random.default_rng(32).dirichlet(np.ones(member.num_states), size=12)
        beliefs[::2, -1] = 0.0
        beliefs[::4, 0] = 0.0
        beliefs /= beliefs.sum(axis=1, keepdims=True)
        rows = [bound.action_values(b) for b in beliefs]
        assert all(r.shape == (member.num_actions,) for r in rows)
        block = bound.action_values(beliefs)
        assert block.shape == (12, member.num_actions)
        assert np.array_equal(block, np.array(rows))
        if member.num_states == 9:  # the trap: no mass on it reads finite, except action 0 of state 0
            assert np.isinf(bound.q[8]).all() and np.isinf(bound.q[0, 0]) and np.isfinite(bound.q[:8, 1:]).all()
            assert np.isinf(block[1::2]).all() and np.isinf(block[2::4, 0]).all()
            assert np.isfinite(block[::4]).all() and np.isfinite(block[::2, 1:]).all()

    def test_costs_past_1e9_settle(self, solver):
        bound = solver(chain_model((3e9, 5e9)))
        assert bound.action_values(np.eye(3)[0]).tolist() == [8e9]

    def test_values_that_never_settle_use_up_the_sweep_budget(self, solver, monkeypatch):
        # leaving the trap with probability 1e-300, its cost grows by one per sweep
        monkeypatch.setattr(solvers, "MAX_SWEEPS", 1000)
        with pytest.raises(DivergenceError, match="1000 sweeps"):
            solver(trap_model(exit_prob=1e-300))

    def test_an_infinite_value_counts_only_where_the_belief_has_mass(self, solver):
        member = trap_model()
        bound = solver(member)
        assert bound.action_values(np.array([1.0, 0.0, 0.0])).tolist() == [np.inf, 2.0]
        assert bound.action_values(np.array([0.5, 0.5, 0.0])).tolist() == [np.inf, np.inf]
        ds = simulate(member, bound, num_episodes=16, horizon=5, rng_seed=0)
        assert ds.lengths.tolist() == [1] * 16
        assert ds.actions[:, 0].tolist() == [1] * 16


@pytest.mark.parametrize("solver", [solve_mdp, solve_fib])
@pytest.mark.parametrize("offsets, cost, message", [
    ([0, 1, 1, 2, 3], [1.0, 1.0, 0.0, 0.0], "state 0 action 1 has no transitions"),
    ([0, 1, 2, 3, 4], [1.0, np.nan, 0.0, 0.0], "state 0 action 1 has a NaN cost"),
    ([0, 1, 1, 2, 3], [1.0, np.nan, 0.0, 0.0], "state 0 action 1 has no transitions"),
], ids=["empty", "nan-cost", "empty-and-nan-cost"])
def test_unsolvable_row_is_named(solver, offsets, cost, message):
    # a hand-built edge table over 2 states x 2 actions, every edge into the goal 1
    succ = np.ones(offsets[-1], dtype=np.int64)
    prob = np.ones(offsets[-1])
    member = ConcretePomdp(
        num_states=2, num_actions=2, num_observations=2, obs_of=np.array([0, 1]), goals={1},
        initial_belief=np.array([1.0, 0.0]), edges=Edges(np.array(offsets), succ, prob, prob, np.array(cost)),
    )
    with pytest.raises(ValueError, match=f"^{message}$"):
        solver(member)


def slow_exit_model(exit_prob=1e-2):
    """Start 0, slow state 1, goal 2.  From 0, action 0 costs 1 and moves to 1;
    action 1 costs 150 and reaches the goal.  State 1 leaves for the goal with
    probability ``exit_prob`` per step, at cost 1 or 2 by action, so its value
    is 1 / exit_prob and value iteration closes in on it by a factor of
    1 - exit_prob per sweep.  States 0 and 1 share an observation."""
    stay = {1: Interval(1.0 - exit_prob, 1.0 - exit_prob), 2: Interval(exit_prob, exit_prob)}
    goal = {2: Interval(1.0, 1.0)}
    m = from_rows(
        RobustPomdp,
        num_states=3, num_actions=2, num_observations=2,
        obs_of=np.array([0, 0, 1]),
        transitions={(0, 0): {1: Interval(1.0, 1.0)}, (0, 1): goal,
                     (1, 0): stay, (1, 1): stay, (2, 0): goal, (2, 1): goal},
        cost={(0, 0): 1.0, (0, 1): 150.0, (1, 0): 1.0, (1, 1): 2.0, (2, 0): 0.0, (2, 1): 0.0},
        goals=frozenset({2}),
        initial_belief=np.array([1.0, 0.0, 0.0]),
    )
    return nominal_midpoint(m)


def test_default_tol_is_tight_on_a_slowly_mixing_chain():
    # each sweep here moves the value by 1 / 100 of its remaining error, so a stop
    # at change < tol leaves about 100 tol: 1e-9 relative at the default, 1e-5 at tol=1e-5
    member = slow_exit_model()
    v = enumerate_policies_ssp(member)
    q = np.array([[member.cost[(s, a)] + sum(p * v[sp] for sp, p in member.transitions[(s, a)].items())
                   for a in range(member.num_actions)] for s in range(member.num_states)])
    np.testing.assert_allclose(q[:2], [[101.0, 150.0], [100.0, 101.0]], rtol=1e-12)
    np.testing.assert_allclose(solve_mdp(member).q, q, rtol=1e-8, atol=0.0)
    np.testing.assert_allclose(solve_fib(member).q, solve_fib(member, tol=1e-13).q, rtol=1e-8, atol=0.0)


class TestSolveMdp:
    def test_unit_chain(self):
        member = chain_model((1.0,))
        vals = solve_mdp(member)
        assert vals.q[0].min() == pytest.approx(1.0, abs=1e-9)
        assert vals.q[1].min() == 0.0

    def test_two_action_argmin(self):
        m = from_rows(
            RobustPomdp,
            num_states=2, num_actions=2, num_observations=2,
            obs_of=np.array([0, 1]),
            transitions={(0, 0): {1: Interval(1.0, 1.0)}, (0, 1): {1: Interval(1.0, 1.0)},
                         (1, 0): {1: Interval(1.0, 1.0)}, (1, 1): {1: Interval(1.0, 1.0)}},
            cost={(0, 0): 1.0, (0, 1): 5.0, (1, 0): 0.0, (1, 1): 0.0},
            goals=frozenset({1}),
            initial_belief=np.array([1.0, 0.0]),
        )
        vals = solve_mdp(nominal_midpoint(m))
        assert vals.q[0].min() == pytest.approx(1.0)
        assert int(np.argmin(vals.q[0])) == 0

    def test_matches_policy_enumeration_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            m = random_rpomdp(rng, num_states=5, num_actions=2)
            member = nominal_midpoint(m)
            vals = solve_mdp(member, tol=1e-12)
            oracle = enumerate_policies_ssp(member)
            assert np.max(np.abs(vals.q.min(axis=1) - oracle)) < 1e-6

    def test_v_is_min_of_q(self):
        rng = np.random.default_rng(4)
        member = nominal_midpoint(random_rpomdp(rng, num_states=4, num_actions=3))
        vals = solve_mdp(member)
        v = vals.q.min(axis=1)
        for g in member.goals:
            assert v[g] == 0.0

    def test_unreachable_goal_is_infinite(self):
        m = from_rows(
            RobustPomdp,
            num_states=3, num_actions=1, num_observations=3,
            obs_of=np.arange(3),
            transitions={(0, 0): {0: Interval(1.0, 1.0)}, (1, 0): {2: Interval(1.0, 1.0)},
                         (2, 0): {2: Interval(1.0, 1.0)}},
            cost={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 0.0},
            goals=frozenset({2}),
            initial_belief=np.array([0.0, 1.0, 0.0]),
        )
        vals = solve_mdp(nominal_midpoint(m))
        assert np.isinf(vals.q[0].min())
        assert vals.q[1].min() == pytest.approx(1.0)

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
        edges=model.edges, goals=model.goals, initial_belief=model.initial_belief,
    )


class TestFib:
    def test_fully_observable_equals_q_star(self):
        rng = np.random.default_rng(12)
        for _ in range(5):
            member = nominal_midpoint(fully_observable(random_rpomdp(rng, num_states=4, num_actions=2)))
            mdp_vals = solve_mdp(member, tol=1e-12)
            vectors = solve_fib(member, tol=1e-12)
            assert np.max(np.abs(vectors.q - mdp_vals.q)) < 1e-8

    def test_dirac_belief_returns_alpha_row(self):
        rng = np.random.default_rng(13)
        member = nominal_midpoint(random_rpomdp(rng, num_states=4, num_actions=2))
        vectors = solve_fib(member)
        b = np.eye(4)[2]
        assert np.allclose(vectors.action_values(b), vectors.q[2])

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
        m = from_rows(
            RobustPomdp,
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
        m = from_rows(
            RobustPomdp,
            num_states=2, num_actions=1, num_observations=1,
            obs_of=np.array([0, 0]),
            transitions={(0, 0): {0: Interval(1.0, 1.0)}, (1, 0): {1: Interval(1.0, 1.0)}},
            cost={(0, 0): 1.0, (1, 0): 0.0},
            goals=frozenset({1}),
            initial_belief=np.array([1.0, 0.0]),
        )
        vectors = solve_fib(nominal_midpoint(m))
        assert np.isinf(vectors.q[0, 0])


def _pinned(member, state):
    """Copy of a concrete instance whose start is a point mass on ``state``."""
    import copy

    pinned = copy.copy(member)
    belief = np.zeros(member.num_states)
    belief[state] = 1.0
    pinned.initial_belief = belief
    return pinned


def one_choice_member(costs):
    """State 0 reaches the goal, state 1, under every action; action a costs costs[a]."""
    na = len(costs)
    m = from_rows(
        RobustPomdp,
        num_states=2, num_actions=na, num_observations=2,
        obs_of=np.arange(2),
        transitions={(s, a): {1: Interval(1.0, 1.0)} for s in range(2) for a in range(na)},
        cost={(s, a): (costs[a] if s == 0 else 0.0) for s in range(2) for a in range(na)},
        goals=frozenset({1}),
        initial_belief=np.array([1.0, 0.0]),
    )
    return nominal_midpoint(m)


class TestSupervisionPolicy:
    """The supervision label simulate records: the argmin of the bound's action values."""

    @staticmethod
    def labels(costs, scale=1.0):
        member = one_choice_member(costs)
        sup = solve_mdp(member)
        assert sup.q[0].tolist() == list(costs)  # the costs exactly, ties included
        ds = simulate(member, SupervisionBound(scale * sup.q), num_episodes=8, horizon=5, rng_seed=1)
        assert ds.lengths.tolist() == [1] * 8
        return ds.actions[:, 0].tolist()

    def test_argmin_dirac(self):
        assert self.labels((3.0, 1.0, 2.0)) == [1] * 8

    def test_tie_breaks_to_lowest_index(self):
        for costs, expect in [((1.0, 1.0, 5.0), 0), ((5.0, 2.0, 2.0), 1), ((3.0, 3.0, 3.0), 0)]:
            assert self.labels(costs) == [expect] * 8

    def test_scale_invariant(self):
        for costs in [(4.0, 2.0, 8.0), (1.0, 1.0, 5.0), (5.0, 2.0, 2.0)]:
            assert self.labels(costs) == self.labels(costs, scale=3.0)
