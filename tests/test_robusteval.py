from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix, identity

from conftest import kmeans_controller, random_feasible_boxes, random_fsc, random_rpomdp
from oracles import (
    box_simplex_opt,
    inner_max,
    inner_min,
    member_values_exact,
    product_chain_cost,
    robust_chain_lp,
    robust_value_iteration_reference,
)
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import Fsc, Interval, RobustPomdp, nominal_midpoint, project_row, sample_member
from robustfsc.robusteval import (
    _box_simplex_fill,
    _member_matrices,
    _rank_order,
    box_simplex_greedy,
    build_chain,
    evaluate_member,
    robust_value_iteration,
    solve_member,
)

def self_loop_model():
    """State 0 loops with p in [0.4, 0.6] or advances to the goal, cost 1."""
    return RobustPomdp(
        num_states=2, num_actions=1, num_observations=2,
        obs_of=np.array([0, 1]),
        transitions={(0, 0): {0: Interval(0.4, 0.6), 1: Interval(0.4, 0.6)},
                     (1, 0): {1: Interval(1.0, 1.0)}},
        cost={(0, 0): 1.0, (1, 0): 0.0},
        goals=frozenset({1}),
        initial_belief=np.array([1.0, 0.0]),
    )


def point_rows_model():
    """State 0 mixes two point rows under its two actions; state 1 has one successor, the goal."""
    return RobustPomdp(
        num_states=3, num_actions=2, num_observations=1,
        obs_of=np.zeros(3, dtype=int),
        transitions={
            (0, 0): {1: Interval(0.8, 0.8), 2: Interval(0.2, 0.2)},
            (0, 1): {1: Interval(0.4, 0.4), 2: Interval(0.6, 0.6)},
            (1, 0): {2: Interval(1.0, 1.0)}, (1, 1): {2: Interval(1.0, 1.0)},
            (2, 0): {2: Interval(1.0, 1.0)}, (2, 1): {2: Interval(1.0, 1.0)},
        },
        cost={(0, 0): 1.0, (0, 1): 3.0, (1, 0): 1.0, (1, 1): 1.0, (2, 0): 0.0, (2, 1): 0.0},
        goals=frozenset({2}),
        initial_belief=np.array([1.0, 0.0, 0.0]),
    )


def dirac_fsc(num_obs, num_actions, action=0):
    table = np.zeros((1, num_obs, num_actions))
    table[0, :, action] = 1.0
    return Fsc(1, 0, table, np.zeros((1, num_obs), dtype=int))


class TestInnerProblems:
    def test_caps_best_coordinate(self):
        obj, p = inner_max(np.array([0.0, 0.0, 1.0]), [Interval(0.2, 0.5)] * 3)
        assert obj == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(p, [0.3, 0.2, 0.5])

    def test_point_intervals_give_expectation(self):
        vals = np.array([1.0, 2.0, 3.0])
        ivs = [Interval(0.2, 0.2), Interval(0.3, 0.3), Interval(0.5, 0.5)]
        obj, p = inner_max(vals, ivs)
        assert obj == pytest.approx(float(np.array([0.2, 0.3, 0.5]) @ vals), abs=1e-15)

    def test_matches_vertex_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            n = int(rng.integers(2, 7))
            lo, hi = random_feasible_boxes(rng, n)
            vals = rng.uniform(-10, 10, size=n)
            ivs = [Interval(float(a), float(b)) for a, b in zip(lo, hi)]
            obj_max, p_max = inner_max(vals, ivs)
            obj_min, p_min = inner_min(vals, ivs)
            assert obj_max == pytest.approx(box_simplex_opt(vals, lo, hi, True), abs=1e-12)
            assert obj_min == pytest.approx(box_simplex_opt(vals, lo, hi, False), abs=1e-12)
            for p in (p_max, p_min):
                assert abs(p.sum() - 1.0) < 1e-12
                assert np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12)

    def test_dominates_random_feasible_points(self):
        rng = np.random.default_rng(22)
        for _ in range(5):
            n = int(rng.integers(2, 6))
            lo, hi = random_feasible_boxes(rng, n)
            ivs = [Interval(float(a), float(b)) for a, b in zip(lo, hi)]
            vals = rng.uniform(-5, 5, size=n)
            obj, _ = inner_max(vals, ivs)
            samples = rng.uniform(lo, hi, size=(10_000, n))
            for q in samples:
                feasible = project_row(q, ivs)
                assert feasible @ vals <= obj + 1e-9

    def test_infeasible_box_raises(self):
        with pytest.raises(ValueError):
            inner_max(np.array([1.0, 1.0]), [Interval(0.6, 0.7), Interval(0.6, 0.7)])


class TestBuildChain:
    def test_dirac_controller_embeds_model_rows(self):
        model = self_loop_model()
        chain = build_chain(model, dirac_fsc(2, 1))
        idx = chain.state_index(0, 0)
        row = {int(chain.succ[e]): (chain.lo[e], chain.hi[e])
               for e in range(chain.offsets[0], chain.offsets[1])}
        assert row[chain.state_index(0, 0)] == (0.4, 0.6)
        assert row[chain.state_index(1, 0)] == (0.4, 0.6)
        assert chain.cost[idx] == 1.0

    def test_unreached_pair_raises_key_error(self):
        model = self_loop_model()
        two_nodes = Fsc(2, 0, np.ones((2, 2, 1)), np.zeros((2, 2), dtype=int))  # node 1 is never entered
        values = robust_value_iteration(build_chain(model, two_nodes))
        assert values.value_of(1, 0) == 0.0
        for s, n in ((0, 1), (1, 1), (2, 0), (0, 2), (-1, 0)):
            with pytest.raises(KeyError):
                values.value_of(s, n)

    def test_uniform_mix_of_point_rows(self):
        uniform = Fsc(1, 0, np.full((1, 1, 2), 0.5), np.zeros((1, 1), dtype=int))
        chain = build_chain(point_rows_model(), uniform)
        row = {int(chain.succ[e]): (chain.lo[e], chain.hi[e])
               for e in range(chain.offsets[0], chain.offsets[1])}
        assert row[chain.state_index(1, 0)] == (pytest.approx(0.6), pytest.approx(0.6))
        assert row[chain.state_index(2, 0)] == (pytest.approx(0.4), pytest.approx(0.4))
        assert chain.cost[chain.state_index(0, 0)] == pytest.approx(2.0)

    def test_matches_hand_built_product(self):
        rng = np.random.default_rng(23)
        model = random_rpomdp(rng, num_states=3, num_actions=2)
        fsc = random_fsc(rng, 2, model.num_observations, 2)
        chain = build_chain(model, fsc)
        # hand-built product over the same reachable pairs
        for idx, (s, n) in enumerate(zip(*(x.tolist() for x in np.divmod(chain.pairs, fsc.num_nodes)))):
            if s in model.goals:
                assert chain.is_goal[idx]
                continue
            z = int(model.obs_of[s])
            n2 = int(fsc.memory_map[n, z])
            expect_lo: dict[int, float] = {}
            expect_hi: dict[int, float] = {}
            expect_cost = 0.0
            for a in range(model.num_actions):
                d = float(fsc.action_map[n, z, a])
                expect_cost += d * model.cost[(s, a)]
                for sp, iv in model.transitions[(s, a)].items():
                    expect_lo[sp] = expect_lo.get(sp, 0.0) + d * iv.lo
                    expect_hi[sp] = expect_hi.get(sp, 0.0) + d * iv.hi
            row_pos = int(np.flatnonzero(chain.row_state == idx)[0])
            got = {int(chain.succ[e]): (chain.lo[e], chain.hi[e])
                   for e in range(chain.offsets[row_pos], chain.offsets[row_pos + 1])}
            assert chain.cost[idx] == pytest.approx(expect_cost, abs=1e-12)
            for sp, lo_val in expect_lo.items():
                got_lo, got_hi = got[chain.state_index(sp, n2)]
                assert got_lo == pytest.approx(lo_val, abs=1e-12)
                assert got_hi == pytest.approx(expect_hi[sp], abs=1e-12)

    def test_interval_sums_bracket_one(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            model = random_rpomdp(rng)
            fsc = random_fsc(rng, 2, model.num_observations, model.num_actions)
            chain = build_chain(model, fsc)
            for row_pos in range(len(chain.row_state)):
                sl = slice(chain.offsets[row_pos], chain.offsets[row_pos + 1])
                assert chain.lo[sl].sum() <= 1.0 + 1e-9
                assert chain.hi[sl].sum() >= 1.0 - 1e-9


def assert_rank_order_is_the_lexsort_order(chain, values, maximize):
    """Robust evaluation's rank order and fill equal the lexsort greedy's, bit for bit."""
    vals = values[chain.succ]
    seg = np.repeat(np.arange(len(chain.row_state)), np.diff(chain.offsets))
    order = _rank_order(values, chain.pairs, chain.succ, chain.offsets, maximize)
    assert np.array_equal(order, np.lexsort((-vals if maximize else vals, seg)))
    greedy = box_simplex_greedy(vals, chain.lo, chain.hi, chain.offsets, maximize)
    fill = _box_simplex_fill(vals, chain.lo, chain.hi, chain.offsets, order)
    assert np.array_equal(greedy[0], fill[0]) and np.array_equal(greedy[1], fill[1])


def test_vectorized_sweep_matches_per_state_inner_opt():
    # the segmented greedy must reproduce the standalone greedy row by row,
    # and the rank order must be its lexsort order, exact ties included
    rng = np.random.default_rng(77)
    uniform = Fsc(1, 0, np.full((1, 1, 2), 0.5), np.zeros((1, 1), dtype=int))
    single_edge_rows = build_chain(point_rows_model(), uniform)
    assert np.min(np.diff(single_edge_rows.offsets)) == 1
    for maximize in (True, False):
        for values in ([0.0, 5.0, 0.0], [1.0, 1.0, 1.0], [2.0, 0.5, 0.0]):
            assert_rank_order_is_the_lexsort_order(single_edge_rows, np.array(values), maximize)
        for _ in range(10):
            model = random_rpomdp(rng)
            fsc = random_fsc(rng, 2, model.num_observations, model.num_actions)
            chain = build_chain(model, fsc)
            v = rng.uniform(0.0, 10.0, size=chain.num_states)
            for values in (v, np.floor(v / 4.0), np.zeros_like(v)):  # integer and all-zero values tie
                assert_rank_order_is_the_lexsort_order(chain, values, maximize)
            objective, probs = box_simplex_greedy(
                v[chain.succ], chain.lo, chain.hi, chain.offsets, maximize
            )
            for r in range(len(chain.row_state)):
                sl = slice(chain.offsets[r], chain.offsets[r + 1])
                ivs = [Interval(float(a), float(b)) for a, b in zip(chain.lo[sl], chain.hi[sl])]
                vals = v[chain.succ[sl]]
                opt = inner_max(vals, ivs) if maximize else inner_min(vals, ivs)
                assert objective[r] == pytest.approx(opt[0], abs=1e-12)
                assert np.allclose(probs[sl], opt[1], atol=1e-12)


class TestRobustValueIteration:
    def test_worst_case_self_loop_closed_form(self):
        chain = build_chain(self_loop_model(), dirac_fsc(2, 1))
        pess = robust_value_iteration(chain, "pessimistic", tol=1e-12)
        opt = robust_value_iteration(chain, "optimistic", tol=1e-12)
        assert pess.at_initial == pytest.approx(2.5, abs=1e-6)   # v = 1 + 0.6 v
        assert opt.at_initial == pytest.approx(1.0 / 0.6, abs=1e-6)

    def test_one_step_goal(self):
        model = RobustPomdp(
            num_states=2, num_actions=1, num_observations=2,
            obs_of=np.array([0, 1]),
            transitions={(0, 0): {1: Interval(1.0, 1.0)}, (1, 0): {1: Interval(1.0, 1.0)}},
            cost={(0, 0): 4.5, (1, 0): 0.0},
            goals=frozenset({1}),
            initial_belief=np.array([1.0, 0.0]),
        )
        values = robust_value_iteration(build_chain(model, dirac_fsc(2, 1)), tol=1e-12)
        assert values.at_initial == pytest.approx(4.5, abs=1e-9)
        assert values.value_of(1, 0) == 0.0

    def test_point_chain_matches_linear_solve(self):
        rng = np.random.default_rng(25)
        for _ in range(10):
            model = random_rpomdp(rng, degenerate=True)
            fsc = random_fsc(rng, 2, model.num_observations, model.num_actions)
            member = nominal_midpoint(model)
            ours = evaluate_member(member, fsc)
            oracle = product_chain_cost(member, fsc)
            assert ours == pytest.approx(oracle, abs=1e-6)

    def test_monotone_iterates(self):
        # iterates from v = 0 only grow, so values at tighter tolerances
        # (more sweeps) dominate values at looser ones pointwise
        rng = np.random.default_rng(26)
        model = random_rpomdp(rng, num_states=4, num_actions=2)
        fsc = random_fsc(rng, 2, model.num_observations, model.num_actions)
        chain = build_chain(model, fsc)
        prev = np.zeros(chain.num_states)
        for tol in (1.0, 0.3, 0.1, 0.01, 1e-4, 1e-8, 1e-12):
            vals = robust_value_iteration(chain, "pessimistic", tol=tol)
            assert np.all(vals.values >= prev - 1e-12)
            prev = vals.values

    def test_degenerate_intervals_collapse_modes(self):
        rng = np.random.default_rng(27)
        for _ in range(5):
            model = random_rpomdp(rng, degenerate=True)
            fsc = random_fsc(rng, 2, model.num_observations, model.num_actions)
            chain = build_chain(model, fsc)
            pess = robust_value_iteration(chain, "pessimistic", tol=1e-10)
            opt = robust_value_iteration(chain, "optimistic", tol=1e-10)
            exact = product_chain_cost(nominal_midpoint(model), fsc)
            assert pess.at_initial == pytest.approx(exact, abs=1e-6)
            assert opt.at_initial == pytest.approx(exact, abs=1e-6)

    def test_conservative_bounds_on_sampled_members(self):
        rng = np.random.default_rng(28)
        for _ in range(10):
            model = random_rpomdp(rng)
            fsc = random_fsc(rng, 2, model.num_observations, model.num_actions)
            chain = build_chain(model, fsc)
            pess = robust_value_iteration(chain, "pessimistic", tol=1e-12).at_initial
            opt = robust_value_iteration(chain, "optimistic", tol=1e-12).at_initial
            for k in range(100):
                member = sample_member(model, int(rng.integers(1 << 30)))
                value = product_chain_cost(member, fsc)
                assert value <= pess + 1e-8
                assert value >= opt - 1e-8

    def test_epsilon_probability_chain_solves_exactly(self):
        # an almost-never-terminating controller: pure sweeps would need
        # ~1/eps iterations, the member-solve refinement is exact and fast
        import time

        eps = 1e-9
        model = RobustPomdp(
            num_states=2, num_actions=2, num_observations=2,
            obs_of=np.array([0, 1]),
            transitions={
                (0, 0): {1: Interval(1.0, 1.0)},      # finish, cost 1
                (0, 1): {0: Interval(1.0, 1.0)},      # dawdle forever
                (1, 0): {1: Interval(1.0, 1.0)},
                (1, 1): {1: Interval(1.0, 1.0)},
            },
            cost={(0, 0): 1.0, (0, 1): 1.0, (1, 0): 0.0, (1, 1): 0.0},
            goals=frozenset({1}),
            initial_belief=np.array([1.0, 0.0]),
        )
        table = np.zeros((1, 2, 2))
        table[0, :, 0] = eps
        table[0, :, 1] = 1.0 - eps
        fsc = Fsc(1, 0, table, np.zeros((1, 2), dtype=int))
        start = time.perf_counter()
        values = robust_value_iteration(build_chain(model, fsc), tol=1e-6)
        elapsed = time.perf_counter() - start
        # v = 1 + (1 - eps) v  =>  v = 1 / eps; the linear system has
        # condition ~ 1/eps, so float64 can only pin it to ~1e9 * 2e-16
        assert values.at_initial == pytest.approx(1.0 / eps, rel=1e-6)
        assert elapsed < 2.0

    def test_benchmark_scale_against_dense_solve(self):
        # 4x4 pursuit model x 2-node controller: the full pipeline value
        # must match an independent dense-solve product construction on
        # members, and dominate them in the interval model
        from conftest import random_fsc as _random_fsc

        from robustfsc.grids import GridSpec, generate_grid

        model = generate_grid(GridSpec(4, 4, "intercept"))
        rng = np.random.default_rng(55)
        fsc = _random_fsc(rng, 2, model.num_observations, model.num_actions)
        pess = robust_value_iteration(build_chain(model, fsc), tol=1e-9)
        for seed in range(3):
            member = sample_member(model, seed)
            ours = evaluate_member(member, fsc)
            oracle = product_chain_cost(member, fsc)
            assert ours == pytest.approx(oracle, rel=1e-9, abs=1e-9)
            assert ours <= pess.at_initial + 1e-8

    def test_benchmark_scale_matches_lp_oracle(self):
        # every product state's value, in both modes, against one HiGHS LP
        # per mode built from the dual of the inner box-simplex problem
        from robustfsc.grids import GridSpec, generate_grid

        model = generate_grid(GridSpec(4, 4, "intercept"))
        rng = np.random.default_rng(55)
        fsc = random_fsc(rng, 2, model.num_observations, model.num_actions)
        chain = build_chain(model, fsc)
        for mode in ("pessimistic", "optimistic"):
            ours = robust_value_iteration(chain, mode).values
            oracle = robust_chain_lp(chain, maximize=mode == "pessimistic")
            assert np.all(np.isfinite(ours))
            assert np.max(np.abs(ours - oracle) / np.maximum(1.0, np.abs(oracle))) <= 1e-9

    def test_tied_successors_stop_at_closed_form(self):
        # states 1 and 2 are mirror images, so the optimal member's split
        # between them is an exact tie; Howard's rule keeps the current split
        loop, side = Interval(0.1, 0.5), Interval(0.2, 0.6)
        model = RobustPomdp(
            num_states=4, num_actions=1, num_observations=4,
            obs_of=np.arange(4),
            transitions={(0, 0): {0: loop, 1: side, 2: side},
                         (1, 0): {1: Interval(0.3, 0.6), 3: Interval(0.4, 0.7)},
                         (2, 0): {2: Interval(0.3, 0.6), 3: Interval(0.4, 0.7)},
                         (3, 0): {3: Interval(1.0, 1.0)}},
            cost={(0, 0): 1.0, (1, 0): 2.0, (2, 0): 2.0, (3, 0): 0.0},
            goals=frozenset({3}),
            initial_belief=np.array([1.0, 0.0, 0.0, 0.0]),
        )
        chain = build_chain(model, dirac_fsc(4, 1))
        # pessimistic: v1 = 2 / 0.4 = 5, v0 = 1 + 0.5 v0 + 0.5 * 5 = 7
        # optimistic: v1 = 2 / 0.7, v0 = (1 + 0.9 * 20 / 7) / 0.9 = 250 / 63
        for mode, expect in (("pessimistic", 7.0), ("optimistic", 250.0 / 63.0)):
            values = robust_value_iteration(chain, mode)
            assert values.at_initial == pytest.approx(expect, rel=1e-12)
            assert values.value_of(1, 0) == values.value_of(2, 0)
            assert values.sweeps <= len(chain.row_state) + 1

    def test_unreachable_goal_reports_infinite(self):
        model = RobustPomdp(
            num_states=3, num_actions=1, num_observations=3,
            obs_of=np.arange(3),
            transitions={(0, 0): {0: Interval(1.0, 1.0)},
                         (1, 0): {2: Interval(1.0, 1.0)},
                         (2, 0): {2: Interval(1.0, 1.0)}},
            cost={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 0.0},
            goals=frozenset({2}),
            initial_belief=np.array([0.5, 0.5, 0.0]),
        )
        values = robust_value_iteration(build_chain(model, dirac_fsc(3, 1)))
        assert np.isinf(values.at_initial)
        assert "cannot reach a goal" in values.diagnosis
        assert values.value_of(1, 0) == pytest.approx(1.0, abs=1e-6)

    def test_near_singular_chain_is_never_nan_or_negative(self):
        # The only exit is an action of probability eps, as a saturated
        # softmax gives; below float64 resolution 1 - eps == 1, the member
        # chain is singular and a raw solve returns NaN or large negative
        # values.  Costs are nonnegative, so such a solve must read +inf.
        model = RobustPomdp(
            num_states=3, num_actions=2, num_observations=2,
            obs_of=np.array([0, 0, 1]),
            transitions={
                (0, 0): {2: Interval(1.0, 1.0)},
                (0, 1): {0: Interval(0.3, 0.6), 1: Interval(0.4, 0.7)},
                (1, 0): {2: Interval(1.0, 1.0)},
                (1, 1): {0: Interval(0.5, 0.8), 1: Interval(0.2, 0.5)},
                (2, 0): {2: Interval(1.0, 1.0)},
                (2, 1): {2: Interval(1.0, 1.0)},
            },
            cost={(0, 0): 1.0, (0, 1): 1.0, (1, 0): 2.0, (1, 1): 3.0, (2, 0): 0.0, (2, 1): 0.0},
            goals=frozenset({2}),
            initial_belief=np.array([1.0, 0.0, 0.0]),
        )
        for eps in (1e-14, 1e-17, 1e-25, 1e-30):
            table = np.zeros((1, 2, 2))
            table[0, :, 0] = eps
            table[0, :, 1] = 1.0 - eps
            chain = build_chain(model, Fsc(1, 0, table, np.zeros((1, 2), dtype=int)))
            for mode in ("pessimistic", "optimistic"):
                values = robust_value_iteration(chain, mode)
                assert not np.isnan(values.values).any(), (eps, mode)
                assert np.all(values.values >= 0.0), (eps, mode)
                assert values.at_initial >= 1.0 / eps, (eps, mode)  # each step costs >= 1
                if eps == 1e-25:
                    assert values.at_initial == np.inf
                    assert "below float64 resolution" in values.diagnosis


def member_edges(rng, chain):
    """The chain's non-terminal row count and the edges between those rows
    (rows, columns, probabilities) in the greedy member at random values."""
    values = rng.uniform(0.0, 10.0, size=chain.num_states)
    _, p = box_simplex_greedy(values[chain.succ], chain.lo, chain.hi, chain.offsets, bool(rng.integers(2)))
    size = len(chain.row_state)
    tpos = np.full(chain.num_states, -1)
    tpos[chain.row_state] = np.arange(size)
    rows = np.repeat(np.arange(size), np.diff(chain.offsets))
    inner = tpos[chain.succ] >= 0
    return size, rows[inner], tpos[chain.succ[inner]], p[inner]


def random_member(rng, chain):
    """P over the chain's non-terminal rows and their costs, for the greedy
    member at random values."""
    size, rows, cols, p = member_edges(rng, chain)
    return csr_matrix((p, (rows, cols)), shape=(size, size)), chain.cost[chain.row_state]


def exit_member(eps):
    """Two transient states whose only exit, from each, has probability eps."""
    return csr_matrix((1.0 - eps) * np.array([[0.25, 0.75], [0.5, 0.5]])), np.array([2.0, 3.0])


def assert_bound_covers(member, cost, values, bound):
    exact = member_values_exact(member, cost)
    error = max(abs(Fraction(float(x)) - v) for x, v in zip(values, exact))
    assert error <= Fraction(bound), (float(error), bound)


class TestSolveMember:
    def test_error_bound_covers_the_exact_error(self):
        # each member is solved from a fresh factorization and from a stale
        # one, that of another member of the same chain; the stale path
        # keeps a certified Krylov answer or factors again
        rng = np.random.default_rng(91)
        kept = 0
        for _ in range(40):
            model = random_rpomdp(rng, num_states=int(rng.integers(2, 6)))
            fsc = random_fsc(rng, int(rng.integers(1, 4)), model.num_observations, model.num_actions)
            chain = build_chain(model, fsc)
            assert len(chain.row_state) <= 15
            (other, _), (member, cost) = random_member(rng, chain), random_member(rng, chain)
            stale = solve_member(other, cost)[1]
            for lu in (None, stale):
                values, _, bound, factored = solve_member(member, cost, lu, np.zeros(len(cost)))
                assert_bound_covers(member, cost, values, bound)
                kept += not factored
        assert kept >= 20
        well, _ = exit_member(0.5)
        for eps in 10.0 ** -np.arange(6, 16):
            member, cost = exit_member(eps)
            stale = solve_member(well, cost)[1]
            for lu in (None, stale):
                values, _, bound, _ = solve_member(member, cost, lu, np.ones(2))
                assert_bound_covers(member, cost, values, bound)

    def test_exact_preconditioner_keeps_the_exact_iterate(self):
        # the member's own LU makes BiCGSTAB's first half step exact, so the
        # textbook omega of that step is 0/0; the solve keeps the exact
        # iterate, not NaN, and does not factor again
        member, cost = csr_matrix(np.array([[0.0, 0.5], [0.0, 0.0]])), np.array([2.0, 3.0])
        exact, lu, _, _ = solve_member(member, cost)
        values, _, bound, factored = solve_member(member, cost, lu, np.zeros(2))
        assert not factored
        assert np.array_equal(values, exact) and np.array_equal(values, [3.5, 3.0])
        assert_bound_covers(member, cost, values, bound)

    def test_fixed_pattern_matrices_equal_a_fresh_assembly(self):
        # P and I - P refilled on the pattern assembled once per evaluation
        # equal the member built from its edges and (identity - P).tocsc()
        rng = np.random.default_rng(93)
        self_loops = 0
        for model in [random_rpomdp(rng) for _ in range(10)] + [generate_grid(GridSpec(4, 3, "evade"))]:
            chain = build_chain(model, random_fsc(rng, 2, model.num_observations, model.num_actions))
            size, rows, cols, _ = member_edges(rng, chain)
            fill = _member_matrices(size, rows, cols)
            self_loops += int(np.sum(rows == cols))
            for _ in range(2):  # the second member refills the first's arrays
                p = member_edges(rng, chain)[3]
                member, matrix = fill(p)
                fresh = csr_matrix((p, (rows, cols)), shape=(size, size))
                assert np.array_equal(member.toarray(), fresh.toarray())
                expected = (identity(size, format="csr") - fresh).tocsc()
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(matrix, field), getattr(expected, field)), field
        assert self_loops > 0

    def test_stale_factorization_on_a_near_singular_member(self):
        well, cost = exit_member(0.5)
        guess, stale, _, _ = solve_member(well, cost)
        for eps in (1e-14, 1e-17, 1e-25):
            member, cost = exit_member(eps)
            values, _, bound, _ = solve_member(member, cost, stale, guess)
            assert not np.isnan(values).any(), eps
            assert np.all(values >= 0.0), eps
            assert np.all(np.isinf(values) | (values >= 1.0 / eps)), (eps, values)
            if np.isfinite(bound):
                assert_bound_covers(member, cost, values, bound)


def reference_cases():
    rng = np.random.default_rng(92)
    for _ in range(12):
        model = random_rpomdp(rng, num_states=int(rng.integers(3, 6)))
        yield model, random_fsc(rng, int(rng.integers(2, 4)), model.num_observations, model.num_actions)
    for kind, clusters in (("evade", 4), ("intercept", 4), ("avoid", 4), ("evade", 2), ("avoid", 2)):
        model = generate_grid(GridSpec(4, 4, kind))
        yield model, kmeans_controller(model, clusters)


def test_matches_the_one_solve_per_member_reference():
    reused = 0
    for model, fsc in reference_cases():
        chain = build_chain(model, fsc)
        for mode in ("pessimistic", "optimistic"):
            ours = robust_value_iteration(chain, mode)
            reference = robust_value_iteration_reference(chain, mode)
            finite = np.isfinite(reference.values)
            assert np.array_equal(np.isfinite(ours.values), finite)
            rel = np.abs(ours.values - reference.values)[finite] / np.maximum(1.0, reference.values[finite])
            assert np.max(rel, initial=0.0) <= 1e-12, (mode, np.max(rel))
            assert ours.diagnosis == reference.diagnosis
            assert abs(ours.sweeps - reference.sweeps) <= 2
            assert 1 <= ours.factorizations <= ours.sweeps
            if ours.sweeps >= 3 and ours.factorizations == 1:
                reused += 1
            if len(chain.row_state) > 100:  # the grids: no member needs a fallback
                assert ours.factorizations == 1, (mode, ours.sweeps)
    assert reused >= 6
