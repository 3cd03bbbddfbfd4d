from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.sparse import csr_matrix, identity
from scipy.sparse.csgraph import reverse_cuthill_mckee

import robustfsc.solvers as solvers
from conftest import kmeans_controller, random_feasible_boxes, random_fsc, random_rpomdp
from oracles import (
    box_simplex_opt,
    chain_solver,
    from_rows,
    gth_values,
    inner_max,
    inner_min,
    interval_rows,
    member_values_exact,
    product_chain_cost,
    product_chain_reference,
    robust_chain_lp,
    robust_value_iteration_reference,
    solve_member,
    state_index,
    value_of,
)
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import ConcretePomdp, Fsc, Interval, RobustPomdp, nominal_midpoint, project_row, sample_member
from robustfsc.modelio import parse_fsc
from robustfsc.robusteval import (
    _box_simplex_fill,
    _infinite_set,
    _rank_order,
    box_simplex_greedy,
    build_chain,
    evaluate_member,
    robust_value_iteration,
)
from robustfsc.solvers import (
    STAGNATION_STEPS,
    ChainSolver,
    _bicgstab,
    _error_bound,
    _exact_lu,
    _hops_to,
    _incomplete_lu,
)


def self_loop_model():
    """State 0 loops with p in [0.4, 0.6] or advances to the goal, cost 1."""
    return from_rows(
        RobustPomdp,
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
    return from_rows(
        RobustPomdp,
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
        idx = state_index(chain, 0, 0)
        row = {int(chain.succ[e]): (chain.lo[e], chain.hi[e])
               for e in range(chain.offsets[0], chain.offsets[1])}
        assert row[state_index(chain, 0, 0)] == (0.4, 0.6)
        assert row[state_index(chain, 1, 0)] == (0.4, 0.6)
        assert chain.cost[idx] == 1.0

    def test_unreached_pair_raises_key_error(self):
        model = self_loop_model()
        two_nodes = Fsc(2, 0, np.ones((2, 2, 1)), np.zeros((2, 2), dtype=int))  # node 1 is never entered
        values = robust_value_iteration(build_chain(model, two_nodes))
        assert value_of(values, 1, 0) == 0.0
        for s, n in ((0, 1), (1, 1), (2, 0), (0, 2), (-1, 0)):
            with pytest.raises(KeyError):
                value_of(values, s, n)

    def test_uniform_mix_of_point_rows(self):
        uniform = Fsc(1, 0, np.full((1, 1, 2), 0.5), np.zeros((1, 1), dtype=int))
        chain = build_chain(point_rows_model(), uniform)
        row = {int(chain.succ[e]): (chain.lo[e], chain.hi[e])
               for e in range(chain.offsets[0], chain.offsets[1])}
        assert row[state_index(chain, 1, 0)] == (pytest.approx(0.6), pytest.approx(0.6))
        assert row[state_index(chain, 2, 0)] == (pytest.approx(0.4), pytest.approx(0.4))
        assert chain.cost[state_index(chain, 0, 0)] == pytest.approx(2.0)

    def test_matches_hand_built_product(self):
        rng = np.random.default_rng(23)
        model = random_rpomdp(rng, num_states=3, num_actions=2)
        fsc = random_fsc(rng, 2, model.num_observations, 2)
        chain = build_chain(model, fsc)
        rows, cost = interval_rows(model), model.edges.cost.reshape(-1, model.num_actions)
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
                expect_cost += d * cost[s, a]
                for sp, iv in rows[(s, a)].items():
                    expect_lo[sp] = expect_lo.get(sp, 0.0) + d * iv.lo
                    expect_hi[sp] = expect_hi.get(sp, 0.0) + d * iv.hi
            row_pos = int(np.flatnonzero(chain.row_state == idx)[0])
            got = {int(chain.succ[e]): (chain.lo[e], chain.hi[e])
                   for e in range(chain.offsets[row_pos], chain.offsets[row_pos + 1])}
            assert chain.cost[idx] == pytest.approx(expect_cost, abs=1e-12)
            for sp, lo_val in expect_lo.items():
                got_lo, got_hi = got[state_index(chain, sp, n2)]
                assert got_lo == pytest.approx(lo_val, abs=1e-12)
                assert got_hi == pytest.approx(expect_hi[sp], abs=1e-12)

    def test_matches_the_first_in_first_out_reference(self):
        # every array bit for bit: numbering, merge order and the order terms are added in
        rng = np.random.default_rng(25)
        cases = []
        for kind in ("interval", "member", "degenerate") * 10:
            model = random_rpomdp(rng, num_states=int(rng.integers(3, 6)), num_actions=int(rng.integers(2, 4)),
                                  degenerate=kind == "degenerate")
            if kind == "member":
                model = sample_member(model, int(rng.integers(1 << 30)))
            cases.append((model, random_fsc(rng, int(rng.integers(1, 4)), model.num_observations, model.num_actions)))
        for kind in ("evade", "avoid", "intercept"):
            model = generate_grid(GridSpec(4, 4, kind))
            cases.append((model, kmeans_controller(model, 4)))
        for model, fsc in cases:
            chain, reference = build_chain(model, fsc), product_chain_reference(model, fsc)
            for name in ("pairs", "cost", "is_goal", "init_prob", "succ", "lo", "hi", "offsets", "row_state",
                         "term_edge", "term_weight", "term_succ"):
                ours, theirs = getattr(chain, name), getattr(reference, name)
                assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs), (model.name, name)

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
        model = from_rows(
            RobustPomdp,
            num_states=2, num_actions=1, num_observations=2,
            obs_of=np.array([0, 1]),
            transitions={(0, 0): {1: Interval(1.0, 1.0)}, (1, 0): {1: Interval(1.0, 1.0)}},
            cost={(0, 0): 4.5, (1, 0): 0.0},
            goals=frozenset({1}),
            initial_belief=np.array([1.0, 0.0]),
        )
        values = robust_value_iteration(build_chain(model, dirac_fsc(2, 1)), tol=1e-12)
        assert values.at_initial == pytest.approx(4.5, abs=1e-9)
        assert value_of(values, 1, 0) == 0.0

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
        model = from_rows(
            RobustPomdp,
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

    def test_ilu_path_chain_matches_lp_oracle(self):
        """Both modes of a planner-sized chain whose first member takes the ILU, against the LP.

        ``data/intercept6x6_ilu.fsc`` is the best controller of a 2-iteration planner run on
        intercept 6x6 (grid seed 201; pip, QMDP, k-means, 64 episodes of horizon 50, 9 clusters,
        hidden 16, embedding 8, 8 epochs, seed 0) with every (node, observation) row that its
        chain never reads set to action 0, so the chain is that run's chain."""
        model = generate_grid(GridSpec(6, 6, "intercept"), 201)
        fsc = parse_fsc((Path(__file__).parent / "data" / "intercept6x6_ilu.fsc").read_text())
        chain = build_chain(model, fsc)
        assert (chain.num_states, len(chain.row_state)) == (721, 707)
        assert len(chain.row_state) >= solvers.EXACT_BELOW
        for mode in ("pessimistic", "optimistic"):
            values = robust_value_iteration(chain, mode)
            oracle = robust_chain_lp(chain, maximize=mode == "pessimistic")
            assert np.all(np.isfinite(values.values))  # so every transient state counts toward the size rule
            assert values.incomplete == 1
            assert np.max(np.abs(values.values - oracle) / np.maximum(1.0, np.abs(oracle))) <= 1e-10

    def test_tied_successors_stop_at_closed_form(self):
        # states 1 and 2 are mirror images, so the optimal member's split
        # between them is an exact tie; Howard's rule keeps the current split
        loop, side = Interval(0.1, 0.5), Interval(0.2, 0.6)
        model = from_rows(
            RobustPomdp,
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
            assert value_of(values, 1, 0) == value_of(values, 2, 0)
            assert values.sweeps <= len(chain.row_state) + 1

    @pytest.mark.parametrize("mode", ["pessimistic", "optimistic"])
    def test_a_switch_gaining_2e_10_of_max_v_is_taken(self, mode):
        # state 0 splits [0.3, 0.7] each between states 1 and 2, whose costs differ by delta.
        # The hop-distance start ties them and gives state 1 the larger share; the optimal
        # member gives it to state 2, the dearer one (pessimistic) or the cheaper one
        # (optimistic).  The one switch gains 0.4 delta = 4e-10 at max v = 2, between the
        # 1e-12 gate and 1e-9, and skipping it is off by 2e-10 relative.
        delta = 1e-9
        costs = (1.0, 1.0 + delta) if mode == "pessimistic" else (1.0 + delta, 1.0)
        goal = {3: Interval(1.0, 1.0)}
        model = from_rows(
            RobustPomdp,
            num_states=4, num_actions=1, num_observations=4,
            obs_of=np.arange(4),
            transitions={(0, 0): {1: Interval(0.3, 0.7), 2: Interval(0.3, 0.7)},
                         (1, 0): goal, (2, 0): goal, (3, 0): goal},
            cost={(0, 0): 1.0, (1, 0): costs[0], (2, 0): costs[1], (3, 0): 0.0},
            goals=frozenset({3}),
            initial_belief=np.array([1.0, 0.0, 0.0, 0.0]),
        )
        values = robust_value_iteration(build_chain(model, dirac_fsc(4, 1)), mode)
        exact = 1 + Fraction(3, 10) * Fraction(costs[0]) + Fraction(7, 10) * Fraction(costs[1])
        assert abs(Fraction(values.at_initial) - exact) <= Fraction(1e-12) * exact
        assert values.sweeps == 2

    def test_unreachable_goal_reports_infinite(self):
        model = from_rows(
            RobustPomdp,
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
        assert value_of(values, 1, 0) == pytest.approx(1.0, abs=1e-6)

    def test_near_singular_chain_is_never_nan_or_negative(self):
        # The only exit is an action of probability eps, as a saturated
        # softmax gives; below float64 resolution 1 - eps == 1, the member
        # chain is singular and a raw solve returns NaN or large negative
        # values.  Costs are nonnegative, so such a solve must read +inf.
        model = from_rows(
            RobustPomdp,
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


def trap_model(rng):
    """Random sparse member whose last state is the goal and whose first one or
    two states are absorbing traps, so some product states reach no goal."""
    n, na, traps = int(rng.integers(5, 10)), int(rng.integers(1, 3)), int(rng.integers(1, 3))
    transitions, cost = {}, {}
    for s in range(n):
        for a in range(na):
            succ = [s] if s < traps or s == n - 1 else np.sort(rng.choice(n, int(rng.integers(1, 4)), replace=False))
            transitions[(s, a)] = {int(sp): Interval(float(p), float(p))
                                   for sp, p in zip(succ, rng.dirichlet(np.ones(len(succ))))}
            cost[(s, a)] = float(s != n - 1)
    return from_rows(RobustPomdp, num_states=n, num_actions=na, num_observations=n, obs_of=np.arange(n),
                     transitions=transitions, cost=cost, goals={n - 1}, initial_belief=np.full(n, 1.0 / n))


def test_infinite_set_reverses_the_graph_once(monkeypatch):
    builds = []

    def counted(*args, **kwargs):
        builds.append(1)
        return csr_matrix(*args, **kwargs)

    monkeypatch.setattr(solvers, "csr_matrix", counted)
    rng = np.random.default_rng(20)
    mixed = 0  # chains with a state that reaches both a goal and a state that reaches none
    for _ in range(40):
        model = trap_model(rng)
        chain = build_chain(model, random_fsc(rng, int(rng.integers(1, 4)), model.num_observations, model.num_actions))
        builds.clear()
        infinite, hops = _infinite_set(chain)
        assert len(builds) == 1
        preds = np.repeat(chain.row_state, np.diff(chain.offsets))
        goal_hops = _hops_to(preds, chain.succ, chain.num_states)(chain.is_goal)
        assert np.array_equal(hops, goal_hops)
        assert np.array_equal(infinite, np.isfinite(_hops_to(preds, chain.succ, chain.num_states)(np.isinf(goal_hops))))
        mixed += bool(np.any(infinite & np.isfinite(hops)))
    assert mixed >= 20


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


def identity_minus(member):
    """I - member as the kernel assembles it on the member's pattern."""
    return chain_solver(member).matrices(member.data)[1]


def exact_lu(member):
    """The exact factorization of I - member that ``ChainSolver.solve`` falls back to."""
    return _exact_lu(identity_minus(member))


def incomplete_lu(member):
    """The incomplete factorization of I - member that ``ChainSolver.solve`` tries first."""
    return _incomplete_lu(identity_minus(member))


def assert_bound_covers(member, cost, values, bound):
    exact = member_values_exact(member, cost)
    error = max(abs(Fraction(float(x)) - v) for x, v in zip(values, exact))
    assert error <= Fraction(bound), (float(error), bound)


class TestSolveMember:
    def test_error_bound_covers_the_exact_error(self):
        # with no factorization these chains, far below EXACT_BELOW, are factored exactly
        self.check_error_bound_covers(ilu_first=False)

    def test_error_bound_covers_the_exact_error_with_the_size_rule_off(self, monkeypatch):
        # with no factorization each chain takes an ILU of its own first, kept or
        # followed by the exact LU
        monkeypatch.setattr(solvers, "EXACT_BELOW", 0)
        self.check_error_bound_covers(ilu_first=True)

    @staticmethod
    def check_error_bound_covers(ilu_first):
        # each member is solved with no factorization, with a stale exact LU, that
        # of another member of the same chain, and with its own ILU; a given
        # factorization keeps a certified Krylov answer or factors again
        rng = np.random.default_rng(91)
        kept = incomplete = 0
        for _ in range(40):
            model = random_rpomdp(rng, num_states=int(rng.integers(2, 6)))
            fsc = random_fsc(rng, int(rng.integers(1, 4)), model.num_observations, model.num_actions)
            chain = build_chain(model, fsc)
            assert len(chain.row_state) <= 15
            (other, _), (member, cost) = random_member(rng, chain), random_member(rng, chain)
            for lu in (None, exact_lu(other), incomplete_lu(member)):
                values, _, bound, factored = solve_member(member, cost, lu, np.zeros(len(cost)))
                assert_bound_covers(member, cost, values, bound)
                # a Krylov answer kept is positive, though no check asks it to be
                assert factored == "exact" or values.min() > 0.0
                if lu is None and not ilu_first:
                    assert factored == "exact"
                kept += not factored
                incomplete += lu is None and factored == "incomplete"
        assert kept >= 70 and incomplete >= (35 if ilu_first else 0), (kept, incomplete)
        well, _ = exit_member(0.5)
        for eps in 10.0 ** -np.arange(6, 16):
            member, cost = exit_member(eps)
            for lu in (None, exact_lu(well), incomplete_lu(member)):
                values, _, bound, factored = solve_member(member, cost, lu, np.ones(2))
                assert_bound_covers(member, cost, values, bound)
                assert factored == "exact" or values.min() > 0.0

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
            solver = ChainSolver(size, rows, cols)
            self_loops += int(np.sum(rows == cols))
            for _ in range(2):  # the second member refills the first's arrays
                p = member_edges(rng, chain)[3]
                member, matrix = solver.matrices(p)
                fresh = csr_matrix((p, (rows, cols)), shape=(size, size))
                assert np.array_equal(member.toarray(), fresh.toarray())
                expected = (identity(size, format="csr") - fresh).tocsc()
                for field in ("indptr", "indices", "data"):
                    assert np.array_equal(getattr(matrix, field), getattr(expected, field)), field
        assert self_loops > 0

    def test_a_member_its_incomplete_factorization_cannot_certify_is_factored_exactly(self, monkeypatch):
        # exits of 1e-6 put ||v|| / c_min near 5e6, past what a float64 answer
        # can certify (about 1e5), so the first member's ILU answer is thrown
        # away and the evaluation returns splu's values bit for bit.  The chain
        # is below EXACT_BELOW, so the size rule is off to reach the ILU
        monkeypatch.setattr(solvers, "EXACT_BELOW", 0)
        rng = np.random.default_rng(99)
        p, cost = random_chain(rng, exits=(1e-6, 1e-6))
        n = len(cost)
        model = from_rows(
            ConcretePomdp, num_states=n + 1, num_actions=1, num_observations=n + 1, obs_of=np.arange(n + 1),
            transitions={**{(s, 0): {**dict(zip(p[s].indices.tolist(), p[s].data)), n: 1.0 - p[s].sum()}
                            for s in range(n)}, (n, 0): {n: 1.0}},
            cost={**{(s, 0): cost[s] for s in range(n)}, (n, 0): 0.0}, goals=frozenset({n}),
            initial_belief=np.append(np.full(n, 1.0 / n), 0.0),
        )
        chain = build_chain(model, dirac_fsc(n + 1, 1))
        values = robust_value_iteration(chain)
        assert (values.sweeps, values.factorizations, values.incomplete) == (1, 1, 0)
        assert values.krylov_steps > 0  # the ILU was tried
        member, cost = random_member(rng, chain)  # the chain's one member, in its order
        ilu = incomplete_lu(member)
        x, _ = _bicgstab(identity_minus(member), ilu, cost, ilu.solve(cost))
        assert _error_bound(member, cost, x) > 1e-10 * np.max(x)
        exact = exact_lu(member).solve(cost)
        assert np.max(exact) / np.min(cost) >= 1e6
        assert np.array_equal(values.values[chain.row_state], exact)
        assert solve_member(member, cost)[3] == "exact"

    def test_the_size_rule_factors_chains_below_it_exactly_first(self):
        # a chain one state short of EXACT_BELOW is factored exactly at once, with
        # no Krylov step; one of EXACT_BELOW states takes its ILU first and keeps
        # the certified Krylov answer.  Each answer and splu's differ by at most
        # the sum of their certified bounds
        rng = np.random.default_rng(101)
        for n in (solvers.EXACT_BELOW - 1, solvers.EXACT_BELOW):
            member, cost = random_chain(rng, n=n)
            solver = chain_solver(member)
            values = solver.solve(member.data, cost, None)
            large = n >= solvers.EXACT_BELOW
            assert (solver.factorizations, solver.incomplete, solver.krylov_steps > 0) == (1, large, large), n
            exact = exact_lu(member).solve(cost)
            assert large or np.array_equal(values, exact)
            assert np.max(np.abs(values - exact)) <= solver.error_bound + _error_bound(member, cost, exact), n

    def test_incomplete_factorization_answers_in_the_callers_order(self):
        # a birth-death chain under shuffled state labels: in reverse Cuthill-McKee
        # order I - P is tridiagonal again, its LU has no fill and every entry is
        # past the drop tolerance, so the ILU is the exact LU, and its answers
        # agree only if the ordering is undone exactly once
        rng = np.random.default_rng(100)
        for n in (2, 3, 40, 300):
            birth, death = rng.uniform(0.1, 0.45, n), rng.uniform(0.1, 0.45, n)
            label = rng.permutation(n)  # state i is row label[i]; it moves to i + 1 or i - 1, or exits
            up, down = (label[:-1], label[1:]), (label[1:], label[:-1])
            member = csr_matrix((np.concatenate([birth[:-1], death[1:]]), np.concatenate([up, down], axis=1)),
                                shape=(n, n))
            order = reverse_cuthill_mckee(identity_minus(member), symmetric_mode=False)
            assert n < 3 or not np.array_equal(order[order], np.arange(n))  # so undoing it twice shows
            cost = rng.uniform(1.0, 10.0, n)
            exact = exact_lu(member).solve(cost)
            assert np.max(np.abs(incomplete_lu(member).solve(cost) - exact) / exact) <= 1e-14, n

    def test_a_zero_pivot_in_the_incomplete_factorization_falls_back(self, monkeypatch):
        # below float64 resolution the exit rounds away: spilu raises on the
        # singular factor, and the exact solve reads +inf as before.  The size
        # rule is off so that these two-state chains reach the ILU
        monkeypatch.setattr(solvers, "EXACT_BELOW", 0)
        for eps in (1e-17, 1e-25, 1e-30):
            member, cost = exit_member(eps)
            with pytest.raises(RuntimeError):
                incomplete_lu(member)
            values, lu, bound, factored = solve_member(member, cost)
            assert np.all(np.isinf(values)) and lu is None and bound == np.inf and factored == "exact"

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


def random_chain(rng, n=40, exits=(0.05, 0.5)):
    """P over ``n`` transient states, three successors per row and an exit to the goal of
    probability drawn from ``exits``, with costs in [1, 10]."""
    cols = np.concatenate([rng.choice(n, 3, replace=False) for _ in range(n)])
    p = np.concatenate([rng.dirichlet(np.ones(3)) * (1.0 - rng.uniform(*exits)) for _ in range(n)])
    return csr_matrix((p, (np.repeat(np.arange(n), 3), cols)), shape=(n, n)), rng.uniform(1.0, 10.0, n)


class Recorded:
    """``matrix @ v`` that records every v.  ``_bicgstab`` applies it to its start, then in each
    step to two search directions and the new iterate, so its iterates are every third operand."""

    def __init__(self, matrix):
        self.matrix, self.operands = matrix, []

    def __matmul__(self, v):
        self.operands.append(v)
        return self.matrix @ v


def bicgstab_stop(member, cost, lu, guess):
    """Runs ``_bicgstab`` on I - member and checks its stop: it ends at the first iterate whose best
    residual is at most 2 eps (max |c| + 2 max |best|), or after the first ``STAGNATION_STEPS`` steps
    in a row that lower it not at all, and returns the best iterate.  Returns that iterate, the steps
    and which rule ended the loop, "floor" or "stagnated"."""
    matrix = identity_minus(member)
    recorded = Recorded(matrix)
    x, steps = _bicgstab(recorded, lu, cost, guess)
    iterates = recorded.operands[::3]
    assert len(iterates) == steps + 1
    best, least, misses = 0, np.inf, 0
    for k, iterate in enumerate(iterates):
        assert misses < STAGNATION_STEPS, k
        assert least > 2 * np.finfo(float).eps * (np.max(cost) + 2 * np.max(np.abs(iterates[best]))), k
        residual = np.max(np.abs(cost - matrix @ iterate))
        best, least, misses = (k, residual, 0) if residual < least else (best, least, misses + 1)
    assert x is iterates[best]
    floor = least <= 2 * np.finfo(float).eps * (np.max(cost) + 2 * np.max(np.abs(x)))
    assert floor or misses == STAGNATION_STEPS
    return x, steps, "floor" if floor else "stagnated"


class TestBicgstabStop:
    def test_own_factorization_stops_after_one_step(self):
        # the member's own LU solves it in the first step; the two steps after it,
        # which changed nothing, are gone
        rng = np.random.default_rng(94)
        for _ in range(5):
            member, cost = random_chain(rng)
            _, steps, stop = bicgstab_stop(member, cost, exact_lu(member), np.zeros(len(cost)))
            assert (steps, stop) == (1, "floor")

    def test_stale_factorization_stops_at_the_floor_or_stagnates(self):
        # another member of the same chain preconditions; the iterate kept is
        # certified by _error_bound against the exact values
        rng = np.random.default_rng(95)
        stops = []
        for _ in range(30):
            model = random_rpomdp(rng, num_states=int(rng.integers(3, 6)))
            chain = build_chain(model, random_fsc(rng, int(rng.integers(1, 4)), model.num_observations,
                                                  model.num_actions))
            (other, _), (member, cost) = random_member(rng, chain), random_member(rng, chain)
            x, _, stop = bicgstab_stop(member, cost, exact_lu(other), np.zeros(len(cost)))
            assert_bound_covers(member, cost, x, _error_bound(member, cost, x))
            stops.append(stop)
        assert stops.count("floor") >= 25, stops

    def test_far_factorization_stagnates_and_the_member_is_factored(self):
        # exits of 1e-3 against a preconditioner with exits near one half: the
        # residual rises from the start, so every step misses and the loop ends
        # after STAGNATION_STEPS of them at an iterate no certificate covers; the
        # member is factored
        rng = np.random.default_rng(96)
        for _ in range(5):
            member, cost = random_chain(rng, exits=(1e-3, 1e-3))
            far = exact_lu(random_chain(rng, exits=(0.3, 0.6))[0])
            x, steps, stop = bicgstab_stop(member, cost, far, np.zeros(len(cost)))
            assert (steps, stop) == (STAGNATION_STEPS, "stagnated")
            assert _error_bound(member, cost, x) == np.inf
            assert solve_member(member, cost, far, np.zeros(len(cost)))[3] == "exact"

    def test_own_incomplete_factorization_from_its_solve_stops_at_the_floor(self):
        # the same exits of 1e-3, preconditioned by the chain's own ILU M and
        # started from M^-1 c, as the first member of an evaluation is: the
        # loop ends at the floor and the answer is kept without factoring
        rng = np.random.default_rng(98)
        for _ in range(20):
            member, cost = random_chain(rng, exits=(1e-3, 1e-3))
            ilu = incomplete_lu(member)
            assert bicgstab_stop(member, cost, ilu, ilu.solve(cost))[2] == "floor"
            assert solve_member(member, cost, ilu, ilu.solve(cost))[3] is None


def test_error_bound_on_empty_rows():
    # members of 7 states whose rows 0, 3 and 6 lead only to the goal, so are
    # empty in P; the residual is taken on a longdouble matrix sharing the
    # member's indices and indptr, equals the bound from
    # member.astype(np.longdouble) within its own rounding term, and covers
    # the exact error
    rng = np.random.default_rng(97)
    eps = np.finfo(float).eps
    for _ in range(6):
        dense = rng.dirichlet(np.ones(7), size=7) * rng.uniform(0.2, 0.9, size=(7, 1))
        dense[rng.uniform(size=(7, 7)) < 0.4] = 0.0
        dense[[0, 3, 6]] = 0.0
        member, cost = csr_matrix(dense), rng.uniform(1.0, 5.0, 7)
        assert np.diff(member.indptr)[[0, 3, 6]].tolist() == [0, 0, 0]
        exact = solve_member(member, cost)[0]
        for x in (exact, exact * (1 + 1e-9), exact + rng.uniform(-1e-6, 1e-6, 7)):
            bound = _error_bound(member, cost, x)
            assert_bound_covers(member, cost, x, bound)
            x_max, c_min = np.max(np.abs(x)), np.min(cost)
            rounding = (np.diff(member.indptr).max() + 3) * np.finfo(np.longdouble).eps * (np.max(cost) + 3 * x_max)
            residual = np.max(np.abs(member.astype(np.longdouble) @ x - x + cost))
            assert residual * x_max / (c_min - residual) * (1 + eps) <= bound
            assert bound <= (residual + 2 * rounding) * x_max / (c_min - residual - 2 * rounding) * (1 + eps)


def relative_error(values, exact):
    """max |values - exact| / exact over positive exact values; +inf if any value is not finite."""
    if not np.all(np.isfinite(values)):
        return np.inf
    return float(max(abs(Fraction(float(x)) - v) / v for x, v in zip(values, exact)))


def test_gth_oracle_is_exact_on_the_epsilon_ladder():
    # 12-state chains whose every row exits with probability eps: GTH
    # elimination, which never subtracts, matches the Fraction solve to 1e-12
    # relative down to eps = 1e-15; the member solve's own error is reported,
    # not asserted (it grows as eps shrinks)
    rng = np.random.default_rng(100)
    for eps in 10.0 ** -np.arange(6, 16):
        gth = member_solve = 0.0
        for _ in range(3):
            member, cost = random_chain(rng, n=12, exits=(eps, eps))
            exact = member_values_exact(member, cost)
            gth = max(gth, relative_error(gth_values(member, cost), exact))
            member_solve = max(member_solve, relative_error(solve_member(member, cost)[0], exact))
        assert gth <= 1e-12, (eps, gth)
        print(f"[epsilon ladder] exit {eps:.0e}: GTH {gth:.1e}, member solve {member_solve:.1e} relative error")


def reference_cases():
    rng = np.random.default_rng(92)
    for _ in range(12):
        model = random_rpomdp(rng, num_states=int(rng.integers(3, 6)))
        yield model, random_fsc(rng, int(rng.integers(2, 4)), model.num_observations, model.num_actions)
    for kind, clusters in (("evade", 4), ("intercept", 4), ("avoid", 4), ("evade", 2), ("avoid", 2)):
        model = generate_grid(GridSpec(4, 4, kind))
        yield model, kmeans_controller(model, clusters)


def test_matches_the_one_solve_per_member_reference():
    reused, sides = 0, set()
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
            if len(chain.row_state) > 100:  # the grids: the first member's factorization serves them all
                assert ours.factorizations == 1, (mode, ours.sweeps)
                # an exact LU below the size rule, an ILU at or above it; the rule
                # reads the finite transient states, those the member solve sees
                size = int(np.isfinite(ours.values[chain.row_state]).sum())
                large = size >= solvers.EXACT_BELOW
                assert ours.incomplete == large, (mode, size)
                sides.add(large)
    assert reused >= 6 and sides == {False, True}
