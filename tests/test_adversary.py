import numpy as np
import pytest

from conftest import kmeans_controller, random_fsc, random_rpomdp
from oracles import (
    box_simplex_candidates,
    from_rows,
    interval_rows,
    per_action_value,
    product_chain_cost,
    proxy_objective_of,
    static_worst_case_vertices,
    worst_case_weights_reference,
)
from robustfsc.adversary import select_worst_case
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import Fsc, Interval, RobustPomdp, nominal_midpoint, sample_member
from robustfsc.robusteval import build_chain, robust_value_iteration


def evaluated(model, fsc, tol=1e-12):
    return robust_value_iteration(build_chain(model, fsc), "pessimistic", tol=tol)


def dirac_fsc(num_obs, num_actions, action=0):
    table = np.zeros((1, num_obs, num_actions))
    table[0, :, action] = 1.0
    return Fsc(1, 0, table, np.zeros((1, num_obs), dtype=int))


def test_point_intervals_fix_the_member():
    rng = np.random.default_rng(31)
    model = random_rpomdp(rng, num_states=3, num_actions=2, degenerate=True)
    fsc = random_fsc(rng, 2, model.num_observations, 2)
    values = evaluated(model, fsc)
    result = select_worst_case(model, fsc, values)
    unique = nominal_midpoint(model)
    for key, row in result.worst_case.transitions.items():
        for sp, p in row.items():
            assert p == pytest.approx(unique.transitions[key][sp], abs=1e-12)
    # proxy equals the direct triple sum of T * delta * value
    direct = 0.0
    value = dict(zip(values.chain.pairs.tolist(), values.values.tolist()))  # unreached pairs count 0
    for s, n in zip(*(x.tolist() for x in np.divmod(values.chain.pairs, fsc.num_nodes))):
        z = int(model.obs_of[s])
        n2 = int(fsc.memory_map[n, z])
        for a in range(model.num_actions):
            d = float(fsc.action_map[n, z, a])
            if d == 0.0:
                continue
            for sp, q in unique.transitions[(s, a)].items():
                direct += q * d * value.get(sp * fsc.num_nodes + n2, 0.0)
    assert result.proxy_objective == pytest.approx(direct, abs=1e-9)


def test_costly_self_loop_pushed_to_upper_bound():
    model = from_rows(
        RobustPomdp,
        num_states=2, num_actions=1, num_observations=2,
        obs_of=np.array([0, 1]),
        transitions={(0, 0): {0: Interval(0.4, 0.6), 1: Interval(0.4, 0.6)},
                     (1, 0): {1: Interval(1.0, 1.0)}},
        cost={(0, 0): 1.0, (1, 0): 0.0},
        goals=frozenset({1}),
        initial_belief=np.array([1.0, 0.0]),
    )
    fsc = dirac_fsc(2, 1)
    result = select_worst_case(model, fsc, evaluated(model, fsc))
    assert result.worst_case.transitions[(0, 0)][0] == pytest.approx(0.6)
    assert result.worst_case.transitions[(0, 0)][1] == pytest.approx(0.4)


def test_proxy_matches_row_vertex_enumeration():
    rng = np.random.default_rng(32)
    for _ in range(10):
        model = random_rpomdp(rng, num_states=3, num_actions=2)
        fsc = random_fsc(rng, 2, model.num_observations, 2)
        values = evaluated(model, fsc)
        result = select_worst_case(model, fsc, values)
        oracle, rows = 0.0, interval_rows(model)
        _, counts = model.edges.of_rows(result.rows)
        for r, w in zip(result.rows.tolist(), np.split(result.weights, np.cumsum(counts)[:-1])):
            row = rows[divmod(r, model.num_actions)]
            succs = sorted(row)
            lo = np.array([row[sp].lo for sp in succs])
            hi = np.array([row[sp].hi for sp in succs])
            best = max(float(p @ w) for p in box_simplex_candidates(lo, hi))
            oracle += best
        assert result.proxy_objective == pytest.approx(oracle, abs=1e-9)


def test_proxy_dominates_sampled_members():
    rng = np.random.default_rng(33)
    for _ in range(5):
        model = random_rpomdp(rng)
        fsc = random_fsc(rng, 2, model.num_observations, model.num_actions)
        values = evaluated(model, fsc)
        result = select_worst_case(model, fsc, values)
        at_worst = proxy_objective_of(result, result.worst_case)
        assert result.proxy_objective == pytest.approx(at_worst, abs=1e-9)
        for _ in range(100):
            member = sample_member(model, int(rng.integers(1 << 30)))
            assert proxy_objective_of(result, member) <= result.proxy_objective + 1e-9


def test_static_member_never_exceeds_dynamic_value():
    rng = np.random.default_rng(34)
    for _ in range(10):
        model = random_rpomdp(rng)
        fsc = random_fsc(rng, 2, model.num_observations, model.num_actions)
        values = evaluated(model, fsc)
        result = select_worst_case(model, fsc, values)
        assert result.worst_case.is_member_of(model)
        for row in result.worst_case.transitions.values():
            assert abs(sum(row.values()) - 1.0) < 1e-9
        realized = product_chain_cost(result.worst_case, fsc)
        assert realized <= values.at_initial + 1e-8


def test_worst_member_usually_beats_midpoint():
    rng = np.random.default_rng(35)
    wins = 0
    total = 20
    for _ in range(total):
        model = random_rpomdp(rng)
        fsc = random_fsc(rng, 2, model.num_observations, model.num_actions)
        values = evaluated(model, fsc)
        result = select_worst_case(model, fsc, values)
        v_worst = product_chain_cost(result.worst_case, fsc)
        v_mid = product_chain_cost(nominal_midpoint(model), fsc)
        if v_worst >= v_mid - 1e-9:
            wins += 1
    assert wins >= int(0.9 * total)


def starts_on_a_goal(all_mass):
    model = from_rows(
        RobustPomdp,
        num_states=3, num_actions=2, num_observations=2,
        obs_of=np.array([0, 0, 1]),
        transitions={(0, 0): {0: Interval(0.2, 0.5), 1: Interval(0.2, 0.5), 2: Interval(0.1, 0.4)},
                     (0, 1): {1: Interval(0.5, 0.9), 2: Interval(0.1, 0.5)},
                     (1, 0): {0: Interval(0.3, 0.6), 2: Interval(0.4, 0.7)},
                     (1, 1): {1: Interval(0.6, 0.8), 2: Interval(0.2, 0.4)},
                     (2, 0): {2: Interval(1.0, 1.0)}, (2, 1): {2: Interval(1.0, 1.0)}},
        cost={(0, 0): 1.0, (0, 1): 2.0, (1, 0): 3.0, (1, 1): 1.0, (2, 0): 0.0, (2, 1): 0.0},
        goals=frozenset({2}),
        initial_belief=np.array([0.0, 0.0, 1.0]) if all_mass else np.array([0.3, 0.3, 0.4]),
    )
    fsc = Fsc(2, 0, np.array([[[0.3, 0.7], [0.5, 0.5]], [[1.0, 0.0], [0.5, 0.5]]]),
              np.array([[1, 0], [0, 1]]))
    return model, fsc


def adversary_cases():
    rng = np.random.default_rng(37)
    for _ in range(8):
        model = random_rpomdp(rng)
        yield model, random_fsc(rng, int(rng.integers(2, 4)), model.num_observations, model.num_actions)
    for kind in ("evade", "intercept", "avoid"):
        model = generate_grid(GridSpec(4, 4, kind))
        yield model, kmeans_controller(model)
    yield starts_on_a_goal(all_mass=True)
    yield starts_on_a_goal(all_mass=False)


def test_matches_second_product_expansion():
    """The weights read off the chain's terms are those of expanding the
    product again; only the goal rows, whose weights are zero, drop out."""
    for model, fsc in adversary_cases():
        values = evaluated(model, fsc)
        result = select_worst_case(model, fsc, values)
        rows, weight, worst, proxy = worst_case_weights_reference(model, fsc, values)
        goal_row = np.isin(rows // model.num_actions, list(model.goals))
        goal_edges, goal_counts = model.edges.of_rows(rows[goal_row])
        assert np.all(goal_counts == 1) and np.all(weight[goal_edges] == 0.0)
        assert np.array_equal(result.rows, rows[~goal_row])
        assert np.array_equal(result.weights, weight[model.edges.of_rows(rows[~goal_row])[0]])
        assert np.array_equal(result.worst_case.edges.lo, worst)
        assert result.proxy_objective == pytest.approx(proxy, rel=1e-12, abs=0.0)


def test_chain_terms_rebuild_the_merged_bounds():
    for model, fsc in adversary_cases():
        chain, e = build_chain(model, fsc), model.edges
        s, n = np.divmod(chain.pairs[chain.row_state], fsc.num_nodes)
        d = fsc.action_map[n, model.obs_of[s]]
        row_lengths = np.diff(e.offsets).reshape(model.num_states, model.num_actions)[s]
        term_row = np.repeat(np.arange(len(s)), ((d != 0.0) * row_lengths).sum(axis=1))
        assert np.array_equal(e.row[chain.term_edge] // model.num_actions, s[term_row])
        assert np.array_equal(chain.term_weight, d[term_row, e.row[chain.term_edge] % model.num_actions])
        keys, first, merged = np.unique(term_row * model.num_states + e.succ[chain.term_edge],
                                        return_index=True, return_inverse=True)
        assert np.array_equal(keys // model.num_states, np.repeat(np.arange(len(s)), np.diff(chain.offsets)))
        assert np.array_equal(chain.term_succ[first], chain.succ)
        assert np.array_equal(np.bincount(merged, chain.term_weight * e.lo[chain.term_edge]), chain.lo)
        assert np.array_equal(np.bincount(merged, chain.term_weight * e.hi[chain.term_edge]), chain.hi)


def test_values_of_another_controller_are_rejected():
    rng = np.random.default_rng(38)
    model = random_rpomdp(rng, num_states=4, num_actions=2)
    fsc = random_fsc(rng, 2, model.num_observations, 2)
    other = random_fsc(rng, 2, model.num_observations, 2)
    with pytest.raises(ValueError, match="different controller"):
        select_worst_case(model, other, evaluated(model, fsc))
    same = Fsc(fsc.num_nodes, fsc.initial_node, fsc.action_map.copy(), fsc.memory_map.copy())
    select_worst_case(model, same, evaluated(model, fsc))
    # the same maps from the other node: a different controller, with a different value
    assert other.num_nodes == 2
    moved = Fsc(2, 1 - other.initial_node, other.action_map, other.memory_map)
    assert evaluated(model, moved).at_initial != evaluated(model, other).at_initial
    with pytest.raises(ValueError, match="different controller"):
        select_worst_case(model, moved, evaluated(model, other))
    with pytest.raises(ValueError, match="different controller"):
        select_worst_case(model, other, evaluated(model, moved))


def one_node_models(count=200):
    """Random 3-state, 2-action models, each with a random one-node controller."""
    rng = np.random.default_rng(41)
    for _ in range(count):
        model = random_rpomdp(rng, num_states=3, num_actions=2)
        yield model, random_fsc(rng, 1, model.num_observations, 2)


def test_the_adversary_reaches_the_best_vertex_member():
    # a <= b̂ <= d on 3-state models with one-node controllers: a is the exact value of the
    # adversary's member, b̂ the best vertex member's (the static worst case with one node)
    # and d the robust value, whose nature also merges actions
    models, reached, above, short = 200, 0, 0, 0
    for model, fsc in one_node_models(models):
        values = evaluated(model, fsc)
        a = product_chain_cost(select_worst_case(model, fsc, values).worst_case, fsc)
        b = static_worst_case_vertices(model, fsc)
        d = values.at_initial
        slack = 1e-9 * abs(b)
        assert a <= b + slack and b <= d + slack, (a, b, d)
        reached += a >= b - slack
        above += d > b + slack
        short += b > a + slack
    print(f"[static worst case] {models} models: d > b̂ on {above}, b̂ > a on {short}")
    assert reached >= 0.95 * models, reached


def test_the_per_action_value_is_the_static_worst_case_with_one_node():
    # with one node each model row enters one product row, so nature choosing per
    # (product state, action) is nature choosing per (s, a) once: c equals b̂
    for model, fsc in one_node_models():
        b, c = static_worst_case_vertices(model, fsc), per_action_value(model, fsc)
        assert abs(c - b) <= 1e-9 * abs(b), (b, c)


def test_the_four_values_are_ordered_on_small_controllers():
    # a <= b̂ <= c <= d on 3-state models with controllers of up to 3 nodes: c is the
    # per-action value, whose nature picks per (product state, action) where d's picks
    # per product state from the actions' merged box; b̂ is now only a lower bound on
    # the static worst case
    rng = np.random.default_rng(43)
    models, merged, above, short = 100, 0, 0, 0
    for _ in range(models):
        model = random_rpomdp(rng, num_states=3, num_actions=2)
        fsc = random_fsc(rng, int(rng.integers(1, 4)), model.num_observations, 2)
        values = evaluated(model, fsc)
        a = product_chain_cost(select_worst_case(model, fsc, values).worst_case, fsc)
        b, c, d = static_worst_case_vertices(model, fsc), per_action_value(model, fsc), values.at_initial
        slack = 1e-9 * abs(c)
        assert a <= b + slack and b <= c + slack and c <= d + slack, (a, b, c, d)
        merged += d > c + slack
        above += c > b + slack
        short += b > a + slack
    print(f"[per-action value] {models} models, up to 3 nodes: d > c on {merged}, c > b̂ on {above}, "
          f"b̂ > a on {short}")
