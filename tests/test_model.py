import numpy as np
import pytest

import robustfsc.model as model_module
from conftest import random_rpomdp
from oracles import reference_member, validate_reference
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import (
    Fsc,
    InconsistentHistoryError,
    Interval,
    RobustPomdp,
    _project,
    belief_update,
    belief_updates,
    member_with,
    nominal_midpoint,
    project_row,
    sample_member,
    validate,
)


def bound_member(model, bound):
    """The member projecting every lower ("lo") or upper ("hi") bound, by the table."""
    e = model.edges
    return member_with(model, _project(getattr(e, bound), e.lo, e.hi, e.offsets))


def tiny_model(row0, cost0=1.0):
    """2-state model: state 0 transient with the given row and cost, state 1 a goal."""
    return RobustPomdp(
        num_states=2, num_actions=1, num_observations=2,
        obs_of=np.array([0, 1]),
        transitions={(0, 0): row0, (1, 0): {1: Interval(1.0, 1.0)}},
        cost={(0, 0): cost0, (1, 0): 0.0},
        goals=frozenset({1}),
        initial_belief=np.array([1.0, 0.0]),
    )


class TestValidate:
    def test_feasible_row_passes(self):
        m = tiny_model({0: Interval(0.3, 0.6), 1: Interval(0.4, 0.7)})
        assert validate(m).ok  # 0.7 <= 1 <= 1.3

    def test_lower_bounds_exceed_one(self):
        m = tiny_model({0: Interval(0.6, 0.7), 1: Interval(0.6, 0.7)})
        rep = validate(m)
        assert not rep.ok
        assert any("lower bounds" in msg for msg in rep.issues)

    def test_zero_lower_bound_rejected(self):
        m = tiny_model({0: Interval(0.0, 0.4), 1: Interval(0.6, 1.0)})
        rep = validate(m)
        assert not rep.ok
        assert any("0 < lo" in msg for msg in rep.issues)

    def test_upper_bounds_below_one(self):
        m = tiny_model({0: Interval(0.1, 0.2), 1: Interval(0.1, 0.3)})
        assert not validate(m).ok

    def test_non_absorbing_goal_rejected(self):
        m = RobustPomdp(
            num_states=2, num_actions=1, num_observations=2,
            obs_of=np.array([0, 1]),
            transitions={(0, 0): {1: Interval(1.0, 1.0)}, (1, 0): {0: Interval(1.0, 1.0)}},
            cost={(0, 0): 1.0, (1, 0): 0.0},
            goals=frozenset({1}),
            initial_belief=np.array([1.0, 0.0]),
        )
        assert not validate(m).ok

    def test_belief_must_normalize(self):
        m = tiny_model({0: Interval(0.3, 0.6), 1: Interval(0.4, 0.7)})
        m.initial_belief = np.array([0.9, 0.0])
        assert not validate(m).ok

    def test_more_observations_than_states_rejected(self):
        m = tiny_model({0: Interval(0.3, 0.6), 1: Interval(0.4, 0.7)})
        m.num_observations = 10**11
        rep = validate(m)
        assert rep.issues == ["100000000000 observations exceed 2 states, each of which emits one"]

    def test_nan_initial_belief_rejected(self):
        m = tiny_model({0: Interval(0.3, 0.6), 1: Interval(0.4, 0.7)})
        m.initial_belief = np.array([np.nan, 0.0])
        rep = validate(m)
        assert not rep.ok
        assert any("initial_belief sums to nan" in msg for msg in rep.issues)

    def test_nan_cost_rejected(self):
        m = tiny_model({0: Interval(0.3, 0.6), 1: Interval(0.4, 0.7)}, cost0=float("nan"))
        rep = validate(m)
        assert not rep.ok
        assert any("state 0 action 0: negative or NaN cost nan" in msg for msg in rep.issues)

    @pytest.mark.parametrize("key", [(-1, 0), (2, 0), (0, 1), (0, -1)])
    def test_transition_rows_outside_the_model_rejected(self, key):
        # a row the table has no place for would otherwise shift every row after it
        stay = Interval(1.0, 1.0)
        with pytest.raises(ValueError, match="within 2 states and 1 actions"):
            RobustPomdp(
                num_states=2, num_actions=1, num_observations=2, obs_of=[0, 1], goals={1}, initial_belief=[1.0, 0.0],
                transitions={(0, 0): {1: stay}, (1, 0): {1: stay}, key: {0: stay}}, cost={(0, 0): 1.0, (1, 0): 0.0},
            )

    def test_infinite_cost_rejected(self):
        m = tiny_model({0: Interval(0.3, 0.6), 1: Interval(0.4, 0.7)}, cost0=float("inf"))
        assert validate(m).issues == ["state 0 action 0: infinite cost inf"]
        m = tiny_model({0: Interval(0.3, 0.6), 1: Interval(0.4, 0.7)}, cost0=float("-inf"))
        assert validate(m).issues == ["state 0 action 0: negative or NaN cost -inf"]


def inject_defect(rng, defect, transitions, cost, belief, goals, num_states):
    """Put one defect of the named kind into a model's constructor input."""
    goal = min(goals)
    key = sorted(k for k in transitions if k[0] != goal)[rng.integers(len(transitions) - 2)]
    row = transitions[key]
    sp = sorted(row)[rng.integers(len(row))] if row else 0
    goal_key = (goal, int(rng.integers(1 + max(a for _, a in transitions))))
    if defect == "empty row":
        transitions[key] = {}
    elif defect == "successor":
        row[num_states + int(rng.integers(3))] = Interval(0.01, 0.02)
    elif defect == "interval":
        row[sp] = [Interval(0.5, 0.2), Interval(0.0, 0.3), Interval(np.nan, 0.5), Interval(0.2, 1.5)][rng.integers(4)]
    elif defect == "box":
        scale = [(3.0, 3.0), (0.2, 0.2)][rng.integers(2)]
        transitions[key] = {s: Interval(min(iv.lo * scale[0], 1.0), min(iv.hi * scale[1], 1.0)) for s, iv in row.items()}
    elif defect == "cost":
        if rng.integers(4) == 0:
            del cost[key]
        else:
            cost[key] = [np.nan, -1.5, np.inf][rng.integers(3)]
    elif defect == "goal row":
        transitions[goal_key] = [{0: Interval(1.0, 1.0)}, {goal: Interval(0.5, 1.0)}, {goal: Interval(1.0, 1.5)},
                                 {goal: Interval(1.0, 1.0), 0: Interval(0.1, 0.2)}][rng.integers(4)]
    elif defect == "goal cost":
        cost[goal_key] = [3.0, np.nan][rng.integers(2)]
    elif defect == "belief":
        belief[rng.integers(len(belief))] = [-0.1, 0.0, np.nan][rng.integers(3)]
    elif defect == "goal range":
        goals.add(num_states + 2)


DEFECTS = ["empty row", "successor", "interval", "box", "cost", "goal row", "goal cost", "belief", "goal range"]


def test_validate_reports_what_the_dict_walk_reports():
    rng = np.random.default_rng(31)
    for _ in range(150):
        m = random_rpomdp(rng, num_states=int(rng.integers(3, 6)), num_actions=int(rng.integers(1, 3)))
        transitions = {key: dict(row) for key, row in m.transitions.items()}
        cost, belief, goals = dict(m.cost), m.initial_belief.copy(), set(m.goals)
        for defect in rng.choice(DEFECTS, size=int(rng.integers(1, 5)), replace=False):
            inject_defect(rng, defect, transitions, cost, belief, goals, m.num_states)
        broken = RobustPomdp(
            num_states=m.num_states, num_actions=m.num_actions, num_observations=m.num_observations,
            obs_of=m.obs_of, transitions=transitions, cost=cost, goals=goals, initial_belief=belief,
        )
        assert validate(broken).issues == validate_reference(broken).issues


class TestProjectRow:
    def test_symmetric_boxes(self):
        p = project_row(np.array([0.25, 0.25, 0.25]), [Interval(0.1, 0.4)] * 3)
        assert np.allclose(p, 1.0 / 3.0)

    def test_feasible_input_unchanged(self):
        targets = np.array([0.3, 0.7])
        p = project_row(targets, [Interval(0.2, 0.5), Interval(0.5, 0.8)])
        assert np.allclose(p, targets)

    def test_l1_optimality_against_grid_oracle(self):
        # The projection of (0.9, 0.9) onto this box-simplex segment is not
        # unique in L1; assert the result is feasible and attains the grid
        # oracle's minimal distance.
        lo = np.array([0.6, 0.2])
        hi = np.array([0.8, 0.4])
        targets = np.array([0.9, 0.9])
        p = project_row(targets, [Interval(0.6, 0.8), Interval(0.2, 0.4)])
        assert abs(p.sum() - 1.0) < 1e-12
        assert np.all(p >= lo - 1e-12) and np.all(p <= hi + 1e-12)
        grid = np.arange(max(lo[0], 1 - hi[1]), min(hi[0], 1 - lo[1]) + 1e-9, 1e-3)
        oracle = min(abs(t - targets[0]) + abs((1 - t) - targets[1]) for t in grid)
        achieved = np.abs(p - targets).sum()
        assert achieved <= oracle + 2e-3

    def test_idempotent_on_feasible_output(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(2, 6))
            base = np.maximum(rng.dirichlet(np.ones(n)), 1e-3)
            base /= base.sum()
            ivs = [Interval(float(b * 0.5), float(min(1.0, b * 1.5))) for b in base]
            p = project_row(rng.uniform(0, 1, size=n), ivs)
            again = project_row(p, ivs)
            assert np.allclose(p, again, atol=1e-12)

    def test_infeasible_box_raises(self):
        with pytest.raises(ValueError):
            project_row(np.array([0.5, 0.5]), [Interval(0.6, 0.7), Interval(0.6, 0.7)])

    def test_a_row_one_spread_cannot_reach_raises(self, monkeypatch):
        # boxes that miss the simplex, past check_boxes: the spread fills the
        # slack and the row still sums to 0.4, which is an error, not a result
        monkeypatch.setattr(model_module, "check_boxes", lambda *args: None)
        with pytest.raises(ValueError, match="off the probability simplex"):
            project_row(np.array([0.0, 0.0]), [Interval(0.1, 0.2), Interval(0.1, 0.2)])


@pytest.mark.parametrize("prob", [np.nan, np.inf, -np.inf])
def test_fsc_check_names_a_non_finite_probability(prob):
    fsc = Fsc(1, 0, np.array([[[prob, 1.0]]]), np.zeros((1, 1), dtype=int))
    with pytest.raises(ValueError, match="non-finite action probability"):
        fsc.check()


class TestMembers:
    def test_midpoint_symmetric(self):
        m = tiny_model({0: Interval(0.1, 0.6), 1: Interval(0.1, 0.6)})
        # midpoints 0.35 each, equal slack: row becomes (1/2, 1/2)
        member = nominal_midpoint(m)
        assert np.isclose(member.transitions[(0, 0)][0], 0.5)

    def test_midpoint_three_way(self):
        m = RobustPomdp(
            num_states=4, num_actions=1, num_observations=2,
            obs_of=np.array([0, 0, 0, 1]),
            transitions={
                (0, 0): {1: Interval(0.1, 0.4), 2: Interval(0.1, 0.4), 3: Interval(0.1, 0.4)},
                (1, 0): {3: Interval(1.0, 1.0)},
                (2, 0): {3: Interval(1.0, 1.0)},
                (3, 0): {3: Interval(1.0, 1.0)},
            },
            cost={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0, (3, 0): 0.0},
            goals=frozenset({3}),
            initial_belief=np.array([1.0, 0.0, 0.0, 0.0]),
        )
        member = nominal_midpoint(m)
        assert np.allclose(list(member.transitions[(0, 0)].values()), 1.0 / 3.0)

    def test_point_intervals_identity(self):
        m = tiny_model({0: Interval(0.25, 0.25), 1: Interval(0.75, 0.75)})
        member = nominal_midpoint(m)
        assert member.transitions[(0, 0)] == {0: 0.25, 1: 0.75}

    def test_midpoints_summing_to_one_untouched(self):
        m = tiny_model({0: Interval(0.6, 0.8), 1: Interval(0.2, 0.4)})
        member = nominal_midpoint(m)
        assert np.isclose(member.transitions[(0, 0)][0], 0.7)
        assert np.isclose(member.transitions[(0, 0)][1], 0.3)

    # A "bound member" projects every lower (or upper) bound of a row onto its
    # box-simplex; proportional slack fill takes it to the midpoint member's row.

    def test_bound_member_lower_proportional_fill(self):
        row = [Interval(0.6, 0.8), Interval(0.2, 0.4)]
        p = project_row(np.array([0.6, 0.2]), row)
        # residual 0.2 split over equal slacks (0.2, 0.2)
        assert np.isclose(p[0], 0.7)
        assert np.isclose(p[1], 0.3)
        grid = np.arange(0.6, 0.8 + 1e-9, 1e-3)
        oracle = min(abs(t - 0.6) + abs((1 - t) - 0.2) for t in grid)
        achieved = abs(p[0] - 0.6) + abs(p[1] - 0.2)
        assert achieved <= oracle + 2e-3

    def test_bound_member_symmetric_lower(self):
        row = [Interval(0.1, 0.4)] * 3
        for bound in ([0.1] * 3, [0.4] * 3):
            assert np.allclose(project_row(np.array(bound), row), 1.0 / 3.0)

    def test_bound_member_point_intervals_identity(self):
        row = [Interval(0.25, 0.25), Interval(0.75, 0.75)]
        for bound in ("lo", "hi"):
            p = project_row(np.array([getattr(iv, bound) for iv in row]), row)
            assert p.tolist() == [0.25, 0.75]

    def test_sample_member_point_intervals_identity(self):
        m = tiny_model({0: Interval(0.25, 0.25), 1: Interval(0.75, 0.75)})
        for seed in (0, 7, 99):
            member = sample_member(m, seed)
            assert member.transitions[(0, 0)] == {0: 0.25, 1: 0.75}

    def test_sample_member_deterministic(self):
        rng = np.random.default_rng(11)
        m = random_rpomdp(rng, num_states=4, num_actions=2)
        a = sample_member(m, 123)
        b = sample_member(m, 123)
        assert a.transitions == b.transitions

    def test_sample_member_mean_near_symmetric_center(self):
        m = RobustPomdp(
            num_states=4, num_actions=1, num_observations=2,
            obs_of=np.array([0, 0, 0, 1]),
            transitions={
                (0, 0): {1: Interval(0.1, 0.4), 2: Interval(0.1, 0.4), 3: Interval(0.1, 0.4)},
                (1, 0): {3: Interval(1.0, 1.0)},
                (2, 0): {3: Interval(1.0, 1.0)},
                (3, 0): {3: Interval(1.0, 1.0)},
            },
            cost={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 1.0, (3, 0): 0.0},
            goals=frozenset({3}),
            initial_belief=np.array([1.0, 0.0, 0.0, 0.0]),
        )
        rows = np.array([
            [sample_member(m, seed).transitions[(0, 0)][sp] for sp in (1, 2, 3)]
            for seed in range(10_000)
        ])
        assert np.all(np.abs(rows.mean(axis=0) - 1.0 / 3.0) < 0.02)

    def test_membership_and_normalization_random(self):
        rng = np.random.default_rng(5)
        rows_checked = 0
        while rows_checked < 1000:
            m = random_rpomdp(rng)
            for builder in (
                lambda: nominal_midpoint(m),
                lambda: bound_member(m, "lo"),
                lambda: bound_member(m, "hi"),
                lambda: sample_member(m, int(rng.integers(1 << 30))),
            ):
                member = builder()
                assert member.is_member_of(m)
                for row in member.transitions.values():
                    assert abs(sum(row.values()) - 1.0) < 1e-9
                    rows_checked += 1


GRID_FAMILIES = [GridSpec(4, 4, "intercept"), GridSpec(4, 4, "evade"), GridSpec(4, 4, "avoid")]


def _members(model, seed):
    """(built by the table, built row by row) for every member builder."""
    return [
        (nominal_midpoint(model), reference_member(model, "mid")),
        (bound_member(model, "lo"), reference_member(model, "lo")),
        (bound_member(model, "hi"), reference_member(model, "hi")),
        (sample_member(model, seed), reference_member(model, "sample", np.random.default_rng(seed))),
    ]


class TestEdgeTable:
    @pytest.mark.parametrize("spec", GRID_FAMILIES, ids=lambda spec: spec.kind)
    def test_members_match_row_by_row_reference_on_grids(self, spec):
        model = generate_grid(spec, 3)
        for member, reference in _members(model, (3, 1)):
            assert member.transitions == reference.transitions  # bit for bit

    def test_members_match_row_by_row_reference_on_random_models(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            model = random_rpomdp(rng, num_states=int(rng.integers(3, 6)), num_actions=2)
            for member, reference in _members(model, int(rng.integers(1 << 30))):
                assert member.transitions.keys() == reference.transitions.keys()
                for key, row in reference.transitions.items():
                    assert member.transitions[key].keys() == row.keys()
                    for sp, p in row.items():
                        # a row sum may round differently in the last bit
                        assert member.transitions[key][sp] == pytest.approx(p, rel=0, abs=1e-15)

    def test_edges_agree_with_dicts(self):
        rng = np.random.default_rng(4)
        grid = generate_grid(GRID_FAMILIES[0], 3)
        robust = random_rpomdp(rng, num_states=4, num_actions=3)
        member = sample_member(robust, 8)
        assert member.edges.lo is member.edges.hi
        for model in (grid, robust, member):
            e, na = model.edges, model.num_actions
            assert len(e.offsets) == model.num_states * na + 1
            assert e.cost.tolist() == [model.cost[divmod(r, na)] for r in range(len(e.cost))]
            for r in range(len(e.cost)):
                row = model.row(*divmod(r, na))
                edges = range(e.offsets[r], e.offsets[r + 1])
                assert e.succ[edges].tolist() == sorted(row)
                for i, sp in zip(edges, sorted(row)):
                    bounds = (row[sp].lo, row[sp].hi) if model is not member else (row[sp], row[sp])
                    assert (e.lo[i], e.hi[i]) == bounds

    def test_member_rows_are_built_on_first_read(self, monkeypatch):
        built = []

        class CountingRow(model_module._MemberRow):
            def __init__(self, *args):
                built.append(self)
                super().__init__(*args)

        monkeypatch.setattr(model_module, "_MemberRow", CountingRow)
        model = generate_grid(GRID_FAMILIES[0], 3)
        member = nominal_midpoint(model)
        assert built == []
        assert member.transitions[(0, 0)].keys() == model.row(0, 0).keys()
        assert len(built) == len(model.transitions)

    def test_writes_to_a_member_row_reach_its_table(self):
        model = tiny_model({0: Interval(0.2, 0.5), 1: Interval(0.5, 0.8)})
        member = nominal_midpoint(model)
        assert member.is_member_of(model)
        member.transitions[(0, 0)][0] = 0.9
        assert member.edges.lo[0] == 0.9
        assert not member.is_member_of(model)


class TestBeliefUpdate:
    def test_deterministic_chain(self):
        m = tiny_model({1: Interval(1.0, 1.0)})
        member = nominal_midpoint(m)
        b = belief_update(member, np.array([1.0, 0.0]), 0, 1)
        assert np.allclose(b, [0.0, 1.0])

    def test_observation_separates_support(self):
        m = RobustPomdp(
            num_states=4, num_actions=1, num_observations=3,
            obs_of=np.array([0, 0, 1, 2]),
            transitions={
                (0, 0): {2: Interval(1.0, 1.0)},
                (1, 0): {3: Interval(1.0, 1.0)},
                (2, 0): {2: Interval(1.0, 1.0)},
                (3, 0): {3: Interval(1.0, 1.0)},
            },
            cost={(0, 0): 1.0, (1, 0): 1.0, (2, 0): 0.0, (3, 0): 0.0},
            goals=frozenset({2, 3}),
            initial_belief=np.array([0.5, 0.5, 0.0, 0.0]),
        )
        member = nominal_midpoint(m)
        b = belief_update(member, np.array([0.5, 0.5, 0.0, 0.0]), 0, 1)
        assert np.allclose(b, [0.0, 0.0, 1.0, 0.0])

    def test_matches_enumeration_oracle(self):
        from oracles import bayes_posterior

        rng = np.random.default_rng(3)
        for _ in range(25):
            m = random_rpomdp(rng, num_states=3)
            member = nominal_midpoint(m)
            b = rng.dirichlet(np.ones(3))
            a = int(rng.integers(m.num_actions))
            pushed = np.zeros(3)
            for s in range(3):
                for sp, q in member.transitions[(s, a)].items():
                    pushed[sp] += b[s] * q
            # pick an observation with positive probability
            for z in range(m.num_observations):
                if pushed[m.obs_of == z].sum() > 1e-9:
                    ours = belief_update(member, b, a, z)
                    oracle = bayes_posterior(member, b, a, z)
                    assert np.allclose(ours, oracle, atol=1e-12)
                    assert abs(ours.sum() - 1.0) < 1e-9
                    assert all(m.obs_of[s] == z for s in np.flatnonzero(ours))

    def test_zero_probability_observation_raises(self):
        m = tiny_model({1: Interval(1.0, 1.0)})
        member = nominal_midpoint(m)
        with pytest.raises(InconsistentHistoryError):
            belief_update(member, np.array([1.0, 0.0]), 0, 0)
        with pytest.raises(InconsistentHistoryError):  # one row of a batch suffices, kept or not
            belief_updates(member, np.array([[1.0, 0.0], [1.0, 0.0]]), np.array([0, 0]), np.array([1, 0]),
                           keep=np.array([True, False]))

    def test_batched_rows_equal_one_belief_at_a_time(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = random_rpomdp(rng, num_states=5, num_actions=2)
            member = sample_member(m, int(rng.integers(1 << 30)))
            beliefs = rng.dirichlet(np.ones(5), size=6)
            beliefs[rng.random(beliefs.shape) < 0.3] = 0.0
            beliefs[:, 0] += 1e-3  # state 0 is in every support
            actions = rng.integers(2, size=6)
            # the first successor of (0, a) makes its observation possible
            observations = m.obs_of[member.edges.succ[member.edges.offsets[actions]]]
            batch = belief_updates(member, beliefs, actions, observations)
            for row, b, a, z in zip(batch, beliefs, actions, observations):
                assert np.array_equal(row, belief_update(member, b.copy(), int(a), int(z)))
            keep = rng.random(6) < 0.5
            assert np.array_equal(belief_updates(member, beliefs, actions, observations, keep), batch[keep])
