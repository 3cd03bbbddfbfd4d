import itertools
import re

import numpy as np
import pytest

from oracles import generate_grid_reference, interval_rows
from robustfsc.grids import (
    GridSpec,
    avoid_decode,
    generate_grid,
    pair_decode,
    pair_index,
    patrol_route,
)
from robustfsc.model import Interval, validate
from robustfsc.modelio import serialize_model

SLIPS = (Interval(0.05, 0.05), Interval(0.1, 0.4))
COSTS = ((1.0, 100.0), (0.5, 7.25))
# widths and heights 3-8, square and not; each kind sees every view radius,
# slip interval and cost pair across them
SWEEP = [
    GridSpec(w, h, kind, view_radius=i % 3, slip_interval=SLIPS[i % 2], step_cost=COSTS[i // 2 % 2][0],
             penalty_cost=COSTS[i // 2 % 2][1])
    for kind in ("intercept", "evade", "avoid")
    for i, (w, h) in enumerate([(3, 3), (3, 4), (4, 3), (4, 4), (5, 6), (6, 5), (7, 8), (8, 7)])
] + [GridSpec(10, 10, "intercept"), GridSpec(6, 6, "evade"), GridSpec(3, 3, "avoid", view_radius=2)]


@pytest.mark.parametrize("kind", ["evade", "intercept", "avoid"])
def test_generated_models_validate(kind):
    model = generate_grid(GridSpec(5, 5, kind))
    assert validate(model).ok


@pytest.mark.parametrize("spec", SWEEP, ids=lambda spec: f"{spec.kind}-{spec.width}x{spec.height}-r{spec.view_radius}")
def test_documents_equal_the_per_state_reference(spec):
    try:
        expected = serialize_model(generate_grid_reference(spec, 4))
    except ValueError as err:  # grid too small for its view radius
        with pytest.raises(ValueError, match=re.escape(str(err))):
            generate_grid(spec, 4)
        return
    assert serialize_model(generate_grid(spec, 4)) == expected


@pytest.mark.parametrize("kind", ["evade", "intercept", "avoid"])
def test_generation_deterministic(kind):
    spec = GridSpec(4, 4, kind)
    a = serialize_model(generate_grid(spec, rng_seed=3))
    b = serialize_model(generate_grid(spec, rng_seed=3))
    assert a == b


def test_move_rows_carry_slip_interval_and_complement():
    spec = GridSpec(4, 4, "intercept", slip_interval=Interval(0.1, 0.4))
    model = generate_grid(spec)
    pair_rows = 0
    for (s, _a), row in interval_rows(model).items():
        if s in model.goals:
            continue
        shapes = sorted((iv.lo, iv.hi) for iv in row.values())
        if len(shapes) == 2:
            # exactly the slip interval and its complement
            assert shapes == [(0.1, 0.4), (0.6, 0.9)]
            pair_rows += 1
        else:
            # wall clipping merged the one- and two-step landings
            assert shapes == [(1.0, 1.0)]
    assert pair_rows > 0


def test_costs_are_step_or_step_plus_penalty():
    spec = GridSpec(4, 4, "intercept", step_cost=1.0, penalty_cost=100.0)
    model = generate_grid(spec)
    cost = model.edges.cost.reshape(model.num_states, model.num_actions)
    assert set(cost[~model.is_goal].ravel().tolist()) == {1.0, 101.0}
    assert np.all(cost[model.is_goal] == 0.0)


def test_intercept_state_count_closed_form():
    spec = GridSpec(4, 4, "intercept")
    model = generate_grid(spec)
    cells = spec.width * spec.height
    assert model.num_states == cells * cells * 2

    # independent enumeration: the encoder is a bijection over all tuples
    seen = set()
    for ax, ay, tx, ty, flag in itertools.product(
        range(spec.width), range(spec.height), range(spec.width), range(spec.height), range(2)
    ):
        idx = pair_index(spec, (ax, ay), (tx, ty), flag)
        assert 0 <= idx < model.num_states
        assert pair_decode(spec, idx) == ((ax, ay), (tx, ty), flag)
        seen.add(idx)
    assert len(seen) == model.num_states


def test_goal_states_are_agent_meets_target():
    spec = GridSpec(4, 4, "intercept")
    model = generate_grid(spec)
    for s in range(model.num_states):
        agent, target, _ = pair_decode(spec, s)
        assert (s in model.goals) == (agent == target)


def test_hidden_positions_share_observation_symbol():
    spec = GridSpec(5, 5, "intercept", view_radius=1)
    model = generate_grid(spec)
    support = np.flatnonzero(model.initial_belief)
    assert len(support) >= 2
    symbols = {int(model.obs_of[s]) for s in support}
    assert len(symbols) == 1  # distinct hidden target cells look identical


def test_evade_scan_reveals_pursuer():
    spec = GridSpec(4, 4, "evade")
    model = generate_grid(spec)
    # scanned states with identical agent cell but different pursuer cells
    # must map to distinct observations
    obs = {}
    for s in range(model.num_states):
        agent, adv, scanned = pair_decode(spec, s)
        if scanned and agent == (0, 0):
            obs[adv] = int(model.obs_of[s])
    assert len(set(obs.values())) == len(obs)


def test_evade_scan_action_is_deterministic():
    spec = GridSpec(4, 4, "evade")
    model = generate_grid(spec)
    scan, rows = 4, interval_rows(model)
    for s in range(model.num_states):
        if s in model.goals:
            continue
        row = rows[(s, scan)]
        assert len(row) == 1
        (iv,) = row.values()
        assert iv == Interval(1.0, 1.0)
        (sp,) = row.keys()
        agent, _, _ = pair_decode(spec, s)
        agent2, _, scanned2 = pair_decode(spec, sp)
        assert agent2 == agent and scanned2 == 1


def test_evade_pursuer_never_enters_safe_column():
    spec = GridSpec(4, 4, "evade")
    model = generate_grid(spec)
    for (s, _a), row in interval_rows(model).items():
        if s in model.goals:
            continue
        _, adv, _ = pair_decode(spec, s)
        if adv[0] == spec.width - 1:
            continue  # unreachable combination kept total for the full product
        for sp in row:
            _, adv2, _ = pair_decode(spec, sp)
            assert adv2[0] != spec.width - 1


def test_avoid_patrol_advances_one_route_step():
    spec = GridSpec(4, 4, "avoid")
    model = generate_grid(spec)
    route_len = len(patrol_route(spec))
    for (s, _a), row in interval_rows(model).items():
        if s in model.goals:
            continue
        _, idx = avoid_decode(spec, s)
        for sp in row:
            _, idx2 = avoid_decode(spec, sp)
            assert idx2 == (idx + 1) % route_len


def test_avoid_observation_hides_distant_watcher():
    spec = GridSpec(5, 5, "avoid", view_radius=1)
    model = generate_grid(spec)
    route = patrol_route(spec)
    by_agent: dict = {}
    for s in range(model.num_states):
        agent, idx = avoid_decode(spec, s)
        far = max(abs(agent[0] - route[idx][0]), abs(agent[1] - route[idx][1])) > 1
        if far:
            by_agent.setdefault(agent, set()).add(int(model.obs_of[s]))
    assert any(len(symbols) == 1 and len(symbols) > 0 for symbols in by_agent.values())
    # every far-watcher state for a fixed agent cell shares one symbol
    assert all(len(symbols) == 1 for symbols in by_agent.values())


def test_too_small_grid_raises():
    with pytest.raises(ValueError):
        GridSpec(2, 4, "evade")
    with pytest.raises(ValueError):
        generate_grid(GridSpec(3, 3, "evade", view_radius=3))


def test_slip_interval_must_be_interior():
    with pytest.raises(ValueError):
        GridSpec(4, 4, "evade", slip_interval=Interval(0.0, 0.4))
    with pytest.raises(ValueError):
        GridSpec(4, 4, "evade", slip_interval=Interval(0.1, 1.0))


def test_costs_must_be_finite_and_nonnegative():
    # validate rejects each of these costs, so the generator must not write them
    for name in ("step_cost", "penalty_cost"):
        for cost in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="costs must be finite and nonnegative"):
                GridSpec(4, 4, "intercept", **{name: cost})
    with pytest.raises(ValueError, match="costs must be finite and nonnegative"):
        GridSpec(4, 4, "intercept", step_cost=1e308, penalty_cost=1e308)  # their sum overflows
    GridSpec(4, 4, "intercept", step_cost=1e308, penalty_cost=0.0)
