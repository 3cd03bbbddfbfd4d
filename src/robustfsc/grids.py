"""Parametric grid-world models with interval movement uncertainty.

Three families, desk-scale stand-ins for the usual pursuit benchmarks.  In
all of them the agent picks a compass move each step and, with a probability
only known to lie in ``slip_interval``, overshoots by one extra cell (excess
movement truncated at the walls).  All other dynamics are deterministic, so
every move row holds exactly the slip interval, its complement, or a single
point when wall clipping merges the two landing cells.  Partial observability
comes from the other robot's hidden starting position.

evade
    Reach the top-right corner.  A pursuer (one step toward the agent per
    turn, horizontal axis first, never entering the rightmost safe column)
    starts hidden on row height-2.  Sharing a cell costs the penalty.  A
    fifth ``scan`` action stands still and reveals the pursuer in the next
    observation; otherwise the pursuer is visible only within the view
    radius.

intercept
    Meet a target robot before it reaches one of the two top-corner exits
    (nearest exit by Manhattan distance, ties to the left; horizontal leg
    first).  The target is visible within the view radius and whenever it
    stands in the central corridor column.  Once it exits, every step costs
    the penalty extra until the agent reaches the exit cell the target left
    through, which the observation does not disclose.

avoid
    Reach the top-right corner while a watcher patrols the border clockwise,
    one cell per turn, starting at a hidden offset.  Standing within
    Chebyshev distance 1 of the watcher costs the penalty; the watcher is
    visible only within the view radius.

State spaces are the full products (agent cell x other-robot configuration
x flag), including combinations an episode can never reach, so counts follow
in closed form from the grid dimensions.  Each family's dynamics are computed
for all states at once, straight into the model's edge table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from robustfsc.model import Edges, Interval, RobustPomdp

Kind = Literal["evade", "intercept", "avoid"]

# Action indices shared by all kinds; evade appends scan as action 4.
MOVES = ((0, 1), (0, -1), (-1, 0), (1, 0))  # up, down, left, right
SCAN = 4


@dataclass(frozen=True)
class GridSpec:
    width: int
    height: int
    kind: Kind
    view_radius: int = 1
    slip_interval: Interval = Interval(0.1, 0.4)
    step_cost: float = 1.0
    penalty_cost: float = 100.0

    def __post_init__(self) -> None:
        if self.width < 3 or self.height < 3:
            raise ValueError("grid must be at least 3x3")
        if self.kind not in ("evade", "intercept", "avoid"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if not (0.0 < self.slip_interval.lo <= self.slip_interval.hi < 1.0):
            raise ValueError(f"slip_interval must satisfy 0 < lo <= hi < 1, got [{self.slip_interval.lo}, "
                             f"{self.slip_interval.hi}]")
        if self.view_radius < 0:
            raise ValueError("view_radius must be nonnegative")
        # a finite sum keeps the dearest row's cost finite; NaN fails too
        if not (0.0 <= self.step_cost and 0.0 <= self.penalty_cost and self.step_cost + self.penalty_cost < np.inf):
            raise ValueError("costs must be finite and nonnegative")


# Cells are (x, y) pairs of ints or of equally shaped integer arrays; every
# helper below works on both, so the generators compute all states at once.

def _chebyshev(a, b):
    return np.maximum(abs(a[0] - b[0]), abs(a[1] - b[1]))


def _same(a, b):
    return (a[0] == b[0]) & (a[1] == b[1])


def _landings(spec: GridSpec, cell) -> list[tuple]:
    """(one-step cell, two-step cell) of each compass move, excess movement truncated at the walls."""
    def clamp(x, y):
        return np.clip(x, 0, spec.width - 1), np.clip(y, 0, spec.height - 1)

    return [(clamp(cell[0] + dx, cell[1] + dy), clamp(cell[0] + 2 * dx, cell[1] + 2 * dy)) for dx, dy in MOVES]


def _model(spec: GridSpec, name: str, goal, bad, one, two, symbol, init_states: list[int]) -> RobustPomdp:
    """The model whose non-goal state s steps under action a to ``one[s, a]`` or,
    with the slip probability, to ``two[s, a]`` (one point row when they agree).

    Goal states self-loop at zero cost; the others cost the step cost plus
    the penalty where ``bad``.  Observations number the distinct ``symbol``
    values (integers) in order of their first state.
    """
    num_states, num_actions = one.shape
    s = np.arange(num_states)[:, None]
    one, two = np.where(goal[:, None], s, one).ravel(), np.where(goal[:, None], s, two).ravel()
    pair = one != two
    offsets = np.concatenate([[0], np.cumsum(1 + pair)])
    first, second = offsets[:-1], offsets[:-1][pair] + 1
    succ = np.empty(offsets[-1], dtype=np.int64)
    lo, hi = np.ones(len(succ)), np.ones(len(succ))
    succ[first], succ[second] = np.minimum(one, two), np.maximum(one, two)[pair]
    # a pair row holds the complement of the slip interval on the one-step
    # successor and the slip interval itself on the two-step one
    slip, comp = spec.slip_interval, (1.0 - spec.slip_interval.hi, 1.0 - spec.slip_interval.lo)
    one_first = (one < two)[pair]
    for edge, on_one in ((first[pair], one_first), (second, ~one_first)):
        lo[edge], hi[edge] = np.where(on_one, comp[0], slip.lo), np.where(on_one, comp[1], slip.hi)
    stage_cost = np.where(goal, 0.0, spec.step_cost + np.where(bad, spec.penalty_cost, 0.0))

    _, first_state, obs = np.unique(symbol, return_index=True, return_inverse=True)
    rank = np.empty(len(first_state), dtype=np.int64)
    rank[np.argsort(first_state)] = np.arange(len(first_state))

    belief = np.zeros(num_states, dtype=np.float64)
    belief[init_states] = 1.0 / len(init_states)
    return RobustPomdp(
        num_states=num_states,
        num_actions=num_actions,
        num_observations=len(rank),
        obs_of=rank[obs],
        goals=np.flatnonzero(goal).tolist(),
        initial_belief=belief,
        name=name,
        edges=Edges(offsets, succ, lo, hi, np.repeat(stage_cost, num_actions)),
    )


def generate_grid(spec: GridSpec, rng_seed: int = 0) -> RobustPomdp:
    """Build the model for ``spec``.

    Layouts are fully determined by the grid parameters; the seed is
    recorded in the model name so downstream artifacts can echo it.
    """
    name = f"{spec.kind}-{spec.width}x{spec.height}-seed{rng_seed}"
    if spec.kind == "intercept":
        return _build_intercept(spec, name)
    if spec.kind == "evade":
        return _build_evade(spec, name)
    return _build_avoid(spec, name)


# ---------------------------------------------------------------------------
# intercept and evade: state = (agent cell, other robot's cell, flag), i.e.
# (agent, target, exited) and (agent, pursuer, scanned)

def pair_index(spec: GridSpec, agent, other, flag):
    """State of (agent cell, other robot's cell, flag); cells row-major, flag fastest."""
    w = spec.width
    n_cells = spec.width * spec.height
    a = agent[1] * w + agent[0]
    o = other[1] * w + other[0]
    return (a * n_cells + o) * 2 + flag


def pair_decode(spec: GridSpec, s):
    """Inverse of ``pair_index``."""
    w = spec.width
    a, o = divmod(s // 2, spec.width * spec.height)
    return ((a % w, a // w), (o % w, o // w), s % 2)


def _pair_states(spec: GridSpec):
    """Every state of the pair encoding, decoded."""
    n_cells = spec.width * spec.height
    return pair_decode(spec, np.arange(n_cells * n_cells * 2))


def _intercept_target_step(spec: GridSpec, target, exited):
    """The target's next cell and exited flag: one step toward its nearest
    exit (ties to the left, horizontal leg first); through an exit it stays."""
    left, right = (0, spec.height - 1), (spec.width - 1, spec.height - 1)
    done = (exited == 1) | _same(target, left) | _same(target, right)
    d_left = abs(target[0] - left[0]) + abs(target[1] - left[1])
    d_right = abs(target[0] - right[0]) + abs(target[1] - right[1])
    ex_x = np.where(d_left <= d_right, left[0], right[0])
    x, y = target
    step_x = np.where(done, 0, np.sign(ex_x - x))
    step_y = np.where(done | (step_x != 0), 0, np.sign(spec.height - 1 - y))
    return (x + step_x, y + step_y), done.astype(np.int64)


def _build_intercept(spec: GridSpec, name: str) -> RobustPomdp:
    n_cells = spec.width * spec.height
    corridor_x = spec.width // 2
    agent_start = (corridor_x, 0)

    starts = [
        (x, spec.height - 2)
        for x in range(spec.width)
        if x != corridor_x and _chebyshev((x, spec.height - 2), agent_start) > spec.view_radius
    ]
    if not starts:
        raise ValueError("grid too small: no hidden starting cell for the target")

    agent, target, exited = _pair_states(spec)
    t2, e2 = _intercept_target_step(spec, target, exited)
    one, two = (np.stack([pair_index(spec, cells[k], t2, e2) for cells in _landings(spec, agent)], axis=1)
                for k in (0, 1))
    goal = _same(agent, target)
    visible = (_chebyshev(agent, target) <= spec.view_radius) | (target[0] == corridor_x)
    # symbol per agent cell: the target's cell when visible, else goal / exited / hidden
    seen = np.select([goal, exited == 1, visible], [n_cells, n_cells + 1, target[1] * spec.width + target[0]],
                     n_cells + 2)
    symbol = (agent[1] * spec.width + agent[0]) * (n_cells + 3) + seen
    init_states = [pair_index(spec, agent_start, t, 0) for t in starts]
    return _model(spec, name, goal, exited == 1, one, two, symbol, init_states)


# ---------------------------------------------------------------------------
# evade: state = (agent cell, pursuer cell, scanned flag)

def _evade_pursuer_step(spec: GridSpec, adv, agent):
    """The pursuer's next cell: one step toward the agent along the longer
    axis (horizontal on ties), else along the other, never into the safe
    column; it stays when neither step is allowed."""
    safe_x = spec.width - 1
    dx, dy = np.sign(agent[0] - adv[0]), np.sign(agent[1] - adv[1])
    can_x = (dx != 0) & (adv[0] + dx != safe_x)
    can_y = (dy != 0) & (adv[0] != safe_x)
    x_first = abs(agent[0] - adv[0]) >= abs(agent[1] - adv[1])
    take_x = can_x & (x_first | ~can_y)
    take_y = can_y & ~(x_first & can_x)
    return (adv[0] + np.where(take_x, dx, 0), adv[1] + np.where(take_y, dy, 0))


def _build_evade(spec: GridSpec, name: str) -> RobustPomdp:
    n_cells = spec.width * spec.height
    agent_start = (spec.width // 2, 0)
    goal_cell = (spec.width - 1, spec.height - 1)

    starts = [
        (x, spec.height - 2)
        for x in range(spec.width - 1)  # the safe column is agent-only
        if _chebyshev((x, spec.height - 2), agent_start) > spec.view_radius
    ]
    if not starts:
        raise ValueError("grid too small: no hidden starting cell for the pursuer")

    agent, adv, scanned = _pair_states(spec)
    adv2 = _evade_pursuer_step(spec, adv, agent)
    scan = pair_index(spec, agent, adv2, 1)
    one, two = (np.stack([pair_index(spec, cells[k], adv2, 0) for cells in _landings(spec, agent)] + [scan], axis=1)
                for k in (0, 1))
    visible = (scanned == 1) | (_chebyshev(agent, adv) <= spec.view_radius)
    seen = np.where(visible, adv[1] * spec.width + adv[0], n_cells)
    symbol = (agent[1] * spec.width + agent[0]) * (n_cells + 1) + seen
    init_states = [pair_index(spec, agent_start, v, 0) for v in starts]
    return _model(spec, name, _same(agent, goal_cell), _same(agent, adv), one, two, symbol, init_states)


# ---------------------------------------------------------------------------
# avoid: state = (agent cell, patrol route index)

def patrol_route(spec: GridSpec) -> list[tuple[int, int]]:
    """Border cells clockwise from the origin."""
    w, h = spec.width, spec.height
    route = [(x, 0) for x in range(w)]
    route += [(w - 1, y) for y in range(1, h)]
    route += [(x, h - 1) for x in range(w - 2, -1, -1)]
    route += [(0, y) for y in range(h - 2, 0, -1)]
    return route


def avoid_index(spec: GridSpec, agent, route_idx):
    route_len = 2 * (spec.width + spec.height) - 4
    a = agent[1] * spec.width + agent[0]
    return a * route_len + route_idx


def avoid_decode(spec: GridSpec, s):
    route_len = 2 * (spec.width + spec.height) - 4
    a, idx = divmod(s, route_len)
    return ((a % spec.width, a // spec.width), idx)


def _build_avoid(spec: GridSpec, name: str) -> RobustPomdp:
    route = patrol_route(spec)
    route_len = len(route)
    n_cells = spec.width * spec.height
    agent_start = (0, 0)
    goal_cell = (spec.width - 1, spec.height - 1)

    start_idxs = [
        i for i, cell in enumerate(route) if _chebyshev(cell, agent_start) > max(spec.view_radius, 1)
    ]
    if not start_idxs:
        raise ValueError("grid too small: no hidden starting position for the watcher")

    agent, idx = avoid_decode(spec, np.arange(n_cells * route_len))
    watcher = tuple(np.array(route).T[:, idx])
    one, two = (np.stack([avoid_index(spec, cells[k], (idx + 1) % route_len) for cells in _landings(spec, agent)],
                         axis=1)
                for k in (0, 1))
    near = _chebyshev(agent, watcher)
    seen = np.where(near <= spec.view_radius, watcher[1] * spec.width + watcher[0], n_cells)
    symbol = (agent[1] * spec.width + agent[0]) * (n_cells + 1) + seen
    init_states = [avoid_index(spec, agent_start, i) for i in start_idxs]
    return _model(spec, name, _same(agent, goal_cell), near <= 1, one, two, symbol, init_states)
