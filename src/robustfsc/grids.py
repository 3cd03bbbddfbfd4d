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
in closed form from the grid dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Literal

import numpy as np

from robustfsc.model import Interval, RobustPomdp

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
            raise ValueError("slip_interval must be contained in (0, 1)")
        if self.view_radius < 0:
            raise ValueError("view_radius must be nonnegative")
        if self.step_cost < 0 or self.penalty_cost < 0:
            raise ValueError("costs must be nonnegative")


def _chebyshev(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


class _Builder:
    """Shared state-indexing / row-assembly machinery for one grid family."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.w, self.h = spec.width, spec.height

    def clamp(self, x: int, y: int) -> tuple[int, int]:
        return (min(max(x, 0), self.w - 1), min(max(y, 0), self.h - 1))

    def agent_moves(self, pos: tuple[int, int], action: int) -> tuple[tuple[int, int], tuple[int, int]]:
        dx, dy = MOVES[action]
        one = self.clamp(pos[0] + dx, pos[1] + dy)
        two = self.clamp(pos[0] + 2 * dx, pos[1] + 2 * dy)
        return one, two


def _assemble(
    spec: GridSpec,
    num_states: int,
    num_actions: int,
    is_goal,
    is_bad,
    step_successor,
    moves_agent,
    obs_symbol,
    init_states: list[int],
    name: str,
) -> RobustPomdp:
    """Build the model from per-state callbacks.

    step_successor(s, a, agent_landing) -> successor state index;
    moves_agent(s, a) -> (one_step_cell, two_step_cell) or None for non-move
    actions (deterministic row via step_successor with agent staying put).
    """
    slip = spec.slip_interval
    stay = Interval(1.0, 1.0)
    transitions: dict[tuple[int, int], dict[int, Interval]] = {}
    cost: dict[tuple[int, int], float] = {}
    goals = set()

    for s in range(num_states):
        if is_goal(s):
            goals.add(s)
            for a in range(num_actions):
                transitions[(s, a)] = {s: stay}
                cost[(s, a)] = 0.0
            continue
        stage_cost = spec.step_cost + (spec.penalty_cost if is_bad(s) else 0.0)
        for a in range(num_actions):
            landing = moves_agent(s, a)
            if landing is None:
                succ = step_successor(s, a, None)
                transitions[(s, a)] = {succ: stay}
            else:
                one, two = landing
                s_one = step_successor(s, a, one)
                s_two = step_successor(s, a, two)
                if s_one == s_two:
                    transitions[(s, a)] = {s_one: stay}
                else:
                    transitions[(s, a)] = {
                        s_one: Interval(1.0 - slip.hi, 1.0 - slip.lo),
                        s_two: slip,
                    }
            cost[(s, a)] = stage_cost

    # Dense observation indices in first-occurrence order over the state index.
    symbols: dict[tuple, int] = {}
    obs_of = np.zeros(num_states, dtype=np.int64)
    for s in range(num_states):
        sym = obs_symbol(s)
        if sym not in symbols:
            symbols[sym] = len(symbols)
        obs_of[s] = symbols[sym]

    belief = np.zeros(num_states, dtype=np.float64)
    belief[init_states] = 1.0 / len(init_states)

    return RobustPomdp(
        num_states=num_states,
        num_actions=num_actions,
        num_observations=len(symbols),
        obs_of=obs_of,
        transitions=transitions,
        cost=cost,
        goals=frozenset(goals),
        initial_belief=belief,
        name=name,
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

def pair_index(spec: GridSpec, agent: tuple[int, int], other: tuple[int, int], flag: int) -> int:
    """State of (agent cell, other robot's cell, flag); cells row-major, flag fastest."""
    w = spec.width
    n_cells = spec.width * spec.height
    a = agent[1] * w + agent[0]
    o = other[1] * w + other[0]
    return (a * n_cells + o) * 2 + flag


def pair_decode(spec: GridSpec, s: int) -> tuple[tuple[int, int], tuple[int, int], int]:
    """Inverse of ``pair_index``."""
    w = spec.width
    a, o = divmod(s // 2, spec.width * spec.height)
    return ((a % w, a // w), (o % w, o // w), s % 2)



def _intercept_exits(spec: GridSpec) -> tuple[tuple[int, int], tuple[int, int]]:
    return ((0, spec.height - 1), (spec.width - 1, spec.height - 1))


def _intercept_target_step(spec: GridSpec, target: tuple[int, int], exited: int) -> tuple[tuple[int, int], int]:
    if exited:
        return target, 1
    left, right = _intercept_exits(spec)
    if target in (left, right):
        return target, 1
    d_left = abs(target[0] - left[0]) + abs(target[1] - left[1])
    d_right = abs(target[0] - right[0]) + abs(target[1] - right[1])
    ex = left if d_left <= d_right else right
    x, y = target
    if x != ex[0]:
        x += 1 if ex[0] > x else -1
    elif y != ex[1]:
        y += 1 if ex[1] > y else -1
    return (x, y), 0


def _build_intercept(spec: GridSpec, name: str) -> RobustPomdp:
    b = _Builder(spec)
    n_cells = spec.width * spec.height
    num_states = n_cells * n_cells * 2
    corridor_x = spec.width // 2
    agent_start = (corridor_x, 0)

    starts = [
        (x, spec.height - 2)
        for x in range(spec.width)
        if x != corridor_x and _chebyshev((x, spec.height - 2), agent_start) > spec.view_radius
    ]
    if not starts:
        raise ValueError("grid too small: no hidden starting cell for the target")

    def is_goal(s: int) -> bool:
        agent, target, _ = pair_decode(spec, s)
        return agent == target

    def moves_agent(s: int, a: int):
        agent, _, _ = pair_decode(spec, s)
        return b.agent_moves(agent, a)

    def step_successor(s: int, a: int, landing) -> int:
        _, target, exited = pair_decode(spec, s)
        t2, e2 = _intercept_target_step(spec, target, exited)
        return pair_index(spec, landing, t2, e2)

    def obs_symbol(s: int):
        agent, target, exited = pair_decode(spec, s)
        if agent == target:
            return (agent, "goal")
        if exited:
            return (agent, "exited")
        if _chebyshev(agent, target) <= spec.view_radius or target[0] == corridor_x:
            return (agent, target)
        return (agent, "hidden")

    def is_bad(s: int) -> bool:
        return pair_decode(spec, s)[2] == 1

    init_states = [pair_index(spec, agent_start, t, 0) for t in starts]
    return _assemble(
        spec, num_states, 4, is_goal, is_bad, step_successor, moves_agent, obs_symbol, init_states, name
    )


# ---------------------------------------------------------------------------
# evade: state = (agent cell, pursuer cell, scanned flag)

def _evade_pursuer_step(spec: GridSpec, adv: tuple[int, int], agent: tuple[int, int]) -> tuple[int, int]:
    safe_x = spec.width - 1
    dx = agent[0] - adv[0]
    dy = agent[1] - adv[1]
    options = []
    if abs(dx) >= abs(dy):
        if dx != 0:
            options.append((adv[0] + (1 if dx > 0 else -1), adv[1]))
        if dy != 0:
            options.append((adv[0], adv[1] + (1 if dy > 0 else -1)))
    else:
        if dy != 0:
            options.append((adv[0], adv[1] + (1 if dy > 0 else -1)))
        if dx != 0:
            options.append((adv[0] + (1 if dx > 0 else -1), adv[1]))
    for cand in options:
        if cand[0] != safe_x:
            return cand
    return adv


def _build_evade(spec: GridSpec, name: str) -> RobustPomdp:
    b = _Builder(spec)
    n_cells = spec.width * spec.height
    num_states = n_cells * n_cells * 2
    agent_start = (spec.width // 2, 0)
    goal_cell = (spec.width - 1, spec.height - 1)

    starts = [
        (x, spec.height - 2)
        for x in range(spec.width - 1)  # the safe column is agent-only
        if _chebyshev((x, spec.height - 2), agent_start) > spec.view_radius
    ]
    if not starts:
        raise ValueError("grid too small: no hidden starting cell for the pursuer")

    def is_goal(s: int) -> bool:
        agent, _, _ = pair_decode(spec, s)
        return agent == goal_cell

    def moves_agent(s: int, a: int):
        if a == SCAN:
            return None
        agent, _, _ = pair_decode(spec, s)
        return b.agent_moves(agent, a)

    def step_successor(s: int, a: int, landing) -> int:
        agent, adv, _ = pair_decode(spec, s)
        adv2 = _evade_pursuer_step(spec, adv, agent)
        if a == SCAN:
            return pair_index(spec, agent, adv2, 1)
        return pair_index(spec, landing, adv2, 0)

    def obs_symbol(s: int):
        agent, adv, scanned = pair_decode(spec, s)
        if scanned or _chebyshev(agent, adv) <= spec.view_radius:
            return (agent, adv)
        return (agent, "hidden")

    def is_bad(s: int) -> bool:
        agent, adv, _ = pair_decode(spec, s)
        return agent == adv

    init_states = [pair_index(spec, agent_start, v, 0) for v in starts]
    return _assemble(
        spec, num_states, 5, is_goal, is_bad, step_successor, moves_agent, obs_symbol, init_states, name
    )


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


def avoid_index(spec: GridSpec, agent: tuple[int, int], route_idx: int) -> int:
    route_len = 2 * (spec.width + spec.height) - 4
    a = agent[1] * spec.width + agent[0]
    return a * route_len + route_idx


def avoid_decode(spec: GridSpec, s: int) -> tuple[tuple[int, int], int]:
    route_len = 2 * (spec.width + spec.height) - 4
    a, idx = divmod(s, route_len)
    return ((a % spec.width, a // spec.width), idx)


def _build_avoid(spec: GridSpec, name: str) -> RobustPomdp:
    b = _Builder(spec)
    route = patrol_route(spec)
    route_len = len(route)
    num_states = spec.width * spec.height * route_len
    agent_start = (0, 0)
    goal_cell = (spec.width - 1, spec.height - 1)

    start_idxs = [
        i for i, cell in enumerate(route) if _chebyshev(cell, agent_start) > max(spec.view_radius, 1)
    ]
    if not start_idxs:
        raise ValueError("grid too small: no hidden starting position for the watcher")

    def is_goal(s: int) -> bool:
        agent, _ = avoid_decode(spec, s)
        return agent == goal_cell

    def moves_agent(s: int, a: int):
        agent, _ = avoid_decode(spec, s)
        return b.agent_moves(agent, a)

    def step_successor(s: int, a: int, landing) -> int:
        _, idx = avoid_decode(spec, s)
        return avoid_index(spec, landing, (idx + 1) % route_len)

    def obs_symbol(s: int):
        agent, idx = avoid_decode(spec, s)
        if _chebyshev(agent, route[idx]) <= spec.view_radius:
            return (agent, route[idx])
        return (agent, "hidden")

    def is_bad(s: int) -> bool:
        agent, idx = avoid_decode(spec, s)
        return _chebyshev(agent, route[idx]) <= 1

    init_states = [avoid_index(spec, agent_start, i) for i in start_idxs]
    return _assemble(
        spec, num_states, 4, is_goal, is_bad, step_successor, moves_agent, obs_symbol, init_states, name
    )
