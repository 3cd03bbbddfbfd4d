"""Core data model: interval-uncertain POMDPs, concrete instances, beliefs, FSCs.

Transition rows are sparse: an absent successor is structurally impossible
(probability exactly zero), while every stored interval has a strictly
positive lower bound.  All probability arithmetic is 64-bit floating point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

PROB_TOL = 1e-9
BELIEF_TOL = 1e-12

TransKey = tuple[int, int]  # (state, action)


@dataclass(frozen=True)
class Interval:
    """Probability interval [lo, hi] with 0 < lo <= hi <= 1."""

    lo: float
    hi: float

    def contains(self, p: float, tol: float = PROB_TOL) -> bool:
        return self.lo - tol <= p <= self.hi + tol

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.lo + self.hi)


@dataclass
class RobustPomdp:
    """POMDP with interval transition uncertainty and deterministic observations.

    Fields
    ------
    obs_of        : observation index per state, shape (num_states,)
    transitions   : (s, a) -> {s': Interval}; absent pair means no dynamics,
                    absent successor means impossible transition
    cost          : (s, a) -> nonnegative stage cost
    goals         : absorbing zero-cost target states
    initial_belief: distribution over states, shape (num_states,)
    """

    num_states: int
    num_actions: int
    num_observations: int
    obs_of: np.ndarray
    transitions: dict[TransKey, dict[int, Interval]]
    cost: dict[TransKey, float]
    goals: frozenset[int]
    initial_belief: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        self.obs_of = np.asarray(self.obs_of, dtype=np.int64)
        self.initial_belief = np.asarray(self.initial_belief, dtype=np.float64)
        self.goals = frozenset(self.goals)

    def row(self, s: int, a: int) -> dict[int, Interval]:
        return self.transitions.get((s, a), {})

    def realizable_observations(self) -> list[int]:
        return sorted(set(int(z) for z in self.obs_of))


@dataclass
class ConcretePomdp:
    """A single member of an uncertainty set: exact transition probabilities."""

    num_states: int
    num_actions: int
    num_observations: int
    obs_of: np.ndarray
    transitions: dict[TransKey, dict[int, float]]
    cost: dict[TransKey, float]
    goals: frozenset[int]
    initial_belief: np.ndarray
    name: str = ""

    def __post_init__(self) -> None:
        self.obs_of = np.asarray(self.obs_of, dtype=np.int64)
        self.initial_belief = np.asarray(self.initial_belief, dtype=np.float64)
        self.goals = frozenset(self.goals)

    def row(self, s: int, a: int) -> dict[int, float]:
        return self.transitions.get((s, a), {})

    def is_member_of(self, model: RobustPomdp, tol: float = PROB_TOL) -> bool:
        """Check that every stored probability lies in the parent's interval."""
        if set(self.transitions) != set(model.transitions):
            return False
        for key, row in self.transitions.items():
            parent = model.transitions[key]
            if set(row) != set(parent):
                return False
            for sp, p in row.items():
                if not parent[sp].contains(p, tol):
                    return False
        return True


def with_transitions(model: RobustPomdp | ConcretePomdp, transitions: dict, cls: type = ConcretePomdp):
    """A copy of ``model`` as ``cls`` with the given transitions.

    Every other field (observations, costs, goals, initial belief, name) is
    copied; this is how members of an uncertainty set are built.
    """
    return cls(
        num_states=model.num_states,
        num_actions=model.num_actions,
        num_observations=model.num_observations,
        obs_of=model.obs_of.copy(),
        transitions=transitions,
        cost=dict(model.cost),
        goals=model.goals,
        initial_belief=model.initial_belief.copy(),
        name=model.name,
    )


def concrete_to_robust(member: ConcretePomdp) -> RobustPomdp:
    """Point-interval view of a member: the interval model whose only member it is."""
    # members repeat a few probabilities: one shared (frozen) Interval per value
    values = {p for row in member.transitions.values() for p in row.values()}
    points = {p: Interval(p, p) for p in values}
    transitions = {
        key: {sp: points[p] for sp, p in row.items()}
        for key, row in member.transitions.items()
    }
    return with_transitions(member, transitions, RobustPomdp)


# A belief is a dense probability vector over states.
Belief = np.ndarray


@dataclass
class Fsc:
    """Finite-state controller.

    action_map[n, z] is a distribution over actions (each row sums to one);
    memory_map[n, z] is the deterministic successor node.
    """

    num_nodes: int
    initial_node: int
    action_map: np.ndarray  # (num_nodes, num_obs, num_actions)
    memory_map: np.ndarray  # (num_nodes, num_obs), int

    def __post_init__(self) -> None:
        self.action_map = np.asarray(self.action_map, dtype=np.float64)
        self.memory_map = np.asarray(self.memory_map, dtype=np.int64)

    @property
    def num_observations(self) -> int:
        return self.action_map.shape[1]

    @property
    def num_actions(self) -> int:
        return self.action_map.shape[2]

    def check(self, tol: float = PROB_TOL) -> None:
        if not (0 <= self.initial_node < self.num_nodes):
            raise ValueError("initial node out of range")
        if self.action_map.shape[:2] != self.memory_map.shape:
            raise ValueError("action_map and memory_map disagree on shape")
        if np.any(self.action_map < -tol):
            raise ValueError("negative action probability")
        sums = self.action_map.sum(axis=2)
        if np.any(np.abs(sums - 1.0) > tol):
            raise ValueError("action distribution does not sum to 1")
        if np.any(self.memory_map < 0) or np.any(self.memory_map >= self.num_nodes):
            raise ValueError("memory update references unknown node")


def pad_actions(fsc: Fsc, num_actions: int) -> Fsc:
    """Widen the action axis with zero-probability entries.

    Text documents only store positive probabilities, so a controller that
    never plays the model's last action deserializes with a narrower action
    axis; padding restores the model's width without changing semantics.
    """
    if num_actions < fsc.num_actions:
        raise ValueError(
            f"controller plays {fsc.num_actions} actions, model only has {num_actions}"
        )
    if num_actions == fsc.num_actions:
        return fsc
    pad = np.zeros((fsc.num_nodes, fsc.num_observations, num_actions - fsc.num_actions))
    return Fsc(
        fsc.num_nodes,
        fsc.initial_node,
        np.concatenate([fsc.action_map, pad], axis=2),
        fsc.memory_map.copy(),
    )


def prune_unreachable_nodes(fsc: Fsc, realizable_obs: list[int]) -> Fsc:
    """Drop nodes not reachable from the initial node via the memory update.

    Reachability only follows observations that actually occur in the model;
    surviving nodes are reindexed densely in discovery order.
    """
    reachable: list[int] = [fsc.initial_node]
    seen = {fsc.initial_node}
    i = 0
    while i < len(reachable):
        n = reachable[i]
        i += 1
        for z in realizable_obs:
            m = int(fsc.memory_map[n, z])
            if m not in seen:
                seen.add(m)
                reachable.append(m)
    if len(reachable) == fsc.num_nodes and reachable == list(range(fsc.num_nodes)):
        return fsc
    old_to_new = {old: new for new, old in enumerate(reachable)}
    action_map = fsc.action_map[reachable]
    memory_map = np.zeros((len(reachable), fsc.num_observations), dtype=np.int64)
    for new, old in enumerate(reachable):
        for z in range(fsc.num_observations):
            tgt = int(fsc.memory_map[old, z])
            # Non-realizable observations may point at pruned nodes; redirect
            # them to the source node so the map stays total.
            memory_map[new, z] = old_to_new.get(tgt, new)
    return Fsc(len(reachable), 0, action_map, memory_map)


@dataclass
class ValidationReport:
    issues: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, msg: str) -> None:
        self.issues.append(msg)

    def __str__(self) -> str:
        if self.ok:
            return "model ok"
        return "\n".join(self.issues)


def validate(model: RobustPomdp) -> ValidationReport:
    """Check all structural invariants; report violations instead of raising."""
    rep = ValidationReport()
    n, na = model.num_states, model.num_actions

    if model.obs_of.shape != (n,):
        rep.add(f"obs_of must assign one observation per state, got shape {model.obs_of.shape}")
        return rep
    if np.any(model.obs_of < 0) or np.any(model.obs_of >= model.num_observations):
        rep.add("obs_of contains an out-of-range observation index")

    if model.initial_belief.shape != (n,):
        rep.add("initial_belief has wrong length")
    else:
        if np.any(model.initial_belief < 0):
            rep.add("initial_belief has a negative entry")
        total = float(model.initial_belief.sum())
        if not abs(total - 1.0) <= BELIEF_TOL:  # also catches NaN
            rep.add(f"initial_belief sums to {total!r}, expected 1 within {BELIEF_TOL}")

    for g in sorted(model.goals):
        if not (0 <= g < n):
            rep.add(f"goal state {g} out of range")

    for s in range(n):
        for a in range(na):
            key = (s, a)
            row = model.transitions.get(key)
            if not row:
                rep.add(f"state {s} action {a}: no outgoing transitions")
                continue
            lo_sum = 0.0
            hi_sum = 0.0
            for sp, iv in row.items():
                if not (0 <= sp < n):
                    rep.add(f"state {s} action {a}: successor {sp} out of range")
                if not (0.0 < iv.lo <= iv.hi <= 1.0):
                    rep.add(
                        f"state {s} action {a} successor {sp}: interval "
                        f"[{iv.lo}, {iv.hi}] violates 0 < lo <= hi <= 1"
                    )
                lo_sum += iv.lo
                hi_sum += iv.hi
            if lo_sum > 1.0 + PROB_TOL:
                rep.add(f"state {s} action {a}: sum of lower bounds {lo_sum} exceeds 1")
            if hi_sum < 1.0 - PROB_TOL:
                rep.add(f"state {s} action {a}: sum of upper bounds {hi_sum} is below 1")
            c = model.cost.get(key)
            if c is None:
                rep.add(f"state {s} action {a}: missing cost")
            elif not c >= 0:  # also catches NaN
                rep.add(f"state {s} action {a}: negative or NaN cost {c}")
            if s in model.goals:
                if row != {s: Interval(1.0, 1.0)}:
                    rep.add(f"goal state {s} action {a}: goals must self-loop with probability 1")
                if c not in (None, 0.0):
                    rep.add(f"goal state {s} action {a}: goals must have zero cost, got {c}")
    return rep


def project_row(targets: np.ndarray, intervals: list[Interval]) -> np.ndarray:
    """Project target values onto the box-constrained probability simplex.

    Clamps each target into its interval, then spreads the leftover mass
    Delta = 1 - sum(p) proportionally to the remaining slack (upward slack
    hi - p when Delta > 0, downward slack p - lo when Delta < 0), repeating
    until |Delta| < 1e-12.
    """
    lo = np.array([iv.lo for iv in intervals], dtype=np.float64)
    hi = np.array([iv.hi for iv in intervals], dtype=np.float64)
    if lo.sum() > 1.0 + PROB_TOL or hi.sum() < 1.0 - PROB_TOL:
        raise ValueError("box does not intersect the probability simplex")
    p = np.clip(np.asarray(targets, dtype=np.float64), lo, hi)
    for _ in range(100):
        delta = 1.0 - p.sum()
        if abs(delta) < 1e-12:
            break
        slack = (hi - p) if delta > 0 else (p - lo)
        total = slack.sum()
        if total <= 0.0:
            raise ValueError("box does not intersect the probability simplex")
        p = np.clip(p + delta * slack / total, lo, hi)
    return p


def _project_model(
    model: RobustPomdp, start: Literal["mid", "lo", "hi", "sample"], rng: np.random.Generator | None = None
) -> ConcretePomdp:
    transitions: dict[TransKey, dict[int, float]] = {}
    for key in sorted(model.transitions):
        row = model.transitions[key]
        succs = sorted(row)
        ivs = [row[sp] for sp in succs]
        if start == "mid":
            targets = np.array([iv.midpoint for iv in ivs])
        elif start == "lo":
            targets = np.array([iv.lo for iv in ivs])
        elif start == "hi":
            targets = np.array([iv.hi for iv in ivs])
        else:
            assert rng is not None
            targets = np.array([rng.uniform(iv.lo, iv.hi) for iv in ivs])
        probs = project_row(targets, ivs)
        transitions[key] = {sp: float(p) for sp, p in zip(succs, probs)}
    return with_transitions(model, transitions)


def nominal_midpoint(model: RobustPomdp) -> ConcretePomdp:
    """Member obtained by projecting interval midpoints onto each row simplex."""
    return _project_model(model, "mid")


def bound_member(model: RobustPomdp, which: Literal["lower", "upper"]) -> ConcretePomdp:
    """Member obtained from all lower (resp. upper) interval bounds, projected."""
    if which not in ("lower", "upper"):
        raise ValueError(f"which must be 'lower' or 'upper', got {which!r}")
    return _project_model(model, "lo" if which == "lower" else "hi")


def sample_member(model: RobustPomdp, rng_seed: int | tuple[int, ...]) -> ConcretePomdp:
    """Random member: each entry uniform in its interval, rows projected."""
    rng = np.random.default_rng(rng_seed)
    return _project_model(model, "sample", rng)


class InconsistentHistoryError(ValueError):
    """Raised when an observation has probability zero under the belief."""


def belief_update(model: ConcretePomdp, b: Belief, a: int, z: int) -> Belief:
    """Bayes update: b'(s') proportional to sum_s b(s) T(s'|s,a) [O(s')=z]."""
    post = np.zeros(model.num_states, dtype=np.float64)
    for s in np.flatnonzero(b):
        bs = b[s]
        for sp, p in model.row(int(s), a).items():
            if model.obs_of[sp] == z:
                post[sp] += bs * p
    total = post.sum()
    if total <= 0.0:
        raise InconsistentHistoryError(
            f"observation {z} has probability zero after action {a}"
        )
    return post / total

