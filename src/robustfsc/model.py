"""Core data model: interval-uncertain POMDPs, concrete instances, beliefs, FSCs.

Transition rows are sparse: an absent successor is structurally impossible
(probability exactly zero), while every stored interval has a strictly
positive lower bound.  All probability arithmetic is 64-bit floating point.

A model's transitions and costs are stored in one place, its edge table
``model.edges`` (CSR arrays over the flat rows s * A + a), which the
generators, the parser and the array import build directly and every numeric
consumer reads.  Every row has a cost.  Only a member (``ConcretePomdp``)
also has dict views of its table, ``.transitions``, ``.cost`` and ``.row()``
((s, a) -> {s': probability}), built on first read; its rows are writable
and write into the table.  The goal set is read as one boolean mask over the
states, ``model.is_goal``.
"""

from __future__ import annotations

from collections.abc import Mapping, MutableMapping
from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

import numpy as np

PROB_TOL = 1e-9
BELIEF_TOL = 1e-12
BOX_TOL = 1e-12  # how far a row's bounds may sum past one and still meet the simplex

TransKey = tuple[int, int]  # (state, action)


@dataclass(frozen=True)
class Interval:
    """Probability interval [lo, hi] with 0 < lo <= hi <= 1."""

    lo: float
    hi: float


@dataclass
class Edges:
    """A model's transitions as CSR arrays over the flat rows r = s * A + a.

    Row r owns the edges offsets[r]:offsets[r + 1], successors ascending.
    For a member ``hi is lo``: both are its probabilities.  ``cost`` is
    total: every row has one.
    """

    offsets: np.ndarray  # (S*A + 1,)
    succ: np.ndarray     # (E,)
    lo: np.ndarray       # (E,)
    hi: np.ndarray       # (E,)
    cost: np.ndarray     # (S*A,)

    @cached_property
    def row(self) -> np.ndarray:
        """Flat row of each edge, shape (E,)."""
        return np.repeat(np.arange(len(self.offsets) - 1), np.diff(self.offsets))

    def of_rows(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return edges_of_rows(self.offsets, rows)


def edges_of_rows(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of the edges of ``rows`` in CSR ``offsets``, row after row, and each row's count."""
    start = offsets[rows]
    counts = offsets[rows + 1] - start
    return np.repeat(start - np.cumsum(counts) + counts, counts) + np.arange(counts.sum()), counts


class RobustPomdp:
    """POMDP with interval transition uncertainty and deterministic observations.

    Fields
    ------
    obs_of        : observation index per state, shape (num_states,)
    edges         : the transitions and costs (see ``Edges``); an empty row
                    means no dynamics, an absent successor an impossible
                    transition
    goals         : absorbing zero-cost target states; ``is_goal`` is their
                    (num_states,) mask
    initial_belief: distribution over states, shape (num_states,)

    Its intervals and costs are read from ``edges`` alone; only a member
    (``ConcretePomdp``) has dict views.
    """

    def __init__(
        self,
        *,
        num_states: int,
        num_actions: int,
        num_observations: int,
        obs_of: np.ndarray,
        goals,
        initial_belief: np.ndarray,
        edges: Edges,
        name: str = "",
    ):
        self.num_states, self.num_actions, self.num_observations = num_states, num_actions, num_observations
        self.obs_of = np.asarray(obs_of, dtype=np.int64)
        self.goals = frozenset(goals)
        self.initial_belief = np.asarray(initial_belief, dtype=np.float64)
        self.name = name
        self.edges = edges

    @cached_property
    def is_goal(self) -> np.ndarray:
        """Whether each state is a goal, shape (num_states,); goals outside the
        states are left out (``validate`` reports them)."""
        mask = np.zeros(self.num_states, dtype=bool)
        mask[[g for g in self.goals if 0 <= g < self.num_states]] = True
        return mask

    @cached_property
    def midpoint(self) -> np.ndarray:
        """Probabilities of ``nominal_midpoint`` on each edge, projected once; read-only."""
        e = self.edges
        probs = _project(0.5 * (e.lo + e.hi), e.lo, e.hi, e.offsets)
        probs.flags.writeable = False
        return probs

    def realizable_observations(self) -> list[int]:
        return np.unique(self.obs_of).tolist()


class ConcretePomdp(RobustPomdp):
    """A single member of an uncertainty set: the point-interval model.

    ``edges.lo is edges.hi`` holds its exact probabilities.  ``transitions``,
    ``cost`` and ``row`` are dict views of ``edges``, built on first read.
    """

    @cached_property
    def cost(self) -> Mapping[TransKey, float]:
        """(s, a) -> stage cost, for every row; read-only."""
        return MappingProxyType({divmod(r, self.num_actions): c for r, c in enumerate(self.edges.cost.tolist())})

    @cached_property
    def transitions(self) -> Mapping[TransKey, MutableMapping[int, float]]:
        """(s, a) -> row, for the rows that have successors (see ``row``)."""
        e = self.edges
        bounds, succ = e.offsets.tolist(), e.succ.tolist()
        return MappingProxyType({
            divmod(r, self.num_actions): _MemberRow(e.lo, dict(zip(succ[start:stop], range(start, stop))))
            for r, (start, stop) in enumerate(zip(bounds, bounds[1:]))
            if stop > start
        })

    def row(self, s: int, a: int) -> Mapping[int, float]:
        """Row (s, a) as {s': probability}, writable into the table; empty without successors."""
        return self.transitions.get((s, a), {})

    def is_member_of(self, model: RobustPomdp) -> bool:
        """Check that every stored probability lies in the parent's interval, up to PROB_TOL."""
        mine, parent = self.edges, model.edges
        return (
            np.array_equal(mine.offsets, parent.offsets)
            and np.array_equal(mine.succ, parent.succ)
            and bool(np.all((parent.lo - PROB_TOL <= mine.lo) & (mine.lo <= parent.hi + PROB_TOL)))
        )


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

    def check(self) -> None:
        if not (0 <= self.initial_node < self.num_nodes):
            raise ValueError("initial node out of range")
        if self.action_map.shape[:2] != self.memory_map.shape or len(self.memory_map) != self.num_nodes:
            raise ValueError(f"action_map and memory_map need one shape and {self.num_nodes} nodes")
        if not np.all(np.isfinite(self.action_map)):
            raise ValueError("non-finite action probability")
        if not np.all(self.action_map >= -PROB_TOL):
            raise ValueError("negative action probability")
        sums = self.action_map.sum(axis=2)
        if not np.all(np.abs(sums - 1.0) <= PROB_TOL):
            raise ValueError("action distribution does not sum to 1")
        if np.any(self.memory_map < 0) or np.any(self.memory_map >= self.num_nodes):
            raise ValueError("memory update references unknown node")


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
    if model.num_observations > n:
        rep.add(f"{model.num_observations} observations exceed {n} states, each of which emits one")

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

    # each condition once, as one array over the edges or the rows; each failing
    # row then reads its messages from those arrays, in report order
    e = model.edges
    counts = np.diff(e.offsets)
    state = np.arange(n * na) // na
    lo_sum, hi_sum = (np.bincount(e.row, bound, n * na) for bound in (e.lo, e.hi))
    goal = model.is_goal[state]
    single = np.flatnonzero(counts == 1)
    self_loop = np.zeros(n * na, dtype=bool)
    i = e.offsets[single]
    self_loop[single] = (e.succ[i] == state[single]) & (e.lo[i] == 1.0) & (e.hi[i] == 1.0)
    empty = counts == 0
    succ_out = (e.succ < 0) | (e.succ >= n)
    interval_bad = ~((0.0 < e.lo) & (e.lo <= e.hi) & (e.hi <= 1.0))
    row_checks = (
        (lo_sum > 1.0 + BOX_TOL, "state {s} action {a}: sum of lower bounds {lo_sum} exceeds 1"),
        (hi_sum < 1.0 - BOX_TOL, "state {s} action {a}: sum of upper bounds {hi_sum} is below 1"),
        (~(e.cost >= 0), "state {s} action {a}: negative or NaN cost {c}"),  # also catches NaN
        (e.cost == np.inf, "state {s} action {a}: infinite cost {c}"),
        (goal & ~self_loop, "goal state {s} action {a}: goals must self-loop with probability 1"),
        (goal & (e.cost != 0.0), "goal state {s} action {a}: goals must have zero cost, got {c}"),
    )
    edge_bad = np.bincount(e.row, succ_out | interval_bad, n * na) > 0
    for r in np.flatnonzero(np.logical_or.reduce([empty, edge_bad, *(bad for bad, _ in row_checks)])).tolist():
        s, a = divmod(r, na)
        if empty[r]:
            rep.add(f"state {s} action {a}: no outgoing transitions")
            continue
        row = slice(e.offsets[r], e.offsets[r + 1])
        for sp, lo, hi, out, off in zip(*(x[row].tolist() for x in (e.succ, e.lo, e.hi, succ_out, interval_bad))):
            if out:
                rep.add(f"state {s} action {a}: successor {sp} out of range")
            if off:
                rep.add(f"state {s} action {a} successor {sp}: interval [{lo}, {hi}] violates 0 < lo <= hi <= 1")
        values = {"s": s, "a": a, "lo_sum": float(lo_sum[r]), "hi_sum": float(hi_sum[r]), "c": float(e.cost[r])}
        rep.issues += [message.format(**values) for bad, message in row_checks if bad[r]]
    return rep


def check_boxes(lo: np.ndarray, hi: np.ndarray, offsets: np.ndarray) -> None:
    """Raise ValueError unless the box of every row offsets[r]:offsets[r + 1] meets the simplex."""
    seg = np.repeat(np.arange(len(offsets) - 1), np.diff(offsets))
    lo_sum = np.bincount(seg, lo, minlength=len(offsets) - 1)
    hi_sum = np.bincount(seg, hi, minlength=len(offsets) - 1)
    if np.any(lo_sum > 1.0 + BOX_TOL) or np.any(hi_sum < 1.0 - BOX_TOL):
        raise ValueError("box does not intersect the probability simplex")


def project_row(targets: np.ndarray, intervals: list[Interval]) -> np.ndarray:
    """Project target values onto the box-constrained probability simplex.

    Clamps each target into its interval, then spreads the leftover mass
    Delta = 1 - sum(p) proportionally to the remaining slack (upward slack
    hi - p when Delta > 0, downward slack p - lo when Delta < 0).  A box
    that meets the simplex has slack at least |Delta|, so the one spread
    lands within 1e-12 of it; a row that does not raises ValueError.
    """
    lo = np.array([iv.lo for iv in intervals], dtype=np.float64)
    hi = np.array([iv.hi for iv in intervals], dtype=np.float64)
    return _project(np.asarray(targets, dtype=np.float64), lo, hi, np.array([0, len(lo)]))


def _project(targets: np.ndarray, lo: np.ndarray, hi: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """``project_row`` of every row of edge arrays at once; empty rows are skipped.

    Row sums accumulate edge by edge, as ``ndarray.sum`` does below eight
    terms, so rows that short give the per-row result bit for bit.
    """
    counts = np.diff(offsets)
    num_rows = len(counts)
    seg = np.repeat(np.arange(num_rows), counts)
    active = counts > 0
    check_boxes(lo, hi, np.unique(offsets))  # the non-empty rows
    p = np.clip(targets, lo, hi)
    delta = 1.0 - np.bincount(seg, p, num_rows)
    active &= ~(np.abs(delta) < 1e-12)
    e = np.flatnonzero(active[seg])
    r = seg[e]
    slack = np.where(delta[r] > 0, hi[e] - p[e], p[e] - lo[e])
    total = np.bincount(r, slack, num_rows)
    if np.any(total[active] <= 0.0):
        raise ValueError("box does not intersect the probability simplex")
    p[e] = np.clip(p[e] + delta[r] * slack / total[r], lo[e], hi[e])
    if not np.all(np.abs(1.0 - np.bincount(r, p[e], num_rows)[active]) < 1e-12):
        raise ValueError("one spread left a row off the probability simplex")
    return p


class _MemberRow(MutableMapping):
    """One row of a member's table, read and written as {s': probability}.

    Writes go to the table, so everything that reads the table sees them;
    the successors are those of the parent and stay fixed.
    """

    __slots__ = ("_probs", "_position")

    def __init__(self, probs: np.ndarray, position: dict[int, int]):
        self._probs, self._position = probs, position  # position: successor -> edge

    def __getitem__(self, sp: int) -> float:
        return float(self._probs[self._position[sp]])

    def __setitem__(self, sp: int, p: float) -> None:
        self._probs[self._position[sp]] = p

    def __delitem__(self, sp: int) -> None:
        raise TypeError("a member keeps its parent's successors")

    def __iter__(self):
        return iter(self._position)

    def __len__(self) -> int:
        return len(self._position)

    def __repr__(self) -> str:
        return repr(dict(self))


def member_with(model: RobustPomdp, probs: np.ndarray) -> ConcretePomdp:
    """The member of ``model`` with probability ``probs[i]`` on its edge i.

    The member's table shares the parent's structure and costs; every other
    field (observations, goals, initial belief, name) is copied.
    """
    parent = model.edges
    return ConcretePomdp(
        num_states=model.num_states,
        num_actions=model.num_actions,
        num_observations=model.num_observations,
        obs_of=model.obs_of.copy(),
        goals=model.goals,
        initial_belief=model.initial_belief.copy(),
        name=model.name,
        edges=Edges(parent.offsets, parent.succ, probs, probs, parent.cost),
    )


def nominal_midpoint(model: RobustPomdp) -> ConcretePomdp:
    """Member obtained by projecting interval midpoints onto each row simplex, over a copy of ``model.midpoint``."""
    return member_with(model, model.midpoint.copy())


def sample_member(model: RobustPomdp, rng_seed: int | tuple[int, ...]) -> ConcretePomdp:
    """Random member: each entry uniform in its interval, rows projected."""
    e = model.edges
    return member_with(model, _project(np.random.default_rng(rng_seed).uniform(e.lo, e.hi), e.lo, e.hi, e.offsets))


class DivergenceError(RuntimeError):
    """A computation left its bounds: value iteration used up its sweep
    budget, robust policy iteration revisited a member, or the GRU or
    bottleneck training loss turned non-finite.  The CLI exits 3 on it."""


class InconsistentHistoryError(ValueError):
    """Raised when an observation has probability zero under the belief."""


def belief_updates(
    model: ConcretePomdp,
    beliefs: np.ndarray,
    actions: np.ndarray,
    observations: np.ndarray,
    keep: np.ndarray | None = None,
) -> np.ndarray:
    """Bayes update of the rows of ``beliefs`` (shape (B, S)) at once.

    Row i becomes b'(s') proportional to sum_s b_i(s) T(s'|s,a_i) [O(s')=z_i].
    Each posterior entry accumulates edge by edge in (s, s') order and each
    row is normalized by its own sum, so a row's result does not depend on
    the other rows.  Every row is checked; only the rows where ``keep`` is
    true are returned, without allocating the others.
    """
    e, n = model.edges, model.num_states
    owner, states = np.nonzero(beliefs)
    idx, counts = e.of_rows(states * model.num_actions + actions[owner])
    mass = np.repeat(beliefs[owner, states], counts) * e.lo[idx]
    owner, succ = np.repeat(owner, counts), e.succ[idx]
    seen = model.obs_of[succ] == observations[owner]
    owner, succ, mass = owner[seen], succ[seen], mass[seen]
    # a row sums to <= 0 exactly when it has no positive (or NaN) entry
    empty = np.flatnonzero(np.bincount(owner, ~(mass <= 0.0), len(beliefs)) == 0)
    if empty.size:
        i = empty[0]
        raise InconsistentHistoryError(
            f"observation {observations[i]} has probability zero after action {actions[i]}"
        )
    if keep is None:
        keep = np.ones(len(beliefs), dtype=bool)
    kept = keep[owner]
    owner, succ, mass = (np.cumsum(keep) - 1)[owner[kept]], succ[kept], mass[kept]
    rows = int(np.count_nonzero(keep))
    # (bincount gives integers when it has nothing to add)
    post = np.bincount(owner * n + succ, mass, rows * n).astype(np.float64, copy=False).reshape(rows, n)
    post /= post.sum(axis=1, keepdims=True)
    return post
