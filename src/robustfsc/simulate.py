"""Belief-tracked rollouts of the supervision policy, collected for training
as one dataset of zero-padded arrays; beliefs live only inside ``simulate``."""

from __future__ import annotations

from dataclasses import InitVar, dataclass

import numpy as np

from robustfsc.model import Belief, ConcretePomdp, Edges, belief_updates
from robustfsc.solvers import SupervisionBound


@dataclass
class Step:
    observation: int
    action: int  # the supervision action: the label the network is trained on
    target: InitVar[np.ndarray | None] = None  # accepted, not stored
    belief: Belief | None = None  # accepted for callers that have one; not kept


class Episode:
    """One rollout's steps; arguments after them are accepted and not kept."""

    def __init__(self, steps: list[Step], *unused):
        self.steps = steps

    def __len__(self) -> int:
        return len(self.steps)


class TrajectoryDataset:
    """Rollouts as arrays padded with zeros, one row per episode.

    ``observations`` and ``actions`` (B, T) int64 hold episode b's steps in
    columns 0 .. lengths[b] - 1, with T the longest episode; ``lengths`` is
    (B,).  The action is the step's one supervision label.  The constructor
    packs Episode objects, dropping their beliefs, and refuses an observation
    outside range(num_observations) or an action outside range(num_actions);
    its trailing arguments are accepted and not kept.  ``simulate`` scatters
    its step records into an empty dataset.
    """

    def __init__(self, episodes: list[Episode], num_observations: int, num_actions: int, *unused):
        rows = np.array([row for row, ep in enumerate(episodes) for _ in ep.steps], dtype=np.int64)
        cols = np.array([t for ep in episodes for t in range(len(ep))], dtype=np.int64)
        observations = np.array([st.observation for ep in episodes for st in ep.steps], dtype=np.int64)
        actions = np.array([st.action for ep in episodes for st in ep.steps], dtype=np.int64)
        for name, values, count in (("observation", observations, num_observations),
                                    ("action", actions, num_actions)):
            bad = np.flatnonzero((values < 0) | (values >= count))
            if bad.size:
                k = bad[0]
                raise ValueError(f"episode {rows[k]} step {cols[k]}: {name} {values[k]} outside range({count})")
        self._scatter(len(episodes), rows, cols, observations, actions)

    def _scatter(self, num_episodes: int, rows, cols, observations, actions) -> None:
        """Set the arrays from int64 arrays of step records: record k is step
        cols[k] of episode rows[k]; every episode's steps are 0 .. its length - 1."""
        self.lengths = np.bincount(rows, minlength=num_episodes)
        shape = (num_episodes, int(self.lengths.max(initial=0)))
        self.observations = np.zeros(shape, dtype=np.int64)
        self.actions = np.zeros(shape, dtype=np.int64)
        self.observations[rows, cols] = observations
        self.actions[rows, cols] = actions

    @property
    def mask(self) -> np.ndarray:
        """(B, T) float64: 1.0 at recorded steps, 0.0 at padding."""
        return (np.arange(self.observations.shape[1]) < self.lengths[:, None]).astype(np.float64)

    @property
    def num_episodes(self) -> int:
        return len(self.lengths)

    @property
    def num_steps(self) -> int:
        return int(self.lengths.sum())


# Uniforms drawn per generator call, in steps; bounds the draws held at once.
DRAW_BLOCK = 64
# Generator.choice's tolerance on the sum of a distribution.
CHOICE_TOL = float(np.sqrt(np.finfo(np.float64).eps))


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cdf Generator.choice searches, of each distribution along the last axis."""
    cdf = np.cumsum(p, axis=-1)
    cdf /= cdf[..., -1:]
    return cdf


def _successor_cdf(e: Edges) -> np.ndarray:
    """Per edge, its row's successor cdf built from ``probs / probs.sum()``.

    Rows of one length are summed together, which gives each row's own
    ``ndarray.sum`` bit for bit.
    """
    cdf = np.empty(len(e.succ))
    counts = np.diff(e.offsets)
    for k in np.unique(counts[counts > 0]):
        idx = e.offsets[np.flatnonzero(counts == k)][:, None] + np.arange(k)
        probs = e.lo[idx]
        cdf[idx] = _cdf(probs / probs.sum(axis=1, keepdims=True))
    return cdf


def simulate(
    model: ConcretePomdp,
    supervision: SupervisionBound,
    num_episodes: int,
    horizon: int,
    rng_seed: int | tuple[int, ...] = 0,
) -> TrajectoryDataset:
    """Roll out the argmin supervision policy, tracking the exact belief.

    Each episode draws its start from the initial belief and stops at a goal
    or after ``horizon`` steps, whichever comes first (goals are absorbing
    and free, so truncating there changes nothing).  Recorded per step: the
    current observation and the supervision action, the argmin of the
    bound's action values at the belief (ties go to the lowest index).  Each
    step's records are kept as arrays and scattered into the dataset's padded
    arrays once, at the end; beliefs are not kept, so only the current step's
    belief block is alive.

    Draw contract: episode i owns the generator seeded by (rng_seed, i).  It
    draws one uniform for its start, then per step one uniform for the action
    and one for the successor, in that order.  The action's uniform is drawn
    and left unused: the argmin needs none, and skipping the draw would
    change every dataset.  The other uniforms pick by the inverse-cdf search
    of ``Generator.choice(p=...)``, so the dataset is that of a per-episode
    loop of ``choice`` calls and independent of execution order.  All live
    episodes advance together, one step at a time; the beliefs of one step
    are the rows of one array.
    """
    n, na = model.num_states, model.num_actions
    e = model.edges
    init = model.initial_belief
    if not (init.shape == (n,) and np.all(init >= 0) and abs(init.sum() - 1.0) <= CHOICE_TOL):
        raise ValueError("initial belief is not a probability distribution over the states")
    seed_parts = (rng_seed,) if isinstance(rng_seed, int) else tuple(rng_seed)
    rngs = [np.random.default_rng((*seed_parts, i)) for i in range(num_episodes)]
    goal = model.is_goal
    successor_cdf = _successor_cdf(e)

    state = np.searchsorted(_cdf(init), [rng.random() for rng in rngs], side="right")
    record = []  # per step: live episodes, the step index, observations, actions
    live = np.flatnonzero(~goal[state])
    beliefs = np.tile(init, (len(live), 1))
    for t in range(horizon):
        if not live.size:
            break
        if t % DRAW_BLOCK == 0:
            draws = np.array([rngs[i].random(2 * min(DRAW_BLOCK, horizon - t)) for i in live])
        u_successor = draws[:, 2 * (t % DRAW_BLOCK) + 1]
        s = state[live]
        a = np.argmin(supervision.action_values(beliefs), axis=1)
        record.append((live, np.full(len(live), t), model.obs_of[s], a))
        rows = s * na + a
        idx, counts = e.of_rows(rows)
        below = successor_cdf[idx] <= np.repeat(u_successor, counts)
        owner = np.repeat(np.arange(len(live)), counts)
        s = e.succ[e.offsets[rows] + np.bincount(owner[below], minlength=len(live))]
        state[live] = s
        keep = ~goal[s]
        beliefs = belief_updates(model, beliefs, a, model.obs_of[s], keep)
        live, draws = live[keep], draws[keep]

    dataset = TrajectoryDataset([], model.num_observations, na)
    steps = map(np.concatenate, zip(*record)) if record else np.zeros((4, 0), dtype=np.int64)
    dataset._scatter(num_episodes, *steps)
    return dataset
