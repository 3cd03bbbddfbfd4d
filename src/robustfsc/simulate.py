"""Belief-tracked rollouts of the supervision policy, collected for training."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from robustfsc.model import Belief, ConcretePomdp, Edges, belief_updates
from robustfsc.solvers import FibVectors, MdpValues, supervision_policy


@dataclass
class Step:
    observation: int
    action: int
    target: np.ndarray  # supervision action distribution at this step
    belief: Belief


@dataclass
class Episode:
    steps: list[Step]
    cost: float
    reached_goal: bool

    def __len__(self) -> int:
        return len(self.steps)


@dataclass
class TrajectoryDataset:
    episodes: list[Episode]
    num_observations: int
    num_actions: int
    seed: int | tuple[int, ...]
    horizon: int
    model_hash: str
    num_episodes: int = field(init=False)

    def __post_init__(self) -> None:
        self.num_episodes = len(self.episodes)

    @property
    def num_steps(self) -> int:
        return sum(len(e) for e in self.episodes)

    def to_jsonl(self) -> str:
        """One JSON record per episode, for debugging and byte-level diffs."""
        lines = []
        for i, ep in enumerate(self.episodes):
            lines.append(
                json.dumps(
                    {
                        "episode": i,
                        "cost": ep.cost,
                        "reached_goal": ep.reached_goal,
                        "steps": [
                            {
                                "z": st.observation,
                                "a": st.action,
                                "mu": [float(p) for p in st.target],
                                "belief": [float(p) for p in st.belief],
                            }
                            for st in ep.steps
                        ],
                    },
                    separators=(",", ":"),
                )
            )
        return "\n".join(lines) + "\n"


def model_fingerprint(model: ConcretePomdp) -> str:
    """Stable short hash of the instance the data was generated from."""
    e = model.edges
    h = hashlib.sha256()
    h.update(repr((model.num_states, model.num_actions, sorted(model.goals))).encode())
    for array in (model.obs_of, e.offsets, e.succ, e.lo, e.cost, model.initial_belief):
        h.update(array.tobytes())
    return h.hexdigest()[:16]


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
    supervision: MdpValues | FibVectors,
    num_episodes: int = 256,
    horizon: int = 200,
    rng_seed: int | tuple[int, ...] = 0,
) -> TrajectoryDataset:
    """Roll out the argmin supervision policy, tracking the exact belief.

    Each episode draws its start from the initial belief and stops at a goal
    or after ``horizon`` steps, whichever comes first (goals are absorbing
    and free, so truncating there changes nothing).  Recorded per step: the
    current observation, the supervision distribution, the sampled action,
    and the belief the distribution was computed from.

    Draw contract: episode i owns the generator seeded by (rng_seed, i).  It
    draws one uniform for its start, then per step one uniform for the action
    and one for the successor, in that order.  Each uniform picks by the
    inverse-cdf search of ``Generator.choice(p=...)``, so the dataset is that
    of a per-episode loop of ``choice`` calls and independent of execution
    order.  All live episodes advance together, one step at a time; the
    beliefs of one step are the rows of one array.
    """
    n, na = model.num_states, model.num_actions
    e = model.edges
    init = model.initial_belief
    if not (init.shape == (n,) and np.all(init >= 0) and abs(init.sum() - 1.0) <= CHOICE_TOL):
        raise ValueError("initial belief is not a probability distribution over the states")
    seed_parts = (rng_seed,) if isinstance(rng_seed, int) else tuple(rng_seed)
    rngs = [np.random.default_rng((*seed_parts, i)) for i in range(num_episodes)]
    goal = np.zeros(n, dtype=bool)
    goal[list(model.goals)] = True
    successor_cdf = _successor_cdf(e)

    state = np.searchsorted(_cdf(init), [rng.random() for rng in rngs], side="right")
    cost = np.zeros(num_episodes)
    steps: list[list[Step]] = [[] for _ in range(num_episodes)]
    live = np.flatnonzero(~goal[state])
    beliefs = np.tile(init, (len(live), 1))
    for t in range(horizon):
        if not live.size:
            break
        if t % DRAW_BLOCK == 0:
            draws = np.array([rngs[i].random(2 * min(DRAW_BLOCK, horizon - t)) for i in live])
        u_action, u_successor = draws[:, 2 * (t % DRAW_BLOCK)], draws[:, 2 * (t % DRAW_BLOCK) + 1]
        s = state[live]
        mu = supervision_policy(np.array([supervision.action_values(b) for b in beliefs]))
        a = np.count_nonzero(_cdf(mu) <= u_action[:, None], axis=1)
        for i, *step in zip(live.tolist(), model.obs_of[s].tolist(), a.tolist(), mu, beliefs):
            steps[i].append(Step(*step))
        rows = s * na + a
        cost[live] += e.cost[rows]
        idx, counts = e.of_rows(rows)
        below = successor_cdf[idx] <= np.repeat(u_successor, counts)
        owner = np.repeat(np.arange(len(live)), counts)
        s = e.succ[e.offsets[rows] + np.bincount(owner[below], minlength=len(live))]
        state[live] = s
        keep = ~goal[s]
        beliefs = belief_updates(model, beliefs, a, model.obs_of[s], keep)
        live, draws = live[keep], draws[keep]

    return TrajectoryDataset(
        episodes=[
            Episode(steps=steps[i], cost=float(cost[i]), reached_goal=bool(goal[state[i]]))
            for i in range(num_episodes)
        ],
        num_observations=model.num_observations,
        num_actions=model.num_actions,
        seed=rng_seed,
        horizon=horizon,
        model_hash=model_fingerprint(model),
    )
