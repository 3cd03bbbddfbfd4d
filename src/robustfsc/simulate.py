"""Belief-tracked rollouts of the supervision policy, collected for training."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from robustfsc.model import Belief, ConcretePomdp, belief_update
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
    and free, so truncating there changes nothing).  Episode i uses its own
    generator seeded by (rng_seed, i), making the dataset independent of any
    execution order.  Recorded per step: the current observation, the
    supervision distribution, the sampled action, and the belief the
    distribution was computed from.
    """
    states = np.arange(model.num_states)
    actions = np.arange(model.num_actions)
    e = model.edges
    seed_parts = (rng_seed,) if isinstance(rng_seed, int) else tuple(rng_seed)
    episodes: list[Episode] = []
    for i in range(num_episodes):
        rng = np.random.default_rng((*seed_parts, i))
        s = int(rng.choice(states, p=model.initial_belief))
        b: Belief = model.initial_belief.copy()
        steps: list[Step] = []
        cost = 0.0
        while len(steps) < horizon and s not in model.goals:
            z = int(model.obs_of[s])
            mu = supervision_policy(supervision.action_values(b))
            a = int(rng.choice(actions, p=mu))
            steps.append(Step(observation=z, action=a, target=mu, belief=b))
            r = s * model.num_actions + a
            cost += float(e.cost[r])
            start, stop = e.offsets[r], e.offsets[r + 1]
            probs = e.lo[start:stop]
            s_next = int(rng.choice(e.succ[start:stop], p=probs / probs.sum()))
            b = belief_update(model, b, a, int(model.obs_of[s_next]))
            s = s_next
        episodes.append(Episode(steps=steps, cost=cost, reached_goal=s in model.goals))
    return TrajectoryDataset(
        episodes=episodes,
        num_observations=model.num_observations,
        num_actions=model.num_actions,
        seed=rng_seed,
        horizon=horizon,
        model_hash=model_fingerprint(model),
    )
