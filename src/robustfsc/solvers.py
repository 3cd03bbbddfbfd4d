"""Fast belief-value bounds for concrete POMDP instances.

QMDP and FIB give one kind of result, a ``SupervisionBound`` (S, A) table, and
differ only in their backup: both run in the one sweep loop ``_sweep``, whose
Jacobi sweeps read the model's edge table (``model.edges``) in
(s, a, O(s'), s') order, so results do not depend on state enumeration order.
States from which no policy can reach a goal with positive probability are
valued +inf up front; the sweeps propagate infinity to anything forced
through them.  Every other value rises monotonically from 0 to the least
fixed point, so finite values settle on their own; only values that grow
without end exhaust the ``MAX_SWEEPS`` budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from robustfsc.model import Belief, ConcretePomdp

MAX_SWEEPS = 200_000  # sweep budget of each bound


class DivergenceError(RuntimeError):
    """A computation left its bounds: value iteration used up its sweep
    budget, robust policy iteration revisited a member, or the GRU or
    bottleneck training loss turned non-finite.  The CLI exits 3 on it."""


@dataclass
class SupervisionBound:
    """A lower bound on the expected cost to goal of each action, per state.

    ``q[s, a]`` (C-contiguous (S, A)) is QMDP's optimal Q-value of the fully
    observable relaxation or FIB's alpha_a(s); goals are worth zero.
    """

    q: np.ndarray  # (S, A)

    def __post_init__(self) -> None:
        infinite = np.isinf(self.q)
        # zeroed infinite entries, so no 0 * inf turns NaN, and where they were
        self._finite, self._infinite = (np.where(infinite, 0.0, self.q), infinite) if infinite.any() else (self.q, None)

    def action_values(self, beliefs: Belief) -> np.ndarray:
        """sum_s b(s) q(s, a) of one belief (S,) or of each row of a (B, S) block;
        an infinite q(s, a) counts only where b(s) > 0."""
        rows = beliefs[..., None, :]
        values = (rows @ self._finite)[..., 0, :]
        if self._infinite is not None:
            values[((rows > 0) @ self._infinite)[..., 0, :]] = np.inf
        return values


def _by_observation(model: ConcretePomdp) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The model's edges in (s, a, O(s'), s') order, grouped for the backups.

    Returns the successor and probability of each edge in that order, the
    first edge of each (s, a, z) group and the first group of each flat (s, a).
    """
    e = model.edges
    empty = np.diff(e.offsets) == 0
    missing = np.flatnonzero(empty | np.isnan(e.cost))
    if missing.size:
        s, a = divmod(int(missing[0]), model.num_actions)
        raise ValueError(f"state {s} action {a} has {'no transitions' if empty[missing[0]] else 'a NaN cost'}")
    z = model.obs_of[e.succ]
    order = np.lexsort((e.succ, z, e.row))
    row, z = e.row[order], z[order]
    starts = np.concatenate([[0], np.flatnonzero((np.diff(row) != 0) | (np.diff(z) != 0)) + 1])
    return e.succ[order], e.lo[order], starts, np.searchsorted(starts, e.offsets[:-1])


def _hops_to(pred: np.ndarray, succ: np.ndarray, n: int):
    """Fewest edges from each of ``n`` states into a set of seeds (0 on them, inf with no
    path) along the edges pred -> succ, as a function of the seeds' (n,) mask.  The graph
    is reversed once, for every set it is then asked about."""
    reverse = csr_matrix((np.ones(len(pred)), (succ, pred)), shape=(n, n))
    return lambda seeds: dijkstra(reverse, indices=np.flatnonzero(seeds), unweighted=True, min_only=True)


def _sweep(model: ConcretePomdp, backup, iterate, tol: float, name: str) -> SupervisionBound:
    """Jacobi sweeps x <- iterate(backup(x)) from the table q = 0, +inf on the states
    from which no action sequence reaches a goal.  Stops once no finite entry of x
    moves by ``tol``; raises DivergenceError after ``MAX_SWEEPS`` sweeps."""
    q = np.zeros((model.num_states, model.num_actions))
    hops = _hops_to(model.edges.row // model.num_actions, model.edges.succ, model.num_states)(model.is_goal)
    q[np.isinf(hops)] = np.inf
    x = iterate(q)
    for _ in range(MAX_SWEEPS):
        q = backup(x)
        x_new = iterate(q)
        finite = np.isfinite(x_new) & np.isfinite(x)
        change = np.max(np.abs(x_new[finite] - x[finite]), initial=0.0)
        x = x_new
        if change < tol:
            return SupervisionBound(q)
    raise DivergenceError(f"{name} did not converge in {MAX_SWEEPS} sweeps")


def solve_mdp(model: ConcretePomdp, tol: float = 1e-9) -> SupervisionBound:
    """Expected cost-to-goal of the underlying MDP via value iteration on v = min_a q.

    q(s,a) = C(s,a) + sum_s' T(s'|s,a) v(s')
    """
    succ, prob, _, _ = _by_observation(model)
    cost, row_starts = model.edges.cost, model.edges.offsets[:-1]

    def backup(v: np.ndarray) -> np.ndarray:
        return (cost + np.add.reduceat(prob * v[succ], row_starts)).reshape(model.num_states, model.num_actions)

    # converged on v: a test on q could stop a sweep earlier or later and change the bits
    return _sweep(model, backup, lambda q: q.min(axis=1), tol, "MDP value iteration")


def solve_fib(model: ConcretePomdp, tol: float = 1e-9) -> SupervisionBound:
    """Iterate the observation-aware value vectors from zero to a fixed point.

    q(s,a) = C(s,a) + sum_z min_a' sum_{s': O(s')=z} T(s'|s,a) q(s',a')
    """
    succ, prob, group_starts, row_group_starts = _by_observation(model)
    cost = model.edges.cost

    def backup(q: np.ndarray) -> np.ndarray:
        per_group = np.add.reduceat(prob[:, None] * q[succ], group_starts, axis=0)
        group_min = per_group.min(axis=1)  # min over next action, one per (s,a,z)
        return (cost + np.add.reduceat(group_min, row_group_starts)).reshape(model.num_states, model.num_actions)

    return _sweep(model, backup, lambda q: q, tol, "FIB iteration")


def supervision_policy(q_values: np.ndarray) -> np.ndarray:
    """Point distribution on the cheapest action; ties go to the lowest index.

    ``q_values`` holds the actions along its last axis, one belief per row.
    """
    mu = np.zeros_like(q_values, dtype=np.float64)
    np.put_along_axis(mu, np.argmin(q_values, axis=-1)[..., None], 1.0, axis=-1)
    return mu
