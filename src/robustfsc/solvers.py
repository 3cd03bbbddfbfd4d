"""Fast belief-value bounds for concrete POMDP instances.

Both solvers run Jacobi sweeps over the model's edge table (``model.edges``),
taken in (s, a, O(s'), s') order, so results do not depend on state
enumeration order.
States from which no policy can reach a goal with positive probability are
valued +inf up front; the sweeps propagate infinity to anything forced
through them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from robustfsc.model import Belief, ConcretePomdp

VALUE_CAP = 1e9


class DivergenceError(RuntimeError):
    """A computation left its bounds: value iteration exceeded its cap or
    iteration budget, robust policy iteration revisited a member, or the GRU
    or bottleneck training loss turned non-finite.  The CLI exits 3 on it."""


@dataclass
class MdpValues:
    """Optimal values of the fully observable relaxation.

    v[s] = min_a q[s, a]; goals are worth zero.
    """

    v: np.ndarray  # (S,)
    q: np.ndarray  # (S, A)

    def action_values(self, belief: Belief) -> np.ndarray:
        """Belief-weighted action values: sum_s b(s) q(s, a)."""
        return belief @ self.q


@dataclass
class FibVectors:
    """One value vector per action; accounts for the next observation."""

    alpha: np.ndarray  # (A, S)

    def action_values(self, belief: Belief) -> np.ndarray:
        return self.alpha @ belief


def _by_observation(model: ConcretePomdp) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The model's edges in (s, a, O(s'), s') order, grouped for the backups.

    Returns the successor and probability of each edge in that order, the
    first edge of each (s, a, z) group and the first group of each flat (s, a).
    """
    e = model.edges
    missing = np.flatnonzero((np.diff(e.offsets) == 0) | np.isnan(e.cost))
    if missing.size:
        s, a = divmod(int(missing[0]), model.num_actions)
        raise ValueError(f"state {s} action {a} has no transitions or no cost")
    z = model.obs_of[e.succ]
    order = np.lexsort((e.succ, z, e.row))
    row, z = e.row[order], z[order]
    starts = np.concatenate([[0], np.flatnonzero((np.diff(row) != 0) | (np.diff(z) != 0)) + 1])
    return e.succ[order], e.lo[order], starts, np.searchsorted(starts, e.offsets[:-1])


def _backward_closure(reverse: csr_matrix, seeds: np.ndarray) -> np.ndarray:
    """States with a path into ``seeds`` (included), given the reversed graph."""
    if not seeds.any():
        return seeds.copy()
    dist = dijkstra(reverse, indices=np.flatnonzero(seeds), unweighted=True, min_only=True)
    return np.isfinite(dist)


def _improper_states(model: ConcretePomdp) -> np.ndarray:
    """States from which no action sequence reaches a goal with positive prob."""
    n, e = model.num_states, model.edges
    preds = e.row // model.num_actions
    reverse = csr_matrix((np.ones(len(preds)), (e.succ, preds)), shape=(n, n))
    goals = np.zeros(n, dtype=bool)
    goals[list(model.goals)] = True
    return ~_backward_closure(reverse, goals)


def solve_mdp(model: ConcretePomdp, tol: float = 1e-9, max_iters: int = 200_000) -> MdpValues:
    """Expected cost-to-goal of the underlying MDP via value iteration.

    Jacobi sweeps from v = 0; the iterates increase monotonically toward the
    least fixed point.  Raises DivergenceError when values pass 1e9, which
    diagnoses a goal that is not reachable almost surely.
    """
    n, na = model.num_states, model.num_actions
    succ, prob, _, _ = _by_observation(model)
    cost, row_starts = model.edges.cost, model.edges.offsets[:-1]
    v = np.zeros(n)
    v[_improper_states(model)] = np.inf
    for _ in range(max_iters):
        contrib = prob * v[succ]
        q = cost + np.add.reduceat(contrib, row_starts)
        v_new = q.reshape(n, na).min(axis=1)
        finite = np.isfinite(v_new) & np.isfinite(v)
        change = np.max(np.abs(v_new[finite] - v[finite]), initial=0.0)
        v = v_new
        if np.any(v[np.isfinite(v)] > VALUE_CAP):
            raise DivergenceError("MDP values exceed 1e9; goal unreachable from some state")
        if change < tol:
            return MdpValues(v=v, q=q.reshape(n, na))
    raise DivergenceError(f"MDP value iteration did not converge in {max_iters} sweeps")


def solve_fib(model: ConcretePomdp, tol: float = 1e-9, max_iters: int = 200_000) -> FibVectors:
    """Iterate the observation-aware value vectors from zero to a fixed point.

    alpha'[a](s) = C(s,a) + sum_z min_a' sum_{s': O(s')=z} T(s'|s,a) alpha[a'](s')
    """
    n, na = model.num_states, model.num_actions
    succ, prob, group_starts, row_group_starts = _by_observation(model)
    alpha = np.zeros((na, n))
    alpha[:, _improper_states(model)] = np.inf
    for _ in range(max_iters):
        contrib = prob[:, None] * alpha[:, succ].T  # (E, A)
        per_group = np.add.reduceat(contrib, group_starts, axis=0)
        group_min = per_group.min(axis=1)  # min over next action, one per (s,a,z)
        backup = np.add.reduceat(group_min, row_group_starts)
        alpha_new = (model.edges.cost + backup).reshape(n, na).T
        finite = np.isfinite(alpha_new) & np.isfinite(alpha)
        change = np.max(np.abs(alpha_new[finite] - alpha[finite]), initial=0.0)
        alpha = alpha_new
        if np.any(alpha[np.isfinite(alpha)] > VALUE_CAP):
            raise DivergenceError("FIB values exceed 1e9; goal unreachable from some state")
        if change < tol:
            return FibVectors(alpha=alpha)
    raise DivergenceError(f"FIB iteration did not converge in {max_iters} sweeps")


def supervision_policy(q_values: np.ndarray) -> np.ndarray:
    """Point distribution on the cheapest action; ties go to the lowest index.

    ``q_values`` holds the actions along its last axis, one belief per row.
    """
    mu = np.zeros_like(q_values, dtype=np.float64)
    np.put_along_axis(mu, np.argmin(q_values, axis=-1)[..., None], 1.0, axis=-1)
    return mu
