"""Fast belief-value bounds for concrete POMDP instances.

Both solvers run Jacobi sweeps over the model's edge table (``model.edges``),
taken in (s, a, O(s'), s') order, so results do not depend on state
enumeration order.
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


def _split_infinite(table: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``table`` with its infinite entries zeroed, so no 0 * inf turns NaN, and where they were."""
    infinite = np.isinf(table)
    return (np.where(infinite, 0.0, table), infinite) if infinite.any() else (table, None)


@dataclass
class MdpValues:
    """Optimal values of the fully observable relaxation.

    v[s] = min_a q[s, a]; goals are worth zero.
    """

    v: np.ndarray  # (S,)
    q: np.ndarray  # (S, A)

    def __post_init__(self) -> None:
        self._finite, self._infinite = _split_infinite(self.q)

    def action_values(self, belief: Belief) -> np.ndarray:
        """sum_s b(s) q(s, a); an infinite q(s, a) counts only where b(s) > 0."""
        values = belief @ self._finite
        if self._infinite is not None:
            values[(belief > 0) @ self._infinite] = np.inf
        return values


@dataclass
class FibVectors:
    """One value vector per action; accounts for the next observation."""

    alpha: np.ndarray  # (A, S)

    def __post_init__(self) -> None:
        self._finite, self._infinite = _split_infinite(self.alpha)

    def action_values(self, belief: Belief) -> np.ndarray:
        values = self._finite @ belief
        if self._infinite is not None:
            values[self._infinite @ (belief > 0)] = np.inf
        return values


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


def _hops_to(reverse: csr_matrix, seeds: np.ndarray) -> np.ndarray:
    """Fewest edges from each state into ``seeds`` (0 on them, inf with no path), given the reversed graph."""
    return dijkstra(reverse, indices=np.flatnonzero(seeds), unweighted=True, min_only=True)


def _improper_states(model: ConcretePomdp) -> np.ndarray:
    """States from which no action sequence reaches a goal with positive prob."""
    n, e = model.num_states, model.edges
    preds = e.row // model.num_actions
    reverse = csr_matrix((np.ones(len(preds)), (e.succ, preds)), shape=(n, n))
    goals = np.zeros(n, dtype=bool)
    goals[list(model.goals)] = True
    return np.isinf(_hops_to(reverse, goals))


def solve_mdp(model: ConcretePomdp, tol: float = 1e-9) -> MdpValues:
    """Expected cost-to-goal of the underlying MDP via value iteration.

    Jacobi sweeps from v = 0; the iterates increase monotonically toward the
    least fixed point.  Raises DivergenceError when they still move after
    ``MAX_SWEEPS`` sweeps, as values that grow without end do.
    """
    n, na = model.num_states, model.num_actions
    succ, prob, _, _ = _by_observation(model)
    cost, row_starts = model.edges.cost, model.edges.offsets[:-1]
    v = np.zeros(n)
    v[_improper_states(model)] = np.inf
    for _ in range(MAX_SWEEPS):
        contrib = prob * v[succ]
        q = cost + np.add.reduceat(contrib, row_starts)
        v_new = q.reshape(n, na).min(axis=1)
        finite = np.isfinite(v_new) & np.isfinite(v)
        change = np.max(np.abs(v_new[finite] - v[finite]), initial=0.0)
        v = v_new
        if change < tol:
            return MdpValues(v=v, q=q.reshape(n, na))
    raise DivergenceError(f"MDP value iteration did not converge in {MAX_SWEEPS} sweeps")


def solve_fib(model: ConcretePomdp, tol: float = 1e-9) -> FibVectors:
    """Iterate the observation-aware value vectors from zero to a fixed point.

    alpha'[a](s) = C(s,a) + sum_z min_a' sum_{s': O(s')=z} T(s'|s,a) alpha[a'](s')
    """
    n, na = model.num_states, model.num_actions
    succ, prob, group_starts, row_group_starts = _by_observation(model)
    alpha = np.zeros((na, n))
    alpha[:, _improper_states(model)] = np.inf
    for _ in range(MAX_SWEEPS):
        contrib = prob[:, None] * alpha[:, succ].T  # (E, A)
        per_group = np.add.reduceat(contrib, group_starts, axis=0)
        group_min = per_group.min(axis=1)  # min over next action, one per (s,a,z)
        backup = np.add.reduceat(group_min, row_group_starts)
        alpha_new = (model.edges.cost + backup).reshape(n, na).T
        finite = np.isfinite(alpha_new) & np.isfinite(alpha)
        change = np.max(np.abs(alpha_new[finite] - alpha[finite]), initial=0.0)
        alpha = alpha_new
        if change < tol:
            return FibVectors(alpha=alpha)
    raise DivergenceError(f"FIB iteration did not converge in {MAX_SWEEPS} sweeps")


def supervision_policy(q_values: np.ndarray) -> np.ndarray:
    """Point distribution on the cheapest action; ties go to the lowest index.

    ``q_values`` holds the actions along its last axis, one belief per row.
    """
    mu = np.zeros_like(q_values, dtype=np.float64)
    np.put_along_axis(mu, np.argmin(q_values, axis=-1)[..., None], 1.0, axis=-1)
    return mu
