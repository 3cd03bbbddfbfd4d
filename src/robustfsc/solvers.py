"""Fast belief-value bounds for concrete POMDP instances.

Both solvers run Jacobi sweeps over a flattened edge list of the sparse
transition structure, so results do not depend on state enumeration order.
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
    """Value iteration exceeded its cap or iteration budget."""


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


@dataclass
class _Edges:
    """Transitions flattened in sorted (s, a, obs(s'), s') order."""

    succ: np.ndarray          # (E,) successor state per edge
    prob: np.ndarray          # (E,)
    sa_offsets: np.ndarray    # (S*A + 1,) edge run per flat (s, a)
    cost: np.ndarray          # (S*A,)
    group_offsets: np.ndarray  # (G + 1,) edge run per (s, a, z) group
    sa_group_offsets: np.ndarray  # (S*A + 1,) group run per flat (s, a)


def _flatten(model: ConcretePomdp) -> _Edges:
    n, na = model.num_states, model.num_actions
    succ: list[int] = []
    prob: list[float] = []
    sa_offsets = [0]
    group_offsets = [0]
    sa_group_offsets = [0]
    cost = np.zeros(n * na)
    obs = model.obs_of
    for s in range(n):
        for a in range(na):
            row = model.row(s, a)
            if not row:
                raise ValueError(f"state {s} action {a} has no transitions")
            cost[s * na + a] = model.cost[(s, a)]
            by_obs = sorted(row.items(), key=lambda kv: (int(obs[kv[0]]), kv[0]))
            prev_z = None
            for sp, p in by_obs:
                z = int(obs[sp])
                if z != prev_z:
                    if prev_z is not None:
                        group_offsets.append(len(succ))
                    prev_z = z
                succ.append(sp)
                prob.append(p)
            group_offsets.append(len(succ))
            sa_offsets.append(len(succ))
            sa_group_offsets.append(len(group_offsets) - 1)
    return _Edges(
        succ=np.asarray(succ, dtype=np.int64),
        prob=np.asarray(prob, dtype=np.float64),
        sa_offsets=np.asarray(sa_offsets, dtype=np.int64),
        cost=cost,
        group_offsets=np.asarray(group_offsets, dtype=np.int64),
        sa_group_offsets=np.asarray(sa_group_offsets, dtype=np.int64),
    )


def _backward_closure(reverse: csr_matrix, seeds: np.ndarray) -> np.ndarray:
    """States with a path into ``seeds`` (included), given the reversed graph."""
    if not seeds.any():
        return seeds.copy()
    dist = dijkstra(reverse, indices=np.flatnonzero(seeds), unweighted=True, min_only=True)
    return np.isfinite(dist)


def _improper_states(model: ConcretePomdp, edges: _Edges) -> np.ndarray:
    """States from which no action sequence reaches a goal with positive prob."""
    n, na = model.num_states, model.num_actions
    preds = np.repeat(np.arange(n * na) // na, np.diff(edges.sa_offsets))
    reverse = csr_matrix((np.ones(len(preds)), (edges.succ, preds)), shape=(n, n))
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
    edges = _flatten(model)
    v = np.zeros(n)
    v[_improper_states(model, edges)] = np.inf
    for _ in range(max_iters):
        contrib = edges.prob * v[edges.succ]
        q = edges.cost + np.add.reduceat(contrib, edges.sa_offsets[:-1])
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
    edges = _flatten(model)
    alpha = np.zeros((na, n))
    alpha[:, _improper_states(model, edges)] = np.inf
    for _ in range(max_iters):
        contrib = edges.prob[:, None] * alpha[:, edges.succ].T  # (E, A)
        per_group = np.add.reduceat(contrib, edges.group_offsets[:-1], axis=0)
        group_min = per_group.min(axis=1)  # min over next action, one per (s,a,z)
        backup = np.add.reduceat(group_min, edges.sa_group_offsets[:-1])
        alpha_new = (edges.cost + backup).reshape(n, na).T
        finite = np.isfinite(alpha_new) & np.isfinite(alpha)
        change = np.max(np.abs(alpha_new[finite] - alpha[finite]), initial=0.0)
        alpha = alpha_new
        if np.any(alpha[np.isfinite(alpha)] > VALUE_CAP):
            raise DivergenceError("FIB values exceed 1e9; goal unreachable from some state")
        if change < tol:
            return FibVectors(alpha=alpha)
    raise DivergenceError(f"FIB iteration did not converge in {max_iters} sweeps")


def supervision_policy(q_values: np.ndarray) -> np.ndarray:
    """Point distribution on the cheapest action; ties go to the lowest index."""
    mu = np.zeros_like(q_values, dtype=np.float64)
    mu[int(np.argmin(q_values))] = 1.0
    return mu
