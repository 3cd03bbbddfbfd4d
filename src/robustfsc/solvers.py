"""Fast belief-value bounds for concrete POMDP instances, and ``ChainSolver``.

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
from functools import partial
from types import SimpleNamespace

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix
from scipy.sparse.csgraph import dijkstra, reverse_cuthill_mckee
from scipy.sparse.linalg import SuperLU, spilu, splu

from robustfsc.model import Belief, ConcretePomdp, DivergenceError

MAX_SWEEPS = 200_000  # sweep budget of each bound
STAGNATION_STEPS = 4  # BiCGSTAB steps in a row that may leave its best residual where it was
EXACT_BELOW = 500  # transient states below which a chain's first member is factored exactly, not by an ILU


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


class ChainSolver:
    """Certified values v = c + P v of absorbing chains on one pattern of P over their transient
    states, solved in turn under one kept factorization (Saad 2003): robust evaluation's kernel.

    Built from each edge's (row, col), rows ascending, one edge per pair; I - P is assembled once as
    ``(identity - P).tocsc()`` would be, a self-loop's 1 - p on the diagonal.  BiCGSTAB runs preconditioned by
    the kept factorization from the guess (``_bicgstab``), or with none, on a chain of at least ``EXACT_BELOW``
    transient states, under the chain's ILU M from M^-1 c; a smaller chain is factored exactly at once, the
    standard split of direct and incomplete factorization by size (Saad 2003, ch. 10).  On 20 grid chains in
    both modes, exact first was faster on every chain of at most 481 states (by 3-33%), and the ILU on every
    one of 536 or more (by 4% to 8x).
    M is factored in reverse Cuthill-McKee order, natural column order, at drop tolerance 3e-2: SuperLU's ILU
    pays per column, and a narrow band makes columns cheap and keeps dropped fill near the diagonal (Cuthill &
    McKee 1969; Benzi, Szyld & van Duin 1999).  Its answer x is kept if its bound is at most 1e-10 * max(1,
    max x); otherwise, or on a zero pivot of the ILU, the chain is factored exactly.  Costs are nonnegative,
    so an exact solve that is singular, negative or not finite reads +inf.

    The bound (``_error_bound``; max norms, P's float64 entries read as exact): A = I - P is a
    nonsingular M-matrix, so A^-1 >= 0 and v = A^-1 c >= c_min t, t = A^-1 1: ||A^-1|| = ||t||
    <= ||v|| / c_min.  With r = c - A x, e = ||v - x|| <= (||x|| + e) ||r|| / c_min, so e <=
    ||r|| ||x|| / (c_min - ||r||) if c_min > ||r||, else +inf; ||r|| is taken in extended
    precision, plus a bound on its rounding.  A kept x is positive: |v - x| = |A^-1 r| <= ||r|| t
    < c_min t <= v entrywise.  (Were A singular, a closed class would force ||r|| >= c_min.)

    ``sweeps`` counts the solves, ``factorizations`` those that factored, ``incomplete`` those
    whose answer and factorization are an ILU's, ``krylov_steps`` the BiCGSTAB steps.
    """

    def __init__(self, size: int, rows: np.ndarray, cols: np.ndarray) -> None:
        loop = rows == cols
        keys = np.concatenate([np.arange(size) * (size + 1), (cols * size + rows)[~loop]])  # col * size + row
        to_csc = np.argsort(keys)
        self._slot = np.argsort(to_csc)[np.where(loop, rows, size + np.cumsum(~loop) - 1)]
        self._diagonal = (to_csc < size) * 1.0
        self._matrix = csc_matrix((self._diagonal, keys[to_csc] % size,
                                   np.searchsorted(keys[to_csc], np.arange(size + 1) * size)), shape=(size, size))
        self._cols, self._indptr = cols, np.searchsorted(rows, np.arange(size + 1))
        self.sweeps = self.factorizations = self.incomplete = self.krylov_steps = 0
        self.lu, self.error_bound = None, 0.0  # the kept factorization, the last solve's bound

    def matrices(self, p: np.ndarray) -> tuple[csr_matrix, csc_matrix]:
        """P (CSR) and I - P (CSC) at the edge probabilities ``p``; the next call refills I - P."""
        self._matrix.data = self._diagonal.copy()
        self._matrix.data[self._slot] -= p
        return csr_matrix((p, self._cols, self._indptr), shape=self._matrix.shape), self._matrix

    def solve(self, p: np.ndarray, cost: np.ndarray, guess: np.ndarray | None) -> np.ndarray:
        """The values of the chain with edge probabilities ``p`` and costs ``cost``."""
        member, matrix = self.matrices(p)
        self.sweeps += 1
        fresh = self.lu is None
        if fresh and len(cost) >= EXACT_BELOW:
            try:
                self.lu = _incomplete_lu(matrix)
                guess = self.lu.solve(cost)
            except RuntimeError:  # a zero pivot
                pass
        if self.lu is not None:
            x, steps = _bicgstab(matrix, self.lu, cost, guess)
            self.krylov_steps += steps
            self.error_bound = _error_bound(member, cost, x)
            if self.error_bound <= 1e-10 * max(1.0, float(x.max())):
                self.factorizations += fresh
                self.incomplete += fresh
                return x
        self.factorizations += 1
        try:
            self.lu = _exact_lu(matrix)
            x = self.lu.solve(cost)
        except RuntimeError:  # the factor is exactly singular
            x = np.full(len(cost), np.nan)
        if not np.all(np.isfinite(x) & (x >= 0.0)):
            self.lu, self.error_bound = None, np.inf
            return np.full(len(cost), np.inf)
        self.error_bound = _error_bound(member, cost, x)
        return x


# ILU in reverse Cuthill-McKee order (Cuthill & McKee 1969), natural column order within it, drop tolerance 3e-2:
# SuperLU's ILU pays per column, and on the narrow band columns are cheap and what is dropped lies near the diagonal,
# so the looser tolerance still preconditions well (Benzi, Szyld & van Duin 1999).
def _incomplete_lu(matrix: csc_matrix) -> SimpleNamespace:
    order = reverse_cuthill_mckee(matrix, symmetric_mode=False)
    lu = spilu(matrix[order][:, order], drop_tol=3e-2, fill_factor=5, permc_spec="NATURAL", diag_pivot_thresh=0.0,
               options={"SymmetricMode": True})
    inverse = np.argsort(order)  # so that solve answers in the matrix's own order
    return SimpleNamespace(solve=lambda b: lu.solve(b[order])[inverse])


# no pivoting in either factorization: stable on I - P, a diagonally dominant M-matrix, whatever the ordering
_exact_lu = partial(splu, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})


def _bicgstab(matrix: csc_matrix, lu: SuperLU, b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Best iterate of BiCGSTAB (van der Vorst 1992) on matrix @ x = b from ``x``, right-preconditioned
    with ``lu``, and the steps taken.  It stops once the best residual max |b - matrix @ x| is at most
    2 eps (max |b| + 2 max |x|), twice what rounding x to float64 leaves (matrix = I - P, P's rows sum
    to at most 1).  The residual is not monotone, so it also stops when ``STAGNATION_STEPS`` steps in a
    row lower it not at all.  An exact preconditioner zeroes the half-step residual s; omega = 0 then
    keeps the half step where the textbook step is 0/0."""
    r = b - matrix @ x
    best, least, shadow, p, v = x, np.max(np.abs(r)), r, 0.0, 0.0
    rho = alpha = omega = 1.0
    steps = misses = 0
    floor, b_max = 2 * np.finfo(float).eps, np.max(np.abs(b))
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while misses < STAGNATION_STEPS and least > floor * (b_max + 2 * np.max(np.abs(best))):
            steps += 1
            rho_prev, rho = rho, shadow @ r
            p = r + (rho / rho_prev) * (alpha / omega) * (p - omega * v)
            p_hat = lu.solve(p)
            v = matrix @ p_hat
            alpha = rho / (shadow @ v)
            s = r - alpha * v
            s_hat = lu.solve(s)
            t = matrix @ s_hat
            omega = (t @ s) / tt if (tt := t @ t) else 0.0
            x = x + alpha * p_hat + omega * s_hat
            r = s - omega * t
            residual = np.max(np.abs(b - matrix @ x))
            best, least, misses = (x, residual, 0) if residual < least else (best, least, misses + 1)
    return best, steps


def _error_bound(member: csr_matrix, cost: np.ndarray, x: np.ndarray) -> float:
    """Certified bound on max |x - v| for v = cost + member @ v (see ``ChainSolver``)."""
    x_max, c_min = np.max(np.abs(x)), np.min(cost)
    # the residual plus a bound on its rounding; member's row sums stay below 2
    extended = csr_matrix((member.data.astype(np.longdouble), member.indices, member.indptr), shape=member.shape)
    residual = np.max(np.abs(extended @ x - x + cost)) + (
        np.diff(member.indptr).max(initial=0) + 3) * np.finfo(np.longdouble).eps * (np.max(cost) + 3 * x_max)
    return float(residual * x_max / (c_min - residual) * (1 + np.finfo(float).eps)) if c_min > residual else np.inf


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

