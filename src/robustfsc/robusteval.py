"""Exact robust evaluation of a controller on the product chain.

The product of model states and controller nodes is an interval-weighted
Markov chain; its worst-case (or best-case) expected cost to the goal set is
the fixed point of v <- cost + inner opt, whose inner step maximizes
(minimizes) the expected successor value over a box-constrained simplex.
That inner problem is solved exactly by a greedy fill: start every
probability at its lower bound and pour the remaining budget into
coordinates in value order.  One segmented greedy solves every row at once.

Under interval (rectangular) uncertainty the worst case is attained by a
static member, so the fixed point is found by nature policy iteration: fix
the greedy member (first at the hop distance to a goal), solve that member
chain's linear system, and switch rows to the greedy member at the solved
values until no row improves.  Each switch strictly improves the values and
there are finitely many greedy members, so the loop stops on its own.  Each
evaluation factors one member, by LU without pivoting (I - P is a diagonally
dominant M-matrix), and preconditions BiCGSTAB with it for the later ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, identity
from scipy.sparse.linalg import SuperLU, splu

from robustfsc.model import ConcretePomdp, Fsc, RobustPomdp
from robustfsc.solvers import DivergenceError, _hops_to


@dataclass
class RobustChain:
    """Reachable product states with interval-weighted successor lists.

    Product states are materialized breadth-first from the support of the
    initial distribution; goal-product states are terminal (no successors,
    zero cost).  Successor weights merge all actions: the interval
    [sum_a delta(a) lo_a(s'), sum_a delta(a) hi_a(s')] per successor.  Their
    terms are kept in the order they were expanded (level by level, state by
    state, actions ascending, successors ascending).
    """

    fsc: Fsc                  # the controller the chain expands
    pairs: np.ndarray         # (P,) s * N + n of each product state
    index: np.ndarray         # (S*N,) product index of s * N + n, -1 if unreached
    cost: np.ndarray          # (P,)
    is_goal: np.ndarray       # (P,) bool
    init_idx: np.ndarray      # product indices with initial mass
    init_prob: np.ndarray
    succ: np.ndarray          # (E,) successor product index
    lo: np.ndarray            # (E,)
    hi: np.ndarray            # (E,)
    offsets: np.ndarray       # (T+1,) edge runs per non-terminal state
    row_state: np.ndarray     # (T,) product index per non-terminal row
    term_edge: np.ndarray     # (K,) model edge of each term
    term_weight: np.ndarray   # (K,) action probability of each term
    term_succ: np.ndarray     # (K,) successor product index of each term

    @property
    def num_states(self) -> int:
        return len(self.pairs)

    def state_index(self, s: int, n: int) -> int:
        """Product index of state ``s`` at node ``n``; KeyError if never reached."""
        flat = s * self.fsc.num_nodes + n
        if not (0 <= n < self.fsc.num_nodes and 0 <= flat < len(self.index) and self.index[flat] >= 0):
            raise KeyError((s, n))
        return int(self.index[flat])


def build_chain(model: RobustPomdp | ConcretePomdp, fsc: Fsc) -> RobustChain:
    """Product construction restricted to states reachable from the start.

    Breadth-first one level at a time over the model's edge table; a member
    gives a chain whose intervals are points.  Product states are numbered
    in the order a first-in first-out search discovers them.
    """
    if fsc.num_observations < model.num_observations:
        raise ValueError("controller does not cover the model's observations")
    if fsc.num_actions != model.num_actions:
        raise ValueError("controller and model disagree on the action count")

    e = model.edges
    num_s, num_a, num_n = model.num_states, model.num_actions, fsc.num_nodes
    goal = np.zeros(num_s, dtype=bool)
    goal[list(model.goals)] = True
    start = np.flatnonzero(model.initial_belief)
    index = np.full(num_s * num_n, -1)  # product index of state s at node n, at s * N + n
    frontier = start * num_n + fsc.initial_node
    index[frontier] = np.arange(len(frontier))
    levels = [frontier]
    count = len(frontier)
    parts: list[tuple[np.ndarray, ...]] = []  # per level: rows' states, costs, edge counts, edges, terms
    while len(frontier):
        live = frontier[~goal[frontier // num_n]]
        s, n = np.divmod(live, num_n)
        z = model.obs_of[s]
        n_next = fsc.memory_map[n, z]
        d = fsc.action_map[n, z]
        pair, a = np.nonzero(d)  # pair by pair, actions ascending
        weight = d[pair, a]
        rows = s[pair] * num_a + a
        idx, counts = e.of_rows(rows)
        edge_pair = np.repeat(pair, counts)
        edge_weight = np.repeat(weight, counts)
        target = e.succ[idx] * num_n + n_next[edge_pair]
        # new product states, in the order the edges first reach them
        found, first = np.unique(target, return_index=True)
        unseen = index[found] < 0
        new = found[unseen][np.argsort(first[unseen], kind="stable")]
        index[new] = count + np.arange(len(new))
        count += len(new)
        # one merged edge per (pair, successor), successors ascending
        keys, merged = np.unique(edge_pair * num_s + e.succ[idx], return_inverse=True)
        row_of = keys // num_s
        parts.append((
            index[live],
            np.bincount(pair, weight * e.cost[rows], len(live)),
            np.bincount(row_of, minlength=len(live)),
            index[(keys % num_s) * num_n + n_next[row_of]],
            np.bincount(merged, edge_weight * e.lo[idx], len(keys)),
            np.bincount(merged, edge_weight * e.hi[idx], len(keys)),
            idx,
            edge_weight,
            index[target],
        ))
        levels.append(new)
        frontier = new

    pairs = np.concatenate(levels)
    (row_state, row_cost, counts, succ, lo, hi,
     term_edge, term_weight, term_succ) = (np.concatenate(arrays) for arrays in zip(*parts))
    cost = np.zeros(count)
    cost[row_state] = row_cost
    return RobustChain(
        fsc=fsc,
        pairs=pairs,
        index=index,
        cost=cost,
        is_goal=goal[pairs // num_n],
        init_idx=np.arange(len(start)),
        init_prob=model.initial_belief[start].astype(np.float64),
        succ=succ,
        lo=lo,
        hi=hi,
        offsets=np.concatenate([[0], np.cumsum(counts)]),
        row_state=row_state,
        term_edge=term_edge,
        term_weight=term_weight,
        term_succ=term_succ,
    )


def box_simplex_greedy(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, offsets: np.ndarray,
                       maximize: bool) -> tuple[np.ndarray, np.ndarray]:
    """Optimize sum_i p_i values_i over the box-constrained simplex of every row.

    Row r owns the edges offsets[r]:offsets[r + 1] of the concatenated edge
    arrays and needs at least one.  Greedy fill per row: start each p_i at its
    lower bound, then raise coordinates to their upper bounds in order of
    decreasing (maximize) or increasing value, ties to the lowest index,
    until the row total reaches one.  Returns the per-row objective and the
    optimal probabilities per edge.  Boxes that miss the simplex are not
    detected here; ``check_boxes`` rejects them.
    """
    counts = np.diff(offsets)
    if np.any(counts <= 0):
        raise ValueError("every row needs at least one successor")
    order = np.lexsort((-values if maximize else values, np.repeat(np.arange(len(counts)), counts)))
    return _box_simplex_fill(values, lo, hi, offsets, order)


def _box_simplex_fill(values: np.ndarray, lo: np.ndarray, hi: np.ndarray, offsets: np.ndarray,
                      order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``box_simplex_greedy``'s fill, raising each row's edges (a run of their own) in ``order``."""
    counts, starts = np.diff(offsets), offsets[:-1]
    slack = (hi - lo)[order]
    excl = np.cumsum(slack) - slack
    cum_before = excl - np.repeat(excl[starts], counts)
    budget = 1.0 - np.add.reduceat(lo, starts)
    alloc = np.clip(np.repeat(budget, counts) - cum_before, 0.0, slack)
    p = np.empty(len(order))
    p[order] = lo[order] + alloc
    return np.add.reduceat(p * values, starts), p


def _rank_order(values: np.ndarray, pairs: np.ndarray, succ: np.ndarray, offsets: np.ndarray,
               maximize: bool) -> np.ndarray:
    """``box_simplex_greedy``'s order of a chain's edges: one integer argsort of row * P + the rank of
    the successor by (-value or value, pair).  A row's successors share one next node, so its edges
    come in pair order and the rank breaks ties as the lexsort's stable order does."""
    rank = np.empty(len(values), dtype=np.int64)
    rank[np.lexsort((pairs, -values if maximize else values))] = np.arange(len(values))
    return np.argsort(np.repeat(np.arange(len(offsets) - 1) * len(values), np.diff(offsets)) + rank[succ])


@dataclass
class RobustValues:
    """Exact robust values plus the chain they were computed on.

    ``sweeps`` counts the member solves (one per member evaluated), ``factorizations``
    the sparse LU factorizations among them and ``krylov_steps`` all BiCGSTAB steps.
    ``error_bound`` bounds max |values - v|, v the exact values of the last member solved
    (its float64 probabilities read as exact).  A = I - P over its transient states is a
    nonsingular M-matrix, so v = A^-1 c >= c_min A^-1 1 and ||A^-1|| <= ||v|| / c_min (max
    norms).  With r = c - A x, e = ||v - x|| = ||A^-1 r|| <= (||x|| + e) ||r|| / c_min, so
    e <= ||r|| ||x|| / (c_min - ||r||) if c_min > ||r||, else +inf; ||r|| is taken in
    extended precision, plus a bound on its rounding.
    """

    chain: RobustChain
    values: np.ndarray
    at_initial: float
    mode: str
    sweeps: int
    factorizations: int
    krylov_steps: int
    error_bound: float
    diagnosis: str = ""

    def value_of(self, s: int, n: int) -> float:
        return float(self.values[self.chain.state_index(s, n)])


def _infinite_set(chain: RobustChain) -> tuple[np.ndarray, np.ndarray]:
    """States whose worst/best case cost is infinite, and each state's hop distance to a goal.

    A state that cannot reach a goal through the support graph never terminates; because
    every stored edge has a positive lower bound, any state that can reach such a state hits
    it with positive probability under every resolution of the intervals, in both modes.
    """
    preds = np.repeat(chain.row_state, np.diff(chain.offsets))
    reverse = csr_matrix((np.ones(len(preds)), (chain.succ, preds)), shape=(chain.num_states,) * 2)
    hops = _hops_to(reverse, chain.is_goal)
    return np.isfinite(_hops_to(reverse, np.isinf(hops))), hops


def _member_matrices(size: int, rows: np.ndarray, cols: np.ndarray):
    """A function giving P (CSR) and I - P (CSC) over ``size`` states from the probabilities of the
    edges (rows ascending, cols), one per (row, col).  I - P is assembled once as ``(identity -
    P).tocsc()`` would be, a self-loop's 1 - p on the diagonal; each call refills its data."""
    loop = rows == cols
    keys = np.concatenate([np.arange(size) * (size + 1), (cols * size + rows)[~loop]])  # col * size + row
    to_csc = np.argsort(keys)
    edge_slot = np.argsort(to_csc)[np.where(loop, rows, size + np.cumsum(~loop) - 1)]
    diagonal = (to_csc < size) * 1.0
    matrix = csc_matrix((diagonal, keys[to_csc] % size, np.searchsorted(keys[to_csc], np.arange(size + 1) * size)),
                        shape=(size, size))
    indptr = np.searchsorted(rows, np.arange(size + 1))

    def fill(p: np.ndarray) -> tuple[csr_matrix, csc_matrix]:
        matrix.data = diagonal.copy()
        matrix.data[edge_slot] -= p
        return csr_matrix((p, cols, indptr), shape=(size, size)), matrix

    return fill


def _bicgstab(matrix: csc_matrix, lu: SuperLU, b: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Best iterate of BiCGSTAB (van der Vorst 1992) on matrix @ x = b from ``x``, right-preconditioned
    with ``lu``, and the steps taken.  Its residual max |b - matrix @ x| is not monotone, so it runs
    until two steps in a row lower no residual, or one reaches zero.  An exact preconditioner zeroes
    the half-step residual s; omega = 0 then keeps the half step where the textbook step is 0/0."""
    r = b - matrix @ x
    best, least, shadow, p, v = x, np.max(np.abs(r)), r, 0.0, 0.0
    rho = alpha = omega = 1.0
    steps = misses = 0
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        while misses < 2 and least > 0.0:
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


def solve_member(member: csr_matrix, cost: np.ndarray, lu: SuperLU | None = None,
                 guess: np.ndarray | None = None) -> tuple[np.ndarray, SuperLU | None, float, bool]:
    """Values v = cost + member @ v of a member chain; ``member`` is P over its transient states.

    Given the factorization ``lu`` of an earlier member, BiCGSTAB preconditioned with it runs from
    ``guess`` (see ``_bicgstab``); its best iterate is kept if its error bound (see ``RobustValues``)
    is at most 1e-10 * max(1, max v), else the member is factored.  Returns the values, the
    factorization for the next member, the bound and whether this call factored.  Costs are
    nonnegative, so a direct solve that is singular, negative or not finite reads +inf.
    """
    return _solve_member(member, (identity(len(cost), format="csr") - member).tocsc(), cost, lu, guess)[:4]


def _solve_member(member: csr_matrix, matrix: csc_matrix, cost: np.ndarray, lu: SuperLU | None,
                  guess: np.ndarray | None) -> tuple[np.ndarray, SuperLU | None, float, bool, int]:
    """``solve_member`` given ``matrix`` = I - member in CSC; also returns the BiCGSTAB steps."""
    steps = 0
    if lu is not None:
        x, steps = _bicgstab(matrix, lu, cost, guess)
        bound = _error_bound(member, cost, x)
        if x.min() >= 0.0 and bound <= 1e-10 * max(1.0, float(x.max())):
            return x, lu, bound, False, steps
    try:
        # I - P is a row diagonally dominant M-matrix: LU without pivoting is
        # stable on it, so the ordering may follow the symmetric pattern alone
        lu = splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True})
        x = lu.solve(cost)
    except RuntimeError:  # the factor is exactly singular
        x = np.full(len(cost), np.nan)
    if not np.all(np.isfinite(x) & (x >= 0.0)):
        return np.full(len(cost), np.inf), None, np.inf, True, steps
    return x, lu, _error_bound(member, cost, x), True, steps


def _error_bound(member: csr_matrix, cost: np.ndarray, x: np.ndarray) -> float:
    """Certified bound on max |x - v| for v = cost + member @ v (see ``RobustValues``)."""
    x_max, c_min = np.max(np.abs(x)), np.min(cost)
    # the residual plus a bound on its rounding; member's row sums stay below 2
    residual = np.max(np.abs(member.astype(np.longdouble) @ x - x + cost)) + (
        np.diff(member.indptr).max(initial=0) + 3) * np.finfo(np.longdouble).eps * (np.max(cost) + 3 * x_max)
    return float(residual * x_max / (c_min - residual) * (1 + np.finfo(float).eps)) if c_min > residual else np.inf


def robust_value_iteration(chain: RobustChain, mode: str = "pessimistic", tol: float = 1e-6) -> RobustValues:
    """Exact fixed point of v <- cost + inner opt over each interval row.

    Nature policy iteration over static members: start from the greedy member at each
    state's hop distance to a goal (far successors first in pessimistic mode, near ones in
    optimistic), solve that member's chain with ``solve_member``, and re-run the greedy at
    the solved values.  A row switches to the greedy member only when that improves its
    objective by more than 1e-12 * max(1, max |v|); on ties it keeps its current member
    (Howard's rule), so every switch strictly improves v and the loop stops when no row
    switches.  ``tol`` is kept only because ``perfbench`` passes it; the result does not
    depend on it.  States with an infinite worst case (goal unreachable through the support
    graph) read +inf with a diagnosis rather than an error, as do all states of a member
    chain that is singular in float64 because the goal is reached only through
    probabilities below its resolution (say a saturated softmax giving the only exit
    action 1e-25).
    """
    if mode not in ("pessimistic", "optimistic"):
        raise ValueError(f"mode must be 'pessimistic' or 'optimistic', got {mode!r}")
    maximize = mode == "pessimistic"
    infinite, hops = _infinite_set(chain)
    diagnosis = (f"{int(infinite.sum())} reachable product state(s) cannot reach a goal under the support "
                 "graph; worst-case cost is infinite") if infinite.any() else ""
    v = np.zeros(chain.num_states)
    v[infinite] = np.inf

    # edge arrays of the finite rows; their successors are finite too
    rows = np.flatnonzero(~infinite[chain.row_state])
    states = chain.row_state[rows]
    counts = chain.offsets[rows + 1] - chain.offsets[rows]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    edges = np.repeat(chain.offsets[rows] - offsets[:-1], counts) + np.arange(offsets[-1])
    succ, lo, hi = chain.succ[edges], chain.lo[edges], chain.hi[edges]

    # P over the transient states: its edges are those between transient states
    size = len(states)
    tpos = np.full(chain.num_states, -1)
    tpos[states] = np.arange(size)
    inner = tpos[succ] >= 0
    fill = _member_matrices(size, np.repeat(np.arange(size), counts)[inner], tpos[succ[inner]])
    cost = chain.cost[states]

    def greedy(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # the greedy member at values x
        return _box_simplex_fill(x[succ], lo, hi, offsets, _rank_order(x, chain.pairs, succ, offsets, maximize))

    solves, factorizations, krylov_steps, lu, bound = 0, 0, 0, None, 0.0
    seen: set[bytes] = set()
    _, p = greedy(hops)
    while size:
        # a bug guard: strict improvement never returns to an earlier member
        key = p.tobytes()
        if key in seen:
            raise DivergenceError("robust policy iteration revisited a member")
        seen.add(key)
        solves += 1
        v[states], lu, bound, factored, steps = _solve_member(*fill(p[inner]), cost, lu, v[states])
        factorizations += factored
        krylov_steps += steps
        if np.isinf(v[states]).any():
            singular = (f"{size} product state(s) reach a goal only through probabilities below float64 "
                        "resolution (the member solve is singular); their cost is reported as infinite")
            diagnosis = f"{diagnosis}; {singular}" if diagnosis else singular
            break
        objective, greedy_p = greedy(v)
        current = np.add.reduceat(p * v[succ], offsets[:-1])
        gain = objective - current if maximize else current - objective
        switch = gain > 1e-12 * max(1.0, float(np.max(np.abs(v[states]))))
        if not switch.any():
            break
        p = np.where(np.repeat(switch, counts), greedy_p, p)

    at_init = float(chain.init_prob @ v[chain.init_idx])
    return RobustValues(
        chain=chain, values=v, at_initial=at_init, mode=mode, sweeps=solves,
        factorizations=factorizations, krylov_steps=krylov_steps, error_bound=bound, diagnosis=diagnosis,
    )


def evaluate_member(member: ConcretePomdp, fsc: Fsc) -> float:
    """Expected cost of the controller on one concrete instance."""
    return robust_value_iteration(build_chain(member, fsc)).at_initial
