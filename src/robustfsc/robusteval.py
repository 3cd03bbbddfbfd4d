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
there are finitely many greedy members, so the loop stops on its own.  One
``solvers.ChainSolver`` solves an evaluation's member chains under its certificate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from robustfsc.model import ConcretePomdp, Fsc, RobustPomdp, edges_of_rows
from robustfsc.solvers import ChainSolver, DivergenceError, _hops_to


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
    cost: np.ndarray          # (P,)
    is_goal: np.ndarray       # (P,) bool
    init_prob: np.ndarray     # initial mass of the first len(init_prob) product states
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


def build_chain(model: RobustPomdp, fsc: Fsc) -> RobustChain:
    """Product construction restricted to states reachable from the start.

    Breadth-first one level at a time over the model's edge table, which
    numbers product states in the order a first-in first-out search first
    meets them; the rows are merged once, after the search.  A member gives a chain
    whose intervals are points.  The model's actions past the controller's
    action axis have probability zero.
    """
    if fsc.num_observations < model.num_observations:
        raise ValueError("controller does not cover the model's observations")
    if fsc.num_actions > model.num_actions:
        raise ValueError(f"controller plays {fsc.num_actions} actions, model only has {model.num_actions}")

    e = model.edges
    num_s, num_a, num_n = model.num_states, model.num_actions, fsc.num_nodes
    goal = model.is_goal
    start = np.flatnonzero(model.initial_belief)
    index = np.full(num_s * num_n, -1)  # product index of state s at node n, at s * N + n
    frontier = start * num_n + fsc.initial_node
    index[frontier] = np.arange(len(frontier))
    levels, count = [frontier], len(frontier)
    sources, rows, weights, targets = [], [], [], []  # per level: (pair, action) sources, rows, weights; edge targets
    while len(frontier):
        live = frontier[~goal[frontier // num_n]]
        s, n = np.divmod(live, num_n)
        z = model.obs_of[s]
        d = fsc.action_map[n, z]
        pair, a = np.nonzero(d)  # pair by pair, actions ascending
        row = s[pair] * num_a + a
        idx, counts = e.of_rows(row)
        target = e.succ[idx] * num_n + np.repeat(fsc.memory_map[n, z][pair], counts)
        # new product states, in the order the edges first reach them
        found, first = np.unique(target, return_index=True)
        unseen = index[found] < 0
        new = found[unseen][np.argsort(first[unseen], kind="stable")]
        index[new] = count + np.arange(len(new))
        count += len(new)
        sources.append(index[live[pair]])
        rows.append(row)
        weights.append(d[pair, a])
        targets.append(target)
        levels.append(new)
        frontier = new

    # every state but the goals was expanded, in product order: keyed by source product index and
    # successor model state, the merge runs rows in order, successors ascending, terms in expansion order
    pairs = np.concatenate(levels)
    is_goal = goal[pairs // num_n]
    row_state = np.flatnonzero(~is_goal)
    source, row, weight = np.concatenate(sources), np.concatenate(rows), np.concatenate(weights)
    term_edge, counts = e.of_rows(row)
    term_weight, term_succ = np.repeat(weight, counts), index[np.concatenate(targets)]
    keys, first, merged = np.unique(np.repeat(source, counts) * num_s + e.succ[term_edge],
                                    return_index=True, return_inverse=True)
    return RobustChain(
        fsc=fsc, pairs=pairs, cost=np.bincount(source, weight * e.cost[row], count), is_goal=is_goal,
        init_prob=model.initial_belief[start].astype(np.float64), succ=term_succ[first],
        lo=np.bincount(merged, term_weight * e.lo[term_edge], len(keys)),
        hi=np.bincount(merged, term_weight * e.hi[term_edge], len(keys)),
        offsets=np.concatenate([[0], np.cumsum(np.bincount(keys // num_s, minlength=count)[row_state])]),
        row_state=row_state, term_edge=term_edge, term_weight=term_weight, term_succ=term_succ)


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

    The counts are ``ChainSolver``'s over the member solves.  ``error_bound`` bounds max |values - v|,
    v the exact values of the last member solved, as ``ChainSolver``'s docstring derives.
    """

    chain: RobustChain
    values: np.ndarray
    at_initial: float
    sweeps: int
    factorizations: int
    incomplete: int
    krylov_steps: int
    error_bound: float
    diagnosis: str = ""


def _infinite_set(chain: RobustChain) -> tuple[np.ndarray, np.ndarray]:
    """States whose worst/best case cost is infinite, and each state's hop distance to a goal.

    A state that cannot reach a goal through the support graph never terminates; because
    every stored edge has a positive lower bound, any state that can reach such a state hits
    it with positive probability under every resolution of the intervals, in both modes.
    """
    hops_to = _hops_to(np.repeat(chain.row_state, np.diff(chain.offsets)), chain.succ, chain.num_states)
    hops = hops_to(chain.is_goal)
    return np.isfinite(hops_to(np.isinf(hops))), hops


def robust_value_iteration(chain: RobustChain, mode: str = "pessimistic", tol: float = 1e-6) -> RobustValues:
    """Exact fixed point of v <- cost + inner opt over each interval row.

    Nature policy iteration over static members: start from the greedy member at each
    state's hop distance to a goal (far successors first in pessimistic mode, near ones in
    optimistic), solve that member's chain with one ``ChainSolver``, and re-run the greedy at
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
    edges, counts = edges_of_rows(chain.offsets, rows)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    succ, lo, hi = chain.succ[edges], chain.lo[edges], chain.hi[edges]

    # P over the transient states: its edges are those between transient states
    size = len(states)
    tpos = np.full(chain.num_states, -1)
    tpos[states] = np.arange(size)
    inner = tpos[succ] >= 0
    solver = ChainSolver(size, np.repeat(np.arange(size), counts)[inner], tpos[succ[inner]])
    cost = chain.cost[states]

    def greedy(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:  # the greedy member at values x
        return _box_simplex_fill(x[succ], lo, hi, offsets, _rank_order(x, chain.pairs, succ, offsets, maximize))

    seen: set[bytes] = set()
    _, p = greedy(hops)
    while size:
        # a bug guard: strict improvement never returns to an earlier member
        key = p.tobytes()
        if key in seen:
            raise DivergenceError("robust policy iteration revisited a member")
        seen.add(key)
        v[states] = solver.solve(p[inner], cost, v[states])
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

    return RobustValues(
        chain=chain, values=v, at_initial=float(chain.init_prob @ v[:len(chain.init_prob)]),
        sweeps=solver.sweeps, factorizations=solver.factorizations, incomplete=solver.incomplete,
        krylov_steps=solver.krylov_steps, error_bound=solver.error_bound, diagnosis=diagnosis)


def evaluate_member(member: ConcretePomdp, fsc: Fsc) -> float:
    """Expected cost of the controller on one concrete instance."""
    return robust_value_iteration(build_chain(member, fsc)).at_initial
