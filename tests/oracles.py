"""Independent oracles used to verify the library's numerical paths.

Everything here is written against the math definitions directly, avoiding
the library's own algorithms: candidate-vertex enumeration for box-simplex
linear programs, dense linear solves for Markov-chain expected costs,
exhaustive policy enumeration for small MDPs, a scalar re-implementation
of the recurrent cell, the row-by-row member builder, the step-by-step
network loops (controller synthesis, fidelity) that the batched extraction
replaced, the per-episode rollout loop that lockstep simulation replaced,
the per-step backpropagation through time that whole-sequence BPTT replaced
(with its own policy head), the bottleneck's reconstruction gradient
accumulated into a zeroed container as before gradients were written,
the second product expansion the worst-case adversary read its weights from
before the evaluated chain kept its terms, the product chain built one state
at a time by a first-in first-out search, robust policy iteration with one
direct sparse solve per member as it was before factorizations were reused,
the supervision backups as they were before they took their action
minimum column by column (FIB's per next action over every edge),
an exact rational solve of a member chain, Grassmann-Taksar-Heyman
elimination of a member chain, central finite differences for
the hand-written backward passes, the model's load path as it was
before the edge table became a model's only storage (the line-by-line
parser, the dict walk of validation and the per-state grid generators), and
the line-by-line controller parser.  ``inner_max``/``inner_min``, one-row
wrappers of the library's greedy, ``from_rows``, the dict constructor of
models, and ``interval_rows``, its inverse on an interval model, the
one-belief ``belief_update``, the one-step ``forward`` and the
dataset ``loss`` of the network, the product-state lookups ``state_index``
and ``value_of``, ``chain_solver`` and ``solve_member`` on a bare member,
the adversary's ``proxy_objective_of`` and ``gradient_check`` live here
because only tests call them.
"""

from __future__ import annotations

import collections
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import MatrixRankWarning, spsolve

from robustfsc.grids import MOVES, SCAN, GridSpec, avoid_decode, avoid_index, pair_decode, pair_index, patrol_route
from robustfsc.model import (
    BELIEF_TOL,
    BOX_TOL,
    PROB_TOL,
    ConcretePomdp,
    Edges,
    Fsc,
    Interval,
    RobustPomdp,
    ValidationReport,
    belief_updates,
    check_boxes,
)
from robustfsc.modelio import FSC_HEADER, MAX_FSC_ENTRIES, MODEL_HEADER, ModelDocument, ModelFormatError
from robustfsc.rnn import _gru_recur, _loss_and_grad, policy_distribution
from robustfsc.robusteval import RobustChain, RobustValues, _infinite_set, box_simplex_greedy
from robustfsc.solvers import ChainSolver, DivergenceError, _by_observation, _sweep


def box_simplex_candidates(lo, hi):
    """All points of the box-simplex polytope with at most one fractional
    coordinate (the optimum of a linear objective lies on one of these)."""
    n = len(lo)
    candidates = []
    for frac in range(n):
        others = [i for i in range(n) if i != frac]
        for bits in itertools.product((0, 1), repeat=n - 1):
            p = np.empty(n)
            for i, b in zip(others, bits):
                p[i] = hi[i] if b else lo[i]
            rest = 1.0 - sum(p[i] for i in others)
            if lo[frac] - 1e-12 <= rest <= hi[frac] + 1e-12:
                p[frac] = min(max(rest, lo[frac]), hi[frac])
                candidates.append(p)
    return candidates


def box_simplex_opt(values, lo, hi, maximize=True):
    """Exact optimum of sum p_i v_i over the box-constrained simplex."""
    best = None
    for p in box_simplex_candidates(lo, hi):
        obj = float(p @ np.asarray(values))
        if best is None or (obj > best if maximize else obj < best):
            best = obj
    if best is None:
        raise ValueError("infeasible box-simplex instance")
    return best


def inner_max(values: np.ndarray, intervals: list[Interval]) -> tuple[float, np.ndarray]:
    """Maximize sum p_i values_i over one box-constrained simplex, exactly."""
    return _inner_row(values, intervals, maximize=True)


def inner_min(values: np.ndarray, intervals: list[Interval]) -> tuple[float, np.ndarray]:
    """Best-case counterpart of inner_max (budget poured into low values)."""
    return _inner_row(values, intervals, maximize=False)


def _inner_row(values: np.ndarray, intervals: list[Interval], maximize: bool) -> tuple[float, np.ndarray]:
    lo = np.array([iv.lo for iv in intervals], dtype=np.float64)
    hi = np.array([iv.hi for iv in intervals], dtype=np.float64)
    offsets = np.array([0, len(intervals)])
    check_boxes(lo, hi, offsets)
    objective, p = box_simplex_greedy(
        np.asarray(values, dtype=np.float64), lo, hi, offsets, maximize
    )
    return float(objective[0]), p


def from_rows(cls, *, transitions, cost, **fields):
    """A ``cls`` (``RobustPomdp`` or ``ConcretePomdp``) from ``(s, a) -> {s': Interval}``
    rows (a member's: {s': probability}) and ``(s, a) -> cost``; the other fields pass
    through.  Rows go to the edge table in (s, a) order, successors ascending, and a row
    without a cost gets NaN."""
    n, na = fields["num_states"], fields["num_actions"]
    keys = sorted(transitions)
    counts = np.zeros(n * na, dtype=np.int64)
    counts[[s * na + a for s, a in keys]] = [len(transitions[key]) for key in keys]
    items = [item for key in keys for item in sorted(transitions[key].items())]
    succ, values = [sp for sp, _ in items], [v for _, v in items]
    if cls is RobustPomdp:
        lo = np.array([iv.lo for iv in values], dtype=np.float64)
        hi = np.array([iv.hi for iv in values], dtype=np.float64)
    else:
        lo = hi = np.array(values, dtype=np.float64)
    costs = np.array([cost.get((s, a), np.nan) for s in range(n) for a in range(na)], dtype=np.float64)
    edges = Edges(np.concatenate([[0], np.cumsum(counts)]), np.array(succ, dtype=np.int64), lo, hi, costs)
    return cls(edges=edges, **fields)


def interval_rows(model) -> dict:
    """(s, a) -> {s': Interval} for the rows of ``model.edges`` that have
    successors, in row order, successors in edge order: the rows ``from_rows``
    reads."""
    e, rows = model.edges, {}
    bounds = e.offsets.tolist()
    for r, (start, stop) in enumerate(zip(bounds, bounds[1:])):
        if stop > start:
            rows[divmod(r, model.num_actions)] = {
                sp: Interval(lo, hi)
                for sp, lo, hi in zip(*(x[start:stop].tolist() for x in (e.succ, e.lo, e.hi)))
            }
    return rows


def belief_update(model, b, a, z):
    """Bayes update of one belief: the one-row case of ``belief_updates``."""
    return belief_updates(model, b[None, :], np.array([a]), np.array([z]))[0]


def gru_step(params, h, x):
    """One batched GRU step on the embedded inputs ``x``, each row's input
    projections x W_*^T computed here; returns the new hidden state and the
    cache (h, x, r, u, rh, hc) that ``_gru_backward_reference`` reads."""
    h_new, (r, u, rh, hc) = _gru_recur(params, h, x @ params.w_r.T, x @ params.w_u.T, x @ params.w_h.T)
    return h_new, (h, x, r, u, rh, hc)


def forward(params, hidden, z):
    """The network consumes observation ``z`` at ``hidden``: the new hidden state and
    the action distribution there."""
    h_new, _ = gru_step(params, hidden[None, :], params.emb[z][None, :])
    return h_new[0], policy_distribution(params, h_new)[0]


def loss(params, dataset) -> float:
    """Mean cross-entropy over every recorded step of the dataset; 0 on an empty one."""
    return _loss_and_grad(params, dataset.observations, dataset.actions, dataset.mask,
                          float(dataset.num_steps) or 1.0)[0]


def state_index(chain, s, n) -> int:
    """Product index of state ``s`` at node ``n``; KeyError if never reached."""
    found = np.flatnonzero(chain.pairs == s * chain.fsc.num_nodes + n) if 0 <= n < chain.fsc.num_nodes else []
    if len(found) == 0:
        raise KeyError((s, n))
    return int(found[0])


def value_of(values, s, n) -> float:
    """The robust value of state ``s`` at node ``n``; KeyError if never reached."""
    return float(values.values[state_index(values.chain, s, n)])


def chain_solver(member):
    """A ``ChainSolver`` on the pattern of ``member``, a CSR matrix P over transient states."""
    size = member.shape[0]
    return ChainSolver(size, np.repeat(np.arange(size), np.diff(member.indptr)), member.indices)


def solve_member(member, cost, lu=None, guess=None):
    """One ``ChainSolver.solve`` of P = ``member`` that starts from the factorization ``lu``: the
    values, the factorization kept, the error bound and the factorization the call made and kept
    (None, "incomplete" or "exact")."""
    solver = chain_solver(member)
    solver.lu = lu
    values = solver.solve(member.data, cost, guess)
    made = ("incomplete" if solver.incomplete else "exact") if solver.factorizations else None
    return values, solver.lu, solver.error_bound, made


def proxy_objective_of(result, member) -> float:
    """The adversary's linear proxy at any member of the set."""
    idx, _ = member.edges.of_rows(result.rows)
    return float(member.edges.lo[idx] @ result.weights)


def product_chain_cost(member, fsc) -> float:
    """Expected cumulative cost of an FSC on a concrete instance.

    Built directly from the definition: enumerate reachable (state, node)
    pairs, assemble the dense transition matrix and per-state cost, and solve
    (I - P) v = c on the non-goal pairs.
    """
    start_pairs = [(int(s), fsc.initial_node) for s in np.flatnonzero(member.initial_belief)]
    pairs = []
    index = {}
    stack = list(start_pairs)
    while stack:
        pair = stack.pop()
        if pair in index:
            continue
        index[pair] = len(pairs)
        pairs.append(pair)
        s, n = pair
        if s in member.goals:
            continue
        z = int(member.obs_of[s])
        n2 = int(fsc.memory_map[n, z])
        for a in range(member.num_actions):
            d = float(fsc.action_map[n, z, a])
            if d == 0.0:
                continue
            for sp, q in member.transitions[(s, a)].items():
                if q > 0.0:
                    stack.append((sp, n2))
    num = len(pairs)
    p_mat = np.zeros((num, num))
    c_vec = np.zeros(num)
    transient = []
    for idx, (s, n) in enumerate(pairs):
        if s in member.goals:
            continue
        transient.append(idx)
        z = int(member.obs_of[s])
        n2 = int(fsc.memory_map[n, z])
        for a in range(member.num_actions):
            d = float(fsc.action_map[n, z, a])
            if d == 0.0:
                continue
            c_vec[idx] += d * member.cost[(s, a)]
            for sp, q in member.transitions[(s, a)].items():
                p_mat[idx, index[(sp, n2)]] += d * q
    if not transient:
        return 0.0
    t = np.asarray(transient)
    v = np.zeros(num)
    v[t] = np.linalg.solve(np.eye(len(t)) - p_mat[np.ix_(t, t)], c_vec[t])
    total = 0.0
    for s in np.flatnonzero(member.initial_belief):
        total += member.initial_belief[s] * v[index[(int(s), fsc.initial_node)]]
    return float(total)


def product_chain_reference(model, fsc) -> RobustChain:
    """``robusteval.build_chain`` by a first-in first-out search, one product state at a time.

    Each state's row is a dict from model successor to its (lo, hi) sums, added action by
    action; actions of probability zero are skipped.  Terms are kept in (level, state,
    action, successor) order, and a row's merged edges run successors ascending.
    """
    e, num_a, num_n = model.edges, model.num_actions, fsc.num_nodes
    start = [int(s) for s in np.flatnonzero(model.initial_belief)]
    index = {(s, fsc.initial_node): k for k, s in enumerate(start)}
    queue = collections.deque(index)
    cost: dict[int, float] = {}
    succ, lo, hi, offsets, row_state = [], [], [], [0], []
    term_edge, term_weight, term_succ = [], [], []
    while queue:
        s, n = queue.popleft()
        if model.is_goal[s]:
            continue
        z = int(model.obs_of[s])
        n2 = int(fsc.memory_map[n, z])
        k = index[(s, n)]
        cost[k], row = 0.0, {}
        for a in range(fsc.num_actions):
            d = float(fsc.action_map[n, z, a])
            if d == 0.0:
                continue
            r = s * num_a + a
            cost[k] += d * float(e.cost[r])
            for edge in range(int(e.offsets[r]), int(e.offsets[r + 1])):
                sp = int(e.succ[edge])
                if (sp, n2) not in index:
                    index[(sp, n2)] = len(index)
                    queue.append((sp, n2))
                row_lo, row_hi = row.get(sp, (0.0, 0.0))
                row[sp] = (row_lo + d * float(e.lo[edge]), row_hi + d * float(e.hi[edge]))
                term_edge.append(edge)
                term_weight.append(d)
                term_succ.append(index[(sp, n2)])
        for sp in sorted(row):
            succ.append(index[(sp, n2)])
            lo.append(row[sp][0])
            hi.append(row[sp][1])
        offsets.append(len(succ))
        row_state.append(k)
    pairs = np.array([s * num_n + n for s, n in index], dtype=np.int64)
    costs = np.zeros(len(pairs))
    costs[list(cost)] = list(cost.values())

    def ints(x):
        return np.array(x, dtype=np.int64)

    return RobustChain(
        fsc=fsc, pairs=pairs, cost=costs, is_goal=model.is_goal[pairs // num_n],
        init_prob=model.initial_belief[start].astype(np.float64), succ=ints(succ),
        lo=np.array(lo, dtype=np.float64), hi=np.array(hi, dtype=np.float64), offsets=ints(offsets),
        row_state=ints(row_state), term_edge=ints(term_edge), term_weight=np.array(term_weight, dtype=np.float64),
        term_succ=ints(term_succ))


def product_action_rows(model, fsc):
    """The product states a controller reaches, with one row per action it plays.

    Returns the start pairs (s, initial node) over the initial belief's
    support, every reached pair (s, n) in breadth-first order over the
    support (the start pairs first), and, for each non-goal pair and each
    action with positive weight there, (pair index, weight, model row,
    successor pair indices).
    """
    e, num_a = model.edges, model.num_actions
    start = [(int(s), fsc.initial_node) for s in np.flatnonzero(model.initial_belief)]
    index = {pair: k for k, pair in enumerate(start)}
    order = list(index)
    rows = []
    for s, n in order:  # grows while it is read: a breadth-first search over the support
        if model.is_goal[s]:
            continue
        z = int(model.obs_of[s])
        n2 = int(fsc.memory_map[n, z])
        for a in range(fsc.num_actions):
            d = float(fsc.action_map[n, z, a])
            if d == 0.0:
                continue
            r = s * num_a + a
            targets = []
            for sp in e.succ[e.offsets[r]:e.offsets[r + 1]].tolist():
                if (sp, n2) not in index:
                    index[(sp, n2)] = len(index)
                    order.append((sp, n2))
                targets.append(index[(sp, n2)])
            rows.append((index[(s, n)], d, r, targets))
    return start, order, rows


def static_worst_case_vertices(model, fsc) -> float:
    """The best vertex member's expected cost from the initial belief, written b̂.

    Every row the controller touches takes one of its ``box_simplex_candidates``,
    and each member, one per combination, is solved exactly by a dense linear
    solve.  With a one-node controller each model row enters one product row, so
    the start value is linear-fractional in that row (Sherman-Morrison) and b̂ is
    the static (s, a)-rectangular worst case; with more nodes b̂ is a lower bound
    on it.  Meant for models of a few states: the combinations multiply.
    """
    e = model.edges
    start, _, expanded = product_action_rows(model, fsc)
    transient = sorted({k for k, _, _, _ in expanded})
    if not transient:
        return 0.0
    tpos = {k: t for t, k in enumerate(transient)}
    size = len(transient)
    cost = np.zeros(size)
    vertices, parts = {}, {}  # per touched row: its candidates, and each successor's share of P
    for r in sorted({r for _, _, r, _ in expanded}):
        sl = slice(int(e.offsets[r]), int(e.offsets[r + 1]))
        vertices[r] = np.unique(np.array(box_simplex_candidates(e.lo[sl], e.hi[sl])), axis=0)
        parts[r] = np.zeros((sl.stop - sl.start, size, size))
    for k, d, r, targets in expanded:
        cost[tpos[k]] += d * float(e.cost[r])
        for j, u in enumerate(targets):
            if u in tpos:
                parts[r][j, tpos[k], tpos[u]] += d
    choice = np.array(list(itertools.product(*(range(len(v)) for v in vertices.values()))))
    p = sum(np.einsum("ck,ktu->ctu", vertices[r][choice[:, i]], parts[r]) for i, r in enumerate(vertices))
    values = np.linalg.solve(np.eye(size) - p, np.broadcast_to(cost, (len(choice), size))[..., None])[..., 0]
    at_start = sum(model.initial_belief[s] * values[:, tpos[k]] for k, (s, _) in enumerate(start) if k in tpos)
    return float(np.max(at_start))


def enumerate_policies_ssp(member):
    """Optimal MDP values of a tiny SSP by evaluating every deterministic
    memoryless policy with a linear solve and taking the pointwise minimum."""
    n, na = member.num_states, member.num_actions
    non_goal = [s for s in range(n) if s not in member.goals]
    best = np.full(n, np.inf)
    best[list(member.goals)] = 0.0
    for assignment in itertools.product(range(na), repeat=len(non_goal)):
        p_mat = np.zeros((len(non_goal), len(non_goal)))
        c_vec = np.zeros(len(non_goal))
        pos = {s: i for i, s in enumerate(non_goal)}
        for s, a in zip(non_goal, assignment):
            c_vec[pos[s]] = member.cost[(s, a)]
            for sp, q in member.transitions[(s, a)].items():
                if sp in pos:
                    p_mat[pos[s], pos[sp]] += q
        # Improper policies have a substochastic block with spectral radius 1.
        if np.max(np.abs(np.linalg.eigvals(p_mat))) >= 1.0 - 1e-10:
            continue
        v = np.linalg.solve(np.eye(len(non_goal)) - p_mat, c_vec)
        for s in non_goal:
            best[s] = min(best[s], v[pos[s]])
    return best


def bayes_posterior(member, belief, action, observation):
    """Belief update computed by direct enumeration of the numerator."""
    numer = np.zeros(member.num_states)
    for sp in range(member.num_states):
        if int(member.obs_of[sp]) != observation:
            continue
        for s in range(member.num_states):
            if belief[s] > 0.0:
                numer[sp] += belief[s] * member.transitions[(s, action)].get(sp, 0.0)
    total = numer.sum()
    if total <= 0.0:
        raise ValueError("observation has zero probability")
    return numer / total


def qmdp_reference(member, tol=1e-9):
    """solve_mdp with numpy's row minimum: v = q.min(axis=1) after each backup."""
    succ, prob, _, _ = _by_observation(member)
    cost, shape = member.edges.cost, (member.num_states, member.num_actions)

    def backup(v):
        return (cost + np.add.reduceat(prob * v[succ], member.edges.offsets[:-1])).reshape(shape)

    return _sweep(member, backup, lambda q: q.min(axis=1), tol, "MDP value iteration")


def fib_reference(member, tol=1e-9):
    """solve_fib forming p q(s', a') for every edge and next action: each (s, a, z)
    group summed per next action, then numpy's row minimum."""
    succ, prob, group_starts, row_group_starts = _by_observation(member)
    cost, shape = member.edges.cost, (member.num_states, member.num_actions)

    def backup(q):
        per_group = np.add.reduceat(prob[:, None] * q[succ], group_starts, axis=0)
        return (cost + np.add.reduceat(per_group.min(axis=1), row_group_starts)).reshape(shape)

    return _sweep(member, backup, lambda q: q, tol, "FIB iteration")


def belief_value_recursive(member, belief, depth) -> float:
    """Exact finite-horizon expected cost by expanding the belief tree.

    Exponential in the horizon; only run it on tiny, rapidly absorbing
    models with few positive-probability observations.
    """
    goal_mask = np.zeros(member.num_states, dtype=bool)
    goal_mask[list(member.goals)] = True

    def value(b: np.ndarray, k: int) -> float:
        live = 1.0 - b[goal_mask].sum()
        if k == 0 or live <= 1e-14:
            return 0.0
        best = math.inf
        for a in range(member.num_actions):
            cost = sum(b[s] * member.cost[(s, a)] for s in range(member.num_states)
                       if b[s] > 0.0 and not goal_mask[s])
            pushed = np.zeros(member.num_states)
            for s in range(member.num_states):
                if b[s] <= 0.0:
                    continue
                if goal_mask[s]:
                    pushed[s] += b[s]
                    continue
                for sp, q in member.transitions[(s, a)].items():
                    pushed[sp] += b[s] * q
            total = cost
            for z in range(member.num_observations):
                mask = member.obs_of == z
                pz = pushed[mask].sum()
                if pz > 1e-14:
                    nxt = np.where(mask, pushed, 0.0) / pz
                    total += pz * value(nxt, k - 1)
            best = min(best, total)
        return best

    return value(np.asarray(belief, dtype=float), depth)


def scalar_gru_forward(params, hidden, z):
    """Pure-Python float re-implementation of one forward step."""
    d = params.hidden_size
    e = params.emb.shape[1]
    na = params.head_w3.shape[0]
    x = [float(params.emb[z, j]) for j in range(e)]
    h = [float(v) for v in hidden]

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    r = [sig(sum(float(params.w_r[i, j]) * x[j] for j in range(e))
             + sum(float(params.u_r[i, j]) * h[j] for j in range(d)) + float(params.b_r[i]))
         for i in range(d)]
    u = [sig(sum(float(params.w_u[i, j]) * x[j] for j in range(e))
             + sum(float(params.u_u[i, j]) * h[j] for j in range(d)) + float(params.b_u[i]))
         for i in range(d)]
    hc = [math.tanh(sum(float(params.w_h[i, j]) * x[j] for j in range(e))
                    + sum(float(params.u_h[i, j]) * r[j] * h[j] for j in range(d))
                    + float(params.b_h[i])) for i in range(d)]
    h_new = [u[i] * h[i] + (1.0 - u[i]) * hc[i] for i in range(d)]

    y1 = [max(0.0, sum(float(params.head_w1[i, j]) * h_new[j] for j in range(d))
              + float(params.head_b1[i])) for i in range(params.head_w1.shape[0])]
    y2 = [max(0.0, sum(float(params.head_w2[i, j]) * y1[j] for j in range(len(y1)))
              + float(params.head_b2[i])) for i in range(params.head_w2.shape[0])]
    logits = [sum(float(params.head_w3[i, j]) * y2[j] for j in range(len(y2)))
              + float(params.head_b3[i]) for i in range(na)]
    mx = max(logits)
    exps = [math.exp(v - mx) for v in logits]
    s = sum(exps)
    dist = [v / s for v in exps]
    return h_new, dist


def robust_chain_lp(chain, maximize=True):
    """Robust values of an interval chain from one LP (finite values only).

    The inner problem max p.v over {lo <= p <= hi, sum p = 1} has the dual
    min mu + hi.alpha - lo.beta s.t. mu + alpha_i - beta_i >= v_i and
    alpha, beta >= 0.  The worst-case values are the least v with
    v_s >= c_s + (that dual) for every row, so minimizing sum v over
    (v, mu, alpha, beta) gives them; the best case mirrors every sign
    (sigma = -1) and maximizes.  Goal states are fixed at zero.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    sigma = 1.0 if maximize else -1.0
    rows = np.asarray(chain.row_state)
    num_t, num_e = len(rows), len(chain.succ)
    tpos = {int(s): t for t, s in enumerate(rows)}
    # variables: v (T) | mu (T) | alpha (E) | beta (E)
    entries = []   # (constraint, variable, coefficient)
    b_ub = np.zeros(num_t + num_e)
    for t in range(num_t):
        b_ub[t] = -sigma * chain.cost[rows[t]]
        entries += [(t, t, -sigma), (t, num_t + t, sigma)]
        for e in range(chain.offsets[t], chain.offsets[t + 1]):
            entries += [(t, 2 * num_t + e, chain.hi[e]), (t, 2 * num_t + num_e + e, -chain.lo[e])]
            k = num_t + e
            entries += [(k, num_t + t, -sigma), (k, 2 * num_t + e, -1.0),
                        (k, 2 * num_t + num_e + e, 1.0)]
            succ = int(chain.succ[e])
            if succ in tpos:
                entries.append((k, tpos[succ], sigma))
    r, c, d = zip(*entries)
    a_ub = coo_matrix((d, (r, c)), shape=(num_t + num_e, 2 * num_t + 2 * num_e)).tocsr()
    objective = np.zeros(2 * num_t + 2 * num_e)
    objective[:num_t] = sigma
    bounds = [(None, None)] * (2 * num_t) + [(0.0, None)] * (2 * num_e)
    result = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if result.status != 0:
        raise ValueError(f"LP oracle failed: {result.message}")
    values = np.zeros(chain.num_states)
    values[rows] = result.x[:num_t]
    return values


def per_action_value(model, fsc) -> float:
    """The per-action robust value c of a controller from the initial belief.

    Nature picks one distribution per (product state, action) row inside that
    action's box, so the step at (s, n) costs sum_a delta(a) (cost(s, a) +
    max p.v over box(s, a)); ``build_chain`` merges the actions into one box
    first, which gives d >= c.  One LP, built as ``robust_chain_lp`` is, with
    one inner dual (mu, alpha, beta) per (product state, action) row: the
    least v with v_k >= sum_a delta(a) (cost + mu + hi.alpha - lo.beta) and
    mu + alpha_i - beta_i >= v of successor i.  Goal states are fixed at zero.
    Finite values only.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    e = model.edges
    start, order, rows = product_action_rows(model, fsc)
    num_k, num_r = len(order), len(rows)
    num_e = sum(len(targets) for *_, targets in rows)
    # variables: v (K) | mu (R) | alpha (E) | beta (E); constraints: one per state, one per edge
    entries = [(k, k, -1.0) for k in {k for k, *_ in rows}]   # (constraint, variable, coefficient)
    b_ub = np.zeros(num_k + num_e)
    i = 0  # edges so far
    for j, (k, d, r, targets) in enumerate(rows):
        b_ub[k] -= d * float(e.cost[r])
        mu = num_k + j
        entries.append((k, mu, d))
        for edge, u in enumerate(targets, start=int(e.offsets[r])):
            alpha, beta, row = num_k + num_r + i, num_k + num_r + num_e + i, num_k + i
            entries += [(k, alpha, d * e.hi[edge]), (k, beta, -d * e.lo[edge]),
                        (row, u, 1.0), (row, mu, -1.0), (row, alpha, -1.0), (row, beta, 1.0)]
            i += 1
    at, var, coef = zip(*entries)
    a_ub = coo_matrix((coef, (at, var)), shape=(num_k + num_e, num_k + num_r + 2 * num_e)).tocsr()
    objective = np.zeros(num_k + num_r + 2 * num_e)
    objective[:num_k] = 1.0
    bounds = ([(0.0, 0.0) if model.is_goal[s] else (None, None) for s, _ in order]
              + [(None, None)] * num_r + [(0.0, None)] * (2 * num_e))
    result = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=bounds, method="highs")
    if result.status != 0:
        raise ValueError(f"LP oracle failed: {result.message}")
    return float(sum(model.initial_belief[s] * result.x[k] for k, (s, _) in enumerate(start)))


def robust_value_iteration_reference(
    chain: RobustChain,
    mode: str = "pessimistic",
    tol: float = 1e-6,
) -> RobustValues:
    """Nature policy iteration with one ``spsolve`` per member.

    ``robusteval.robust_value_iteration`` as it was before an evaluation
    kept its first factorization: every member is factored anew, and a
    solve that comes out negative or not finite reads +inf.  It reports
    every solve as a factorization and computes no error bound.
    """
    if mode not in ("pessimistic", "optimistic"):
        raise ValueError(f"mode must be 'pessimistic' or 'optimistic', got {mode!r}")
    maximize = mode == "pessimistic"
    infinite, _ = _infinite_set(chain)
    diagnosis = ""
    if infinite.any():
        diagnosis = (
            f"{int(infinite.sum())} reachable product state(s) cannot reach a goal "
            "under the support graph; worst-case cost is infinite"
        )
    v = np.zeros(chain.num_states)
    v[infinite] = np.inf

    # edge arrays of the finite rows; their successors are finite too
    rows = np.flatnonzero(~infinite[chain.row_state])
    states = chain.row_state[rows]
    counts = chain.offsets[rows + 1] - chain.offsets[rows]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    edges = np.repeat(chain.offsets[rows] - offsets[:-1], counts) + np.arange(offsets[-1])
    succ, lo, hi = chain.succ[edges], chain.lo[edges], chain.hi[edges]

    # (I - P) over the transient states: the pattern is fixed, the data is
    # the current member's probabilities on edges between transient states
    size = len(states)
    tpos = np.full(chain.num_states, -1)
    tpos[states] = np.arange(size)
    inner = tpos[succ] >= 0
    mat_rows = np.concatenate([np.arange(size), np.repeat(np.arange(size), counts)[inner]])
    mat_cols = np.concatenate([np.arange(size), tpos[succ[inner]]])

    solves = 0
    seen: set[bytes] = set()
    _, p = box_simplex_greedy(v[succ], lo, hi, offsets, maximize)
    while size:
        # a bug guard: strict improvement never returns to an earlier member
        key = p.tobytes()
        if key in seen:
            raise DivergenceError("robust policy iteration revisited a member")
        seen.add(key)
        solves += 1
        data = np.concatenate([np.ones(size), -p[inner]])
        matrix = csc_matrix((data, (mat_rows, mat_cols)), shape=(size, size))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", MatrixRankWarning)  # diagnosed below
            v[states] = spsolve(matrix, chain.cost[states])
        if not np.all(np.isfinite(v[states]) & (v[states] >= 0.0)):
            v[states] = np.inf
            singular = (
                f"{size} product state(s) reach a goal only through probabilities below "
                "float64 resolution (the member solve is singular); their cost is reported as infinite"
            )
            diagnosis = f"{diagnosis}; {singular}" if diagnosis else singular
            break
        vals = v[succ]
        objective, greedy_p = box_simplex_greedy(vals, lo, hi, offsets, maximize)
        current = np.add.reduceat(p * vals, offsets[:-1])
        gain = objective - current if maximize else current - objective
        switch = gain > 1e-12 * max(1.0, float(np.max(np.abs(v[states]))))
        if not switch.any():
            break
        p = np.where(np.repeat(switch, counts), greedy_p, p)

    at_init = float(chain.init_prob @ v[:len(chain.init_prob)])
    return RobustValues(
        chain=chain, values=v, at_initial=at_init,
        sweeps=solves, factorizations=solves, incomplete=0, krylov_steps=0, error_bound=math.inf, diagnosis=diagnosis,
    )


def member_values_exact(member, cost) -> list[Fraction]:
    """Exact solution of v = cost + member @ v, the float64 entries read as rationals.

    Gaussian elimination over ``fractions.Fraction`` with the first nonzero
    pivot of each column; meant for chains of a few dozen states at most.
    """
    n = len(cost)
    dense = member.toarray()
    rows = [[Fraction(int(i == j)) - Fraction(float(dense[i, j])) for j in range(n)] + [Fraction(float(cost[i]))]
            for i in range(n)]
    for k in range(n):
        pivot = next(i for i in range(k, n) if rows[i][k] != 0)
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, n):
            factor = rows[i][k] / rows[k][k]
            if factor:
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[k])]
    values = [Fraction(0)] * n
    for k in reversed(range(n)):
        values[k] = (rows[k][n] - sum(rows[k][j] * values[j] for j in range(k + 1, n))) / rows[k][k]
    return values


def gth_values(member, cost) -> np.ndarray:
    """Solution of v = cost + member @ v by Grassmann-Taksar-Heyman elimination.

    States are eliminated last to first.  Each one's outflow is the sum of its exit (to the
    goal) and its probabilities to the states still left, never 1 - p_kk, so no step
    subtracts and every value is accurate to a few eps relative however small the exits
    (O'Cinneide 1993).  The exits are 1 - the row sums, each taken once with ``math.fsum``.
    """
    p = member.toarray()
    exits = np.array([math.fsum([1.0, *(-row)]) for row in p])
    c = np.array(cost, dtype=np.float64)
    outflow = np.empty(len(c))
    for k in reversed(range(len(c))):
        outflow[k] = exits[k] + p[k, :k].sum()
        # a visit to k from i costs c_k / outflow_k and leaves for j < k with p_kj / outflow_k
        share = p[:k, k] / outflow[k]
        c[:k] += share * c[k]
        exits[:k] += share * exits[k]
        p[:k, :k] += np.outer(share, p[k, :k])
    values = np.empty(len(c))
    for k in range(len(c)):
        values[k] = (c[k] + p[k, :k] @ values[:k]) / outflow[k]
    return values


def project_row_reference(targets, lo, hi):
    """Box-simplex projection of one row, as ``project_row`` documents it."""
    if lo.sum() > 1.0 + 1e-9 or hi.sum() < 1.0 - 1e-9:
        raise ValueError("box does not intersect the probability simplex")
    p = np.clip(np.asarray(targets, dtype=np.float64), lo, hi)
    for _ in range(100):
        delta = 1.0 - p.sum()
        if abs(delta) < 1e-12:
            break
        slack = (hi - p) if delta > 0 else (p - lo)
        total = slack.sum()
        if total <= 0.0:
            raise ValueError("box does not intersect the probability simplex")
        p = np.clip(p + delta * slack / total, lo, hi)
    return p


def reference_member(model, start, rng=None):
    """Member built one row at a time from the model's ``interval_rows``.

    ``start`` is "mid", "lo", "hi" or "sample" (one ``rng.uniform`` draw per
    entry, rows and successors ascending); each row's targets are projected
    with ``project_row_reference``.
    """
    transitions, rows = {}, interval_rows(model)
    for key in sorted(rows):
        row = rows[key]
        succs = sorted(row)
        lo = np.array([row[sp].lo for sp in succs])
        hi = np.array([row[sp].hi for sp in succs])
        if start == "mid":
            targets = np.array([0.5 * (a + b) for a, b in zip(lo, hi)])
        elif start == "lo":
            targets = lo
        elif start == "hi":
            targets = hi
        else:
            targets = np.array([rng.uniform(a, b) for a, b in zip(lo.tolist(), hi.tolist())])
        probs = project_row_reference(targets, lo, hi)
        transitions[key] = {sp: float(p) for sp, p in zip(succs, probs)}
    return from_rows(
        ConcretePomdp,
        num_states=model.num_states, num_actions=model.num_actions, num_observations=model.num_observations,
        obs_of=model.obs_of.copy(), transitions=transitions,
        cost={divmod(r, model.num_actions): c for r, c in enumerate(model.edges.cost.tolist())}, goals=model.goals,
        initial_belief=model.initial_belief.copy(), name=model.name,
    )


def fsc_fidelity_reference(params, fsc, dataset):
    """Mean total-variation gap between network and controller, one
    ``forward`` call per recorded step."""
    if dataset.num_steps == 0:
        return 0.0
    total = 0.0
    count = 0
    for zs, length in zip(dataset.observations.tolist(), dataset.lengths.tolist()):
        h = np.zeros(params.hidden_size)
        node = fsc.initial_node
        for z in zs[:length]:
            h, dist_net = forward(params, h, z)
            dist_fsc = fsc.action_map[node, z]
            total += 0.5 * float(np.abs(dist_net - dist_fsc).sum())
            node = int(fsc.memory_map[node, z])
            count += 1
    return total / count


def build_fsc_per_node_reference(params, clustering, model):
    """Controller tables from one batched ``gru_step`` per node over every
    observation, each node computing the input projections of the embedding
    table afresh.  Nodes are numbered as ``build_fsc`` numbers them: in the
    order realizable observations first reach them.  Returns the action map
    and the memory map."""
    realizable = set(model.realizable_observations())
    x = params.emb[np.arange(model.num_observations)]
    keys = clustering.assign(np.zeros((1, params.hidden_size)))
    index = {keys[0]: 0}
    action_rows, targets = [], []
    for key in keys:
        rep = np.tile(clustering.represent(key), (model.num_observations, 1))
        h, _ = gru_step(params, rep, x)
        target = clustering.assign(h)
        for z, t in enumerate(target):
            if z in realizable and t not in index:
                index[t] = len(keys)
                keys.append(t)
        action_rows.append(policy_distribution(params, h))
        targets.append(target)
    memory_map = np.array([[index.get(t, n) for t in target] for n, target in enumerate(targets)])
    return np.array(action_rows), memory_map


def build_fsc_reference(params, clustering, model):
    """Controller tables from one ``forward`` call per (node, observation).

    The clustering is re-read one state at a time: a state's key is the
    index of its nearest centroid, or its quantized code as a tuple of ints.
    Keys are numbered in a private dict in the order realizable observations
    first reach them.  Returns the action map, the memory map and the node
    keys in order.
    """
    from robustfsc.extract import _qbn_decode, _qbn_encode, quantize

    qbn = clustering.qbn

    def key_of(h):
        if qbn is None:
            return int(((clustering.centroids - h) ** 2).sum(axis=1).argmin())
        return tuple(int(v) for v in quantize(_qbn_encode(qbn, h[None, :])[0], qbn.quant_levels))

    def represent(key):
        if qbn is None:
            return clustering.centroids[key]
        return _qbn_decode(qbn, np.asarray(key, dtype=np.float64)[None, :])[0]

    realizable = set(model.realizable_observations())
    keys = [key_of(np.zeros(params.hidden_size))]
    index = {keys[0]: 0}
    rows = []
    for key in keys:
        rep = represent(key)
        row = []
        for z in range(model.num_observations):
            h, dist = forward(params, rep, z)
            target = key_of(h)
            if z in realizable and target not in index:
                index[target] = len(keys)
                keys.append(target)
            row.append((dist, target))
        rows.append(row)
    action_map = np.array([[dist for dist, _ in row] for row in rows])
    memory_map = np.array([[index[t] if t in index else n for _, t in row]
                           for n, row in enumerate(rows)])
    return action_map, memory_map, keys


def simulate_reference(model, supervision, num_episodes=256, horizon=200, rng_seed=0):
    """``simulate`` as one episode after another, each drawing by ``rng.choice``.

    Each step draws its action from the point distribution on the argmin of
    the bound's action values.  Returns the dataset and the episodes it
    packs, whose steps keep the belief each action was computed from."""
    from robustfsc.simulate import Episode, Step, TrajectoryDataset

    states = np.arange(model.num_states)
    actions = np.arange(model.num_actions)
    e = model.edges
    seed_parts = (rng_seed,) if isinstance(rng_seed, int) else tuple(rng_seed)
    episodes = []
    for i in range(num_episodes):
        rng = np.random.default_rng((*seed_parts, i))
        s = int(rng.choice(states, p=model.initial_belief))
        b = model.initial_belief.copy()
        steps = []
        while len(steps) < horizon and s not in model.goals:
            z = int(model.obs_of[s])
            mu = (actions == np.argmin(supervision.action_values(b))) * 1.0
            a = int(rng.choice(actions, p=mu))
            steps.append(Step(observation=z, action=a, belief=b))
            r = s * model.num_actions + a
            start, stop = e.offsets[r], e.offsets[r + 1]
            probs = e.lo[start:stop]
            s_next = int(rng.choice(e.succ[start:stop], p=probs / probs.sum()))
            b = belief_update(model, b, a, int(model.obs_of[s_next]))
            s = s_next
        episodes.append(Episode(steps=steps))
    return TrajectoryDataset(episodes, model.num_observations, model.num_actions), episodes


def sigmoid_reference(x):
    """The logistic function as two masked branches, one formula each."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def head_reference(params, h):
    """The policy head on one step's states, written out: two rectifier
    layers, a linear one and the log-softmax.  Returns the log-probabilities
    and each layer's (input, output)."""
    layers, x = [], h
    for i, (w, b) in enumerate(params.head):
        out = x @ w.T + b
        if i < len(params.head) - 1:
            out = np.maximum(out, 0.0)
        layers.append((x, out))
        x = out
    shifted = x - x.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True)), layers


def head_backward_reference(params, layers, dlogits, g):
    """Backprop one step's ``dlogits`` through the head of
    ``head_reference``; accumulates into g and returns the state's gradient."""
    dout = dlogits
    for i in range(len(params.head) - 1, -1, -1):
        (w, _), (gw, gb), (x, out) = params.head[i], g.head[i], layers[i]
        dpre = dout if i == len(params.head) - 1 else dout * (out > 0)
        gw += dpre.T @ x
        gb += dpre.sum(axis=0)
        dout = dpre @ w
    return dout


def loss_and_grad_reference(params, zs, actions, mask, normalizer):
    """``rnn._loss_and_grad`` as one step after another: the GRU, the head,
    the loss term and every weight gradient inside the time loops, each
    gradient zeroed first and accumulated step by step.

    The loss is sum over unmasked steps of CE(onehot(a), pi) / normalizer; hidden
    states thread from zero within each row.  Padded steps are masked out of
    both the loss and, because padding sits at episode tails, the gradient.
    """
    b, t_max = zs.shape
    d = params.hidden_size
    h = np.zeros((b, d))
    gru_caches = []
    head_caches = []
    log_probs_t = []
    mus = np.eye(params.head_w3.shape[0])[actions]  # (B, T, A) one-hot rows
    loss = 0.0
    for t in range(t_max):
        x = params.emb[zs[:, t]]
        h, gcache = gru_step(params, h, x)
        log_probs, hcache = head_reference(params, h)
        loss -= float((mus[:, t] * log_probs).sum(axis=1) @ mask[:, t])
        gru_caches.append(gcache)
        head_caches.append(hcache)
        log_probs_t.append(log_probs)
    loss /= normalizer

    g = params.zeros_like()
    dh_next = np.zeros((b, d))
    for t in range(t_max - 1, -1, -1):
        probs = np.exp(log_probs_t[t])
        w = mask[:, t][:, None] / normalizer
        dlogits = (probs - mus[:, t]) * w
        dh = head_backward_reference(params, head_caches[t], dlogits, g) + dh_next
        dh_prev, dx = _gru_backward_reference(params, gru_caches[t], dh, g)
        np.add.at(g.emb, zs[:, t], dx)
        dh_next = dh_prev
    return loss, g


def _gru_backward_reference(params, cache, dh, g):
    """Backprop dh through one GRU step; accumulates into g.

    Returns (dh_prev, dx) for the previous hidden state and the embedded input.
    """
    h_prev, x, r, u, rh, hc = cache
    du = dh * (h_prev - hc)
    dhc = dh * (1.0 - u)
    dh_prev = dh * u
    dpre_h = dhc * (1.0 - hc * hc)
    g.w_h += dpre_h.T @ x
    g.b_h += dpre_h.sum(axis=0)
    g.u_h += dpre_h.T @ rh
    drh = dpre_h @ params.u_h
    dr = drh * h_prev
    dh_prev += drh * r
    dpre_u = du * u * (1.0 - u)
    g.w_u += dpre_u.T @ x
    g.b_u += dpre_u.sum(axis=0)
    g.u_u += dpre_u.T @ h_prev
    dh_prev += dpre_u @ params.u_u
    dpre_r = dr * r * (1.0 - r)
    g.w_r += dpre_r.T @ x
    g.b_r += dpre_r.sum(axis=0)
    g.u_r += dpre_r.T @ h_prev
    dh_prev += dpre_r @ params.u_r
    dx = dpre_r @ params.w_r + dpre_u @ params.w_u + dpre_h @ params.w_h
    return dh_prev, dx


def qbn_loss_and_grad_reference(q, batch):
    """``extract._qbn_loss_and_grad`` written out: tanh layers (a flattened
    tanh last in a 3-level encoder), the quantizer, the decoder and the
    straight-through backward pass, with the gradient zeroed first and
    accumulated into, and every derivative recomputed from the
    pre-activation."""
    from robustfsc.extract import quantize

    flat_last = q.quant_levels == 3

    def forward(layers, x, flat):
        cache = []
        for i, (w, b) in enumerate(layers):
            pre = x @ w.T + b
            last_flat = flat and i == len(layers) - 1
            out = 1.5 * np.tanh(pre) + 0.5 * np.tanh(-3.0 * pre) if last_flat else np.tanh(pre)
            cache.append((x, pre, last_flat))
            x = out
        return x, cache

    def backward(layers, cache, dout, grads):
        for (w, _), (x, pre, last_flat), (gw, gb) in reversed(list(zip(layers, cache, grads))):
            if last_flat:
                dpre = dout * (1.5 * (np.tanh(3.0 * pre) ** 2 - np.tanh(pre) ** 2))
            else:
                dpre = dout * (1.0 - np.tanh(pre) ** 2)
            gw += dpre.T @ x
            gb += dpre.sum(axis=0)
            dout = dpre @ w
        return dout

    code, ecache = forward(q.encoder, batch, flat_last)
    out, dcache = forward(q.decoder, quantize(code, q.quant_levels), False)
    err = out - batch
    g = q.zeros_like()
    g.flat[...] = 0.0
    dcode = backward(q.decoder, dcache, 2.0 * err / err.size, g.decoder)
    backward(q.encoder, ecache, dcode, g.encoder)
    return float((err * err).mean()), g


class AdamReference:
    """Adam (Kingma & Ba 2015) on a flat parameter vector, written out step
    by step: moments, bias correction and, with ``clip_norm`` set, each
    gradient first rescaled to norm at most ``clip_norm`` (its norm taken as
    sqrt(g @ g))."""

    def __init__(self, size, lr, clip_norm=None):
        self.lr, self.clip_norm = lr, clip_norm
        self.m, self.v = np.zeros(size), np.zeros(size)
        self.t = 0

    def step(self, flat, grad):
        """Update ``flat`` in place from the gradient vector ``grad`` (left
        as it is); returns whether the gradient was clipped."""
        self.t += 1
        norm = np.sqrt(grad @ grad)
        clipped = self.clip_norm is not None and norm > self.clip_norm
        g = grad * (self.clip_norm / norm) if clipped else grad
        self.m = 0.9 * self.m + (1.0 - 0.9) * g
        self.v = 0.999 * self.v + (1.0 - 0.999) * g * g
        correction = np.sqrt(1.0 - 0.999**self.t) / (1.0 - 0.9**self.t)
        flat -= self.lr * correction * self.m / (np.sqrt(self.v) + 1e-8)
        return clipped


def worst_case_weights_reference(model, fsc, values):
    """``select_worst_case`` by expanding the product a second time.

    The chain's states are re-expanded pair by pair in chain order, goal
    states included, and each successor is looked up in a product index of
    its own.  Returns the rows the controller touches (goal rows among
    them), the weight of every model edge, the worst member's probabilities
    and the proxy objective.
    """
    from robustfsc.model import nominal_midpoint

    e = model.edges
    num_s, num_a, num_n = model.num_states, model.num_actions, fsc.num_nodes
    s, n = np.divmod(values.chain.pairs, num_n)
    z = model.obs_of[s]
    d = fsc.action_map[n, z]
    pair, a = np.nonzero(d)  # pair by pair in chain order, actions ascending
    rows = s[pair] * num_a + a
    idx, counts = e.of_rows(rows)
    succ = e.succ[idx]
    node = np.repeat(fsc.memory_map[n, z][pair], counts)
    index = np.full(num_s * num_n, -1)
    index[s * num_n + n] = np.arange(len(s))
    target = index[succ * num_n + node]
    goal = np.zeros(num_s, dtype=bool)
    goal[list(model.goals)] = True
    missing = np.flatnonzero((target < 0) & ~goal[succ])
    if missing.size:
        i = missing[0]
        raise KeyError(f"product state ({succ[i]}, {node[i]}) missing from the evaluated chain")
    successor_value = np.where(target < 0, 0.0, values.values[target])
    weight = np.bincount(idx, np.repeat(d[pair, a], counts) * successor_value, len(e.succ))

    touched = np.unique(rows)
    edges, counts = e.of_rows(touched)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    objective, probs = box_simplex_greedy(weight[edges], e.lo[edges], e.hi[edges], offsets, maximize=True)
    worst = nominal_midpoint(model).edges.lo.copy()
    worst[edges] = probs
    return touched, weight, worst, float(objective.sum())


def central_differences(f, x, step=1e-6):
    """Gradient of the scalar ``f()`` with respect to the array ``x``,
    perturbed in place one entry at a time."""
    grad = np.empty(x.shape)
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + step
        up = f()
        x.flat[i] = orig - step
        down = f()
        x.flat[i] = orig
        grad.flat[i] = (up - down) / (2.0 * step)
    return grad


def gradient_check(params, dataset) -> float:
    """Max relative error of the BPTT gradient against central differences,
    |a - n| / max(1, |a|, |n|) per coordinate; 0 on an empty dataset."""
    if dataset.num_steps == 0:
        return 0.0
    args = (dataset.observations, dataset.actions, dataset.mask, float(dataset.num_steps))
    analytic = _loss_and_grad(params, *args)[1].flat
    work, scratch = params.copy(), params.zeros_like()
    numeric = central_differences(lambda: _loss_and_grad(work, *args, grad=scratch)[0], work.flat)
    return float(np.max(np.abs(analytic - numeric) / np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))))


# ---------------------------------------------------------------------------
# the load path of models and controllers, one line, row or state at a time


def _to_int(line_no: int, tok: str, what: str) -> int:
    try:
        return int(tok)
    except ValueError:
        raise ModelFormatError(line_no, f"expected integer {what}, got {tok!r}") from None


def _to_index(line_no: int, tok: str, what: str) -> int:
    value = _to_int(line_no, tok, what)
    if value < 0:
        raise ModelFormatError(line_no, f"negative {what} index {value}")
    return value


def _to_float(line_no: int, tok: str, what: str) -> float:
    try:
        return float(tok)
    except ValueError:
        raise ModelFormatError(line_no, f"expected number {what}, got {tok!r}") from None


def _tokens(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


def parse_model_reference(text: str):
    """``parse_model`` as one line-by-line reading: each line is checked and
    collected in turn, the model is built from dicts and validated by their
    walk (``validate_reference``)."""
    lines = list(_tokens(text))
    if not lines:
        raise ModelFormatError(0, "empty document")
    line_no, toks = lines[0]
    if toks != MODEL_HEADER.split():
        raise ModelFormatError(line_no, f"expected header {MODEL_HEADER!r}")

    name = ""
    counts = {"states": None, "actions": None, "observations": None}
    obs_lines: list[tuple[int, int, int]] = []
    trans_lines: list[tuple[int, int, int, int, float, float]] = []
    cost_lines: list[tuple[int, int, int, float]] = []
    goal_lines: list[tuple[int, int]] = []
    init_lines: list[tuple[int, int, float]] = []

    for line_no, toks in lines[1:]:
        kind = toks[0]
        args = toks[1:]
        if kind == "name":
            if len(args) != 1:
                raise ModelFormatError(line_no, "name takes one identifier")
            name = args[0]
        elif kind in counts:
            if len(args) != 1:
                raise ModelFormatError(line_no, f"{kind} takes one count")
            counts[kind] = _to_int(line_no, args[0], kind)
        elif kind == "obs":
            if len(args) != 2:
                raise ModelFormatError(line_no, "obs takes: state observation")
            obs_lines.append((line_no, _to_int(line_no, args[0], "state"), _to_int(line_no, args[1], "observation")))
        elif kind == "trans":
            if len(args) != 5:
                raise ModelFormatError(line_no, "trans takes: state action successor lo hi")
            trans_lines.append(
                (
                    line_no,
                    _to_int(line_no, args[0], "state"),
                    _to_int(line_no, args[1], "action"),
                    _to_int(line_no, args[2], "successor"),
                    _to_float(line_no, args[3], "lo"),
                    _to_float(line_no, args[4], "hi"),
                )
            )
        elif kind == "cost":
            if len(args) != 3:
                raise ModelFormatError(line_no, "cost takes: state action cost")
            cost_lines.append(
                (line_no, _to_int(line_no, args[0], "state"), _to_int(line_no, args[1], "action"), _to_float(line_no, args[2], "cost"))
            )
        elif kind == "goal":
            if len(args) != 1:
                raise ModelFormatError(line_no, "goal takes one state")
            goal_lines.append((line_no, _to_int(line_no, args[0], "state")))
        elif kind == "init":
            if len(args) != 2:
                raise ModelFormatError(line_no, "init takes: state probability")
            init_lines.append((line_no, _to_int(line_no, args[0], "state"), _to_float(line_no, args[1], "probability")))
        else:
            raise ModelFormatError(line_no, f"unknown directive {kind!r}")

    for key, val in counts.items():
        if val is None:
            raise ModelFormatError(0, f"missing {key} declaration")
        if val <= 0:
            raise ModelFormatError(0, f"{key} must be positive")
    ns, na, nz = counts["states"], counts["actions"], counts["observations"]
    # reject sizes the document cannot fill before allocating for them
    if nz > ns:
        raise ModelFormatError(0, f"{nz} observations exceed {ns} states, each of which emits one")
    if len(obs_lines) < ns:
        raise ModelFormatError(0, f"{ns} states need one obs line each")
    if len(cost_lines) < ns * na:
        raise ModelFormatError(0, f"{ns} states x {na} actions need one cost line each")

    obs_of = np.full(ns, -1, dtype=np.int64)
    for line_no, s, z in obs_lines:
        if not (0 <= s < ns):
            raise ModelFormatError(line_no, f"obs: unknown state {s}")
        if not (0 <= z < nz):
            raise ModelFormatError(line_no, f"obs: unknown observation {z}")
        obs_of[s] = z
    missing = np.flatnonzero(obs_of < 0)
    if missing.size:
        raise ModelFormatError(0, f"state {int(missing[0])} has no observation")

    transitions: dict[tuple[int, int], dict[int, Interval]] = {}
    for line_no, s, a, sp, lo, hi in trans_lines:
        for v, kind in ((s, "state"), (sp, "successor")):
            if not (0 <= v < ns):
                raise ModelFormatError(line_no, f"trans: unknown {kind} {v}")
        if not (0 <= a < na):
            raise ModelFormatError(line_no, f"trans: unknown action {a}")
        if not (0.0 < lo <= hi <= 1.0):
            raise ModelFormatError(
                line_no, f"trans: interval [{lo}, {hi}] violates 0 < lo <= hi <= 1"
            )
        row = transitions.setdefault((s, a), {})
        if sp in row:
            raise ModelFormatError(line_no, f"trans: duplicate successor {sp}")
        row[sp] = Interval(lo, hi)

    cost: dict[tuple[int, int], float] = {}
    for line_no, s, a, c in cost_lines:
        if not (0 <= s < ns) or not (0 <= a < na):
            raise ModelFormatError(line_no, f"cost: unknown state/action ({s}, {a})")
        if (s, a) in cost:
            raise ModelFormatError(line_no, f"cost: duplicate entry for ({s}, {a})")
        cost[(s, a)] = c

    goals = set()
    for line_no, g in goal_lines:
        if not (0 <= g < ns):
            raise ModelFormatError(line_no, f"goal: unknown state {g}")
        goals.add(g)

    belief = np.zeros(ns, dtype=np.float64)
    for line_no, s, p in init_lines:
        if not (0 <= s < ns):
            raise ModelFormatError(line_no, f"init: unknown state {s}")
        belief[s] += p

    model = from_rows(
        RobustPomdp,
        num_states=ns,
        num_actions=na,
        num_observations=nz,
        obs_of=obs_of,
        transitions=transitions,
        cost=cost,
        goals=frozenset(goals),
        initial_belief=belief,
        name=name,
    )
    report = validate_reference(model)
    if not report.ok:
        raise ModelFormatError(0, f"model invalid:\n{report}")
    return ModelDocument(model)


def parse_fsc_reference(text: str) -> Fsc:
    """``parse_fsc`` as one line-by-line reading: each line is converted and
    checked in turn, then the tables are filled entry by entry."""
    lines = list(_tokens(text))
    if not lines:
        raise ModelFormatError(0, "empty document")
    line_no, toks = lines[0]
    if toks != FSC_HEADER.split():
        raise ModelFormatError(line_no, f"expected header {FSC_HEADER!r}")

    num_nodes = None
    initial = None
    act_lines: list[tuple[int, int, int, int, float]] = []
    mem_lines: list[tuple[int, int, int, int]] = []
    for line_no, toks in lines[1:]:
        kind, args = toks[0], toks[1:]
        if kind in ("nodes", "init") and len(args) != 1:
            raise ModelFormatError(line_no, f"{kind} takes one argument")
        if kind == "nodes":
            num_nodes = _to_int(line_no, args[0], "count")
        elif kind == "init":
            initial = _to_int(line_no, args[0], "node")
        elif kind == "act":
            if len(args) != 4:
                raise ModelFormatError(line_no, "act takes: node observation action probability")
            act_lines.append(
                (line_no, _to_int(line_no, args[0], "node"), _to_index(line_no, args[1], "observation"),
                 _to_index(line_no, args[2], "action"), _to_float(line_no, args[3], "probability"))
            )
        elif kind == "mem":
            if len(args) != 3:
                raise ModelFormatError(line_no, "mem takes: node observation successor")
            mem_lines.append(
                (line_no, _to_int(line_no, args[0], "node"), _to_index(line_no, args[1], "observation"),
                 _to_int(line_no, args[2], "successor"))
            )
        else:
            raise ModelFormatError(line_no, f"unknown directive {kind!r}")

    if num_nodes is None or num_nodes <= 0:
        raise ModelFormatError(0, "missing or non-positive nodes declaration")
    if initial is None or not (0 <= initial < num_nodes):
        raise ModelFormatError(0, "missing or out-of-range init declaration")

    num_obs = 1 + max(
        [z for _, _, z, _, _ in act_lines] + [z for _, _, z, _ in mem_lines], default=-1
    )
    num_act = 1 + max([a for _, _, _, a, _ in act_lines], default=-1)
    if num_obs == 0 or num_act == 0:
        raise ModelFormatError(0, "controller declares no act entries")
    if len(mem_lines) < num_nodes * num_obs:  # reject before allocating for them
        raise ModelFormatError(0, f"{num_nodes} nodes x {num_obs} observations need one mem line each")
    if num_nodes * num_obs * num_act > MAX_FSC_ENTRIES:
        line_no = max(act_lines, key=lambda line: line[3])[0]
        raise ModelFormatError(
            line_no, f"act: action {num_act - 1} needs a {num_nodes} x {num_obs} x {num_act} action table, "
            f"over the {MAX_FSC_ENTRIES} entries a controller may have"
        )

    action_map = np.zeros((num_nodes, num_obs, num_act), dtype=np.float64)
    memory_map = np.zeros((num_nodes, num_obs), dtype=np.int64)
    seen_mem = np.zeros((num_nodes, num_obs), dtype=bool)
    seen_act = set()
    for line_no, n, z, a, p in act_lines:
        if not (0 <= n < num_nodes):
            raise ModelFormatError(line_no, f"act: unknown node {n}")
        if (n, z, a) in seen_act:
            raise ModelFormatError(line_no, f"act: duplicate entry for ({n}, {z}, {a})")
        if not math.isfinite(p):
            raise ModelFormatError(line_no, f"act: non-finite probability {p}")
        if p < 0.0:
            raise ModelFormatError(line_no, f"act: negative probability {p}")
        if p > 1.0 + PROB_TOL:
            raise ModelFormatError(line_no, f"act: probability {p} exceeds 1")
        seen_act.add((n, z, a))
        action_map[n, z, a] += p
    for line_no, n, z, m in mem_lines:
        if not (0 <= n < num_nodes) or not (0 <= m < num_nodes):
            raise ModelFormatError(line_no, f"mem: node reference out of range ({n} -> {m})")
        memory_map[n, z] = m
        seen_mem[n, z] = True
    if not seen_mem.all():
        n, z = np.argwhere(~seen_mem)[0]
        raise ModelFormatError(0, f"missing mem entry for node {int(n)} observation {int(z)}")

    fsc = Fsc(num_nodes, initial, action_map, memory_map)
    try:
        fsc.check()
    except ValueError as err:
        raise ModelFormatError(0, str(err)) from None
    return fsc


def validate_reference(model):
    """``validate`` as one walk over the model's ``interval_rows`` and costs,
    row by row and successor by successor."""
    rep = ValidationReport()
    n, na = model.num_states, model.num_actions

    if model.obs_of.shape != (n,):
        rep.add(f"obs_of must assign one observation per state, got shape {model.obs_of.shape}")
        return rep
    if np.any(model.obs_of < 0) or np.any(model.obs_of >= model.num_observations):
        rep.add("obs_of contains an out-of-range observation index")
    if model.num_observations > n:
        rep.add(f"{model.num_observations} observations exceed {n} states, each of which emits one")

    if model.initial_belief.shape != (n,):
        rep.add("initial_belief has wrong length")
    else:
        if np.any(model.initial_belief < 0):
            rep.add("initial_belief has a negative entry")
        total = float(model.initial_belief.sum())
        if not abs(total - 1.0) <= BELIEF_TOL:  # also catches NaN
            rep.add(f"initial_belief sums to {total!r}, expected 1 within {BELIEF_TOL}")

    for g in sorted(model.goals):
        if not (0 <= g < n):
            rep.add(f"goal state {g} out of range")

    rows = interval_rows(model)
    for s in range(n):
        for a in range(na):
            key = (s, a)
            row = rows.get(key)
            if not row:
                rep.add(f"state {s} action {a}: no outgoing transitions")
                continue
            lo_sum = 0.0
            hi_sum = 0.0
            for sp, iv in row.items():
                if not (0 <= sp < n):
                    rep.add(f"state {s} action {a}: successor {sp} out of range")
                if not (0.0 < iv.lo <= iv.hi <= 1.0):
                    rep.add(
                        f"state {s} action {a} successor {sp}: interval "
                        f"[{iv.lo}, {iv.hi}] violates 0 < lo <= hi <= 1"
                    )
                lo_sum += iv.lo
                hi_sum += iv.hi
            if lo_sum > 1.0 + BOX_TOL:
                rep.add(f"state {s} action {a}: sum of lower bounds {lo_sum} exceeds 1")
            if hi_sum < 1.0 - BOX_TOL:
                rep.add(f"state {s} action {a}: sum of upper bounds {hi_sum} is below 1")
            c = float(model.edges.cost[s * na + a])
            if not c >= 0:  # also catches NaN
                rep.add(f"state {s} action {a}: negative or NaN cost {c}")
            elif c == float("inf"):
                rep.add(f"state {s} action {a}: infinite cost {c}")
            if s in model.goals:
                if row != {s: Interval(1.0, 1.0)}:
                    rep.add(f"goal state {s} action {a}: goals must self-loop with probability 1")
                if c != 0.0:
                    rep.add(f"goal state {s} action {a}: goals must have zero cost, got {c}")
    return rep


def _chebyshev(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


class _Builder:
    """Shared state-indexing / row-assembly machinery for one grid family."""

    def __init__(self, spec: GridSpec):
        self.spec = spec
        self.w, self.h = spec.width, spec.height

    def clamp(self, x: int, y: int) -> tuple[int, int]:
        return (min(max(x, 0), self.w - 1), min(max(y, 0), self.h - 1))

    def agent_moves(self, pos: tuple[int, int], action: int) -> tuple[tuple[int, int], tuple[int, int]]:
        dx, dy = MOVES[action]
        one = self.clamp(pos[0] + dx, pos[1] + dy)
        two = self.clamp(pos[0] + 2 * dx, pos[1] + 2 * dy)
        return one, two


def _assemble(
    spec: GridSpec,
    num_states: int,
    num_actions: int,
    is_goal,
    is_bad,
    step_successor,
    moves_agent,
    obs_symbol,
    init_states: list[int],
    name: str,
) -> RobustPomdp:
    """Build the model from per-state callbacks.

    step_successor(s, a, agent_landing) -> successor state index;
    moves_agent(s, a) -> (one_step_cell, two_step_cell) or None for non-move
    actions (deterministic row via step_successor with agent staying put).
    """
    slip = spec.slip_interval
    stay = Interval(1.0, 1.0)
    transitions: dict[tuple[int, int], dict[int, Interval]] = {}
    cost: dict[tuple[int, int], float] = {}
    goals = set()

    for s in range(num_states):
        if is_goal(s):
            goals.add(s)
            for a in range(num_actions):
                transitions[(s, a)] = {s: stay}
                cost[(s, a)] = 0.0
            continue
        stage_cost = spec.step_cost + (spec.penalty_cost if is_bad(s) else 0.0)
        for a in range(num_actions):
            landing = moves_agent(s, a)
            if landing is None:
                succ = step_successor(s, a, None)
                transitions[(s, a)] = {succ: stay}
            else:
                one, two = landing
                s_one = step_successor(s, a, one)
                s_two = step_successor(s, a, two)
                if s_one == s_two:
                    transitions[(s, a)] = {s_one: stay}
                else:
                    transitions[(s, a)] = {
                        s_one: Interval(1.0 - slip.hi, 1.0 - slip.lo),
                        s_two: slip,
                    }
            cost[(s, a)] = stage_cost

    # Dense observation indices in first-occurrence order over the state index.
    symbols: dict[tuple, int] = {}
    obs_of = np.zeros(num_states, dtype=np.int64)
    for s in range(num_states):
        sym = obs_symbol(s)
        if sym not in symbols:
            symbols[sym] = len(symbols)
        obs_of[s] = symbols[sym]

    belief = np.zeros(num_states, dtype=np.float64)
    belief[init_states] = 1.0 / len(init_states)

    return from_rows(
        RobustPomdp,
        num_states=num_states,
        num_actions=num_actions,
        num_observations=len(symbols),
        obs_of=obs_of,
        transitions=transitions,
        cost=cost,
        goals=frozenset(goals),
        initial_belief=belief,
        name=name,
    )


def generate_grid_reference(spec: GridSpec, rng_seed: int = 0) -> RobustPomdp:
    """``generate_grid`` from per-state callbacks, one state and row at a time."""
    name = f"{spec.kind}-{spec.width}x{spec.height}-seed{rng_seed}"
    if spec.kind == "intercept":
        return _build_intercept(spec, name)
    if spec.kind == "evade":
        return _build_evade(spec, name)
    return _build_avoid(spec, name)


def _intercept_exits(spec: GridSpec) -> tuple[tuple[int, int], tuple[int, int]]:
    return ((0, spec.height - 1), (spec.width - 1, spec.height - 1))


def _intercept_target_step(spec: GridSpec, target: tuple[int, int], exited: int) -> tuple[tuple[int, int], int]:
    if exited:
        return target, 1
    left, right = _intercept_exits(spec)
    if target in (left, right):
        return target, 1
    d_left = abs(target[0] - left[0]) + abs(target[1] - left[1])
    d_right = abs(target[0] - right[0]) + abs(target[1] - right[1])
    ex = left if d_left <= d_right else right
    x, y = target
    if x != ex[0]:
        x += 1 if ex[0] > x else -1
    elif y != ex[1]:
        y += 1 if ex[1] > y else -1
    return (x, y), 0


def _build_intercept(spec: GridSpec, name: str) -> RobustPomdp:
    b = _Builder(spec)
    n_cells = spec.width * spec.height
    num_states = n_cells * n_cells * 2
    corridor_x = spec.width // 2
    agent_start = (corridor_x, 0)

    starts = [
        (x, spec.height - 2)
        for x in range(spec.width)
        if x != corridor_x and _chebyshev((x, spec.height - 2), agent_start) > spec.view_radius
    ]
    if not starts:
        raise ValueError("grid too small: no hidden starting cell for the target")

    def is_goal(s: int) -> bool:
        agent, target, _ = pair_decode(spec, s)
        return agent == target

    def moves_agent(s: int, a: int):
        agent, _, _ = pair_decode(spec, s)
        return b.agent_moves(agent, a)

    def step_successor(s: int, a: int, landing) -> int:
        _, target, exited = pair_decode(spec, s)
        t2, e2 = _intercept_target_step(spec, target, exited)
        return pair_index(spec, landing, t2, e2)

    def obs_symbol(s: int):
        agent, target, exited = pair_decode(spec, s)
        if agent == target:
            return (agent, "goal")
        if exited:
            return (agent, "exited")
        if _chebyshev(agent, target) <= spec.view_radius or target[0] == corridor_x:
            return (agent, target)
        return (agent, "hidden")

    def is_bad(s: int) -> bool:
        return pair_decode(spec, s)[2] == 1

    init_states = [pair_index(spec, agent_start, t, 0) for t in starts]
    return _assemble(
        spec, num_states, 4, is_goal, is_bad, step_successor, moves_agent, obs_symbol, init_states, name
    )


def _evade_pursuer_step(spec: GridSpec, adv: tuple[int, int], agent: tuple[int, int]) -> tuple[int, int]:
    safe_x = spec.width - 1
    dx = agent[0] - adv[0]
    dy = agent[1] - adv[1]
    options = []
    if abs(dx) >= abs(dy):
        if dx != 0:
            options.append((adv[0] + (1 if dx > 0 else -1), adv[1]))
        if dy != 0:
            options.append((adv[0], adv[1] + (1 if dy > 0 else -1)))
    else:
        if dy != 0:
            options.append((adv[0], adv[1] + (1 if dy > 0 else -1)))
        if dx != 0:
            options.append((adv[0] + (1 if dx > 0 else -1), adv[1]))
    for cand in options:
        if cand[0] != safe_x:
            return cand
    return adv


def _build_evade(spec: GridSpec, name: str) -> RobustPomdp:
    b = _Builder(spec)
    n_cells = spec.width * spec.height
    num_states = n_cells * n_cells * 2
    agent_start = (spec.width // 2, 0)
    goal_cell = (spec.width - 1, spec.height - 1)

    starts = [
        (x, spec.height - 2)
        for x in range(spec.width - 1)  # the safe column is agent-only
        if _chebyshev((x, spec.height - 2), agent_start) > spec.view_radius
    ]
    if not starts:
        raise ValueError("grid too small: no hidden starting cell for the pursuer")

    def is_goal(s: int) -> bool:
        agent, _, _ = pair_decode(spec, s)
        return agent == goal_cell

    def moves_agent(s: int, a: int):
        if a == SCAN:
            return None
        agent, _, _ = pair_decode(spec, s)
        return b.agent_moves(agent, a)

    def step_successor(s: int, a: int, landing) -> int:
        agent, adv, _ = pair_decode(spec, s)
        adv2 = _evade_pursuer_step(spec, adv, agent)
        if a == SCAN:
            return pair_index(spec, agent, adv2, 1)
        return pair_index(spec, landing, adv2, 0)

    def obs_symbol(s: int):
        agent, adv, scanned = pair_decode(spec, s)
        if scanned or _chebyshev(agent, adv) <= spec.view_radius:
            return (agent, adv)
        return (agent, "hidden")

    def is_bad(s: int) -> bool:
        agent, adv, _ = pair_decode(spec, s)
        return agent == adv

    init_states = [pair_index(spec, agent_start, v, 0) for v in starts]
    return _assemble(
        spec, num_states, 5, is_goal, is_bad, step_successor, moves_agent, obs_symbol, init_states, name
    )


def _build_avoid(spec: GridSpec, name: str) -> RobustPomdp:
    b = _Builder(spec)
    route = patrol_route(spec)
    route_len = len(route)
    num_states = spec.width * spec.height * route_len
    agent_start = (0, 0)
    goal_cell = (spec.width - 1, spec.height - 1)

    start_idxs = [
        i for i, cell in enumerate(route) if _chebyshev(cell, agent_start) > max(spec.view_radius, 1)
    ]
    if not start_idxs:
        raise ValueError("grid too small: no hidden starting position for the watcher")

    def is_goal(s: int) -> bool:
        agent, _ = avoid_decode(spec, s)
        return agent == goal_cell

    def moves_agent(s: int, a: int):
        agent, _ = avoid_decode(spec, s)
        return b.agent_moves(agent, a)

    def step_successor(s: int, a: int, landing) -> int:
        _, idx = avoid_decode(spec, s)
        return avoid_index(spec, landing, (idx + 1) % route_len)

    def obs_symbol(s: int):
        agent, idx = avoid_decode(spec, s)
        if _chebyshev(agent, route[idx]) <= spec.view_radius:
            return (agent, route[idx])
        return (agent, "hidden")

    def is_bad(s: int) -> bool:
        agent, idx = avoid_decode(spec, s)
        return _chebyshev(agent, route[idx]) <= 1

    init_states = [avoid_index(spec, agent_start, i) for i in start_idxs]
    return _assemble(
        spec, num_states, 4, is_goal, is_bad, step_successor, moves_agent, obs_symbol, init_states, name
    )
