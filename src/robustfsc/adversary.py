"""Worst-case member selection for a fixed controller.

Given the robust values of the product chain, the transition function that
maximizes the controller's expected cost decomposes over (state, action)
rows: each row maximizes a linear objective over a box-constrained simplex,
which the greedy fill solves exactly (a fractional-knapsack instance, so no
LP solver is needed).  The row coefficient for successor s' aggregates over
the controller's memory nodes visited at the state:

    w(s, a, s') = sum_n delta(a | n, O(s)) * V(s', eta(n, O(s)))

Rows the controller never touches carry no signal and default to the
nominal midpoint member so the returned instance stays canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from robustfsc.model import ConcretePomdp, Fsc, RobustPomdp, member_with, nominal_midpoint
from robustfsc.robusteval import RobustValues, box_simplex_greedy, check_boxes


@dataclass
class AdversaryResult:
    """The worst member, its linear proxy objective and the proxy's weights.

    ``rows`` are the flat rows s * A + a the controller touches, ascending;
    ``weights`` holds w(s, a, s') for every edge of those rows, row after
    row, successors ascending (the edge order of ``model.edges``).
    """

    worst_case: ConcretePomdp
    proxy_objective: float
    rows: np.ndarray
    weights: np.ndarray


def select_worst_case(model: RobustPomdp, fsc: Fsc, values: RobustValues) -> AdversaryResult:
    """Pick the member of the uncertainty set that is worst for ``fsc``.

    The memory-node sum runs over the product states materialized in the
    chain the values were computed on (nodes the controller actually reaches
    at each state); goal successors count as zero.  The proxy objective is
    the maximized linear value, an upper-bound surrogate for the true cost
    increase of re-running evaluation on the returned member.
    """
    e = model.edges
    num_s, num_a, num_n = model.num_states, model.num_actions, fsc.num_nodes
    s, n = np.array(values.chain.state_pairs, dtype=np.int64).reshape(-1, 2).T
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

    # every row the controller touches, solved in one segmented greedy call
    touched = np.unique(rows)
    edges, counts = e.of_rows(touched)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    lo, hi, w = e.lo[edges], e.hi[edges], weight[edges]
    check_boxes(lo, hi, offsets)
    objective, probs = box_simplex_greedy(w, lo, hi, offsets, maximize=True)
    worst = nominal_midpoint(model).edges.lo.copy()  # rows not touched stay at the midpoint
    worst[edges] = probs
    return AdversaryResult(
        worst_case=member_with(model, worst),
        proxy_objective=float(objective.sum()),
        rows=touched,
        weights=w,
    )


def proxy_objective_of(result: AdversaryResult, member: ConcretePomdp) -> float:
    """Evaluate the linear proxy at an arbitrary member of the set."""
    idx, _ = member.edges.of_rows(result.rows)
    return float(member.edges.lo[idx] @ result.weights)
