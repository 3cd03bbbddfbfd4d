"""Worst-case member selection for a fixed controller.

Given the robust values of the product chain, the transition function that
maximizes the controller's expected cost decomposes over (state, action)
rows: each row maximizes a linear objective over a box-constrained simplex,
which the greedy fill solves exactly (a fractional-knapsack instance, so no
LP solver is needed).  The row coefficient for successor s' aggregates over
the controller's memory nodes visited at the state:

    w(s, a, s') = sum_n delta(a | n, O(s)) * V(s', eta(n, O(s)))

The weights are read off the terms the evaluated chain kept, so the product
is expanded once.  Rows the controller never touches, goal rows among them,
carry no signal and default to the nominal midpoint member so the returned
instance stays canonical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from robustfsc.model import ConcretePomdp, Fsc, RobustPomdp, member_with, nominal_midpoint
from robustfsc.robusteval import RobustValues, box_simplex_greedy


@dataclass
class AdversaryResult:
    """The worst member, its linear proxy objective and the proxy's weights.

    ``rows`` are the flat rows s * A + a the controller plays at non-goal
    states, ascending; ``weights`` holds w(s, a, s') for every edge of those
    rows, row after row, successors ascending (the edge order of
    ``model.edges``).
    """

    worst_case: ConcretePomdp
    proxy_objective: float
    rows: np.ndarray
    weights: np.ndarray


def select_worst_case(model: RobustPomdp, fsc: Fsc, values: RobustValues) -> AdversaryResult:
    """Pick the member of the uncertainty set that is worst for ``fsc``.

    The memory-node sum runs over the terms of the chain the values were
    computed on (nodes the controller actually reaches at each state); goal
    states expand no terms and goal successors have value zero.  The proxy
    objective is the maximized linear value, an upper-bound surrogate for
    the true cost increase of re-running evaluation on the returned member.
    """
    chain, e = values.chain, model.edges
    if not (chain.fsc.initial_node == fsc.initial_node and np.array_equal(chain.fsc.action_map, fsc.action_map)
            and np.array_equal(chain.fsc.memory_map, fsc.memory_map)):
        raise ValueError("values were computed for a different controller")
    weight = np.bincount(chain.term_edge, chain.term_weight * values.values[chain.term_succ], len(e.succ))

    # every row the controller touches, solved in one segmented greedy call
    touched = np.unique(e.row[chain.term_edge])
    edges, counts = e.of_rows(touched)
    offsets = np.concatenate([[0], np.cumsum(counts)])
    objective, probs = box_simplex_greedy(weight[edges], e.lo[edges], e.hi[edges], offsets, maximize=True)
    worst = nominal_midpoint(model).edges.lo  # a fresh table; rows not touched stay at the midpoint
    worst[edges] = probs
    return AdversaryResult(
        worst_case=member_with(model, worst),
        proxy_objective=float(objective.sum()),
        rows=touched,
        weights=weight[edges],
    )
