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

from robustfsc.model import ConcretePomdp, Fsc, RobustPomdp, nominal_midpoint, with_transitions
from robustfsc.robusteval import RobustValues, box_simplex_greedy, check_boxes


@dataclass
class AdversaryResult:
    worst_case: ConcretePomdp
    proxy_objective: float
    coefficients: dict[tuple[int, int], dict[int, float]]


def select_worst_case(model: RobustPomdp, fsc: Fsc, values: RobustValues) -> AdversaryResult:
    """Pick the member of the uncertainty set that is worst for ``fsc``.

    The memory-node sum runs over the product states materialized in the
    chain the values were computed on (nodes the controller actually reaches
    at each state); goal successors count as zero.  The proxy objective is
    the maximized linear value, an upper-bound surrogate for the true cost
    increase of re-running evaluation on the returned member.
    """
    chain = values.chain

    def successor_value(sp: int, node: int) -> float:
        idx = chain.index_of.get((sp, node))
        if idx is not None:
            return float(values.values[idx])
        if sp in model.goals:
            return 0.0
        raise KeyError(
            f"product state ({sp}, {node}) missing from the evaluated chain"
        )

    coeffs: dict[tuple[int, int], dict[int, float]] = {}
    for s, n in chain.state_pairs:
        z = int(model.obs_of[s])
        n_next = int(fsc.memory_map[n, z])
        for a in range(model.num_actions):
            d = float(fsc.action_map[n, z, a])
            if d == 0.0:
                continue
            row = model.row(s, a)
            table = coeffs.setdefault((s, a), {sp: 0.0 for sp in row})
            for sp in row:
                table[sp] += d * successor_value(sp, n_next)

    # every row the controller touches, solved in one segmented greedy call
    succs = {key: sorted(model.transitions[key]) for key in sorted(model.transitions) if key in coeffs}
    edges = [(key, sp) for key, row in succs.items() for sp in row]
    lo = np.array([model.transitions[key][sp].lo for key, sp in edges])
    hi = np.array([model.transitions[key][sp].hi for key, sp in edges])
    w = np.array([coeffs[key][sp] for key, sp in edges])
    offsets = np.cumsum([0] + [len(row) for row in succs.values()])
    check_boxes(lo, hi, offsets)
    objective, probs = box_simplex_greedy(w, lo, hi, offsets, maximize=True)
    worst_rows: dict[tuple[int, int], dict[int, float]] = {key: {} for key in succs}
    for (key, sp), p in zip(edges, probs):
        worst_rows[key][sp] = float(p)

    baseline = nominal_midpoint(model)
    transitions = {
        key: worst_rows[key] if key in worst_rows else dict(baseline.transitions[key])
        for key in sorted(model.transitions)
    }
    proxy = float(objective.sum())

    worst = with_transitions(model, transitions)
    return AdversaryResult(worst_case=worst, proxy_objective=proxy, coefficients=coeffs)


def proxy_objective_of(result: AdversaryResult, member: ConcretePomdp) -> float:
    """Evaluate the linear proxy at an arbitrary member of the set."""
    total = 0.0
    for key, table in result.coefficients.items():
        row = member.transitions[key]
        for sp, w in table.items():
            total += row[sp] * w
    return total
