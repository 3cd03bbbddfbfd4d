"""Shared random-instance builders and checks for the test suite."""

from __future__ import annotations

import numpy as np

from oracles import from_rows
from robustfsc.extract import build_fsc, collect_hidden_states, kmeans_fit
from robustfsc.model import Fsc, Interval, RobustPomdp
from robustfsc.rnn import init_params
from robustfsc.simulate import Episode, Step, TrajectoryDataset


def random_rpomdp(
    rng: np.random.Generator,
    num_states: int | None = None,
    num_actions: int | None = None,
    degenerate: bool = False,
    max_width: float = 0.5,
) -> RobustPomdp:
    """Dense random interval model with one absorbing goal state.

    Every non-goal row supports all states with positive lower bounds, so
    goals are reachable from everywhere and every member is proper.
    """
    ns = int(num_states if num_states is not None else rng.integers(2, 5))
    na = int(num_actions if num_actions is not None else rng.integers(1, 4))
    nz = int(rng.integers(1, ns + 1))
    goal = ns - 1
    obs_of = rng.integers(0, nz, size=ns)

    transitions = {}
    cost = {}
    for s in range(ns):
        for a in range(na):
            if s == goal:
                transitions[(s, a)] = {s: Interval(1.0, 1.0)}
                cost[(s, a)] = 0.0
                continue
            base = rng.dirichlet(np.ones(ns))
            base = np.maximum(base, 1e-3)
            base /= base.sum()
            row = {}
            for sp in range(ns):
                if degenerate:
                    row[sp] = Interval(float(base[sp]), float(base[sp]))
                else:
                    down = float(rng.uniform(0.0, max_width))
                    up = float(rng.uniform(0.0, max_width))
                    row[sp] = Interval(float(base[sp] * (1.0 - down)),
                                       float(min(1.0, base[sp] * (1.0 + up))))
            transitions[(s, a)] = row
            cost[(s, a)] = float(rng.uniform(0.5, 2.0))

    belief = rng.dirichlet(np.ones(ns))
    return from_rows(
        RobustPomdp,
        num_states=ns, num_actions=na, num_observations=nz,
        obs_of=obs_of, transitions=transitions, cost=cost,
        goals=frozenset({goal}), initial_belief=belief,
    )


def prune_unreachable_nodes(fsc: Fsc, realizable_obs: list[int]) -> Fsc:
    """Drop nodes not reachable from the initial node via the memory update.

    Reachability only follows observations that actually occur in the model;
    surviving nodes are reindexed densely in discovery order.
    """
    reachable = [fsc.initial_node]
    for n in reachable:  # breadth first: the list grows while it is read
        for z in realizable_obs:
            if int(fsc.memory_map[n, z]) not in reachable:
                reachable.append(int(fsc.memory_map[n, z]))
    if reachable == list(range(fsc.num_nodes)):
        return fsc
    new_of = np.full(fsc.num_nodes, -1)
    new_of[reachable] = np.arange(len(reachable))
    memory_map = new_of[fsc.memory_map[reachable]]
    # Non-realizable observations may point at pruned nodes; redirect them
    # to the source node so the map stays total.
    memory_map = np.where(memory_map < 0, np.arange(len(reachable))[:, None], memory_map)
    return Fsc(len(reachable), 0, fsc.action_map[reachable], memory_map)


def random_fsc(rng: np.random.Generator, num_nodes: int, num_obs: int, num_actions: int) -> Fsc:
    """Random stochastic controller, pruned to its reachable nodes."""
    action_map = rng.dirichlet(np.ones(num_actions), size=(num_nodes, num_obs))
    memory_map = rng.integers(0, num_nodes, size=(num_nodes, num_obs))
    fsc = Fsc(num_nodes, 0, action_map, memory_map)
    return prune_unreachable_nodes(fsc, list(range(num_obs)))


def kmeans_controller(model, clusters=4):
    """Controller extracted by k-means from an untrained network fed random
    observation sequences."""
    params = init_params(model.num_observations, model.num_actions, hidden_size=8, embed_size=4, rng_seed=3)
    rng = np.random.default_rng(36)
    episodes = [Episode([Step(int(z), 0) for z in rng.choice(model.realizable_observations(), 12)])
                for _ in range(16)]
    dataset = TrajectoryDataset(episodes, model.num_observations, model.num_actions)
    return build_fsc(params, kmeans_fit(collect_hidden_states(params, dataset), clusters, rng_seed=0), model)


def random_feasible_boxes(rng: np.random.Generator, n: int, degenerate: bool = False):
    """(lo, hi) arrays whose box intersects the simplex, all lo > 0."""
    base = np.maximum(rng.dirichlet(np.ones(n)), 1e-3)
    base /= base.sum()
    if degenerate:
        return base.copy(), base.copy()
    lo = base * (1.0 - rng.uniform(0.0, 0.9, size=n))
    hi = np.minimum(1.0, base * (1.0 + rng.uniform(0.0, 0.9, size=n)))
    return lo, hi


def assert_fields_view_flat(p):
    """Every named field lives in ``p.flat``, and together they cover it."""
    for name, shape in p.layout:
        field = getattr(p, name)
        assert field.shape == shape
        assert np.shares_memory(field, p.flat), name
    assert sum(getattr(p, name).size for name, _ in p.layout) == p.flat.size


# ---------------------------------------------------------------------------
# mutations of text documents, for the parser fuzz tests

# replacement tokens: special floats, Python-only spellings, out-of-range,
# negative and oversized indices, garbage
FUZZ_TOKENS = ["nan", "inf", "-inf", "1e-400", "1e400", "1_0", "+1", "-0", "0x1", "-1", "0", "1", "2", "7",
               "0.5", "100000000000", "1" + "0" * 30, "x", "trans", "obs"]
# a replaced token reaches the most checks, so it is drawn three times as often
FUZZ_OPS = ["drop", "duplicate", "variant", "swap", "shuffle", "token", "token", "token", "missing", "extra", "tabs",
            "indent", "blank", "crlf"]


def mutate(text: str, choices) -> str:
    """Apply each (operation index, a, b) of ``choices`` to the document's
    lines: a picks a line and, divided by the line count, a replacement
    token; b picks a second line, a token position or a shuffle seed."""
    lines, newline = text.splitlines(), "\n"
    for op, a, b in choices:
        if not lines:
            break
        op, i, j = FUZZ_OPS[op], a % len(lines), b % len(lines)
        toks = lines[i].split()
        token = FUZZ_TOKENS[a // len(lines) % len(FUZZ_TOKENS)]
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(j, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "shuffle":
            lines[1:] = [lines[1:][k] for k in np.random.default_rng(b).permutation(len(lines) - 1)]
        elif op == "crlf":
            newline = "\r\n"
        elif op == "blank":
            lines.insert(j, ["", "   ", "# a comment", "\t"][b % 4])
        elif toks and op in ("token", "variant"):
            toks[b % len(toks)] = token
        elif toks and op == "missing":
            del toks[b % len(toks)]
        elif op == "extra":
            toks.insert(b % (len(toks) + 1), token)
        elif op == "tabs":
            lines[i] = "\t".join(toks)
        elif op == "indent":
            lines[i] = "  " + lines[i] + "  # trailing comment"
        if op in ("token", "missing", "extra"):
            lines[i] = " ".join(toks)
        elif op == "variant":  # a second line for the same entry, one token changed
            lines.insert(j, " ".join(toks))
    return newline.join(lines) + newline
