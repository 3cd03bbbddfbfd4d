"""Line-oriented text format for uncertain POMDP models and controllers.

Model documents::

    rpomdp v1
    # optional
    name <identifier>
    states N
    actions N
    observations N
    obs s z            one line per state
    trans s a s' lo hi one line per stored transition (lo=hi allowed)
    cost s a c
    goal s
    init s p           initial-belief entries, omitted entries are zero

Controller documents::

    fsc v1
    nodes K
    init n
    act n z a p        one line per positive action probability, none repeated
    mem n z n'         one line per (n, z); a later line overrides an earlier one

Both formats are whitespace-delimited; ``#`` starts a comment, and one
directive reader (``_read``) reads both.  Serialization is canonical (fixed
section order, sorted indices, shortest round-tripping float
representation), so serialize(parse(serialize(x))) == serialize(x).
A model document is read into, and written from, the model's edge table
(``model.edges``) directly; no per-transition objects are built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from robustfsc.model import PROB_TOL, ConcretePomdp, Edges, Fsc, RobustPomdp, validate

MODEL_HEADER = "rpomdp v1"
FSC_HEADER = "fsc v1"
# nodes x observations x actions of the largest dense action table a
# controller document may ask for (512 MiB of float64); the action count
# comes from the largest index alone, so no line count bounds it
MAX_FSC_ENTRIES = 1 << 26


class ModelFormatError(ValueError):
    """Syntax or semantic error in a model/FSC document, with a line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


@dataclass
class ModelDocument:
    """A parsed model document: its model (the header fixes the format version)."""

    model: RobustPomdp


def _fmt(x: float) -> str:
    """Shortest decimal string that round-trips the float64 exactly."""
    return np.format_float_positional(x, unique=True, trim="0")


def _fmt_all(values: np.ndarray) -> list[str]:
    """``_fmt`` of every entry, formatting each distinct value (by bits: -0.0 is not 0.0) once."""
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.int64), return_inverse=True)
    texts = [_fmt(x) for x in bits.view(np.float64).tolist()]
    return [texts[i] for i in inverse.tolist()]


def _tokens(text: str):
    """(line number, tokens) of each line that has tokens once its comment is cut."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        toks = raw.partition("#")[0].split()
        if toks:
            yield line_no, toks


def _index(tok: str) -> int:
    """``int`` of an index column, where a negative value is rejected too."""
    value = int(tok)
    if value < 0:
        raise ValueError(value)
    return value


# directive -> its usage message and each argument's conversion and name
_MODEL_DIRECTIVES = {
    "name": ("name takes one identifier", ((str, "name"),)),
    "states": ("states takes one count", ((int, "states"),)),
    "actions": ("actions takes one count", ((int, "actions"),)),
    "observations": ("observations takes one count", ((int, "observations"),)),
    "obs": ("obs takes: state observation", ((int, "state"), (int, "observation"))),
    "trans": ("trans takes: state action successor lo hi",
              ((int, "state"), (int, "action"), (int, "successor"), (float, "lo"), (float, "hi"))),
    "cost": ("cost takes: state action cost", ((int, "state"), (int, "action"), (float, "cost"))),
    "goal": ("goal takes one state", ((int, "state"),)),
    "init": ("init takes: state probability", ((int, "state"), (float, "probability"))),
}
_FSC_DIRECTIVES = {
    "nodes": ("nodes takes one argument", ((int, "count"),)),
    "init": ("init takes one argument", ((int, "node"),)),
    "act": ("act takes: node observation action probability",
            ((int, "node"), (_index, "observation"), (_index, "action"), (float, "probability"))),
    "mem": ("mem takes: node observation successor", ((int, "node"), (_index, "observation"), (int, "successor"))),
}


def _rejection(convert, tok: str, what: str) -> str | None:
    """Why ``convert`` rejects the token, None if it accepts it."""
    try:
        value = (int if convert is _index else convert)(tok)
    except ValueError:
        return f"expected {'number' if convert is float else 'integer'} {what}, got {tok!r}"
    return f"negative {what} index {value}" if convert is _index and value < 0 else None


def _read(text: str, header: str, directives: dict) -> tuple[dict, dict]:
    """Each directive's line numbers, and each (directive, column)'s values.

    After the header, lines are grouped by directive, and each argument
    column is converted at once.  An error cites the line, and gives the
    message, that a line-by-line reading would stop at first: a line's
    usage is checked before its columns, and its columns in order.
    """
    lines = _tokens(text)
    line_no, toks = next(lines, (0, None))
    if toks is None:
        raise ModelFormatError(0, "empty document")
    if toks != header.split():
        raise ModelFormatError(line_no, f"expected header {header!r}")

    # per directive: line numbers and tokens, the directive's own included
    groups = {kind: ([], []) for kind in directives}
    arity = {kind: 1 + len(columns) for kind, (_, columns) in directives.items()}
    failures = []  # (line, column, message)
    for line_no, toks in lines:
        if arity.get(toks[0]) != len(toks):
            usage = directives[toks[0]][0] if toks[0] in arity else f"unknown directive {toks[0]!r}"
            failures.append((line_no, -1, usage))
            break
        line_nos, tokens = groups[toks[0]]
        line_nos.append(line_no)
        tokens += toks
    cols = {}
    for kind, (line_nos, tokens) in groups.items():
        columns = directives[kind][1]
        for k, (convert, what) in enumerate(columns):
            col = tokens[k + 1::len(columns) + 1]
            try:
                cols[kind, k] = list(map(convert, col))
            except ValueError:
                failures.append(next((line_nos[j], k, message) for j, tok in enumerate(col)
                                     if (message := _rejection(convert, tok, what))))
    if failures:
        line_no, _, message = min(failures)
        raise ModelFormatError(line_no, message)
    return {kind: line_nos for kind, (line_nos, _) in groups.items()}, cols


def _ints(values: list[int]) -> np.ndarray:
    """``values`` as int64; those beyond its range become -1 or 2**62, out of range of any count."""
    try:
        return np.array(values, dtype=np.int64)
    except OverflowError:
        return np.array([min(max(v, -1), 1 << 62) for v in values], dtype=np.int64)


def _outside(index: np.ndarray, bound: int) -> np.ndarray:
    """Whether each index falls outside range(bound)."""
    return (index < 0) | (index >= bound)


def _repeats(keys: np.ndarray) -> np.ndarray:
    """Whether each key occurred before."""
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return repeat


def _first_failure(line_nos: list[int], checks) -> None:
    """Raise at the first line failing one of ``checks``, (failed per line,
    message of line j) in the order a line is checked, with the message of
    the first check that line fails."""
    failed = np.logical_or.reduce([f for f, _ in checks])
    if failed.any():
        j = int(np.argmax(failed))
        raise ModelFormatError(line_nos[j], next(message(j) for f, message in checks if f[j]))


def parse_model(text: str) -> ModelDocument:
    """Parse and fully validate a model document into its edge table.

    Each argument column is converted at once with Python's ``int``/``float``
    (``_read``); the range, interval and duplicate checks then run on the
    columns.  An error cites the line, and gives the message, that a
    line-by-line reading would stop at first: the first line failing a step,
    for each step in the order a document is checked.
    """
    line_nos, cols = _read(text, MODEL_HEADER, _MODEL_DIRECTIVES)

    for key in ("states", "actions", "observations"):
        if not cols[key, 0]:
            raise ModelFormatError(0, f"missing {key} declaration")
        if cols[key, 0][-1] <= 0:
            raise ModelFormatError(0, f"{key} must be positive")
    ns, na, nz = (cols[key, 0][-1] for key in ("states", "actions", "observations"))
    # reject sizes the document cannot fill before allocating for them
    if nz > ns:
        raise ModelFormatError(0, f"{nz} observations exceed {ns} states, each of which emits one")
    if len(cols["obs", 0]) < ns:
        raise ModelFormatError(0, f"{ns} states need one obs line each")
    if len(cols["cost", 0]) < ns * na:
        raise ModelFormatError(0, f"{ns} states x {na} actions need one cost line each")

    values = [cols["obs", k] for k in range(2)]
    s, z = (_ints(v) for v in values)
    _first_failure(line_nos["obs"], [
        (_outside(s, ns), lambda j: f"obs: unknown state {values[0][j]}"),
        (_outside(z, nz), lambda j: f"obs: unknown observation {values[1][j]}"),
    ])
    obs_of = np.full(ns, -1, dtype=np.int64)
    last = len(s) - 1 - np.unique(s[::-1], return_index=True)[1]  # a state's last obs line wins
    obs_of[s[last]] = z[last]
    missing = np.flatnonzero(obs_of < 0)
    if missing.size:
        raise ModelFormatError(0, f"state {int(missing[0])} has no observation")

    values = [cols["trans", k] for k in range(5)]
    s, a, sp = (_ints(values[k]) for k in range(3))
    lo, hi = (np.array(values[k], dtype=np.float64) for k in (3, 4))
    unknown = _outside(s, ns), _outside(sp, ns), _outside(a, na)
    # an edge's key is unique to its (s, a, s'); a line with an unknown index gets a key of its own
    key = np.where(np.logical_or.reduce(unknown), -1 - np.arange(len(s)), (s * na + a) * ns + sp)
    _first_failure(line_nos["trans"], [
        (unknown[0], lambda j: f"trans: unknown state {values[0][j]}"),
        (unknown[1], lambda j: f"trans: unknown successor {values[2][j]}"),
        (unknown[2], lambda j: f"trans: unknown action {values[1][j]}"),
        (~((0.0 < lo) & (lo <= hi) & (hi <= 1.0)),
         lambda j: f"trans: interval [{values[3][j]}, {values[4][j]}] violates 0 < lo <= hi <= 1"),
        (_repeats(key), lambda j: f"trans: duplicate successor {values[2][j]}"),
    ])
    order = np.argsort(key, kind="stable")
    offsets = np.concatenate([[0], np.cumsum(np.bincount(s * na + a, minlength=ns * na))])

    pair = [cols["cost", k] for k in range(2)]
    s, a = (_ints(v) for v in pair)
    unknown = _outside(s, ns) | _outside(a, na)
    row = np.where(unknown, -1 - np.arange(len(s)), s * na + a)
    _first_failure(line_nos["cost"], [
        (unknown, lambda j: f"cost: unknown state/action ({pair[0][j]}, {pair[1][j]})"),
        (_repeats(row), lambda j: f"cost: duplicate entry for ({pair[0][j]}, {pair[1][j]})"),
    ])
    cost = np.empty(ns * na)
    cost[row] = cols["cost", 2]  # one line per row: no fewer (checked above), none twice

    goals = cols["goal", 0]
    g = _ints(goals)
    _first_failure(line_nos["goal"], [(_outside(g, ns), lambda j: f"goal: unknown state {goals[j]}")])

    init = cols["init", 0]
    b = _ints(init)
    _first_failure(line_nos["init"], [(_outside(b, ns), lambda j: f"init: unknown state {init[j]}")])
    belief = np.bincount(b, np.array(cols["init", 1], dtype=np.float64), ns).astype(np.float64, copy=False)

    model = RobustPomdp(
        num_states=ns,
        num_actions=na,
        num_observations=nz,
        obs_of=obs_of,
        goals=goals,
        initial_belief=belief,
        name=cols["name", 0][-1] if cols["name", 0] else "",
        edges=Edges(offsets, sp[order], lo[order], hi[order], cost),
    )
    report = validate(model)
    if not report.ok:
        raise ModelFormatError(0, f"model invalid:\n{report}")
    return ModelDocument(model)


def serialize_model(model: RobustPomdp) -> str:
    """Canonical document of a model; a member's probabilities become point intervals."""
    out = [MODEL_HEADER]
    if model.name:
        out.append(f"name {model.name}")
    out.append(f"states {model.num_states}")
    out.append(f"actions {model.num_actions}")
    out.append(f"observations {model.num_observations}")
    out += [f"obs {s} {z}" for s, z in enumerate(model.obs_of.tolist())]
    e = model.edges
    bounds = _fmt_all(np.concatenate([e.lo, e.hi]))
    s_of, a_of = np.divmod(e.row, model.num_actions)
    out += [f"trans {s} {a} {sp} {lo_text} {hi_text}"
            for s, a, sp, lo_text, hi_text in zip(s_of.tolist(), a_of.tolist(), e.succ.tolist(),
                                                  bounds[:len(e.succ)], bounds[len(e.succ):])]
    s_of, a_of = np.divmod(np.arange(len(e.cost)), model.num_actions)
    out += [f"cost {s} {a} {text}" for s, a, text in zip(s_of.tolist(), a_of.tolist(), _fmt_all(e.cost))]
    out += [f"goal {g}" for g in sorted(model.goals)]
    init = np.flatnonzero(model.initial_belief)
    out += [f"init {s} {text}" for s, text in zip(init.tolist(), _fmt_all(model.initial_belief[init]))]
    return "\n".join(out) + "\n"


def serialize_concrete(member: ConcretePomdp) -> str:
    """Serialize a concrete member as a model document with point intervals."""
    return serialize_model(member)


def model_from_arrays(
    lo: np.ndarray,
    hi: np.ndarray,
    cost: np.ndarray,
    obs_of: np.ndarray,
    goals,
    initial_belief: np.ndarray,
    name: str = "",
) -> RobustPomdp:
    """Import shim for dense interval-matrix dumps.

    ``lo`` and ``hi`` have shape (S, A, S'); a transition exists wherever
    hi > 0.  ``cost`` has shape (S, A).  The result is fully validated.
    """
    lo = np.asarray(lo, dtype=np.float64)
    hi = np.asarray(hi, dtype=np.float64)
    cost = np.asarray(cost, dtype=np.float64)
    if lo.shape != hi.shape or lo.ndim != 3 or lo.shape[0] != lo.shape[2]:
        raise ValueError("lo and hi must both have shape (S, A, S)")
    ns, na, _ = lo.shape
    if cost.shape != (ns, na):
        raise ValueError(f"cost must have shape ({ns}, {na})")
    present = (hi > 0.0).reshape(ns * na, ns)
    model = RobustPomdp(
        num_states=ns,
        num_actions=na,
        num_observations=int(np.max(obs_of)) + 1,
        obs_of=obs_of,
        goals=[int(g) for g in goals],
        initial_belief=initial_belief,
        name=name,
        edges=Edges(
            np.concatenate([[0], np.cumsum(present.sum(axis=1))]),
            np.nonzero(present)[1],
            lo.reshape(ns * na, ns)[present],
            hi.reshape(ns * na, ns)[present],
            cost.reshape(ns * na).copy(),
        ),
    )
    report = validate(model)
    if not report.ok:
        raise ValueError(f"imported arrays form an invalid model:\n{report}")
    return model


def parse_fsc(text: str) -> Fsc:
    """Parse and check a controller document, read as ``parse_model`` reads a model."""
    line_nos, cols = _read(text, FSC_HEADER, _FSC_DIRECTIVES)
    num_nodes = cols["nodes", 0][-1] if cols["nodes", 0] else 0
    if num_nodes <= 0:
        raise ModelFormatError(0, "missing or non-positive nodes declaration")
    initial = cols["init", 0][-1] if cols["init", 0] else -1
    if not (0 <= initial < num_nodes):
        raise ModelFormatError(0, "missing or out-of-range init declaration")

    act = [cols["act", k] for k in range(4)]
    mem = [cols["mem", k] for k in range(3)]
    if not act[0]:
        raise ModelFormatError(0, "controller declares no act entries")
    num_obs = 1 + max(act[1] + mem[1])
    num_act = 1 + max(act[2])
    if len(mem[0]) < num_nodes * num_obs:  # reject before allocating for them
        raise ModelFormatError(0, f"{num_nodes} nodes x {num_obs} observations need one mem line each")
    if num_nodes * num_obs * num_act > MAX_FSC_ENTRIES:
        raise ModelFormatError(
            line_nos["act"][act[2].index(num_act - 1)],
            f"act: action {num_act - 1} needs a {num_nodes} x {num_obs} x {num_act} action table, "
            f"over the {MAX_FSC_ENTRIES} entries a controller may have"
        )

    n, z, a = (_ints(v) for v in act[:3])
    unknown = _outside(n, num_nodes)
    # an entry's key is unique to its (n, z, a); a line with an unknown node gets a key of its own
    key = np.where(unknown, -1 - np.arange(len(n)), (n * num_obs + z) * num_act + a)
    prob = np.array(act[3], dtype=np.float64)
    _first_failure(line_nos["act"], [
        (unknown, lambda j: f"act: unknown node {act[0][j]}"),
        (_repeats(key), lambda j: f"act: duplicate entry for ({act[0][j]}, {act[1][j]}, {act[2][j]})"),
        (~np.isfinite(prob), lambda j: f"act: non-finite probability {act[3][j]}"),
        (prob < 0.0, lambda j: f"act: negative probability {act[3][j]}"),
        (prob > 1.0 + PROB_TOL, lambda j: f"act: probability {act[3][j]} exceeds 1"),
    ])
    action_map = np.zeros((num_nodes, num_obs, num_act), dtype=np.float64)
    np.add.at(action_map, (n, z, a), prob)

    n, z, m = (_ints(v) for v in mem)
    _first_failure(line_nos["mem"], [(
        _outside(n, num_nodes) | _outside(m, num_nodes),
        lambda j: f"mem: node reference out of range ({mem[0][j]} -> {mem[2][j]})",
    )])
    cell = n * num_obs + z
    last = len(cell) - 1 - np.unique(cell[::-1], return_index=True)[1]  # a cell's last mem line wins
    memory_map = np.full(num_nodes * num_obs, -1, dtype=np.int64)
    memory_map[cell[last]] = m[last]
    missing = np.flatnonzero(memory_map < 0)
    if missing.size:
        n, z = divmod(int(missing[0]), num_obs)
        raise ModelFormatError(0, f"missing mem entry for node {n} observation {z}")

    fsc = Fsc(num_nodes, initial, action_map, memory_map.reshape(num_nodes, num_obs))
    try:
        fsc.check()
    except ValueError as err:
        raise ModelFormatError(0, str(err)) from None
    return fsc


def serialize_fsc(fsc: Fsc) -> str:
    out = [FSC_HEADER, f"nodes {fsc.num_nodes}", f"init {fsc.initial_node}"]
    n_of, z_of, a_of = np.nonzero(fsc.action_map)  # nodes, then observations, then actions
    probs = _fmt_all(fsc.action_map[n_of, z_of, a_of])
    out += [f"act {n} {z} {a} {text}"
            for n, z, a, text in zip(n_of.tolist(), z_of.tolist(), a_of.tolist(), probs)]
    out += [f"mem {n} {z} {m}" for (n, z), m in np.ndenumerate(fsc.memory_map)]
    return "\n".join(out) + "\n"
