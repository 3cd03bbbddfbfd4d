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
    act n z a p        one line per positive action probability
    mem n z n'

Both formats are whitespace-delimited; ``#`` starts a comment.  Serialization
is canonical (fixed section order, sorted indices, shortest round-tripping
float representation), so serialize(parse(serialize(x))) == serialize(x).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from robustfsc.model import ConcretePomdp, Fsc, Interval, RobustPomdp, validate

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
    format_version: str
    model: RobustPomdp

    @property
    def name(self) -> str:
        return self.model.name


def _fmt(x: float) -> str:
    """Shortest decimal string that round-trips the float64 exactly."""
    return np.format_float_positional(x, unique=True, trim="0")


def _fmt_all(values: np.ndarray) -> list[str]:
    """``_fmt`` of every entry, formatting each distinct value (by bits: -0.0 is not 0.0) once."""
    bits, inverse = np.unique(np.asarray(values, dtype=np.float64).view(np.int64), return_inverse=True)
    texts = [_fmt(x) for x in bits.view(np.float64).tolist()]
    return [texts[i] for i in inverse.tolist()]


def _tokens(text: str):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield line_no, line.split()


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


def parse_model(text: str) -> ModelDocument:
    """Parse and fully validate a model document."""
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

    model = RobustPomdp(
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
    report = validate(model)
    if not report.ok:
        raise ModelFormatError(0, f"model invalid:\n{report}")
    return ModelDocument(format_version="v1", model=model)


def serialize_model(doc: ModelDocument | RobustPomdp | ConcretePomdp) -> str:
    """Canonical document of a model; a member's probabilities become point intervals."""
    model = doc.model if isinstance(doc, ModelDocument) else doc
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
    keys = sorted(model.cost)
    costs = _fmt_all(np.array([model.cost[key] for key in keys], dtype=np.float64))
    out += [f"cost {s} {a} {text}" for (s, a), text in zip(keys, costs)]
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
    transitions = {
        (s, a): {int(sp): Interval(float(lo[s, a, sp]), float(hi[s, a, sp])) for sp in np.flatnonzero(hi[s, a] > 0.0)}
        for s in range(ns) for a in range(na) if np.any(hi[s, a] > 0.0)
    }
    cost_map = {(s, a): float(cost[s, a]) for s in range(ns) for a in range(na)}
    model = RobustPomdp(
        num_states=ns,
        num_actions=na,
        num_observations=int(np.max(obs_of)) + 1,
        obs_of=np.asarray(obs_of, dtype=np.int64),
        transitions=transitions,
        cost=cost_map,
        goals=frozenset(int(g) for g in goals),
        initial_belief=np.asarray(initial_belief, dtype=np.float64),
        name=name,
    )
    report = validate(model)
    if not report.ok:
        raise ValueError(f"imported arrays form an invalid model:\n{report}")
    return model


def parse_fsc(text: str) -> Fsc:
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
    for line_no, n, z, a, p in act_lines:
        if not (0 <= n < num_nodes):
            raise ModelFormatError(line_no, f"act: unknown node {n}")
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


def serialize_fsc(fsc: Fsc) -> str:
    out = [FSC_HEADER, f"nodes {fsc.num_nodes}", f"init {fsc.initial_node}"]
    n_of, z_of, a_of = np.nonzero(fsc.action_map)  # nodes, then observations, then actions
    probs = _fmt_all(fsc.action_map[n_of, z_of, a_of])
    out += [f"act {n} {z} {a} {text}"
            for n, z, a, text in zip(n_of.tolist(), z_of.tolist(), a_of.tolist(), probs)]
    out += [f"mem {n} {z} {m}" for (n, z), m in np.ndenumerate(fsc.memory_map)]
    return "\n".join(out) + "\n"
