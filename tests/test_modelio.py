import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import FUZZ_OPS, mutate, random_fsc, random_rpomdp
from oracles import interval_rows, parse_fsc_reference, parse_model_reference
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import Fsc, Interval, sample_member
from robustfsc.modelio import (
    ModelFormatError,
    _fmt,
    parse_fsc,
    parse_model,
    serialize_concrete,
    serialize_fsc,
    serialize_model,
)
from robustfsc.robusteval import build_chain, robust_value_iteration

MINIMAL = """\
rpomdp v1
# a two-state chain with an uncertain self-loop
states 2
actions 1
observations 2
obs 0 0
obs 1 1
trans 0 0 0 0.4 0.6
trans 0 0 1 0.4 0.6
trans 1 0 1 1.0 1.0
cost 0 0 1.0
cost 1 0 0.0
goal 1
init 0 1.0
"""

# action 0 leaves for the goal with probability in [0.4, 0.7], action 1 stays
TWO_ACTIONS = """\
rpomdp v1
states 2
actions 2
observations 2
obs 0 0
obs 1 1
trans 0 0 0 0.3 0.6
trans 0 0 1 0.4 0.7
trans 0 1 0 1.0 1.0
trans 1 0 1 1.0 1.0
trans 1 1 1 1.0 1.0
cost 0 0 1.0
cost 0 1 1.0
cost 1 0 0.0
cost 1 1 0.0
goal 1
init 0 1.0
"""

TWO_OBS_FSC = """\
fsc v1
nodes 1
init 0
act 0 0 0 1
act 0 1 1 1
mem 0 0 0
mem 0 1 0
"""


def test_parse_minimal_document():
    doc = parse_model(MINIMAL)
    assert doc.model.num_states == 2
    assert doc.model.goals == frozenset({1})
    assert interval_rows(doc.model)[(0, 0)][0].lo == 0.4


def test_roundtrip_is_canonical():
    doc = parse_model(MINIMAL)
    text = serialize_model(doc.model)
    assert serialize_model(parse_model(text).model) == text


def test_random_models_roundtrip_exactly():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m = random_rpomdp(rng)
        text = serialize_model(m)
        m2 = parse_model(text).model
        assert serialize_model(m2) == text
        assert interval_rows(m2) == interval_rows(m)
        assert np.array_equal(m2.obs_of, m.obs_of)


def test_zero_lower_bound_is_rejected_with_location():
    bad = MINIMAL.replace("trans 0 0 0 0.4 0.6", "trans 0 0 0 0 0.4")
    with pytest.raises(ModelFormatError) as err:
        parse_model(bad)
    assert "line 8" in str(err.value)
    assert "0 < lo" in str(err.value)


# rows whose boxes miss the probability simplex by more than 1e-12
LOWER_BOUNDS_ABOVE_ONE = MINIMAL.replace("trans 0 0 0 0.4 0.6", "trans 0 0 0 0.5000000005 0.6").replace(
    "trans 0 0 1 0.4 0.6", "trans 0 0 1 0.5 0.6")
POINTS_BELOW_ONE = MINIMAL.replace("trans 0 0 0 0.4 0.6", "trans 0 0 0 0.4 0.4").replace(
    "trans 0 0 1 0.4 0.6", "trans 0 0 1 0.5999999999 0.5999999999")


@pytest.mark.parametrize(
    "text, message",
    [(LOWER_BOUNDS_ABOVE_ONE, "sum of lower bounds"), (POINTS_BELOW_ONE, "sum of upper bounds")],
    ids=["lower-bounds-sum-to-1.0000000005", "point-intervals-sum-to-0.9999999999"],
)
def test_box_missing_the_simplex_is_rejected(text, message):
    with pytest.raises(ModelFormatError) as err:
        parse_model(text)
    assert message in str(err.value)


def test_unknown_state_is_rejected():
    bad = MINIMAL.replace("trans 1 0 1 1.0 1.0", "trans 1 0 7 1.0 1.0")
    with pytest.raises(ModelFormatError) as err:
        parse_model(bad)
    assert "unknown successor 7" in str(err.value)


def test_syntax_error_cites_line():
    bad = MINIMAL.replace("cost 0 0 1.0", "cost 0 1.0")
    with pytest.raises(ModelFormatError) as err:
        parse_model(bad)
    assert "line" in str(err.value)


def test_missing_observation_rejected():
    bad = MINIMAL.replace("obs 1 1\n", "")
    with pytest.raises(ModelFormatError):
        parse_model(bad)


@pytest.mark.parametrize(
    "text",
    [
        "rpomdp v1\nstates 100000000000\nactions 1\nobservations 1\nobs 0 0\n",
        MINIMAL.replace("actions 1", "actions 100000000000"),
        # each state emits one observation, so more symbols could never occur
        MINIMAL.replace("observations 2", "observations 100000000000"),
        MINIMAL.replace("observations 2", "observations 3"),
    ],
    ids=["states-without-obs-lines", "actions-without-cost-lines", "observations-above-states",
         "one-observation-too-many"],
)
def test_unfillable_model_sizes_rejected(text):
    with pytest.raises(ModelFormatError) as err:
        parse_model(text)
    assert err.value.line_no == 0


def test_a_missing_cost_line_is_rejected():
    # every row has a cost: a document that leaves one out fails before any row is read
    with pytest.raises(ModelFormatError, match="2 states x 2 actions need one cost line each") as err:
        parse_model(TWO_ACTIONS.replace("cost 0 1 1.0\n", ""))
    assert err.value.line_no == 0


def serialize_model_per_entry(model):
    """The model document with every number formatted on its own."""
    e = model.edges
    out = ["rpomdp v1"] + ([f"name {model.name}"] if model.name else [])
    out += [f"states {model.num_states}", f"actions {model.num_actions}",
            f"observations {model.num_observations}"]
    out += [f"obs {s} {int(z)}" for s, z in enumerate(model.obs_of)]
    for row, sp, lo, hi in zip(e.row.tolist(), e.succ.tolist(), e.lo.tolist(), e.hi.tolist()):
        s, a = divmod(row, model.num_actions)
        out.append(f"trans {s} {a} {sp} {_fmt(lo)} {_fmt(hi)}")
    out += [f"cost {r // model.num_actions} {r % model.num_actions} {_fmt(c)}" for r, c in enumerate(e.cost.tolist())]
    out += [f"goal {g}" for g in sorted(model.goals)]
    out += [f"init {int(s)} {_fmt(float(model.initial_belief[s]))}"
            for s in np.flatnonzero(model.initial_belief)]
    return "\n".join(out) + "\n"


def test_serialize_formats_like_per_entry_fmt():
    grid = generate_grid(GridSpec(4, 4, "intercept"), 3)
    member = sample_member(grid, 5)
    probs = member.edges.lo[member.edges.lo < 1.0]
    assert len(np.unique(probs)) == len(probs)  # every uncertain probability distinct
    for model in (grid, member):
        assert serialize_model(model) == serialize_model_per_entry(model)
    signed = parse_model(MINIMAL.replace("cost 1 0 0.0", "cost 1 0 -0.0")).model
    assert "cost 1 0 -0.0" in serialize_model(signed)
    assert serialize_model(signed) == serialize_model_per_entry(signed)


def test_serialize_concrete_uses_point_intervals():
    from robustfsc.model import nominal_midpoint

    doc = parse_model(MINIMAL)
    member = nominal_midpoint(doc.model)
    text = serialize_concrete(member)
    m2 = parse_model(text).model
    for key, row in interval_rows(m2).items():
        for sp, iv in row.items():
            assert iv.lo == iv.hi == pytest.approx(member.transitions[key][sp])


def test_array_import_shim():
    from robustfsc.modelio import model_from_arrays

    lo = np.zeros((2, 1, 2))
    hi = np.zeros((2, 1, 2))
    lo[0, 0] = [0.4, 0.4]
    hi[0, 0] = [0.6, 0.6]
    lo[1, 0, 1] = hi[1, 0, 1] = 1.0
    model = model_from_arrays(
        lo, hi, cost=np.array([[1.0], [0.0]]), obs_of=np.array([0, 1]),
        goals={1}, initial_belief=np.array([1.0, 0.0]),
    )
    assert interval_rows(model)[(0, 0)][0] == Interval(0.4, 0.6)
    assert serialize_model(parse_model(serialize_model(model)).model) == serialize_model(model)
    with pytest.raises(ValueError):
        model_from_arrays(lo[:, :, :1], hi, np.array([[1.0], [0.0]]),
                          np.array([0, 1]), {1}, np.array([1.0, 0.0]))


# ---------------------------------------------------------------------------
# differential fuzz: mutated documents parse as a line-by-line reading does

FUZZ_DOCUMENTS = [serialize_model(generate_grid(spec, 1)) for spec in (
    GridSpec(3, 3, "avoid"), GridSpec(3, 3, "evade", view_radius=0), GridSpec(3, 3, "intercept", view_radius=0))]
FUZZ_DOCUMENTS += [serialize_model(random_rpomdp(np.random.default_rng(seed))) for seed in range(4)] + [MINIMAL]
def parse_outcome(parse, text: str):
    """The model's fields bit for bit, or the error's type, message and line."""
    try:
        m = parse(text).model
    except Exception as err:  # the type is part of the outcome
        return type(err), str(err), getattr(err, "line_no", None)
    arrays = (m.obs_of, m.initial_belief, m.edges.offsets, m.edges.succ, m.edges.lo, m.edges.hi, m.edges.cost)
    return (m.name, m.num_states, m.num_actions, m.num_observations, sorted(m.goals),
            [(x.dtype.str, x.tobytes()) for x in arrays])


def test_fuzzed_documents_parse_like_the_line_by_line_reference():
    rng = np.random.default_rng(12)
    outcomes = []
    for _ in range(600):
        text = FUZZ_DOCUMENTS[rng.integers(len(FUZZ_DOCUMENTS))]
        choices = [(rng.integers(len(FUZZ_OPS)), *rng.integers(1 << 30, size=2)) for _ in range(rng.integers(1, 4))]
        mutant = mutate(text, choices)
        outcomes.append(parse_outcome(parse_model_reference, mutant))
        assert parse_outcome(parse_model, mutant) == outcomes[-1], (choices, mutant)
    # both sides are reached often, and the errors at many different checks
    assert sum(o[0] is ModelFormatError for o in outcomes) > 200
    assert sum(isinstance(o[0], str) for o in outcomes) > 100
    assert len({o[1] for o in outcomes if o[0] is ModelFormatError}) > 100


@pytest.mark.parametrize("lines, observation", [("obs 1 0\nobs 1 1\n", 1), ("obs 1 1\nobs 1 0\n", 0)])
def test_a_later_obs_line_overrides_an_earlier_one(lines, observation):
    text = MINIMAL.replace("obs 1 1\n", lines)
    assert parse_model(text).model.obs_of.tolist() == [0, observation]
    assert parse_outcome(parse_model, text) == parse_outcome(parse_model_reference, text)


def test_fuzzed_documents_parse_like_the_reference_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.sampled_from(FUZZ_DOCUMENTS),
        st.lists(st.tuples(st.integers(0, len(FUZZ_OPS) - 1), st.integers(0, 1 << 30), st.integers(0, 1 << 30)),
                 min_size=1, max_size=4),
    )
    def check(text, choices):
        mutant = mutate(text, choices)
        assert parse_outcome(parse_model, mutant) == parse_outcome(parse_model_reference, mutant)

    check()


class TestFscFormat:
    def test_dirac_single_node_roundtrip(self):
        fsc = Fsc(1, 0, np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.zeros((1, 2), dtype=int))
        text = serialize_fsc(fsc)
        back = parse_fsc(text)
        assert back.num_nodes == 1
        assert serialize_fsc(back) == text

    def test_distribution_survives_roundtrip(self):
        fsc = Fsc(2, 0, np.tile([[0.25, 0.75]], (2, 3, 1)), np.ones((2, 3), dtype=int))
        back = parse_fsc(serialize_fsc(fsc))
        assert np.max(np.abs(back.action_map - fsc.action_map)) < 1e-12
        assert np.array_equal(back.memory_map, fsc.memory_map)

    def test_random_fscs_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            fsc = random_fsc(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(2, 4)))
            text = serialize_fsc(fsc)
            back = parse_fsc(text)
            assert serialize_fsc(back) == text
            assert np.max(np.abs(back.action_map - fsc.action_map)) < 1e-15

    def test_node_out_of_range_rejected(self):
        fsc = Fsc(2, 0, np.tile([[1.0]], (2, 1, 1)), np.zeros((2, 1), dtype=int))
        text = serialize_fsc(fsc).replace("mem 1 0 0", "mem 1 0 5")
        with pytest.raises(ModelFormatError):
            parse_fsc(text)

    def test_narrow_controller_evaluates_like_full_width(self):
        # the document drops the never-played last action; build_chain reads it as probability zero
        model = parse_model(TWO_ACTIONS).model
        full = Fsc(1, 0, np.array([[[1.0, 0.0], [1.0, 0.0]]]), np.zeros((1, 2), dtype=int))
        narrow = parse_fsc(serialize_fsc(full))
        assert narrow.num_actions == 1
        for mode, want in (("pessimistic", 2.5), ("optimistic", 1.0 / 0.7)):
            values = [robust_value_iteration(build_chain(model, fsc), mode).at_initial for fsc in (narrow, full)]
            assert values[0] == values[1] == pytest.approx(want, rel=1e-12)
        wide = Fsc(1, 0, np.full((1, 2, 3), 1.0 / 3.0), np.zeros((1, 2), dtype=int))
        with pytest.raises(ValueError, match="controller plays 3 actions, model only has 2"):
            build_chain(model, wide)

    @pytest.mark.parametrize(
        "text, line",
        [
            ("fsc v1\nnodes\n", 2),
            (TWO_OBS_FSC.replace("init 0", "init 0 0"), 3),
            (TWO_OBS_FSC.replace("act 0 0 0 1", "act 0 -1 0 1"), 4),
            (TWO_OBS_FSC.replace("act 0 0 0 1", "act 0 0 -1 1"), 4),
            (TWO_OBS_FSC.replace("mem 0 1 0", "mem 0 -1 0"), 7),
            ("fsc v1\nnodes 1\ninit 0\nact 0 0 0 nan\nmem 0 0 0\n", 4),
            ("fsc v1\nnodes 1\ninit 0\nact 0 0 0 -0.5\nmem 0 0 0\n", 4),
            ("fsc v1\nnodes 1\ninit 0\nact 0 0 0 2\nmem 0 0 0\n", 4),
            ("fsc v1\nnodes 1\ninit 0\nact 0 0 0 1.5\nmem 0 0 0\n", 4),
            ("fsc v1\nnodes 100000000000\ninit 0\nact 0 0 0 1\nmem 0 0 0\n", 0),
            ("fsc v1\nnodes 1\ninit 0\nact 0 100000000000 0 1\nmem 0 0 0\n", 0),
            # no line count bounds the action index: 1e11 actions would
            # need a 745 GiB table
            ("fsc v1\nnodes 1\ninit 0\nact 0 0 100000000000 1\nmem 0 0 0\n", 4),
            # the two halves of a repeated entry once added up to probability 1
            (TWO_OBS_FSC.replace("act 0 0 0 1\n", "act 0 0 0 0.5\nact 0 0 0 0.5\n"), 5),
        ],
        ids=["nodes-arity", "init-arity", "act-negative-observation",
             "act-negative-action", "mem-negative-observation", "act-nan-probability",
             "act-negative-probability", "act-probability-two", "act-probability-one-and-a-half",
             "nodes-without-mem-lines", "observations-without-mem-lines",
             "act-huge-action", "act-repeated-entry"],
    )
    def test_malformed_line_rejected_with_line_number(self, text, line):
        assert parse_fsc(TWO_OBS_FSC).num_observations == 2
        with pytest.raises(ModelFormatError) as err:
            parse_fsc(text)
        assert err.value.line_no == line

    def test_probability_over_one_rejected_at_its_act_line_within_tolerance(self):
        text = "fsc v1\nnodes 1\ninit 0\nact 0 0 0 {}\nmem 0 0 0\n"
        for parse in (parse_fsc, parse_fsc_reference):
            with pytest.raises(ModelFormatError, match="act: probability 2.0 exceeds 1$") as err:
                parse(text.format(2))
            assert err.value.line_no == 4
            # Fsc.check accepts a sum within PROB_TOL of one, and so does the act line
            assert parse(text.format("1.0000000001")).action_map[0, 0, 0] == 1.0000000001

    @pytest.mark.parametrize("prob", ["nan", "inf", "-inf"])
    def test_non_finite_probability_rejected_at_its_act_line(self, prob):
        text = TWO_OBS_FSC.replace("act 0 1 1 1", f"act 0 1 1 {prob}")
        with pytest.raises(ModelFormatError, match=f"act: non-finite probability {float(prob)}$") as err:
            parse_fsc(text)
        assert err.value.line_no == 5
        with pytest.raises(ModelFormatError, match="non-finite") as err:
            parse_fsc_reference(text)
        assert err.value.line_no == 5


# ---------------------------------------------------------------------------
# differential fuzz: mutated controllers parse as a line-by-line reading does

FSC_FUZZ_DOCUMENTS = [TWO_OBS_FSC] + [
    serialize_fsc(random_fsc(np.random.default_rng(seed), nodes, observations, actions))
    for seed, (nodes, observations, actions) in enumerate([(1, 2, 2), (2, 2, 3), (3, 2, 2), (2, 3, 4)])]


def fsc_outcome(parse, text: str):
    """The controller's fields bit for bit, or the error's type, message and line."""
    try:
        fsc = parse(text)
    except Exception as err:  # the type is part of the outcome
        return type(err), str(err), getattr(err, "line_no", None)
    return (fsc.num_nodes, fsc.initial_node,
            [(x.dtype.str, x.shape, x.tobytes()) for x in (fsc.action_map, fsc.memory_map)])


def test_fuzzed_controllers_parse_like_the_line_by_line_reference():
    rng = np.random.default_rng(14)
    outcomes = []
    for _ in range(800):
        text = FSC_FUZZ_DOCUMENTS[rng.integers(len(FSC_FUZZ_DOCUMENTS))]
        choices = [(rng.integers(len(FUZZ_OPS)), *rng.integers(1 << 30, size=2)) for _ in range(rng.integers(1, 4))]
        mutant = mutate(text, choices)
        outcomes.append(fsc_outcome(parse_fsc_reference, mutant))
        assert fsc_outcome(parse_fsc, mutant) == outcomes[-1], (choices, mutant)
    # both sides are reached often, and the errors at many different checks
    assert sum(o[0] is ModelFormatError for o in outcomes) > 300
    assert sum(isinstance(o[0], int) for o in outcomes) > 100
    assert len({o[1] for o in outcomes if o[0] is ModelFormatError}) > 150


def test_fuzzed_controllers_parse_like_the_reference_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.sampled_from(FSC_FUZZ_DOCUMENTS),
        st.lists(st.tuples(st.integers(0, len(FUZZ_OPS) - 1), st.integers(0, 1 << 30), st.integers(0, 1 << 30)),
                 min_size=1, max_size=4),
    )
    def check(text, choices):
        mutant = mutate(text, choices)
        assert fsc_outcome(parse_fsc, mutant) == fsc_outcome(parse_fsc_reference, mutant)

    check()


@pytest.mark.parametrize("lines, successor", [("mem 0 1 1\nmem 0 1 0\n", 0), ("mem 0 1 0\nmem 0 1 1\n", 1)])
def test_a_later_mem_line_overrides_an_earlier_one(lines, successor):
    two_nodes = TWO_OBS_FSC.replace("nodes 1", "nodes 2") + "act 1 0 0 1\nact 1 1 0 1\nmem 1 0 1\nmem 1 1 1\n"
    text = two_nodes.replace("mem 0 1 0\n", lines)
    assert parse_fsc(text).memory_map.tolist() == [[0, successor], [1, 1]]
    assert fsc_outcome(parse_fsc, text) == fsc_outcome(parse_fsc_reference, text)


def test_loading_a_document_imports_neither_scipy_nor_the_trainer():
    code = ("import sys, robustfsc.modelio, robustfsc.grids; "
            "print(sorted(m for m in ('scipy', 'robustfsc.rnn') if m in sys.modules))")
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
