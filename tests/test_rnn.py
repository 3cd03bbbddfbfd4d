import numpy as np
import pytest

from conftest import FUZZ_OPS, assert_fields_view_flat, mutate
from oracles import central_differences, gradient_check, loss_and_grad_reference, scalar_gru_forward, sigmoid_reference
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import nominal_midpoint
from robustfsc.rnn import (
    PARAM_FIELDS,
    Adam,
    FlatParams,
    _loss_and_grad,
    _sigmoid,
    dense_backward,
    dense_forward,
    dense_layout,
    episode_batches,
    forward,
    init_params,
    initial_hidden,
    loss,
    params_from_text,
    params_to_text,
    train_epochs,
)
from robustfsc.simulate import Episode, Step, TrajectoryDataset, simulate
from robustfsc.solvers import DivergenceError, solve_fib


def make_dataset(num_eps, max_len, num_obs, num_actions, seed, constant_target=None):
    rng = np.random.default_rng(seed)
    episodes = []
    for _ in range(num_eps):
        length = int(rng.integers(1, max_len + 1))
        steps = []
        for _ in range(length):
            mu = constant_target if constant_target is not None else rng.dirichlet(np.ones(num_actions))
            steps.append(Step(int(rng.integers(num_obs)), int(rng.integers(num_actions)),
                              np.asarray(mu, dtype=float), np.ones(1)))
        episodes.append(Episode(steps, float(length), True))
    return TrajectoryDataset(episodes, num_obs, num_actions, seed, max_len, "test")


def episodes_of_lengths(lengths, num_obs, num_actions, seed):
    """Random episodes of the given lengths (zero allowed)."""
    rng = np.random.default_rng(seed)
    return [
        Episode([Step(int(rng.integers(num_obs)), int(rng.integers(num_actions)),
                      rng.dirichlet(np.ones(num_actions)), np.ones(1)) for _ in range(n)],
                float(n), n > 0)
        for n in lengths
    ]


def pack(episodes, num_obs, num_actions):
    return TrajectoryDataset(episodes, num_obs, num_actions, 0, max(map(len, episodes), default=0), "test")


def dataset_of_lengths(lengths, num_obs, num_actions, seed):
    return pack(episodes_of_lengths(lengths, num_obs, num_actions, seed), num_obs, num_actions)


class TestForward:
    def test_zero_params_halve_hidden_state(self):
        p = init_params(3, 2, hidden_size=5, embed_size=2, rng_seed=0).zeros_like()
        h = np.random.default_rng(1).standard_normal(5)
        h2, dist = forward(p, h, 0)
        assert np.allclose(h2, 0.5 * h)
        assert np.allclose(dist, 0.5)

    def test_distribution_normalized(self):
        rng = np.random.default_rng(2)
        p = init_params(4, 3, hidden_size=6, embed_size=3, rng_seed=2)
        h = initial_hidden(p)
        for z in range(4):
            h, dist = forward(p, h, z)
            assert abs(dist.sum() - 1.0) < 1e-12
            assert np.all(dist > 0)

    def test_matches_scalar_reimplementation(self):
        p = init_params(5, 2, hidden_size=3, embed_size=4, rng_seed=3)
        rng = np.random.default_rng(4)
        h = rng.standard_normal(3) * 0.3
        for z in (0, 2, 4):
            h_fast, dist_fast = forward(p, h, z)
            h_slow, dist_slow = scalar_gru_forward(p, h, z)
            assert np.max(np.abs(h_fast - np.array(h_slow))) < 1e-12
            assert np.max(np.abs(dist_fast - np.array(dist_slow))) < 1e-12
            h = h_fast

    def test_hidden_state_stays_bounded(self):
        rng = np.random.default_rng(5)
        p = init_params(3, 2, hidden_size=4, embed_size=2, rng_seed=5)
        h = rng.standard_normal(4) * 2.0
        for step in range(50):
            bound = max(np.abs(h).max(), 1.0)
            h, _ = forward(p, h, int(rng.integers(3)))
            assert np.abs(h).max() <= bound + 1e-12

    def test_orthogonal_recurrent_init(self):
        p = init_params(3, 2, hidden_size=16, embed_size=8, rng_seed=6)
        for name in ("u_r", "u_u", "u_h"):
            w = getattr(p, name)
            assert np.max(np.abs(w.T @ w - np.eye(16))) < 1e-8


class TestLoss:
    def test_uniform_anchor_is_log_num_actions(self):
        p = init_params(2, 4, hidden_size=4, embed_size=2, rng_seed=0).zeros_like()
        ds = make_dataset(3, 4, 2, 4, seed=1, constant_target=np.full(4, 0.25))
        assert loss(p, ds) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_dirac_match_gives_tiny_loss(self):
        # push one logit far up so the policy is a near-point mass
        p = init_params(1, 2, hidden_size=2, embed_size=2, rng_seed=0).zeros_like()
        p.head_b3[0] = 30.0
        ds = make_dataset(2, 3, 1, 2, seed=2, constant_target=np.array([1.0, 0.0]))
        assert loss(p, ds) < 1e-9

    def test_matches_direct_summation(self):
        p = init_params(4, 3, hidden_size=5, embed_size=3, rng_seed=7)
        ds = make_dataset(3, 4, 4, 3, seed=3)
        total = 0.0
        count = 0
        for zs, mus, length in zip(ds.observations, ds.targets, ds.lengths):
            h = initial_hidden(p)
            for z, mu in zip(zs[:length], mus[:length]):
                h, dist = forward(p, h, int(z))
                total -= float(mu @ np.log(dist))
                count += 1
        assert loss(p, ds) == pytest.approx(total / count, abs=1e-12)

    def test_empty_dataset(self):
        p = init_params(2, 2, 4, 2, rng_seed=0)
        ds = TrajectoryDataset([], 2, 2, 0, 5, "empty")
        assert loss(p, ds) == 0.0


class TestTraining:
    def test_zero_learning_rate_is_identity(self):
        p = init_params(3, 2, hidden_size=4, embed_size=2, rng_seed=1)
        ds = make_dataset(4, 5, 3, 2, seed=4)
        p2, _ = train_epochs(p, ds, epochs=3, lr=0.0, rng_seed=0)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(p, name), getattr(p2, name))

    def test_deterministic_given_seed(self):
        p = init_params(3, 2, hidden_size=4, embed_size=2, rng_seed=1)
        ds = make_dataset(6, 5, 3, 2, seed=5)
        _, trace_a = train_epochs(p, ds, epochs=5, batch_size=2, rng_seed=3)
        _, trace_b = train_epochs(p, ds, epochs=5, batch_size=2, rng_seed=3)
        assert trace_a == trace_b

    def test_converges_on_constant_target(self):
        # single episode with a fixed target distribution is exactly
        # representable; the loss should fall monotonically to near zero
        p = init_params(2, 3, hidden_size=4, embed_size=2, rng_seed=2)
        ds = make_dataset(1, 4, 2, 3, seed=6, constant_target=np.array([0.0, 1.0, 0.0]))
        _, trace = train_epochs(p, ds, epochs=50, batch_size=1, lr=0.1, rng_seed=0)
        assert len(trace) == 50
        assert trace[-1] < 0.01
        assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))

    def test_raises_on_nonfinite_loss(self):
        p = init_params(2, 2, hidden_size=3, embed_size=2, rng_seed=3)
        p.head_b3[0] = np.nan
        ds = make_dataset(2, 3, 2, 2, seed=7)
        with pytest.raises(DivergenceError):
            train_epochs(p, ds, epochs=1, rng_seed=0)

    def test_batches_cover_each_episode_once_per_epoch(self):
        ds = dataset_of_lengths([3, 1, 0, 2, 3], 2, 2, seed=9)
        batches = list(episode_batches(ds, epochs=2, batch_size=1, rng_seed=0))
        assert len(batches) == 8  # the empty episode's batches are skipped
        assert sum(n for *_, n in batches) == 2 * ds.num_steps


class TestEpisodeBatches:
    @staticmethod
    def assert_batches_match_padding(episodes, dims, epochs, batch_size, seed):
        """Every yield equals the arrays of a dataset packed from the episodes
        the epoch's permutation puts in that batch, in shape, dtype, layout
        and bits."""
        batches = iter(episode_batches(pack(episodes, *dims), epochs, batch_size, rng_seed=seed))
        rng = np.random.default_rng(seed)
        lengths = []
        for _ in range(epochs):
            order = rng.permutation(len(episodes))
            for lo in range(0, len(order), batch_size):
                batch = pack([episodes[i] for i in order[lo:lo + batch_size]], *dims)
                expected = (batch.observations, batch.targets, batch.mask)
                normalizer = float(expected[2].sum())
                if normalizer == 0.0:
                    continue
                *got, got_normalizer = next(batches)
                for a, b in zip(got, expected):
                    assert a.shape == b.shape and a.dtype == b.dtype
                    assert a.flags.c_contiguous
                    assert np.array_equal(a, b)
                assert got_normalizer == normalizer
                lengths.append(expected[0].shape[1])
        assert next(batches, None) is None
        return lengths

    def test_yields_equal_padding_of_the_same_rows(self):
        episodes = episodes_of_lengths([3, 0, 9, 1, 4, 0, 2, 5, 7, 1], 4, 3, seed=20)
        lengths = self.assert_batches_match_padding(episodes, (4, 3), epochs=3, batch_size=3, seed=5)
        # some batch is shorter than the longest episode of the dataset
        assert min(lengths) < 9 == max(lengths)

    def test_all_goal_dataset_yields_nothing(self):
        episodes = episodes_of_lengths([0, 0, 0, 0], 3, 2, seed=21)
        assert self.assert_batches_match_padding(episodes, (3, 2), epochs=2, batch_size=3, seed=1) == []


def fib_dataset(horizon=200, episodes=48):
    """FIB-supervised rollouts on the intercept 4x4 grid's midpoint member."""
    member = nominal_midpoint(generate_grid(GridSpec(4, 4, "intercept")))
    return simulate(member, solve_fib(member), num_episodes=episodes, horizon=horizon, rng_seed=(3, 0, 3))


class TestMatchesPerStepReference:
    """Whole-sequence BPTT returns, bit for bit, what the step-by-step loop
    it replaced returns: the same loss and the same gradient vector."""

    @staticmethod
    def assert_same(params, ds, want_grad=True):
        zs, mus, mask = ds.observations, ds.targets, ds.mask
        normalizer = float(mask.sum()) or 1.0
        got_loss, got = _loss_and_grad(params, zs, mus, mask, normalizer, want_grad)
        want_loss, want = loss_and_grad_reference(params, zs, mus, mask, normalizer, want_grad)
        assert got_loss == want_loss
        if want_grad:
            assert np.array_equal(got.flat, want.flat)
        else:
            assert got is None and want is None

    def test_ragged_batch_with_empty_episodes(self):
        episodes = episodes_of_lengths([5, 0, 12, 1, 0, 7, 3], 6, 4, seed=30)
        p = init_params(6, 4, hidden_size=7, embed_size=3, rng_seed=31)
        self.assert_same(p, pack(episodes, 6, 4))
        self.assert_same(p, pack([episodes[i] for i in (4, 2, 1, 6)], 6, 4))

    def test_one_episode_batch(self):
        ds = dataset_of_lengths([9], 5, 3, seed=32)
        self.assert_same(init_params(5, 3, hidden_size=16, embed_size=8, rng_seed=33), ds)

    def test_single_step(self):
        episodes = episodes_of_lengths([1, 1, 0, 1], 3, 2, seed=34)
        p = init_params(3, 2, hidden_size=4, embed_size=2, rng_seed=35)
        self.assert_same(p, pack(episodes, 3, 2))
        self.assert_same(p, pack([episodes[2], episodes[1]], 3, 2))
        self.assert_same(p, pack([episodes[2]], 3, 2))  # T = 0: zero loss, zero gradient

    def test_fib_dataset_on_intercept_4x4(self):
        ds = fib_dataset()
        assert ds.num_steps >= 200
        p = init_params(ds.num_observations, ds.num_actions, rng_seed=(3, 0, 1))
        self.assert_same(p, ds)

    def test_long_episodes(self):
        ds = dataset_of_lengths([200, 37, 0, 120], 7, 4, seed=36)
        self.assert_same(init_params(7, 4, rng_seed=37), ds)

    def test_loss_only(self):
        ds = dataset_of_lengths([4, 0, 6, 2], 4, 3, seed=38)
        self.assert_same(init_params(4, 3, hidden_size=5, embed_size=3, rng_seed=39), ds, want_grad=False)

    def test_reused_dirty_gradient_container(self):
        ds = dataset_of_lengths([6, 0, 3, 9], 5, 3, seed=40)
        p = init_params(5, 3, hidden_size=6, embed_size=3, rng_seed=41)
        args = (p, ds.observations, ds.targets, ds.mask, float(ds.num_steps))
        _, fresh = _loss_and_grad(*args)
        dirty = p.zeros_like()
        dirty.flat[...] = np.random.default_rng(42).standard_normal(dirty.flat.size)
        _, reused = _loss_and_grad(*args, grad=dirty)
        assert reused is dirty
        assert np.array_equal(reused.flat, fresh.flat)

    def test_training_matches_a_loop_over_the_reference(self):
        ds = fib_dataset(horizon=50, episodes=40)
        start = init_params(ds.num_observations, ds.num_actions, rng_seed=(3, 0, 1))
        got, got_trace = train_epochs(start, ds, epochs=3, batch_size=16, rng_seed=(3, 0, 4))
        want = start.copy()
        opt = Adam(want, 1e-3, 5.0)
        want_trace = []
        for zs, mus, mask, normalizer in episode_batches(ds, 3, 16, rng_seed=(3, 0, 4)):
            batch_loss, grad = loss_and_grad_reference(want, zs, mus, mask, normalizer)
            opt.step(want, grad)
            want_trace.append(batch_loss)
        assert len(got_trace) == 9
        assert got_trace == want_trace
        assert np.array_equal(got.flat, want.flat)


def test_sigmoid_matches_the_masked_form():
    x = np.concatenate([
        np.random.default_rng(40).standard_normal(2000) * 30.0,
        [0.0, -0.0, 1e-300, -1e-300, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf],
    ])
    got, want = _sigmoid(x), sigmoid_reference(x)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.isnan(_sigmoid(np.array([np.nan]))).all()


def pair(a, b):
    """Smallest parameter container Adam accepts: two arrays on one vector."""
    p = FlatParams((("a", (3,)), ("b", (2, 2))))
    p.a[...] = a
    p.b[...] = b
    return p


class TestAdam:
    @pytest.mark.parametrize("clip_norm, clipped", [(1.0, True), (100.0, False)])
    def test_two_steps_match_hand_written_update(self, clip_norm, clipped):
        rng = np.random.default_rng(8)
        start = pair(rng.standard_normal(3), rng.standard_normal((2, 2)))
        grads = [pair(3.0 * rng.standard_normal(3), 3.0 * rng.standard_normal((2, 2)))
                 for _ in range(2)]
        lr = 0.01

        params = start.copy()
        opt = Adam(params, lr, clip_norm)
        for g in grads:
            opt.step(params, g.copy())

        expected = [start.a.copy(), start.b.copy()]
        m = [np.zeros(3), np.zeros((2, 2))]
        v = [np.zeros(3), np.zeros((2, 2))]
        for t, g in enumerate(grads, start=1):
            flat = [g.a, g.b]
            norm = np.sqrt(float((g.a * g.a).sum()) + float((g.b * g.b).sum()))
            assert (norm > clip_norm) == clipped
            if clipped:
                flat = [x * (clip_norm / norm) for x in flat]
            correction = np.sqrt(1.0 - 0.999**t) / (1.0 - 0.9**t)
            for i, x in enumerate(flat):
                m[i] = 0.9 * m[i] + (1.0 - 0.9) * x
                v[i] = 0.999 * v[i] + (1.0 - 0.999) * x * x
                expected[i] = expected[i] - lr * correction * m[i] / (np.sqrt(v[i]) + 1e-8)
        assert np.array_equal(params.a, expected[0])
        assert np.array_equal(params.b, expected[1])


class TestDense:
    @pytest.mark.parametrize("activation", ["relu", "tanh", "tanh_flat", "linear"])
    def test_backward_matches_finite_differences(self, activation):
        rng = np.random.default_rng(12)
        p = FlatParams(dense_layout("s", (3, 5, 4)))
        p.flat[...] = rng.standard_normal(p.flat.size)
        x = rng.standard_normal((6, 3))
        weights = rng.standard_normal((6, 4))  # loss = sum(weights * output)
        acts = (activation, activation)

        def value():
            return float((weights * dense_forward(p.layers("s"), acts, x)).sum())

        cache = []
        dense_forward(p.layers("s"), acts, x, cache)
        g = p.zeros_like()
        dx = dense_backward(p.layers("s"), acts, cache, weights, g.layers("s"))
        assert np.allclose(g.flat, central_differences(value, p.flat), rtol=1e-6, atol=1e-7)
        assert np.allclose(dx, central_differences(value, x), rtol=1e-6, atol=1e-7)


class TestFlatParams:
    def test_fields_are_views_after_every_constructor(self):
        p = init_params(4, 3, hidden_size=5, embed_size=2, rng_seed=1)
        ds = make_dataset(4, 5, 4, 3, seed=2)
        trained, _ = train_epochs(p, ds, epochs=2, batch_size=2, rng_seed=0)
        for q in (p, p.copy(), p.zeros_like(), params_from_text(params_to_text(p)), trained):
            assert_fields_view_flat(q)
        assert not np.array_equal(trained.flat, p.flat)

    def test_copy_and_zeros_like_own_their_vector(self):
        p = init_params(3, 2, hidden_size=4, embed_size=2, rng_seed=3)
        for q in (p.copy(), p.zeros_like()):
            assert not np.shares_memory(q.flat, p.flat)
            assert q.layout == p.layout
        assert np.array_equal(p.copy().flat, p.flat)
        assert not p.zeros_like().flat.any()

    def test_layout_order_is_checkpoint_order(self):
        p = init_params(3, 2, hidden_size=4, embed_size=2, rng_seed=3)
        assert tuple(name for name, _ in p.layout) == PARAM_FIELDS
        assert np.array_equal(p.flat, np.concatenate([getattr(p, n).reshape(-1) for n in PARAM_FIELDS]))

    def test_checkpoint_dims_alone_allocate_nothing(self):
        # the vector is built from the values read, not sized by the dims line
        with pytest.raises(ValueError, match="missing"):
            params_from_text("rnnparams v1\ndims 100000000000 8 16 4\n")


class TestGradientCheck:
    def test_small_network_matches_finite_differences(self):
        p = init_params(4, 3, hidden_size=4, embed_size=3, rng_seed=4)
        ds = make_dataset(3, 5, 4, 3, seed=8)
        assert gradient_check(p, ds) < 1e-6

    def test_empty_dataset_zero(self):
        p = init_params(2, 2, 4, 2, rng_seed=0)
        ds = TrajectoryDataset([], 2, 2, 0, 5, "empty")
        assert gradient_check(p, ds) == 0.0

    def test_unused_observation_has_zero_gradient(self):
        p = init_params(5, 2, hidden_size=3, embed_size=2, rng_seed=5)
        ds = make_dataset(2, 4, 3, 2, seed=9)  # observations 3, 4 never appear
        _, grad = _loss_and_grad(p, ds.observations, ds.targets, ds.mask, float(ds.num_steps))
        assert np.array_equal(grad.emb[3], np.zeros(2))
        assert np.array_equal(grad.emb[4], np.zeros(2))
        assert np.any(grad.emb[:3] != 0)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self):
        p = init_params(6, 3, hidden_size=5, embed_size=4, rng_seed=6)
        text = params_to_text(p)
        back = params_from_text(text)
        for name in PARAM_FIELDS:
            assert np.array_equal(getattr(p, name), getattr(back, name))
        assert params_to_text(back) == text

    def test_header_only_rejected(self):
        with pytest.raises(ValueError, match="dims"):
            params_from_text("rnnparams v1\n")

    def test_missing_field_rejected(self):
        p = init_params(2, 2, 3, 2, rng_seed=0)
        text = "\n".join(ln for ln in params_to_text(p).splitlines() if not ln.startswith("emb"))
        with pytest.raises(ValueError):
            params_from_text(text)

    def test_negative_dims_rejected(self):
        # reshape reads a size of -1 as "infer it": the head once took any width
        text = params_to_text(init_params(2, 2, 3, 2, rng_seed=0)).replace("dims 2 2 3 2", "dims 2 2 3 -1")
        with pytest.raises(ValueError, match="negative size"):
            params_from_text(text)


# fuzz: a mutated checkpoint raises ValueError or parses to a vector that round-trips

CHECKPOINTS = [params_to_text(init_params(nz, na, hidden_size=d, embed_size=e, rng_seed=k))
               for k, (nz, na, d, e) in enumerate([(2, 2, 3, 2), (3, 1, 2, 1), (1, 3, 1, 2)])]


def checkpoint_outcome(text: str):
    """The error message, or the parsed layout and vector once they round-trip bit for bit."""
    try:
        params = params_from_text(text)
    except ValueError as err:
        return str(err)
    again = params_from_text(params_to_text(params))
    assert again.layout == params.layout and again.flat.tobytes() == params.flat.tobytes(), text
    assert params_to_text(again) == params_to_text(params)
    return params.layout, params.flat.tobytes()


def test_fuzzed_checkpoints_raise_value_error_or_round_trip():
    rng = np.random.default_rng(21)
    outcomes = []
    for _ in range(600):
        text = CHECKPOINTS[rng.integers(len(CHECKPOINTS))]
        choices = [(rng.integers(len(FUZZ_OPS)), *rng.integers(1 << 30, size=2)) for _ in range(rng.integers(1, 4))]
        outcomes.append(checkpoint_outcome(mutate(text, choices)))
    errors = [o for o in outcomes if isinstance(o, str)]
    assert len(errors) > 300 and len(outcomes) - len(errors) > 100 and len(set(errors)) > 50


def test_fuzzed_checkpoints_raise_value_error_or_round_trip_hypothesis():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(
        st.sampled_from(CHECKPOINTS),
        st.lists(st.tuples(st.integers(0, len(FUZZ_OPS) - 1), st.integers(0, 1 << 30), st.integers(0, 1 << 30)),
                 min_size=1, max_size=4),
    )
    def check(text, choices):
        checkpoint_outcome(mutate(text, choices))

    check()
