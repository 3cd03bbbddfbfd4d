import numpy as np
import pytest

from conftest import assert_fields_view_flat
from oracles import (
    AdamReference,
    central_differences,
    forward,
    gradient_check,
    loss,
    loss_and_grad_reference,
    scalar_gru_forward,
    sigmoid_reference,
)
from robustfsc import rnn
from robustfsc.grids import GridSpec, generate_grid
from robustfsc.model import nominal_midpoint
from robustfsc.rnn import (
    FlatParams,
    _loss_and_grad,
    _sigmoid,
    dense_backward,
    dense_forward,
    dense_layout,
    descend,
    episode_batches,
    init_params,
    train_epochs,
)
from robustfsc.simulate import Episode, Step, TrajectoryDataset, simulate
from robustfsc.solvers import DivergenceError, solve_fib


def make_dataset(num_eps, max_len, num_obs, num_actions, seed, constant_action=None):
    rng = np.random.default_rng(seed)
    episodes = []
    for _ in range(num_eps):
        length = int(rng.integers(1, max_len + 1))
        steps = []
        for _ in range(length):
            z, a = int(rng.integers(num_obs)), int(rng.integers(num_actions))
            steps.append(Step(z, a if constant_action is None else constant_action))
        episodes.append(Episode(steps))
    return TrajectoryDataset(episodes, num_obs, num_actions)


def episodes_of_lengths(lengths, num_obs, num_actions, seed):
    """Random episodes of the given lengths (zero allowed)."""
    rng = np.random.default_rng(seed)
    return [Episode([Step(int(rng.integers(num_obs)), int(rng.integers(num_actions))) for _ in range(n)])
            for n in lengths]


def pack(episodes, num_obs, num_actions):
    return TrajectoryDataset(episodes, num_obs, num_actions)


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
        h = np.zeros(p.hidden_size)
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
        ds = make_dataset(3, 4, 2, 4, seed=1)
        assert loss(p, ds) == pytest.approx(np.log(4.0), abs=1e-12)

    def test_dirac_match_gives_tiny_loss(self):
        # push one logit far up so the policy is a near-point mass
        p = init_params(1, 2, hidden_size=2, embed_size=2, rng_seed=0).zeros_like()
        p.head_b3[0] = 30.0
        ds = make_dataset(2, 3, 1, 2, seed=2, constant_action=0)
        assert loss(p, ds) < 1e-9

    def test_matches_direct_summation(self):
        p = init_params(4, 3, hidden_size=5, embed_size=3, rng_seed=7)
        ds = make_dataset(3, 4, 4, 3, seed=3)
        total = 0.0
        count = 0
        for zs, actions, length in zip(ds.observations, ds.actions, ds.lengths):
            h = np.zeros(p.hidden_size)
            for z, a in zip(zs[:length], actions[:length]):
                h, dist = forward(p, h, int(z))
                total -= float(np.log(dist[a]))
                count += 1
        assert loss(p, ds) == pytest.approx(total / count, abs=1e-12)

    def test_empty_dataset(self):
        p = init_params(2, 2, 4, 2, rng_seed=0)
        ds = TrajectoryDataset([], 2, 2)
        assert loss(p, ds) == 0.0


class TestTraining:
    def test_zero_learning_rate_is_identity(self):
        p = init_params(3, 2, hidden_size=4, embed_size=2, rng_seed=1)
        ds = make_dataset(4, 5, 3, 2, seed=4)
        p2, _ = train_epochs(p, ds, epochs=3, batch_size=32, lr=0.0, rng_seed=0)
        for name, _ in p.layout:
            assert np.array_equal(getattr(p, name), getattr(p2, name))

    def test_deterministic_given_seed(self):
        p = init_params(3, 2, hidden_size=4, embed_size=2, rng_seed=1)
        ds = make_dataset(6, 5, 3, 2, seed=5)
        _, trace_a = train_epochs(p, ds, epochs=5, batch_size=2, lr=1e-3, rng_seed=3)
        _, trace_b = train_epochs(p, ds, epochs=5, batch_size=2, lr=1e-3, rng_seed=3)
        assert trace_a == trace_b

    def test_converges_on_constant_target(self):
        # single episode with one action at every step is exactly
        # representable; the loss should fall monotonically to near zero
        p = init_params(2, 3, hidden_size=4, embed_size=2, rng_seed=2)
        ds = make_dataset(1, 4, 2, 3, seed=6, constant_action=1)
        _, trace = train_epochs(p, ds, epochs=50, batch_size=1, lr=0.1, rng_seed=0)
        assert len(trace) == 50
        assert trace[-1] < 0.01
        assert all(b <= a + 1e-6 for a, b in zip(trace, trace[1:]))

    def test_raises_on_nonfinite_loss(self):
        p = init_params(2, 2, hidden_size=3, embed_size=2, rng_seed=3)
        p.head_b3[0] = np.nan
        ds = make_dataset(2, 3, 2, 2, seed=7)
        with pytest.raises(DivergenceError):
            train_epochs(p, ds, epochs=1, batch_size=32, lr=1e-3, rng_seed=0)

    def test_batches_cover_each_episode_once_per_epoch(self):
        ds = dataset_of_lengths([3, 1, 0, 2, 3], 2, 2, seed=9)
        batches = list(episode_batches(ds, epochs=2, batch_size=1, rng_seed=0))
        assert len(batches) == 8  # the empty episode is left out of every epoch
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
            order = rng.permutation(np.flatnonzero([len(episode) > 0 for episode in episodes]))
            for lo in range(0, len(order), batch_size):
                batch = pack([episodes[i] for i in order[lo:lo + batch_size]], *dims)
                expected = (batch.observations, batch.actions, batch.mask)
                normalizer = float(expected[2].sum())
                assert normalizer > 0.0
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
    """FIB-supervised rollouts on the intercept 4x4 grid's midpoint member, and
    fresh network parameters for that member."""
    member = nominal_midpoint(generate_grid(GridSpec(4, 4, "intercept")))
    ds = simulate(member, solve_fib(member), num_episodes=episodes, horizon=horizon, rng_seed=(3, 0, 3))
    return ds, init_params(member.num_observations, member.num_actions, hidden_size=16, embed_size=8,
                           rng_seed=(3, 0, 1))


class TestMatchesPerStepReference:
    """Whole-sequence BPTT returns, bit for bit, what the step-by-step loop
    it replaced returns: the same loss and the same gradient vector."""

    @staticmethod
    def assert_same(params, ds):
        zs, actions, mask = ds.observations, ds.actions, ds.mask
        normalizer = float(mask.sum()) or 1.0
        got_loss, got = _loss_and_grad(params, zs, actions, mask, normalizer)
        want_loss, want = loss_and_grad_reference(params, zs, actions, mask, normalizer)
        assert got_loss == want_loss
        assert np.array_equal(got.flat, want.flat)

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
        ds, p = fib_dataset()
        assert ds.num_steps >= 200
        self.assert_same(p, ds)

    def test_long_episodes(self):
        ds = dataset_of_lengths([200, 37, 0, 120], 7, 4, seed=36)
        self.assert_same(init_params(7, 4, hidden_size=16, embed_size=8, rng_seed=37), ds)

    def test_reused_dirty_gradient_container(self):
        ds = dataset_of_lengths([6, 0, 3, 9], 5, 3, seed=40)
        p = init_params(5, 3, hidden_size=6, embed_size=3, rng_seed=41)
        args = (p, ds.observations, ds.actions, ds.mask, float(ds.num_steps))
        _, fresh = _loss_and_grad(*args)
        dirty = p.zeros_like()
        dirty.flat[...] = np.random.default_rng(42).standard_normal(dirty.flat.size)
        _, reused = _loss_and_grad(*args, grad=dirty)
        assert reused is dirty
        assert np.array_equal(reused.flat, fresh.flat)

    @staticmethod
    def assert_training_matches_the_reference(clip_norm):
        """train_epochs equals a loop of loss_and_grad_reference and
        AdamReference steps bit for bit; returns the number of clipped steps."""
        ds, start = fib_dataset(horizon=50, episodes=40)
        got, got_trace = train_epochs(start, ds, epochs=3, batch_size=16, lr=1e-3, rng_seed=(3, 0, 4))
        want = start.copy()
        opt = AdamReference(want.flat.size, 1e-3, clip_norm)
        want_trace, clipped = [], 0
        for zs, actions, mask, normalizer in episode_batches(ds, 3, 16, rng_seed=(3, 0, 4)):
            batch_loss, grad = loss_and_grad_reference(want, zs, actions, mask, normalizer)
            clipped += opt.step(want.flat, grad.flat)
            want_trace.append(batch_loss)
        assert len(got_trace) == 9
        assert got_trace == want_trace
        assert np.array_equal(got.flat, want.flat)
        return clipped

    def test_training_matches_a_loop_over_the_reference(self):
        assert self.assert_training_matches_the_reference(5.0) == 0

    def test_training_clips_every_step_below_the_observed_norms(self, monkeypatch):
        """Training clips inside the real loop, before the moment update,
        by the norm of the flat gradient; no planner run reaches this path."""
        monkeypatch.setattr(rnn, "CLIP_NORM", 1e-2)
        assert self.assert_training_matches_the_reference(1e-2) == 9


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
    """Smallest parameter container descend accepts: two arrays on one vector."""
    p = FlatParams((("a", (3,)), ("b", (2, 2))))
    p.a[...] = a
    p.b[...] = b
    return p


def write_gradient(params, g, grad):
    """A stand-in loss_and_grad: writes the fixed gradient ``g`` into ``grad``."""
    grad.flat[...] = g.flat
    return 0.0, grad


class TestAdam:
    @pytest.mark.parametrize("clip_norm, clipped", [(1.0, True), (100.0, False)])
    def test_two_steps_match_hand_written_update(self, clip_norm, clipped):
        rng = np.random.default_rng(8)
        start = pair(rng.standard_normal(3), rng.standard_normal((2, 2)))
        grads = [pair(3.0 * rng.standard_normal(3), 3.0 * rng.standard_normal((2, 2)))
                 for _ in range(2)]
        lr = 0.01

        params = start.copy()
        trace = descend(params, [(g,) for g in grads], write_gradient, lr, clip_norm, "stub loss")
        assert trace == [0.0, 0.0]

        expected = [start.a.copy(), start.b.copy()]
        m = [np.zeros(3), np.zeros((2, 2))]
        v = [np.zeros(3), np.zeros((2, 2))]
        for t, g in enumerate(grads, start=1):
            flat = [g.a, g.b]
            joined = np.concatenate([g.a.ravel(), g.b.ravel()])
            norm = np.sqrt(joined @ joined)
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
        trained, _ = train_epochs(p, ds, epochs=2, batch_size=2, lr=1e-3, rng_seed=0)
        for q in (p, p.copy(), p.zeros_like(), trained):
            assert_fields_view_flat(q)
        assert not np.array_equal(trained.flat, p.flat)

    def test_copy_and_zeros_like_own_their_vector(self):
        p = init_params(3, 2, hidden_size=4, embed_size=2, rng_seed=3)
        for q in (p.copy(), p.zeros_like()):
            assert not np.shares_memory(q.flat, p.flat)
            assert q.layout == p.layout
        assert np.array_equal(p.copy().flat, p.flat)
        assert not p.zeros_like().flat.any()

    def test_flat_is_the_fields_in_layout_order(self):
        p = init_params(3, 2, hidden_size=4, embed_size=2, rng_seed=3)
        assert np.array_equal(p.flat, np.concatenate([getattr(p, name).reshape(-1) for name, _ in p.layout]))


class TestGradientCheck:
    def test_small_network_matches_finite_differences(self):
        p = init_params(4, 3, hidden_size=4, embed_size=3, rng_seed=4)
        ds = make_dataset(3, 5, 4, 3, seed=8)
        assert gradient_check(p, ds) < 1e-6

    def test_empty_dataset_zero(self):
        p = init_params(2, 2, 4, 2, rng_seed=0)
        ds = TrajectoryDataset([], 2, 2)
        assert gradient_check(p, ds) == 0.0

    def test_unused_observation_has_zero_gradient(self):
        p = init_params(5, 2, hidden_size=3, embed_size=2, rng_seed=5)
        ds = make_dataset(2, 4, 3, 2, seed=9)  # observations 3, 4 never appear
        _, grad = _loss_and_grad(p, ds.observations, ds.actions, ds.mask, float(ds.num_steps))
        assert np.array_equal(grad.emb[3], np.zeros(2))
        assert np.array_equal(grad.emb[4], np.zeros(2))
        assert np.any(grad.emb[:3] != 0)
