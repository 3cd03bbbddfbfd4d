import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import assert_fields_view_flat, random_rpomdp
import robustfsc
import robustfsc.extract as extract
from oracles import (
    AdamReference,
    build_fsc_per_node_reference,
    build_fsc_reference,
    central_differences,
    forward,
    fsc_fidelity_reference,
    qbn_loss_and_grad_reference,
)
from robustfsc.extract import (
    QbnParams,
    _qbn_decode,
    _qbn_encode,
    _qbn_loss_and_grad,
    build_fsc,
    collect_hidden_states,
    fsc_fidelity,
    kmeans_fit,
    qbn_fit_posthoc,
    qbn_init,
    quantize,
)
from robustfsc.rnn import init_params, tanh_flat
from robustfsc.simulate import Episode, Step, TrajectoryDataset


def make_dataset(num_eps, length, num_obs, num_actions, seed):
    """Random episodes; ``length`` is one length for all or one per episode."""
    rng = np.random.default_rng(seed)
    lengths = [length] * num_eps if np.isscalar(length) else list(length)
    episodes = []
    for n in lengths:
        episodes.append(Episode([Step(int(rng.integers(num_obs)), int(rng.integers(num_actions)))
                                 for _ in range(n)]))
    return TrajectoryDataset(episodes, num_obs, num_actions)


def assert_tables_match_forward_passes(params, cl, model):
    """``build_fsc`` against the per-(node, observation) reference loop;
    returns the reference's node keys in order."""
    expected_actions, expected_memory, keys = build_fsc_reference(params, cl, model)
    fsc = build_fsc(params, cl, model)
    assert fsc.num_nodes == len(keys)
    assert np.array_equal(fsc.memory_map, expected_memory)
    assert np.allclose(fsc.action_map, expected_actions, rtol=0.0, atol=1e-12)
    return keys


def frozen(cl):
    """A copy of every field of a clustering, arrays as bytes."""
    return {name: ((value.quant_levels, value.flat.tobytes()) if isinstance(value, QbnParams) else
                   value.tobytes() if isinstance(value, np.ndarray) else copy.deepcopy(value))
            for name, value in vars(cl).items()}


class TestCollectHiddenStates:
    def test_empty_dataset(self):
        p = init_params(2, 2, hidden_size=3, embed_size=2)
        ds = TrajectoryDataset([], 2, 2)
        assert collect_hidden_states(p, ds).shape == (0, 3)

    def test_one_episode_three_states(self):
        p = init_params(2, 2, hidden_size=3, embed_size=2, rng_seed=1)
        ds = make_dataset(1, 3, 2, 2, seed=0)
        states = collect_hidden_states(p, ds)
        assert states.shape == (3, 3)
        # replay manually
        h = np.zeros(p.hidden_size)
        for t, z in enumerate(ds.observations[0].tolist()):
            h, _ = forward(p, h, z)
            assert np.allclose(states[t], h, atol=1e-12)

    def test_recollection_identical(self):
        p = init_params(3, 2, hidden_size=4, embed_size=2, rng_seed=2)
        ds = make_dataset(4, 5, 3, 2, seed=1)
        a = collect_hidden_states(p, ds)
        b = collect_hidden_states(p, ds)
        assert np.array_equal(a, b)


class TestKmeans:
    def test_separable_points(self):
        pts = np.array([[0.0], [0.0], [10.0], [10.0]])
        cl = kmeans_fit(pts, 2, rng_seed=0)
        assert sorted(cl.centroids.ravel().tolist()) == [0.0, 10.0]
        assert cl.fit_metric == 0.0

    def test_identical_points_stop_once_the_assignment_repeats(self, monkeypatch):
        # re-seeding keeps moving a point between clusters, so the assignment
        # after it never repeats; the nearest-centroid one before it does
        calls = []
        sq_dists = extract._sq_dists
        monkeypatch.setattr(extract, "_sq_dists", lambda *args: calls.append(1) or sq_dists(*args))
        cl = kmeans_fit(np.ones((12, 3)), 4, rng_seed=0)
        assert len(calls) <= 3
        assert np.array_equal(cl.centroids, np.ones((4, 3))) and cl.fit_metric == 0.0

    def test_k1_returns_mean(self):
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((20, 4))
        cl = kmeans_fit(pts, 1, rng_seed=0)
        assert np.allclose(cl.centroids[0], pts.mean(axis=0))

    def test_beats_random_assignments(self):
        rng = np.random.default_rng(4)
        pts = rng.standard_normal((50, 3))
        cl = kmeans_fit(pts, 3, rng_seed=5)
        for trial in range(100):
            labels = rng.integers(0, 3, size=50)
            inertia = 0.0
            for j in range(3):
                member = pts[labels == j]
                if len(member):
                    inertia += ((member - member.mean(axis=0)) ** 2).sum()
            assert cl.fit_metric <= inertia + 1e-9

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(5)
        pts = rng.standard_normal((40, 2))
        a = kmeans_fit(pts, 4, rng_seed=9)
        b = kmeans_fit(pts, 4, rng_seed=9)
        assert np.array_equal(a.centroids, b.centroids)

    def test_assign_represent_consistency(self):
        rng = np.random.default_rng(6)
        pts = rng.standard_normal((30, 3))
        cl = kmeans_fit(pts, 4, rng_seed=1)
        live = np.unique(cl.assign(pts))
        assert np.array_equal(cl.assign(cl.represent(live)), live)


class TestQbn:
    def test_tanh_flat_shape(self):
        assert tanh_flat(np.array([0.0]))[0] == 0.0
        assert tanh_flat(np.array([100.0]))[0] == pytest.approx(1.0)
        assert tanh_flat(np.array([-100.0]))[0] == pytest.approx(-1.0)
        # flat near zero: derivative vanishes at the origin
        eps = 1e-4
        slope = (tanh_flat(np.array([eps]))[0] - tanh_flat(np.array([-eps]))[0]) / (2 * eps)
        assert abs(slope) < 1e-3

    def test_quantize_levels(self):
        x = np.array([-0.9, -0.51, -0.49, 0.0, 0.49, 0.51, 0.9])
        assert np.array_equal(quantize(x, 3), [-1, -1, 0, 0, 0, 1, 1])
        assert np.array_equal(quantize(x, 2), [-1, -1, -1, 1, 1, 1, 1])
        with pytest.raises(ValueError, match=r"quant_levels must be one of \(2, 3\)"):
            quantize(x, 4)

    def test_single_point_reconstruction(self):
        rng = np.random.default_rng(7)
        point = rng.uniform(-0.5, 0.5, size=(1, 6))
        cl = qbn_fit_posthoc(point, bottleneck=2, quant_levels=3, epochs=500, lr=1e-2, batch_size=32, rng_seed=0)
        assert cl.fit_metric < 1e-3
        assert ((cl.represent(cl.assign(point)[0]) - point[0]) ** 2).mean() < 1e-3

    def test_codes_within_level_set(self):
        rng = np.random.default_rng(8)
        pts = rng.uniform(-0.8, 0.8, size=(40, 5))
        cl = qbn_fit_posthoc(pts, bottleneck=2, quant_levels=3, epochs=20, lr=1e-3, batch_size=32, rng_seed=1)
        keys = set(cl.assign(pts))
        assert len(keys) <= 3 ** 2
        for code in keys:
            assert len(code) == 2 and all(v in (-1, 0, 1) for v in code)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-0.5, 0.5, size=(30, 4))
        a = qbn_fit_posthoc(pts, bottleneck=2, quant_levels=3, epochs=10, lr=1e-3, batch_size=32, rng_seed=2)
        b = qbn_fit_posthoc(pts, bottleneck=2, quant_levels=3, epochs=10, lr=1e-3, batch_size=32, rng_seed=2)
        assert a.fit_metric == b.fit_metric
        assert np.array_equal(a.qbn.flat, b.qbn.flat)
        assert a.assign(pts) == b.assign(pts)

    @pytest.mark.parametrize("levels, n, batch_size", [(3, 70, 32), (2, 64, 16), (3, 5, 32)])
    def test_training_matches_a_loop_over_the_reference(self, levels, n, batch_size):
        """Each epoch one permutation of the points from generator (seed, 1), cut into batches
        (a short last one unless n divides), and one unclipped Adam step per batch."""
        pts = np.random.default_rng(16).uniform(-0.8, 0.8, size=(n, 5))
        seed, epochs, lr = 3, 4, 1e-2
        got = qbn_fit_posthoc(pts, bottleneck=2, quant_levels=levels, epochs=epochs, lr=lr,
                              batch_size=batch_size, rng_seed=seed)
        want = qbn_init(5, 2, levels, rng_seed=seed)
        opt = AdamReference(want.flat.size, lr)
        rng = np.random.default_rng((seed, 1))
        for _ in range(epochs):
            order = rng.permutation(n)
            losses = []
            for lo in range(0, n, batch_size):
                loss, grad = _qbn_loss_and_grad(want, pts[order[lo:lo + batch_size]])
                opt.step(want.flat, grad.flat)
                losses.append(loss)
        codes = quantize(_qbn_encode(want, pts), levels).astype(np.int64).tolist()
        assert np.array_equal(got.qbn.flat, want.flat)
        assert got.assign(pts) == list(map(tuple, codes))
        assert got.fit_metric == float(np.mean(losses))


class TestQbnGradient:
    """The reconstruction gradient the bottleneck trains on, per quantizer."""

    def instance(self, levels):
        rng = np.random.default_rng(13)
        qbn = qbn_init(5, 2, levels, rng_seed=4)
        qbn.flat[...] += 0.1 * rng.standard_normal(qbn.flat.size)  # nonzero biases too
        batch = rng.uniform(-0.8, 0.8, size=(7, 5))
        code = quantize(_qbn_encode(qbn, batch), levels)
        _, grad = _qbn_loss_and_grad(qbn, batch)

        def mse():
            return float(((_qbn_decode(qbn, code) - batch) ** 2).mean())

        return qbn, batch, code, grad, mse

    @pytest.mark.parametrize("levels", [2, 3])
    def test_decoder_matches_finite_differences_with_code_fixed(self, levels):
        qbn, _, _, grad, mse = self.instance(levels)
        for name, _ in qbn.layout:
            if name.startswith("dec"):
                numeric = central_differences(mse, getattr(qbn, name))
                assert np.allclose(getattr(grad, name), numeric, rtol=1e-6, atol=1e-9), name

    @pytest.mark.parametrize("levels", [2, 3])
    def test_encoder_is_straight_through_vector_jacobian_product(self, levels):
        # the quantizer passes the code's gradient on unchanged, so the
        # encoder gradient is J_enc^T (d mse / d code)
        qbn, batch, code, grad, mse = self.instance(levels)
        dcode = central_differences(mse, code)
        assert np.abs(dcode).max() > 1e-4

        def projected_code():
            return float((dcode * _qbn_encode(qbn, batch)).sum())

        for name, _ in qbn.layout:
            if name.startswith("enc"):
                numeric = central_differences(projected_code, getattr(qbn, name))
                assert np.allclose(getattr(grad, name), numeric, rtol=1e-6, atol=1e-9), name

    @pytest.mark.parametrize("levels", [2, 3])
    def test_reused_dirty_container(self, levels):
        qbn, batch, _, fresh, _ = self.instance(levels)
        dirty = qbn.zeros_like()
        dirty.flat[...] = np.nan  # a gradient left unwritten stays NaN
        _, reused = _qbn_loss_and_grad(qbn, batch, dirty)
        assert reused is dirty
        assert np.array_equal(reused.flat, fresh.flat)

    @pytest.mark.parametrize("levels", [2, 3])
    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_matches_the_accumulating_reference(self, levels, rows):
        """The written gradient and the loss are, bit for bit, those of a pass
        that zeroes the gradient, accumulates into it and recomputes tanh."""
        qbn, batch, _, _, _ = self.instance(levels)
        got_loss, got = _qbn_loss_and_grad(qbn, batch[:rows])
        want_loss, want = qbn_loss_and_grad_reference(qbn, batch[:rows])
        assert got_loss == want_loss
        assert np.array_equal(got.flat, want.flat)

    def test_fields_are_views_after_every_constructor(self):
        qbn = qbn_init(5, 2, 3, rng_seed=0)
        pts = np.random.default_rng(14).uniform(-0.5, 0.5, size=(20, 5))
        fitted = qbn_fit_posthoc(pts, bottleneck=2, quant_levels=2, epochs=3, lr=1e-3, batch_size=32, rng_seed=0).qbn
        for q in (qbn, qbn.copy(), qbn.zeros_like(), fitted):
            assert_fields_view_flat(q)
        assert fitted.quant_levels == 2 and qbn.zeros_like().quant_levels == 3
        assert not np.array_equal(fitted.flat, qbn_init(5, 2, 2, rng_seed=0).flat)


class TestBuildFsc:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.model = random_rpomdp(rng, num_states=4, num_actions=2)
        self.params = init_params(self.model.num_observations, 2, hidden_size=6,
                                  embed_size=3, rng_seed=3)
        self.dataset = make_dataset(6, 8, self.model.num_observations, 2, seed=2)
        self.hidden = collect_hidden_states(self.params, self.dataset)

    def test_single_cluster_gives_memoryless_controller(self):
        cl = kmeans_fit(self.hidden, 1, rng_seed=0)
        fsc = build_fsc(self.params, cl, self.model)
        assert fsc.num_nodes == 1
        assert np.all(fsc.memory_map == 0)

    def test_constant_assignment_prunes_to_one_node(self):
        # identical points leave k-means with one live centroid; whatever
        # assign maps everything to, the pruned controller has one node
        same = np.tile(self.hidden[0], (10, 1))
        cl = kmeans_fit(same, 3, rng_seed=0)
        fsc = build_fsc(self.params, cl, self.model)
        assert fsc.num_nodes == 1

    def test_rows_normalized_and_memory_total(self):
        cl = kmeans_fit(self.hidden, 4, rng_seed=1)
        fsc = build_fsc(self.params, cl, self.model)
        fsc.check()
        assert np.allclose(fsc.action_map.sum(axis=2), 1.0, atol=1e-9)
        assert fsc.num_nodes >= 1

    def test_tables_match_forward_passes(self):
        cl = kmeans_fit(self.hidden, 2, rng_seed=2)
        assert_tables_match_forward_passes(self.params, cl, self.model)

    def test_tables_match_forward_passes_qbn_posthoc(self):
        # the fitted points quantize to 2 codes; build_fsc reaches a third
        cl = qbn_fit_posthoc(self.hidden, bottleneck=2, quant_levels=3, epochs=20, lr=1e-3, batch_size=32, rng_seed=0)
        fitted = set(cl.assign(self.hidden))
        keys = assert_tables_match_forward_passes(self.params, cl, self.model)
        assert len(fitted) == 2 and set(keys) - fitted

    @pytest.mark.parametrize("extractor", ["kmeans", "qbn-posthoc"])
    def test_leaves_the_clustering_as_it_found_it(self, extractor):
        if extractor == "kmeans":
            cl = kmeans_fit(self.hidden, 4, rng_seed=1)
        else:
            cl = qbn_fit_posthoc(self.hidden, bottleneck=2, quant_levels=3, epochs=20, lr=1e-3, batch_size=32,
                                 rng_seed=0)
        before = frozen(cl)
        first = build_fsc(self.params, cl, self.model)
        assert frozen(cl) == before
        second = build_fsc(self.params, cl, self.model)
        assert (first.num_nodes, first.initial_node) == (second.num_nodes, second.initial_node)
        assert np.array_equal(first.memory_map, second.memory_map)
        assert np.array_equal(first.action_map, second.action_map)

    def test_all_nodes_reachable(self):
        cl = kmeans_fit(self.hidden, 5, rng_seed=3)
        fsc = build_fsc(self.params, cl, self.model)
        seen = {fsc.initial_node}
        frontier = [fsc.initial_node]
        realizable = self.model.realizable_observations()
        while frontier:
            n = frontier.pop()
            for z in realizable:
                m = int(fsc.memory_map[n, z])
                if m not in seen:
                    seen.add(m)
                    frontier.append(m)
        assert seen == set(range(fsc.num_nodes))

    def test_fidelity_zero_for_single_cluster_consistency(self):
        cl = kmeans_fit(self.hidden, 3, rng_seed=4)
        fsc = build_fsc(self.params, cl, self.model)
        tv = fsc_fidelity(self.params, fsc, self.dataset, self.hidden)
        assert 0.0 <= tv <= 1.0


class TestBatchedReplay:
    """The batched extraction against step-by-step replays, on ragged episodes
    (one of them empty) and a model that does not realize every observation."""

    def setup_method(self):
        self.model = random_rpomdp(np.random.default_rng(0), num_states=6, num_actions=2)
        assert len(self.model.realizable_observations()) < self.model.num_observations
        nz = self.model.num_observations
        self.params = init_params(nz, 2, hidden_size=6, embed_size=3, rng_seed=8)
        self.dataset = make_dataset(7, [5, 1, 9, 0, 3, 9, 2], nz, 2, seed=4)

    def test_hidden_states_match_forward_replay(self):
        states = collect_hidden_states(self.params, self.dataset)
        expected = []
        for zs, length in zip(self.dataset.observations.tolist(), self.dataset.lengths.tolist()):
            h = np.zeros(self.params.hidden_size)
            for z in zs[:length]:
                h, _ = forward(self.params, h, z)
                expected.append(h)
        assert states.shape == (self.dataset.num_steps, 6)
        assert np.allclose(states, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("k", [1, 3, 6])
    def test_fidelity_matches_reference(self, k):
        hidden = collect_hidden_states(self.params, self.dataset)
        fsc = build_fsc(self.params, kmeans_fit(hidden, k, rng_seed=k), self.model)
        got = fsc_fidelity(self.params, fsc, self.dataset, hidden)
        assert abs(got - fsc_fidelity_reference(self.params, fsc, self.dataset)) <= 1e-12

    def test_fidelity_reads_the_collected_states(self):
        hidden = collect_hidden_states(self.params, self.dataset)
        fsc = build_fsc(self.params, kmeans_fit(hidden, 3, rng_seed=3), self.model)
        collected = fsc_fidelity(self.params, fsc, self.dataset, hidden)
        # the states passed in are the ones the head reads
        assert fsc_fidelity(self.params, fsc, self.dataset, np.zeros_like(hidden)) != collected

    def test_kmeans_and_qbn_tables_on_unrealized_observations(self):
        hidden = collect_hidden_states(self.params, self.dataset)
        assert_tables_match_forward_passes(self.params, kmeans_fit(hidden, 4, rng_seed=0), self.model)
        # 2-level codes: some unrealized observations reach codes nobody has
        # seen, others known codes that never become nodes
        cl = qbn_fit_posthoc(hidden, bottleneck=3, quant_levels=2, epochs=5, lr=1e-3, batch_size=32, rng_seed=2)
        assert_tables_match_forward_passes(self.params, cl, self.model)

    @pytest.mark.parametrize("extractor", ["kmeans", "qbn-posthoc"])
    def test_tables_equal_a_reference_that_projects_per_node(self, extractor):
        # build_fsc projects the embedding table once; recomputing it for
        # every node, as one step over all observations does, gives the same bits
        hidden = collect_hidden_states(self.params, self.dataset)
        if extractor == "kmeans":
            cl = kmeans_fit(hidden, 4, rng_seed=0)
        else:
            cl = qbn_fit_posthoc(hidden, bottleneck=3, quant_levels=2, epochs=5, lr=1e-3, batch_size=32, rng_seed=2)
        fsc = build_fsc(self.params, cl, self.model)
        action_map, memory_map = build_fsc_per_node_reference(self.params, cl, self.model)
        assert fsc.num_nodes > 1
        assert np.array_equal(fsc.action_map, action_map)
        assert np.array_equal(fsc.memory_map, memory_map)


def test_importing_extract_loads_no_scipy():
    # extract, rnn and simulate take DivergenceError from model and import
    # SupervisionBound only for annotations, so scipy (loaded by solvers) stays out
    src = str(Path(robustfsc.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    code = "import sys, robustfsc.extract; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
