"""Discretizing GRU hidden states into controller memory nodes.

Two discretizers produce a Clustering (assign/represent pair), both fitted
after training to the hidden states visited on the dataset: k-means++, or a
quantized bottleneck autoencoder whose quantized codes are the nodes (the
post-hoc QBN of Koul et al., 2019).  The bottleneck's parameters are one
flat vector like the network's, both its halves run on the dense-layer
stack of ``rnn`` that the policy head uses, and it trains on ``rnn.descend``,
the one minibatch-descent loop the GRU trains on.

The network runs only in batches: one replay unrolls it over every episode
of a dataset at once (hidden states, which fidelity reuses), and build_fsc
expands each node with one step over all observations, whose action
distributions become the node's rows and whose clusters its memory
successors.  Only nodes the initial node reaches are created.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, repeat

import numpy as np

from robustfsc.model import Fsc, RobustPomdp
from robustfsc.rnn import (
    FlatParams,
    NetworkParams,
    _gru_recur,
    dense_backward,
    dense_forward,
    dense_init,
    dense_layout,
    descend,
    policy_distribution,
    shuffled_batches,
)
from robustfsc.simulate import TrajectoryDataset


def collect_hidden_states(params: NetworkParams, dataset: TrajectoryDataset) -> np.ndarray:
    """Hidden states after every observation of every episode, episode-major;
    all episodes are unrolled at once."""
    zs = dataset.observations
    hs = np.empty(zs.shape + (params.hidden_size,))
    h = np.zeros((len(zs), params.hidden_size))
    for t in range(zs.shape[1]):
        x = params.emb[zs[:, t]]
        h, _ = _gru_recur(params, h, x @ params.w_r.T, x @ params.w_u.T, x @ params.w_h.T)
        hs[:, t] = h
    return hs[dataset.mask > 0.0]


def _sq_dists(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Squared Euclidean distance of every point to every centroid, (n, k)."""
    return ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)


# ---------------------------------------------------------------------------
# k-means++

def kmeans_fit(points: np.ndarray, k: int, rng_seed: int | tuple[int, ...] = 0) -> "Clustering":
    """k-means++ seeding followed by Lloyd iterations.

    Inertia never increases between iterations; a cluster that loses all its
    points is re-seeded at the point currently farthest from its centroid.
    Lloyd stops when the nearest-centroid assignment repeats one it produced
    before (taken before re-seeding); there are finitely many, so it stops.
    """
    points = np.asarray(points, dtype=np.float64)
    if k < 1:
        raise ValueError("k must be at least 1")
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("need a nonempty (n, d) point array")
    rng = np.random.default_rng(rng_seed)

    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(len(points))]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centroids[j] = points[rng.integers(len(points))]
        else:
            centroids[j] = points[rng.choice(len(points), p=d2 / total)]
        d2 = np.minimum(d2, ((points - centroids[j]) ** 2).sum(axis=1))

    # assignments so far, in the narrowest dtype: with int64 keys, a 76-step
    # fit of 3,000 points ran a quarter slower (2-core Xeon, numpy 2.4)
    seen, key_type = set(), np.min_scalar_type(k - 1)
    while True:
        dists = _sq_dists(points, centroids)
        assign = dists.argmin(axis=1)
        key = assign.astype(key_type).tobytes()
        if key in seen:
            break
        seen.add(key)
        for j in range(k):
            member = points[assign == j]
            if len(member):
                centroids[j] = member.mean(axis=0)
            else:
                worst = int(dists[np.arange(len(points)), assign].argmax())
                centroids[j] = points[worst]
                assign[worst] = j
    inertia = float(dists.min(axis=1).sum())
    return Clustering(centroids=centroids, fit_metric=inertia)


# ---------------------------------------------------------------------------
# quantized bottleneck

@dataclass(eq=False)
class QbnParams(FlatParams):
    """Encoder d -> 8b -> 4b -> b and its mirror decoder, tanh throughout.

    The final encoder activation is a flattened tanh for 3-level quantization
    (easier to settle on the 0 code) and a plain tanh for 2-level.
    """

    quant_levels: int = 3

    @cached_property
    def encoder(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self.layers("enc")

    @cached_property
    def decoder(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self.layers("dec")

    @property
    def encoder_activations(self) -> tuple[str, ...]:
        return ("tanh", "tanh", "tanh_flat" if self.quant_levels == 3 else "tanh")


DECODER_ACTIVATIONS = ("tanh", "tanh", "tanh")
QUANT_LEVELS = (2, 3)  # the levels ``quantize`` rounds to


def quantize(codes: np.ndarray, levels: int) -> np.ndarray:
    """Round to {-1, 0, 1} (thresholds at +-0.5) or to {-1, 1} (sign)."""
    if levels == 3:
        return np.where(codes > 0.5, 1.0, np.where(codes < -0.5, -1.0, 0.0))
    if levels == 2:
        return np.where(codes >= 0.0, 1.0, -1.0)
    raise ValueError(f"quant_levels must be one of {QUANT_LEVELS}")


def qbn_init(hidden_size: int, bottleneck: int, quant_levels: int, rng_seed: int | tuple[int, ...] = 0) -> QbnParams:
    """Scaled-normal weights drawn in layout order; biases start at zero."""
    rng = np.random.default_rng(rng_seed)
    b, d = bottleneck, hidden_size
    layout = dense_layout("enc", (d, 8 * b, 4 * b, b)) + dense_layout("dec", (b, 4 * b, 8 * b, d))
    q = QbnParams(layout, quant_levels=quant_levels)
    for name, shape in q.layout:
        if len(shape) == 2:
            getattr(q, name)[...] = dense_init(rng, shape)
    return q


def _qbn_encode(q: QbnParams, h: np.ndarray, cache: list | None = None) -> np.ndarray:
    return dense_forward(q.encoder, q.encoder_activations, h, cache)


def _qbn_decode(q: QbnParams, code: np.ndarray, cache: list | None = None) -> np.ndarray:
    return dense_forward(q.decoder, DECODER_ACTIVATIONS, code, cache)


def _qbn_loss_and_grad(q: QbnParams, batch: np.ndarray, grad: QbnParams | None = None) -> tuple[float, QbnParams]:
    """Mean squared reconstruction error of ``batch`` through the quantizer
    and its straight-through gradient (see qbn_fit_posthoc), written into
    ``grad``, zeroed first, when one is given."""
    ecache, dcache = [], []
    e = _qbn_encode(q, batch, ecache)
    out = _qbn_decode(q, quantize(e, q.quant_levels), dcache)
    err = out - batch
    g = q.zeros_like() if grad is None else grad
    g.flat[...] = 0.0
    dcode = dense_backward(q.decoder, DECODER_ACTIVATIONS, dcache, 2.0 * err / err.size, g.decoder)
    dense_backward(q.encoder, q.encoder_activations, ecache, dcode, g.encoder)
    return float((err * err).mean()), g


def qbn_fit_posthoc(
    points: np.ndarray,
    bottleneck: int,
    quant_levels: int,
    epochs: int,
    lr: float,
    batch_size: int,
    rng_seed: int | tuple[int, ...] = 0,
) -> "Clustering":
    """Train the bottleneck to reconstruct hidden states through its quantizer.

    The quantizer contributes no gradient of its own: backpropagation passes
    through it as the identity (straight-through), so the encoder still
    learns even though its output is snapped to the code book.  Returns a
    Clustering whose fit_metric is the final epoch's mean reconstruction
    error.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("need a nonempty (n, d) point array")
    qbn = qbn_init(points.shape[1], bottleneck, quant_levels, rng_seed)
    batches = ((points[rows],) for rows in shuffled_batches(len(points), epochs, batch_size, (rng_seed, 1)))
    trace = descend(qbn, batches, _qbn_loss_and_grad, lr, None, "bottleneck reconstruction loss")
    last_epoch = trace[-math.ceil(len(points) / batch_size):]
    return Clustering(qbn=qbn, fit_metric=float(np.mean(last_epoch)) if last_epoch else float("nan"))


# ---------------------------------------------------------------------------
# clustering handle shared by both discretizers

@dataclass
class Clustering:
    """assign: (n, d) hidden states -> n node keys; represent: node key -> hidden state.

    A k-means node is its centroid's index and is represented by the
    centroid; a bottleneck node is its quantized code, a tuple of ints,
    represented by the decoder's reconstruction of that code.
    """

    centroids: np.ndarray | None = None
    qbn: QbnParams | None = None
    fit_metric: float = float("nan")

    def assign(self, h: np.ndarray) -> list[int] | list[tuple[int, ...]]:
        """Node key of each row of the (n, d) states ``h``."""
        if self.qbn is None:
            return _sq_dists(h, self.centroids).argmin(axis=1).tolist()
        codes = quantize(_qbn_encode(self.qbn, h), self.qbn.quant_levels)
        return list(map(tuple, codes.astype(np.int64).tolist()))

    def represent(self, node: int | tuple[int, ...]) -> np.ndarray:
        """Hidden state of one node."""
        if self.qbn is None:
            return self.centroids[node]
        return _qbn_decode(self.qbn, np.array([node], dtype=np.float64))[0]


def build_fsc(params: NetworkParams, clustering: Clustering, model: RobustPomdp) -> Fsc:
    """Synthesize the controller by driving the network from each node.

    Starting from the node of the zero hidden state, each node is expanded
    with one network step from its representative over every observation:
    the action distributions become its action rows and the nodes of the
    new hidden states its memory successors; the observations' input
    projections are computed once for all nodes.  Only realizable observations
    spawn nodes, so every node is reachable, numbered in the order the
    search first meets it; an entry whose target is not a node (only an
    unrealizable observation's can be) points back at its source node.
    """
    num_z = model.num_observations
    realizable = np.zeros(num_z, dtype=bool)
    realizable[model.obs_of] = True
    realizable = realizable.tolist()
    projections = [params.emb @ w.T for w in (params.w_r, params.w_u, params.w_h)]

    nodes = clustering.assign(np.zeros((1, params.hidden_size)))
    number = {nodes[0]: 0}
    action_rows, targets = [], []
    for node in nodes:
        h_next, _ = _gru_recur(params, np.tile(clustering.represent(node), (num_z, 1)), *projections)
        target = clustering.assign(h_next)
        for key in compress(target, realizable):
            if key not in number:
                number[key] = len(nodes)
                nodes.append(key)
        action_rows.append(policy_distribution(params, h_next))
        targets.append(target)

    k = len(nodes)
    memory = chain.from_iterable(map(number.get, target, repeat(n)) for n, target in enumerate(targets))
    fsc = Fsc(k, 0, np.array(action_rows), np.fromiter(memory, np.int64, k * num_z).reshape(k, num_z))
    fsc.check()
    return fsc


def fsc_fidelity(params: NetworkParams, fsc: Fsc, dataset: TrajectoryDataset, hidden: np.ndarray) -> float:
    """Mean total-variation distance between the network policy and the
    extracted controller along the dataset histories (diagnostic only).

    ``hidden`` is what collect_hidden_states returned for these parameters
    and this dataset, the states the extraction clustered; the network is
    not replayed.  The policy head runs once, on those states; only the
    controller's node is replayed, step by step over all episodes at once.
    """
    if dataset.num_steps == 0:
        return 0.0
    zs = dataset.observations
    nodes = np.full_like(zs, fsc.initial_node)
    for t in range(1, zs.shape[1]):
        nodes[:, t] = fsc.memory_map[nodes[:, t - 1], zs[:, t - 1]]
    recorded = dataset.mask > 0.0
    gap = np.abs(policy_distribution(params, hidden) - fsc.action_map[nodes[recorded], zs[recorded]])
    return 0.5 * float(gap.sum()) / dataset.num_steps
