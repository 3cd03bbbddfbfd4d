"""Discretizing GRU hidden states into controller memory nodes.

Two discretizers produce a Clustering (assign/represent pair), both fitted
after training to the hidden states visited on the dataset: k-means++, or a
quantized bottleneck autoencoder whose code book becomes the node set (the
post-hoc QBN of Koul et al., 2019).  The bottleneck's parameters are one
flat vector like the network's, and both its halves run on the dense-layer
stack of ``rnn`` that the policy head uses.

The network runs only in batches: one replay unrolls it over every episode
of a dataset at once (hidden states, which fidelity reuses), and build_fsc
expands each node with one step over all observations, whose action
distributions become the node's rows and whose clusters its memory
successors.  Only nodes the initial node reaches are created.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from robustfsc.model import Fsc, RobustPomdp
from robustfsc.rnn import (
    Adam,
    FlatParams,
    NetworkParams,
    _gru_step,
    dense_backward,
    dense_forward,
    dense_init,
    dense_layout,
    initial_hidden,
    policy_distribution,
)
from robustfsc.simulate import TrajectoryDataset
from robustfsc.solvers import DivergenceError


def collect_hidden_states(params: NetworkParams, dataset: TrajectoryDataset) -> np.ndarray:
    """Hidden states after every observation of every episode, episode-major;
    all episodes are unrolled at once."""
    zs = dataset.observations
    hs = np.empty(zs.shape + (params.hidden_size,))
    h = np.zeros((len(zs), params.hidden_size))
    for t in range(zs.shape[1]):
        h, _ = _gru_step(params, h, params.emb[zs[:, t]])
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
    return Clustering(method="kmeans", centroids=centroids, fit_metric=inertia)


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


def quantize(codes: np.ndarray, levels: int) -> np.ndarray:
    """Round to {-1, 0, 1} (thresholds at +-0.5) or to {-1, 1} (sign)."""
    if levels == 3:
        return np.where(codes > 0.5, 1.0, np.where(codes < -0.5, -1.0, 0.0))
    if levels == 2:
        return np.where(codes >= 0.0, 1.0, -1.0)
    raise ValueError("quant_levels must be 2 or 3")


def qbn_init(hidden_size: int, bottleneck: int, quant_levels: int = 3, rng_seed: int | tuple[int, ...] = 0) -> QbnParams:
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


def _codes(qbn: QbnParams, h: np.ndarray) -> list[tuple]:
    """Quantized code of each row of ``h`` as an integer tuple."""
    return list(map(tuple, quantize(_qbn_encode(qbn, h), qbn.quant_levels).astype(np.int64).tolist()))


def qbn_fit_posthoc(
    points: np.ndarray,
    bottleneck: int,
    quant_levels: int = 3,
    epochs: int = 50,
    lr: float = 1e-3,
    batch_size: int = 32,
    rng_seed: int | tuple[int, ...] = 0,
) -> "Clustering":
    """Train the bottleneck to reconstruct hidden states through its quantizer.

    The quantizer contributes no gradient of its own: backpropagation passes
    through it as the identity (straight-through), so the encoder still
    learns even though its output is snapped to the code book.  Returns a
    Clustering whose nodes are the codes observed on the training points and
    whose fit_metric is the final epoch's mean reconstruction error.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or len(points) == 0:
        raise ValueError("need a nonempty (n, d) point array")
    qbn = qbn_init(points.shape[1], bottleneck, quant_levels, rng_seed)
    rng = np.random.default_rng((rng_seed, 1))
    opt = Adam(qbn, lr)
    grad = qbn.zeros_like()
    epoch_mse = []
    for _ in range(epochs):
        order = rng.permutation(len(points))
        losses = []
        for lo in range(0, len(order), batch_size):
            mse, _ = _qbn_loss_and_grad(qbn, points[order[lo:lo + batch_size]], grad)
            if not np.isfinite(mse):
                raise DivergenceError("bottleneck reconstruction loss became non-finite")
            losses.append(mse)
            opt.step(qbn, grad)
        epoch_mse.append(float(np.mean(losses)))

    return Clustering(
        method="qbn_posthoc", qbn=qbn, codes=list(dict.fromkeys(_codes(qbn, points))),
        fit_metric=epoch_mse[-1] if epoch_mse else float("nan"),
        mse_trace=epoch_mse,
    )


# ---------------------------------------------------------------------------
# clustering handle shared by both discretizers

@dataclass
class Clustering:
    """assign: hidden state -> node index; represent: node -> hidden state.

    For k-means the representative is the centroid; for the bottleneck it
    is the decoder's reconstruction of the node's code, and assign may
    discover codes beyond those seen during fitting (``discover=True``).
    """

    method: str
    centroids: np.ndarray | None = None
    qbn: QbnParams | None = None
    codes: list[tuple] | None = None
    fit_metric: float = float("nan")
    mse_trace: list[float] = field(default_factory=list)

    @property
    def num_nodes(self) -> int:
        if self.method == "kmeans":
            return len(self.centroids)
        return len(self.codes)

    def assign(self, h: np.ndarray, discover: bool | np.ndarray = False) -> np.ndarray | int | None:
        """Node of each row of ``h``, -1 for a code not in the table (None
        for a 1-D ``h``).  Rows flagged by ``discover`` (one flag or one per
        row) add unseen codes to the table, numbered in row order."""
        rows = np.atleast_2d(h)
        if self.method == "kmeans":
            nodes = _sq_dists(rows, self.centroids).argmin(axis=1)
        else:
            codes = _codes(self.qbn, rows)
            index = {code: i for i, code in enumerate(self.codes)}
            nodes = np.empty(len(rows), dtype=np.int64)
            for row, (code, new) in enumerate(zip(codes, np.broadcast_to(discover, len(rows)))):
                if new and code not in index:
                    index[code] = len(self.codes)
                    self.codes.append(code)
                nodes[row] = index.get(code, -1)
        if np.ndim(h) == 2:
            return nodes
        return int(nodes[0]) if nodes[0] >= 0 else None

    def represent(self, node: int | np.ndarray) -> np.ndarray:
        """Hidden state of each node; an int node gives one state."""
        if self.method == "kmeans":
            return self.centroids[node]
        codes = np.asarray(self.codes, dtype=np.float64)[node]
        out = _qbn_decode(self.qbn, np.atleast_2d(codes))
        return out.reshape(np.shape(node) + out.shape[-1:])


def build_fsc(params: NetworkParams, clustering: Clustering, model: RobustPomdp) -> Fsc:
    """Synthesize the controller by driving the network from each node.

    Starting from the node of the zero hidden state, each node is expanded
    with one network step from its representative over every observation:
    the action distributions become its action rows and the clusters of the
    new hidden states its memory successors.  Only realizable observations
    spawn (or discover) nodes, so every node is reachable, numbered in the
    order the search first meets it; an entry whose target is not a node
    points back at its source node.
    """
    num_z = model.num_observations
    realizable = np.zeros(num_z, dtype=bool)
    realizable[model.realizable_observations()] = True
    x = params.emb[np.arange(num_z)]

    order = [clustering.assign(initial_hidden(params), discover=True)]
    dense_of = {order[0]: 0}
    action_rows, targets = [], []
    for node in order:
        h_next, _ = _gru_step(params, np.tile(clustering.represent(node), (num_z, 1)), x)
        target = clustering.assign(h_next, discover=realizable)
        for m in target[realizable].tolist():
            if m not in dense_of:
                dense_of[m] = len(order)
                order.append(m)
        action_rows.append(policy_distribution(params, h_next))
        targets.append(target)

    k = len(order)
    dense = np.full(clustering.num_nodes + 1, -1)  # the last entry answers target -1
    dense[order] = np.arange(k)
    memory_map = dense[np.array(targets)]
    # Targets that are not nodes only arise on observations no state emits;
    # point those entries back at the source node.
    memory_map = np.where(memory_map >= 0, memory_map, np.arange(k)[:, None])
    fsc = Fsc(k, 0, np.array(action_rows), memory_map)
    fsc.check()
    return fsc


def fsc_fidelity(
    params: NetworkParams, fsc: Fsc, dataset: TrajectoryDataset, hidden: np.ndarray | None = None
) -> float:
    """Mean total-variation distance between the network policy and the
    extracted controller along the dataset histories (diagnostic only).

    ``hidden`` is what collect_hidden_states returns for these parameters
    and this dataset; without it the network is replayed.  The policy head
    runs once, on the states stacked time-major, one (episodes, d) batch
    per step.
    """
    if dataset.num_steps == 0:
        return 0.0
    if hidden is None:
        hidden = collect_hidden_states(params, dataset)
    zs = dataset.observations
    recorded = dataset.mask > 0.0
    hs = np.zeros((zs.shape[1], len(zs), params.hidden_size))
    hs.swapaxes(0, 1)[recorded] = hidden
    dist = policy_distribution(params, hs)
    node = np.full(len(zs), fsc.initial_node)
    total = 0.0
    for t in range(zs.shape[1]):
        gap = np.abs(dist[t] - fsc.action_map[node, zs[:, t]])
        total += 0.5 * float(gap.sum(axis=1)[recorded[:, t]].sum())
        node = fsc.memory_map[node, zs[:, t]]
    return total / dataset.num_steps
