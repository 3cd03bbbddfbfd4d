"""Observation-embedding GRU policy trained by backpropagation through time.

Everything runs in float64 numpy so the analytic gradients can be checked
against central finite differences to tight tolerances.  The gate convention
is fixed as

    r  = sigmoid(W_r x + U_r h + b_r)
    u  = sigmoid(W_u x + U_u h + b_u)
    hc = tanh(W_h x + U_h (r * h) + b_h)
    h' = u * h + (1 - u) * hc

with x the learned embedding of the observation, followed by a two-layer
rectifier head (width 32) and a softmax over actions.

Parameters are one float64 vector, ``flat``, with named arrays as views of
it; the head runs on the dense-layer stack the bottleneck in ``extract`` uses.

Training is backpropagation through time over whole sequences.  Only the
recurrence stays in the time loops: forward, h @ U_*^T, the gates and the
new state; backward, dh through the gates into dh_prev, each step's gate
pre-activation gradients stored in (T, B, d) arrays.  Everything else runs
once per batch on time-major (T, B, .) stacks: the embedding lookup and the
input projections x W_*^T, the head forward and backward, the log-softmax
and the loss terms, every W_*, U_*, b_* gradient, dx and one scatter into
the embedding gradient.  Losses and gradients are bit for bit those of a
step-by-step pass, which takes four rules:

* products run per step on the stack, (T, B, e) @ W^T and
  swapaxes(dpre) @ x, never as one (T*B)-row product, which may round
  differently;
* a weight gradient sums its per-step terms last step first, one at a time
  (a sequential axis-0 sum of the contiguous reversed stack);
* each step's loss term is a dot with the strided column mask[:, t];
* the embedding gradient is scattered in (t descending, b ascending) order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from robustfsc.model import DivergenceError
from robustfsc.simulate import TrajectoryDataset

HEAD_WIDTH = 32
CLIP_NORM = 5.0  # train_epochs rescales each step's gradients to at most this global norm

# a container's (name, shape) pairs in the order they are stored in ``flat``
Layout = tuple[tuple[str, tuple[int, ...]], ...]


def dense_layout(prefix: str, sizes: tuple[int, ...]) -> Layout:
    """Dense stack sizes[0] -> sizes[1] -> ...: layer i has the weight
    ``<prefix>_w<i>`` (sizes[i], sizes[i-1]) and the bias ``<prefix>_b<i>``."""
    out: list[tuple[str, tuple[int, ...]]] = []
    for i in range(1, len(sizes)):
        out += [(f"{prefix}_w{i}", (sizes[i], sizes[i - 1])), (f"{prefix}_b{i}", (sizes[i],))]
    return tuple(out)


def network_layout(num_observations: int, embed_size: int, hidden_size: int, num_actions: int) -> Layout:
    d, e = hidden_size, embed_size
    return (
        (("emb", (num_observations, e)),)
        + tuple((f"w_{gate}", (d, e)) for gate in "ruh")
        + tuple((f"u_{gate}", (d, d)) for gate in "ruh")
        + tuple((f"b_{gate}", (d,)) for gate in "ruh")
        + dense_layout("head", (d, HEAD_WIDTH, HEAD_WIDTH, num_actions))
    )


@dataclass(eq=False)
class FlatParams:
    """Named float64 arrays that are reshaped views of one vector, ``flat``.

    Each name of ``layout`` becomes an attribute viewing its slice of
    ``flat`` (zeros when no vector is given).  Write fields in place
    (``p.w[...] = x``, ``p.w += x``): a field rebound to a fresh array is no
    longer part of ``flat`` and silently stops being trained.
    """

    layout: Layout
    flat: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.flat is None:
            self.flat = np.zeros(sum(math.prod(shape) for _, shape in self.layout))
        lo = 0
        for name, shape in self.layout:
            hi = lo + math.prod(shape)
            setattr(self, name, self.flat[lo:hi].reshape(shape))
            lo = hi

    def layers(self, prefix: str) -> list[tuple[np.ndarray, np.ndarray]]:
        """(W, b) views of the dense stack ``prefix``, input layer first."""
        depth = sum(name.startswith(f"{prefix}_w") for name, _ in self.layout)
        return [(getattr(self, f"{prefix}_w{i}"), getattr(self, f"{prefix}_b{i}")) for i in range(1, depth + 1)]

    def copy(self):
        return replace(self, flat=self.flat.copy())

    def zeros_like(self):
        return replace(self, flat=np.zeros_like(self.flat))


class NetworkParams(FlatParams):
    """GRU policy: ``emb`` (Z, e); ``w_*`` (d, e), ``u_*`` (d, d) and ``b_*``
    (d,) for the gates r, u, h; the head stack d -> 32 -> 32 -> A."""

    @property
    def hidden_size(self) -> int:
        return self.w_r.shape[0]

    @cached_property
    def head(self) -> list[tuple[np.ndarray, np.ndarray]]:
        return self.layers("head")


HEAD_ACTIVATIONS = ("relu", "relu", "linear")


def tanh_flat(x: np.ndarray) -> np.ndarray:
    """1.5 tanh(x) + 0.5 tanh(-3x): maps to [-1, 1] but flat around zero."""
    return 1.5 * np.tanh(x) + 0.5 * np.tanh(-3.0 * x)


# activation name -> (function of the pre-activation, derivative from the
# pre-activation and the output; None for the identity)
ACTIVATIONS = {
    "relu": (lambda pre: np.maximum(pre, 0.0), lambda pre, out: pre > 0),
    "tanh": (np.tanh, lambda pre, out: 1.0 - out * out),
    "tanh_flat": (tanh_flat, lambda pre, out: 1.5 * (np.tanh(3.0 * pre) ** 2 - np.tanh(pre) ** 2)),
    "linear": (lambda pre: pre, None),
}


def dense_forward(layers, activations, x: np.ndarray, cache: list | None = None) -> np.ndarray:
    """Run the rows of ``x`` through (W, b) layers with the named
    activations and return the output; with a ``cache`` list given, append
    what dense_backward reads (without one, a layer's arrays are freed once
    the next layer has its input)."""
    for (w, b), act in zip(layers, activations):
        pre = x @ w.T
        pre += b
        out = ACTIVATIONS[act][0](pre)
        if cache is not None:
            cache.append((x, pre, out))
        del pre
        x = out
    return x


def dense_backward(layers, activations, cache, dout: np.ndarray, grads) -> np.ndarray:
    """Backprop ``dout`` through the stack; accumulates into the (gW, gb)
    pairs of ``grads`` and returns the gradient of the stack's input.

    A (T, B, .) input is a stack of T per-step batches: every product runs
    per step and the weight gradients sum the steps last first (_sum_steps).
    """
    for (w, _), act, (x, pre, out), (gw, gb) in reversed(list(zip(layers, activations, cache, grads))):
        derivative = ACTIVATIONS[act][1]
        dpre = dout if derivative is None else dout * derivative(pre, out)
        gw += _sum_steps(dpre.swapaxes(-1, -2) @ x, 2)
        gb += _sum_steps(dpre.sum(axis=-2), 1)
        dout = dpre @ w
    return dout


def _sum_steps(a: np.ndarray, rank: int) -> np.ndarray:
    """Sum a (T, ...) stack of per-step terms of ``rank`` dimensions over its
    steps, last step first and one at a time: the order in which a
    step-by-step backward pass accumulates them.  A lone term (no step
    axis) passes through."""
    if a.ndim == rank:
        return a
    return np.ascontiguousarray(a[::-1]).sum(axis=0)


def dense_init(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    """Normal weights with variance 1 / fan-in (``shape[1]``)."""
    return rng.standard_normal(shape) / np.sqrt(shape[1])


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def init_params(
    num_observations: int,
    num_actions: int,
    hidden_size: int,
    embed_size: int,
    rng_seed: int | tuple[int, ...] = 0,
) -> NetworkParams:
    """Fresh parameters: orthogonal recurrent blocks, scaled-normal elsewhere,
    drawn in layout order; biases start at zero."""
    rng = np.random.default_rng(rng_seed)
    p = NetworkParams(network_layout(num_observations, embed_size, hidden_size, num_actions))
    for name, shape in p.layout:
        if name == "emb":
            p.emb[...] = rng.standard_normal(shape) * 0.5
        elif name.startswith("u_"):
            getattr(p, name)[...] = _orthogonal(rng, hidden_size)
        elif len(shape) == 2:
            getattr(p, name)[...] = dense_init(rng, shape)
    return p


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function, 1 / (1 + e) for x >= 0 and e / (1 + e) below,
    with e = exp(-|x|), which never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def _gru_recur(p: NetworkParams, h: np.ndarray, xr: np.ndarray, xu: np.ndarray, xh: np.ndarray):
    """The recurrent part of a GRU step, given the input projections
    x W_r^T, x W_u^T and x W_h^T; returns the new state and (r, u, rh, hc)."""
    r = _sigmoid(xr + h @ p.u_r.T + p.b_r)
    u = _sigmoid(xu + h @ p.u_u.T + p.b_u)
    rh = r * h
    hc = np.tanh(xh + rh @ p.u_h.T + p.b_h)
    return u * h + (1.0 - u) * hc, (r, u, rh, hc)


def _head(p: NetworkParams, h: np.ndarray, cache: list | None = None) -> np.ndarray:
    """Two rectifier layers then softmax; returns log-probabilities (see
    dense_forward for ``cache``)."""
    logits = dense_forward(p.head, HEAD_ACTIVATIONS, h, cache)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def policy_distribution(params: NetworkParams, hidden: np.ndarray) -> np.ndarray:
    """Action distribution of the policy head at each row of ``hidden``."""
    return np.exp(_head(params, hidden))


def _loss_and_grad(
    params: NetworkParams,
    zs: np.ndarray,
    actions: np.ndarray,
    mask: np.ndarray,
    normalizer: float,
    grad: NetworkParams | None = None,
):
    """Cross-entropy against the supervision action, plus BPTT grads.

    The loss is sum over unmasked steps of -log pi(a) / normalizer, with
    log pi(a) read at each step's action index; hidden states thread
    from zero within each row.  Padded steps are masked out of both the loss
    and, because padding sits at episode tails, the gradient.
    The gradient is written into ``grad``, zeroed first, when one is given.

    Only the recurrence runs step by step (see the module docstring).
    """
    b, t_max = zs.shape
    d = params.hidden_size
    x = params.emb[zs.T]
    xr, xu, xh = x @ params.w_r.T, x @ params.w_u.T, x @ params.w_h.T
    hs = np.zeros((t_max + 1, b, d))  # hs[t + 1] is the state after step t
    r, u, rh, hc = (np.empty((t_max, b, d)) for _ in range(4))
    for t in range(t_max):
        hs[t + 1], (r[t], u[t], rh[t], hc[t]) = _gru_recur(params, hs[t], xr[t], xu[t], xh[t])
    head_cache = []
    log_probs = _head(params, hs[1:], head_cache)
    chosen = (*np.indices(actions.T.shape), actions.T)  # each step's action index in log_probs
    step_ce = log_probs[chosen]
    loss = 0.0
    for t in range(t_max):
        loss -= float(step_ce[t] @ mask[:, t])
    loss /= normalizer

    g = params.zeros_like() if grad is None else grad
    g.flat[...] = 0.0
    dlogits = np.exp(log_probs)
    dlogits[chosen] -= 1.0
    dlogits *= mask.T[:, :, None] / normalizer
    dh_head = dense_backward(params.head, HEAD_ACTIVATIONS, head_cache, dlogits, g.head)
    h_prev = hs[:-1]
    gap, keep, dtanh, r_keep = h_prev - hc, 1.0 - u, 1.0 - hc * hc, 1.0 - r
    dpre_r, dpre_u, dpre_h = (np.empty((t_max, b, d)) for _ in range(3))
    dh_next = np.zeros((b, d))  # gradient of the state after step t
    for t in range(t_max - 1, -1, -1):
        dh = dh_head[t] + dh_next
        dpre_h[t] = dh * keep[t] * dtanh[t]
        drh = dpre_h[t] @ params.u_h
        dh_next = dh * u[t]
        dh_next += drh * r[t]
        dpre_u[t] = dh * gap[t] * u[t] * keep[t]
        dh_next += dpre_u[t] @ params.u_u
        dpre_r[t] = drh * h_prev[t] * r[t] * r_keep[t]
        dh_next += dpre_r[t] @ params.u_r

    for dpre, gw, gu, gb, inp in ((dpre_h, g.w_h, g.u_h, g.b_h, rh),
                                  (dpre_u, g.w_u, g.u_u, g.b_u, h_prev),
                                  (dpre_r, g.w_r, g.u_r, g.b_r, h_prev)):
        dpre_t = dpre.swapaxes(1, 2)
        gw += _sum_steps(dpre_t @ x, 2)
        gb += _sum_steps(dpre.sum(axis=1), 1)
        gu += _sum_steps(dpre_t @ inp, 2)
    dx = dpre_r @ params.w_r + dpre_u @ params.w_u + dpre_h @ params.w_h
    np.add.at(g.emb, zs.T[::-1].reshape(-1), dx[::-1].reshape(-1, x.shape[-1]))
    return loss, g


def shuffled_batches(items: int | np.ndarray, epochs: int, batch_size: int, rng_seed: int | tuple[int, ...]):
    """Each epoch one ``rng.permutation(items)`` cut into batches of
    ``batch_size``, the last one short when the count does not divide."""
    rng = np.random.default_rng(rng_seed)
    for _ in range(epochs):
        order = rng.permutation(items)
        for lo in range(0, len(order), batch_size):
            yield order[lo:lo + batch_size]


def descend(params: FlatParams, batches, loss_and_grad, lr: float, clip_norm: float | None, what: str) -> list[float]:
    """Adam (Kingma & Ba 2015) on ``params.flat`` in place, one step per
    batch (a tuple of arguments to ``loss_and_grad(params, *batch, grad=...)``,
    which writes into one reused buffer); returns the per-batch losses.  A
    non-finite loss raises DivergenceError before its step.

    With ``clip_norm`` set, each step first rescales the gradient in place so
    its norm is at most ``clip_norm``.
    """
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    grad = params.zeros_like()
    g = grad.flat
    m, v = np.zeros_like(g), np.zeros_like(g)
    trace: list[float] = []
    for t, batch in enumerate(batches, start=1):
        loss, _ = loss_and_grad(params, *batch, grad=grad)
        if not np.isfinite(loss):
            raise DivergenceError(f"{what} became non-finite at step {t - 1}")
        if clip_norm is not None:
            norm = np.sqrt(g @ g)
            if norm > clip_norm:
                g *= clip_norm / norm
        correction = np.sqrt(1.0 - beta2**t) / (1.0 - beta1**t)
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        params.flat -= lr * correction * m / (np.sqrt(v) + eps)
        trace.append(loss)
    return trace


def episode_batches(
    dataset: TrajectoryDataset,
    epochs: int,
    batch_size: int,
    rng_seed: int | tuple[int, ...],
):
    """Padded minibatches of shuffled episodes: (zs, actions, mask, step count).

    ``shuffled_batches`` of the episodes that record a step (with none
    empty, the draw of ``rng.permutation(num_episodes)``), so every epoch has
    the same number of batches.  A batch is the dataset's rows cut to the
    batch's longest episode.
    """
    zs, actions, mask, lengths = dataset.observations, dataset.actions, dataset.mask, dataset.lengths
    for rows in shuffled_batches(np.flatnonzero(lengths > 0), epochs, batch_size, rng_seed):
        t_max = int(lengths[rows].max())
        yield zs[rows, :t_max], actions[rows, :t_max], mask[rows, :t_max], float(lengths[rows].sum())


def train_epochs(
    params: NetworkParams,
    dataset: TrajectoryDataset,
    epochs: int,
    batch_size: int,
    lr: float,
    rng_seed: int | tuple[int, ...] = 0,
) -> tuple[NetworkParams, list[float]]:
    """``descend`` over shuffled episode minibatches; returns new params and
    the per-batch loss trace.  Deterministic for a fixed seed."""
    params = params.copy()
    batches = episode_batches(dataset, epochs, batch_size, rng_seed)
    return params, descend(params, batches, _loss_and_grad, lr, CLIP_NORM, "training loss")
