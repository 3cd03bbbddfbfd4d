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
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from robustfsc.simulate import TrajectoryDataset
from robustfsc.solvers import DivergenceError

HEAD_WIDTH = 32

PARAM_FIELDS = (
    "emb",
    "w_r", "w_u", "w_h",
    "u_r", "u_u", "u_h",
    "b_r", "b_u", "b_h",
    "head_w1", "head_b1",
    "head_w2", "head_b2",
    "head_w3", "head_b3",
)


@dataclass
class NetworkParams:
    emb: np.ndarray      # (Z, e)
    w_r: np.ndarray      # (d, e)
    w_u: np.ndarray
    w_h: np.ndarray
    u_r: np.ndarray      # (d, d)
    u_u: np.ndarray
    u_h: np.ndarray
    b_r: np.ndarray      # (d,)
    b_u: np.ndarray
    b_h: np.ndarray
    head_w1: np.ndarray  # (HEAD_WIDTH, d)
    head_b1: np.ndarray
    head_w2: np.ndarray  # (HEAD_WIDTH, HEAD_WIDTH)
    head_b2: np.ndarray
    head_w3: np.ndarray  # (A, HEAD_WIDTH)
    head_b3: np.ndarray

    @property
    def num_observations(self) -> int:
        return self.emb.shape[0]

    @property
    def embed_size(self) -> int:
        return self.emb.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.w_r.shape[0]

    @property
    def num_actions(self) -> int:
        return self.head_w3.shape[0]

    def copy(self) -> "NetworkParams":
        return NetworkParams(**{f.name: getattr(self, f.name).copy() for f in fields(self)})

    def zeros_like(self) -> "NetworkParams":
        return NetworkParams(**{f.name: np.zeros_like(getattr(self, f.name)) for f in fields(self)})


def _orthogonal(rng: np.random.Generator, d: int) -> np.ndarray:
    a = rng.standard_normal((d, d))
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diag(r))


def init_params(
    num_observations: int,
    num_actions: int,
    hidden_size: int = 16,
    embed_size: int = 8,
    rng_seed: int | tuple[int, ...] = 0,
) -> NetworkParams:
    """Fresh parameters: orthogonal recurrent blocks, scaled-normal elsewhere."""
    rng = np.random.default_rng(rng_seed)
    d, e = hidden_size, embed_size

    def dense(rows: int, cols: int) -> np.ndarray:
        return rng.standard_normal((rows, cols)) / np.sqrt(cols)

    return NetworkParams(
        emb=rng.standard_normal((num_observations, e)) * 0.5,
        w_r=dense(d, e), w_u=dense(d, e), w_h=dense(d, e),
        u_r=_orthogonal(rng, d), u_u=_orthogonal(rng, d), u_h=_orthogonal(rng, d),
        b_r=np.zeros(d), b_u=np.zeros(d), b_h=np.zeros(d),
        head_w1=dense(HEAD_WIDTH, d), head_b1=np.zeros(HEAD_WIDTH),
        head_w2=dense(HEAD_WIDTH, HEAD_WIDTH), head_b2=np.zeros(HEAD_WIDTH),
        head_w3=dense(num_actions, HEAD_WIDTH), head_b3=np.zeros(num_actions),
    )


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _gru_step(p: NetworkParams, h: np.ndarray, x: np.ndarray):
    """One batched GRU step; returns the new hidden state and the cache."""
    r = _sigmoid(x @ p.w_r.T + h @ p.u_r.T + p.b_r)
    u = _sigmoid(x @ p.w_u.T + h @ p.u_u.T + p.b_u)
    rh = r * h
    hc = np.tanh(x @ p.w_h.T + rh @ p.u_h.T + p.b_h)
    h_new = u * h + (1.0 - u) * hc
    return h_new, (h, x, r, u, rh, hc)


def _head(p: NetworkParams, h: np.ndarray):
    """Two rectifier layers then softmax; returns log-probabilities and cache."""
    y1p = h @ p.head_w1.T + p.head_b1
    y1 = np.maximum(y1p, 0.0)
    y2p = y1 @ p.head_w2.T + p.head_b2
    y2 = np.maximum(y2p, 0.0)
    logits = y2 @ p.head_w3.T + p.head_b3
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_probs = shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return log_probs, (h, y1p, y1, y2p, y2)


def policy_distribution(params: NetworkParams, hidden: np.ndarray) -> np.ndarray:
    """Action distribution of the policy head at each row of ``hidden``."""
    log_probs, _ = _head(params, hidden)
    return np.exp(log_probs)


def forward(params: NetworkParams, hidden: np.ndarray, z: int) -> tuple[np.ndarray, np.ndarray]:
    """Consume one observation: new hidden state and action distribution."""
    x = params.emb[z][None, :]
    h_new, _ = _gru_step(params, hidden[None, :], x)
    log_probs, _ = _head(params, h_new)
    return h_new[0], np.exp(log_probs[0])


def initial_hidden(params: NetworkParams) -> np.ndarray:
    return np.zeros(params.hidden_size)


def _pad_episodes(dataset: TrajectoryDataset, idx: list[int]):
    """Stack episodes into (B, T) observation/target arrays plus a mask."""
    eps = [dataset.episodes[i] for i in idx]
    t_max = max((len(e) for e in eps), default=0)
    b = len(eps)
    zs = np.zeros((b, t_max), dtype=np.int64)
    mus = np.zeros((b, t_max, dataset.num_actions))
    mask = np.zeros((b, t_max))
    for row, ep in enumerate(eps):
        for t, st in enumerate(ep.steps):
            zs[row, t] = st.observation
            mus[row, t] = st.target
            mask[row, t] = 1.0
    return zs, mus, mask


def _loss_and_grad(
    params: NetworkParams,
    zs: np.ndarray,
    mus: np.ndarray,
    mask: np.ndarray,
    normalizer: float,
    want_grad: bool = True,
):
    """Cross-entropy between supervision targets and the policy, plus BPTT grads.

    The loss is sum over unmasked steps of CE(mu, pi) / normalizer; hidden
    states thread from zero within each row.  Padded steps are masked out of
    both the loss and, because padding sits at episode tails, the gradient.
    """
    b, t_max = zs.shape
    d = params.hidden_size
    h = np.zeros((b, d))
    gru_caches = []
    head_caches = []
    log_probs_t = []
    loss = 0.0
    for t in range(t_max):
        x = params.emb[zs[:, t]]
        h, gcache = _gru_step(params, h, x)
        log_probs, hcache = _head(params, h)
        loss -= float((mus[:, t] * log_probs).sum(axis=1) @ mask[:, t])
        gru_caches.append(gcache)
        head_caches.append(hcache)
        log_probs_t.append(log_probs)
    loss /= normalizer
    if not want_grad:
        return loss, None

    g = params.zeros_like()
    dh_next = np.zeros((b, d))
    for t in range(t_max - 1, -1, -1):
        probs = np.exp(log_probs_t[t])
        w = mask[:, t][:, None] / normalizer
        dlogits = (probs - mus[:, t]) * w
        dh = _head_backward(params, head_caches[t], dlogits, g) + dh_next
        dh_prev, dx = _gru_backward(params, gru_caches[t], dh, g)
        np.add.at(g.emb, zs[:, t], dx)
        dh_next = dh_prev
    return loss, g


def _head_backward(params: NetworkParams, cache, dlogits: np.ndarray, g: "NetworkParams") -> np.ndarray:
    """Backprop dlogits through the policy head; accumulates into g, returns dh."""
    h_t, y1p, y1, y2p, y2 = cache
    g.head_w3 += dlogits.T @ y2
    g.head_b3 += dlogits.sum(axis=0)
    dy2 = dlogits @ params.head_w3
    dy2p = dy2 * (y2p > 0)
    g.head_w2 += dy2p.T @ y1
    g.head_b2 += dy2p.sum(axis=0)
    dy1 = dy2p @ params.head_w2
    dy1p = dy1 * (y1p > 0)
    g.head_w1 += dy1p.T @ h_t
    g.head_b1 += dy1p.sum(axis=0)
    return dy1p @ params.head_w1


def _gru_backward(params: NetworkParams, cache, dh: np.ndarray, g: "NetworkParams"):
    """Backprop dh through one GRU step; accumulates into g.

    Returns (dh_prev, dx) for the previous hidden state and the embedded input.
    """
    h_prev, x, r, u, rh, hc = cache
    du = dh * (h_prev - hc)
    dhc = dh * (1.0 - u)
    dh_prev = dh * u
    dpre_h = dhc * (1.0 - hc * hc)
    g.w_h += dpre_h.T @ x
    g.b_h += dpre_h.sum(axis=0)
    g.u_h += dpre_h.T @ rh
    drh = dpre_h @ params.u_h
    dr = drh * h_prev
    dh_prev += drh * r
    dpre_u = du * u * (1.0 - u)
    g.w_u += dpre_u.T @ x
    g.b_u += dpre_u.sum(axis=0)
    g.u_u += dpre_u.T @ h_prev
    dh_prev += dpre_u @ params.u_u
    dpre_r = dr * r * (1.0 - r)
    g.w_r += dpre_r.T @ x
    g.b_r += dpre_r.sum(axis=0)
    g.u_r += dpre_r.T @ h_prev
    dh_prev += dpre_r @ params.u_r
    dx = dpre_r @ params.w_r + dpre_u @ params.w_u + dpre_h @ params.w_h
    return dh_prev, dx


def loss(params: NetworkParams, dataset: TrajectoryDataset) -> float:
    """Mean cross-entropy over every recorded step of the dataset."""
    total = dataset.num_steps
    if total == 0:
        return 0.0
    zs, mus, mask = _pad_episodes(dataset, list(range(dataset.num_episodes)))
    value, _ = _loss_and_grad(params, zs, mus, mask, float(total), want_grad=False)
    return value


class Adam:
    """Adam (Kingma & Ba 2015) over the named arrays of a parameter container.

    Works for any container with ``zeros_like`` (NetworkParams, QbnParams).
    With ``clip_norm`` set, each step first rescales the gradients in place so
    their global norm is at most ``clip_norm``.
    """

    def __init__(self, container, names, lr: float, clip_norm: float | None = None):
        self.names = names
        self.lr = lr
        self.clip_norm = clip_norm
        self.m = container.zeros_like()
        self.v = container.zeros_like()
        self.step_count = 0

    def step(self, params, grads) -> None:
        """One update of ``params`` in place."""
        if self.clip_norm is not None:
            total = 0.0
            for name in self.names:
                a = getattr(grads, name)
                total += float((a * a).sum())
            norm = np.sqrt(total)
            if norm > self.clip_norm and norm > 0.0:
                scale = self.clip_norm / norm
                for name in self.names:
                    a = getattr(grads, name)
                    a *= scale
        beta1, beta2, eps = 0.9, 0.999, 1e-8
        self.step_count += 1
        correction = np.sqrt(1.0 - beta2**self.step_count) / (1.0 - beta1**self.step_count)
        for name in self.names:
            p = getattr(params, name)
            gm = getattr(self.m, name)
            gv = getattr(self.v, name)
            ga = getattr(grads, name)
            gm *= beta1
            gm += (1.0 - beta1) * ga
            gv *= beta2
            gv += (1.0 - beta2) * ga * ga
            p -= self.lr * correction * gm / (np.sqrt(gv) + eps)


def episode_batches(
    dataset: TrajectoryDataset,
    epochs: int,
    batch_size: int,
    rng_seed: int | tuple[int, ...],
):
    """Padded minibatches of shuffled episodes: (zs, mus, mask, step count).

    Each epoch draws one permutation of the episodes and cuts it into
    batches; batches without a recorded step are skipped.
    """
    rng = np.random.default_rng(rng_seed)
    for _ in range(epochs):
        order = rng.permutation(dataset.num_episodes)
        for lo in range(0, len(order), batch_size):
            zs, mus, mask = _pad_episodes(dataset, [int(i) for i in order[lo:lo + batch_size]])
            normalizer = float(mask.sum())
            if normalizer > 0.0:
                yield zs, mus, mask, normalizer


def train_epochs(
    params: NetworkParams,
    dataset: TrajectoryDataset,
    epochs: int,
    batch_size: int = 32,
    lr: float = 1e-3,
    clip_norm: float = 5.0,
    rng_seed: int | tuple[int, ...] = 0,
) -> tuple[NetworkParams, list[float]]:
    """Adam over shuffled episode minibatches; returns new params and the
    per-batch loss trace.  Deterministic for a fixed seed."""
    params = params.copy()
    opt = Adam(params, PARAM_FIELDS, lr, clip_norm)
    trace: list[float] = []
    for zs, mus, mask, normalizer in episode_batches(dataset, epochs, batch_size, rng_seed):
        batch_loss, grad = _loss_and_grad(params, zs, mus, mask, normalizer)
        if not np.isfinite(batch_loss):
            raise DivergenceError(f"training loss became non-finite at step {len(trace)}")
        opt.step(params, grad)
        trace.append(batch_loss)
    return params, trace


def gradient_check(params: NetworkParams, dataset: TrajectoryDataset, fd_step: float = 1e-6) -> float:
    """Max relative error of the BPTT gradient against central differences.

    The relative error per coordinate is |a - n| / max(1, |a|, |n|); intended
    for desk-sized networks and short episodes in float64.
    """
    total = dataset.num_steps
    if total == 0:
        return 0.0
    zs, mus, mask = _pad_episodes(dataset, list(range(dataset.num_episodes)))
    _, grad = _loss_and_grad(params, zs, mus, mask, float(total))
    worst = 0.0
    work = params.copy()
    for name in PARAM_FIELDS:
        p = getattr(work, name)
        ga = getattr(grad, name)
        flat = p.reshape(-1)
        gflat = ga.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + fd_step
            up, _ = _loss_and_grad(work, zs, mus, mask, float(total), want_grad=False)
            flat[i] = orig - fd_step
            down, _ = _loss_and_grad(work, zs, mus, mask, float(total), want_grad=False)
            flat[i] = orig
            numeric = (up - down) / (2.0 * fd_step)
            denom = max(1.0, abs(gflat[i]), abs(numeric))
            worst = max(worst, abs(gflat[i] - numeric) / denom)
    return worst


CHECKPOINT_HEADER = "rnnparams v1"


def params_to_text(params: NetworkParams) -> str:
    """Flat text checkpoint: a header, a shape line and the values per field."""
    out = [CHECKPOINT_HEADER]
    out.append(
        f"dims {params.num_observations} {params.embed_size} "
        f"{params.hidden_size} {params.num_actions}"
    )
    for name in PARAM_FIELDS:
        a = getattr(params, name)
        vals = " ".join(np.format_float_scientific(x, unique=True) for x in a.reshape(-1))
        out.append(f"{name} {vals}" if vals else name)
    return "\n".join(out) + "\n"


def params_from_text(text: str) -> NetworkParams:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != CHECKPOINT_HEADER:
        raise ValueError(f"expected checkpoint header {CHECKPOINT_HEADER!r}")
    toks = lines[1].split() if len(lines) > 1 else []
    if toks[:1] != ["dims"] or len(toks) != 5:
        raise ValueError("expected 'dims Z e d A' on the second line")
    nz, e, d, na = (int(t) for t in toks[1:])
    shapes = {
        "emb": (nz, e),
        "w_r": (d, e), "w_u": (d, e), "w_h": (d, e),
        "u_r": (d, d), "u_u": (d, d), "u_h": (d, d),
        "b_r": (d,), "b_u": (d,), "b_h": (d,),
        "head_w1": (HEAD_WIDTH, d), "head_b1": (HEAD_WIDTH,),
        "head_w2": (HEAD_WIDTH, HEAD_WIDTH), "head_b2": (HEAD_WIDTH,),
        "head_w3": (na, HEAD_WIDTH), "head_b3": (na,),
    }
    arrays = {}
    for line in lines[2:]:
        toks = line.split()
        name = toks[0]
        if name not in shapes:
            raise ValueError(f"unknown parameter field {name!r}")
        arrays[name] = np.array([float(t) for t in toks[1:]]).reshape(shapes[name])
    missing = [n for n in PARAM_FIELDS if n not in arrays]
    if missing:
        raise ValueError(f"checkpoint missing fields: {missing}")
    return NetworkParams(**arrays)
