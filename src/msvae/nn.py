"""Reusable layers: linear maps, embeddings, GRU cells, key-value attention,
the bottleneck attention module, and the autoregressive latent prior.

Every layer registers its parameters in a local dict name -> Node so models
can collect them hierarchically for the optimizer and for checkpoints.
All batch-shaped activations are (B, feature) matrices and the K latent
slots one (B, K, feature) tensor; a variable-length
batch runs packed (see Packing): step t computes only the rows still
running, and the results return to the caller's row order. A recurrence
multiplies the GRU inputs that do not depend on its state once for all of
its steps (GruCell.input_gates) and feeds each step its block.
"""

from __future__ import annotations

import json
import os
import struct

import numpy as np

from . import autodiff as ad
from .autodiff import Node

LOGVAR_MIN = -8.0
LOGVAR_MAX = 8.0


class Layer:
    """Base: parameter registry plus recursive collection."""

    def __init__(self):
        self._params: dict[str, Node] = {}
        self._children: dict[str, Layer] = {}

    def _param(self, name: str, value: np.ndarray) -> Node:
        node = ad.leaf(np.asarray(value, dtype=np.float64), name=name)
        self._params[name] = node
        return node

    def _child(self, name: str, layer: "Layer") -> "Layer":
        self._children[name] = layer
        return layer

    def named_params(self, prefix: str = "") -> dict[str, Node]:
        out = {}
        for k, p in self._params.items():
            p.name = prefix + k  # hierarchical names keep optimizer state unambiguous
            out[p.name] = p
        for k, c in self._children.items():
            out.update(c.named_params(prefix + k + "."))
        return out

    def params(self) -> list[Node]:
        return list(self.named_params().values())

    def load_values(self, values: dict[str, np.ndarray], prefix: str = "") -> None:
        """Copy matching arrays into parameters; shape mismatches raise."""
        for name, node in self.named_params(prefix).items():
            if name in values:
                arr = np.asarray(values[name], dtype=np.float64)
                if arr.shape != node.value.shape:
                    raise ValueError(f"checkpoint param {name}: shape {arr.shape} vs {node.value.shape}")
                node.value[...] = arr


def glorot(rng, fan_in, fan_out):
    s = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-s, s, size=(fan_in, fan_out))


class Linear(Layer):
    def __init__(self, rng, n_in: int, n_out: int):
        super().__init__()
        self.w = self._param("w", glorot(rng, n_in, n_out))
        self.b = self._param("b", np.zeros(n_out))

    def __call__(self, x: Node) -> Node:
        return ad.add_rowvec(ad.matmul(x, self.w), self.b)


class Embedding(Layer):
    """Lookup table initialized like word embeddings, N(0, 0.02^2)."""

    def __init__(self, rng, n_rows: int, dim: int):
        super().__init__()
        self.table = self._param("table", rng.normal(0.0, 0.02, size=(n_rows, dim)))

    def __call__(self, ids) -> Node:
        return ad.embedding(self.table, ids)


def gru_step_values(gx: np.ndarray, hv: np.ndarray, u: np.ndarray, bx: np.ndarray, bh: np.ndarray,
                    x: np.ndarray | None = None, w: np.ndarray | None = None):
    """The forward arithmetic of fused_gru_step on arrays, the one place it
    is written. Returns the next state and what the backward pass reads:
    the r and z gates in one (n, 2H) array, the candidate state n and the
    candidate's recurrent pre-activation gh_n."""
    nh = hv.shape[1]
    pre = gx + bx
    if x is not None:
        pre += np.matmul(x[:, None, :], w)[:, 0] if w.ndim == 3 else x @ w
    gh = hv @ u
    gh += bh
    rz = np.add(pre[:, : 2 * nh], gh[:, : 2 * nh])  # the r and z gates in one array
    np.negative(rz, out=rz)
    np.exp(rz, out=rz)
    rz += 1.0
    np.divide(1.0, rz, out=rz)
    gh_n = gh[:, 2 * nh :].copy()  # a view would keep all of gh alive for the backward pass
    n = rz[:, :nh] * gh_n
    n += pre[:, 2 * nh :]
    np.tanh(n, out=n)
    out = hv - n  # h' = n + z * (h - n)
    out *= rz[:, nh:]
    out += n
    return out, rz, n, gh_n


def fused_gru_step(gx: Node, h: Node, u: Node, bx: Node, bh: Node, x: Node | None = None,
                   w: Node | None = None) -> Node:
    """One GRU step as a single graph node with a hand-written backward.

    The input pre-activation is gx + bx + x w. gx is the step's block of the
    inputs that do not depend on the state, already multiplied by their rows
    of the input weight (GruCell.input_gates); x is an input computed from
    the state and w its weight rows, shared (in, 3H) or one block per row
    (n, in, 3H), as when attention weights mix each row's memory projected
    by the input weight (an input-fed context). The bias and the product
    are added in gru_step_values, so no pre-activation array outlives the
    step. Equivalent to concatenating every input and multiplying by the
    whole input weight, the oracle it is tested against, with an order of
    magnitude fewer nodes.
    """
    hv = h.value
    nh = hv.shape[1]
    out, rz, n, gh_n = gru_step_values(gx.value, hv, u.value, bx.value, bh.value,
                                       None if x is None else x.value, None if x is None else w.value)
    r, z = rz[:, :nh], rz[:, nh:]
    per_row = x is not None and w.value.ndim == 3
    operands = (gx, h, u, bx, bh) + ((x, w) if x is not None else ())

    def vjp(g):
        dgx = np.empty((g.shape[0], 3 * nh))
        drz, dpre_n = dgx[:, : 2 * nh], dgx[:, 2 * nh :]
        np.multiply(g, 1.0 - z, out=dpre_n)
        dpre_n *= 1.0 - n * n
        np.multiply(dpre_n, gh_n, out=drz[:, :nh])
        np.multiply(g, hv - n, out=drz[:, nh:])
        drz *= rz
        drz *= 1.0 - rz
        dgh = dgx.copy()
        dgh[:, 2 * nh :] *= r
        dh = dgh @ u.value.T + g * z if h.needs_grad else None
        grads = [dgx, dh, hv.T @ dgh, dgx.sum(axis=0), dgh.sum(axis=0)]
        if per_row:
            grads += [np.matmul(w.value, dgx[:, :, None])[:, :, 0] if x.needs_grad else None,
                      x.value[:, :, None] * dgx[:, None, :] if w.needs_grad else None]
        elif x is not None:
            grads += [dgx @ w.value.T if x.needs_grad else None, x.value.T @ dgx if w.needs_grad else None]
        return grads

    return Node(out, operands, vjp)


class GruCell(Layer):
    """Gated recurrent unit with fused gate weights (r, z, n order).

    The input weight w multiplies the concatenated inputs. A recurrence
    multiplies the inputs that do not depend on its state once, for every
    step of a packed batch (input_gates), and hands each step's block to
    step; input rows fed per step get their own row blocks of w (split_rows
    on the leaf, so names, shapes and checkpoints stay those of one weight).
    """

    def __init__(self, rng, n_in: int, n_hidden: int):
        super().__init__()
        self.n_hidden = n_hidden
        s = 1.0 / np.sqrt(n_hidden)
        self.w = self._param("w", rng.uniform(-s, s, size=(n_in, 3 * n_hidden)))
        self.u = self._param("u", rng.uniform(-s, s, size=(n_hidden, 3 * n_hidden)))
        self.bx = self._param("bx", np.zeros(3 * n_hidden))
        self.bh = self._param("bh", np.zeros(3 * n_hidden))

    def input_gates(self, x: Node, counts, w: Node | None = None) -> list[Node]:
        """Packed static inputs (sum(counts), in) times w (default: the whole
        input weight) in one product, cut into per-step (counts[t], 3H)
        blocks; the bias is added in the step."""
        return ad.split_rows(ad.matmul(x, self.w if w is None else w), counts)

    def step(self, gx: Node, h: Node, x: Node | None = None, w: Node | None = None) -> Node:
        """The next state from a step's static gate block gx, the state h and
        the optional state-dependent input x (n, in) with its weight rows w,
        shared (in, 3H) or per row (n, in, 3H); see fused_gru_step."""
        n, width = h.value.shape[0], 3 * self.n_hidden
        if (gx.value.shape != (n, width) or h.value.shape[1] != self.n_hidden
                or (x is not None and (x.value.ndim != 2 or x.value.shape[0] != n
                                       or w.value.shape not in ((x.value.shape[1], width), x.value.shape + (width,))))):
            shapes = [None if a is None else a.value.shape for a in (gx, h, x, w)]
            raise ad.ShapeMismatch(f"gru step: gates, state, input, its weight {shapes}"
                                   f" do not conform to hidden size {self.n_hidden}")
        return fused_gru_step(gx, h, self.u, self.bx, self.bh, x, w)

    def init_state(self, batch: int) -> Node:
        return ad.constant(np.zeros((batch, self.n_hidden)))


class Packing:
    """The rows of a ragged (B, T) batch sorted longest first (stably), so
    the rows still running at step t are the prefix [:counts[t]] of `order`.

    Packed arrays hold the running (row, step) pairs step-major in that
    order; `pack` gathers them from a (B, T, ...) array in one copy and
    `split` cuts a packed array into its per-step blocks without copying.
    """

    def __init__(self, mask: np.ndarray):
        b, width = mask.shape
        lengths = (mask > 0).sum(axis=1)
        if b == 0 or lengths.min() < 1 or not np.array_equal(mask > 0, np.arange(width) < lengths[:, None]):
            raise ValueError("packing: a row is empty or its mask is not ones followed by zeros")
        self.order = np.argsort(-lengths, kind="stable")
        self.identity = bool((self.order == np.arange(b)).all())
        self.counts = (lengths[:, None] > np.arange(width)).sum(axis=0)
        self._offsets = np.cumsum(self.counts)[:-1]
        self._rows = np.concatenate([self.order[:n] for n in self.counts])
        self._steps = np.repeat(np.arange(width), self.counts)
        self.last = np.arange(b) * width + lengths - 1  # each row's last step in a flattened (B * T) array

    def pack(self, a: np.ndarray) -> np.ndarray:
        """(B, T, ...) -> (sum(counts), ...) running rows, step-major."""
        return a[self._rows, self._steps]

    def positions(self) -> np.ndarray:
        """(B, T): each running (row, step)'s row in a packed array; -1 at padding."""
        pos = np.full((self.order.size, self.counts.size), -1, dtype=np.intp)
        pos[self._rows, self._steps] = np.arange(self._rows.size)
        return pos

    def split(self, packed: np.ndarray) -> list[np.ndarray]:
        """Packed rows -> per-step views, step t's of shape (counts[t], ...)."""
        return np.split(packed, self._offsets)

    def steps(self, a: np.ndarray) -> list[np.ndarray]:
        """(B, T, ...) -> step t's running rows, longest first, for each t."""
        return self.split(self.pack(a))


def gru_encode(cell: GruCell, packing: Packing, step) -> tuple[Node, Node]:
    """Run a GRU over a packed batch; returns every state as (B, T, H),
    zeros past each row's end, and each row's last state (B, H), both in
    the caller's row order.

    step(t, h) gives step t's next states for the states h of the rows
    still running, longest first (cell.step on the step's gate block). A
    finished row leaves the prefix, so no state is carried through padding.
    """
    h = cell.init_state(packing.counts[0])
    states = []
    for t, n in enumerate(packing.counts):
        if n < h.value.shape[0]:
            h = ad.narrow(h, 0, 0, n)
        h = step(t, h)
        states.append(h)
    hidden = ad.ragged_stack(states, packing.order)
    b, width, nh = hidden.value.shape
    return hidden, ad.gather_rows(ad.reshape(hidden, (b * width, nh)), packing.last)


class KeyValueAttention(Layer):
    """Single-head scaled dot-product attention with query/key projections."""

    def __init__(self, rng, query_dim: int, key_dim: int, proj_dim: int):
        super().__init__()
        self.wq = self._param("wq", glorot(rng, query_dim, proj_dim))
        self.wk = self._param("wk", glorot(rng, key_dim, proj_dim))
        self.scale = 1.0 / np.sqrt(proj_dim)

    def prepare(self, keys: Node) -> Node:
        """Project (B, N, key_dim) keys once for reuse across steps."""
        b, n, d = keys.value.shape
        flat = ad.reshape(keys, (b * n, d))
        return ad.reshape(ad.matmul(flat, self.wk), (b, n, self.wk.value.shape[1]))

    def weights(self, query: Node, prepared: Node, mask: np.ndarray | None = None) -> Node:
        qp = ad.matmul(query, self.wq)
        scores = ad.scale(ad.bdot(qp, prepared), self.scale)
        if mask is not None:
            scores = ad.add(scores, ad.constant((mask - 1.0) * 1e9))
        return ad.softmax(scores, axis=-1)

    def __call__(self, query: Node, prepared: Node, values: Node, mask: np.ndarray | None = None):
        w = self.weights(query, prepared, mask)
        return ad.bmix(w, values), w

    def attend(self, query: np.ndarray, prepared: np.ndarray, values: np.ndarray,
               mask: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
        """__call__ on arrays, as a decode step runs it: the same ops in the
        same order, so the mix and the weights are the same bits."""
        scores = np.einsum("bp,bnp->bn", query @ self.wq.value, prepared) * self.scale
        if mask is not None:
            scores = scores + (mask - 1.0) * 1e9
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        return np.einsum("bn,bnh->bh", w, values), w


def gaussian_heads(layer: Layer, rows: Node, shape) -> tuple[Node, Node]:
    """A layer's mean and clamped logvar heads, each applied once over all
    (n, H) rows and reshaped to `shape`."""
    return (ad.reshape(layer.mean_head(rows), shape),
            ad.reshape(ad.clamp(layer.logvar_head(rows), LOGVAR_MIN, LOGVAR_MAX), shape))


class BottleneckAttention(Layer):
    """K learned query tokens attend over variable-length hidden states and
    emit exactly K diagonal-Gaussian slots via shared mean/logvar heads."""

    def __init__(self, rng, n_slots: int, hidden_dim: int, latent_dim: int, proj_dim: int):
        super().__init__()
        self.latent_dim = latent_dim
        self.tokens = self._param("tokens", rng.normal(0.0, 0.02, size=(n_slots, hidden_dim)))
        self.attn = self._child("attn", KeyValueAttention(rng, hidden_dim, hidden_dim, proj_dim))
        self.mean_head = self._child("mean_head", Linear(rng, hidden_dim, latent_dim))
        self.logvar_head = self._child("logvar_head", Linear(rng, hidden_dim, latent_dim))

    def slot_contexts(self, hidden: Node, mask: np.ndarray | None = None) -> Node:
        """(B, L, H) hidden states -> (B, K, H), slot k the mix its token attends."""
        if hidden.value.ndim != 3:
            raise ad.ShapeMismatch(f"bottleneck: expected (B, L, H) hidden states, got {hidden.value.shape}")
        qp = ad.matmul(self.tokens, self.attn.wq)  # (K, P)
        scores = ad.scale(ad.bdot_shared(qp, self.attn.prepare(hidden)), self.attn.scale)
        if mask is not None:
            scores = ad.add(scores, ad.constant(np.broadcast_to(((mask - 1.0) * 1e9)[:, None], scores.value.shape)))
        return ad.bmix(ad.softmax(scores, axis=-1), hidden)

    def __call__(self, hidden: Node, mask: np.ndarray | None = None) -> tuple[Node, Node]:
        """(B, L, H) -> means (B, K, D), logvars (B, K, D), any L >= 1."""
        contexts = self.slot_contexts(hidden, mask)
        b, k, h = contexts.value.shape
        return gaussian_heads(self, ad.reshape(contexts, (b * k, h)), (b, k, self.latent_dim))


class AutoregressivePrior(Layer):
    """p(z) factorized over slots: slot k's Gaussian parameters are produced
    by a GRU fed z_{<k}, starting from a learned start token."""

    def __init__(self, rng, latent_dim: int, hidden_dim: int = 128):
        super().__init__()
        self.start = self._param("start", rng.normal(0.0, 0.02, size=(1, latent_dim)))
        self.gru = self._child("gru", GruCell(rng, latent_dim, hidden_dim))
        self.mean_head = self._child("mean_head", Linear(rng, hidden_dim, latent_dim))
        self.logvar_head = self._child("logvar_head", Linear(rng, hidden_dim, latent_dim))


def prior_log_density_params(prior: AutoregressivePrior, z: Node) -> tuple[Node, Node]:
    """(B, K, D) samples -> prior means/logvars (B, K, D).

    Slot k's parameters depend only on z[:, :k]; z[:, -1] is never read.
    """
    b, k, d = z.value.shape
    # slot k's input is z_{k-1} (the start token for k = 0), rows step-major:
    # none depends on the state, so one product covers every step
    previous = (np.arange(k - 1)[:, None] + k * np.arange(b)).ravel()
    inputs = ad.concat([ad.repeat_rows(prior.start, b), ad.gather_rows(ad.reshape(z, (b * k, d)), previous)], axis=0)
    h = prior.gru.init_state(b)
    states = []
    for gx in prior.gru.input_gates(inputs, [b] * k):
        h = prior.gru.step(gx, h)
        states.append(h)
    return gaussian_heads(prior, ad.reshape(ad.stack(states, axis=1), (b * k, prior.gru.n_hidden)), (b, k, d))


def gaussian_kl_per_sample(q_mean, q_logvar, p_mean, p_logvar) -> Node:
    """(B, K, D) inputs -> per-sample KL (B,), summed over slots and dims."""
    return ad.reduce_sum(gaussian_kl_elements(q_mean, q_logvar, p_mean, p_logvar), axis=(1, 2))

def gaussian_kl_elements(q_mean, q_logvar, p_mean, p_logvar) -> Node:
    dlv = ad.sub(q_logvar, p_logvar)
    diff = ad.sub(q_mean, p_mean)
    quad = ad.mul(ad.mul(diff, diff), ad.exp(ad.neg(p_logvar)))
    return ad.scale(ad.add(ad.sub(ad.add(ad.exp(dlv), quad), 1.0), ad.neg(dlv)), 0.5)


def reparameterize(mean: Node, logvar: Node, noise: np.ndarray) -> Node:
    """z = mean + exp(logvar / 2) * noise, noise from a seeded generator."""
    return ad.add(mean, ad.mul(ad.exp(ad.scale(logvar, 0.5)), ad.constant(noise)))


# ---------------------------------------------------------------------------
# checkpoints: versioned binary container, exact float64 round-trip

_MAGIC = b"MSVCKPT1"


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write atomically: a temp file in the same directory replaces `path`,
    so a crash mid-write leaves the previous checkpoint intact."""
    entries = []
    offset = 0
    blobs = []
    for name in sorted(arrays):
        a = np.ascontiguousarray(arrays[name], dtype=np.float64)
        entries.append({"name": name, "shape": list(a.shape), "offset": offset})
        blob = a.tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = json.dumps({"version": 1, "meta": meta or {}, "entries": entries}, sort_keys=True).encode()
    tmp = f"{path}.tmp-{os.getpid()}"
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<Q", len(header)))
            f.write(header)
            for blob in blobs:
                f.write(blob)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a checkpoint; a truncated or padded file raises ValueError."""
    with open(path, "rb") as f:
        magic = f.read(len(_MAGIC))
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        raw = f.read(8)
        if len(raw) != 8:
            raise ValueError(f"{path}: truncated checkpoint header")
        (hlen,) = struct.unpack("<Q", raw)
        head = f.read(hlen)
        if len(head) != hlen:
            raise ValueError(f"{path}: truncated checkpoint header")
        header = json.loads(head)
        body = f.read()
    sizes = [8 * (int(np.prod(e["shape"])) if e["shape"] else 1) for e in header["entries"]]
    expected = sum(sizes)
    if len(body) != expected:
        raise ValueError(f"{path}: checkpoint body holds {len(body)} bytes, header expects {expected}")
    arrays = {}
    for e, size in zip(header["entries"], sizes):
        start = e["offset"]
        arrays[e["name"]] = np.frombuffer(body[start : start + size], dtype=np.float64).reshape(e["shape"]).copy()
    return arrays, header["meta"]
