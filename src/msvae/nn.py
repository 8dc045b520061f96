"""Reusable layers: linear maps, embeddings, GRU cells, key-value attention,
the bottleneck attention module, and the autoregressive latent prior.

Every layer registers its parameters in a local dict name -> Node so models
can collect them hierarchically for the optimizer and for checkpoints.
All batch-shaped activations are (B, feature) matrices; a variable-length
batch runs packed (see Packing): step t computes only the rows still
running, and the results return to the caller's row order.
"""

from __future__ import annotations

import contextlib
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

    def _leaves(self):
        """Every parameter node below this layer; unlike named_params, it
        leaves their names alone."""
        yield from self._params.values()
        for c in self._children.values():
            yield from c._leaves()

    @contextlib.contextmanager
    def frozen(self):
        """Run the block graph-free: inside it no parameter needs a gradient,
        so every op node drops its operands and VJP as it is built (see
        autodiff.Node) and a decode step's arrays are freed when the step
        ends. Each parameter's needs_grad is restored on exit, also when the
        block raises; nesting on one model restores the outer values."""
        leaves = list(self._leaves())
        saved = [p.needs_grad for p in leaves]
        for p in leaves:
            p.needs_grad = False
        try:
            yield
        finally:
            for p, needs in zip(leaves, saved):
                p.needs_grad = needs

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


def fused_gru_step(x: Node, h: Node, w: Node, u: Node, bx: Node, bh: Node) -> Node:
    """One GRU step as a single graph node with a hand-written backward.

    Equivalent to the composed-primitive formulation (see GruCell.step_composed,
    the oracle it is tested against) but an order of magnitude fewer nodes,
    which dominates training throughput.
    """
    xv, hv = x.value, h.value
    nh = hv.shape[1]
    gx = xv @ w.value + bx.value
    gh = hv @ u.value + bh.value
    r = 1.0 / (1.0 + np.exp(-(gx[:, :nh] + gh[:, :nh])))
    z = 1.0 / (1.0 + np.exp(-(gx[:, nh : 2 * nh] + gh[:, nh : 2 * nh])))
    gh_n = gh[:, 2 * nh :]
    n = np.tanh(gx[:, 2 * nh :] + r * gh_n)
    out = n + z * (hv - n)

    def vjp(g):
        dn = g * (1.0 - z)
        dz = g * (hv - n)
        dpre_n = dn * (1.0 - n * n)
        dr = dpre_n * gh_n
        dpre_r = dr * r * (1.0 - r)
        dpre_z = dz * z * (1.0 - z)
        dgx = np.concatenate([dpre_r, dpre_z, dpre_n], axis=1)
        dgh = np.concatenate([dpre_r, dpre_z, dpre_n * r], axis=1)
        dx = dgx @ w.value.T if x.needs_grad else None
        dh = dgh @ u.value.T + g * z if h.needs_grad else None
        dw = xv.T @ dgx
        du = hv.T @ dgh
        return dx, dh, dw, du, dgx.sum(axis=0), dgh.sum(axis=0)

    return Node(out, (x, h, w, u, bx, bh), vjp)


class GruCell(Layer):
    """Gated recurrent unit with fused gate weights (r, z, n order)."""

    def __init__(self, rng, n_in: int, n_hidden: int):
        super().__init__()
        self.n_hidden = n_hidden
        s = 1.0 / np.sqrt(n_hidden)
        self.w = self._param("w", rng.uniform(-s, s, size=(n_in, 3 * n_hidden)))
        self.u = self._param("u", rng.uniform(-s, s, size=(n_hidden, 3 * n_hidden)))
        self.bx = self._param("bx", np.zeros(3 * n_hidden))
        self.bh = self._param("bh", np.zeros(3 * n_hidden))

    def step(self, x: Node, h: Node) -> Node:
        if x.value.shape[0] != h.value.shape[0] or x.value.shape[1] != self.w.value.shape[0]:
            raise ad.ShapeMismatch(
                f"gru step: input {x.value.shape} vs weights {self.w.value.shape} / state {h.value.shape}"
            )
        return fused_gru_step(x, h, self.w, self.u, self.bx, self.bh)

    def step_composed(self, x: Node, h: Node) -> Node:
        """Elementary-op formulation; the oracle for fused_gru_step."""
        nh = self.n_hidden
        gx = ad.add_rowvec(ad.matmul(x, self.w), self.bx)
        gh = ad.add_rowvec(ad.matmul(h, self.u), self.bh)
        r = ad.sigmoid(ad.add(ad.narrow(gx, 1, 0, nh), ad.narrow(gh, 1, 0, nh)))
        z = ad.sigmoid(ad.add(ad.narrow(gx, 1, nh, nh), ad.narrow(gh, 1, nh, nh)))
        n = ad.tanh(ad.add(ad.narrow(gx, 1, 2 * nh, nh), ad.mul(r, ad.narrow(gh, 1, 2 * nh, nh))))
        # h' = n + z * (h - n)
        return ad.add(n, ad.mul(z, ad.sub(h, n)))

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

    def split(self, packed: np.ndarray) -> list[np.ndarray]:
        """Packed rows -> per-step views, step t's of shape (counts[t], ...)."""
        return np.split(packed, self._offsets)

    def steps(self, a: np.ndarray) -> list[np.ndarray]:
        """(B, T, ...) -> step t's running rows, longest first, for each t."""
        return self.split(self.pack(a))


def gru_encode(cell: GruCell, packing: Packing, step_input) -> tuple[Node, Node]:
    """Run a GRU over a packed batch; returns every state as (B, T, H),
    zeros past each row's end, and each row's last state (B, H), both in
    the caller's row order.

    step_input(t, h) gives step t's (counts[t], in) input for the states h
    of the rows still running, longest first. A finished row leaves the
    prefix, so no state is carried through padding.
    """
    h = cell.init_state(packing.counts[0])
    states = []
    for t, n in enumerate(packing.counts):
        if n < h.value.shape[0]:
            h = ad.narrow(h, 0, 0, n)
        h = cell.step(step_input(t, h), h)
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


def attend(attn: KeyValueAttention, query: Node, keys: Node, values: Node, mask: np.ndarray | None = None) -> Node:
    """One-shot context vector; convenience over prepare + call."""
    if keys.value.shape[:2] != values.value.shape[:2]:
        raise ad.ShapeMismatch(
            f"attend: keys {keys.value.shape} and values {values.value.shape} disagree on (batch, length)"
        )
    ctx, _ = attn(query, attn.prepare(keys), values, mask)
    return ctx


class BottleneckAttention(Layer):
    """K learned query tokens attend over variable-length hidden states and
    emit exactly K diagonal-Gaussian slots via shared mean/logvar heads."""

    def __init__(self, rng, n_slots: int, hidden_dim: int, latent_dim: int, proj_dim: int):
        super().__init__()
        self.n_slots = n_slots
        self.latent_dim = latent_dim
        self.tokens = self._param("tokens", rng.normal(0.0, 0.02, size=(n_slots, hidden_dim)))
        self.attn = self._child("attn", KeyValueAttention(rng, hidden_dim, hidden_dim, proj_dim))
        self.mean_head = self._child("mean_head", Linear(rng, hidden_dim, latent_dim))
        self.logvar_head = self._child("logvar_head", Linear(rng, hidden_dim, latent_dim))

    def slot_contexts(self, hidden: Node, mask: np.ndarray | None = None) -> list[Node]:
        if hidden.value.ndim != 3:
            raise ad.ShapeMismatch(f"bottleneck: expected (B, L, H) hidden states, got {hidden.value.shape}")
        prepared = self.attn.prepare(hidden)
        qp = ad.matmul(self.tokens, self.attn.wq)  # (K, P)
        contexts = []
        for k in range(self.n_slots):
            qk = ad.reshape(ad.narrow(qp, 0, k, 1), (qp.value.shape[1],))
            scores = ad.scale(ad.bdot_shared(qk, prepared), self.attn.scale)
            if mask is not None:
                scores = ad.add(scores, ad.constant((mask - 1.0) * 1e9))
            w = ad.softmax(scores, axis=-1)
            contexts.append(ad.bmix(w, hidden))
        return contexts

    def __call__(self, hidden: Node, mask: np.ndarray | None = None) -> tuple[Node, Node]:
        """(B, L, H) -> means (B, K, D), logvars (B, K, D), any L >= 1."""
        contexts = self.slot_contexts(hidden, mask)
        means = ad.stack([self.mean_head(c) for c in contexts], axis=1)
        logvars = ad.stack([ad.clamp(self.logvar_head(c), LOGVAR_MIN, LOGVAR_MAX) for c in contexts], axis=1)
        return means, logvars


class AutoregressivePrior(Layer):
    """p(z) factorized over slots: slot k's Gaussian parameters are produced
    by a GRU fed z_{<k}, starting from a learned start token."""

    def __init__(self, rng, latent_dim: int, hidden_dim: int = 128):
        super().__init__()
        self.latent_dim = latent_dim
        self.start = self._param("start", rng.normal(0.0, 0.02, size=(1, latent_dim)))
        self.gru = self._child("gru", GruCell(rng, latent_dim, hidden_dim))
        self.mean_head = self._child("mean_head", Linear(rng, hidden_dim, latent_dim))
        self.logvar_head = self._child("logvar_head", Linear(rng, hidden_dim, latent_dim))

    def params_for_slots(self, slots: list[Node]) -> tuple[list[Node], list[Node]]:
        """Per-slot prior parameters given sampled slots [(B, D) x K].

        Slot k's output depends only on slots[:k]; slots[-1] is never read.
        """
        if not slots:
            raise ValueError("prior: need at least one slot")
        batch = slots[0].value.shape[0]
        h = self.gru.init_state(batch)
        means, logvars = [], []
        x = ad.repeat_rows(self.start, batch)
        for k in range(len(slots)):
            h = self.gru.step(x, h)
            means.append(self.mean_head(h))
            logvars.append(ad.clamp(self.logvar_head(h), LOGVAR_MIN, LOGVAR_MAX))
            x = slots[k]
        return means, logvars


def prior_log_density_params(prior: AutoregressivePrior, z: Node) -> tuple[Node, Node]:
    """(B, K, D) samples -> prior means/logvars stacked to (B, K, D)."""
    b, k, d = z.value.shape
    slots = [ad.reshape(ad.narrow(z, 1, i, 1), (b, d)) for i in range(k)]
    means, logvars = prior.params_for_slots(slots)
    return ad.stack(means, axis=1), ad.stack(logvars, axis=1)


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
