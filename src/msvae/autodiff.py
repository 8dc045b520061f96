"""Reverse-mode automatic differentiation over dense float64 arrays.

Graphs are define-by-run: every op returns a Node holding the forward value
and a closure that maps the upstream gradient onto operand gradients. A graph
is built fresh each step and walked once, iteratively, in reverse topological
order. There is no broadcasting beyond the explicit per-op rules below; shape
violations raise ShapeMismatch naming both shapes.

Every node carries a `needs_grad` bit: leaves set it, constants clear it,
and an op node sets it when it is built if any operand does. An op node
keeps as parents only the operands that need a gradient, and its VJP leaves
the others' slots None, so backward never walks a constant or computes a
gradient nothing reads. Inference clears the bit on a model's parameter
leaves (nn.Layer.frozen), so its op nodes keep no graph at all.
"""

from __future__ import annotations

import itertools
import logging

import numpy as np

logger = logging.getLogger(__name__)


class ShapeMismatch(ValueError):
    """Operand shapes do not conform to an op's rule."""


class Node:
    """One value in the computation graph.

    `value` and `grad` are float64 ndarrays of identical shape. Leaves made
    with leaf() need and collect gradients; constant() nodes need none. An op
    node built from `operands` with `vjp` needs a gradient when any operand
    does; `vjp(g)` returns one gradient per operand, and `parents` holds the
    operands that need one (`slots` their positions, None when that is all
    of them). An op node that needs no gradient drops its operands and VJP.
    """

    __slots__ = ("value", "grad", "parents", "vjp", "name", "const", "needs_grad", "slots")

    def __init__(self, value, operands=(), vjp=None, name=None, const=False):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.name = name
        self.const = const
        self.slots = None
        self.needs_grad = not const
        self.parents, self.vjp = operands, vjp
        if vjp is None:
            return
        for p in operands:
            if not p.needs_grad:
                break
        else:
            return  # every operand needs a gradient: the common case
        parents, slots = [], []
        for i, p in enumerate(operands):
            if p.needs_grad:
                parents.append(p)
                slots.append(i)
        if slots:
            self.parents, self.slots = tuple(parents), slots
        else:
            self.needs_grad, self.parents, self.vjp = False, (), None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.value.shape

    @property
    def gradient(self) -> np.ndarray:
        """Accumulated gradient; zeros if nothing reached this node."""
        if self.grad is None:
            return np.zeros_like(self.value)
        return self.grad

    def __repr__(self):
        tag = self.name or ("const" if self.const else "node")
        return f"Node({tag}, shape={self.value.shape})"

    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return neg(self)

    def __matmul__(self, other):
        return matmul(self, other)


def leaf(value, name: str | None = None) -> Node:
    """Trainable leaf: backward accumulates into .grad."""
    return Node(value, name=name)


def constant(value) -> Node:
    """Non-trainable input: needs no gradient, so no VJP computes one."""
    return Node(value, const=True)


def _coerce(x) -> Node:
    if isinstance(x, Node):
        return x
    return Node(np.asarray(x, dtype=np.float64), const=True)


def _pairwise(opname, a, b):
    """Validate an elementwise pair: equal shapes, or one operand 0-d."""
    if a.value.shape == b.value.shape:
        return
    if a.value.shape == () or b.value.shape == ():
        return
    raise ShapeMismatch(f"{opname}: shapes {a.value.shape} and {b.value.shape} do not match")


def _unbroadcast(g, shape):
    # collapse a 0-d operand's gradient back to a scalar
    if shape == () and g.shape != ():
        return g.sum()
    return g


# ---------------------------------------------------------------------------
# elementwise and scalar ops


def add(a, b) -> Node:
    a, b = _coerce(a), _coerce(b)
    _pairwise("add", a, b)

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(g, b.value.shape)

    return Node(a.value + b.value, (a, b), vjp)


def sub(a, b) -> Node:
    a, b = _coerce(a), _coerce(b)
    _pairwise("sub", a, b)

    def vjp(g):
        return _unbroadcast(g, a.value.shape), _unbroadcast(-g, b.value.shape)

    return Node(a.value - b.value, (a, b), vjp)


def neg(a) -> Node:
    a = _coerce(a)
    return Node(-a.value, (a,), lambda g: (-g,))


def mul(a, b) -> Node:
    a, b = _coerce(a), _coerce(b)
    _pairwise("mul", a, b)
    av, bv = a.value, b.value

    def vjp(g):
        return (_unbroadcast(g * bv, av.shape) if a.needs_grad else None,
                _unbroadcast(g * av, bv.shape) if b.needs_grad else None)

    return Node(av * bv, (a, b), vjp)


def scale(a, c: float) -> Node:
    """Multiply by a python scalar (no graph node for the scalar)."""
    a = _coerce(a)
    c = float(c)
    return Node(a.value * c, (a,), lambda g: (g * c,))


def tanh(a) -> Node:
    a = _coerce(a)
    out = np.tanh(a.value)
    return Node(out, (a,), lambda g: (g * (1.0 - out * out),))


def sigmoid(a) -> Node:
    a = _coerce(a)
    out = 1.0 / (1.0 + np.exp(-np.clip(a.value, -500, 500)))
    return Node(out, (a,), lambda g: (g * out * (1.0 - out),))


def exp(a) -> Node:
    a = _coerce(a)
    out = np.exp(a.value)
    return Node(out, (a,), lambda g: (g * out,))


def log(a) -> Node:
    a = _coerce(a)
    av = a.value
    return Node(np.log(av), (a,), lambda g: (g / av,))


def clamp(a, lo: float, hi: float) -> Node:
    """Clip values to [lo, hi]; gradient passes only where unclipped."""
    a = _coerce(a)
    inside = (a.value >= lo) & (a.value <= hi)
    return Node(np.clip(a.value, lo, hi), (a,), lambda g: (g * inside,))


# ---------------------------------------------------------------------------
# linear algebra and structure


def matmul(a, b) -> Node:
    a, b = _coerce(a), _coerce(b)
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise ShapeMismatch(f"matmul: shapes {av.shape} and {bv.shape} do not conform")

    def vjp(g):
        return g @ bv.T if a.needs_grad else None, av.T @ g if b.needs_grad else None

    return Node(av @ bv, (a, b), vjp)


def add_rowvec(a, vec) -> Node:
    """(B, N) + (N,) row-broadcast add (bias)."""
    a, vec = _coerce(a), _coerce(vec)
    if a.value.ndim != 2 or vec.value.shape != (a.value.shape[1],):
        raise ShapeMismatch(f"add_rowvec: shapes {a.value.shape} and {vec.value.shape} do not conform")

    def vjp(g):
        return g, g.sum(axis=0)

    return Node(a.value + vec.value, (a, vec), vjp)


def mul_colvec(a, col) -> Node:
    """(B, N) * (B,) column-broadcast multiply (masks, gates)."""
    a, col = _coerce(a), _coerce(col)
    if a.value.ndim != 2 or col.value.shape != (a.value.shape[0],):
        raise ShapeMismatch(f"mul_colvec: shapes {a.value.shape} and {col.value.shape} do not conform")
    av, cv = a.value, col.value

    def vjp(g):
        return g * cv[:, None] if a.needs_grad else None, (g * av).sum(axis=1) if col.needs_grad else None

    return Node(av * cv[:, None], (a, col), vjp)


def concat(nodes, axis: int = 0) -> Node:
    nodes = [_coerce(n) for n in nodes]
    if not nodes:
        raise ValueError("concat: empty input")
    value = np.concatenate([n.value for n in nodes], axis=axis)
    bounds = [0, *itertools.accumulate(n.value.shape[axis] for n in nodes)]
    lead = (slice(None),) * (axis % value.ndim)

    def vjp(g):
        return tuple(g[(*lead, slice(lo, hi))] for lo, hi in zip(bounds, bounds[1:]))

    return Node(value, tuple(nodes), vjp)


def narrow(a, axis: int, start: int, size: int) -> Node:
    """Contiguous slice of `size` entries along `axis`."""
    a = _coerce(a)
    if not (0 <= start and start + size <= a.value.shape[axis]):
        raise ShapeMismatch(f"narrow: [{start}:{start + size}) out of bounds for shape {a.value.shape} axis {axis}")
    idx = [slice(None)] * a.value.ndim
    idx[axis] = slice(start, start + size)
    idx = tuple(idx)

    def vjp(g):
        out = np.zeros_like(a.value)
        out[idx] = g
        return (out,)

    return Node(a.value[idx], (a,), vjp)


def split_rows(a, sizes) -> list[Node]:
    """Cut (sum(sizes), ...) into consecutive row blocks of the given sizes,
    one node each; a packed batch's per-step counts give its steps.

    A multi-output primitive: the blocks hang off one join node over `a`, and
    each block's VJP writes its gradient into the join's single full-size
    buffer instead of returning a zero-padded copy of `a` per block.
    """
    a = _coerce(a)
    value = a.value
    sizes = [int(s) for s in sizes]
    total = value.shape[0] if value.ndim else 0
    if not sizes or min(sizes) < 0 or sum(sizes) != total:
        raise ShapeMismatch(f"split_rows: {total} rows do not split into blocks of {sizes}")

    def hand_off(g):
        join.grad = None  # the buffer now belongs to `a`; a later pass starts a fresh one
        return (g,)

    join = Node(value, (a,), hand_off)

    def block(lo, size):
        def vjp(g):
            if join.grad is None:
                join.grad = np.zeros_like(value)
            join.grad[lo : lo + size] += g
            return (None,)

        return Node(value[lo : lo + size], (join,), vjp)

    return [block(lo, size) for lo, size in zip(np.cumsum([0] + sizes[:-1]), sizes)]


def gather_rows(a, index) -> Node:
    """Rows a[index] for distinct row indices; rows left out get no gradient."""
    a = _coerce(a)
    index = np.asarray(index, dtype=np.intp)
    if index.ndim != 1 or a.value.ndim == 0 or np.unique(index).size != index.size:
        raise ShapeMismatch(f"gather_rows: index {index.shape} is not distinct rows of shape {a.value.shape}")

    def vjp(g):
        out = np.zeros_like(a.value)
        out[index] = g
        return (out,)

    return Node(a.value[index], (a,), vjp)


def ragged_stack(nodes, order) -> Node:
    """Stack a packed batch's per-step blocks into (B, T, ...) in the
    caller's row order.

    nodes[t] holds step t's running rows, the first n_t rows of `order`
    (n_t never grows), so out[order[j], t] = nodes[t][j] for j < n_t; the
    other steps are zeros and pass no gradient back.
    """
    nodes = [_coerce(n) for n in nodes]
    order = np.asarray(order, dtype=np.intp)
    if not nodes:
        raise ValueError("ragged_stack: empty input")
    shapes = [n.value.shape for n in nodes]
    counts = [s[0] if s else -1 for s in shapes]
    if (min(counts) < 0 or counts[0] > order.size or counts != sorted(counts, reverse=True)
            or any(s[1:] != shapes[0][1:] for s in shapes)):
        raise ShapeMismatch(f"ragged_stack: blocks {shapes} are not shrinking prefixes of {order.size} rows")
    packed = np.zeros((order.size, len(nodes)) + shapes[0][1:])
    for t, n in enumerate(nodes):
        packed[: counts[t], t] = n.value
    identity = bool((order == np.arange(order.size)).all())
    out = packed
    if not identity:
        out = np.empty_like(packed)
        out[order] = packed

    def vjp(g):
        gp = g if identity else g[order]
        return tuple(gp[:c, t] for t, c in enumerate(counts))

    return Node(out, tuple(nodes), vjp)


def reshape(a, shape) -> Node:
    a = _coerce(a)
    orig = a.value.shape

    def vjp(g):
        return (g.reshape(orig),)

    return Node(a.value.reshape(shape), (a,), vjp)


def transpose2(a) -> Node:
    """2-D transpose; gradient transposes back."""
    a = _coerce(a)
    if a.value.ndim != 2:
        raise ShapeMismatch(f"transpose2: expected 2-d input, got {a.value.shape}")

    def vjp(g):
        return (g.T.copy(),)

    return Node(a.value.T.copy(), (a,), vjp)


def stack(nodes, axis: int = 0) -> Node:
    nodes = [_coerce(n) for n in nodes]
    if not nodes:
        raise ValueError("stack: empty input")

    def vjp(g):
        return tuple(np.moveaxis(g, axis, 0))

    return Node(np.stack([n.value for n in nodes], axis=axis), tuple(nodes), vjp)


def repeat_rows(a, n: int) -> Node:
    """(1, D) -> (n, D) by row repetition."""
    a = _coerce(a)
    if a.value.ndim != 2 or a.value.shape[0] != 1:
        raise ShapeMismatch(f"repeat_rows: expected (1, D), got {a.value.shape}")

    def vjp(g):
        return (g.sum(axis=0, keepdims=True),)

    return Node(np.repeat(a.value, n, axis=0), (a,), vjp)


def embedding(table, ids) -> Node:
    """Gather rows of `table` (V, E) at integer `ids` (B,) -> (B, E)."""
    table = _coerce(table)
    ids = np.asarray(ids, dtype=np.intp)
    if table.value.ndim != 2 or ids.ndim != 1:
        raise ShapeMismatch(f"embedding: table {table.value.shape} with ids {ids.shape}")

    def vjp(g):
        gt = np.zeros_like(table.value)
        np.add.at(gt, ids, g)
        return (gt,)

    return Node(table.value[ids], (table,), vjp)


def select_columns(a, ids) -> Node:
    """Pick a[i, ids[i]] for each row -> (B,)."""
    a = _coerce(a)
    ids = np.asarray(ids, dtype=np.intp)
    if a.value.ndim != 2 or ids.shape != (a.value.shape[0],):
        raise ShapeMismatch(f"select_columns: shapes {a.value.shape} and {ids.shape} do not conform")
    rows = np.arange(a.value.shape[0])

    def vjp(g):
        out = np.zeros_like(a.value)
        out[rows, ids] = g
        return (out,)

    return Node(a.value[rows, ids], (a,), vjp)


def bdot(q, k) -> Node:
    """Per-sample dot products: (B, P) x (B, N, P) -> (B, N)."""
    q, k = _coerce(q), _coerce(k)
    qv, kv = q.value, k.value
    if qv.ndim != 2 or kv.ndim != 3 or qv.shape[0] != kv.shape[0] or qv.shape[1] != kv.shape[2]:
        raise ShapeMismatch(f"bdot: shapes {qv.shape} and {kv.shape} do not conform")

    def vjp(g):
        return (np.einsum("bn,bnp->bp", g, kv) if q.needs_grad else None,
                np.einsum("bn,bp->bnp", g, qv) if k.needs_grad else None)

    return Node(np.einsum("bp,bnp->bn", qv, kv), (q, k), vjp)


def bdot_shared(q, k) -> Node:
    """Shared query against per-sample keys: (P,) x (B, N, P) -> (B, N)."""
    q, k = _coerce(q), _coerce(k)
    qv, kv = q.value, k.value
    if qv.ndim != 1 or kv.ndim != 3 or qv.shape[0] != kv.shape[2]:
        raise ShapeMismatch(f"bdot_shared: shapes {qv.shape} and {kv.shape} do not conform")

    def vjp(g):
        return (np.einsum("bn,bnp->p", g, kv) if q.needs_grad else None,
                np.einsum("bn,p->bnp", g, qv) if k.needs_grad else None)

    return Node(np.einsum("p,bnp->bn", qv, kv), (q, k), vjp)


def bmix(w, v) -> Node:
    """Weighted mix of values: (B, N) x (B, N, H) -> (B, H)."""
    w, v = _coerce(w), _coerce(v)
    wv, vv = w.value, v.value
    if wv.ndim != 2 or vv.ndim != 3 or wv.shape != vv.shape[:2]:
        raise ShapeMismatch(f"bmix: shapes {wv.shape} and {vv.shape} do not conform")

    def vjp(g):
        return (np.einsum("bh,bnh->bn", g, vv) if w.needs_grad else None,
                np.einsum("bh,bn->bnh", g, wv) if v.needs_grad else None)

    return Node(np.einsum("bn,bnh->bh", wv, vv), (w, v), vjp)


def sort_axis0(a) -> Node:
    """Sort each column of (B, P) ascending; gradient unsorts."""
    a = _coerce(a)
    if a.value.ndim != 2:
        raise ShapeMismatch(f"sort_axis0: expected 2-d input, got {a.value.shape}")
    order = np.argsort(a.value, axis=0, kind="stable")

    def vjp(g):
        out = np.zeros_like(a.value)
        np.put_along_axis(out, order, g, axis=0)
        return (out,)

    return Node(np.take_along_axis(a.value, order, axis=0), (a,), vjp)


# ---------------------------------------------------------------------------
# reductions and normalizers


def reduce_sum(a, axis=None, keepdims: bool = False) -> Node:
    a = _coerce(a)
    shp = a.value.shape

    def vjp(g):
        if axis is None:
            return (np.full(shp, g, dtype=np.float64),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg, shp).copy(),)

    return Node(a.value.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def reduce_mean(a, axis=None, keepdims: bool = False) -> Node:
    a = _coerce(a)
    shp = a.value.shape
    if axis is None:
        count = a.value.size
    else:
        axes = (axis,) if isinstance(axis, int) else axis
        count = int(np.prod([shp[ax] for ax in axes]))

    def vjp(g):
        if axis is None:
            return (np.full(shp, g / count, dtype=np.float64),)
        gg = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(gg / count, shp).copy(),)

    return Node(a.value.mean(axis=axis, keepdims=keepdims), (a,), vjp)


def softmax(a, axis: int = -1) -> Node:
    a = _coerce(a)
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return Node(out, (a,), vjp)


def log_softmax(a, axis: int = -1) -> Node:
    a = _coerce(a)
    shifted = a.value - a.value.max(axis=axis, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out = shifted - lse
    sm = np.exp(out)

    def vjp(g):
        return (g - sm * g.sum(axis=axis, keepdims=True),)

    return Node(out, (a,), vjp)


# ---------------------------------------------------------------------------
# backward


def _topo(root: Node) -> list[Node]:
    # iterative DFS; graphs run to thousands of nodes, recursion would overflow
    order: list[Node] = []
    seen = {id(root)}
    stack: list[tuple[Node, int]] = [(root, 0)]
    while stack:
        node, i = stack[-1]
        if i < len(node.parents):
            stack[-1] = (node, i + 1)
            p = node.parents[i]
            if id(p) not in seen:
                seen.add(id(p))
                stack.append((p, 0))
        else:
            order.append(node)
            stack.pop()
    return order


def backward(loss: Node) -> None:
    """Populate .grad for every node reachable from `loss` that needs one.

    Only parents that need a gradient are in the graph, so nodes and operands
    without `needs_grad` are never visited. The graph is single-use: calling
    backward twice on the same graph accumulates a second pass of gradients.
    """
    if loss.value.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.value.shape}")
    order = _topo(loss)
    loss.grad = np.ones(())
    for node in reversed(order):
        if node.vjp is None or node.grad is None:
            continue
        grads = node.vjp(node.grad)
        if node.slots is not None:
            grads = [grads[i] for i in node.slots]
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            # never accumulate in place: vjp outputs may be shared references
            parent.grad = g if parent.grad is None else parent.grad + g


def zero_grad(params) -> None:
    for p in params:
        p.grad = None


# ---------------------------------------------------------------------------
# optimizer


def adam_state(params) -> dict:
    """Fresh Adam state for a list of parameter Nodes."""
    return {
        "m": [np.zeros_like(p.value) for p in params],
        "v": [np.zeros_like(p.value) for p in params],
        "t": 0,
    }


def adam_step(params, grads, state, lr, beta1=0.9, beta2=0.999, eps=1e-8) -> dict:
    """One Adam update with bias correction, in place on params.

    A parameter whose gradient is non-finite keeps its value and moment
    estimates for this step (warning logged with the parameter name).
    """
    state["t"] += 1
    t = state["t"]
    bc1 = 1.0 - beta1**t
    bc2 = 1.0 - beta2**t
    for p, g, m, v in zip(params, grads, state["m"], state["v"]):
        if g is None:
            g = np.zeros_like(p.value)
        if not np.all(np.isfinite(g)):
            logger.warning("adam: non-finite gradient for %s; step skipped", getattr(p, "name", "?"))
            continue
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        p.value -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    return state


class Adam:
    """Convenience wrapper binding adam_step to a fixed parameter list."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.state = adam_state(self.params)

    def step(self):
        grads = [p.grad for p in self.params]
        adam_step(self.params, grads, self.state, self.lr, self.beta1, self.beta2, self.eps)

    def zero_grad(self):
        zero_grad(self.params)

    def state_arrays(self) -> dict[str, np.ndarray]:
        """Flat view of optimizer state for checkpointing."""
        out = {}
        for p, m, v in zip(self.params, self.state["m"], self.state["v"]):
            out[f"adam.m.{p.name}"] = m
            out[f"adam.v.{p.name}"] = v
        out["adam.t"] = np.array([float(self.state["t"])])
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for p, m, v in zip(self.params, self.state["m"], self.state["v"]):
            m[...] = arrays[f"adam.m.{p.name}"]
            v[...] = arrays[f"adam.v.{p.name}"]
        self.state["t"] = int(arrays["adam.t"][0])


# ---------------------------------------------------------------------------
# numerical checking


def numeric_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f() w.r.t. x, perturbed in place.

    f must re-run the forward pass reading the current contents of x. This
    path never touches backward(), so it stays an independent oracle.
    """
    g = np.zeros_like(x)
    flat = x.ravel()
    gf = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f()
        flat[i] = orig - eps
        fm = f()
        flat[i] = orig
        gf[i] = (fp - fm) / (2.0 * eps)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    """max |a - n| / max(1, |a|, |n|), elementwise."""
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    return float(np.max(np.abs(analytic - numeric) / denom))
