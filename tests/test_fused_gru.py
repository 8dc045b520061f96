"""The fused GRU step against the per-step concatenate-then-multiply oracle.

The fused step takes its input in parts: a static gate block (the static
inputs already multiplied by their rows of the input weight) and an
optional state-dependent input with its weight rows, either shared by every
row or one block per row. The per-row form is the input feed over a memory:
attention weights times each row's memory projected by its rows of the
input weight. The oracle concatenates [static, dynamic input or attention
mix of the memory] and multiplies by the whole weight, one elementary op at
a time.
"""

import numpy as np
import pytest

from msvae import autodiff as ad
from msvae import nn
from oracles import gru_step_composed

N_STATIC, N_DYNAMIC, N_MEMORY, K, B, H = 3, 2, 4, 3, 3, 4
FORMS = ("none", "shared", "per_row")


def operands(seed, form):
    """A cell whose input is [static, dynamic] (form shared), [static,
    memory mix] (per_row) or [static] and zeros (none), and its leaves."""
    r = np.random.default_rng(seed)
    split = [N_STATIC, N_MEMORY if form == "per_row" else N_DYNAMIC]
    cell = nn.GruCell(np.random.default_rng(seed), sum(split), H)
    for p in cell.params():  # nonzero biases, so every operand matters
        p.value[...] = r.normal(size=p.value.shape) * 0.7
    leaves = {"static": r.normal(size=(B, N_STATIC)), "h": r.normal(size=(B, H)),
              "dynamic": r.normal(size=(B, N_DYNAMIC)), "memory": r.normal(size=(B, K, N_MEMORY))}
    attn = np.exp(r.normal(size=(B, K)))
    leaves["attn"] = attn / attn.sum(axis=1, keepdims=True)
    return cell, split, {k: ad.leaf(v, name=k) for k, v in leaves.items()}, r.normal(size=(B, H))


def fused(cell, split, v, form):
    w_static, w_input = ad.split_rows(cell.w, split)
    gx = cell.input_gates(v["static"], [B], w_static)[0]
    if form == "none":
        return cell.step(gx, v["h"])
    if form == "shared":
        return cell.step(gx, v["h"], v["dynamic"], w_input)
    proj = ad.reshape(ad.matmul(ad.reshape(v["memory"], (B * K, N_MEMORY)), w_input), (B, K, 3 * H))
    return cell.step(gx, v["h"], v["attn"], proj)


def composed(cell, split, v, form):
    if form == "none":
        second = ad.constant(np.zeros((B, split[1])))
    else:
        second = v["dynamic"] if form == "shared" else ad.bmix(v["attn"], v["memory"])
    return gru_step_composed(cell, ad.concat([v["static"], second], axis=1), v["h"])


def test_fused_matches_composed_forward_and_backward():
    for trial in range(30):
        form = FORMS[trial % 3]
        cell, split, v, w = operands(trial, form)

        def run(step):
            out = step(cell, split, v, form)
            params = cell.params() + list(v.values())
            ad.zero_grad(params)
            ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(w))))
            return out.value.copy(), {p.name: p.gradient.copy() for p in params}

        v1, g1 = run(fused)
        v2, g2 = run(composed)
        np.testing.assert_allclose(v1, v2, rtol=1e-13, atol=1e-14)
        for k in g1:
            np.testing.assert_allclose(g1[k], g2[k], rtol=1e-11, atol=1e-13, err_msg=k)


def test_fused_gradient_finite_difference():
    # every operand of the node: the static block, the state, u, bx, bh, the
    # input and its weight rows (shared, then per row), each a leaf of its own
    for trial in range(10):
        per_row = trial % 2 == 1
        n_in = K if per_row else N_DYNAMIC
        r = np.random.default_rng(100 + trial)
        cell, _, _, _ = operands(trial, "shared")
        leaves = {
            "gx": ad.leaf(r.normal(size=(B, 3 * H)), name="gx"),
            "h": ad.leaf(r.normal(size=(B, H)), name="h"),
            "x": ad.leaf(r.uniform(size=(B, n_in)) if per_row else r.normal(size=(B, n_in)), name="x"),
            "w": ad.leaf(r.normal(size=((B,) if per_row else ()) + (n_in, 3 * H)), name="w"),
        }

        def build():
            v = leaves
            out = nn.fused_gru_step(v["gx"], v["h"], cell.u, cell.bx, cell.bh, v["x"], v["w"])
            return ad.reduce_sum(ad.mul(out, out))

        params = list(leaves.values()) + [cell.u, cell.bx, cell.bh]
        ad.zero_grad(params)
        ad.backward(build())
        for p in params:
            num = ad.numeric_gradient(lambda: float(build().value), p.value, eps=1e-6)
            assert ad.max_rel_error(p.gradient, num) <= 1e-6, p.name


def test_fused_is_one_node_over_its_operands():
    cell, split, v, _ = operands(0, "per_row")
    out = fused(cell, split, v, "per_row")
    assert len(out.parents) == 7  # gx, h, u, bx, bh, x, w


def test_mismatched_operands_rejected():
    cell, split, v, _ = operands(1, "per_row")
    w_static, w_memory = ad.split_rows(cell.w, split)
    gx = cell.input_gates(v["static"], [B], w_static)[0]
    proj = ad.reshape(ad.matmul(ad.reshape(v["memory"], (B * K, N_MEMORY)), w_memory), (B, K, 3 * H))
    with pytest.raises(ad.ShapeMismatch):
        cell.step(gx, ad.narrow(v["h"], 0, 0, B - 1))
    with pytest.raises(ad.ShapeMismatch):  # shared rows: the row count is not the input's width
        cell.step(gx, v["h"], v["dynamic"], cell.u)
    with pytest.raises(ad.ShapeMismatch):  # per-row rows: the row count is not the input's width
        cell.step(gx, v["h"], v["dynamic"], proj)
    with pytest.raises(ad.ShapeMismatch, match=r"\(2, 3, 12\)"):  # per-row rows for another number of rows
        cell.step(gx, v["h"], v["attn"], ad.narrow(proj, 0, 0, B - 1))
    with pytest.raises(ad.ShapeMismatch, match=r"\(3, 3, 4\)"):  # a 3-D input
        cell.step(gx, v["h"], v["memory"], w_memory)
