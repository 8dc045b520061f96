"""The fused GRU step against the per-step concatenate-then-multiply oracle.

The fused step takes its input in parts: a static gate block (the static
inputs already multiplied by their rows of the input weight), an optional
state-dependent input with its weight rows, and an optional input feed, a
memory projected by its weight rows and mixed by attention weights. The
oracle concatenates [static, dynamic, attention mix of the memory] and
multiplies by the whole weight, one elementary op at a time.
"""

import numpy as np
import pytest

from msvae import autodiff as ad
from msvae import nn
from oracles import gru_step_composed

N_STATIC, N_DYNAMIC, N_MEMORY, K, B, H = 3, 2, 4, 3, 3, 4
SPLIT = [N_STATIC, N_DYNAMIC, N_MEMORY]


def operands(seed):
    r = np.random.default_rng(seed)
    cell = nn.GruCell(np.random.default_rng(seed), sum(SPLIT), H)
    for p in cell.params():  # nonzero biases, so every operand matters
        p.value[...] = r.normal(size=p.value.shape) * 0.7
    leaves = {"static": r.normal(size=(B, N_STATIC)), "h": r.normal(size=(B, H)),
              "dynamic": r.normal(size=(B, N_DYNAMIC)), "memory": r.normal(size=(B, K, N_MEMORY))}
    attn = np.exp(r.normal(size=(B, K)))
    leaves["attn"] = attn / attn.sum(axis=1, keepdims=True)
    return cell, {k: ad.leaf(v, name=k) for k, v in leaves.items()}, r.normal(size=(B, H))


def fused(cell, v, feed=True, dynamic=True):
    w_static, w_dynamic, w_memory = ad.split_rows(cell.w, SPLIT)
    gx = cell.input_gates(v["static"], [B], w_static)[0]
    proj = ad.reshape(ad.matmul(ad.reshape(v["memory"], (B * K, N_MEMORY)), w_memory), (B, K, 3 * H))
    return cell.step(gx, v["h"], *((v["dynamic"], w_dynamic) if dynamic else (None, None)),
                     *((v["attn"], proj) if feed else (None, None)))


def composed(cell, v, feed=True, dynamic=True):
    ctx = ad.bmix(v["attn"], v["memory"]) if feed else ad.constant(np.zeros((B, N_MEMORY)))
    dyn = v["dynamic"] if dynamic else ad.constant(np.zeros((B, N_DYNAMIC)))
    return gru_step_composed(cell, ad.concat([v["static"], dyn, ctx], axis=1), v["h"])


def test_fused_matches_composed_forward_and_backward():
    for trial in range(20):
        feed, dynamic = trial % 2 == 0, trial % 4 < 2  # with and without each optional part
        cell, v, w = operands(trial)

        def run(step):
            out = step(cell, v, feed, dynamic)
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
    # dynamic input and its weight block, the attention weights and the
    # projected memory, each a leaf of its own
    for trial in range(5):
        r = np.random.default_rng(100 + trial)
        cell, _, _ = operands(trial)
        leaves = {
            "gx": ad.leaf(r.normal(size=(B, 3 * H)), name="gx"),
            "h": ad.leaf(r.normal(size=(B, H)), name="h"),
            "x": ad.leaf(r.normal(size=(B, N_DYNAMIC)), name="x"),
            "w": ad.leaf(r.normal(size=(N_DYNAMIC, 3 * H)), name="w"),
            "attn": ad.leaf(r.uniform(size=(B, K)), name="attn"),
            "proj": ad.leaf(r.normal(size=(B, K, 3 * H)), name="proj"),
        }

        def build():
            v = leaves
            out = nn.fused_gru_step(v["gx"], v["h"], cell.u, cell.bx, cell.bh, v["x"], v["w"], v["attn"], v["proj"])
            return ad.reduce_sum(ad.mul(out, out))

        params = list(leaves.values()) + [cell.u, cell.bx, cell.bh]
        ad.zero_grad(params)
        ad.backward(build())
        for p in params:
            num = ad.numeric_gradient(lambda: float(build().value), p.value, eps=1e-6)
            assert ad.max_rel_error(p.gradient, num) <= 1e-6, p.name


def test_fused_is_one_node_over_its_operands():
    cell, v, _ = operands(0)
    out = fused(cell, v)
    assert len(out.parents) == 9  # gx, h, u, bx, bh, x, w, attn, proj


def test_mismatched_operands_rejected():
    cell, v, _ = operands(1)
    gx = cell.input_gates(v["static"], [B], ad.split_rows(cell.w, SPLIT)[0])[0]
    with pytest.raises(ad.ShapeMismatch):
        cell.step(gx, ad.narrow(v["h"], 0, 0, B - 1))
    with pytest.raises(ad.ShapeMismatch):
        cell.step(gx, v["h"], v["dynamic"], cell.u)
    with pytest.raises(ad.ShapeMismatch):
        cell.step(gx, v["h"], attn=v["attn"], proj=v["memory"])
