import numpy as np
import pytest

from msvae import autodiff as ad
from msvae import gridworld as gw
from msvae import model as md
from oracles import readout_composed


def make_readout(view, seed, proj_dim=6, query_dim=4):
    obs_dim = gw.ego_dim() if view == "ego" else 5
    cfg = md.ModelConfig(vocab_size=8, obs_dim=obs_dim, cell_dim=proj_dim)
    r = np.random.default_rng(seed)
    readout = md.GridReadout(r, query_dim=query_dim, proj_dim=proj_dim, cfg=cfg)
    for p in readout.params():  # move every parameter off its initial scale
        p.value[...] = r.normal(size=p.value.shape)
    obs = r.normal(size=(3, 2, obs_dim))
    return readout, obs, r


@pytest.mark.parametrize("trainable_query", [True, False])
@pytest.mark.parametrize("view", ["ego", "synthetic"])
def test_fused_matches_composed_forward_and_backward(view, trainable_query):
    for trial in range(3):
        readout, obs, r = make_readout(view, 40 + trial)
        qv = r.normal(size=(3, 4))
        w = r.normal(size=(3, 6))  # fixed downstream weights
        cells = readout.cells(obs[:, 1])

        def run(call):
            query = ad.leaf(qv.copy(), name="query") if trainable_query else ad.constant(qv)
            ad.zero_grad(readout.params() + [query])
            out = call(query, cells)
            ad.backward(ad.reduce_sum(ad.mul(out, ad.constant(w))))
            grads = {n: p.gradient.copy() for n, p in readout.named_params().items()}
            grads["query"] = query.grad
            return out, grads

        fused, g1 = run(readout)
        composed, g2 = run(lambda query, cells: readout_composed(readout, query, cells))
        assert ad.max_rel_error(fused.value, composed.value) <= 1e-12
        assert set(g1) == {"wc.w", "wc.b", "pos", "wq.w", "wq.b", "query"}
        for name in g1:
            if trainable_query or name != "query":
                assert ad.max_rel_error(g1[name], g2[name]) <= 1e-12, name
        if not trainable_query:
            # the constant query is not a parent, so its slot is skipped
            assert g1["query"] is None and fused.slots == [1, 2, 3, 4, 5]


def test_fused_is_one_node():
    readout, obs, r = make_readout("ego", 50)
    out = readout(ad.leaf(r.normal(size=(3, 4))), readout.cells(obs[:, 0]))
    assert len(out.parents) == 6
    assert all(p.vjp is None for p in out.parents)  # operands are leaves, cells are captured


def test_fused_gradient_finite_difference():
    for trial in range(2):
        readout, obs, r = make_readout("ego", 60 + trial, proj_dim=3, query_dim=2)
        obs = np.abs(obs[:2])  # grid-like nonnegative cells
        query = ad.leaf(r.normal(size=(2, 2)), name="query")
        cells = readout.cells(obs[:, 0])

        def build():
            out = readout(query, cells)
            return ad.reduce_sum(ad.mul(out, out))

        params = [query] + readout.params()
        ad.zero_grad(params)
        ad.backward(build())
        for p in params:
            num = ad.numeric_gradient(lambda: float(build().value), p.value, eps=1e-6)
            assert ad.max_rel_error(p.gradient, num) <= 1e-6, p.name
