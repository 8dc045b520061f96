"""Reference formulations and helpers that only the tests use.

The fused nodes and hoisted products of the package are checked against
the composed-op forms below, written the plain way: concatenate every
input, multiply by the whole weight, one elementary op at a time.
"""

import numpy as np

from msvae import autodiff as ad
from msvae import gridworld as gw
from msvae import model as md
from msvae import nn


def gru_step_composed(cell: nn.GruCell, x: ad.Node, h: ad.Node) -> ad.Node:
    """One GRU step from the whole concatenated input x; the oracle for
    fused_gru_step, whose static block, state-dependent input and input
    feed are row blocks of x times the matching rows of cell.w."""
    nh = cell.n_hidden
    gx = ad.add_rowvec(ad.matmul(x, cell.w), cell.bx)
    gh = ad.add_rowvec(ad.matmul(h, cell.u), cell.bh)
    r = ad.sigmoid(ad.add(ad.narrow(gx, 1, 0, nh), ad.narrow(gh, 1, 0, nh)))
    z = ad.sigmoid(ad.add(ad.narrow(gx, 1, nh, nh), ad.narrow(gh, 1, nh, nh)))
    n = ad.tanh(ad.add(ad.narrow(gx, 1, 2 * nh, nh), ad.mul(r, ad.narrow(gh, 1, 2 * nh, nh))))
    # h' = n + z * (h - n)
    return ad.add(n, ad.mul(z, ad.sub(h, n)))


def readout_composed(readout: md.GridReadout, query: ad.Node, cells: np.ndarray) -> ad.Node:
    """GridReadout in elementary ops; the oracle for fused_grid_readout.

    Keys and values are wc(cells) + pos, and attention is linear in them:
    q . (c W + b + p) = (q W^T) . c + q . p + q . b, where the q . b term is
    the same for every cell and cancels in the softmax; the weights sum to
    one, so sum_n w_n wc(c_n) = wc(sum_n w_n c_n).
    """
    cells = ad.constant(cells)
    q = readout.wq(query)
    scores = ad.add(ad.bdot(ad.matmul(q, ad.transpose2(readout.wc.w)), cells),
                    ad.matmul(q, ad.transpose2(readout.pos)))
    w = ad.softmax(ad.scale(scores, readout.scale), axis=-1)
    return ad.add(readout.wc(ad.bmix(w, cells)), ad.matmul(w, readout.pos))


def attend(attn: nn.KeyValueAttention, query, keys, values, mask=None) -> ad.Node:
    """One-shot context vector over prepare + call."""
    if keys.value.shape[:2] != values.value.shape[:2]:
        raise ad.ShapeMismatch(
            f"attend: keys {keys.value.shape} and values {values.value.shape} disagree on (batch, length)"
        )
    ctx, _ = attn(query, attn.prepare(keys), values, mask)
    return ctx


def save_model(path, model, vocab_words: list[str], extra: dict | None = None) -> None:
    """Write a model's parameters the way a training run's checkpoint holds them."""
    arrays = {k: v.value for k, v in model.named_params().items()}
    nn.save_checkpoint(path, arrays, {**md.checkpoint_meta(model, vocab_words), **(extra or {})})


def oracle_speak_fn():
    """Grammar-perfect speaker for pipelines.augment: re-renders the
    generating task's instruction."""

    def fn(corpus, rec):
        _, task = corpus.rebuild(rec)
        return corpus.vocab.tokenize(gw.render_instruction(task)), False

    return fn
