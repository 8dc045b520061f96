"""The decoders' array steps against their graph steps.

A rollout steps on arrays (array_step, KeyValueAttention.attend) while
teacher-forced scoring and training step through Node ops (step_logits,
__call__). Each array step must give the same bits as the graph step it
replaces, given the same inputs, so decoding outputs never drift from what
the trained likelihood scores.
"""

import numpy as np
import pytest

from msvae import autodiff as ad
from msvae import gridworld as gw
from msvae import model as md
from msvae import nn
from test_golden_decode import BUILDERS, sharpened

N_STEPS = 6


def oracle_traj(seed=21):
    world, task = gw.sample_task(seed, "goto_seq")
    return gw.rollout(world, gw.oracle_solve(world, task), view="ego")[1]


def follower_steps(model, mask_last: bool):
    """(decoder, memory, mask, h0, per-step static gates, per-step graph
    inputs) of a follow from one instruction; the gates come from an oracle
    trajectory's observations and actions."""
    memory, mask, h0 = model.instruction_memory(md.make_lang_batch([[4, 5, 6, 7]]))
    if mask_last:
        mask = mask.copy()
        mask[0, -1] = 0.0  # an entry the attention must not read
    dec, traj = model.act_dec, oracle_traj()
    w_static, emb = dec.gru.w.value[: dec.static_dim], dec.emb.table.value
    prev = (gw.N_ACTIONS,) + traj.actions
    gates, extra = [], []
    for t in range(N_STEPS):
        o = traj.observations[t : t + 1]
        gates.append(np.concatenate([model.obs_mlp.one_hot_row(o), emb[[prev[t]]]], axis=1) @ w_static)
        extra.append((dec.readout.cells(o),))
    return dec, memory, mask, h0, gates, extra


def speaker_steps(model):
    memory, mask, h0 = model.trajectory_memory(md.make_traj_batch([oracle_traj()]))
    dec = model.word_dec
    w_static, emb = dec.gru.w.value[: dec.static_dim], dec.emb.table.value
    gates = [emb[[w]] @ w_static for w in (1, 4, 9, 5, 12, 6)[:N_STEPS]]
    return dec, memory, mask, h0, gates, [()] * N_STEPS


CASES = {
    "msvae-follow": ("msvae", lambda m: follower_steps(m, False)),
    "msvae-speak": ("msvae", speaker_steps),
    "follower_attn-masked": ("follower_attn", lambda m: follower_steps(m, True)),
    "follower_no_attn": ("follower_no_attn", lambda m: follower_steps(m, False)),
    "speaker_attn": ("speaker_attn", speaker_steps),
}


def test_cases_cover_every_golden_variant():
    assert {name for name, _ in CASES.values()} == set(BUILDERS)


@pytest.mark.parametrize("case", sorted(CASES))
def test_array_step_equals_step_logits(case):
    name, steps = CASES[case]
    model = sharpened(name)
    dec, memory, mask, h0, gates, extra = steps(model)
    prepared, feed = dec.prepare(memory)
    array_step = dec.array_step()
    arrays = (memory.value, None if prepared is None else prepared.value, feed.value)
    h_node = dec.gru.init_state(1) if h0 is None else h0
    h_array, prev_node, prev_array = h_node.value, None, None
    for t in range(N_STEPS):
        logits_node, h_node, prev_node = dec.step_logits(ad.constant(gates[t]), *extra[t], h_node, prev_node,
                                                         memory, prepared, feed, mask)
        logits, h_array, prev_array = array_step(gates[t], *extra[t], h_array, prev_array, *arrays, mask)
        assert np.array_equal(logits, logits_node.value), t
        assert np.array_equal(h_array, h_node.value), t
        assert np.array_equal(prev_array, prev_node.value), t
    assert len(np.unique(logits)) > 1  # the steps computed something


@pytest.mark.parametrize("masked", [False, True])
def test_attend_equals_attention_nodes(masked):
    rng = np.random.default_rng(3)
    attn = nn.KeyValueAttention(rng, 5, 7, 3)  # a scale that rounds: 1 / sqrt(3)
    query, keys, values = rng.normal(size=(3, 5)), rng.normal(size=(3, 6, 7)), rng.normal(size=(3, 6, 7))
    mask = (np.arange(6) < np.array([[6], [4], [1]])).astype(float) if masked else None
    prepared = attn.prepare(ad.constant(keys))
    mix, weights = attn(ad.constant(query), prepared, ad.constant(values), mask)
    mix_array, weights_array = attn.attend(query, prepared.value, values, mask)
    assert np.array_equal(mix_array, mix.value) and np.array_equal(weights_array, weights.value)
    if masked:
        assert not weights_array[2, 1:].any()
