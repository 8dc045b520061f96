"""Pinned decode outputs and teacher-forced losses of fixed-seed tiny models.

Every follow/speak path (the latent model, the follower with and without
attention, and the speaker) is run greedily
and in sampled mode with a fixed generator. The expected actions, tokens,
truncated flags and the generator's next draw (which pins how many draws a
decode consumed) were recorded from the implementation; a refactor of the
decoders must reproduce them exactly.

The same models' training losses on ragged batches of three (so padding and
masking are exercised) are pinned with every parameter's gradient sum and
L2 norm, in golden_teacher_forced.json. Running this file as a script
rewrites that file from the current implementation.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from msvae import autodiff as ad
from msvae import gridworld as gw
from msvae import model as md


def _cfg(**kw):
    base = dict(vocab_size=22, obs_dim=gw.ego_dim(), hidden=12, word_emb=8, action_emb=6,
                attn_dim=8, cell_dim=8, k_slots=2, latent_dim=6, prior_hidden=8)
    base.update(kw)
    return md.ModelConfig(**base)


BUILDERS = {
    "msvae": lambda: md.MsVae(np.random.default_rng(11), _cfg()),
    "follower_attn": lambda: md.BaselineFollower(np.random.default_rng(13), _cfg()),
    "follower_no_attn": lambda: md.BaselineFollower(np.random.default_rng(14), _cfg(), attention=False),
    "speaker_attn": lambda: md.BaselineSpeaker(np.random.default_rng(15), _cfg()),
}
INSTRUCTIONS = ([4, 5, 6], [9, 10, 11, 12, 13])


def sharpened(name):
    model = BUILDERS[name]()
    for p in model.params():  # sharper logits make the outputs depend on the inputs
        p.value *= 3.0
    return model


def decode_outputs(name):
    model = sharpened(name)
    out = []
    if hasattr(model, "follow"):
        for i, tokens in enumerate(INSTRUCTIONS):
            world, _ = gw.sample_task(20 + i, "goto_seq")
            traj, states = model.follow(tokens, world, max_steps=12)
            assert len(states) == len(traj) + 1
            out.append(("follow", "greedy", traj.actions))
            rng = np.random.default_rng(100 + i)
            traj, states = model.follow(tokens, world, mode="sample", rng=rng, max_steps=12)
            assert len(states) == len(traj) + 1
            out.append(("follow", "sample", traj.actions, int(rng.integers(1 << 30))))
    if hasattr(model, "speak"):
        for i in range(2):
            world, task = gw.sample_task(30 + i, "goto_seq")
            _, traj = gw.rollout(world, gw.oracle_solve(world, task), view="ego")
            out.append(("speak", "greedy", *model.speak(traj, len_cap=10)))
            rng = np.random.default_rng(200 + i)
            out.append(("speak", "sample", *model.speak(traj, mode="sample", rng=rng, len_cap=10),
                        int(rng.integers(1 << 30))))
    return out


EXPECTED = {
    'msvae': [
        ('follow', 'greedy', (3, 5)),
        ('follow', 'sample', (4, 4, 3, 1, 5), 1017077274),
        ('follow', 'greedy', (3, 0, 0, 0, 0, 3, 3, 3, 2, 3, 3, 3)),
        ('follow', 'sample', (5,), 747949814),
        ('speak', 'greedy', [11, 11, 11, 11, 11, 11, 11, 11, 11, 11], True),
        ('speak', 'sample', [11, 11], False, 583756036),
        ('speak', 'greedy', [9, 11, 11, 11, 11, 11, 11, 11, 11, 11], True),
        ('speak', 'sample', [14, 11, 11, 11, 11, 11, 5, 11, 11, 11], True, 217273011),
    ],
    'follower_attn': [
        ('follow', 'greedy', (4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4)),
        ('follow', 'sample', (4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4), 346203802),
        ('follow', 'greedy', (4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4)),
        ('follow', 'sample', (5,), 747949814),
    ],
    'follower_no_attn': [
        ('follow', 'greedy', (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
        ('follow', 'sample', (2, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1, 1), 346203802),
        ('follow', 'greedy', (1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1)),
        ('follow', 'sample', (2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), 108550259),
    ],
    'speaker_attn': [
        ('speak', 'greedy', [21, 21, 21, 19, 19, 19, 19, 19, 19, 19], True),
        ('speak', 'sample', [21, 19, 0], False, 957356454),
        ('speak', 'greedy', [18, 6, 6, 6, 6, 6, 6, 6, 6, 6], True),
        ('speak', 'sample', [21, 6, 6, 6, 6, 6, 6, 6, 19, 21], True, 217273011),
    ],
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_decode_outputs_match_golden(name):
    assert decode_outputs(name) == EXPECTED[name]


# ---------------------------------------------------------------------------
# teacher-forced losses and their gradients

GOLDEN_LOSSES = Path(__file__).with_name("golden_teacher_forced.json")
LOSS_RTOL = 1e-9  # perfbench's CURVE_RTOL: a fast path may only reorder float sums
TOKENS = ([4, 5, 6], [9, 10, 11, 12, 13], [7, 8])


def _trajectories(seeds):
    trajs = []
    for seed in seeds:
        world, task = gw.sample_task(seed, "goto_seq")
        trajs.append(gw.rollout(world, gw.oracle_solve(world, task), view="ego")[1])
    return trajs


def loss_outputs(name):
    """(loss terms, {param: [gradient sum, gradient L2 norm]}, {param: size})
    of one model's training loss on fixed ragged batches."""
    model = sharpened("msvae" if name == "bottleneck" else name)
    lang = md.make_lang_batch([list(t) for t in TOKENS])
    paired = _trajectories((40, 41, 42))
    if isinstance(model, md.MsVae) and name != "bottleneck":
        traj = md.make_traj_batch(paired + _trajectories((50, 51, 52)))  # then the unpaired ones
        loss, report = md.total_loss(model, lang, traj, md.HyperParams(), np.random.default_rng(7))
        terms = report.as_row()
    else:  # a follower's IL loss (bottleneck: the latent architecture's), or a speaker's
        traj = md.make_traj_batch(paired)
        ll = (model.follower_log_likelihood(lang, traj) if hasattr(model, "follow")
              else model.speaker_log_likelihood(traj, lang))
        mean_ll = ad.reduce_mean(ll)
        loss, terms = ad.neg(mean_ll), [float(mean_ll.value)]
    params = model.named_params()
    ad.zero_grad(list(params.values()))
    ad.backward(loss)
    grads = {k: [float(p.gradient.sum()), float(np.linalg.norm(p.gradient))] for k, p in sorted(params.items())}
    return terms, grads, {k: p.value.size for k, p in params.items()}


LOSS_MODELS = sorted(BUILDERS) + ["bottleneck"]


def test_batches_are_ragged():
    assert len({len(t) for t in TOKENS}) == 3
    assert len({len(t) for t in _trajectories((40, 41, 42))}) > 1
    assert len({len(t) for t in _trajectories((50, 51, 52))}) > 1


@pytest.mark.parametrize("name", LOSS_MODELS)
def test_teacher_forced_loss_matches_golden(name):
    expected = json.loads(GOLDEN_LOSSES.read_text())[name]
    terms, grads, sizes = loss_outputs(name)
    np.testing.assert_allclose(terms, expected["terms"], rtol=LOSS_RTOL, atol=0)
    assert sorted(grads) == sorted(expected["grads"])
    for k, (total, norm) in grads.items():
        ref_total, ref_norm = expected["grads"][k]
        np.testing.assert_allclose(norm, ref_norm, rtol=LOSS_RTOL, atol=0, err_msg=k)
        # a sum of mixed-sign entries (a softmax head's bias gradient sums to
        # zero) is held to the scale of the entries it adds, sqrt(size) * norm
        # or less, which bounds the error of adding them in another order
        atol = LOSS_RTOL * np.sqrt(sizes[k]) * ref_norm
        np.testing.assert_allclose(total, ref_total, rtol=LOSS_RTOL, atol=atol, err_msg=k)


if __name__ == "__main__":
    doc = {}
    for name in LOSS_MODELS:
        terms, grads, _ = loss_outputs(name)
        doc[name] = {"terms": terms, "grads": grads}
    GOLDEN_LOSSES.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
