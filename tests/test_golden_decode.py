"""Pinned decode outputs of fixed-seed tiny models.

Every follow/speak path (the latent model and both baselines, with and
without attention or input feeding) is run greedily and in sampled mode
with a fixed generator. The expected actions, tokens, truncated flags and
the generator's next draw (which pins how many draws a decode consumed)
were recorded from the implementation; a refactor of the decoders must
reproduce them exactly.
"""

import numpy as np
import pytest

from msvae import gridworld as gw
from msvae import model as md


def _cfg(**kw):
    base = dict(vocab_size=22, obs_dim=gw.ego_dim(), hidden=12, word_emb=8, action_emb=6,
                attn_dim=8, cell_dim=8, k_slots=2, latent_dim=6, prior_hidden=8)
    base.update(kw)
    return md.ModelConfig(**base)


BUILDERS = {
    "msvae": lambda: md.MsVae(np.random.default_rng(11), _cfg()),
    "msvae_no_feed": lambda: md.MsVae(np.random.default_rng(12), _cfg(input_feed=False)),
    "follower_attn": lambda: md.BaselineFollower(np.random.default_rng(13), _cfg()),
    "follower_no_attn": lambda: md.BaselineFollower(np.random.default_rng(14), _cfg(), attention=False),
    "speaker_attn": lambda: md.BaselineSpeaker(np.random.default_rng(15), _cfg()),
    "speaker_no_attn": lambda: md.BaselineSpeaker(np.random.default_rng(16), _cfg(), attention=False),
}
INSTRUCTIONS = ([4, 5, 6], [9, 10, 11, 12, 13])


def decode_outputs(name):
    model = BUILDERS[name]()
    for p in model.params():  # sharper logits make the outputs depend on the inputs
        p.value *= 3.0
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
    'msvae_no_feed': [
        ('follow', 'greedy', (3, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4)),
        ('follow', 'sample', (4, 4, 3, 0, 4, 3, 3, 4, 3, 3, 4, 3), 346203802),
        ('follow', 'greedy', (4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4)),
        ('follow', 'sample', (4, 4, 4, 4, 3, 4, 4, 3, 4, 3, 4, 4), 108550259),
        ('speak', 'greedy', [6, 6, 6, 6, 6, 6, 6, 6, 6, 6], True),
        ('speak', 'sample', [14, 14], False, 583756036),
        ('speak', 'greedy', [6, 6, 6, 6, 6, 6, 6, 6, 6, 6], True),
        ('speak', 'sample', [21, 6, 6, 6, 6, 6, 6, 6, 21, 21], True, 217273011),
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
    'speaker_no_attn': [
        ('speak', 'greedy', [18, 18, 18, 18, 18, 18, 18, 18, 18, 16], True),
        ('speak', 'sample', [18, 18], False, 583756036),
        ('speak', 'greedy', [16, 6, 6, 6, 6, 6, 6, 6, 6, 6], True),
        ('speak', 'sample', [20, 15, 10, 15, 15, 8, 6, 8, 18, 18], True, 217273011),
    ],
}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_decode_outputs_match_golden(name):
    assert decode_outputs(name) == EXPECTED[name]
