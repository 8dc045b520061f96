"""The msvae objective runs each module once per step over stacked rows:
one trajectory encoder pass over [paired; unpaired], one action decoder pass
over the latent rows [paired z1; unpaired z1; z2], one word decoder pass
over [paired z1; z2] and one prior pass over every z.

It is checked against its per-pass composition in oracles.py at the same
rng seed: every LossReport term within 1e-12 relative, every parameter
gradient within 1e-12 of the oracle's largest entry, and the generator left
in the same state. The action decoder's batch repeats the paired rows and
gathers their features with ad.embedding; that gather and the batch of
repeated rows are checked on their own.
"""

import numpy as np
import pytest

from msvae import autodiff as ad
from msvae import gridworld as gw
from msvae import model as md
from oracles import total_loss_per_pass

TOL = 1e-12
OBS_DIM = gw.ego_dim()


def build_model(seed=0):
    cfg = md.ModelConfig(vocab_size=9, obs_dim=OBS_DIM, word_emb=3, action_emb=3, hidden=4, obs_hidden=5,
                         attn_dim=3, cell_dim=3, k_slots=2, latent_dim=3, prior_hidden=4)
    r = np.random.default_rng(seed)
    model = md.MsVae(r, cfg)
    for p in model.params():  # off the initial scale, so every input matters
        p.value[...] = r.normal(size=p.value.shape) * 0.5
    return model


def trajectories(r, lengths):
    return [gw.Trajectory(r.normal(size=(n, OBS_DIM)), tuple(int(a) for a in r.integers(0, 6, n)))
            for n in lengths]


def densified(split: ad.SplitColumns) -> np.ndarray:
    """The array a SplitColumns was cut from, rebuilt from its block and ones."""
    x = np.zeros(split.shape)
    x[:, split.dense] = split.block
    x[split.rows, split.cols] = 1.0
    return x


def report_and_gradients(model, loss_fn):
    loss, report = loss_fn()
    ad.zero_grad(model.params())
    ad.backward(loss)
    return report, {n: p.gradient.copy() for n, p in model.named_params().items()}


# (paired lengths, unpaired lengths): B_p != B_u both ways, an unpaired block
# longer and one shorter than the paired one, length-1 trajectories in both
# blocks, and no unpaired batch
CASES = {
    "fewer_paired": ((3, 2, 4), (2, 5, 1, 3, 2)),
    "more_paired": ((3, 5, 2, 4), (3, 2)),
    "unpaired_longer": ((2, 3, 2), (6, 7, 5)),
    "unpaired_shorter": ((6, 5, 7), (2, 1, 3)),
    "length_one": ((1, 3), (1, 1, 2)),
    "no_unpaired": ((3, 1, 4), ()),
}
WEIGHTS = {
    "default": dict(alpha=0.3, gamma=2.0, beta=0.5),
    "gamma_zero": dict(alpha=0.3, gamma=0.0, beta=0.5),
    "alpha_zero": dict(alpha=0.0, gamma=2.0, beta=0.5),
}


@pytest.mark.parametrize("weights", sorted(WEIGHTS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_stacked_objective_matches_per_pass_composition(case, weights):
    paired_lengths, unpaired_lengths = CASES[case]
    model = build_model()
    r = np.random.default_rng(11)
    lang = md.make_lang_batch([[int(v) for v in r.integers(4, 9, n)] for n in r.integers(1, 5, len(paired_lengths))])
    paired, unpaired = trajectories(r, paired_lengths), trajectories(r, unpaired_lengths)
    hp = md.HyperParams(n_projections=4, **WEIGHTS[weights])
    stacked_rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)

    got = report_and_gradients(model, lambda: md.total_loss(model, lang, md.make_traj_batch(paired + unpaired),
                                                            hp, stacked_rng))
    want = report_and_gradients(model, lambda: total_loss_per_pass(
        model, lang, md.make_traj_batch(paired), md.make_traj_batch(unpaired) if unpaired else None, hp, oracle_rng))

    for field in md.LossReport.FIELDS:
        a, b = getattr(got[0], field), getattr(want[0], field)
        assert abs(a - b) <= TOL * abs(b), f"{field}: {a!r} vs {b!r}"
    assert (got[0].v == 0.0) == (not unpaired)
    assert got[1].keys() == want[1].keys()
    for name, g in got[1].items():
        scale = np.max(np.abs(want[1][name]))
        assert np.max(np.abs(g - want[1][name])) <= TOL * scale, name
    assert stacked_rng.bit_generator.state == oracle_rng.bit_generator.state


def test_fewer_trajectories_than_instructions_rejected():
    model = build_model()
    r = np.random.default_rng(12)
    lang = md.make_lang_batch([[4, 5], [6], [7, 8]])
    with pytest.raises(ValueError, match="2 trajectories for 3 instructions"):
        md.total_loss(model, lang, md.make_traj_batch(trajectories(r, (2, 3))), md.HyperParams(),
                      np.random.default_rng(0))


class TestRepeatedRows:
    def batch(self):
        r = np.random.default_rng(13)
        trajs = trajectories(r, (3, 1, 4, 2))
        return trajs, md.make_traj_batch(trajs)

    def test_repeat_first_equals_a_batch_made_from_the_repeated_trajectories(self):
        trajs, traj = self.batch()
        sub, source = traj.repeat_first(2)
        made = md.make_traj_batch(trajs + trajs[:2])
        for name in ("dec_in", "dec_tgt", "mask", "packed_obs"):
            np.testing.assert_array_equal(getattr(sub, name), getattr(made, name), err_msg=name)
        np.testing.assert_array_equal(sub.packing.counts, made.packing.counts)
        np.testing.assert_array_equal(traj.packed_obs[source], made.packed_obs)

    def test_repeat_first_batch_splits_its_own_observations(self):
        # the observation MLPs' column index is built on first use from the
        # packed_obs the batch holds then, which repeat_first assigns after
        # the batch is made
        r = np.random.default_rng(15)
        trajs = [gw.Trajectory((r.random((n, OBS_DIM)) < 0.02).astype(float), (0,) * n) for n in (9, 5, 12, 7)]
        traj = md.make_traj_batch(trajs)
        assert traj.obs_columns.rows.size > 0  # built before the repeat, with sparse ones
        sub, _ = traj.repeat_first(3)
        for batch in (traj, sub):
            np.testing.assert_array_equal(densified(batch.obs_columns), batch.packed_obs)
        assert sub.obs_columns.shape[0] > traj.obs_columns.shape[0]

    def test_lang_repeat_first_equals_a_batch_made_from_the_repeated_tokens(self):
        tokens = [[4, 5], [6], [7, 8, 4]]
        sub, made = md.make_lang_batch(tokens).repeat_first(3), md.make_lang_batch(tokens + tokens)
        for name in ("enc_mask", "dec_in", "dec_tgt"):
            np.testing.assert_array_equal(getattr(sub, name), getattr(made, name), err_msg=name)

    def test_gathered_features_gradient(self):
        # the decoder's features gathered by repeated packed rows: the
        # gather's backward adds the repeated rows' gradients into each
        # source row, checked by central differences
        _, traj = self.batch()
        _, source = traj.repeat_first(3)
        assert np.unique(source).size < source.size
        r = np.random.default_rng(14)
        mlp = md.ObsMlp(r, OBS_DIM, hidden=3, width=4)
        weights = ad.constant(r.normal(size=(source.size, 3)))

        def loss():
            return ad.reduce_sum(ad.mul(ad.embedding(mlp.features(traj), source), weights))

        ad.zero_grad(mlp.params())
        ad.backward(loss())
        for p in mlp.params():
            num = ad.numeric_gradient(lambda: float(loss().value), p.value, eps=1e-6)
            assert ad.max_rel_error(p.gradient, num) <= 1e-4, p.name
