"""The packed sequence loops against the padded, masked loops they replace.

Both encoders' GRU scan and both decoders' teacher-forced loop run packed:
rows sorted longest first, step t computing only the rows still running.
The masked loops below compute every row at every step, carry a finished
row's encoder state with h + (h_new - h) * m and multiply each decoder step
term by the step mask. They live on only here, as the oracle: on random
ragged batches both must give the same per-sample log-likelihoods, encoder
posteriors, objective and parameter gradients, up to reordered float sums.
"""

import contextlib
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from msvae import autodiff as ad
from msvae import gridworld as gw
from msvae import model as md

RTOL = 1e-12


def masked_gru_encode(cell, mask, step_input):
    h = cell.init_state(mask.shape[0])
    states = []
    for t in range(mask.shape[1]):
        h_new = cell.step(step_input(t, h), h)
        h = ad.add(h, ad.mul_colvec(ad.sub(h_new, h), ad.constant(mask[:, t])))
        states.append(h)
    return ad.stack(states, axis=1), states[-1]


def masked_teacher_forced(dec, mask, dec_in, dec_tgt, memory, memory_mask, h0, step_inputs):
    prepared = dec.prepare(memory)
    h = h0 if h0 is not None else dec.gru.init_state(mask.shape[0])
    ctx = dec.init_context(mask.shape[0])
    total = None
    for t in range(mask.shape[1]):
        logits, h, ctx = dec.step_logits(*step_inputs(t), dec_in[:, t], h, ctx, memory, prepared, memory_mask)
        picked = ad.mul(ad.select_columns(ad.log_softmax(logits), dec_tgt[:, t]), ad.constant(mask[:, t]))
        total = picked if total is None else ad.add(total, picked)
    return total


def padded_features(mlp, traj):
    return [mlp(ad.constant(traj.obs[:, t] * traj.mask[:, t, None])) for t in range(traj.mask.shape[1])]


def padded_lang_states(enc, lang):
    return masked_gru_encode(enc.gru, lang.enc_mask, lambda t, h: enc.emb(lang.dec_tgt[:, t]))


def padded_traj_states(enc, traj, obs_feats):
    def step_input(t, h):
        cell_ctx = enc.readout(h, enc.readout.cells(traj.obs[:, t]))
        return ad.concat([obs_feats[t], enc.emb(traj.dec_tgt[:, t]), cell_ctx], axis=1)

    return masked_gru_encode(enc.gru, traj.mask, step_input)


def padded_action_logll(dec, traj, obs_feats, memory, memory_mask=None, h0=None):
    return masked_teacher_forced(dec, traj.mask, traj.dec_in, traj.dec_tgt, memory, memory_mask, h0,
                                 lambda t: (obs_feats[t], dec.readout.cells(traj.obs[:, t])))


def padded_word_logll(dec, lang, memory, memory_mask=None, h0=None):
    return masked_teacher_forced(dec, lang.enc_mask, lang.dec_in, lang.dec_tgt, memory, memory_mask, h0,
                                 lambda t: ())


@contextlib.contextmanager
def padded_loops():
    """Run every model through the masked loops instead of the packed ones."""
    with contextlib.ExitStack() as stack:
        for owner, attr, fn in ((md.ObsMlp, "features_steps", padded_features),
                                (md.LanguageEncoderCore, "hidden_states", padded_lang_states),
                                (md.TrajEncoderCore, "hidden_states", padded_traj_states),
                                (md.ActionDecoder, "teacher_forced_logll", padded_action_logll),
                                (md.WordDecoder, "teacher_forced_logll", padded_word_logll)):
            stack.enter_context(mock.patch.object(owner, attr, fn))
        yield


VIEWS = {"synthetic": 5, "grid": gw.OBS_VIEWS["grid"][1]}


def build(kind, view, seed):
    cfg = md.ModelConfig(vocab_size=9, obs_dim=VIEWS[view], n_actions=6, word_emb=3, action_emb=3, hidden=4,
                         obs_hidden=5, attn_dim=3, cell_dim=3, k_slots=2, latent_dim=3, prior_hidden=4,
                         obs_view=view)
    rng = np.random.default_rng(seed)
    name, _, attention = kind.partition("_")
    model = md.build_model(name, rng, cfg, attention != "no_attn")
    for p in model.params():  # off the initial scale, so every input matters
        p.value[...] = rng.normal(size=p.value.shape) * 0.5
    return model


def batches(seed, traj_lengths, lang_lengths, view):
    r = np.random.default_rng(seed)
    trajs = [gw.Trajectory(r.normal(size=(n, VIEWS[view])), tuple(int(a) for a in r.integers(0, 6, n)))
             for n in traj_lengths]
    langs = [[int(v) for v in r.integers(4, 9, n)] for n in lang_lengths]
    return trajs, langs


def interface_lls(model, lang, traj):
    """The per-sample likelihoods of the follower and speaker interface, as
    far as the model follows and speaks."""
    lls = [model.follower_log_likelihood(lang, traj)] if hasattr(model, "follow") else []
    return lls + ([model.speaker_log_likelihood(traj, lang)] if hasattr(model, "speak") else [])


def outputs(model, trajs, langs, unpaired, seed):
    """Every per-sample output and the loss gradients of `model` on a batch."""
    traj, lang = md.make_traj_batch(trajs, 6), md.make_lang_batch(langs)
    ad.zero_grad(model.params())
    lls = interface_lls(model, lang, traj)
    out = {f"ll {i}": ll.value for i, ll in enumerate(lls)}
    if model.kind == "msvae":
        out["traj_mean"], out["traj_logvar"] = (x.value for x in model.encode_trajectory(traj))
        out["lang_mean"], out["lang_logvar"] = (x.value for x in model.encode_language(lang))
        z = ad.constant(np.random.default_rng(seed).normal(size=(len(trajs), 2, 3)))
        out["action_ll"] = model.action_log_likelihood(z, traj).value
        out["language_ll"] = model.language_log_likelihood(z, lang).value
        loss, _ = md.total_loss(model, lang, traj, md.make_traj_batch(unpaired, 6),
                                md.HyperParams(alpha=0.3, gamma=2.0, n_projections=3), np.random.default_rng(seed))
    else:
        loss = ad.neg(ad.reduce_mean(lls[0]))
    ad.backward(loss)
    out["loss"] = loss.value
    out.update({f"grad {n}": p.gradient.copy() for n, p in model.named_params().items()})
    return out


KINDS = ["msvae", "follower", "follower_no_attn", "speaker"]
lengths = st.lists(st.integers(1, 6), min_size=1, max_size=4)


@st.composite
def ragged_batches(draw):
    traj_lengths = draw(lengths)
    b = len(traj_lengths)
    return (draw(st.sampled_from(KINDS)), draw(st.sampled_from(sorted(VIEWS))), traj_lengths,
            draw(st.lists(st.integers(1, 5), min_size=b, max_size=b)),
            draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)), draw(st.integers(0, 2**16)))


@settings(max_examples=40, deadline=None)
@given(ragged_batches())
def test_packed_loops_match_masked_loops(case):
    kind, view, traj_lengths, lang_lengths, unpaired_lengths, seed = case
    model = build(kind, view, seed)
    trajs, langs = batches(seed, traj_lengths, lang_lengths, view)
    unpaired, _ = batches(seed + 1, unpaired_lengths, [], view)
    packed = outputs(model, trajs, langs, unpaired, seed)
    with padded_loops():
        padded = outputs(model, trajs, langs, unpaired, seed)
    assert packed.keys() == padded.keys()
    for name, value in packed.items():
        assert value.shape == padded[name].shape, name
        assert ad.max_rel_error(value, padded[name]) <= RTOL, name


@settings(max_examples=25, deadline=None)
@given(ragged_batches(), st.randoms(use_true_random=False))
def test_permuting_rows_permutes_per_sample_outputs(case, random):
    kind, view, traj_lengths, lang_lengths, _, seed = case
    model = build(kind, view, seed)
    trajs, langs = batches(seed, traj_lengths, lang_lengths, view)
    perm = list(range(len(trajs)))
    random.shuffle(perm)

    def per_sample(trajs, langs, z):
        traj, lang = md.make_traj_batch(trajs, 6), md.make_lang_batch(langs)
        out = interface_lls(model, lang, traj)
        if model.kind == "msvae":
            out += [*model.encode_trajectory(traj), *model.encode_language(lang),
                    model.action_log_likelihood(z, traj), model.language_log_likelihood(z, lang)]
        return out

    z = np.random.default_rng(seed).normal(size=(len(trajs), 2, 3))
    base = per_sample(trajs, langs, ad.constant(z))
    permuted = per_sample([trajs[i] for i in perm], [langs[i] for i in perm], ad.constant(z[perm]))
    for a, b in zip(base, permuted):
        assert ad.max_rel_error(a.value[perm], b.value) <= RTOL
