import gc

import numpy as np
import pytest

from msvae import autodiff as ad
from msvae import gridworld as gw
from msvae import model as md
from msvae import nn
from oracles import obs_mlp_dense, save_model, serial_language_scores


def tiny_cfg(**kw):
    base = dict(vocab_size=9, obs_dim=5, word_emb=3, action_emb=3,
                hidden=4, attn_dim=3, cell_dim=3, k_slots=2, latent_dim=3, prior_hidden=4)
    base.update(kw)
    return md.ModelConfig(**base)


def synth_traj(rng, t, obs_dim=5, n_actions=6):
    return gw.Trajectory(rng.normal(size=(t, obs_dim)), tuple(int(a) for a in rng.integers(0, n_actions, t)))


def synth_lang(rng, n, vocab=9):
    return [int(v) for v in rng.integers(4, vocab, n)]


@pytest.fixture
def tiny_model():
    return md.MsVae(np.random.default_rng(0), tiny_cfg())


class TestEncoders:
    def test_language_arity_over_lengths(self, tiny_model):
        r = np.random.default_rng(1)
        for n in (1, 7, 50):
            lang = md.make_lang_batch([synth_lang(r, n)])
            mean, logvar = tiny_model.encode_language(lang)
            assert mean.value.shape == (1, 2, 3)
            assert logvar.value.shape == (1, 2, 3)

    def test_different_instructions_different_means(self, tiny_model):
        a = md.make_lang_batch([[4, 5, 6]])
        b = md.make_lang_batch([[6, 5, 4]])
        ma, _ = tiny_model.encode_language(a)
        mb, _ = tiny_model.encode_language(b)
        assert not np.allclose(ma.value, mb.value)

    def test_trajectory_t1_and_determinism(self, tiny_model):
        r = np.random.default_rng(2)
        tb = md.make_traj_batch([synth_traj(r, 1)])
        m1, lv1 = tiny_model.encode_trajectory(tb)
        m2, lv2 = tiny_model.encode_trajectory(tb)
        assert m1.value.shape == (1, 2, 3)
        np.testing.assert_array_equal(m1.value, m2.value)
        np.testing.assert_array_equal(lv1.value, lv2.value)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            md.make_lang_batch([[]])
        with pytest.raises(ValueError, match="empty"):
            md.make_traj_batch([])

    def test_padding_does_not_leak(self, tiny_model):
        # a short instruction's slots are identical with and without a
        # longer batch neighbor forcing padding
        r = np.random.default_rng(3)
        short = synth_lang(r, 2)
        longer = synth_lang(r, 8)
        alone = tiny_model.encode_language(md.make_lang_batch([short]))[0].value[0]
        padded = tiny_model.encode_language(md.make_lang_batch([short, longer]))[0].value[0]
        np.testing.assert_allclose(alone, padded, atol=1e-12)


class TestLikelihoods:
    def test_uniform_action_logits(self, tiny_model):
        tiny_model.act_dec.head.w.value[...] = 0.0
        tiny_model.act_dec.head.b.value[...] = 0.0
        r = np.random.default_rng(4)
        for t in (1, 3, 6):
            tb = md.make_traj_batch([synth_traj(r, t)])
            z = ad.constant(r.normal(size=(1, 2, 3)))
            ll = tiny_model.action_log_likelihood(z, tb)
            assert abs(float(ll.value[0]) + t * np.log(6)) < 1e-10

    def test_uniform_language_logits_scores_eos(self, tiny_model):
        tiny_model.word_dec.head.w.value[...] = 0.0
        tiny_model.word_dec.head.b.value[...] = 0.0
        r = np.random.default_rng(5)
        n = 4
        lang = md.make_lang_batch([synth_lang(r, n)])
        z = ad.constant(r.normal(size=(1, 2, 3)))
        ll = tiny_model.language_log_likelihood(z, lang)
        # eos is scored: n tokens + eos at uniform 1/V each
        assert abs(float(ll.value[0]) + (n + 1) * np.log(9)) < 1e-10

    def test_autoregressive_order_sensitivity(self, tiny_model):
        r = np.random.default_rng(6)
        obs = r.normal(size=(4, 5))
        actions = (0, 1, 2, 3)
        swapped = (1, 0, 2, 3)
        z = ad.constant(r.normal(size=(1, 2, 3)))
        ll_a = tiny_model.action_log_likelihood(z, md.make_traj_batch([gw.Trajectory(obs, actions)]))
        ll_b = tiny_model.action_log_likelihood(z, md.make_traj_batch([gw.Trajectory(obs, swapped)]))
        assert not np.isclose(float(ll_a.value[0]), float(ll_b.value[0]))

    def test_length_mismatch_rejected(self):
        r = np.random.default_rng(7)
        with pytest.raises(ValueError, match="lengths differ"):
            gw.Trajectory(r.normal(size=(3, 5)), (0, 1))


class TestPairedLoss:
    def test_beta_zero_drops_kl(self, tiny_model):
        r = np.random.default_rng(8)
        lang = md.make_lang_batch([synth_lang(r, 3)])
        traj = md.make_traj_batch([synth_traj(r, 3)])
        hp = md.HyperParams(beta=0.0)
        terms = md.per_sample_terms(tiny_model, lang, traj, np.random.default_rng(0))
        p = paired = md.paired_loss(terms, hp)
        expected = 0.5 * (float(p["a1"].value) + float(p["c1"].value)
                          + float(p["a2"].value) + float(p["c2"].value))
        assert abs(float(paired["jbar"].value) - expected) < 1e-12

    def test_a1_definitional(self, tiny_model):
        # A_1 equals the action likelihood evaluated at the same z sample
        r = np.random.default_rng(9)
        lang = md.make_lang_batch([synth_lang(r, 3)])
        traj = md.make_traj_batch([synth_traj(r, 4)])
        hp = md.HyperParams()
        p = md.paired_loss(md.per_sample_terms(tiny_model, lang, traj, np.random.default_rng(42)), hp)
        # replay the same noise stream to rebuild z1
        rng = np.random.default_rng(42)
        m1, lv1 = tiny_model.encode_trajectory(traj)
        z1 = nn.reparameterize(m1, lv1, rng.standard_normal(m1.value.shape))
        ll = tiny_model.action_log_likelihood(z1, traj)
        assert abs(float(p["a1"].value) - float(ll.value.mean())) < 1e-12


class TestUnpairedLoss:
    def test_closed_form_kl_toy(self):
        # 1-slot 1-dim toy with q = N(0,1), p = N(1,1): B_1 = -0.5
        cfg = tiny_cfg(k_slots=1, latent_dim=1)
        m = md.MsVae(np.random.default_rng(0), cfg)
        m.traj_bottleneck.mean_head.w.value[...] = 0.0
        m.traj_bottleneck.mean_head.b.value[...] = 0.0
        m.traj_bottleneck.logvar_head.w.value[...] = 0.0
        m.traj_bottleneck.logvar_head.b.value[...] = 0.0
        m.prior.mean_head.w.value[...] = 0.0
        m.prior.mean_head.b.value[...] = 1.0
        m.prior.logvar_head.w.value[...] = 0.0
        m.prior.logvar_head.b.value[...] = 0.0
        r = np.random.default_rng(10)
        lang = md.make_lang_batch([synth_lang(r, 2)])
        traj = md.make_traj_batch([synth_traj(r, 3), synth_traj(r, 2)])  # one paired, one unpaired
        hp = md.HyperParams(beta=1.0)
        u = md.unpaired_loss(md.per_sample_terms(m, lang, traj, np.random.default_rng(0)), hp)
        assert abs(float(u["b1"].value) + 0.5) < 1e-12
        assert abs(float(u["v"].value) - (float(u["a1"].value) - 0.5)) < 1e-12

    def test_v_le_a1_with_beta_one(self, tiny_model):
        r = np.random.default_rng(11)
        lang = md.make_lang_batch([synth_lang(r, 2)])
        traj = md.make_traj_batch([synth_traj(r, 3) for _ in range(4)])  # one paired, three unpaired
        hp = md.HyperParams(beta=1.0)
        u = md.unpaired_loss(md.per_sample_terms(tiny_model, lang, traj, np.random.default_rng(0)), hp)
        assert float(u["v"].value) <= float(u["a1"].value) + 1e-12
        assert float(u["b1"].value) <= 1e-12


class TestDomainDistance:
    def test_identical_batches_zero(self):
        r = np.random.default_rng(12)
        x = ad.constant(r.normal(size=(6, 2, 3)))
        d = md.domain_distance(x, ad.constant(x.value.copy()), 10, np.random.default_rng(0))
        assert float(d.value) == 0.0

    def test_d1_matches_sorted_oracle(self):
        r = np.random.default_rng(13)
        x = r.normal(size=(8, 1, 1))
        y = r.normal(size=(8, 1, 1))
        d = md.domain_distance(ad.constant(x), ad.constant(y), 50, np.random.default_rng(1))
        oracle = np.mean((np.sort(x[:, 0, 0]) - np.sort(y[:, 0, 0])) ** 2)
        assert abs(float(d.value) - oracle) < 1e-9

    def test_translation_property(self):
        r = np.random.default_rng(14)
        x = r.normal(size=(10, 1, 1))
        c = 0.73
        d = md.domain_distance(ad.constant(x), ad.constant(x + c), 50, np.random.default_rng(2))
        assert abs(float(d.value) - c * c) < 1e-9

    def test_slots_sum(self):
        r = np.random.default_rng(15)
        x = r.normal(size=(10, 3, 1))
        c = 0.5
        d = md.domain_distance(ad.constant(x), ad.constant(x + c), 20, np.random.default_rng(3))
        assert abs(float(d.value) - 3 * c * c) < 1e-9

    def test_symmetric_nonnegative(self):
        r = np.random.default_rng(16)
        x = ad.constant(r.normal(size=(5, 2, 4)))
        y = ad.constant(r.normal(size=(5, 2, 4)))
        d_xy = md.domain_distance(x, y, 25, np.random.default_rng(7))
        d_yx = md.domain_distance(y, x, 25, np.random.default_rng(7))
        assert float(d_xy.value) >= 0.0
        assert abs(float(d_xy.value) - float(d_yx.value)) < 1e-12

    def test_unequal_batches_truncate(self):
        r = np.random.default_rng(17)
        x = ad.constant(r.normal(size=(9, 1, 2)))
        y = ad.constant(r.normal(size=(5, 1, 2)))
        d = md.domain_distance(x, y, 10, np.random.default_rng(8))
        assert np.isfinite(float(d.value))

    def test_empty_batch_rejected(self):
        x = ad.constant(np.zeros((0, 1, 2)))
        y = ad.constant(np.zeros((4, 1, 2)))
        with pytest.raises(ValueError, match="empty"):
            md.domain_distance(x, y, 5, np.random.default_rng(0))


class TestTotalLoss:
    def batches(self, seed=18):
        """(lang, its paired trajectories, those followed by unpaired ones)"""
        r = np.random.default_rng(seed)
        lang = md.make_lang_batch([synth_lang(r, 3) for _ in range(3)])
        paired = [synth_traj(r, 3) for _ in range(3)]
        unpaired = [synth_traj(r, 4) for _ in range(3)]
        return lang, md.make_traj_batch(paired), md.make_traj_batch(paired + unpaired)

    def test_paired_only_reduction(self, tiny_model):
        lang, traj, _ = self.batches()
        hp = md.HyperParams(gamma=0.0, alpha=0.0)
        loss, report = md.total_loss(tiny_model, lang, traj, hp, np.random.default_rng(0))
        p = md.paired_loss(md.per_sample_terms(tiny_model, lang, traj, np.random.default_rng(0)), hp)
        assert abs(report.total - float(p["jbar"].value)) < 1e-12
        assert report.v == 0.0 and report.dprime == 0.0

    def test_alpha_zero_reports_dprime(self, tiny_model):
        lang, _, traj = self.batches()
        hp = md.HyperParams(alpha=0.0, gamma=1.0)
        _, report = md.total_loss(tiny_model, lang, traj, hp, np.random.default_rng(0))
        assert report.dprime > 0.0
        assert abs(report.total - report.recombine(hp)) < 1e-10

    def test_accounting_identity(self, tiny_model):
        lang, _, traj = self.batches()
        hp = md.HyperParams(alpha=0.3, gamma=2.0, beta=0.5)
        loss, report = md.total_loss(tiny_model, lang, traj, hp, np.random.default_rng(0))
        assert abs(report.total - report.recombine(hp)) < 1e-10
        assert abs(float(loss.value) + report.total) < 1e-12


def test_training_step_leaves_no_cyclic_garbage():
    # with the cyclic collector off, reference counting alone must free a
    # step's graph once backward has run and the loss is dropped
    model = md.MsVae(np.random.default_rng(0), tiny_cfg())
    lang, _, traj = TestTotalLoss().batches()
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        loss, _ = md.total_loss(model, lang, traj, md.HyperParams(), np.random.default_rng(0))
        ad.backward(loss)
        del loss
        gc.collect()
        cyclic = [o for o in gc.garbage if isinstance(o, ad.Node)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if was_enabled:
            gc.enable()
    assert cyclic == []


class TestFullLossGradient:
    def test_finite_difference_on_toy_instance(self):
        # 2-token toy: every parameter gradient vs central differences; a
        # narrow observation MLP keeps the parameter count, and so the cost
        # of central differences, small
        cfg = tiny_cfg(obs_hidden=4)
        m = md.MsVae(np.random.default_rng(1), cfg)
        r = np.random.default_rng(19)
        lang = md.make_lang_batch([synth_lang(r, 2)])
        traj = md.make_traj_batch([synth_traj(r, 2), synth_traj(r, 2)])  # one paired, one unpaired
        hp = md.HyperParams(alpha=0.25, gamma=1.5, beta=0.7)

        def build():
            loss, _ = md.total_loss(m, lang, traj, hp, np.random.default_rng(7))
            return loss

        params = m.params()
        loss = build()
        ad.zero_grad(params)
        ad.backward(loss)
        worst = 0.0
        for p in params:
            num = ad.numeric_gradient(lambda: float(build().value), p.value, eps=1e-5)
            err = ad.max_rel_error(p.gradient, num)
            worst = max(worst, err)
            assert err <= 1e-4, f"{p.name}: rel err {err:.3g}"


class TestRollouts:
    def world(self):
        return gw.sample_task(5, "goto_seq")

    def real_model(self, seed=3):
        cfg = md.ModelConfig(vocab_size=22, obs_dim=gw.ego_dim(), hidden=12, word_emb=8,
                             action_emb=6, attn_dim=8, cell_dim=8, k_slots=2, latent_dim=6,
                             prior_hidden=8)
        return md.MsVae(np.random.default_rng(seed), cfg)

    def sharp_model(self):
        # sharper logits (as in test_golden_decode) make the outputs depend on the inputs
        m = self.real_model(seed=11)
        for p in m.params():
            p.value *= 3.0
        return m

    def test_greedy_follow_deterministic(self):
        m = self.real_model()
        world, task = self.world()
        tokens = [4, 5, 6]
        t1, _ = m.follow(tokens, world, max_steps=20)
        t2, _ = m.follow(tokens, world, max_steps=20)
        assert t1.actions == t2.actions

    def test_follow_respects_step_cap(self):
        m = self.real_model()
        world, _ = self.world()
        traj, states = m.follow([4, 5], world, max_steps=7)
        assert len(traj) <= 7
        assert len(states) == len(traj) + 1

    def test_speak_greedy_deterministic_in_vocab(self):
        m = self.real_model()
        world, task = self.world()
        actions = gw.oracle_solve(world, task)
        _, traj = gw.rollout(world, actions, view="ego")
        toks1, trunc1 = m.speak(traj, len_cap=12)
        toks2, _ = m.speak(traj, len_cap=12)
        assert toks1 == toks2
        assert all(0 <= t < 22 for t in toks1)

    def test_z_enters_only_through_attention(self, monkeypatch):
        # zeroing the attention context everywhere it flows makes the
        # rollout independent of the instruction
        m = self.sharp_model()
        world, _ = self.world()

        def follows():
            return [m.follow(tokens, world, max_steps=15)[0].actions for tokens in ([4, 5, 6], [9, 10, 11, 12])]

        ta, tb = follows()
        assert ta != tb
        zero_context(monkeypatch, m.act_dec)
        ta, tb = follows()
        assert ta == tb

    def test_speak_independent_of_traj_when_context_zeroed(self, monkeypatch):
        m = self.sharp_model()
        trajs = []
        for seed in (5, 6):
            world, task = gw.sample_task(seed, "goto_seq")
            trajs.append(gw.rollout(world, gw.oracle_solve(world, task), view="ego")[1])

        def speaks():
            return [m.speak(traj, len_cap=10)[0] for traj in trajs]

        sa, sb = speaks()
        assert sa != sb
        zero_context(monkeypatch, m.word_dec)
        sa, sb = speaks()
        assert sa == sb


def zero_context(monkeypatch, dec):
    """Make a decode step's attention read nothing: a zero context and no
    weights, so nothing is fed to the next step."""
    monkeypatch.setattr(dec.attn, "attend", lambda h, *_: (np.zeros((h.shape[0], dec.memory_dim)), None))


class TestInterface:
    """Every model kind defines only its decoder memory; the follower and
    speaker methods are the latent model's, written once."""

    FOLLOWER = ("follow", "follower_log_likelihood", "instruction_memory")
    SPEAKER = ("speak", "trajectory_language_score", "speaker_log_likelihood", "trajectory_memory")

    @pytest.mark.parametrize("cls,follows,speaks", [(md.MsVae, True, True), (md.BaselineFollower, True, False),
                                                    (md.BaselineSpeaker, False, True)])
    def test_each_kind_has_exactly_its_interface(self, cls, follows, speaks):
        for names, promised in ((self.FOLLOWER, follows), (self.SPEAKER, speaks)):
            for name in names:
                assert hasattr(cls, name) == promised, name
                if promised and not name.endswith("_memory"):
                    assert getattr(cls, name) is md.MsVae.__dict__[name], name

    def test_rollout_without_state_starts_from_zeros(self):
        m = TestRollouts().sharp_model()
        world, task = gw.sample_task(5, "goto_seq")
        _, traj = gw.rollout(world, gw.oracle_solve(world, task), view="ego")
        encode = gw.observe_ego
        memory, _ = m.encode_language(md.make_lang_batch([[4, 5, 6]]))
        slots, _ = m.encode_trajectory(md.make_traj_batch([traj]))
        for mode in ("greedy", "sample"):
            follows, speaks = [], []
            for h in (None, m.act_dec.gru.init_state(1)):
                arrays = m.act_dec._rollout_arrays(memory, None, h)
                follows.append(m.act_dec.rollout(world, m.obs_mlp, encode, arrays, mode,
                                                 np.random.default_rng(1), 12, {})[0].actions)
            for h in (None, m.word_dec.gru.init_state(1)):
                speaks.append(m.word_dec.rollout(slots, None, h, mode, np.random.default_rng(2), 10))
            assert follows[0] == follows[1] and speaks[0] == speaks[1]


def ego_cfg(**kw):
    base = dict(vocab_size=22, obs_dim=gw.ego_dim(), hidden=12, word_emb=8, action_emb=6,
                attn_dim=8, cell_dim=8, k_slots=2, latent_dim=6, prior_hidden=8)
    base.update(kw)
    return md.ModelConfig(**base)


INFERENCE_KINDS = ("msvae", "follower", "speaker")


class TestInference:
    """follow, speak and trajectory_language_score run the plain forward
    pass: they leave every parameter's needs_grad as they found it, and a
    rollout's steps build no graph."""

    def model(self, kind):
        m = md.build_model(kind, np.random.default_rng(4), ego_cfg())
        # a parameter the caller set to need no gradient must stay so afterwards
        next(iter(m.named_params().values())).needs_grad = False
        return m

    def oracle_traj(self, seed=5):
        world, task = gw.sample_task(seed, "goto_seq")
        return world, gw.rollout(world, gw.oracle_solve(world, task), view="ego")[1]

    def infer(self, m, mode="greedy"):
        world, traj = self.oracle_traj()
        rng = np.random.default_rng(0)
        if hasattr(m, "follow"):
            m.follow([4, 5, 6], world, mode=mode, rng=rng, max_steps=6)
        if hasattr(m, "speak"):
            m.speak(traj, mode=mode, rng=rng, len_cap=6)
            m.trajectory_language_score([traj], [4, 5, 6])

    @staticmethod
    def needs(m):
        return {name: p.needs_grad for name, p in m.named_params().items()}

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_needs_grad_restored(self, kind):
        m = self.model(kind)
        before = self.needs(m)
        assert not all(before.values()) and any(before.values())
        self.infer(m)
        assert self.needs(m) == before

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_needs_grad_restored_when_decoding_raises(self, kind):
        m = self.model(kind)
        before = self.needs(m)
        with pytest.raises(ValueError, match="unknown decoding mode"):
            self.infer(m, mode="beam")
        assert self.needs(m) == before

    @pytest.mark.parametrize("kind", INFERENCE_KINDS)
    def test_rollout_steps_build_no_node(self, kind, monkeypatch):
        # a rollout's steps run on arrays: once prepare has made the keys
        # and the feed, no Node is built until the rollout returns
        m = self.model(kind)
        built, armed = [], [False]  # built: per Node made, whether prepare had returned
        init, prepare = ad.Node.__init__, md._Decoder.prepare

        def counting_init(node, *args, **kwargs):
            built.append(armed[0])
            init(node, *args, **kwargs)

        def arming_prepare(dec, memory):
            out = prepare(dec, memory)
            armed[0] = True
            return out

        monkeypatch.setattr(ad.Node, "__init__", counting_init)
        monkeypatch.setattr(md._Decoder, "prepare", arming_prepare)
        world, traj = self.oracle_traj()
        calls = []
        if hasattr(m, "follow"):
            calls.append(lambda: m.follow([4, 5, 6], world, max_steps=6))
        if hasattr(m, "speak"):
            calls.append(lambda: m.speak(traj, len_cap=6))
        for call in calls:
            built.clear()
            armed[0] = False
            call()
            assert armed[0] and built  # the memory was encoded and prepared with nodes
            assert not any(built)

    def test_training_graph_after_inference(self):
        # inference leaves every parameter needing a gradient for the next step
        m = md.build_model("follower", np.random.default_rng(4), ego_cfg())
        self.infer(m)
        world, traj = self.oracle_traj()
        loss = ad.neg(ad.reduce_mean(m.follower_log_likelihood(md.make_lang_batch([[4, 5, 6]]),
                                                               md.make_traj_batch([traj]))))
        ad.backward(loss)
        assert all(p.grad is not None for p in m.params())


class TestScore:
    """trajectory_language_score scores a list of trajectories in one batched
    pass, one score per trajectory passed; a repeated trajectory is scored
    once and gets that score's bits."""

    TOKENS = [4, 5, 6, 7]

    @staticmethod
    def trajs():
        out = [gw.rollout(w, gw.oracle_solve(w, t), view="ego")[1]
               for w, t in (gw.sample_task(seed, "boss") for seed in range(6))]
        assert len({len(t) for t in out}) > 2  # ragged lengths
        return out

    @staticmethod
    def counting(m, monkeypatch):
        """The batch sizes of m's speaker_log_likelihood calls, as they happen."""
        rows, real = [], m.speaker_log_likelihood
        monkeypatch.setattr(m, "speaker_log_likelihood",
                            lambda traj, lang: rows.append(traj.mask.shape[0]) or real(traj, lang))
        return rows

    @pytest.mark.parametrize("kind", ("msvae", "speaker"))
    def test_batched_equals_one_element_calls(self, kind, monkeypatch):
        m = md.build_model(kind, np.random.default_rng(4), ego_cfg())
        trajs = self.trajs()
        serial = serial_language_scores(m, trajs, self.TOKENS)
        rows = self.counting(m, monkeypatch)
        batched = m.trajectory_language_score(trajs, self.TOKENS)
        assert rows == [len(trajs)] and batched.shape == (len(trajs),)
        np.testing.assert_allclose(batched, serial, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("kind", ("msvae", "speaker"))
    def test_repeat_scored_once_with_identical_bits(self, kind, monkeypatch):
        m = md.build_model(kind, np.random.default_rng(4), ego_cfg())
        a, b = self.trajs()[:2]
        twin = gw.Trajectory(a.observations.copy(), tuple(a.actions))  # equal, another object
        flipped = a.observations.copy()
        flipped[0, 0] = 1.0 - flipped[0, 0]
        seen_otherwise = gw.Trajectory(flipped, a.actions)  # same actions, other observations
        rows = self.counting(m, monkeypatch)
        scores = m.trajectory_language_score([a, b, twin, a, seen_otherwise, b], self.TOKENS)
        assert rows == [3]
        assert scores.shape == (6,)
        assert scores[0].tobytes() == scores[2].tobytes() == scores[3].tobytes()
        assert scores[1].tobytes() == scores[5].tobytes()
        assert scores[4] != scores[0]


class TestOneHotRow:
    def mlp_and_obs(self, width=3):
        mlp = md.ObsMlp(np.random.default_rng(2), gw.ego_dim(), 4, width)
        world, task = gw.sample_task(8, "boss")
        _, traj = gw.rollout(world, gw.oracle_solve(world, task), view="ego")
        return mlp, traj.observations

    def test_matches_dense_product(self):
        mlp, obs = self.mlp_and_obs(width=16)
        assert set(np.unique(obs)) == {0.0, 1.0}
        for i in range(len(obs)):
            o = obs[i : i + 1]
            np.testing.assert_allclose(mlp.one_hot_row(o), obs_mlp_dense(mlp, o).value, rtol=0, atol=1e-12)

    def test_rejects_more_than_one_row(self):
        mlp, obs = self.mlp_and_obs()
        with pytest.raises(ad.ShapeMismatch):
            mlp.one_hot_row(obs[:2])


class TestPersistence:
    def test_round_trip_preserves_behavior(self, tmp_path):
        cfg = md.ModelConfig(vocab_size=22, obs_dim=gw.ego_dim(), hidden=10, word_emb=6,
                             action_emb=4, attn_dim=6, cell_dim=6, k_slots=2, latent_dim=5,
                             prior_hidden=6)
        m = md.MsVae(np.random.default_rng(7), cfg)
        path = tmp_path / "m.bin"
        save_model(path, m, vocab_words=["a", "b"], extra={"note": "t"})
        m2, meta = md.load_model(path)
        assert meta["kind"] == "msvae" and meta["vocab_words"] == ["a", "b"]
        for name, node in m.named_params().items():
            np.testing.assert_array_equal(node.value, m2.named_params()[name].value)
        world, _ = gw.sample_task(9, "goto_seq")
        assert m.follow([4, 5], world, max_steps=10)[0].actions == m2.follow([4, 5], world, max_steps=10)[0].actions

    def test_baseline_kinds(self, tmp_path):
        cfg = tiny_cfg()
        f = md.BaselineFollower(np.random.default_rng(0), cfg, attention=False)
        save_model(tmp_path / "f.bin", f, vocab_words=[])
        f2, meta = md.load_model(tmp_path / "f.bin")
        assert meta["kind"] == "follower" and meta["attention"] is False
        assert f2.attention is False

    def test_checkpoint_with_retired_config_keys(self, tmp_path):
        # checkpoints written while input feeding could be turned off, the
        # action count was a field and the model's view was a setting carry
        # these keys in their model_config
        m = md.BaselineFollower(np.random.default_rng(0), ego_cfg())
        arrays = {k: v.value for k, v in m.named_params().items()}
        path = tmp_path / "f.bin"

        def write(**retired):
            meta = md.checkpoint_meta(m, [])
            meta["model_config"].update({"input_feed": True, "n_actions": 6, "obs_view": "ego", **retired})
            nn.save_checkpoint(path, arrays, meta)

        write()
        m2, meta = md.load_model(path)
        assert m2.cfg == m.cfg and not {"input_feed", "n_actions", "obs_view"} & set(meta["model_config"])
        for name, node in m2.named_params().items():
            np.testing.assert_array_equal(node.value, arrays[name])
        for key, value in (("input_feed", False), ("n_actions", 7), ("obs_view", "grid")):
            write(**{key: value})
            with pytest.raises(ValueError, match=f"model_config.{key}={value!r}"):
                md.load_model(path)


def _materialised_readout(readout, query, obs, t):
    """GridReadout as first written: project every cell to a key, attend over
    keys + positions, and mix the projected keys."""
    b = obs.shape[0]
    cells = obs[:, t, : readout.cell_block].reshape(b * readout.n_cells, readout.channels)
    keys = ad.reshape(readout.wc(ad.constant(cells)), (b, readout.n_cells, readout.pos.value.shape[1]))
    q = readout.wq(query)
    scores = ad.add(ad.bdot(q, keys), ad.matmul(q, ad.transpose2(readout.pos)))
    w = ad.softmax(ad.scale(scores, readout.scale), axis=-1)
    return ad.add(ad.bmix(w, keys), ad.matmul(w, readout.pos))


class TestHoistedFeatures:
    """The reassociated readout and the all-steps observation MLP against the
    formulations they replace."""

    @pytest.mark.parametrize("view", ["ego", "synthetic"])
    def test_readout_matches_materialised_keys(self, view):
        obs_dim = gw.ego_dim() if view == "ego" else 5
        cfg = tiny_cfg(obs_dim=obs_dim, cell_dim=6)
        r = np.random.default_rng(31)
        readout = md.GridReadout(r, query_dim=4, proj_dim=6, cfg=cfg)
        for p in readout.params():  # move every parameter off its initial scale
            p.value[...] = r.normal(size=p.value.shape)
        obs = r.normal(size=(3, 2, obs_dim))
        query = ad.leaf(r.normal(size=(3, 4)))
        weights = ad.constant(r.normal(size=(3, 6)))

        def run(readout_fn):
            for p in readout.params() + [query]:
                p.grad = None
            out = readout_fn()
            ad.backward(ad.reduce_sum(ad.mul(out, weights)))
            return out.value, {n: p.gradient.copy() for n, p in readout.named_params().items()}, \
                query.gradient.copy()

        fast = run(lambda: readout(query, readout.cells(obs[:, 1])))
        oracle = run(lambda: _materialised_readout(readout, query, obs, 1))
        assert ad.max_rel_error(fast[0], oracle[0]) <= 1e-12
        assert set(fast[1]) == {"wc.w", "wc.b", "pos", "wq.w", "wq.b"}
        for name in fast[1]:
            assert ad.max_rel_error(fast[1][name], oracle[1][name]) <= 1e-12, name
        assert ad.max_rel_error(fast[2], oracle[2]) <= 1e-12

    def test_obs_features_match_per_step_mlp(self):
        r = np.random.default_rng(32)
        mlp = md.ObsMlp(r, obs_dim=5, hidden=4, width=6)
        obs = r.normal(size=(3, 4, 5))
        traj = md.make_traj_batch([gw.Trajectory(o, (0,) * 4) for o in obs])
        weights = [ad.constant(r.normal(size=(3, 4))) for _ in range(4)]

        def run(feats):
            ad.zero_grad(mlp.params())
            ad.backward(ad.reduce_sum(ad.stack([ad.mul(f, w) for f, w in zip(feats, weights)])))
            return [f.value for f in feats], [p.gradient.copy() for p in mlp.params()]

        fast = run(ad.split_rows(mlp.features(traj), traj.packing.counts))
        oracle = run([obs_mlp_dense(mlp, obs[:, t, :]) for t in range(4)])
        for a, b in zip(fast[0] + fast[1], oracle[0] + oracle[1]):
            assert ad.max_rel_error(a, b) <= 1e-12

    def test_padded_obs_rows_do_not_reach_the_loss(self):
        # a batch holds no observation row for a padded step, and garbage in
        # the padded steps of its action ids changes neither the objective
        # nor any parameter gradient: in the stacked batch of the objective,
        # the unpaired rows padded to the longest paired one, and then the
        # paired rows padded to the longest unpaired one
        obs_dim = gw.ego_dim()
        m = md.MsVae(np.random.default_rng(2), tiny_cfg(obs_dim=obs_dim))
        r = np.random.default_rng(34)
        lang = md.make_lang_batch([synth_lang(r, n) for n in (2, 4, 3)])
        paired = [synth_traj(r, t, obs_dim) for t in (2, 5, 3)]
        hp = md.HyperParams(alpha=0.3, gamma=2.0)

        def run(traj):
            loss, report = md.total_loss(m, lang, traj, hp, np.random.default_rng(7))
            ad.zero_grad(m.params())
            ad.backward(loss)
            return report.total, {n: p.gradient.copy() for n, p in m.named_params().items()}

        for unpaired in ((4, 1, 2), (7, 1, 2)):
            traj = md.make_traj_batch(paired + [synth_traj(r, t, obs_dim) for t in unpaired])
            assert traj.packed_obs.shape[0] == traj.mask.sum()
            clean = run(traj)
            pad = traj.mask == 0
            assert pad[:3].any()
            noisy_ids = [np.where(pad, r.integers(0, gw.N_ACTIONS + 2, pad.shape), ids)
                         for ids in (traj.dec_in, traj.dec_tgt)]
            noisy = run(md.TrajBatch(traj.packed_obs, *noisy_ids, traj.mask))
            assert noisy[0] == clean[0]
            for name, g in clean[1].items():
                np.testing.assert_array_equal(noisy[1][name], g, err_msg=name)

    def test_obs_features_skip_padded_steps(self):
        # rows of unequal length: step t's block holds only the rows still
        # running, longest first, and padded (row, step) pairs are never
        # computed, so they contribute nothing to the MLP's gradients
        r = np.random.default_rng(33)
        mlp = md.ObsMlp(r, obs_dim=5, hidden=4, width=6)
        obs = r.normal(size=(3, 4, 5))
        lengths = (4, 1, 3)
        traj = md.make_traj_batch([gw.Trajectory(o[:n], (0,) * n) for o, n in zip(obs, lengths)])
        order, counts = traj.packing.order, traj.packing.counts
        assert order.tolist() == [0, 2, 1] and counts.tolist() == [3, 2, 2, 1]
        weights = [ad.constant(r.normal(size=(n, 4))) for n in counts]

        def run(feats):
            ad.zero_grad(mlp.params())
            ad.backward(ad.reduce_sum(ad.concat([ad.mul(f, w) for f, w in zip(feats, weights)], axis=0)))
            return [f.value for f in feats], [p.gradient.copy() for p in mlp.params()]

        fast = run(ad.split_rows(mlp.features(traj), traj.packing.counts))
        oracle = run([obs_mlp_dense(mlp, obs[order[:n], t, :]) for t, n in enumerate(counts)])
        for a, b in zip(fast[0] + fast[1], oracle[0] + oracle[1]):
            assert a.shape == b.shape
            assert ad.max_rel_error(a, b) <= 1e-12
