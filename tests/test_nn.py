import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvae import autodiff as ad
from msvae import nn
from oracles import attend


def rng_for(seed):
    return np.random.default_rng(seed)


def fd_check(params, build, tol=1e-4, eps=1e-5):
    loss = build()
    ad.zero_grad(params)
    ad.backward(loss)
    for p in params:
        num = ad.numeric_gradient(lambda: float(build().value), p.value, eps=eps)
        err = ad.max_rel_error(p.gradient, num)
        assert err <= tol, f"{p.name}: rel err {err:.3g}"


def fed(cell, step_input):
    """gru_encode's step for the inputs step_input(t) of the running rows,
    each step's multiplied by the whole input weight."""
    return lambda t, h: cell.step(cell.input_gates(step_input(t), [h.value.shape[0]])[0], h)


class TestGru:
    def test_single_step_matches_cell(self):
        r = rng_for(0)
        cell = nn.GruCell(r, 3, 4)
        x = ad.constant(r.normal(size=(2, 3)))
        hidden, final = nn.gru_encode(cell, nn.Packing(np.ones((2, 1))), fed(cell, lambda t: x))
        direct = cell.step(cell.input_gates(x, [2])[0], cell.init_state(2))
        np.testing.assert_array_equal(hidden.value[:, 0], direct.value)
        np.testing.assert_array_equal(final.value, direct.value)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            nn.Packing(np.ones((1, 0)))

    def test_order_sensitivity(self):
        r = rng_for(1)
        cell = nn.GruCell(r, 3, 4)
        xs = [ad.constant(r.normal(size=(1, 3))) for _ in range(4)]
        packing = nn.Packing(np.ones((1, 4)))
        fwd = nn.gru_encode(cell, packing, fed(cell, lambda t: xs[t]))[1].value
        rev = nn.gru_encode(cell, packing, fed(cell, lambda t: xs[3 - t]))[1].value
        assert not np.allclose(fwd, rev)

    def test_final_state_is_last_valid_state(self):
        # row 1 outlives row 0, so the packing runs it first; each row's
        # states match a run over that row alone, and past its end it has
        # zero states and no step
        r = rng_for(2)
        cell = nn.GruCell(r, 3, 4)
        xs = r.normal(size=(2, 3, 3))  # (B, T, in)
        mask = np.array([[1.0, 0.0, 0.0], [1.0, 1.0, 0.0]])
        packing = nn.Packing(mask)
        steps = packing.steps(xs)
        hidden, final = nn.gru_encode(cell, packing, fed(cell, lambda t: ad.constant(steps[t])))
        for row, length in enumerate((1, 2)):
            alone, alone_final = nn.gru_encode(cell, nn.Packing(np.ones((1, length))),
                                               fed(cell, lambda t: ad.constant(xs[row, t][None])))
            np.testing.assert_allclose(hidden.value[row, :length], alone.value[0], rtol=1e-12)
            assert not hidden.value[row, length:].any()
            np.testing.assert_allclose(final.value[row], alone_final.value[0], rtol=1e-12)

    def test_padded_steps_carry_nothing_into_a_loss(self):
        # weights on the padded (row, step) slots of the states change
        # neither the loss nor any gradient
        r = rng_for(4)
        cell = nn.GruCell(r, 3, 4)
        mask = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
        packing = nn.Packing(mask)
        xs = packing.steps(r.normal(size=(2, 3, 3)))
        w = r.normal(size=(2, 3, 4))

        def run(weights):
            ad.zero_grad(cell.params())
            hidden, _ = nn.gru_encode(cell, packing, fed(cell, lambda t: ad.constant(xs[t])))
            loss = ad.reduce_sum(ad.mul(hidden, ad.constant(weights)))
            ad.backward(loss)
            return loss.value, [p.gradient.copy() for p in cell.params()]

        full, valid = run(w), run(w * mask[:, :, None])
        assert full[0] == valid[0]
        for a, b in zip(full[1], valid[1]):
            np.testing.assert_array_equal(a, b)

    def test_gradients_through_20_step_unroll(self):
        r = rng_for(3)
        cell = nn.GruCell(r, 2, 3)
        xs_val = [r.normal(size=(1, 2)) for _ in range(20)]

        def build():
            xs = [ad.constant(v) for v in xs_val]
            h = nn.gru_encode(cell, nn.Packing(np.ones((1, 20))), fed(cell, lambda t: xs[t]))[1]
            return ad.reduce_sum(ad.mul(h, h))

        fd_check(cell.params(), build)

    def test_gradients_through_a_ragged_unroll(self):
        r = rng_for(5)
        cell = nn.GruCell(r, 2, 3)
        packing = nn.Packing((np.arange(6) < np.array([[3], [6], [1]])).astype(float))
        xs_val = packing.steps(r.normal(size=(3, 6, 2)))
        w = r.normal(size=(3, 6, 3))

        def build():
            hidden, final = nn.gru_encode(cell, packing, fed(cell, lambda t: ad.constant(xs_val[t])))
            return ad.add(ad.reduce_sum(ad.mul(hidden, ad.constant(w))), ad.reduce_sum(ad.mul(final, final)))

        fd_check(cell.params(), build)


class TestAttention:
    def test_single_key_returns_value_exactly(self):
        r = rng_for(4)
        attn = nn.KeyValueAttention(r, 4, 4, 4)
        q = ad.constant(r.normal(size=(2, 4)))
        kv = ad.constant(r.normal(size=(2, 1, 4)))
        ctx = attend(attn, q, kv, kv)
        np.testing.assert_array_equal(ctx.value, kv.value[:, 0, :])

    def test_identical_keys_uniform_weights(self):
        r = rng_for(5)
        attn = nn.KeyValueAttention(r, 4, 4, 4)
        q = ad.constant(r.normal(size=(1, 4)))
        key = r.normal(size=(4,))
        keys = ad.constant(np.tile(key, (1, 5, 1)))
        w = attn.weights(q, attn.prepare(keys), None)
        np.testing.assert_allclose(w.value, np.full((1, 5), 0.2), atol=1e-12)

    def test_dominating_score_saturates(self):
        r = rng_for(6)
        attn = nn.KeyValueAttention(r, 2, 2, 2)
        # bypass projections: identity weights, so scores are raw dots
        attn.wq.value[...] = np.eye(2)
        attn.wk.value[...] = np.eye(2)
        q = ad.constant(np.array([[1.0, 0.0]]))
        big = 50.0 * np.sqrt(2.0)  # undo the 1/sqrt(P) scale
        keys = ad.constant(np.array([[[big, 0.0], [0.0, 0.0], [0.0, 0.0]]]))
        values = ad.constant(r.normal(size=(1, 3, 2)))
        ctx = attend(attn, q, keys, values)
        assert np.max(np.abs(ctx.value - values.value[:, 0, :])) < 1e-8

    def test_weights_sum_to_one(self):
        r = rng_for(7)
        attn = nn.KeyValueAttention(r, 3, 3, 3)
        q = ad.constant(r.normal(size=(4, 3)))
        keys = ad.constant(r.normal(size=(4, 6, 3)))
        w = attn.weights(q, attn.prepare(keys), None).value
        assert (w >= 0).all()
        np.testing.assert_allclose(w.sum(axis=-1), 1.0, atol=1e-12)

    def test_dimension_mismatch_rejected(self):
        r = rng_for(8)
        attn = nn.KeyValueAttention(r, 3, 3, 3)
        q = ad.constant(r.normal(size=(2, 3)))
        keys = ad.constant(r.normal(size=(2, 5, 3)))
        values = ad.constant(r.normal(size=(2, 4, 3)))
        with pytest.raises(ad.ShapeMismatch):
            attend(attn, q, keys, values)


class TestBottleneck:
    def make(self, r, k=4, h=6, d=5):
        return nn.BottleneckAttention(r, n_slots=k, hidden_dim=h, latent_dim=d, proj_dim=h)

    def test_single_key_contexts_equal_h1(self):
        r = rng_for(9)
        bn = self.make(r)
        hidden = ad.constant(r.normal(size=(2, 1, 6)))
        contexts = bn.slot_contexts(hidden)
        np.testing.assert_array_equal(contexts.value, np.repeat(hidden.value, 4, axis=1))
        # shared heads: slot means identical for L=1
        means, logvars = bn(hidden)
        for k in range(1, 4):
            np.testing.assert_array_equal(means.value[:, k], means.value[:, 0])

    def test_paper_scale_arity(self):
        # K=4 slots of dim 128 regardless of input length
        r = rng_for(10)
        bn = nn.BottleneckAttention(r, n_slots=4, hidden_dim=16, latent_dim=128, proj_dim=16)
        for length in (5, 9):
            hidden = ad.constant(r.normal(size=(3, length, 16)))
            means, logvars = bn(hidden)
            assert means.value.shape == (3, 4, 128)
            assert logvars.value.shape == (3, 4, 128)

    def test_logvar_clamped(self):
        r = rng_for(11)
        bn = self.make(r)
        bn.logvar_head.b.value[...] = 50.0
        _, logvars = bn(ad.constant(r.normal(size=(1, 3, 6))))
        assert logvars.value.max() <= nn.LOGVAR_MAX
        assert logvars.value.min() >= nn.LOGVAR_MIN

    def test_gradient_wrt_tokens(self):
        r = rng_for(12)
        bn = nn.BottleneckAttention(r, n_slots=2, hidden_dim=4, latent_dim=3, proj_dim=4)
        hid_val = r.normal(size=(2, 3, 4))

        def build():
            means, logvars = bn(ad.constant(hid_val))
            return ad.add(ad.reduce_sum(ad.mul(means, means)), ad.reduce_sum(logvars))

        fd_check([bn.tokens], build)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=50))
def test_bottleneck_arity_constant_over_length(length):
    r = rng_for(13)
    bn = nn.BottleneckAttention(r, n_slots=3, hidden_dim=5, latent_dim=4, proj_dim=5)
    means, logvars = bn(ad.constant(r.normal(size=(2, length, 5))))
    assert means.value.shape == (2, 3, 4)
    assert logvars.value.shape == (2, 3, 4)


class TestPrior:
    def test_single_slot_uses_start_token_only(self):
        r = rng_for(14)
        prior = nn.AutoregressivePrior(r, latent_dim=3, hidden_dim=5)
        z_a = ad.constant(r.normal(size=(2, 1, 3)))
        z_b = ad.constant(r.normal(size=(2, 1, 3)))
        ma, _ = nn.prior_log_density_params(prior, z_a)
        mb, _ = nn.prior_log_density_params(prior, z_b)
        np.testing.assert_array_equal(ma.value, mb.value)

    def test_causality(self):
        r = rng_for(15)
        k, d = 5, 3
        prior = nn.AutoregressivePrior(r, latent_dim=d, hidden_dim=6)
        base = r.normal(size=(1, k, d))
        perturbed = base.copy()
        perturbed[0, 2, :] += 0.37  # z_3 in 1-based slot numbering
        m0, lv0 = nn.prior_log_density_params(prior, ad.constant(base))
        m1, lv1 = nn.prior_log_density_params(prior, ad.constant(perturbed))
        for slot in range(k):
            same = np.array_equal(m0.value[:, slot], m1.value[:, slot])
            assert same == (slot <= 2), f"slot {slot}"

    def test_causality_finite_difference(self):
        # d params(slot k) / d z_j == 0 for j >= k
        r = rng_for(16)
        k, d = 3, 2
        prior = nn.AutoregressivePrior(r, latent_dim=d, hidden_dim=4)
        z = ad.leaf(r.normal(size=(1, k, d)), name="z")
        for slot in range(k):
            means, _ = nn.prior_log_density_params(prior, z)
            ad.zero_grad([z])
            ad.backward(ad.reduce_sum(ad.narrow(means, 1, slot, 1)))
            g = z.gradient
            assert np.all(g[:, slot:, :] == 0.0), f"slot {slot} leaks forward"
            if slot > 0:
                assert np.any(g[:, :slot, :] != 0.0)

    def test_kl_to_posterior_nonnegative(self):
        r = rng_for(17)
        prior = nn.AutoregressivePrior(r, latent_dim=3, hidden_dim=4)
        for _ in range(10):
            q_mean = ad.constant(r.normal(size=(2, 4, 3)))
            q_logvar = ad.constant(r.normal(size=(2, 4, 3)) * 0.5)
            z = nn.reparameterize(q_mean, q_logvar, r.standard_normal((2, 4, 3)))
            pm, plv = nn.prior_log_density_params(prior, z)
            kl = nn.gaussian_kl_per_sample(q_mean, q_logvar, pm, plv)
            assert np.all(kl.value >= 0.0)


def sample_kl(q_mean, q_logvar, p_mean, p_logvar) -> float:
    """gaussian_kl_per_sample of one sample holding each input's entries."""
    args = [ad.constant(np.reshape(a, (1, 1, -1))) for a in (q_mean, q_logvar, p_mean, p_logvar)]
    return float(nn.gaussian_kl_per_sample(*args).value[0])


class TestGaussianKl:
    def test_equal_is_zero(self):
        r = rng_for(18)
        m = r.normal(size=(2, 3))
        lv = r.normal(size=(2, 3))
        assert sample_kl(m, lv, m.copy(), lv.copy()) == 0.0

    def test_unit_shift_half(self):
        kl = sample_kl(np.zeros(1), np.zeros(1), np.ones(1), np.zeros(1))
        assert abs(kl - 0.5) < 1e-12

    def test_matches_monte_carlo(self):
        r = rng_for(19)
        qm, qlv = r.normal(size=3), r.normal(size=3) * 0.3
        pm, plv = r.normal(size=3), r.normal(size=3) * 0.3
        kl = sample_kl(qm, qlv, pm, plv)
        n = 10**5
        z = qm + np.exp(qlv / 2) * r.standard_normal((n, 3))

        def logpdf(x, m, lv):
            return (-0.5 * (np.log(2 * np.pi) + lv + (x - m) ** 2 / np.exp(lv))).sum(axis=1)

        diffs = logpdf(z, qm, qlv) - logpdf(z, pm, plv)
        se = diffs.std(ddof=1) / np.sqrt(n)
        assert abs(diffs.mean() - kl) < 3 * se

    def test_nonnegative_random(self):
        r = rng_for(20)
        for _ in range(50):
            qm, qlv = r.normal(size=4), r.normal(size=4)
            pm, plv = r.normal(size=4), r.normal(size=4)
            kl = sample_kl(qm, qlv, pm, plv)
            assert kl >= -1e-12


class TestReparameterize:
    def test_zero_noise_returns_mean(self):
        r = rng_for(21)
        m = r.normal(size=(2, 3))
        z = nn.reparameterize(ad.constant(m), ad.constant(r.normal(size=(2, 3))), np.zeros((2, 3)))
        np.testing.assert_array_equal(z.value, m)

    def test_clamped_logvar_vanishing_variance(self):
        r = rng_for(22)
        m = r.normal(size=(2, 3))
        noise = r.standard_normal((2, 3))
        z = nn.reparameterize(ad.constant(m), ad.constant(np.full((2, 3), nn.LOGVAR_MIN)), noise)
        assert np.all(np.abs(z.value - m) <= np.exp(-4.0) * np.abs(noise) + 1e-15)

    def test_law_of_large_numbers(self):
        r = rng_for(23)
        mean, lv = 0.7, -0.4
        n = 10**5
        noise = r.standard_normal((n, 1))
        z = nn.reparameterize(ad.constant(np.full((n, 1), mean)), ad.constant(np.full((n, 1), lv)), noise)
        sigma = np.exp(lv / 2)
        assert abs(z.value.mean() - mean) < 3 * sigma / np.sqrt(n)


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        r = rng_for(24)
        arrays = {
            "enc.w": r.normal(size=(7, 3)),
            "enc.b": r.normal(size=(3,)),
            "scalarish": r.normal(size=(1,)) * 1e-17,
        }
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, arrays, meta={"kind": "test", "epoch": 3})
        loaded, meta = nn.load_checkpoint(path)
        assert meta == {"kind": "test", "epoch": 3}
        assert set(loaded) == set(arrays)
        for k in arrays:
            np.testing.assert_array_equal(loaded[k], arrays[k])

    def test_layer_load_values(self):
        r = rng_for(25)
        lin = nn.Linear(r, 3, 2)
        vals = {"w": np.ones((3, 2)), "b": np.full(2, 0.5)}
        lin.load_values(vals)
        np.testing.assert_array_equal(lin.w.value, np.ones((3, 2)))
        with pytest.raises(ValueError, match="shape"):
            lin.load_values({"w": np.ones((2, 2))})

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.bin"
        p.write_bytes(b"not a checkpoint")
        with pytest.raises(ValueError, match="not a checkpoint"):
            nn.load_checkpoint(p)

    def test_truncated_file_names_byte_counts(self, tmp_path):
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, {"w": np.ones((4, 3)), "b": np.zeros(3)}, meta={"epoch": 1})
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError, match=r"model\.bin.*holds 112 bytes, header expects 120"):
            nn.load_checkpoint(path)
        path.write_bytes(data[:20])
        with pytest.raises(ValueError, match="truncated checkpoint header"):
            nn.load_checkpoint(path)

    def test_save_replaces_without_leftovers(self, tmp_path):
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, {"w": np.ones(2)})
        nn.save_checkpoint(path, {"w": np.full(2, 3.0)})
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        np.testing.assert_array_equal(nn.load_checkpoint(path)[0]["w"], np.full(2, 3.0))

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        nn.save_checkpoint(path, {"w": np.ones(2)})

        def crash(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(nn.os, "replace", crash)
        with pytest.raises(OSError, match="disk full"):
            nn.save_checkpoint(path, {"w": np.zeros(2)})
        monkeypatch.undo()
        assert [p.name for p in tmp_path.iterdir()] == ["model.bin"]
        np.testing.assert_array_equal(nn.load_checkpoint(path)[0]["w"], np.ones(2))
