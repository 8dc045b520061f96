import gc
import json
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from msvae import autodiff as ad, corpus, gridworld as gw, metrics, model as md, nn, pipelines as pl
from oracles import oracle_speak_fn, serial_language_scores, uncached_follow


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corp")
    corpus.generate(root, seed=21, difficulty="boss", m=40, n=50, val_tasks=12, test_tasks=12)
    return corpus.load(root)


def small_cfg(seed=0, **kw):
    base = dict(
        seed=seed, epochs=2, iters_per_epoch=4, paired_batch=8, unpaired_batch=8,
        eval_tasks=6, eval_every=1,
        model=md.ModelConfig(hidden=24, word_emb=12, action_emb=8, attn_dim=16, prior_hidden=16,
                             k_slots=2, latent_dim=16),
    )
    base.update(kw)
    return pl.TrainConfig(**base)


def read_metrics(out):
    return (Path(out) / "metrics.csv").read_text().splitlines()


class TestSupervisedFollower:
    def test_smoke_loss_decreases(self, small_corpus, tmp_path):
        # 1 epoch on a small set: objective improves from first to last iteration
        cfg = small_cfg(epochs=1, iters_per_epoch=10)
        ck, rec = pl.train_supervised_follower(cfg, small_corpus, tmp_path / "run")
        rows = read_metrics(tmp_path / "run")[1:]
        first = float(rows[0].split(",")[-1])
        last = float(rows[-1].split(",")[-1])
        assert last > first  # maximized objective
        assert ck.exists()

    def test_identical_seeds_identical_records(self, small_corpus, tmp_path):
        cfg = small_cfg(seed=5)
        _, r1 = pl.train_supervised_follower(cfg, small_corpus, tmp_path / "a")
        _, r2 = pl.train_supervised_follower(small_cfg(seed=5), small_corpus, tmp_path / "b")
        assert r1.entries == r2.entries
        assert read_metrics(tmp_path / "a") == read_metrics(tmp_path / "b")

    def test_metrics_accounting_identity(self, small_corpus, tmp_path):
        cfg = small_cfg()
        pl.train_supervised_follower(cfg, small_corpus, tmp_path / "run")
        rows = read_metrics(tmp_path / "run")
        header = rows[0].split(",")
        for line in rows[1:]:
            vals = dict(zip(header, map(float, line.split(","))))
            rep = md.LossReport(**{f: vals[f] for f in md.LossReport.FIELDS})
            assert abs(rep.total - rep.recombine(cfg.hp)) < 1e-10

    def test_arch_variants_build(self, small_corpus, tmp_path):
        for variant in ("attention", "no_attention", "bottleneck"):
            cfg = small_cfg(epochs=1, iters_per_epoch=2, arch_variant=variant)
            ck, _ = pl.train_supervised_follower(cfg, small_corpus, tmp_path / variant)
            model, meta = md.load_model(ck)
            assert meta["pipeline"] == "supervised-follower"

    def test_run_dir_layout(self, small_corpus, tmp_path):
        cfg = small_cfg()
        pl.train_supervised_follower(cfg, small_corpus, tmp_path / "run")
        out = tmp_path / "run"
        assert (out / "config.json").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "runrecord.json").exists()
        assert (out / "checkpoints" / "best.bin").exists()
        states = list((out / "checkpoints").glob("epoch_*.bin"))
        assert len(states) == 1  # only the last full state is kept
        doc = json.loads((out / "config.json").read_text())
        assert doc["train"]["seed"] == cfg.seed


class TestSupervisedSpeaker:
    def test_bleu_improves_over_epoch_zero(self, small_corpus, tmp_path):
        cfg = small_cfg(epochs=4, iters_per_epoch=25, eval_tasks=12)
        ck, rec = pl.train_supervised_speaker(cfg, small_corpus, tmp_path / "spk")
        bleus = [e["bleu"] for e in rec.entries]
        assert bleus[-1] > bleus[0] or max(bleus) > bleus[0]
        assert rec.metric_name == "bleu"

    def test_greedy_output_deterministic(self, small_corpus, tmp_path):
        cfg = small_cfg(epochs=1, iters_per_epoch=2)
        ck, _ = pl.train_supervised_speaker(cfg, small_corpus, tmp_path / "spk")
        model, _ = md.load_model(ck)
        traj = small_corpus.trajectory(small_corpus.val[0], md.OBS_VIEW)
        assert model.speak(traj) == model.speak(traj)


class TestMsVae:
    def test_smoke_and_report_fields(self, small_corpus, tmp_path):
        cfg = small_cfg()
        ck, rec = pl.train_msvae(cfg, small_corpus, tmp_path / "mv")
        rows = read_metrics(tmp_path / "mv")
        assert rows[0] == "step,a1,a2,b1,b2,c1,c2,v,dprime,total"
        vals = rows[1].split(",")
        assert len(vals) == 10
        # unpaired and domain terms are live
        header = rows[0].split(",")
        rec0 = dict(zip(header, map(float, vals)))
        assert rec0["v"] != 0.0 and rec0["dprime"] > 0.0

    def test_paired_only_ablation_row(self, small_corpus, tmp_path):
        # gamma=0, alpha=0 run: no unpaired batch is consumed
        cfg = small_cfg(hp=md.HyperParams(gamma=0.0, alpha=0.0),
                        unpaired_batch=0)
        pl.train_msvae(cfg, small_corpus, tmp_path / "mv0")
        rows = read_metrics(tmp_path / "mv0")
        header = rows[0].split(",")
        for line in rows[1:]:
            vals = dict(zip(header, map(float, line.split(","))))
            assert vals["v"] == 0.0 and vals["dprime"] == 0.0

    def test_determinism_metrics_bytes(self, small_corpus, tmp_path):
        cfg = small_cfg(seed=9)
        pl.train_msvae(cfg, small_corpus, tmp_path / "m1")
        pl.train_msvae(small_cfg(seed=9), small_corpus, tmp_path / "m2")
        b1 = (tmp_path / "m1" / "metrics.csv").read_bytes()
        b2 = (tmp_path / "m2" / "metrics.csv").read_bytes()
        assert b1 == b2

    def test_resume_reproduces_uninterrupted_run(self, small_corpus, tmp_path):
        full_cfg = small_cfg(seed=3, epochs=4, iters_per_epoch=3)
        pl.train_msvae(full_cfg, small_corpus, tmp_path / "full")
        short_cfg = small_cfg(seed=3, epochs=2, iters_per_epoch=3)
        pl.train_msvae(short_cfg, small_corpus, tmp_path / "part")
        state = next((tmp_path / "part" / "checkpoints").glob("epoch_*.bin"))
        resumed_cfg = small_cfg(seed=3, epochs=4, iters_per_epoch=3)
        pl.train_msvae(resumed_cfg, small_corpus, tmp_path / "part", resume_from=state)
        assert read_metrics(tmp_path / "part") == read_metrics(tmp_path / "full")

    def test_resume_from_checkpoint_with_retired_eval_stream(self, small_corpus, tmp_path):
        # epoch checkpoints used to carry the state of an unused "eval" rng
        # stream and no record of the train settings; those files still
        # resume, and exactly
        cfg = small_cfg(seed=3, epochs=4, iters_per_epoch=3)
        pl.train_msvae(cfg, small_corpus, tmp_path / "full")
        pl.train_msvae(replace(cfg, epochs=2), small_corpus, tmp_path / "part")
        state = tmp_path / "part" / "checkpoints" / "epoch_0001.bin"
        arrays, meta = nn.load_checkpoint(state)
        assert "eval" not in meta["rng_states"]
        meta["rng_states"]["eval"] = np.random.default_rng([cfg.seed, 2]).bit_generator.state
        del meta["train"]
        nn.save_checkpoint(state, arrays, meta)
        pl.train_msvae(cfg, small_corpus, tmp_path / "part", resume_from=state)
        for name in ("metrics.csv", "checkpoints/best.bin"):
            assert (tmp_path / "part" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name

    def test_resume_after_crash_mid_epoch(self, small_corpus, tmp_path, monkeypatch):
        cfg = small_cfg(seed=3, epochs=4, iters_per_epoch=3)
        pl.train_msvae(cfg, small_corpus, tmp_path / "full")
        real_loss, calls = md.total_loss, []

        def crash_in_third_epoch(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2 * cfg.iters_per_epoch + 2:
                raise RuntimeError("crash")
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(md, "total_loss", crash_in_third_epoch)
        with pytest.raises(RuntimeError, match="crash"):
            pl.train_msvae(cfg, small_corpus, tmp_path / "part")
        gc.collect()  # the crashed run's logs are closed, as at process exit
        monkeypatch.setattr(md, "total_loss", real_loss)
        state = tmp_path / "part" / "checkpoints" / "epoch_0001.bin"
        pl.train_msvae(cfg, small_corpus, tmp_path / "part", resume_from=state)
        for name in ("metrics.csv", "checkpoints/best.bin"):
            assert (tmp_path / "part" / name).read_bytes() == (tmp_path / "full" / name).read_bytes(), name
        steps = [int(r.split(",")[0]) for r in (tmp_path / "part" / "timing.csv").read_text().splitlines()[1:]]
        assert steps == list(range(1, 13))

    def test_resume_into_new_dir_writes_headers(self, small_corpus, tmp_path):
        cfg = small_cfg(seed=3, iters_per_epoch=3)
        pl.train_msvae(cfg, small_corpus, tmp_path / "full")
        pl.train_msvae(replace(cfg, epochs=1), small_corpus, tmp_path / "first")
        state = tmp_path / "first" / "checkpoints" / "epoch_0000.bin"
        pl.train_msvae(cfg, small_corpus, tmp_path / "new", resume_from=state)
        full = read_metrics(tmp_path / "full")
        assert read_metrics(tmp_path / "new") == full[:1] + full[1 + cfg.iters_per_epoch:]
        timing = (tmp_path / "new" / "timing.csv").read_text().splitlines()
        assert timing[0] == "step,seconds"
        assert [int(r.split(",")[0]) for r in timing[1:]] == [4, 5, 6]

    def test_resume_after_crash_keeps_seconds_non_decreasing(self, small_corpus, tmp_path, monkeypatch):
        cfg = small_cfg(seed=3, epochs=3, iters_per_epoch=3)
        real_loss, calls = md.total_loss, []

        def crash_in_third_epoch(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2 * cfg.iters_per_epoch + 2:
                raise RuntimeError("crash")
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(md, "total_loss", crash_in_third_epoch)
        with pytest.raises(RuntimeError, match="crash"):
            pl.train_msvae(cfg, small_corpus, tmp_path / "run")
        gc.collect()  # the crashed run's logs are closed, as at process exit
        monkeypatch.setattr(md, "total_loss", real_loss)
        state = tmp_path / "run" / "checkpoints" / "epoch_0001.bin"
        pl.train_msvae(cfg, small_corpus, tmp_path / "run", resume_from=state)
        rows = [r.split(",") for r in (tmp_path / "run" / "timing.csv").read_text().splitlines()[1:]]
        assert [int(step) for step, _ in rows] == list(range(1, 10))
        seconds = [float(s) for _, s in rows]
        assert seconds == sorted(seconds)

    def test_log_rewrite_that_fails_partway_keeps_every_row(self, tmp_path, monkeypatch):
        log = tmp_path / "metrics.csv"
        text = "step,loss\n" + "".join(f"{step},{step / 10}\n" for step in range(1, 7))
        log.write_text(text)
        write_text = Path.write_text

        def out_of_space_partway(path, data, *args, **kwargs):
            write_text(path, data[: len(data) // 2], *args, **kwargs)
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(Path, "write_text", out_of_space_partway)
        with pytest.raises(OSError, match="No space"):
            pl._truncate_steps(log, 3)
        assert log.read_text() == text
        assert [p.name for p in tmp_path.iterdir()] == ["metrics.csv"]

    def test_warm_start_speeds_convergence(self, small_corpus, tmp_path):
        # warm start begins at the supervised follower; reaching its SR takes
        # fewer epochs than from scratch (deterministic under fixed seeds)
        sup_cfg = small_cfg(seed=1, epochs=3, iters_per_epoch=30, eval_tasks=12)
        sup_ck, sup_rec = pl.train_supervised_follower(sup_cfg, small_corpus, tmp_path / "sup")
        target = max(e["sr"] for e in sup_rec.entries)
        if target == 0.0:
            pytest.skip("supervised baseline learned nothing at smoke scale")

        def epochs_to_reach(rec):
            for e in rec.entries:
                if e["sr"] >= target:
                    return e["epoch"]
            return 10**9

        warm_cfg = small_cfg(seed=1, epochs=3, iters_per_epoch=10, eval_tasks=12,
                             pretrain_follower=str(sup_ck))
        _, warm_rec = pl.train_msvae(warm_cfg, small_corpus, tmp_path / "warm")
        cold_cfg = small_cfg(seed=1, epochs=3, iters_per_epoch=10, eval_tasks=12)
        _, cold_rec = pl.train_msvae(cold_cfg, small_corpus, tmp_path / "cold")
        assert epochs_to_reach(warm_rec) <= epochs_to_reach(cold_rec)

    def test_warm_start_copies_tensors(self, small_corpus, tmp_path):
        cfg = small_cfg(seed=2, epochs=1, iters_per_epoch=2)
        sup_ck, _ = pl.train_supervised_follower(cfg, small_corpus, tmp_path / "sup")
        mcfg = cfg.model_config(len(small_corpus.vocab))
        model = md.MsVae(np.random.default_rng(0), mcfg)
        copied = pl.warm_start(model, sup_ck)
        assert any(n.startswith("lang_enc.") for n in copied)
        assert any(n.startswith("act_dec.gru") for n in copied)
        # decoder attention keys read latent slots, so shapes differ and skip
        assert not any(n.startswith("act_dec.attn.wk") for n in copied)
        base, _ = md.load_model(sup_ck)
        np.testing.assert_array_equal(model.lang_enc.gru.w.value, base.lang_enc.gru.w.value)


def test_skipped_step_frees_its_graph_before_the_next_forward(small_corpus, tmp_path):
    # a non-finite loss skips backward, which would otherwise release the graph
    cfg = small_cfg(epochs=1, iters_per_epoch=3)
    mcfg = cfg.model_config(len(small_corpus.vocab))
    graphs = []

    def step_loss(model, batch_rng, loss_rng):
        assert all(ref() is None for ref in graphs)
        w = model.params()[0]
        square = ad.mul(w, w)
        graphs.append(weakref.ref(square.value))
        return ad.reduce_sum(square), pl._zero_report(float("nan"), "c2")

    run = pl._Run(cfg, small_corpus, tmp_path / "run", "supervised-follower",
                  lambda rng: md.BaselineFollower(rng, mcfg))
    before = {k: v.value.copy() for k, v in run.model.named_params().items()}
    run.fit(step_loss, lambda model: (0.0, 0.0), "sr")
    assert run.skips == 3 and len(graphs) == 3
    for name, node in run.model.named_params().items():
        np.testing.assert_array_equal(node.value, before[name])


class TestAugment:
    def test_oracle_speaker_reproduces_references(self, small_corpus, tmp_path):
        path = tmp_path / "pseudo.jsonl"
        records = pl.augment(oracle_speak_fn(), small_corpus, path, "oracle")
        assert len(records) == len(small_corpus.unpaired)
        assert corpus.read_split(path)[1] == records
        for rec in records:
            _, task = small_corpus.rebuild(rec)
            assert rec["tokens"] == small_corpus.vocab.tokenize(gw.render_instruction(task))
            assert rec["pseudo"] is True and rec["truncated"] is False

    def test_empty_unpaired_warns_and_writes_empty(self, tmp_path, caplog):
        root = tmp_path / "c"
        corpus.generate(root, seed=3, difficulty="goto_seq", m=3, n=0, val_tasks=2, test_tasks=2)
        c = corpus.load(root)
        with caplog.at_level("WARNING"):
            records = pl.augment(oracle_speak_fn(), c, tmp_path / "p.jsonl", "oracle")
        assert records == []
        assert corpus.read_split(tmp_path / "p.jsonl")[1] == []
        assert any("empty" in r.message for r in caplog.records)

    def test_len_cap_respected(self, small_corpus, tmp_path):
        cfg = small_cfg(epochs=1, iters_per_epoch=2)
        ck, _ = pl.train_supervised_speaker(cfg, small_corpus, tmp_path / "spk")
        model, _ = md.load_model(ck)
        path = tmp_path / "pseudo.jsonl"
        records = pl.augment(pl.model_speak_fn(model, len_cap=5), small_corpus, path, "speaker")
        assert corpus.read_split(path)[1] == records
        for rec in records:
            assert len(rec["tokens"]) <= 5
            if len(rec["tokens"]) == 5:
                assert rec["truncated"] in (True, False)


class TestSpeakerFollower:
    def test_pipeline_runs_and_mixes_real_pairs(self, small_corpus, tmp_path, monkeypatch, caplog):
        # the speaker stage trains in the run directory; the stub speaker says
        # nothing for the first unpaired record, which must be dropped
        silent = small_corpus.unpaired[0]["seed"]

        def speak_fn(model):
            oracle = oracle_speak_fn()
            return lambda c, rec: ([], False) if rec["seed"] == silent else oracle(c, rec)

        trained_on, train_follower = [], pl.train_supervised_follower

        def follower(*args, records, **kw):
            trained_on.extend(records)
            return train_follower(*args, records=records, **kw)

        monkeypatch.setattr(pl, "model_speak_fn", speak_fn)
        monkeypatch.setattr(pl, "train_supervised_follower", follower)
        with caplog.at_level("WARNING"):
            ck, rec = pl.train_speaker_follower(small_cfg(epochs=1, iters_per_epoch=3), small_corpus,
                                                tmp_path / "sf")
        assert (tmp_path / "sf" / "speaker_stage" / "checkpoints" / "best.bin").exists()
        header, pseudo = corpus.read_split(tmp_path / "sf" / "pseudo_paired.jsonl")
        assert header["speaker"] == "speaker" and len(pseudo) == len(small_corpus.unpaired)
        usable = [r for r in pseudo if r["seed"] != silent]
        assert len(usable) == len(pseudo) - 1 and all(r["tokens"] for r in usable)
        assert trained_on == usable + small_corpus.paired
        assert any("dropped 1 empty pseudo instructions" in r.message for r in caplog.records)
        model, meta = md.load_model(ck)
        assert meta["kind"] == "follower"

    def test_follower_checkpoint_cannot_speak(self, small_corpus, tmp_path):
        cfg = small_cfg(epochs=1, iters_per_epoch=2)
        fol_ck, _ = pl.train_supervised_follower(cfg, small_corpus, tmp_path / "fol")
        with pytest.raises(ValueError, match="cannot speak"):
            pl.train_speaker_follower(cfg, small_corpus, tmp_path / "sf2", fol_ck)


@pytest.fixture(scope="module")
def pair(small_corpus, tmp_path_factory):
    out = tmp_path_factory.mktemp("prag")
    cfg = small_cfg(epochs=1, iters_per_epoch=4)
    fol_ck, _ = pl.train_supervised_follower(cfg, small_corpus, out / "fol")
    mv_ck, _ = pl.train_msvae(small_cfg(epochs=1, iters_per_epoch=4), small_corpus, out / "mv")
    follower, _ = md.load_model(fol_ck)
    speaker, _ = md.load_model(mv_ck)
    return follower, speaker


class TestPragmatic:

    def test_zero_candidates_equals_greedy(self, small_corpus, pair):
        follower, speaker = pair
        rec = small_corpus.test[0]
        world, _ = small_corpus.rebuild(rec)
        greedy, _ = follower.follow(rec["tokens"], world, max_steps=20)
        prag, _ = pl.pragmatic_infer(follower, speaker, rec["tokens"], world, 0,
                                     np.random.default_rng(0), max_steps=20)
        assert prag.actions == greedy.actions

    def test_zero_candidates_needs_no_speaker(self, small_corpus, pair):
        follower, _ = pair
        prag = pl.evaluate_pragmatic(follower, None, small_corpus, small_corpus.test, 0,
                                     np.random.default_rng(0))
        assert prag.outcomes == pl.evaluate_follower(follower, small_corpus, small_corpus.test).outcomes

    def test_returns_argmax_candidate(self, small_corpus, pair):
        follower, speaker = pair
        rec = small_corpus.test[1]
        world, _ = small_corpus.rebuild(rec)
        rng = np.random.default_rng(4)
        cands, scores = pl.pragmatic_candidates(follower, speaker, rec["tokens"], world, 5, rng, 20)
        chosen, _ = pl.pragmatic_infer(follower, speaker, rec["tokens"], world, 5,
                                       np.random.default_rng(4), 20)
        assert chosen.actions == cands[int(np.argmax(scores))][0].actions
        assert max(scores) == scores[int(np.argmax(scores))]

    def test_same_view_reuses_follower_observations(self, small_corpus, pair, monkeypatch):
        follower, speaker = pair
        rec = small_corpus.test[1]
        world, _ = small_corpus.rebuild(rec)
        calls = []
        real_score = speaker.trajectory_language_score
        monkeypatch.setattr(speaker, "trajectory_language_score",
                            lambda trajs, tokens: calls.append(list(trajs)) or real_score(trajs, tokens))
        observe, dim, *rest = gw.OBS_VIEWS["ego"]
        observed = []
        monkeypatch.setitem(gw.OBS_VIEWS, "ego", (lambda ws: observed.append(len(ws)) or observe(ws), dim, *rest))
        cands, scores = pl.pragmatic_candidates(follower, speaker, rec["tokens"], world, 4,
                                                np.random.default_rng(4), 20)
        # the speaker scores the follower's own trajectories; the only encoder
        # calls are the follower's, one per distinct world its steps acted in
        [seen] = calls
        assert [id(t) for t, _ in cands if t.actions] == [id(t) for t in seen]
        assert observed == [1] * len({s for t, states in cands for s in states[: len(t.actions)]})
        moved = [i for i, (t, _) in enumerate(cands) if t.actions]
        again = [gw.Trajectory(np.stack([observe([s])[0] for s in cands[i][1][:-1]]), cands[i][0].actions)
                 for i in moved]
        np.testing.assert_array_equal(scores[moved], real_score(again, rec["tokens"]))


class ScriptedFollower:
    """A follower whose follow calls return the given (trajectory, states)
    pairs in turn."""

    def __init__(self, candidates):
        self.candidates = iter(candidates)

    def follow(self, tokens, world, mode="greedy", rng=None, max_steps=64, cache=None):
        return next(self.candidates)


def oracle_candidate(seed):
    world, task = gw.sample_task(seed, "boss")
    return gw.rollout(world, gw.oracle_solve(world, task), view="ego")[::-1]


class TestPragmaticScoring:
    """Each episode's candidates are scored by one batched call; the
    speaker's batch holds each distinct trajectory once."""

    def test_one_call_gets_every_moved_candidate_in_order(self, small_corpus, pair, monkeypatch):
        _, speaker = pair
        rec = small_corpus.test[1]
        world, _ = small_corpus.rebuild(rec)
        a, b, c = (oracle_candidate(seed) for seed in (1, 2, 3))
        empty = (gw.Trajectory(np.zeros((0, gw.ego_dim())), ()), [world])
        cands = [a, empty, b, a, c, empty]
        calls, real_score = [], speaker.trajectory_language_score
        monkeypatch.setattr(speaker, "trajectory_language_score",
                            lambda trajs, tokens: calls.append(list(trajs)) or real_score(trajs, tokens))
        got, scores = pl.pragmatic_candidates(ScriptedFollower(cands), speaker, rec["tokens"],
                                              world, len(cands) - 1, np.random.default_rng(0), 20)
        assert got == cands
        [seen] = calls
        assert [id(t) for t in seen] == [id(t) for t, _ in (a, b, a, c)]
        assert scores.shape == (6,) and scores[1] == scores[5] == -np.inf
        assert np.isfinite(scores[[0, 2, 3, 4]]).all()

    def test_no_moved_candidate_makes_no_call(self, small_corpus, pair, monkeypatch):
        _, speaker = pair
        rec = small_corpus.test[1]
        world, _ = small_corpus.rebuild(rec)
        cands = [(gw.Trajectory(np.zeros((0, gw.ego_dim())), ()), [world]) for _ in range(3)]
        monkeypatch.setattr(speaker, "trajectory_language_score", None)  # calling it would raise
        chosen = pl.pragmatic_infer(ScriptedFollower(cands), speaker, rec["tokens"], world, 2,
                                    np.random.default_rng(0), 20)
        assert chosen[0] is cands[0][0]

    def test_repeated_candidate_scored_once_and_first_kept(self, small_corpus, pair, monkeypatch):
        _, speaker = pair
        rec = small_corpus.test[1]
        world, _ = small_corpus.rebuild(rec)
        a, b = oracle_candidate(1), oracle_candidate(2)
        lo, hi = sorted((a, b), key=lambda c: speaker.trajectory_language_score([c[0]], rec["tokens"])[0])

        def twin():  # equal to hi, another object
            return gw.Trajectory(hi[0].observations.copy(), hi[0].actions), hi[1]

        cands = [lo, hi, twin(), lo, twin()]
        rows, real = [], speaker.speaker_log_likelihood
        monkeypatch.setattr(speaker, "speaker_log_likelihood",
                            lambda traj, lang: rows.append(traj.mask.shape[0]) or real(traj, lang))
        _, scores = pl.pragmatic_candidates(ScriptedFollower(cands), speaker, rec["tokens"],
                                            world, 4, np.random.default_rng(0), 20)
        assert rows == [2]
        assert scores[1].tobytes() == scores[2].tobytes() == scores[4].tobytes() and scores[1] > scores[0]
        chosen = pl.pragmatic_infer(ScriptedFollower(cands), speaker, rec["tokens"], world, 4,
                                    np.random.default_rng(0), 20)
        assert chosen is cands[1]


@pytest.fixture(scope="module")
def gate_b_corpus(tmp_path_factory):
    """A boss corpus of tools/gate_b.py's sizes: m=24, n=24, 8 val and 8 test tasks."""
    root = tmp_path_factory.mktemp("gateb")
    corpus.generate(root, seed=0, difficulty="boss", m=24, n=24, val_tasks=8, test_tasks=8)
    return corpus.load(root)


@pytest.mark.parametrize("kinds", [("msvae", "msvae"), ("follower", "speaker")])
def test_batched_scoring_picks_as_serial_scoring(gate_b_corpus, kinds, monkeypatch):
    """pragmatic_infer picks the same candidate whether the speaker scores
    them in one batched pass or one one-element call each."""
    mcfg = small_cfg().model_config(len(gate_b_corpus.vocab))
    models = {kind: md.build_model(kind, np.random.default_rng(3), mcfg) for kind in set(kinds)}
    follower, speaker = (models[kind] for kind in kinds)

    def picks():
        """Each record's candidate scores and the index pragmatic_infer picks."""
        out, real = [], pl.pragmatic_candidates

        def recording(*args):
            out.append(real(*args))
            return out[-1]

        with monkeypatch.context() as mp:
            mp.setattr(pl, "pragmatic_candidates", recording)
            picked = []
            for k, rec in enumerate(gate_b_corpus.val + gate_b_corpus.test):
                world, _ = gate_b_corpus.rebuild(rec)
                chosen = pl.pragmatic_infer(follower, speaker, rec["tokens"], world, 4,
                                            np.random.default_rng([5, k]), 20)
                picked.append(next(i for i, c in enumerate(out[-1][0]) if c is chosen))
        return [scores for _, scores in out], picked

    batched, picked = picks()
    monkeypatch.setattr(speaker, "trajectory_language_score",
                        lambda trajs, tokens: serial_language_scores(speaker, trajs, tokens))
    serial, serial_picked = picks()
    assert len(picked) == 16 and picked == serial_picked
    np.testing.assert_allclose(np.concatenate(batched), np.concatenate(serial), rtol=1e-12, atol=0)


FOLLOWERS = {"msvae": ("msvae", True), "follower": ("follower", True), "no_attention": ("follower", False)}


def follower_and_speaker(corpus, name):
    """An untrained follower of FOLLOWERS[name] and the speaker that scores
    its candidates: the msvae model itself, else a BaselineSpeaker."""
    mcfg = small_cfg().model_config(len(corpus.vocab))
    kind, attention = FOLLOWERS[name]
    follower = md.build_model(kind, np.random.default_rng(3), mcfg, attention)
    return follower, follower if kind == "msvae" else md.build_model("speaker", np.random.default_rng(4), mcfg)


@pytest.mark.parametrize("name", FOLLOWERS)
def test_shared_cache_candidates_equal_uncached_rollouts(gate_b_corpus, name):
    """pragmatic_candidates' follows share one cache per episode; their
    candidates and scores are the bits of rollouts that keep nothing."""
    follower, speaker = follower_and_speaker(gate_b_corpus, name)
    steps = distinct = 0
    for k, ep in enumerate(metrics.episodes_from_records(gate_b_corpus, gate_b_corpus.test)):
        cands, scores = pl.pragmatic_candidates(follower, speaker, ep.tokens, ep.world, 10,
                                                np.random.default_rng([5, k]), ep.max_steps)
        rng = np.random.default_rng([5, k])
        want = [uncached_follow(follower, ep.tokens, ep.world, "greedy", None, ep.max_steps)]
        want += [uncached_follow(follower, ep.tokens, ep.world, "sample", rng, ep.max_steps) for _ in range(10)]
        assert len(cands) == len(want) == 11
        for (traj, states), (traj_want, states_want) in zip(cands, want):
            assert traj.actions == traj_want.actions and states == states_want
            assert traj.observations.shape == traj_want.observations.shape
            assert traj.observations.tobytes() == traj_want.observations.tobytes()
        moved = [i for i, (t, _) in enumerate(want) if t.actions]
        scores_want = np.full(11, -np.inf)
        scores_want[moved] = speaker.trajectory_language_score([want[i][0] for i in moved], ep.tokens)
        assert scores.tobytes() == scores_want.tobytes()
        steps += sum(len(t.actions) for t, _ in cands)
        distinct += len({s for t, states in cands for s in states[: len(t.actions)]})
    assert len(gate_b_corpus.test) == 8 and distinct < steps  # the cache was read, not only filled


@pytest.mark.parametrize("name", ["msvae", "follower"])
def test_instruction_encoded_once_per_pragmatic_episode(gate_b_corpus, name, monkeypatch):
    follower, speaker = follower_and_speaker(gate_b_corpus, name)
    calls, real = [], follower.instruction_memory
    monkeypatch.setattr(follower, "instruction_memory", lambda lang: calls.append(lang) or real(lang))
    records = gate_b_corpus.test[:3]
    pl.evaluate_pragmatic(follower, speaker, gate_b_corpus, records, 4, np.random.default_rng(0))
    assert len(calls) == len(records)
    # a follow without a cache keeps nothing: each call encodes again
    world, _ = gate_b_corpus.rebuild(records[0])
    for _ in range(2):
        follower.follow(records[0]["tokens"], world, max_steps=4)
    assert len(calls) == len(records) + 2


class TestEvalHelpers:
    def test_follower_eval_on_untrained_model_multisubgoal(self, small_corpus):
        mcfg = small_cfg().model_config(len(small_corpus.vocab))
        model = md.BaselineFollower(np.random.default_rng(0), mcfg)
        multi = [r for r in small_corpus.test if len(small_corpus.rebuild(r)[1].subgoals) >= 2]
        if not multi:
            pytest.skip("no multi-subgoal tasks in smoke corpus")
        rep = pl.evaluate_follower(model, small_corpus, multi)
        assert rep.sr < 0.10 + 1e-9
