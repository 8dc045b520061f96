import json
import os
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvae import autodiff as ad, cli, config as cfg_mod, corpus as corpus_mod, model as md, nn, pipelines as pl
from oracles import save_model


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("clicorp")
    code = run_cli("gen-data", "--out", str(out),
                   "--set", "corpus.m=24", "--set", "corpus.n=24",
                   "--set", "corpus.val_tasks=8", "--set", "corpus.test_tasks=8")
    assert code == 0
    return out


SMOKE_SETS = [
    "--set", "train.epochs=2", "--set", "train.iters_per_epoch=3",
    "--set", "train.paired_batch=6", "--set", "train.unpaired_batch=6",
    "--set", "train.eval_tasks=4", "--set", "model.hidden=16",
    "--set", "model.word_emb=8", "--set", "model.action_emb=6",
    "--set", "model.attn_dim=8", "--set", "model.prior_hidden=8",
    "--set", "train.k_slots=2", "--set", "train.latent_dim=8",
]


class TestConfig:
    def test_presets_resolve(self):
        desk = cfg_mod.resolve("desk_scale")
        assert desk["corpus"]["m"] == 500 and desk["corpus"]["n"] == 20000
        paper = cfg_mod.resolve("paper_scale")
        assert paper["corpus"]["m"] == 1000 and paper["corpus"]["n"] == 1_000_000
        assert paper["train"]["epochs"] == 200 and paper["train"]["paired_batch"] == 256
        assert cfg_mod.train_config(desk) == pl.TrainConfig(seed=0)

    def test_every_model_and_train_key_reaches_the_train_config(self):
        other = {"arch_variant": "bottleneck"}
        for section in ("model", "train"):
            for key, default in cfg_mod.DEFAULTS[section].items():
                if isinstance(default, bool):
                    value = not default
                elif isinstance(default, (int, float)):
                    value = default + 1
                elif default is None:
                    value = "ckpt.bin"
                else:
                    value = other[key]
                doc = cfg_mod.resolve("desk_scale", overrides=[f"{section}.{key}={json.dumps(value)}"])
                tc = cfg_mod.train_config(doc)
                # each key is declared by exactly one of the config dataclasses
                holders = [o for o in (tc, tc.hp, tc.model) if key in {f.name for f in fields(o)}]
                assert len(holders) == 1, key
                assert getattr(holders[0], key) == value, key

    def test_unknown_key_rejected(self):
        with pytest.raises(cfg_mod.ConfigError, match="unknown config key: corpus.bogus"):
            cfg_mod.resolve("desk_scale", overrides=["corpus.bogus=1"])
        # the decoders always feed the previous context: the key that turned that off is gone
        with pytest.raises(cfg_mod.ConfigError, match="unknown config key: model.input_feed"):
            cfg_mod.resolve("desk_scale", overrides=["model.input_feed=true"])

    def test_unknown_file_key_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"train": {"nope": 3}}))
        with pytest.raises(cfg_mod.ConfigError, match="train.nope"):
            cfg_mod.resolve("desk_scale", config_path=p)

    def test_section_override_merges_key_by_key(self):
        doc = cfg_mod.resolve("desk_scale", overrides=['corpus={"m": 3}'])
        assert doc["corpus"] == {**cfg_mod.DEFAULTS["corpus"], "m": 3}

    @pytest.mark.parametrize("override", ['corpus.m={"a": 1}', "corpus=5"])
    def test_section_and_value_do_not_replace_each_other(self, override):
        with pytest.raises(cfg_mod.ConfigError, match="cannot be set to"):
            cfg_mod.resolve("desk_scale", overrides=[override])

    def test_override_parsing_types(self):
        doc = cfg_mod.resolve("desk_scale", overrides=["train.gamma=0", "corpus.difficulty=goto_seq"])
        assert doc["train"]["gamma"] == 0
        assert doc["corpus"]["difficulty"] == "goto_seq"

    @pytest.mark.parametrize("override", ["eval.limit=null", "eval.limit=1", "train.pretrain_speaker=null",
                                          "corpus.subgoal_weights=[0, 0, 0, 1]", "corpus.n=1000000",
                                          "train.unpaired_batch=0", "eval.candidates=0", "train.alpha=0"])
    def test_boundary_values_accepted(self, override):
        cfg_mod.train_config(cfg_mod.resolve("desk_scale", overrides=[override]))

    @pytest.mark.parametrize("override", ["eval.limit=0", "corpus.n=1000001", "train.seed=true",
                                          "model.hidden=64.0", "train.gamma=-Infinity", "eval.split=null",
                                          "corpus.subgoal_weights=[0.5, 0.5, 0.5, -0.5]"])
    def test_out_of_bounds_values_rejected(self, override):
        with pytest.raises(cfg_mod.ConfigError, match=override.split("=")[0]):
            cfg_mod.resolve("desk_scale", overrides=[override])

    @settings(max_examples=300, deadline=None)
    @given(key=st.sampled_from([f"{s}.{k}" for s, keys in cfg_mod.DEFAULTS.items() for k in keys]),
           value=st.recursive(
               st.none() | st.booleans() | st.integers(-3, 2_000_000) | st.floats() | st.text(max_size=6)
               | st.sampled_from(["boss", "grid", "bottleneck", "val", "sample", "ckpt.bin"]),
               lambda inner: st.lists(inner, max_size=5) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
               max_leaves=6))
    def test_resolve_rejects_or_returns_default_types(self, key, value):
        try:
            doc = cfg_mod.resolve("desk_scale", overrides=[f"{key}={json.dumps(value)}"])
        except cfg_mod.ConfigError:
            return
        section, name = key.split(".")
        default, got = cfg_mod.DEFAULTS[section][name], doc[section][name]
        if default is None:
            assert got is None or type(got) in (int, str)
        elif type(default) is float:
            assert type(got) in (int, float)
        else:
            assert type(got) is type(default)
        cfg_mod.train_config(doc)


class TestGenData:
    def test_seed_repeat_identical_checksums(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["--set", "corpus.m=6", "--set", "corpus.n=6",
                "--set", "corpus.val_tasks=2", "--set", "corpus.test_tasks=2"]
        assert run_cli("gen-data", "--out", str(a), *args) == 0
        out_a = capsys.readouterr().out
        assert run_cli("gen-data", "--out", str(b), *args) == 0
        out_b = capsys.readouterr().out
        sums_a = [l for l in out_a.splitlines() if "sha256" in l]
        sums_b = [l for l in out_b.splitlines() if "sha256" in l]
        assert sums_a == sums_b and len(sums_a) == 5

    def test_config_json_holds_only_the_corpus_section(self, tmp_path):
        out = tmp_path / "c"
        sets = ["corpus.m=3", "corpus.n=2", "corpus.val_tasks=1", "corpus.test_tasks=1", "model.hidden=7"]
        assert run_cli("gen-data", "--out", str(out), *[a for s in sets for a in ("--set", s)]) == 0
        doc = json.loads((out / "config.json").read_text())
        assert doc == {"corpus": cfg_mod.resolve("desk_scale", None, sets)["corpus"]}

    def test_section_override_keeps_the_other_keys(self, tmp_path):
        out = tmp_path / "c"
        assert run_cli("gen-data", "--out", str(out),
                       "--set", 'corpus={"m": 3, "n": 2, "val_tasks": 1, "test_tasks": 1}') == 0
        assert json.loads((out / "paired.jsonl").read_text().splitlines()[0])["difficulty"] == "boss"

    def test_summary_within_directional_targets(self, tmp_path, capsys):
        out = tmp_path / "c"
        assert run_cli("gen-data", "--out", str(out), "--set", "corpus.m=150",
                       "--set", "corpus.n=0", "--set", "corpus.val_tasks=1",
                       "--set", "corpus.test_tasks=1") == 0
        text = capsys.readouterr().out
        paired_line = next(l for l in text.splitlines() if l.strip().startswith("paired:"))
        mean_tokens = float(paired_line.split("mean_tokens=")[1])
        mean_actions = float(paired_line.split("mean_actions=")[1].split()[0])
        assert 7.0 <= mean_tokens <= 13.0
        assert 8.0 <= mean_actions <= 14.0


@pytest.fixture(scope="module")
def bottleneck_follower(corpus_dir, tmp_path_factory):
    """A supervised-follower checkpoint of the latent architecture: an msvae
    model whose speaker half was never trained."""
    out = tmp_path_factory.mktemp("bottleneck")
    assert run_cli("train", "--pipeline", "supervised-follower", "--corpus", str(corpus_dir), "--out", str(out),
                   *SMOKE_SETS, "--set", "train.epochs=1", "--set", "train.arch_variant=bottleneck") == 0
    best = out / "checkpoints" / "best.bin"
    assert md.load_model(best)[1]["kind"] == "msvae"
    return best


class TestTrain:
    def test_smoke_run_exit0_metrics_nonempty(self, corpus_dir, tmp_path):
        out = tmp_path / "run"
        code = run_cli("train", "--pipeline", "msvae", "--corpus", str(corpus_dir),
                       "--out", str(out), *SMOKE_SETS)
        assert code == 0
        rows = (out / "metrics.csv").read_text().splitlines()
        assert len(rows) > 1
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["pipeline"] == "msvae"
        assert cfg["train"]["epochs"] == 2

    def test_model_view_is_no_config_key(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "ego"
        assert run_cli("train", "--pipeline", "supervised-follower", "--corpus", str(corpus_dir), "--out", str(out),
                       *SMOKE_SETS, "--set", "train.epochs=1", "--set", "model.obs_view=ego") == 1
        assert "unknown config key: model.obs_view" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_pipeline_usage_error(self, corpus_dir, tmp_path):
        code = run_cli("train", "--pipeline", "warp", "--corpus", str(corpus_dir),
                       "--out", str(tmp_path / "x"))
        assert code == 1

    @pytest.mark.parametrize("override", ["train.epochs=0", 'train.paired_batch="x"',
                                          "train.arch_variant=foo", 'train.learning_rate="x"',
                                          "train.seed=1.5", "model.hidden=0", "train.eval_every=0",
                                          "model.hidden=-3", "train.eval_tasks=-1", "train.unpaired_batch=-1",
                                          'model.input_feed="no"', "model.input_feed=true", "train.alpha=NaN"])
    def test_value_rejected_by_config_dataclass_is_usage_error(self, corpus_dir, tmp_path, override):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run([sys.executable, "-m", "msvae", "train", "--pipeline", "supervised-follower",
                               "--corpus", str(corpus_dir), "--out", str(tmp_path / "x"),
                               *SMOKE_SETS, "--set", override], capture_output=True, text=True, env=env)
        assert proc.returncode == 1, proc.stderr
        assert "usage error" in proc.stderr and "Traceback" not in proc.stderr
        assert not (tmp_path / "x").exists()

    def test_missing_corpus_data_error(self, tmp_path):
        code = run_cli("train", "--pipeline", "msvae", "--corpus", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "x"))
        assert code == 2

    @pytest.mark.parametrize("wrong", ["corpus", "out"])
    def test_path_of_the_wrong_kind_is_data_error(self, corpus_dir, tmp_path, capsys, wrong):
        a_file = tmp_path / "a_file"
        a_file.write_text("not a directory\n")
        paths = {"corpus": str(corpus_dir), "out": str(tmp_path / "x"), wrong: str(a_file)}
        code = run_cli("train", "--pipeline", "supervised-follower", "--corpus", paths["corpus"],
                       "--out", paths["out"], *SMOKE_SETS)
        assert code == 2
        assert capsys.readouterr().err.startswith("data error")
        assert a_file.read_text() == "not a directory\n"

    def test_paired_record_without_tokens_is_data_error(self, corpus_dir, tmp_path, capsys):
        bad = tmp_path / "corpus"
        shutil.copytree(corpus_dir, bad)
        header, first, *rest = (bad / "paired.jsonl").read_text().splitlines(keepends=True)
        record = json.loads(first)
        del record["tokens"]
        (bad / "paired.jsonl").write_text(header + json.dumps(record) + "\n" + "".join(rest))
        code = run_cli("train", "--pipeline", "supervised-follower", "--corpus", str(bad),
                       "--out", str(tmp_path / "x"), *SMOKE_SETS)
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and "paired.jsonl, line 2" in err and "'tokens'" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["pretrain_follower", "pretrain_speaker"])
    def test_missing_warm_start_checkpoint_leaves_no_run_directory(self, corpus_dir, tmp_path, capsys, key):
        out = tmp_path / "x"
        code = run_cli("train", "--pipeline", "msvae", "--corpus", str(corpus_dir), "--out", str(out),
                       *SMOKE_SETS, "--set", f"train.{key}={tmp_path / 'nope.bin'}")
        assert code == 2
        assert "data error" in capsys.readouterr().err
        assert not out.exists()

    def test_ablation_override_matches_paired_only_config(self, corpus_dir, tmp_path):
        out = tmp_path / "ab"
        code = run_cli("train", "--pipeline", "msvae", "--corpus", str(corpus_dir),
                       "--out", str(out), *SMOKE_SETS,
                       "--set", "train.gamma=0", "--set", "train.alpha=0",
                       "--set", "train.unpaired_batch=0")
        assert code == 0
        cfg = json.loads((out / "config.json").read_text())
        assert cfg["train"]["hp"]["gamma"] == 0

    def test_resume_reproduces_uninterrupted(self, corpus_dir, tmp_path):
        full = tmp_path / "full"
        part = tmp_path / "part"
        base = ["train", "--pipeline", "supervised-follower", "--corpus", str(corpus_dir), *SMOKE_SETS]
        assert run_cli(*base, "--out", str(full), "--set", "train.epochs=4") == 0
        assert run_cli(*base, "--out", str(part), "--set", "train.epochs=2") == 0
        state = next((part / "checkpoints").glob("epoch_*.bin"))
        assert run_cli(*base, "--out", str(part), "--set", "train.epochs=4",
                       "--resume", str(state)) == 0
        assert (full / "metrics.csv").read_bytes() == (part / "metrics.csv").read_bytes()

    def test_resume_of_a_state_that_records_the_model_view(self, corpus_dir, tmp_path, capsys):
        # training states written while the view was a model setting record
        # model.obs_view: "ego" resumes as if it were not there, another view
        # is a data error naming the key
        full, part = tmp_path / "full", tmp_path / "part"
        base = ["train", "--pipeline", "supervised-follower", "--corpus", str(corpus_dir), *SMOKE_SETS]
        assert run_cli(*base, "--out", str(full), "--set", "train.epochs=4") == 0
        assert run_cli(*base, "--out", str(part), "--set", "train.epochs=2") == 0
        [state] = (part / "checkpoints").glob("epoch_*.bin")
        arrays, meta = nn.load_checkpoint(state)
        meta["model_config"]["obs_view"] = "ego"
        for view, name in (("grid", "grid.bin"), ("ego", "ego.bin")):
            meta["train"]["model"]["obs_view"] = view
            nn.save_checkpoint(part / name, arrays, meta)
        files = {name: (part / name).read_bytes() for name in ("config.json", "metrics.csv", "timing.csv")}
        assert run_cli(*base, "--out", str(part), "--set", "train.epochs=4", "--resume", str(part / "grid.bin")) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "train.model.obs_view='grid'" in err, err
        assert {name: (part / name).read_bytes() for name in files} == files
        assert run_cli(*base, "--out", str(part), "--set", "train.epochs=4", "--resume", str(part / "ego.bin")) == 0
        assert (full / "metrics.csv").read_bytes() == (part / "metrics.csv").read_bytes()
        best = [nn.load_checkpoint(run / "checkpoints" / "best.bin")[0] for run in (full, part)]
        assert best[0].keys() == best[1].keys()
        for name, value in best[0].items():
            assert value.tobytes() == best[1][name].tobytes(), name

    def test_resume_that_does_not_fit_leaves_run_directory_unchanged(self, corpus_dir, trained, tmp_path, capsys):
        # a wrong model setting, another pipeline's training state, or train
        # settings other than epochs that differ from the state's fail before
        # config.json or the step logs are touched
        mv, fol = tmp_path / "mv", tmp_path / "fol"
        shutil.copytree(trained.parents[1], mv)
        assert run_cli("train", "--pipeline", "supervised-follower", "--corpus", str(corpus_dir),
                       "--out", str(fol), *SMOKE_SETS, "--set", "train.epochs=1") == 0
        capsys.readouterr()
        for run, pipeline, extra, message in [
                (mv, "msvae", ["--set", "model.hidden=9"], "does not fit this model"),
                (fol, "msvae", [], "is a supervised-follower checkpoint"),
                (fol, "supervised-speaker", [], "is a supervised-follower checkpoint"),
                (mv, "msvae", ["--set", "train.seed=9", "--set", "train.paired_batch=2",
                               "--set", "train.learning_rate=0.5"], "trained with train.hp.learning_rate=0.001, not 0.5")]:
            files = {name: (run / name).read_bytes() for name in ("config.json", "metrics.csv", "timing.csv")}
            state = next((run / "checkpoints").glob("epoch_*.bin"))
            code = run_cli("train", "--pipeline", pipeline, "--corpus", str(corpus_dir), "--out", str(run),
                           *SMOKE_SETS, "--set", "train.epochs=4", *extra, "--resume", str(state))
            assert {name: (run / name).read_bytes() for name in files} == files, (pipeline, extra)
            assert code == 2, (pipeline, extra)
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and message in err, err

    def test_empty_val_split_is_data_error_before_anything_is_written(self, tmp_path, capsys):
        # every pipeline selects its checkpoint on val records
        corpus = tmp_path / "corpus"
        assert run_cli("gen-data", "--out", str(corpus), "--set", "corpus.m=6", "--set", "corpus.n=6",
                       "--set", "corpus.val_tasks=0", "--set", "corpus.test_tasks=2") == 0
        speaker = tmp_path / "speaker.bin"
        cfg = md.ModelConfig(vocab_size=len(corpus_mod.load(corpus).vocab), hidden=4, word_emb=3, action_emb=3,
                             attn_dim=3, cell_dim=3, obs_hidden=4)
        save_model(speaker, md.BaselineSpeaker(np.random.default_rng(0), cfg), vocab_words=[])
        capsys.readouterr()
        for argv in [*([p] for p in (*pl.TRAINERS, *pl.SPEAKER_STAGES)),
                     ["speaker-follower", "--speaker-checkpoint", str(speaker)]]:
            out = tmp_path / "run"
            code = run_cli("train", "--pipeline", *argv, "--corpus", str(corpus), "--out", str(out), *SMOKE_SETS)
            assert code == 2, argv
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and "empty val split" in err, err
            assert not out.exists(), argv

    def test_resume_rejected_for_speaker_follower_pipelines(self, corpus_dir, tmp_path, capsys):
        for pipeline in ("speaker-follower", "msvae-speaker-follower"):
            out = tmp_path / pipeline
            code = run_cli("train", "--pipeline", pipeline, "--corpus", str(corpus_dir), "--out", str(out),
                           *SMOKE_SETS, "--resume", str(tmp_path / "epoch_0000.bin"))
            assert code == 1
            assert "supervised-follower, supervised-speaker, msvae" in capsys.readouterr().err
            assert not out.exists()

    def test_speaker_follower_with_reused_speaker(self, corpus_dir, tmp_path):
        spk = tmp_path / "spk"
        assert run_cli("train", "--pipeline", "supervised-speaker", "--corpus", str(corpus_dir),
                       "--out", str(spk), *SMOKE_SETS) == 0
        sf = tmp_path / "sf"
        code = run_cli("train", "--pipeline", "speaker-follower", "--corpus", str(corpus_dir),
                       "--out", str(sf), *SMOKE_SETS,
                       "--speaker-checkpoint", str(spk / "checkpoints" / "best.bin"))
        assert code == 0
        assert (sf / "pseudo_paired.jsonl").exists()

    @pytest.mark.parametrize("pipeline,stage,speaker", [("speaker-follower", "speaker_stage", "speaker"),
                                                        ("msvae-speaker-follower", "msvae_stage", "msvae")])
    def test_speaker_follower_trains_its_speaker_stage(self, corpus_dir, tmp_path, pipeline, stage, speaker):
        out = tmp_path / "sf"
        assert run_cli("train", "--pipeline", pipeline, "--corpus", str(corpus_dir), "--out", str(out),
                       *SMOKE_SETS, "--set", "train.epochs=1") == 0
        assert (out / stage / "checkpoints" / "best.bin").exists()
        header = json.loads((out / "pseudo_paired.jsonl").read_text().splitlines()[0])
        assert header["speaker"] == speaker
        assert json.loads((out / "config.json").read_text())["pipeline"] == pipeline

    def test_bad_speaker_checkpoint_leaves_no_run_directory(self, corpus_dir, tmp_path, capsys):
        fol = tmp_path / "fol"
        assert run_cli("train", "--pipeline", "supervised-follower", "--corpus", str(corpus_dir),
                       "--out", str(fol), *SMOKE_SETS, "--set", "train.epochs=1") == 0
        capsys.readouterr()
        for speaker, message in [(tmp_path / "nope.bin", "nope.bin"),
                                 (fol / "checkpoints" / "best.bin", "cannot speak")]:
            out = tmp_path / "sf"
            code = run_cli("train", "--pipeline", "speaker-follower", "--corpus", str(corpus_dir),
                           "--out", str(out), *SMOKE_SETS, "--speaker-checkpoint", str(speaker))
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and message in err
            assert not out.exists()

    def test_bottleneck_follower_is_no_speaker(self, corpus_dir, bottleneck_follower, tmp_path, capsys):
        capsys.readouterr()
        out = tmp_path / "sf"
        code = run_cli("train", "--pipeline", "speaker-follower", "--corpus", str(corpus_dir), "--out", str(out),
                       *SMOKE_SETS, "--speaker-checkpoint", str(bottleneck_follower))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "supervised-follower checkpoint cannot speak" in err, err
        assert not out.exists()

    @pytest.mark.parametrize("pipeline", ["supervised-follower", "supervised-speaker", "msvae"])
    def test_speaker_checkpoint_rejected_by_other_pipelines(self, tmp_path, capsys, pipeline):
        # a usage error before the corpus is read: the missing corpus is never reached
        out = tmp_path / "x"
        code = run_cli("train", "--pipeline", pipeline, "--corpus", str(tmp_path / "nope"), "--out", str(out),
                       *SMOKE_SETS, "--speaker-checkpoint", str(tmp_path / "nope.bin"))
        assert code == 1
        assert "speaker-follower, msvae-speaker-follower" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def trained(corpus_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    assert run_cli("train", "--pipeline", "msvae", "--corpus", str(corpus_dir),
                   "--out", str(out), *SMOKE_SETS) == 0
    return out / "checkpoints" / "best.bin"


@pytest.fixture(scope="module")
def empty_test_split(tmp_path_factory):
    out = tmp_path_factory.mktemp("notest")
    assert run_cli("gen-data", "--out", str(out), "--set", "corpus.m=6", "--set", "corpus.n=6",
                   "--set", "corpus.val_tasks=2", "--set", "corpus.test_tasks=0") == 0
    return out


class TestEval:

    def test_oracle_sentinel_perfect_sr(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "eval.json"
        code = run_cli("eval", "--checkpoint", "oracle", "--corpus", str(corpus_dir),
                       "--mode", "follow", "--out", str(out))
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["sr"] == 1.0

    def test_unknown_split_is_usage_error(self, corpus_dir, tmp_path):
        out = tmp_path / "eval.json"
        code = run_cli("eval", "--checkpoint", "oracle", "--corpus", str(corpus_dir),
                       "--mode", "follow", "--out", str(out), "--set", "eval.split=tset")
        assert code == 1
        assert not out.exists()

    @pytest.mark.parametrize("damage", [
        lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "words"}),
        lambda text: text[: len(text) // 2],
        lambda text: json.dumps([json.loads(text)]),
        lambda text: json.dumps({**json.loads(text), "words": ["go", 3]}),
    ], ids=["no_words", "cut", "not_object", "non_str_word"])
    def test_damaged_vocab_is_data_error(self, corpus_dir, tmp_path, capsys, damage):
        bad = tmp_path / "corpus"
        shutil.copytree(corpus_dir, bad)
        vocab = bad / "vocab.json"
        vocab.write_text(damage(vocab.read_text()))
        out = tmp_path / "eval.json"
        code = run_cli("eval", "--checkpoint", "oracle", "--corpus", str(bad), "--mode", "follow",
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert "data error" in err and str(vocab) in err and "Traceback" not in err
        assert not out.exists()

    def test_checkpoint_that_is_a_directory_is_data_error(self, corpus_dir, tmp_path, capsys):
        out = tmp_path / "eval.json"
        code = run_cli("eval", "--checkpoint", str(tmp_path), "--corpus", str(corpus_dir), "--mode", "follow",
                       "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("data error")
        assert not out.exists()

    def test_eval_bytes_deterministic(self, corpus_dir, trained, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for out in (a, b):
            assert run_cli("eval", "--checkpoint", str(trained), "--corpus", str(corpus_dir),
                           "--mode", "follow", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pragmatic_zero_candidates_equals_follow(self, corpus_dir, trained, tmp_path):
        f, p = tmp_path / "f.json", tmp_path / "p.json"
        assert run_cli("eval", "--checkpoint", str(trained), "--corpus", str(corpus_dir),
                       "--mode", "follow", "--out", str(f)) == 0
        assert run_cli("eval", "--checkpoint", str(trained), "--corpus", str(corpus_dir),
                       "--mode", "pragmatic", "--candidates", "0", "--out", str(p)) == 0
        assert json.loads(f.read_text())["sr"] == json.loads(p.read_text())["sr"]
        # only the eval settings: the model comes from the checkpoint and the
        # corpus from its files, so the other sections' defaults would misreport both
        assert json.loads(p.read_text())["config"] == {"eval": {**cfg_mod.DEFAULTS["eval"], "candidates": 0}}

    @pytest.mark.parametrize("checkpoint,mode", [("trained", ["--mode", "follow"]),
                                                 ("trained", ["--mode", "pragmatic", "--candidates", "2"]),
                                                 ("trained", ["--mode", "speak"]),
                                                 ("oracle", ["--mode", "follow"])],
                             ids=["follow", "pragmatic", "speak", "oracle"])
    def test_empty_split_is_data_error(self, empty_test_split, trained, tmp_path, capsys, checkpoint, mode):
        out = tmp_path / "eval.json"
        ckpt = str(trained) if checkpoint == "trained" else checkpoint
        code = run_cli("eval", "--checkpoint", ckpt, "--corpus", str(empty_test_split), *mode, "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err == "data error: the corpus has an empty test split; there is nothing to evaluate\n", err
        assert not out.exists()

    @pytest.mark.parametrize("checkpoint,mode", [("f.bin", ["--mode", "speak"]),
                                                 ("f.bin", ["--mode", "pragmatic", "--candidates", "0"]),
                                                 ("f.bin", ["--mode", "pragmatic", "--candidates", "4"]),
                                                 ("oracle", ["--mode", "follow"])],
                             ids=["speak", "pragmatic_0", "pragmatic_4", "oracle"])
    def test_sample_decoding_where_nothing_samples_is_usage_error(self, tmp_path, capsys, checkpoint, mode):
        # a usage error before the corpus is read: the missing corpus and checkpoint are never reached
        out = tmp_path / "eval.json"
        code = run_cli("eval", "--checkpoint", checkpoint, "--corpus", str(tmp_path / "nope"), *mode,
                       "--set", "eval.decoding=sample", "--out", str(out))
        assert code == 1
        assert "eval.decoding=sample works only with --mode follow" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _eval_follower_with_meta(corpus_dir, tmp_path, capsys, change_meta) -> str:
        """Evaluate a small follower saved with its metadata changed by
        change_meta(meta); returns stderr of a run that must exit 2."""
        path = tmp_path / "f.bin"
        model = md.BaselineFollower(np.random.default_rng(0), md.ModelConfig(
            vocab_size=len(corpus_mod.load(corpus_dir).vocab), hidden=4, word_emb=3, action_emb=3, attn_dim=3,
            cell_dim=3, obs_hidden=4))
        meta = change_meta(md.checkpoint_meta(model, []))
        nn.save_checkpoint(path, {k: p.value for k, p in model.named_params().items()}, meta)
        out = tmp_path / "eval.json"
        code = run_cli("eval", "--checkpoint", str(path), "--corpus", str(corpus_dir), "--mode", "follow",
                       "--out", str(out))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(path) in err, err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("key,value", [("input_feed", False), ("n_actions", 7), ("obs_view", "grid")])
    def test_checkpoint_with_unsupported_retired_key_is_data_error(self, corpus_dir, tmp_path, capsys, key, value):
        def change(meta):
            meta["model_config"].update({"input_feed": True, "n_actions": 6, "obs_view": "ego", key: value})
            return meta

        err = self._eval_follower_with_meta(corpus_dir, tmp_path, capsys, change)
        assert f"model_config.{key}=" in err, err

    MALFORMED = {  # case -> (the metadata made from a good one, what the error names)
        "empty": (lambda meta: {}, "kind"),
        "no_kind": (lambda meta: {k: v for k, v in meta.items() if k != "kind"}, "kind"),
        "no_model_config": (lambda meta: {k: v for k, v in meta.items() if k != "model_config"}, "model_config"),
        "model_config_list": (lambda meta: {**meta, "model_config": [1, 2]}, "model_config"),
        "unknown_field": (lambda meta: {**meta, "model_config": {**meta["model_config"], "hidden2": 4}},
                          "model_config.hidden2"),
        "str_value": (lambda meta: {**meta, "model_config": {**meta["model_config"], "hidden": "4"}},
                      "model_config.hidden='4'"),
        "bool_value": (lambda meta: {**meta, "model_config": {**meta["model_config"], "cell_dim": True}},
                       "model_config.cell_dim=True"),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_checkpoint_metadata_is_data_error(self, corpus_dir, tmp_path, capsys, case):
        change, named = self.MALFORMED[case]
        err = self._eval_follower_with_meta(corpus_dir, tmp_path, capsys, change)
        assert named in err, err

    def test_mode_checkpoint_mismatch_rejected(self, corpus_dir, tmp_path):
        spk = tmp_path / "spk"
        assert run_cli("train", "--pipeline", "supervised-speaker", "--corpus", str(corpus_dir),
                       "--out", str(spk), *SMOKE_SETS) == 0
        code = run_cli("eval", "--checkpoint", str(spk / "checkpoints" / "best.bin"),
                       "--corpus", str(corpus_dir), "--mode", "follow")
        assert code == 1

    @pytest.mark.parametrize("mode", [["--mode", "follow"], ["--mode", "speak"],
                                      ["--mode", "pragmatic", "--candidates", "0"]],
                             ids=["follow", "speak", "pragmatic_0"])
    def test_speaker_checkpoint_unused_is_usage_error(self, tmp_path, capsys, mode):
        # a usage error before the corpus is read: the missing corpus and checkpoints are never reached
        out = tmp_path / "eval.json"
        code = run_cli("eval", "--checkpoint", str(tmp_path / "f.bin"), "--corpus", str(tmp_path / "nope"),
                       *mode, "--speaker-checkpoint", str(tmp_path / "nope.bin"), "--out", str(out))
        assert code == 1
        assert "--speaker-checkpoint works only with --mode pragmatic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mode,message", [
        (["--mode", "pragmatic", "--candidates", "4"], "needs --speaker-checkpoint"),
        (["--mode", "speak"], "supervised-follower checkpoint cannot speak")], ids=["pragmatic", "speak"])
    def test_bottleneck_follower_does_not_speak_itself(self, corpus_dir, bottleneck_follower, tmp_path, capsys,
                                                       mode, message):
        out = tmp_path / "e.json"
        code = run_cli("eval", "--checkpoint", str(bottleneck_follower), "--corpus", str(corpus_dir),
                       *mode, "--out", str(out))
        assert code == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_bottleneck_follower_is_no_speaker_checkpoint(self, corpus_dir, trained, bottleneck_follower,
                                                          tmp_path, capsys):
        out = tmp_path / "p.json"
        code = run_cli("eval", "--checkpoint", str(trained), "--corpus", str(corpus_dir), "--mode", "pragmatic",
                       "--candidates", "4", "--speaker-checkpoint", str(bottleneck_follower), "--out", str(out))
        assert code == 1
        assert "supervised-follower checkpoint cannot speak" in capsys.readouterr().err
        assert not out.exists()

    def test_speak_mode_writes_bleu(self, corpus_dir, trained, tmp_path):
        out = tmp_path / "s.json"
        assert run_cli("eval", "--checkpoint", str(trained), "--corpus", str(corpus_dir),
                       "--mode", "speak", "--out", str(out)) == 0
        doc = json.loads(out.read_text())
        assert "bleu4" in doc and doc["mode"] == "speak"


class TestConfigBoundary:
    """A bad config value exits 1 as a usage error before any file is read or written."""

    @pytest.mark.parametrize("override", ['corpus.seed="x"', "corpus.m=2.5", "corpus.m=-1",
                                          "corpus.subgoal_weights=[1]", "corpus.difficulty=foo"])
    def test_gen_data_rejects_bad_value(self, tmp_path, capsys, override):
        out = tmp_path / "c"
        code = run_cli("gen-data", "--out", str(out), "--set", "corpus.m=2", "--set", "corpus.n=2",
                       "--set", "corpus.val_tasks=1", "--set", "corpus.test_tasks=1", "--set", override)
        assert code == 1
        assert f"usage error: {override.split('=')[0]}=" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ['{"corpus": {"m": 3},\n', "[1, 2]"], ids=["cut", "not-an-object"])
    def test_malformed_config_file_names_the_file(self, tmp_path, capsys, text):
        path = tmp_path / "bad.json"
        path.write_text(text)
        out = tmp_path / "c"
        assert run_cli("gen-data", "--out", str(out), "--config", str(path)) == 1
        err = capsys.readouterr().err
        assert "usage error" in err and str(path) in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["--set", 'eval.limit="2"'], ["--set", 'eval.seed="x"'],
                                      ["--set", "eval.decoding=smaple"], ["--set", "eval.limit=-3"],
                                      ["--mode", "pragmatic", "--candidates", "-2"]],
                             ids=["limit-str", "seed-str", "decoding-typo", "limit-negative", "candidates-negative"])
    def test_eval_rejects_bad_value(self, corpus_dir, trained, tmp_path, capsys, argv):
        out = tmp_path / "eval.json"
        mode = [] if "--mode" in argv else ["--mode", "follow"]
        code = run_cli("eval", "--checkpoint", str(trained), "--corpus", str(corpus_dir),
                       "--out", str(out), *mode, *argv)
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not out.exists()


class TestReport:
    def _mk_run(self, tmp_path, name, pipeline, sr, seed):
        d = tmp_path / name
        d.mkdir()
        (d / "config.json").write_text(json.dumps({"pipeline": pipeline}))
        (d / "eval.json").write_text(json.dumps(
            {"sr": sr, "bleu4": 0.1, "n_episodes": 10, "seed": seed,
             "checkpoint": "x", "corpus": "c"}))
        return d

    def test_single_run_table_without_pvalues(self, tmp_path, capsys):
        d = self._mk_run(tmp_path, "r1", "msvae", 0.5, 0)
        assert run_cli("report", "--runs", str(d)) == 0
        out = capsys.readouterr().out
        assert "| msvae | 1 |" in out
        assert "p(SR" not in out

    def test_three_seeds_two_conditions_pvalues(self, tmp_path, capsys):
        runs = []
        for i, sr in enumerate((0.8, 0.85, 0.9)):
            runs.append(str(self._mk_run(tmp_path, f"a{i}", "msvae", sr, i)))
        for i, sr in enumerate((0.4, 0.45, 0.5)):
            runs.append(str(self._mk_run(tmp_path, f"b{i}", "supervised-follower", sr, i)))
        assert run_cli("report", "--runs", *runs, "--compare", "msvae:supervised-follower") == 0
        out = capsys.readouterr().out
        assert "p(SR msvae > supervised-follower) = " in out
        p = float(out.strip().rsplit("= ", 1)[1])
        from msvae import metrics
        assert p == pytest.approx(metrics.t_test_one_sided([0.8, 0.85, 0.9], [0.4, 0.45, 0.5]), rel=1e-2)

    def test_compare_with_one_seed_per_condition_says_why_no_pvalue(self, tmp_path, capsys):
        runs = [str(self._mk_run(tmp_path, "a", "msvae", 0.8, 0)),
                str(self._mk_run(tmp_path, "b", "supervised-follower", 0.4, 0))]
        assert run_cli("report", "--runs", *runs, "--compare", "msvae:supervised-follower") == 0
        assert "p(SR msvae > supervised-follower): needs >= 2 seeds per side" in capsys.readouterr().out

    def test_markdown_written_to_file(self, tmp_path):
        d = self._mk_run(tmp_path, "r1", "msvae", 0.5, 0)
        out = tmp_path / "report.md"
        assert run_cli("report", "--runs", str(d), "--out", str(out)) == 0
        assert out.read_text().startswith("| condition |")

    @pytest.mark.parametrize("pair", ["msvae", "msvae:", ":msvae", "a:b:c"])
    def test_malformed_compare_is_usage_error(self, tmp_path, capsys, pair):
        d = self._mk_run(tmp_path, "r1", "msvae", 0.5, 0)
        assert run_cli("report", "--runs", str(d), "--compare", pair) == 1
        assert "usage error" in capsys.readouterr().err

    MALFORMED = {  # run file -> (its content, what the error names)
        "eval.json": ({"sr": 0.5, "n_episodes": 10}, "'bleu4'"),
        "runrecord.json": ({"entries": [{"epoch": 0, "sr": 0.5, "bleu": 0.0}]}, "'smoothed'"),
        "runrecord.json:entries_numbers": ({"entries": [1]}, "'entries' is not a list of objects"),
        "runrecord.json:entries_dict": ({"entries": {"epoch": 0, "sr": 0.5}}, "'entries' is not a list of objects"),
        "config.json": (["msvae"], "does not hold a JSON object"),
        "eval.json:sr_null": ({"sr": None, "bleu4": 0.1, "n_episodes": 10}, "'sr' is not a number"),
        "config.json:pipeline_list": ({"pipeline": ["msvae"]}, "'pipeline' is not a string"),
    }

    @pytest.mark.parametrize("name", MALFORMED)
    def test_malformed_run_file_is_data_error(self, tmp_path, capsys, name):
        content, named = self.MALFORMED[name]
        name = name.split(":")[0]
        d = self._mk_run(tmp_path, "r1", "msvae", 0.5, 0)
        if name == "runrecord.json":
            (d / "eval.json").unlink()  # the record is read only without an eval
        (d / name).write_text(json.dumps(content))
        assert run_cli("report", "--runs", str(d)) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(d / name) in err and named in err, err
        assert err.count("\n") == 1

    def test_unknown_compare_condition_is_usage_error_with_one_seed(self, tmp_path, capsys):
        # no condition has two seeds, so no p-value is computed, yet the
        # names are still checked
        d = self._mk_run(tmp_path, "r1", "msvae", 0.5, 0)
        assert run_cli("report", "--runs", str(d), "--compare", "msvae:bogus") == 1
        assert "unknown condition" in capsys.readouterr().err


def test_cli_import_leaves_scipy_stats_unloaded():
    code = "import sys, msvae.cli; print('scipy.stats' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


@pytest.mark.parametrize("module", ["msvae.cli", "msvae.pipelines"])
@pytest.mark.parametrize("preset", [None, "2"])
def test_cli_import_pins_blas_threads_unless_set(preset, module):
    names = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
    if preset is not None:
        env.update(dict.fromkeys(names, preset))
    code = f"import os, {module}; print(*(os.environ.get(n) for n in {names!r}))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == [preset or "1"] * len(names)


@pytest.mark.parametrize("fault", [KeyError("slot"), ad.ShapeMismatch("matmul: (2, 3) @ (4, 5)")])
def test_program_fault_exits_4_in_one_line(monkeypatch, capsys, tmp_path, fault):
    def broken(args):
        raise fault

    monkeypatch.setattr(cli, "cmd_report", broken)
    assert run_cli("report", "--runs", str(tmp_path)) == 4
    err = capsys.readouterr().err
    assert err == f"internal error: {type(fault).__name__}: {fault}\n"
