import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvae import cli, corpus, gridworld as gw


@pytest.fixture(scope="module")
def small_corpus_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    corpus.generate(root, seed=7, difficulty="boss", m=20, n=30, val_tasks=5, test_tasks=5)
    return root


class TestVocab:
    def test_reserved_ids(self):
        v = corpus.default_vocab()
        assert corpus.RESERVED == {"<pad>": 0, "<bos>": 1, "<eos>": 2, "<unk>": 3}
        assert all(v.word_to_id[w] == i for w, i in corpus.RESERVED.items())

    def test_empty_string(self):
        assert corpus.default_vocab().tokenize("") == []

    def test_unknown_word_maps_to_unk(self):
        v = corpus.default_vocab()
        assert v.tokenize("go to the warp zone") [3] == corpus.RESERVED["<unk>"]

    def test_ids_stable_across_builds(self):
        a = corpus.default_vocab()
        b = corpus.Vocab(list(reversed(gw.grammar_words())))
        assert a.id_to_word == b.id_to_word

    def test_save_load_round_trip(self, tmp_path):
        v = corpus.default_vocab()
        v.save(tmp_path / "vocab.json")
        v2 = corpus.Vocab.load(tmp_path / "vocab.json")
        assert v.id_to_word == v2.id_to_word


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10_000))
def test_tokenize_round_trip_over_rendered_tasks(seed):
    v = corpus.default_vocab()
    _, task = gw.rebuild_task(seed, 0, "boss")
    text = " ".join(gw.render_instruction(task))
    assert v.detokenize(v.tokenize(text)) == text


class TestGenerate:
    def test_files_and_counts(self, small_corpus_dir):
        c = corpus.load(small_corpus_dir)
        assert (len(c.paired), len(c.unpaired), len(c.val), len(c.test)) == (20, 30, 5, 5)
        assert c.header["difficulty"] == "boss"

    def test_unpaired_has_no_tokens(self, small_corpus_dir):
        c = corpus.load(small_corpus_dir)
        assert all("tokens" not in r for r in c.unpaired)
        assert all("tokens" in r for r in c.paired)

    def test_seed_ranges_disjoint(self, small_corpus_dir):
        c = corpus.load(small_corpus_dir)
        seeds = [r["seed"] for split in (c.paired, c.unpaired, c.val, c.test) for r in split]
        assert len(seeds) == len(set(seeds))

    def test_m_zero_valid_header(self, tmp_path):
        corpus.generate(tmp_path, seed=1, difficulty="goto_seq", m=0, n=3, val_tasks=2, test_tasks=2)
        header, records = corpus.read_split(tmp_path / "paired.jsonl")
        assert header["count"] == 0 and records == []
        c = corpus.load(tmp_path)
        assert c.paired == []

    def test_regeneration_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        corpus.generate(a, seed=5, difficulty="boss", m=8, n=8, val_tasks=3, test_tasks=3)
        corpus.generate(b, seed=5, difficulty="boss", m=8, n=8, val_tasks=3, test_tasks=3)
        for name in ("paired.jsonl", "unpaired.jsonl", "val.jsonl", "test.jsonl", "vocab.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_every_stored_trajectory_replays(self, small_corpus_dir):
        c = corpus.load(small_corpus_dir)
        for split in (c.paired, c.unpaired, c.val, c.test):
            for rec in split:
                assert corpus.verify_record(c, rec)

    def test_stored_trajectories_succeed(self, small_corpus_dir):
        c = corpus.load(small_corpus_dir)
        for rec in c.paired:
            world, task = c.rebuild(rec)
            states, _ = gw.rollout(world, rec["actions"])
            assert gw.check_success(states, task)

    def test_tokens_match_rendered_instruction(self, small_corpus_dir):
        c = corpus.load(small_corpus_dir)
        for rec in c.paired:
            _, task = c.rebuild(rec)
            assert rec["tokens"] == c.vocab.tokenize(gw.render_instruction(task))

    def test_trajectory_materializes(self, small_corpus_dir):
        c = corpus.load(small_corpus_dir)
        traj = c.trajectory(c.paired[0])
        assert traj.observations.shape == (len(traj.actions), gw.obs_dim())

    def test_observation_cache_keyed_by_content(self, small_corpus_dir):
        c = corpus.load(small_corpus_dir)
        a, b = c.paired[0], c.paired[1]
        first = c.trajectory(dict(a), "ego")
        again = c.trajectory(dict(a), "ego")  # a distinct dict with equal content
        assert len(c._obs_cache) == 1
        np.testing.assert_array_equal(first.observations, again.observations)
        other = c.trajectory(dict(b), "ego")
        assert len(c._obs_cache) == 2
        fresh = corpus.load(small_corpus_dir).trajectory(b, "ego")
        np.testing.assert_array_equal(other.observations, fresh.observations)
        assert other.actions == fresh.actions

    def test_custom_subgoal_weights_persisted(self, tmp_path):
        w = (0.0, 0.0, 0.0, 1.0)
        corpus.generate(tmp_path, seed=2, difficulty="boss", m=4, n=0, val_tasks=1, test_tasks=1,
                        subgoal_weights=w)
        c = corpus.load(tmp_path)
        assert tuple(c.header["subgoal_weights"]) == w
        for rec in c.paired:
            _, task = c.rebuild(rec)
            assert len(task.subgoals) == 4

    def test_header_required(self, tmp_path):
        bad = tmp_path / "paired.jsonl"
        bad.write_text(json.dumps({"seed": 1}) + "\n")
        with pytest.raises(corpus.CorpusError, match="header"):
            corpus.read_split(bad)


class TestRecordCheck:
    """corpus.load checks every line against its split's schema."""

    def _damage(self, src, split: str, lineno: int, text: str) -> Path:
        lines = (src / f"{split}.jsonl").read_text().splitlines()
        lines[lineno - 1] = text
        dst = Path(tempfile.mkdtemp(dir=src.parent))
        shutil.copytree(src, dst, dirs_exist_ok=True)
        (dst / f"{split}.jsonl").write_text("\n".join(lines) + "\n")
        return dst

    def _record(self, root, split: str, lineno: int) -> dict:
        return json.loads((root / f"{split}.jsonl").read_text().splitlines()[lineno - 1])

    def test_paired_record_without_tokens(self, small_corpus_dir):
        rec = self._record(small_corpus_dir, "paired", 3)
        del rec["tokens"]
        root = self._damage(small_corpus_dir, "paired", 3, json.dumps(rec))
        with pytest.raises(corpus.CorpusError, match=r"paired\.jsonl, line 3: key 'tokens' is missing"):
            corpus.load(root)

    def test_cut_line_names_the_file(self, small_corpus_dir):
        text = (small_corpus_dir / "val.jsonl").read_text().splitlines()[1]
        root = self._damage(small_corpus_dir, "val", 2, text[: len(text) // 2])
        with pytest.raises(corpus.CorpusError, match=r"val\.jsonl, line 2: not JSON"):
            corpus.load(root)

    @pytest.mark.parametrize("key, value", [("subgoal_weights", "x"), ("difficulty", None), ("split", "val")])
    def test_bad_header(self, small_corpus_dir, key, value):
        header = self._record(small_corpus_dir, "test", 1)
        header[key] = value
        root = self._damage(small_corpus_dir, "test", 1, json.dumps(header))
        with pytest.raises(corpus.CorpusError, match=r"test\.jsonl"):
            corpus.load(root)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_damaged_record_raises_corpus_error(self, small_corpus_dir, data):
        split = data.draw(st.sampled_from(["paired", "unpaired", "val", "test"]))
        lines = (small_corpus_dir / f"{split}.jsonl").read_text().splitlines()
        lineno = data.draw(st.integers(2, len(lines)))
        rec = json.loads(lines[lineno - 1])
        keys = ["seed", "tries", "actions", "end"] + ([] if split == "unpaired" else ["tokens"])
        damage = data.draw(st.sampled_from(["delete", "retype", "cut"]))
        if damage == "cut":
            text = lines[lineno - 1][: data.draw(st.integers(0, len(lines[lineno - 1]) - 1))]
        else:
            key = data.draw(st.sampled_from(keys))
            if damage == "delete":
                del rec[key]
            else:  # wrong for an int and for a list of ints alike
                rec[key] = data.draw(st.sampled_from(["x", 1.5, True, None, {}, [True], [1.5], ["1"]]))
            text = json.dumps(rec)
        root = self._damage(small_corpus_dir, split, lineno, text)
        with pytest.raises(corpus.CorpusError):
            corpus.load(root)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = cli.main(["eval", "--checkpoint", "oracle", "--corpus", str(root), "--mode", "follow",
                             "--out", str(root / "eval.json")])
        assert code == 2
        assert err.getvalue().startswith("data error: ") and err.getvalue().count("\n") == 1
        assert "Traceback" not in err.getvalue()

    @pytest.mark.parametrize("key, value", [("difficulty", "goto_seq"), ("master_seed", 8)])
    def test_split_header_disagreeing_with_the_others(self, small_corpus_dir, tmp_path, capsys, key, value):
        header = self._record(small_corpus_dir, "val", 1)
        assert header[key] != value
        header[key] = value
        root = self._damage(small_corpus_dir, "val", 1, json.dumps(header))
        with pytest.raises(corpus.CorpusError, match=r"val\.jsonl"):
            corpus.load(root)
        out = tmp_path / "run"
        assert cli.main(["train", "--pipeline", "supervised-follower", "--corpus", str(root),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and "val.jsonl" in err
        assert not out.exists()


class TestPseudoPaired:
    def test_write_read(self, small_corpus_dir, tmp_path):
        c = corpus.load(small_corpus_dir)
        header, _ = corpus.read_split(small_corpus_dir / "unpaired.jsonl")
        recs = []
        for rec in c.unpaired[:5]:
            out = dict(rec)
            out["tokens"] = [4, 5, 6]
            out["pseudo"] = True
            recs.append(out)
        path = tmp_path / "pseudo.jsonl"
        corpus.write_pseudo_paired(path, recs, header, speaker_tag="test-speaker")
        h2, r2 = corpus.read_split(path)
        assert h2["pseudo"] is True and h2["speaker"] == "test-speaker"
        assert len(r2) == 5 and all(r["tokens"] == [4, 5, 6] for r in r2)
