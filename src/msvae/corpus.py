"""Dataset construction, tokenization and persistence.

Corpus files are line-delimited JSON with a schema header on line one.
Trajectories are stored as (seed, tries, action ids) and observations are
re-derived by replaying the environment, which keeps files small and
guarantees consistency with the dynamics code. The four splits draw from
disjoint seed ranges of a common master seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gridworld as gw

SCHEMA_VERSION = 1
RESERVED = {"<pad>": 0, "<bos>": 1, "<eos>": 2, "<unk>": 3}

_SPLIT_OFFSETS = {"paired": 0, "unpaired": 1_000_000, "val": 2_000_000, "test": 3_000_000}
_SPLIT_SPAN = 4_000_000


class CorpusError(RuntimeError):
    pass


class Vocab:
    """Word <-> id map with reserved ids; non-reserved entries are assigned
    in sorted order so ids are stable across regenerations."""

    def __init__(self, words):
        self.id_to_word = sorted(RESERVED, key=RESERVED.get) + sorted(set(words))
        self.word_to_id = {w: i for i, w in enumerate(self.id_to_word)}
        if len(self.word_to_id) != len(self.id_to_word):
            raise CorpusError("vocabulary words collide with reserved tokens")

    def __len__(self):
        return len(self.id_to_word)

    def tokenize(self, text) -> list[int]:
        """Map a string (whitespace split) or word list to ids; unknown
        words map to <unk>."""
        words = text.split() if isinstance(text, str) else list(text)
        return [self.word_to_id.get(w, RESERVED["<unk>"]) for w in words]

    def detokenize(self, ids) -> str:
        return " ".join(self.id_to_word[i] for i in ids)

    def save(self, path):
        doc = {"version": SCHEMA_VERSION, "reserved": RESERVED, "words": self.id_to_word[len(RESERVED):]}
        Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")

    @classmethod
    def load(cls, path):
        """Read a saved vocabulary: a JSON object whose `words` is a list of
        strings; anything else raises CorpusError naming the file."""
        try:
            doc = json.loads(Path(path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as e:
            raise CorpusError(f"{path}: not JSON ({e})") from e
        words = doc.get("words") if type(doc) is dict else None
        if type(words) is not list or not {str}.issuperset(map(type, words)):
            raise CorpusError(f"{path}: expected a JSON object whose 'words' is a list of strings")
        return cls(words)


def default_vocab() -> Vocab:
    return Vocab(gw.grammar_words())


@dataclass
class Corpus:
    """A generated corpus directory, loaded into memory."""

    vocab: Vocab
    header: dict  # what every split's header says, bar its split and count
    paired: list[dict]
    unpaired: list[dict]
    val: list[dict]
    test: list[dict]

    def __post_init__(self):
        # replayed observations are 0/1; cache them bit-packed per record and
        # view so batch assembly does not re-run the environment every draw;
        # keyed by the replay's inputs, not id(record), which Python reuses
        self._obs_cache: dict[tuple, np.ndarray] = {}

    def rebuild(self, record) -> tuple[gw.World, gw.Task]:
        return gw.rebuild_task(record["seed"], record["tries"], self.header["difficulty"],
                               subgoal_weights=self.header["subgoal_weights"])

    def trajectory(self, record, view: str = "grid") -> gw.Trajectory:
        key = (record["seed"], record["tries"], tuple(record["actions"]), view)
        packed = self._obs_cache.get(key)
        if packed is None:
            world, _ = self.rebuild(record)
            _, traj = gw.rollout(world, record["actions"], view)
            self._obs_cache[key] = np.packbits(traj.observations.astype(np.uint8), axis=1)
            return traj
        obs = np.unpackbits(packed, axis=1, count=gw.OBS_VIEWS[view][1]).astype(np.float64)
        return gw.Trajectory(obs, tuple(record["actions"]))


def _end_state(world: gw.World) -> list[int]:
    carried = world.carried
    return [
        world.agent_pos[0],
        world.agent_pos[1],
        world.agent_dir,
        gw.KINDS.index(carried.kind) if carried else -1,
        gw.COLORS.index(carried.color) if carried else -1,
    ]


def _make_record(seed: int, difficulty: str, vocab: Vocab, subgoal_weights, with_tokens: bool) -> dict:
    _, task, tries, plan = gw.sample_task_record(seed, difficulty, subgoal_weights=subgoal_weights)
    rec = {"seed": seed, "tries": tries, "actions": [int(a) for a in plan], "end": _end_state(plan.end)}
    if with_tokens:
        rec["tokens"] = vocab.tokenize(gw.render_instruction(task))
    return rec


def _dump_line(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def generate(out_dir, seed: int, difficulty: str, m: int, n: int, val_tasks: int, test_tasks: int,
             subgoal_weights=gw.SUBGOAL_WEIGHTS) -> dict:
    """Write paired/unpaired/val/test jsonl files plus vocab.json.

    Splits use disjoint seed ranges derived from `seed`; regeneration with
    the same arguments is byte-identical. Returns a summary dict.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vocab = default_vocab()
    vocab.save(out / "vocab.json")

    sizes = {"paired": m, "unpaired": n, "val": val_tasks, "test": test_tasks}
    summary = {"difficulty": difficulty, "seed": seed, "vocab_size": len(vocab)}
    for split, count in sizes.items():
        with_tokens = split != "unpaired"
        base = seed * _SPLIT_SPAN + _SPLIT_OFFSETS[split]
        header = {
            "schema": "msvae-corpus",
            "version": SCHEMA_VERSION,
            "split": split,
            "difficulty": difficulty,
            "count": count,
            "master_seed": seed,
            "subgoal_weights": list(subgoal_weights),
        }
        tok_lens, act_lens = [], []
        try:
            with open(out / f"{split}.jsonl", "w") as f:
                f.write(_dump_line(header))
                for i in range(count):
                    rec = _make_record(base + i, difficulty, vocab, subgoal_weights, with_tokens)
                    act_lens.append(len(rec["actions"]))
                    if with_tokens:
                        tok_lens.append(len(rec["tokens"]))
                    f.write(_dump_line(rec))
        except OSError as e:
            raise CorpusError(f"writing {out / (split + '.jsonl')}: {e}") from e
        summary[split] = {
            "count": count,
            "mean_actions": float(np.mean(act_lens)) if act_lens else 0.0,
            "mean_tokens": float(np.mean(tok_lens)) if tok_lens else 0.0,
        }
    return summary


def _is_int(v) -> bool:
    return type(v) is int


def _is_ints(v) -> bool:
    return type(v) is list and {int}.issuperset(map(type, v))


# the keys each line must hold, with a check of their values' JSON types
_HEADER_KEYS = {"schema": lambda v: v == "msvae-corpus", "split": lambda v: type(v) is str,
                "difficulty": lambda v: type(v) is str,
                "subgoal_weights": lambda v: type(v) is list and {int, float}.issuperset(map(type, v))}
_RECORD_KEYS = {"seed": _is_int, "tries": _is_int, "actions": _is_ints, "end": _is_ints}
_PAIRED_KEYS = {**_RECORD_KEYS, "tokens": _is_ints}  # paired, val, test and pseudo-paired


def _parse_line(path: Path, lineno: int, text: str, keys: dict) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise _line_error(path, lineno, f"not JSON ({e})") from e
    if type(obj) is not dict:
        raise _line_error(path, lineno, "not a JSON object")
    for key, ok in keys.items():
        if key not in obj or not ok(obj[key]):
            raise _line_error(path, lineno, f"key {key!r} {'is missing' if key not in obj else 'has a bad value'}")
    return obj


def _line_error(path: Path, lineno: int, problem: str) -> CorpusError:
    return CorpusError(f"{path}, line {lineno}{' (schema header)' if lineno == 1 else ''}: {problem}")


def read_split(path) -> tuple[dict, list[dict]]:
    """Read a split file; every line is checked against its schema."""
    path = Path(path)
    try:
        with open(path) as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise CorpusError(f"reading {path}: {e}") from e
    if not lines:
        raise CorpusError(f"{path}: empty file, expected a schema header")
    header = _parse_line(path, 1, lines[0], _HEADER_KEYS)
    keys = _RECORD_KEYS if header["split"] == "unpaired" else _PAIRED_KEYS
    return header, [_parse_line(path, i, ln, keys) for i, ln in enumerate(lines[1:], start=2)]


def load(root) -> Corpus:
    root = Path(root)
    vocab = Vocab.load(root / "vocab.json")
    splits, shared = {}, None
    for name in ("paired", "unpaired", "val", "test"):
        header, splits[name] = read_split(root / f"{name}.jsonl")
        if header["split"] != name:
            raise CorpusError(f"{root / name}.jsonl: header names split {header['split']!r}")
        header = {k: v for k, v in header.items() if k not in ("split", "count")}
        shared = shared or header
        if header != shared:
            raise CorpusError(f"{root / name}.jsonl: header {header} differs from paired.jsonl's {shared}")
    return Corpus(vocab, shared, **splits)


def verify_record(corpus: Corpus, record) -> bool:
    """Replay the stored actions; the final state must match the record."""
    world, _ = corpus.rebuild(record)
    return _end_state(gw.replay(world, record["actions"])[-1]) == record["end"]


def write_pseudo_paired(path, records, source_header: dict, speaker_tag: str) -> None:
    """Write speaker-annotated records in the paired schema, flagged pseudo."""
    header = dict(source_header)
    header.update({"split": "paired", "pseudo": True, "speaker": speaker_tag,
                   "count": len(records)})
    with open(path, "w") as f:
        f.write(_dump_line(header))
        for rec in records:
            f.write(_dump_line(rec))
