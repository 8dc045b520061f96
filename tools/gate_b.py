"""Gate B: do two source trees behave the same, byte for byte?

    python tools/gate_b.py PARENT_SRC CHANGE_SRC OUT

PARENT_SRC and CHANGE_SRC are `src` directories (each holds the `msvae`
package). For each side, under OUT/parent and OUT/change, the script runs
the CLI with BLAS on one thread: `gen-data` (m=24, n=24, 8 val and 8 test
tasks) of a boss corpus, which the runs train on, and of a goto_seq corpus,
which is only compared; `train` of the five pipelines plus
`supervised-follower` with `arch_variant=no_attention` and with
`bottleneck` (3 epochs of 8 iterations, batch 6, seed 7, a small model);
`eval --mode pragmatic --candidates 3` on the msvae run and `--candidates
10` on the attention follower and on the no_attention follower (whose
initial state comes from `init_map`), each scored by the speaker run
(`--speaker-checkpoint`), so the pragmatic scoring pass batches both
speaker kinds and repeated candidates and the cached pragmatic rollouts
run every follower memory; `eval --mode speak` on the speaker
run, and `eval --mode follow` on the attention follower (with
`eval.decoding=sample`) and on the no_attention follower, so every decoder
variant is decoded by an eval. It then prints `same` or `DIFF` for
every file of both corpora and, in every run directory and stage
subdirectory, `metrics.csv`, `best.bin`, `pseudo_paired.jsonl` and
`runrecord.json`, and for every eval json file; in `runrecord.json` and the
eval json the side's output directory is replaced by a placeholder before
comparing. A `metrics.csv` or `runrecord.json` that differs also gets the
largest relative difference over its numbers, so a numeric fast path can
show how far its loss curve and its recorded scores moved (or a note that
the two files do not line up value for value). A `best.bin` that differs
gets a note that says whether every parameter array is byte-identical (or
how many differ, and the largest relative difference over their values) and
lists the dotted metadata keys that differ, so a change that only renames
or drops a recorded setting shows as such. Exits 1 on any `DIFF` or failed
command, 2 on bad arguments, 0 otherwise.
"""

from __future__ import annotations

import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

CORPUS_SETS = ["corpus.m=24", "corpus.n=24", "corpus.val_tasks=8", "corpus.test_tasks=8"]
# corpus directory -> extra settings; the runs train on the first
CORPORA = {"corpus": [], "corpus-goto_seq": ["corpus.difficulty=goto_seq"]}
TRAIN_SETS = ["train.epochs=3", "train.iters_per_epoch=8", "train.paired_batch=6", "train.unpaired_batch=6",
              "train.seed=7", "model.hidden=16", "model.word_emb=8", "model.action_emb=4", "model.attn_dim=8",
              "model.cell_dim=4", "model.obs_hidden=8", "train.k_slots=2", "train.latent_dim=8",
              "model.prior_hidden=8"]
# run directory -> (pipeline, extra settings)
RUNS = {
    "supervised-follower": ("supervised-follower", []),
    "supervised-follower-no_attention": ("supervised-follower", ["train.arch_variant=no_attention"]),
    "supervised-follower-bottleneck": ("supervised-follower", ["train.arch_variant=bottleneck"]),
    "supervised-speaker": ("supervised-speaker", []),
    "msvae": ("msvae", []),
    "speaker-follower": ("speaker-follower", []),
    "msvae-speaker-follower": ("msvae-speaker-follower", []),
}
# eval json -> (checkpoint's run, mode, extra arguments); {out} is the side's directory
EVALS = {
    "eval_pragmatic.json": ("msvae", "pragmatic", ["--candidates", "3"]),
    "eval_pragmatic_speaker.json": ("supervised-follower", "pragmatic",
                                    ["--candidates", "10", "--speaker-checkpoint",
                                     "{out}/supervised-speaker/checkpoints/best.bin"]),
    "eval_pragmatic_no_attention.json": ("supervised-follower-no_attention", "pragmatic",
                                         ["--candidates", "10", "--speaker-checkpoint",
                                          "{out}/supervised-speaker/checkpoints/best.bin"]),
    "eval_speak.json": ("supervised-speaker", "speak", []),
    "eval_follow_sample.json": ("supervised-follower", "follow", ["--set", "eval.decoding=sample"]),
    "eval_follow_no_attention.json": ("supervised-follower-no_attention", "follow", []),
}
RUN_FILES = ("metrics.csv", "best.bin", "pseudo_paired.jsonl", "runrecord.json")
PATH_FILES = ("runrecord.json", *EVALS)  # files that record paths under the output directory


def _sets(settings):
    return [arg for s in settings for arg in ("--set", s)]


def run_side(src: Path, out: Path) -> None:
    """Every command of the recipe, from the msvae package under src."""
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}

    def cli(*argv):
        print(f"[{out.name}] msvae {' '.join(argv[:3])}", flush=True)
        subprocess.run([sys.executable, "-m", "msvae", *argv], env=env, check=True, stdout=subprocess.DEVNULL)

    for name, extra in CORPORA.items():
        cli("gen-data", "--out", str(out / name), *_sets(CORPUS_SETS + extra))
    corpus = out / "corpus"
    for name, (pipeline, extra) in RUNS.items():
        cli("train", "--pipeline", pipeline, "--corpus", str(corpus), "--out", str(out / name),
            *_sets(TRAIN_SETS + extra))
    for name, (run, mode, extra) in EVALS.items():
        cli("eval", "--mode", mode, *(a.format(out=out) for a in extra),
            "--checkpoint", str(out / run / "checkpoints" / "best.bin"),
            "--corpus", str(corpus), "--out", str(out / name))


def compared_files(out: Path) -> list[Path]:
    """The files the gate compares, relative to one side's directory."""
    files = [p for name in CORPORA for p in (out / name).iterdir() if p.is_file()]
    files += [p for p in out.rglob("*") if p.name in RUN_FILES]
    files += [out / name for name in EVALS]
    return sorted(p.relative_to(out) for p in files)


def content(side: Path, rel: Path) -> bytes | None:
    path = side / rel
    if not path.exists():
        return None
    data = path.read_bytes()
    if rel.name in PATH_FILES:
        data = data.replace(str(side).encode(), b"<OUT>")
    return data


def _worst(pairs) -> float:
    """The largest |a - b| / max(|a|, |b|) over pairs of numbers (inf where
    only one is finite or nan); 0.0 if every pair is equal."""
    worst = 0.0
    for a, b in pairs:
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        finite = math.isfinite(a) and math.isfinite(b)
        worst = max(worst, abs(a - b) / max(abs(a), abs(b)) if finite else math.inf)
    return worst


def max_rel_diff(before: bytes, after: bytes) -> float | None:
    """The largest relative difference (see _worst) over the numeric cells of
    two csv files; None unless both have the same shape and the same text in
    every cell that is not a number."""
    rows = [[line.split(",") for line in data.decode().splitlines()] for data in (before, after)]
    if [len(r) for r in rows[0]] != [len(r) for r in rows[1]]:
        return None
    pairs = []
    for cell_a, cell_b in zip(*(sum(r, []) for r in rows)):
        try:
            pairs.append((float(cell_a), float(cell_b)))
        except ValueError:
            if cell_a != cell_b:
                return None
    return _worst(pairs)


def _leaves(doc, path=()):
    """A JSON document's leaves as (path, value) pairs, in document order."""
    if isinstance(doc, dict):
        for k, v in doc.items():
            yield from _leaves(v, (*path, k))
    elif isinstance(doc, list):
        for i, v in enumerate(doc):
            yield from _leaves(v, (*path, i))
    else:
        yield path, doc


def json_max_rel_diff(before: bytes, after: bytes) -> float | None:
    """The largest relative difference (see _worst) over the numbers of two
    JSON documents; None unless both have the same keys, list lengths and
    values that are not numbers (a bool is not a number)."""
    try:
        leaves = [list(_leaves(json.loads(data))) for data in (before, after)]
    except ValueError:
        return None
    if [p for p, _ in leaves[0]] != [p for p, _ in leaves[1]]:
        return None
    pairs = []
    for (_, a), (_, b) in zip(*leaves):
        if {type(a), type(b)} <= {int, float}:
            pairs.append((float(a), float(b)))
        elif a != b or type(a) is not type(b):
            return None
    return _worst(pairs)


def read_checkpoint(data: bytes) -> tuple[dict, dict[str, bytes]] | None:
    """A checkpoint's metadata and the bytes of each named array, read with
    the standard library: the MSVCKPT1 magic, an 8-byte little-endian header
    length, the JSON header, then the float64 body. None if `data` is not a
    whole checkpoint."""
    if data[:8] != b"MSVCKPT1" or len(data) < 16:
        return None
    (length,) = struct.unpack("<Q", data[8:16])
    try:
        header = json.loads(data[16 : 16 + length])
    except ValueError:
        return None
    body = data[16 + length :]
    arrays = {}
    for e in header["entries"]:
        arrays[e["name"]] = body[e["offset"] : e["offset"] + 8 * math.prod(e["shape"])]
    return header["meta"], arrays


def _dotted(doc, prefix: str = "") -> dict:
    """Nested metadata -> {dotted key: value}; lists are values."""
    if not isinstance(doc, dict) or not doc:
        return {prefix[:-1]: doc}
    out = {}
    for k, v in doc.items():
        out.update(_dotted(v, f"{prefix}{k}."))
    return out


def checkpoint_note(before: bytes, after: bytes) -> str:
    """What differs between two checkpoints: their parameter arrays, byte
    for byte, and the dotted metadata keys whose values differ."""
    read = [read_checkpoint(data) for data in (before, after)]
    if None in read:
        return "  (not both checkpoints)"
    (meta_a, arrays_a), (meta_b, arrays_b) = read
    changed = sorted(k for k in arrays_a.keys() | arrays_b.keys() if arrays_a.get(k) != arrays_b.get(k))
    arrays = "every parameter array byte-identical"
    if changed:
        arrays = f"{len(changed)} of {len(arrays_a.keys() | arrays_b.keys())} arrays differ, first {changed[0]}"
        values = [[struct.unpack(f"<{len(d) // 8}d", d) for d in (arrays_a.get(k, b""), arrays_b.get(k, b""))]
                  for k in changed]
        if all(len(a) == len(b) for a, b in values):
            arrays += f", max relative difference {_worst(pair for a, b in values for pair in zip(a, b)):.3g}"
        else:
            arrays += ", not all of the same size"
    flat_a, flat_b = _dotted(meta_a), _dotted(meta_b)
    keys = sorted(k for k in flat_a.keys() | flat_b.keys() if flat_a.get(k, ...) != flat_b.get(k, ...))
    return f"  ({arrays}; metadata differs at {', '.join(keys) or 'no key'})"


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print("usage: python tools/gate_b.py PARENT_SRC CHANGE_SRC OUT", file=sys.stderr)
        return 2
    parent_src, change_src, out = (Path(a).resolve() for a in argv)
    sides = [(parent_src, out / "parent"), (change_src, out / "change")]
    for src, side in sides:
        if not (src / "msvae").is_dir():
            print(f"{src} holds no msvae package", file=sys.stderr)
            return 2
        if side.exists():
            print(f"{side} exists; give a new OUT", file=sys.stderr)
            return 2
    try:
        for src, side in sides:
            side.mkdir(parents=True)
            run_side(src, side)
    except subprocess.CalledProcessError as e:
        print(f"command failed with exit {e.returncode}: {' '.join(e.cmd)}", file=sys.stderr)
        return 1
    parent, change = (side for _, side in sides)
    diffs = 0
    for rel in sorted(set(compared_files(parent)) | set(compared_files(change))):
        before, after = content(parent, rel), content(change, rel)
        same = before is not None and before == after
        diffs += not same
        note = ""
        if not same and rel.name == "metrics.csv" and before is not None and after is not None:
            worst = max_rel_diff(before, after)
            note = "  (cells do not line up)" if worst is None else f"  (max relative difference {worst:.3g})"
        if not same and rel.name == "best.bin" and before is not None and after is not None:
            note = checkpoint_note(before, after)
        if not same and rel.name == "runrecord.json" and before is not None and after is not None:
            worst = json_max_rel_diff(before, after)
            note = "  (values do not line up)" if worst is None else f"  (max relative difference {worst:.3g})"
        print(f"{'same' if same else 'DIFF'}  {rel}{note}")
    print(f"{diffs} of the compared files differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
