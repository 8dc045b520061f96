"""Command-line surface: gen-data, train, eval, report.

Batch operation only; every command is deterministic under fixed flags and
seeds, and every output artifact embeds the configuration it ran with.
Exit codes: 0 ok, 1 usage, 2 data error, 3 numeric failure, 4 internal error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import config as cfg_mod
from . import corpus as corpus_mod
from . import gridworld as gw
from . import metrics as metrics_mod
from . import model as md
from . import pipelines as pl

logger = logging.getLogger(__name__)


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _compare_pair(text: str) -> tuple[str, str]:
    """`A:B` -> (A, B): exactly two non-empty condition names."""
    parts = text.split(":")
    if len(parts) != 2 or not all(parts):
        raise argparse.ArgumentTypeError(f"{text!r} is not A:B with two condition names")
    return parts[0], parts[1]


def _add_common(p):
    p.add_argument("--preset", default="desk_scale", choices=sorted(cfg_mod.PRESETS))
    p.add_argument("--config", default=None, help="JSON config file merged over the preset")
    p.add_argument("--set", dest="overrides", action="append", default=[],
                   metavar="KEY=VALUE", help="dot-path config override")


def build_parser() -> _Parser:
    parser = _Parser(prog="msvae", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="generate a corpus directory")
    _add_common(g)
    g.add_argument("--out", required=True)

    t = sub.add_parser("train", help="run a training pipeline")
    _add_common(t)
    t.add_argument("--pipeline", required=True, choices=(*pl.TRAINERS, *pl.SPEAKER_STAGES))
    t.add_argument("--corpus", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--resume", default=None, help="training-state checkpoint to resume from")
    t.add_argument("--speaker-checkpoint", default=None,
                   help="reuse a trained speaker for the speaker-follower pipelines")

    e = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(e)
    e.add_argument("--checkpoint", required=True, help="model checkpoint, or 'oracle' for the harness self-test")
    e.add_argument("--corpus", required=True)
    e.add_argument("--mode", required=True, choices=("follow", "speak", "pragmatic"))
    e.add_argument("--candidates", dest="overrides", action="append", type="eval.candidates={}".format,
                   metavar="N", help="shorthand for --set eval.candidates=N")
    e.add_argument("--speaker-checkpoint", default=None)
    e.add_argument("--out", default=None, help="eval.json path (default: next to the checkpoint's run)")

    r = sub.add_parser("report", help="aggregate run directories into a markdown table")
    r.add_argument("--runs", nargs="+", required=True)
    r.add_argument("--compare", action="append", default=[], metavar="A:B", type=_compare_pair,
                   help="one-sided t-test of condition A > condition B")
    r.add_argument("--out", default=None)
    return parser


# ---------------------------------------------------------------------------
# commands


def cmd_gen_data(args) -> int:
    doc = cfg_mod.resolve(args.preset, args.config, args.overrides)
    c = doc["corpus"]
    summary = corpus_mod.generate(args.out, **c)
    Path(args.out, "config.json").write_text(json.dumps(doc, sort_keys=True) + "\n")
    print(f"corpus at {args.out}: M={c['m']} N={c['n']} vocab={summary['vocab_size']}")
    for split in ("paired", "unpaired", "val", "test"):
        s = summary[split]
        print(f"  {split}: count={s['count']} mean_actions={s['mean_actions']:.2f} "
              f"mean_tokens={s['mean_tokens']:.2f}")
    for name in ("paired.jsonl", "unpaired.jsonl", "val.jsonl", "test.jsonl", "vocab.json"):
        print(f"  sha256 {name} {_sha256(Path(args.out) / name)}")
    return 0


def cmd_train(args) -> int:
    doc = cfg_mod.resolve(args.preset, args.config, args.overrides)
    if args.resume is not None and args.pipeline not in pl.TRAINERS:
        raise UsageError(f"--resume works only with the {', '.join(pl.TRAINERS)} pipelines")
    if args.speaker_checkpoint is not None and args.pipeline not in pl.SPEAKER_STAGES:
        raise UsageError(f"--speaker-checkpoint works only with the {', '.join(pl.SPEAKER_STAGES)} pipelines")
    tc = cfg_mod.train_config(doc)
    corpus = corpus_mod.load(args.corpus)
    if args.pipeline in pl.TRAINERS:
        ck, rec = pl.TRAINERS[args.pipeline](tc, corpus, args.out, resume_from=args.resume)
    else:
        ck, rec = pl.train_speaker_follower(tc, corpus, args.out, args.speaker_checkpoint,
                                            pipeline_name=args.pipeline)
    print(f"pipeline={args.pipeline} selected_epoch={rec.selected_epoch} "
          f"{rec.metric_name}={rec.selected_metric:.4f} checkpoint={ck}")
    return 0


def _require_kind(model, verb: str) -> None:
    if not hasattr(model, verb):
        raise UsageError(f"checkpoint kind {model.kind!r} cannot {verb}")


def cmd_eval(args) -> int:
    doc = cfg_mod.resolve(args.preset, args.config, args.overrides)
    ev = doc["eval"]
    if args.speaker_checkpoint is not None and not (args.mode == "pragmatic" and ev["candidates"] > 0):
        raise UsageError("--speaker-checkpoint works only with --mode pragmatic and --candidates > 0")
    corpus = corpus_mod.load(args.corpus)
    recs = getattr(corpus, ev["split"])[:ev["limit"]]
    rng = np.random.default_rng(ev["seed"])
    sr, bleu, rep = 0.0, 0.0, None

    if args.checkpoint == "oracle":
        if args.mode != "follow":
            raise UsageError("the oracle sentinel only follows")
        rep = metrics_mod.success_rate(lambda ep: gw.replay(ep.world, gw.oracle_solve(ep.world, ep.task)),
                                       metrics_mod.episodes_from_records(corpus, recs))
        out_path = Path(args.out or "eval.json")
    else:
        model, _ = md.load_model(args.checkpoint)
        _require_kind(model, "speak" if args.mode == "speak" else "follow")
        if args.mode == "speak":
            bleu, n = pl.evaluate_speaker(model, corpus, recs)
        elif args.mode == "follow":
            rep = pl.evaluate_follower(model, corpus, recs, decoding=ev["decoding"], rng=rng)
        else:
            if ev["candidates"] == 0:
                speaker = None  # plain greedy decoding scores no candidates
            elif args.speaker_checkpoint:
                speaker, _ = md.load_model(args.speaker_checkpoint)
                _require_kind(speaker, "speak")
            elif hasattr(model, "speak"):
                speaker = model
            else:
                raise UsageError("pragmatic mode needs --speaker-checkpoint for a plain follower")
            rep = pl.evaluate_pragmatic(model, speaker, corpus, recs, ev["candidates"], rng)
        out_path = Path(args.out or Path(args.checkpoint).parent.parent / "eval.json")
    if rep is not None:
        sr, n = rep.sr, rep.n_episodes

    metrics_mod.write_eval_json(
        out_path, sr=sr, bleu=bleu, n_episodes=n, seed=ev["seed"], checkpoint=args.checkpoint,
        extra={"mode": args.mode, "split": ev["split"], "corpus": str(args.corpus),
               "candidates": ev["candidates"] if args.mode == "pragmatic" else None,
               "config": doc},
    )
    print(f"mode={args.mode} n={n} SR={sr:.4f} BLEU={bleu:.4f} -> {out_path}")
    return 0


def _load_run(run_dir: Path) -> dict:
    out = {"dir": str(run_dir)}
    cfg_path = run_dir / "config.json"
    out["config"] = json.loads(cfg_path.read_text()) if cfg_path.exists() else {}
    rr = run_dir / "runrecord.json"
    out["runrecord"] = json.loads(rr.read_text()) if rr.exists() else None
    ej = run_dir / "eval.json"
    out["eval"] = json.loads(ej.read_text()) if ej.exists() else None
    return out


def _condition(run: dict) -> str:
    return run["config"].get("pipeline", "unknown")


def _score(run: dict) -> tuple[float, float]:
    """(SR, BLEU) for aggregation; prefers test eval.json over val record."""
    if run["eval"] is not None:
        return float(run["eval"]["sr"]), float(run["eval"]["bleu4"])
    rr = run["runrecord"]
    if rr is None:
        raise cfg_mod.ConfigError(f"run {run['dir']} has neither eval.json nor runrecord.json")
    best = max(rr["entries"], key=lambda e: e["smoothed"]) if rr["entries"] else {"sr": 0.0, "bleu": 0.0}
    return float(best["sr"]), float(best["bleu"])


def cmd_report(args) -> int:
    runs = [_load_run(Path(d)) for d in args.runs]
    groups: dict[str, list[dict]] = {}
    for run in runs:
        groups.setdefault(_condition(run), []).append(run)

    for name, rs in groups.items():
        sources = {(r["eval"] or {}).get("corpus") for r in rs if r["eval"]}
        if len(sources) > 1:
            logger.warning("condition %s aggregates runs on different corpora: %s", name, sources)

    lines = ["| condition | seeds | SR | BLEU |", "|---|---|---|---|"]
    scores: dict[str, dict[str, list[float]]] = {}
    for name in sorted(groups):
        srs, bleus = zip(*(_score(r) for r in groups[name]))
        scores[name] = {"sr": list(srs), "bleu": list(bleus)}
        lines.append(
            f"| {name} | {len(srs)} | {np.mean(srs):.3f} ± {np.std(srs, ddof=min(1, len(srs) - 1)):.3f} "
            f"| {np.mean(bleus):.4f} ± {np.std(bleus, ddof=min(1, len(bleus) - 1)):.4f} |"
        )
    for a, b in args.compare:
        if a not in scores or b not in scores:
            raise UsageError(f"--compare {a}:{b}: unknown condition")
    if args.compare and any(len(g) >= 2 for g in groups.values()):
        lines.append("")
        for a, b in args.compare:
            if len(scores[a]["sr"]) < 2 or len(scores[b]["sr"]) < 2:
                lines.append(f"p(SR {a} > {b}): needs >= 2 seeds per side")
                continue
            p = metrics_mod.t_test_one_sided(scores[a]["sr"], scores[b]["sr"])
            lines.append(f"p(SR {a} > {b}) = {p:.3g}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    print(text, end="")
    return 0


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "gen-data":
            return cmd_gen_data(args)
        if args.command == "train":
            return cmd_train(args)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "report":
            return cmd_report(args)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, cfg_mod.ConfigError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except ad.ShapeMismatch as e:  # a ValueError, but no input can cause one
        fault = e
    except (corpus_mod.CorpusError, FileNotFoundError, ValueError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2
    except pl.NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3
    except Exception as e:  # a fault in the program: one line, no traceback
        fault = e
    print(f"internal error: {type(fault).__name__}: {fault}", file=sys.stderr)
    return 4


if __name__ == "__main__":
    sys.exit(main())
