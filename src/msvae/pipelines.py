"""The training loop and the experiment pipelines on it: supervised
baselines, the semi-supervised latent model, speaker-follower augmentation,
and simplified pragmatic inference.

Every pipeline is bit-deterministic under (seed, config, corpus): all
randomness flows from named substreams of the config seed, metrics.csv holds
only step plus the nine loss terms (wall-clock goes to timing.csv), and
checkpoints carry optimizer and rng state so runs can resume exactly.
"""

from __future__ import annotations

import json
import logging
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import corpus as corpus_mod
from . import gridworld as gw
from . import metrics as metrics_mod
from . import model as md
from . import nn

logger = logging.getLogger(__name__)

MAX_CONSECUTIVE_SKIPS = 50
SMOOTH_WINDOW = 5


class NumericFailure(RuntimeError):
    pass


@dataclass
class TrainConfig:
    seed: int = 0
    epochs: int = 60
    iters_per_epoch: int = 100
    paired_batch: int = 32
    unpaired_batch: int = 32
    hp: md.HyperParams = field(default_factory=md.HyperParams)
    model: md.ModelConfig = field(default_factory=md.ModelConfig)
    pretrain_follower: str | None = None
    pretrain_speaker: str | None = None
    eval_every: int = 1
    eval_tasks: int = 100
    arch_variant: str = "attention"  # supervised follower: attention | no_attention | bottleneck

    def model_config(self, vocab_size: int) -> md.ModelConfig:
        return replace(self.model, vocab_size=vocab_size)


@dataclass
class RunRecord:
    entries: list[dict]
    selected_epoch: int
    selected_metric: float
    metric_name: str
    checkpoint: str

    def save(self, path):
        Path(path).write_text(json.dumps(asdict(self), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# batches from corpus records


def pair_batches(records, corpus, idx, view: str = "ego") -> tuple[md.LangBatch, md.TrajBatch]:
    chosen = [records[i] for i in idx]
    lang = md.make_lang_batch([r["tokens"] for r in chosen])
    traj = md.make_traj_batch([corpus.trajectory(r, view) for r in chosen])
    return lang, traj


def traj_batch(records, corpus, idx, view: str = "ego") -> md.TrajBatch:
    return md.make_traj_batch([corpus.trajectory(records[i], view) for i in idx])


# ---------------------------------------------------------------------------
# evaluation helpers


def evaluate_follower(model, corpus, records, decoding: str = "greedy", rng=None) -> metrics_mod.EvalReport:
    eps = metrics_mod.episodes_from_records(corpus, records)
    return metrics_mod.success_rate(
        lambda ep: model.follow(ep.tokens, ep.world, mode=decoding, rng=rng, max_steps=ep.max_steps)[1], eps)


def evaluate_speaker(model, corpus, records) -> tuple[float, int]:
    hyps = [model.speak(corpus.trajectory(rec, model.cfg.obs_view))[0] for rec in records]
    return metrics_mod.bleu4(hyps, [rec["tokens"] for rec in records]), len(records)


# ---------------------------------------------------------------------------
# run directory plumbing


def _zero_report(objective: float, slot: str) -> md.LossReport:
    """Degenerate report for single-term pipelines: the objective sits in one
    cross-modal slot so the recombination identity still holds exactly."""
    terms = dict(a1=0.0, a2=0.0, b1=0.0, b2=0.0, c1=0.0, c2=0.0, v=0.0, dprime=0.0)
    terms[slot] = objective
    return md.LossReport(total=0.5 * objective, **terms)


class _Run:
    """The training loop every pipeline shares, and its state: model,
    optimizer, rng streams, step logs and checkpoints."""

    def __init__(self, cfg: TrainConfig, corpus, out_dir, pipeline: str, build_model,
                 resume_from=None):
        self.cfg = cfg
        _require_val(corpus)
        # the model and its resumed state first: a warm start or a resume
        # that fails leaves the run directory as it was
        self.model = build_model(np.random.default_rng([cfg.seed, 3]))
        self.rngs = {
            "batch": np.random.default_rng([cfg.seed, 0]),
            "loss": np.random.default_rng([cfg.seed, 1]),
        }
        words = corpus.vocab.id_to_word[len(corpus_mod.RESERVED):]
        self.meta = {**md.checkpoint_meta(self.model, words), "pipeline": pipeline}
        self.opt = ad.Adam(self.model.params(), lr=cfg.hp.learning_rate)
        self.start_epoch = 0
        self.entries: list[dict] = []
        self.best_metric = -np.inf
        self.best_epoch = -1
        self.best_params: dict[str, np.ndarray] | None = None
        self.skips = 0
        if resume_from is not None:
            self._load_state(resume_from, pipeline)

        self.out = Path(out_dir)
        (self.out / "checkpoints").mkdir(parents=True, exist_ok=True)
        config = {"pipeline": pipeline, "train": asdict(cfg)}  # the run's one record of its settings
        (self.out / "config.json").write_text(json.dumps(config, sort_keys=True) + "\n")
        elapsed = 0.0
        if resume_from is not None:
            # rows logged after the checkpoint, before a crash, are replayed
            last_step = self.start_epoch * cfg.iters_per_epoch
            _truncate_steps(self.out / "metrics.csv", last_step)
            timing = _truncate_steps(self.out / "timing.csv", last_step)
            if timing:  # the seconds column runs on from the last kept row
                elapsed = float(timing[-1].split(",")[1])
        mode = "a" if resume_from is not None else "w"
        self.metrics_f = _open_log(self.out / "metrics.csv", mode, "step," + ",".join(md.LossReport.FIELDS))
        self.timing_f = _open_log(self.out / "timing.csv", mode, "step,seconds")
        self.t0 = time.monotonic() - elapsed

    # -- the loop --------------------------------------------------------------

    def fit(self, step_loss, evaluate, metric_name: str) -> tuple[Path, RunRecord]:
        """Train the remaining epochs, then write best.bin and runrecord.json.

        step_loss(model, batch_rng, loss_rng) draws one batch and returns
        (loss node to minimize, LossReport); evaluate(model) returns the
        validation (sr, bleu); metric_name, "sr" or "bleu", picks the best
        epoch from the smoothed curve.
        """
        cfg = self.cfg
        step = self.start_epoch * cfg.iters_per_epoch
        for epoch in range(self.start_epoch, cfg.epochs):
            totals = []
            for _ in range(cfg.iters_per_epoch):
                step += 1
                loss_node, report = step_loss(self.model, self.rngs["batch"], self.rngs["loss"])
                self._apply(loss_node, report, step)
                self.metrics_f.write(f"{step}," + ",".join(repr(v) for v in report.as_row()) + "\n")
                self.timing_f.write(f"{step},{time.monotonic() - self.t0:.3f}\n")
                totals.append(report.total)
            if (epoch + 1) % cfg.eval_every == 0 or epoch == cfg.epochs - 1:
                sr, bleu = evaluate(self.model)
                self._note_eval(epoch, sr, bleu, float(np.mean(totals)), metric_name)
            self.save_state(epoch)
        return self._finish(metric_name)

    def _apply(self, loss_node, report, step: int) -> None:
        if not np.isfinite(report.total):
            self.skips += 1
            logger.warning("non-finite loss at step %d; skipped (%d consecutive)", step, self.skips)
            if self.skips >= MAX_CONSECUTIVE_SKIPS:
                raise NumericFailure(f"{self.skips} consecutive non-finite losses")
            return
        self.skips = 0
        self.opt.zero_grad()
        ad.backward(loss_node)
        self.opt.step()

    def _note_eval(self, epoch: int, sr: float, bleu: float, mean_total: float, metric_name: str):
        values = [e[metric_name] for e in self.entries] + [sr if metric_name == "sr" else bleu]
        smooth = float(np.mean(values[-SMOOTH_WINDOW:]))
        self.entries.append({"epoch": epoch, "sr": sr, "bleu": bleu,
                             "mean_total": mean_total, "smoothed": smooth})
        if smooth > self.best_metric:
            self.best_metric = smooth
            self.best_epoch = epoch
            self.best_params = {k: v.value.copy() for k, v in self.model.named_params().items()}

    def _finish(self, metric_name: str) -> tuple[Path, RunRecord]:
        self.metrics_f.close()
        self.timing_f.close()
        if self.best_params is None:  # no eval ran; fall back to final weights
            self.best_params = {k: v.value.copy() for k, v in self.model.named_params().items()}
            self.best_epoch = self.cfg.epochs - 1
            self.best_metric = 0.0
        best_path = self.out / "checkpoints" / "best.bin"
        nn.save_checkpoint(best_path, self.best_params, {**self.meta, "selected_epoch": self.best_epoch})
        record = RunRecord(
            entries=self.entries,
            selected_epoch=self.best_epoch,
            selected_metric=float(self.best_metric),
            metric_name=metric_name,
            checkpoint=str(best_path),
        )
        record.save(self.out / "runrecord.json")
        return best_path, record

    # -- state checkpoints ---------------------------------------------------

    def save_state(self, epoch: int) -> Path:
        arrays = {k: v.value for k, v in self.model.named_params().items()}
        arrays.update(self.opt.state_arrays())
        if self.best_params is not None:
            arrays.update({f"best.{k}": v for k, v in self.best_params.items()})
        path = self.out / "checkpoints" / f"epoch_{epoch:04d}.bin"
        nn.save_checkpoint(path, arrays, {
            **self.meta,
            "epoch": epoch,
            "entries": self.entries,
            "best": {"metric": float(self.best_metric), "epoch": self.best_epoch},
            "rng_states": {k: r.bit_generator.state for k, r in self.rngs.items()},
            "train_state": True,
        })
        prev = self.out / "checkpoints" / f"epoch_{epoch - 1:04d}.bin"
        if prev.exists():
            prev.unlink()
        return path

    def _load_state(self, path, pipeline: str):
        """Restore a training state, checked to be this pipeline's and to fit this model."""
        arrays, meta = nn.load_checkpoint(path)
        if not meta.get("train_state"):
            raise ValueError(f"{path} is a model-only checkpoint; cannot resume")
        if meta.get("pipeline") != pipeline:
            raise ValueError(f"{path} is a {meta.get('pipeline')} checkpoint; cannot resume it as {pipeline}")
        want = {k: v.value.shape for k, v in self.model.named_params().items()}
        want.update((k, v.shape) for k, v in self.opt.state_arrays().items())
        have = {k: v.shape for k, v in arrays.items() if not k.startswith("best.")}
        for name in sorted(want.keys() | have.keys()):
            if want.get(name) != have.get(name):
                raise ValueError(f"{path} does not fit this model: {name} has shape "
                                 f"{have.get(name, 'none')} there and {want.get(name, 'none')} here")
        self.model.load_values({k: v for k, v in arrays.items()
                                if not k.startswith(("adam.", "best."))})
        self.opt.load_state_arrays(arrays)
        for k, rng in self.rngs.items():
            rng.bit_generator.state = meta["rng_states"][k]
        self.start_epoch = meta["epoch"] + 1
        self.entries = meta["entries"]
        self.best_metric = meta["best"]["metric"]
        self.best_epoch = meta["best"]["epoch"]
        best = {k[len("best."):]: v for k, v in arrays.items() if k.startswith("best.")}
        self.best_params = best or None


def _require_val(corpus) -> None:
    """Every pipeline selects its checkpoint on val records."""
    if not corpus.val:
        raise ValueError("the corpus has an empty val split; training selects its checkpoint on val")


def _truncate_steps(path: Path, last_step: int) -> list[str]:
    """Keep the header and the whole rows of a step log up to `last_step`;
    returns the kept rows."""
    if not path.exists():  # resumed into a fresh run directory
        return []
    header, *rows = path.read_text().splitlines(keepends=True)
    keep = [r for r in rows if r.endswith("\n") and int(r.split(",", 1)[0]) <= last_step]
    path.write_text(header + "".join(keep))
    return keep


def _open_log(path: Path, mode: str, header: str):
    """Line-buffered, so a crash leaves only whole rows on disk; a new file
    starts with its header row, also when a resume appends to it."""
    f = open(path, mode, buffering=1)
    if f.tell() == 0:
        f.write(header + "\n")
    return f


def warm_start(model, ckpt_path, rename: dict[str, str] | None = None) -> list[str]:
    """Copy shape-matching parameters from a checkpoint into the model.

    `rename` maps checkpoint name prefixes onto model name prefixes (the
    speaker's observation featurizer lands on the encoder-side one).
    """
    arrays, _ = nn.load_checkpoint(ckpt_path)
    target = model.named_params()
    copied = []
    for name, arr in arrays.items():
        if name.startswith(("adam.", "best.")):
            continue
        mapped = name
        for old, new in (rename or {}).items():
            if name.startswith(old):
                mapped = new + name[len(old):]
                break
        node = target.get(mapped)
        if node is not None and node.value.shape == tuple(arr.shape):
            node.value[...] = arr
            copied.append(mapped)
    return copied


# ---------------------------------------------------------------------------
# pipelines


def _paired_batch(records, corpus, cfg: TrainConfig, rng) -> tuple[md.LangBatch, md.TrajBatch]:
    idx = rng.integers(0, len(records), size=min(cfg.paired_batch, len(records)))
    return pair_batches(records, corpus, idx, cfg.model.obs_view)


def train_supervised_follower(cfg: TrainConfig, corpus, out_dir, records=None,
                              resume_from=None, pipeline_name="supervised-follower"):
    """Imitation learning on paired records (teacher forcing).

    arch_variant picks the architecture row: attention, no_attention, or
    bottleneck (the latent architecture trained with the same IL loss).
    """
    records = corpus.paired if records is None else records
    if not records:
        raise ValueError("no paired records to train on")
    mcfg = cfg.model_config(len(corpus.vocab))

    def build(rng):
        if cfg.arch_variant == "bottleneck":
            model = md.MsVae(rng, mcfg)
        else:
            model = md.BaselineFollower(rng, mcfg, attention=cfg.arch_variant == "attention")
        if cfg.pretrain_follower:
            warm_start(model, cfg.pretrain_follower)
        return model

    def step_loss(model, batch_rng, loss_rng):
        lang, traj = _paired_batch(records, corpus, cfg, batch_rng)
        mean_ll = ad.reduce_mean(model.follower_log_likelihood(lang, traj))
        return ad.neg(mean_ll), _zero_report(float(mean_ll.value), "c2")

    def evaluate(model):
        return evaluate_follower(model, corpus, corpus.val[:cfg.eval_tasks]).sr, 0.0

    run = _Run(cfg, corpus, out_dir, pipeline_name, build, resume_from)
    return run.fit(step_loss, evaluate, "sr")


def train_supervised_speaker(cfg: TrainConfig, corpus, out_dir, resume_from=None):
    """Token cross-entropy from trajectories to instructions."""
    records = corpus.paired
    if not records:
        raise ValueError("no paired records to train on")
    mcfg = cfg.model_config(len(corpus.vocab))

    def build(rng):
        model = md.BaselineSpeaker(rng, mcfg)
        if cfg.pretrain_speaker:
            warm_start(model, cfg.pretrain_speaker)
        return model

    def step_loss(model, batch_rng, loss_rng):
        lang, traj = _paired_batch(records, corpus, cfg, batch_rng)
        mean_ll = ad.reduce_mean(model.speaker_log_likelihood(traj, lang))
        return ad.neg(mean_ll), _zero_report(float(mean_ll.value), "c1")

    def evaluate(model):
        return 0.0, evaluate_speaker(model, corpus, corpus.val[:cfg.eval_tasks])[0]

    run = _Run(cfg, corpus, out_dir, "supervised-speaker", build, resume_from)
    return run.fit(step_loss, evaluate, "bleu")


def train_msvae(cfg: TrainConfig, corpus, out_dir, resume_from=None):
    """Semi-supervised training of the shared-latent model: each iteration
    draws one paired and one unpaired batch and maximizes the combined
    objective; the domain distance is measured between the two batches'
    trajectory-encoder means."""
    if not corpus.paired:
        raise ValueError("no paired records to train on")
    mcfg = cfg.model_config(len(corpus.vocab))
    use_unpaired = cfg.unpaired_batch > 0 and len(corpus.unpaired) > 0

    def build(rng):
        model = md.MsVae(rng, mcfg)
        if cfg.pretrain_follower:
            n = warm_start(model, cfg.pretrain_follower)
            logger.info("warm start (follower): %d tensors", len(n))
        if cfg.pretrain_speaker:
            n = warm_start(model, cfg.pretrain_speaker, rename={"obs_mlp.": "enc_obs_mlp."})
            logger.info("warm start (speaker): %d tensors", len(n))
        return model

    def step_loss(model, batch_rng, loss_rng):
        lang, traj = _paired_batch(corpus.paired, corpus, cfg, batch_rng)
        unpaired = None
        if use_unpaired:
            uidx = batch_rng.integers(0, len(corpus.unpaired), size=cfg.unpaired_batch)
            unpaired = traj_batch(corpus.unpaired, corpus, uidx, cfg.model.obs_view)
        return md.total_loss(model, lang, traj, unpaired, cfg.hp, loss_rng)

    def evaluate(model):
        sr = evaluate_follower(model, corpus, corpus.val[:cfg.eval_tasks]).sr
        bleu, _ = evaluate_speaker(model, corpus, corpus.val[:min(cfg.eval_tasks, 50)])
        return sr, bleu

    run = _Run(cfg, corpus, out_dir, "msvae", build, resume_from)
    return run.fit(step_loss, evaluate, "sr")


# ---------------------------------------------------------------------------
# speaker-follower augmentation


def augment(speak_fn, corpus, out_path, speaker_tag: str) -> list[dict]:
    """Annotate every unpaired trajectory with a generated instruction.

    speak_fn(corpus, record) -> (token ids, truncated flag). Writes the
    records in the paired schema with pseudo/truncated flags and returns
    them; an empty unpaired set yields an empty (but valid) file with a
    warning.
    """
    if not corpus.unpaired:
        logger.warning("augment: unpaired set is empty; writing empty pseudo corpus")
    records = []
    for rec in corpus.unpaired:
        tokens, truncated = speak_fn(corpus, rec)
        out = dict(rec)
        out["tokens"] = [int(t) for t in tokens]
        out["pseudo"] = True
        out["truncated"] = bool(truncated)
        records.append(out)
    corpus_mod.write_pseudo_paired(out_path, records, corpus.header, speaker_tag)
    return records


def model_speak_fn(model, len_cap: int = 30):
    return lambda corpus, rec: model.speak(corpus.trajectory(rec, model.cfg.obs_view), len_cap=len_cap)


def oracle_speak_fn():
    """Grammar-perfect speaker: re-renders the generating task's instruction."""

    def fn(corpus, rec):
        _, task = corpus.rebuild(rec)
        return corpus.vocab.tokenize(gw.render_instruction(task)), False

    return fn


def train_speaker_follower(cfg: TrainConfig, corpus, out_dir, speaker_ckpt=None,
                           pipeline_name="speaker-follower"):
    """Augment the unpaired set with a speaker, then train an attention
    follower on the pseudo pairs plus the real pairs. Without speaker_ckpt
    the pipeline's speaker stage trains one in a subdirectory of out_dir."""
    _require_val(corpus)  # before the speaker stage, or the pseudo pairs, is written
    out = Path(out_dir)
    if speaker_ckpt is None:
        stage_dir, train_stage = SPEAKER_STAGES[pipeline_name]
        speaker_ckpt, _ = train_stage(cfg, corpus, out / stage_dir)
    # a speaker checkpoint that is missing or cannot speak fails before the run directory is made
    speaker, meta = md.load_model(speaker_ckpt)
    if not hasattr(speaker, "speak"):
        raise ValueError(f"checkpoint kind {meta['kind']!r} cannot speak")
    out.mkdir(parents=True, exist_ok=True)
    pseudo = augment(model_speak_fn(speaker), corpus, out / "pseudo_paired.jsonl", speaker_tag=meta["kind"])
    usable = [r for r in pseudo if r["tokens"]]
    dropped = len(pseudo) - len(usable)
    if dropped:
        logger.warning("augment: dropped %d empty pseudo instructions", dropped)
    return train_supervised_follower(replace(cfg, arch_variant="attention"), corpus, out,
                                     records=usable + corpus.paired, pipeline_name=pipeline_name)


# the five pipelines by name: three resumable trainers, and the two
# speaker-follower runs with the subdirectory and trainer of their speaker stage
TRAINERS = {"supervised-follower": train_supervised_follower,
            "supervised-speaker": train_supervised_speaker, "msvae": train_msvae}
SPEAKER_STAGES = {"speaker-follower": ("speaker_stage", train_supervised_speaker),
                  "msvae-speaker-follower": ("msvae_stage", train_msvae)}


# ---------------------------------------------------------------------------
# pragmatic inference


def pragmatic_candidates(follower, speaker, tokens, world, n_candidates: int, rng,
                         max_steps: int = 64):
    """Greedy rollout plus sampled rollouts, each scored by the speaker's
    likelihood of the given instruction."""
    greedy_traj, greedy_states = follower.follow(tokens, world, mode="greedy", max_steps=max_steps)
    candidates = [(greedy_traj, greedy_states)]
    for _ in range(n_candidates):
        candidates.append(follower.follow(tokens, world, mode="sample", rng=rng, max_steps=max_steps))
    # the follower already observed the visited states; re-encode them only
    # when the speaker sees the world through a different view
    encode = None if follower.cfg.obs_view == speaker.cfg.obs_view else md.observation_encoder(speaker.cfg)
    scores = []
    for traj, states in candidates:
        if not traj.actions:
            scores.append(-np.inf)
            continue
        seen = traj if encode is None else gw.Trajectory(encode(states[:-1]), traj.actions)
        scores.append(speaker.trajectory_language_score(seen, tokens))
    return candidates, scores


def pragmatic_infer(follower, speaker, tokens, world, n_candidates: int, rng,
                    max_steps: int = 64):
    """Pick the candidate the speaker scores highest; ties keep the greedy
    rollout (candidate 0). n_candidates=0 is plain greedy decoding."""
    if n_candidates == 0:
        return follower.follow(tokens, world, mode="greedy", max_steps=max_steps)
    candidates, scores = pragmatic_candidates(follower, speaker, tokens, world, n_candidates, rng, max_steps)
    best = int(np.argmax(scores))  # argmax keeps the first (greedy) on ties
    return candidates[best]


def evaluate_pragmatic(follower, speaker, corpus, records, n_candidates: int, rng) -> metrics_mod.EvalReport:
    eps = metrics_mod.episodes_from_records(corpus, records)
    return metrics_mod.success_rate(lambda ep: pragmatic_infer(
        follower, speaker, ep.tokens, ep.world, n_candidates, rng, ep.max_steps)[1], eps)
