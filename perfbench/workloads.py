"""The three benchmark workloads.

Each is a closed loop: one caller in one process, every call started after
the previous one returned. Outputs are checked against `reference.json`, and
every failed check, skipped training step or failed record verification
counts toward `failed`.

Every workload runs a fixed set of inputs, and the workload seed orders the
eval and gen pools. Their cost per operation depends strongly on the inputs
(a training step on its batches' trajectory lengths, a gen cycle on its
corpus), so inputs drawn from the seed would make runs on different seeds
differ by more than the benchmark's bounds on the inputs alone.

Why these three:
- train-msvae: forward, backward and Adam in autodiff/nn/model do most of
  the work; this is the cost of a desk-scale training run.
- eval-rollout: batch-size-1, forward-only graph building interleaved with
  gridworld steps and observation encoding; no backward and no Adam.
- gen-corpus: gridworld task sampling, the BFS oracle, dynamics and
  observation encoding plus corpus file I/O; no autodiff at all.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from msvae import autodiff
from msvae import corpus as corpus_mod
from msvae import model as md
from msvae import nn
from msvae import pipelines as pl

# Operations are timed in CPU seconds of this process. The program runs on one
# thread, so on an idle machine this is its wall time; on a shared host it
# leaves out the stretches in which the host runs someone else on our vCPU
# (steal), which wall time would count and which change from run to run.
clock = time.process_time
wall_clock = time.perf_counter  # only to fit passes into --seconds

RECOMBINE_RTOL = 1e-9  # LossReport.recombine identity, relative
CURVE_RTOL = 1e-9  # loss curve against the stored reference (the fast-path tolerance)

SIZES = {
    # paired split small (draws mostly hit Corpus's observation cache), unpaired
    # split large (most draws miss it); val holds one epoch's eval episodes.
    "train-msvae": {
        "full": dict(difficulty="boss", corpus_seed=0, train_seed=0, m=16, n=800, val=2,
                     iters_per_epoch=2, eval_tasks=2, paired_batch=32, unpaired_batch=32),
        "tiny": dict(difficulty="boss", corpus_seed=0, train_seed=0, m=6, n=12, val=2,
                     iters_per_epoch=2, eval_tasks=2, paired_batch=4, unpaired_batch=4),
    },
    # a fixed held-out pool and a fixed-seed model; the seed orders the pool
    "eval-rollout": {
        "full": dict(difficulty="boss", pool_seed=7, pool=8, model_seed=0, candidates=4),
        "tiny": dict(difficulty="boss", pool_seed=7, pool=3, model_seed=0, candidates=2),
    },
    # a fixed pool of small corpora (master seeds first_seed ..); the seed orders it
    "gen-corpus": {
        "full": dict(difficulty="boss", first_seed=100, cycles=8, m=5, n=40, val=3, test=3),
        "tiny": dict(difficulty="boss", first_seed=100, cycles=2, m=2, n=4, val=2, test=2),
    },
}


@dataclass
class Harness:
    """What a workload gets from the command line and the process."""

    workload: str
    seed: int
    seconds: float
    tiny: bool
    trace: object | None  # a tracer.Tracer in traced runs
    ref: dict  # this workload's stored reference, {} if none
    record: bool  # store outputs as the new reference instead of checking
    work: Path  # scratch directory for this run
    import_s: float
    setup_reps: int

    @property
    def sizes(self) -> dict:
        return SIZES[self.workload]["tiny" if self.tiny else "full"]

    def budget(self, passes: int | None) -> float:
        """Seconds to fill with passes: all of them, half in a traced run, and
        no limit when the number of passes is fixed."""
        if passes is not None:
            return math.inf
        return self.seconds / 2 if self.trace is not None else self.seconds

    def ref_applies(self) -> bool:
        return self.ref.get("config") == self.sizes

    def setup(self, build):
        """Run `build(rep)` setup_reps times; returns (first product, setup_s).

        setup_s is the median import time plus the median set-up time.
        """
        products, times = [], []
        for rep in range(self.setup_reps):
            t0 = clock()
            products.append(build(rep))
            times.append(clock() - t0)
        return products[0], (self.import_s + statistics.median(times), "s")


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # end-to-end, name -> (value, unit)
    report: dict = field(default_factory=dict)  # per-workload figures, name -> (value, unit)
    notes: list = field(default_factory=list)
    reference: dict | None = None  # outputs to store in record mode
    reference_ok: bool = True

    def check(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok


def digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


def p50_ms(seconds: list[float]) -> float:
    return 1000.0 * statistics.median(seconds)


def _passes(budget: float, n: int, op, max_passes: int | None = None) -> list[list]:
    """Call op(0) .. op(n - 1) in passes and return op's results by pass.

    Runs max_passes passes, or else as many as fit in `budget` seconds (at
    least one): a pass starts only if one more, as long as the last, fits.
    """
    results = []
    start = last = wall_clock()
    while not results or (len(results) != max_passes and 2 * wall_clock() - last - start <= budget):
        last = wall_clock()
        results.append([op(i) for i in range(n)])
    return results


def _traced_then_plain(h: Harness, run_pass):
    """Trace mode: passes under the tracer for half the run, then as many
    untraced; the difference in CPU time is the tracing overhead."""
    h.trace.install()
    try:
        traced = run_pass(None)
    finally:
        h.trace.uninstall()
    plain = run_pass(traced["passes"])
    overhead = traced["cpu"] - plain["cpu"]
    h.trace.count("trace.overhead_s", overhead)
    h.trace.count("trace.overhead_frac", overhead / plain["cpu"])
    return traced, plain


# ---------------------------------------------------------------------------
# train-msvae


@contextlib.contextmanager
def _step_clock(stamps: list[float]):
    """Append the CPU time after every optimiser step to `stamps`."""
    inner = autodiff.adam_step

    def stamped(*args, **kwargs):
        result = inner(*args, **kwargs)
        stamps.append(clock())
        return result

    autodiff.adam_step = stamped
    try:
        yield
    finally:
        autodiff.adam_step = inner


def _read_csv(path: Path) -> list[dict]:
    with open(path) as f:
        return list(csv.DictReader(f))


def train_msvae(h: Harness) -> Outcome:
    s = h.sizes
    out = Outcome()

    def build(rep):
        root = h.work / f"train-corpus-{rep}"
        corpus_mod.generate(root, s["corpus_seed"], s["difficulty"], s["m"], s["n"], s["val"], 0)
        return root

    corpus_root, out.metrics["setup_s"] = h.setup(build)
    curve = h.ref.get("curve") if h.ref_applies() else None
    if not h.record and curve is None:
        out.reference_ok = False
        out.notes.append("no reference loss curve at these sizes")

    def run_call():
        """One single-epoch train_msvae call on a fresh Corpus (cold cache)."""
        corpus = corpus_mod.load(corpus_root)
        cfg = pl.TrainConfig(seed=s["train_seed"], epochs=1, iters_per_epoch=s["iters_per_epoch"],
                             paired_batch=s["paired_batch"], unpaired_batch=s["unpaired_batch"],
                             eval_tasks=s["eval_tasks"])
        run_dir = Path(tempfile.mkdtemp(prefix="train-", dir=h.work))
        t0 = clock()
        stamps = [t0]
        with _step_clock(stamps):
            best, _ = pl.train_msvae(cfg, corpus, run_dir)
        cpu = clock() - t0
        rows = _read_csv(run_dir / "metrics.csv")
        # checks: finite, recombination identity, reference curve, best.bin reads back
        totals, skipped = [], 0
        for i, row in enumerate(rows):
            values = {k: float(v) for k, v in row.items() if k != "step"}
            ok = all(math.isfinite(v) for v in values.values())
            skipped += not math.isfinite(values["total"])
            rep = md.LossReport(**values)
            ok = ok and abs(rep.recombine(cfg.hp) - rep.total) <= RECOMBINE_RTOL * max(1.0, abs(rep.total))
            if curve is not None:
                ok = ok and i < len(curve) and abs(rep.total - curve[i]) <= CURVE_RTOL * abs(curve[i])
            out.check(ok)
            totals.append(rep.total)
        try:
            arrays, meta = nn.load_checkpoint(best)
            out.check(meta["kind"] == "msvae" and all(np.isfinite(a).all() for a in arrays.values()))
        except (OSError, ValueError) as e:
            out.notes.append(f"best.bin does not read back: {e}")
            out.check(False)
        logged = [float(r["seconds"]) for r in _read_csv(run_dir / "timing.csv")]
        samples = len(rows) * (cfg.paired_batch + cfg.unpaired_batch)
        return {"cpu": cpu, "steps": np.diff(stamps), "logged_steps": np.diff([0.0] + logged),
                "samples": samples, "totals": totals,
                "rows": len(rows), "skipped": skipped}

    def run_pass(passes):
        calls = [c for (c,) in _passes(h.budget(passes), 1, lambda _: run_call(), passes)]
        return {**calls[0], "cpu": sum(c["cpu"] for c in calls), "calls": calls,
                "passes": len(calls)}

    if h.trace is None:
        r = run_pass(1 if h.record or h.tiny else None)
        # identical calls; each step's time is its fastest over the calls
        best_steps = np.min([c["steps"] for c in r["calls"]], axis=0)
        logged_steps = np.min([c["logged_steps"] for c in r["calls"]], axis=0)
        rate = r["samples"] / min(c["cpu"] for c in r["calls"])
        out.metrics["items_per_cpu_s"] = (rate, "1/s")
        out.metrics["op_cpu_p50_ms"] = (p50_ms(best_steps), "ms")
        out.report["train_samples_per_s"] = (rate, "1/s")
        out.report["train_step_p50_s"] = (float(np.median(logged_steps)), "s")
        out.report["train_step_samples"] = (len(logged_steps), "count")
        out.report["train_calls"] = (r["passes"], "count")
        if h.record:
            out.reference = {"curve": r["totals"]}
    else:
        traced, _ = _traced_then_plain(h, run_pass)
        h.trace.count("pipelines.steps", sum(c["rows"] for c in traced["calls"]))
        h.trace.count("pipelines.skipped_steps", sum(c["skipped"] for c in traced["calls"]))
    return out


# ---------------------------------------------------------------------------
# eval-rollout


class Recorder:
    """Forwards to the model and keeps what each decode returned, so the
    benchmark can check outputs the evaluate_* entry points only summarise."""

    def __init__(self, model):
        self.model = model
        self.cfg = model.cfg
        self.follows: list = []
        self.speaks: list = []
        self.scores: list = []

    def follow(self, *args, **kwargs):
        traj, states = self.model.follow(*args, **kwargs)
        self.follows.append(list(traj.actions))
        return traj, states

    def speak(self, *args, **kwargs):
        tokens, truncated = self.model.speak(*args, **kwargs)
        self.speaks.append([list(tokens), truncated])
        return tokens, truncated

    def trajectory_language_score(self, *args, **kwargs):
        score = self.model.trajectory_language_score(*args, **kwargs)
        self.scores.append(score)
        return score

    def take(self):
        out = (self.follows, self.speaks, self.scores)
        self.follows, self.speaks, self.scores = [], [], []
        return out


MODES = ("follow", "speak", "pragmatic")


def eval_rollout(h: Harness) -> Outcome:
    s = h.sizes
    out = Outcome()

    def build(rep):
        root = h.work / f"eval-pool-{rep}"
        corpus_mod.generate(root, s["pool_seed"], s["difficulty"], 0, 0, 0, s["pool"])
        corpus = corpus_mod.load(root)
        cfg = pl.TrainConfig(seed=s["model_seed"]).model_config(len(corpus.vocab))
        return corpus, md.MsVae(np.random.default_rng(s["model_seed"]), cfg)

    (corpus, model), out.metrics["setup_s"] = h.setup(build)
    proxy = Recorder(model)
    pool = corpus.test
    order = np.random.default_rng(h.seed).permutation(len(pool))
    expected = h.ref.get("records", {}) if h.ref_applies() else {}
    if not h.record and not expected:
        out.reference_ok = False
        out.notes.append("no eval reference at these sizes")

    def run_pass(passes):
        outputs = []
        c = None

        def op(i):
            nonlocal c
            if i == 0:  # each pass over the pool replays with a cold cache
                c = dataclasses.replace(corpus)
            k = int(order[i])
            rec = [pool[k]]
            if h.trace is not None:
                h.trace.op_id = i
            t0 = clock()
            pl.evaluate_follower(proxy, c, rec)
            t1 = clock()
            pl.evaluate_speaker(proxy, c, rec)
            t2 = clock()
            pl.evaluate_pragmatic(proxy, proxy, c, rec, s["candidates"],
                                  np.random.default_rng([s["pool_seed"], k]))
            t3 = clock()
            follows, speaks, scores = proxy.take()
            pick = int(np.argmax(scores))  # pragmatic_infer's rule: first best candidate
            outputs.append((k, {"follow": digest(follows[0]), "speak": digest(speaks[0]),
                                "pragmatic": digest([pick, follows[1 + pick]])}))
            return t1 - t0, t2 - t1, t3 - t2

        times = np.array(_passes(h.budget(passes), len(pool), op, passes))  # (passes, records, modes)
        best = times.min(axis=0)  # each (record, mode)'s fastest over the passes
        return {"cpu": times.sum(), "best": best.sum(axis=1), "best_modes": best,
                "outputs": outputs, "passes": len(times)}

    if h.trace is None:
        r = run_pass(1 if h.record else None)
        out.metrics["items_per_cpu_s"] = (len(MODES) * len(pool) / r["best"].sum(), "1/s")
        out.metrics["op_cpu_p50_ms"] = (p50_ms(r["best"]), "ms")
        for mode, t in zip(MODES, r["best_modes"].T):
            out.report[f"eval_{mode}_episodes_per_s"] = (len(t) / t.sum(), "1/s")
        out.report["eval_passes"] = (r["passes"], "count")
        passes = [r]
    else:
        passes = _traced_then_plain(h, run_pass)
    for r in passes:
        for k, got in r["outputs"]:
            for mode, value in got.items():
                out.check(h.record or expected.get(str(k), {}).get(mode) == value)
    if h.record:
        out.reference = {"records": {str(k): got for k, got in passes[0]["outputs"]}}
    return out


# ---------------------------------------------------------------------------
# gen-corpus

SPLIT_FILES = ("paired.jsonl", "unpaired.jsonl", "val.jsonl", "test.jsonl", "vocab.json")


def files_digest(root: Path) -> str:
    per_file = [hashlib.sha256((root / name).read_bytes()).hexdigest() for name in SPLIT_FILES]
    return hashlib.sha256(" ".join(per_file).encode()).hexdigest()


def gen_corpus(h: Harness) -> Outcome:
    s = h.sizes
    out = Outcome()
    # the pool's corpus master seeds, in the order this seed runs them
    order = np.random.default_rng(h.seed).permutation(s["cycles"])
    masters = [s["first_seed"] + int(j) for j in order]
    expected = h.ref.get("digests", {}) if h.ref_applies() else {}
    if not h.record and not all(str(m) in expected for m in masters):
        out.reference_ok = False
        out.notes.append("no corpus digests for these master seeds at these sizes")

    def build(rep):  # no corpus to prepare: the workload generates its own
        root = h.work / f"gen-{rep}"
        root.mkdir()
        corpus_mod.default_vocab()
        return root

    root, out.metrics["setup_s"] = h.setup(build)

    def run_pass(passes):
        digests, records = [], []

        def op(i):
            if h.trace is not None:
                h.trace.op_id = i
            t0 = clock()
            corpus_mod.generate(root, masters[i], s["difficulty"], s["m"], s["n"], s["val"], s["test"])
            t1 = clock()
            c = corpus_mod.load(root)  # a fresh Corpus: cold observation cache
            recs = c.paired + c.unpaired + c.val + c.test
            for rec in recs:
                c.trajectory(rec, "ego")
            t2 = clock()
            if h.trace is not None:
                h.trace.enabled = False
            records.append(len(recs))
            digests.append((masters[i], files_digest(root)))
            for rec in recs:
                out.check(corpus_mod.verify_record(c, rec))
            if h.trace is not None:
                h.trace.enabled = True
            return t1 - t0, t2 - t1

        times = np.array(_passes(h.budget(passes), len(masters), op, passes))  # (passes, cycles, [gen, replay])
        best = times.min(axis=0)  # each (cycle, part)'s fastest over the passes
        return {"cpu": times.sum(), "best": best.sum(axis=1), "best_parts": best,
                "records": sum(records[:len(masters)]),
                "digests": digests, "passes": len(times)}

    if h.trace is None:
        r = run_pass(1 if h.record else None)
        n = r["records"]
        out.metrics["items_per_cpu_s"] = (n / r["best"].sum(), "1/s")
        out.metrics["op_cpu_p50_ms"] = (p50_ms(r["best"]), "ms")
        out.report["gen_records_per_s"] = (n / r["best_parts"][:, 0].sum(), "1/s")
        out.report["replay_records_per_s"] = (n / r["best_parts"][:, 1].sum(), "1/s")
        out.report["gen_passes"] = (r["passes"], "count")
        passes = [r]
    else:
        passes = _traced_then_plain(h, run_pass)
    for r in passes:
        for k, d in r["digests"]:
            out.check(h.record or expected.get(str(k)) == d)
    if h.record:
        out.reference = {"digests": {str(k): d for k, d in passes[0]["digests"]}}
    return out


WORKLOADS = {"train-msvae": train_msvae, "eval-rollout": eval_rollout, "gen-corpus": gen_corpus}
