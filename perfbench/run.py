"""msvae benchmark harness.

    python3 perfbench/run.py --workload train-msvae --seed 0 --seconds 20 --trace 0

Runs one workload (or `all` of them, one after the other) in this process
against the program under `src/` of the checkout that holds this file, checks
its outputs against `perfbench/reference.json`, and prints a human-readable
report followed, on the last line, by one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
per-layer ones from a traced run. See perfbench/README.md.
"""

from __future__ import annotations

import os
import sys
import time

# Pin BLAS/OpenMP threads before numpy is first imported: one thread, which
# is at most nproc on any machine and keeps timings steady.
THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.json"
WORKLOAD_NAMES = ("train-msvae", "eval-rollout", "gen-corpus")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke tests")
    p.add_argument("--ref", type=Path, default=REFERENCE, help="reference file to check against")
    p.add_argument("--record-ref", action="store_true",
                   help="store this run's outputs in --ref instead of checking them")
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    if args.record_ref and args.trace:
        p.error("--record-ref records from an untraced run")
    return args


def import_program() -> float:
    """Import the program from this checkout's src/; returns the CPU seconds taken."""
    t0 = time.process_time()
    sys.path.insert(0, str(SRC))
    import msvae  # noqa: F401
    from msvae import cli  # noqa: F401  imports every module the CLI uses

    if not Path(msvae.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"msvae was imported from {msvae.__file__}, not from {SRC}")
    return time.process_time() - t0


IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.process_time(); "
               "import msvae.cli; print(time.process_time() - t0)")


def import_s(reps: int) -> float:
    """Median CPU seconds to import the program: here, then in reps - 1 fresh
    interpreters, since a process imports it only once."""
    times = [import_program()]
    for _ in range(reps - 1):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CODE, str(SRC)], capture_output=True,
                              text=True, check=True)
        times.append(float(proc.stdout))
    return statistics.median(times)


def git_commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "threads": THREADS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": git_commit(),
    }


def per_layer(tr) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of a traced run: totals over the run."""
    import numpy as np
    from tracer import AUTODIFF_OPS, LAYERS

    def calls(*names):
        return sum(tr.stats(n)[0] for n in names)

    def total(*names):
        return sum(tr.stats(n)[1] for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    c = tr.counts
    sp = tr.spans()
    # epoch eval: evaluate_* spans opened directly by train_msvae
    train_ids = [i for i, n in enumerate(tr.names) if n == "pipelines.train_msvae"]
    eval_ids = [i for i, n in enumerate(tr.names)
                if n in ("pipelines.evaluate_follower", "pipelines.evaluate_speaker")]
    parent_name = np.where(sp["parent"] >= 0, sp["name"][np.maximum(sp["parent"], 0)], -1)
    nested = np.isin(sp["name"], eval_ids) & np.isin(parent_name, train_ids)
    epoch_eval = float((sp["end"] - sp["start"])[nested].sum())

    m = {
        "pipelines.batch_s": (total("pipelines.pair_batches", "pipelines.traj_batch"), "s"),
        "pipelines.epoch_eval_s": (epoch_eval, "s"),
        "pipelines.steps": (c.get("pipelines.steps", 0), "count"),
        "pipelines.skipped_steps": (c.get("pipelines.skipped_steps", 0), "count"),
        "pipelines.step_accounted_frac": (tr.step_accounted_frac(), "frac"),
        "model.forward_s": (total("model.total_loss"), "s"),
        "model.paired_loss_s": (total("model.paired_loss"), "s"),
        "model.unpaired_loss_s": (total("model.unpaired_loss"), "s"),
        "model.domain_distance_s": (total("model.domain_distance"), "s"),
        "model.encode_trajectory_s": (total("model.encode_trajectory"), "s"),
        "model.encode_language_s": (total("model.encode_language"), "s"),
        "model.action_ll_s": (total("model.action_log_likelihood"), "s"),
        "model.language_ll_s": (total("model.language_log_likelihood"), "s"),
        "model.follow_s": (total("model.follow"), "s"),
        "model.speak_s": (total("model.speak"), "s"),
        "model.score_s": (total("model.trajectory_language_score"), "s"),
        "model.follow_steps": (c.get("model.follow_steps", 0), "count"),
        "model.speak_tokens": (c.get("model.speak_tokens", 0), "count"),
        "autodiff.backward_s": (total("autodiff.backward"), "s"),
        "autodiff.adam_s": (total("autodiff.adam_step"), "s"),
        "autodiff.graph_nodes": (ratio(c.get("autodiff.graph_nodes", 0),
                                       c.get("autodiff.backward_graphs", 0)), "nodes/step"),
        "autodiff.nodes_per_decode_step": (ratio(c.get("autodiff.decode_graph_nodes", 0),
                                                 c.get("model.decode_steps", 0)), "nodes/step"),
        "autodiff.dead_grad_frac": (ratio(c.get("autodiff.dead_grad_elems", 0),
                                          c.get("autodiff.grad_elems", 0)), "frac"),
        "autodiff.grad_accums": (ratio(c.get("autodiff.grad_accums", 0),
                                       c.get("autodiff.backward_graphs", 0)), "nodes/step"),
    }
    for op in AUTODIFF_OPS:
        m[f"autodiff.op.{op}.calls"] = (calls(f"autodiff.op.{op}"), "count")
        m[f"autodiff.op.{op}.fwd_s"] = (total(f"autodiff.op.{op}"), "s")
    m.update({
        "nn.gru_step_calls": (calls("nn.fused_gru_step"), "count"),
        "nn.gru_step_s": (total("nn.fused_gru_step"), "s"),
        "nn.attention_s": (total("nn.attention", "nn.attention_prepare"), "s"),
        "nn.bottleneck_s": (total("nn.bottleneck"), "s"),
        "nn.prior_s": (total("nn.prior"), "s"),
        "nn.checkpoint_write_s": (total("nn.save_checkpoint"), "s"),
        "nn.checkpoint_bytes": (c.get("nn.checkpoint_bytes", 0), "bytes"),
        "nn.checkpoint_read_s": (total("nn.load_checkpoint"), "s"),
        "corpus.trajectory_calls": (calls("corpus.trajectory"), "count"),
        "corpus.trajectory_s": (total("corpus.trajectory"), "s"),
        "corpus.trajectory_miss_frac": (ratio(c.get("corpus.trajectory_misses", 0),
                                              calls("corpus.trajectory")), "frac"),
        "corpus.generate_s": (total("corpus.generate"), "s"),
        "corpus.load_s": (total("corpus.load"), "s"),
        "corpus.bytes_written": (c.get("corpus.bytes_written", 0), "bytes"),
        "corpus.bytes_read": (c.get("corpus.bytes_read", 0), "bytes"),
        "gridworld.step_calls": (calls("gridworld.step"), "count"),
        "gridworld.step_s": (total("gridworld.step"), "s"),
        "gridworld.observe_calls": (calls("gridworld.observe", "gridworld.observe_ego"), "count"),
        "gridworld.observe_s": (total("gridworld.observe", "gridworld.observe_ego"), "s"),
        "gridworld.oracle_calls": (calls("gridworld.oracle_solve"), "count"),
        "gridworld.oracle_s": (total("gridworld.oracle_solve"), "s"),
        "gridworld.sample_s": (total("gridworld.sample_task_record"), "s"),
        "gridworld.rebuild_s": (total("gridworld.rebuild_task"), "s"),
        "gridworld.check_success_s": (total("gridworld.check_success"), "s"),
        "metrics.success_rate_s": (total("metrics.success_rate"), "s"),
        "metrics.bleu4_s": (total("metrics.bleu4"), "s"),
    })
    for layer in LAYERS:
        own = sum(tr.self_time[i] for i, n in enumerate(tr.names) if n.split(".")[0] == layer)
        m[f"{layer}.self_s"] = (own, "s")
    m["trace.overhead_s"] = (c.get("trace.overhead_s", 0.0), "s")
    m["trace.overhead_frac"] = (c.get("trace.overhead_frac", 0.0), "frac")
    return m


def run_workload(name, args, imports_s, ref, work):
    import workloads
    from tracer import Tracer

    h = workloads.Harness(
        workload=name, seed=args.seed, seconds=args.seconds, tiny=args.tiny,
        trace=Tracer() if args.trace else None, ref=ref.get(name, {}), record=args.record_ref,
        work=Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work)), import_s=imports_s,
        setup_reps=setup_reps(args),
    )
    try:
        out = workloads.WORKLOADS[name](h)
    finally:
        shutil.rmtree(h.work, ignore_errors=True)
    if h.trace is None:
        out.metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics = out.metrics
    else:
        metrics = per_layer(h.trace)
        h.trace.write(work / "trace" / f"spans-{name}-seed{args.seed}.npz")
    return h, out, metrics


def setup_reps(args) -> int:
    """How many times a run sets up; setup_s is the median."""
    return 2 if args.tiny else 3


def main(argv=None, work: Path | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "msvae" / "__init__.py").is_file():
        print(f"error: no program to measure: {SRC / 'msvae'} is missing", file=sys.stderr)
        return 2
    try:
        imports_s = import_s(setup_reps(args))
    except ImportError as e:
        print(f"error: cannot import the program: {e}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(BENCH))
    work = work or ROOT / ".perfbench_work"
    work.mkdir(parents=True, exist_ok=True)
    ref = json.loads(args.ref.read_text()) if args.ref.is_file() else {}
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    correct, attempted, failed, result = True, 0, 0, {}
    for name in names:
        h, out, metrics = run_workload(name, args, imports_s, ref, work)
        ops = max(out.attempted, 1)
        print(f"== {name}  seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
        for note in out.notes:
            print(f"   note: {note}")
        if h.trace is not None:
            print("\n".join("   " + line for line in h.trace.table()))
        rows = dict(metrics)
        if h.trace is None:
            rows.update(out.report)
        rows["failed_ops_frac"] = (out.failed / ops, "frac")
        for key, (value, unit) in rows.items():
            print(f"   {key:<36} {value:>16.6g} {unit}")
        correct &= out.reference_ok and out.failed == 0
        attempted += out.attempted
        failed += out.failed
        prefix = f"{name}." if len(names) > 1 else ""
        result.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
        record_result(work, name, args, env, metrics, out)
        if args.record_ref:
            entry = ref.setdefault(name, {})
            if entry.get("config") != h.sizes:
                entry.clear()
                entry["config"] = h.sizes
            for key, values in (out.reference or {}).items():
                if isinstance(values, dict):  # per-record outputs: merge
                    entry.setdefault(key, {}).update(values)
                else:
                    entry[key] = values
    if args.record_ref:
        args.ref.write_text(json.dumps(ref, sort_keys=True, indent=1) + "\n")
    print(json.dumps({"correct": bool(correct), "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


def record_result(work, name, args, env, metrics, out) -> None:
    """Keep each run's figures with the environment that produced them."""
    doc = {"workload": name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "environment": env, "attempted": out.attempted, "failed": out.failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
           "report": {k: {"value": v, "unit": u} for k, (v, u) in out.report.items()}}
    path = work / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1) + "\n")


if __name__ == "__main__":
    sys.exit(main())
