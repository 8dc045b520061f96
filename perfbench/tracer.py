"""In-memory span recorder for the traced benchmark run.

The recorder wraps public functions of the msvae modules by rebinding module
and class attributes (and the encoder references held in
`gridworld.OBS_VIEWS`), so nothing under `src/` changes. Each call becomes a
span (name, start, end, parent span, operation id). Spans stay in flat arrays
while the run lasts and are written out once, at the end. Calls, total time
and self time are also summed per name as spans close; self time is a span's
duration minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import os
import time
from array import array
from pathlib import Path

import numpy as np

from msvae import autodiff, corpus, gridworld, metrics, model, nn, pipelines

LAYERS = ("pipelines", "model", "autodiff", "nn", "corpus", "gridworld", "metrics")

# every public autodiff primitive, including the two node constructors
AUTODIFF_OPS = (
    "leaf", "constant", "add", "sub", "neg", "mul", "scale", "tanh", "sigmoid", "exp", "log",
    "clamp", "matmul", "add_rowvec", "mul_colvec", "concat", "narrow", "reshape", "transpose2",
    "stack", "repeat_rows", "embedding", "select_columns", "bdot", "bdot_shared", "bmix",
    "sort_axis0", "reduce_sum", "reduce_mean", "softmax", "log_softmax",
)

HOOK = "trace.hook"  # time spent in the recorder's own hooks (graph walks, file sizes)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("q")
        self.op = array("q")
        self.stack: list[list] = []  # open spans: [span id, seconds covered by children]
        self.op_id = 0
        self.counts: dict[str, float] = {}
        self.enabled = True  # off while the benchmark checks outputs
        self._patches: list[tuple] = []
        # follow/speak decode bookkeeping for autodiff.nodes_per_decode_step
        self._decoding = 0
        self._episode_logits: list = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def open_name(self, depth: int = 1) -> str | None:
        """Name of the open span `depth` levels from the innermost."""
        return self.names[self.name[self.stack[-depth][0]]] if len(self.stack) >= depth else None

    def wrap(self, fn, name: str, before=None, after=None):
        """Return `fn` recording one span per call; hooks run outside it."""
        nid = self.name_id(name)
        hook_id = self.name_id(HOOK)
        clock = time.perf_counter
        stack = self.stack
        tr = self

        def span(nid, body, *args, **kwargs):
            sid = len(tr.start)
            tr.parent.append(stack[-1][0] if stack else -1)
            tr.name.append(nid)
            tr.op.append(tr.op_id)
            tr.end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            tr.start.append(t0)
            try:
                return body(*args, **kwargs)
            finally:
                t1 = clock()
                tr.end[sid] = t1
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                tr.calls[nid] += 1
                tr.total[nid] += dur
                tr.self_time[nid] += dur - frame[1]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                span(hook_id, before, args, kwargs)
            result = span(nid, fn, *args, **kwargs)
            if after is not None:
                span(hook_id, after, args, kwargs, result)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, name: str, before=None, after=None):
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        wrapped = self.wrap(orig, name, before, after)
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig))
        return wrapped

    def install(self) -> None:
        """Wrap the public functions of every measured module."""
        p = self.patch
        self.op_id = 0

        def new_step(args, kwargs):
            self.op_id += 1

        p(pipelines, "train_msvae", "pipelines.train_msvae")
        p(pipelines, "pair_batches", "pipelines.pair_batches", before=new_step)
        p(pipelines, "traj_batch", "pipelines.traj_batch")
        for fn in ("evaluate_follower", "evaluate_speaker", "evaluate_pragmatic",
                   "pragmatic_candidates", "pragmatic_infer"):
            p(pipelines, fn, f"pipelines.{fn}")

        for fn in ("total_loss", "paired_loss", "unpaired_loss", "domain_distance",
                   "make_lang_batch", "make_traj_batch"):
            p(model, fn, f"model.{fn}")
        for fn in ("encode_trajectory", "encode_language", "action_log_likelihood",
                   "language_log_likelihood", "trajectory_language_score"):
            p(model.MsVae, fn, f"model.{fn}")
        p(model.MsVae, "follow", "model.follow", before=self._decode_begin,
          after=lambda a, k, r: self._decode_end("model.follow_steps", len(r[0].actions)))
        p(model.MsVae, "speak", "model.speak", before=self._decode_begin,
          after=lambda a, k, r: self._decode_end("model.speak_tokens", len(r[0])))
        p(model.ActionDecoder, "step_logits", "model.action_step", after=self._decode_step)
        p(model.WordDecoder, "step_logits", "model.word_step", after=self._decode_step)

        for op in AUTODIFF_OPS:
            p(autodiff, op, f"autodiff.op.{op}")
        p(autodiff, "backward", "autodiff.backward", before=lambda a, k: self._graph_stats(a[0]))
        p(autodiff, "adam_step", "autodiff.adam_step")

        p(nn, "fused_gru_step", "nn.fused_gru_step")
        p(nn.KeyValueAttention, "__call__", "nn.attention")
        p(nn.KeyValueAttention, "prepare", "nn.attention_prepare")
        p(nn.BottleneckAttention, "__call__", "nn.bottleneck")
        p(nn, "prior_log_density_params", "nn.prior")
        p(nn, "save_checkpoint", "nn.save_checkpoint",
          after=lambda a, k, r: self.count("nn.checkpoint_bytes", os.path.getsize(a[0])))
        p(nn, "load_checkpoint", "nn.load_checkpoint")

        p(corpus, "generate", "corpus.generate",
          after=lambda a, k, r: self.count("corpus.bytes_written", _dir_bytes(a[0])))
        p(corpus, "load", "corpus.load",
          after=lambda a, k, r: self.count("corpus.bytes_read", _dir_bytes(a[0])))
        p(corpus.Corpus, "trajectory", "corpus.trajectory")
        p(corpus, "verify_record", "corpus.verify_record")

        def rollout_miss(args, kwargs):
            # a rollout started directly by Corpus.trajectory is an observation-cache
            # miss; the innermost open span is this hook's own
            if self.open_name(2) == "corpus.trajectory":
                self.count("corpus.trajectory_misses")

        p(gridworld, "step", "gridworld.step")
        p(gridworld, "rollout", "gridworld.rollout", before=rollout_miss)
        p(gridworld, "oracle_solve", "gridworld.oracle_solve")
        p(gridworld, "sample_task_record", "gridworld.sample_task_record")
        p(gridworld, "rebuild_task", "gridworld.rebuild_task")
        p(gridworld, "check_success", "gridworld.check_success")
        encoders = {}
        for fn in ("observe", "observe_ego"):
            orig = getattr(gridworld, fn)
            encoders[orig] = p(gridworld, fn, f"gridworld.{fn}")
        # the views hold their own references to the encoders
        for view, entry in list(gridworld.OBS_VIEWS.items()):
            if entry[0] in encoders:
                self._patches.append((gridworld.OBS_VIEWS, view, entry))
                gridworld.OBS_VIEWS[view] = (encoders[entry[0]],) + tuple(entry[1:])

        for fn in ("success_rate", "bleu4", "episodes_from_records"):
            p(metrics, fn, f"metrics.{fn}")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = orig
            else:
                setattr(owner, attr, orig)
        self._patches.clear()

    # -- hooks -----------------------------------------------------------------

    def _graph_stats(self, loss) -> None:
        """Walk Node.parents from a training loss before backward consumes it."""
        nodes, grad_elems, dead_elems = 0, 0, 0
        consumers: dict[int, int] = {}
        seen = {id(loss)}
        todo = [loss]
        while todo:
            node = todo.pop()
            nodes += 1
            has_vjp = node.vjp is not None
            for parent in node.parents:
                if has_vjp:
                    size = parent.value.size
                    grad_elems += size
                    if parent.const:
                        dead_elems += size  # computed by the VJP, then thrown away
                    else:
                        consumers[id(parent)] = consumers.get(id(parent), 0) + 1
                if id(parent) not in seen:
                    seen.add(id(parent))
                    todo.append(parent)
        self.count("autodiff.backward_graphs")
        self.count("autodiff.graph_nodes", nodes)
        self.count("autodiff.grad_elems", grad_elems)
        self.count("autodiff.dead_grad_elems", dead_elems)
        self.count("autodiff.grad_accums", sum(1 for c in consumers.values() if c > 1))

    def _decode_begin(self, args, kwargs) -> None:
        self._decoding += 1
        self._episode_logits = []

    def _decode_step(self, args, kwargs, result) -> None:
        if self._decoding:
            self._episode_logits.append(result[0])
            self.count("model.decode_steps")

    def _decode_end(self, key: str, n: int) -> None:
        """Count the nodes behind every step's logits in one follow/speak call."""
        self._decoding -= 1
        self.count(key, n)
        self.count("autodiff.decode_graph_nodes", _graph_size(self._episode_logits))
        self._episode_logits = []

    # -- results ---------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "parent": np.frombuffer(self.parent, dtype=np.int64),
            "name": np.frombuffer(self.name, dtype=np.int64),
            "op": np.frombuffer(self.op, dtype=np.int64),
        }

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), **self.spans())

    def stats(self, name: str) -> tuple[int, float, float]:
        nid = self._ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.total[nid], self.self_time[nid]

    def table(self) -> list[str]:
        """Per-layer table of calls, total and self seconds, busiest first."""
        lines = [f"{'span':<40} {'calls':>10} {'total_s':>10} {'self_s':>10}"]
        for layer in LAYERS + ("trace",):
            rows = [(self.self_time[i], n) for i, n in enumerate(self.names)
                    if n.split(".")[0] == layer and self.calls[i]]
            if not rows:
                continue
            lines.append(f"{layer:<40} {'':>10} {'':>10} {sum(r[0] for r in rows):>10.4f}")
            for _, n in sorted(rows, reverse=True):
                c, t, s = self.stats(n)
                lines.append(f"  {n:<38} {c:>10d} {t:>10.4f} {s:>10.4f}")
        return lines

    def step_accounted_frac(self) -> float:
        """Share of traced training-step wall time spent in batch assembly,
        forward, backward and Adam.

        A step runs from one pair_batches call to the next; steps whose
        interval holds an epoch eval or checkpoint are left out, and the
        recorder's own hook time is taken off each interval.
        """
        sp = self.spans()
        if sp["start"].size == 0:
            return 0.0
        ids = {n: i for i, n in enumerate(self.names)}

        def mask(names):
            return np.isin(sp["name"], [ids[n] for n in names if n in ids])

        first = mask(["pipelines.pair_batches"])
        if first.sum() < 2:
            return 0.0
        n_ops = int(sp["op"].max()) + 1
        step_start = np.full(n_ops, np.nan)
        step_start[sp["op"][first]] = sp["start"][first]
        dur = sp["end"] - sp["start"]
        parts = mask(["pipelines.pair_batches", "pipelines.traj_batch", "model.total_loss",
                      "autodiff.backward", "autodiff.adam_step"])
        busy = np.bincount(sp["op"][parts], weights=dur[parts], minlength=n_ops)
        hooks = mask([HOOK])
        hook = np.bincount(sp["op"][hooks], weights=dur[hooks], minlength=n_ops)
        boundary = np.zeros(n_ops, dtype=bool)
        boundary[sp["op"][mask(["pipelines.evaluate_follower", "nn.save_checkpoint"])]] = True
        ops = np.flatnonzero(~np.isnan(step_start))
        ops = ops[:-1][~boundary[ops[:-1]]]  # the last step's interval has no end
        interval = np.array([step_start[i + 1] for i in ops]) - step_start[ops] - hook[ops]
        return float(busy[ops].sum() / interval.sum()) if interval.size else 0.0


def _graph_size(roots) -> int:
    """Distinct nodes reachable through Node.parents from any of `roots`."""
    seen = {id(r) for r in roots}
    todo = list(roots)
    while todo:
        for parent in todo.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                todo.append(parent)
    return len(seen)


def _dir_bytes(root) -> int:
    return sum(f.stat().st_size for f in Path(root).iterdir() if f.is_file())
