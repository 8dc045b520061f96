"""Evaluation metrics: success rate over environment rollouts, corpus-level
BLEU-4 with add-one smoothing, and Welch's one-sided t-test for seed-wise
score comparisons."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gridworld as gw

VAR_FLOOR = 1e-12


@dataclass
class EvalReport:
    outcomes: list[bool]

    @property
    def n_episodes(self) -> int:
        return len(self.outcomes)

    @property
    def sr(self) -> float:
        return sum(self.outcomes) / self.n_episodes if self.outcomes else 0.0


@dataclass
class Episode:
    tokens: list[int]
    world: gw.World
    task: gw.Task
    max_steps: int


def episodes_from_records(corpus, records) -> list[Episode]:
    eps = []
    for rec in records:
        world, task = corpus.rebuild(rec)
        eps.append(Episode(rec["tokens"], world, task, gw.step_cap(len(rec["actions"]))))
    return eps


def success_rate(play, episodes: list[Episode]) -> EvalReport:
    """Play each episode once and check subgoal completion; play(episode)
    returns the visited states. The one loop that scores rollouts."""
    return EvalReport([bool(gw.check_success(play(ep), ep.task)) for ep in episodes])


# ---------------------------------------------------------------------------
# BLEU


def _ngram_counts(seq, n):
    return Counter(tuple(seq[i : i + n]) for i in range(len(seq) - n + 1))


def bleu4(hypotheses, references) -> float:
    """Corpus-level BLEU: geometric mean of modified n-gram precisions for
    n = 1..4 with add-one smoothing on zero match counts, times the brevity
    penalty. Token sequences may hold any hashable symbols."""
    if len(hypotheses) != len(references):
        raise ValueError(f"bleu4: {len(hypotheses)} hypotheses vs {len(references)} references")
    if not hypotheses:
        raise ValueError("bleu4: empty corpus")
    matched = [0] * 4
    total = [0] * 4
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp, ref = list(hyp), list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            counts = _ngram_counts(hyp, n)
            ref_counts = _ngram_counts(ref, n)
            total[n - 1] += max(0, len(hyp) - n + 1)
            matched[n - 1] += sum(min(c, ref_counts[g]) for g, c in counts.items())
    if hyp_len == 0:
        return 0.0
    log_p = 0.0
    for m, t in zip(matched, total):
        p = m / t if m > 0 else 1.0 / (t + 1.0)
        log_p += 0.25 * np.log(p)
    bp = 1.0 if hyp_len > ref_len else float(np.exp(1.0 - ref_len / hyp_len))
    return float(bp * np.exp(log_p))


# ---------------------------------------------------------------------------
# statistics


def t_test_one_sided(scores_a, scores_b) -> float:
    """Welch's t-test of H1: mean(a) > mean(b); returns the p-value.

    Degenerate variances are floored so all-constant samples still yield a
    decision (identical samples give exactly 0.5).
    """
    from scipy.stats import t as student_t  # only `msvae report --compare` needs scipy

    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("need at least two scores per side")
    va = max(float(a.var(ddof=1)), VAR_FLOOR)
    vb = max(float(b.var(ddof=1)), VAR_FLOOR)
    sa, sb = va / a.size, vb / b.size
    t_stat = (a.mean() - b.mean()) / np.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa**2 / (a.size - 1) + sb**2 / (b.size - 1))
    p = float(student_t.sf(t_stat, df))
    return min(max(p, 0.0), 1.0)


def write_eval_json(path, *, sr: float, bleu: float, n_episodes: int, seed, checkpoint, extra=None) -> None:
    doc = {"sr": sr, "bleu4": bleu, "n_episodes": n_episodes, "seed": seed, "checkpoint": str(checkpoint)}
    if extra:
        doc.update(extra)
    Path(path).write_text(json.dumps(doc, sort_keys=True) + "\n")
