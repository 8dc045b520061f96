import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvae import gridworld as gw
from msvae import metrics


def oracle_play(ep):
    """Replays the oracle bot's plan for the episode's task."""
    return gw.replay(ep.world, gw.oracle_solve(ep.world, ep.task))


def random_play(seed=0):
    rng = np.random.default_rng(seed)

    def play(ep):
        world = ep.world
        states = [world]
        for _ in range(ep.max_steps):
            world, done = gw.step(world, int(rng.integers(0, gw.N_ACTIONS)))
            states.append(world)
            if done:
                break
        return states

    return play


def make_episodes(n, difficulty="boss", min_subgoals=2):
    eps = []
    seed = 0
    while len(eps) < n:
        world, task = gw.sample_task(seed, difficulty)
        seed += 1
        if len(task.subgoals) < min_subgoals:
            continue
        eps.append(metrics.Episode([0], world, task, 64))
    return eps


class TestSuccessRate:
    def test_oracle_wrapper_is_perfect(self):
        eps = make_episodes(30, min_subgoals=1)
        report = metrics.success_rate(oracle_play, eps)
        assert report.sr == 1.0
        assert report.n_episodes == 30

    def test_random_policy_near_zero_on_multi_subgoal(self):
        eps = make_episodes(40, min_subgoals=2)
        report = metrics.success_rate(random_play(), eps)
        assert report.sr < 0.10

    def test_reproducible_under_fixed_inputs(self):
        eps = make_episodes(10, min_subgoals=1)
        r1 = metrics.success_rate(oracle_play, eps)
        r2 = metrics.success_rate(oracle_play, eps)
        assert r1.outcomes == r2.outcomes

    def test_rate_and_count_are_read_from_the_outcomes(self):
        report = metrics.EvalReport([True, False, True])
        assert (report.sr, report.n_episodes) == (2 / 3, 3)
        empty = metrics.success_rate(oracle_play, [])
        assert (empty.sr, empty.n_episodes, empty.outcomes) == (0.0, 0, [])
        with pytest.raises(AttributeError):
            report.sr = 0.9


def reference_bleu(hypotheses, references):
    """Independent second implementation: per-pair dict counting, explicit
    products instead of log-space accumulation."""
    import math

    match, tot = {1: 0, 2: 0, 3: 0, 4: 0}, {1: 0, 2: 0, 3: 0, 4: 0}
    c = r = 0
    for hyp, ref in zip(hypotheses, references):
        hyp, ref = list(hyp), list(ref)
        c += len(hyp)
        r += len(ref)
        for n in (1, 2, 3, 4):
            hg = {}
            for i in range(len(hyp) - n + 1):
                g = tuple(hyp[i : i + n])
                hg[g] = hg.get(g, 0) + 1
            rg = {}
            for i in range(len(ref) - n + 1):
                g = tuple(ref[i : i + n])
                rg[g] = rg.get(g, 0) + 1
            tot[n] += max(0, len(hyp) - n + 1)
            for g, k in hg.items():
                match[n] += min(k, rg.get(g, 0))
    if c == 0:
        return 0.0
    prod = 1.0
    for n in (1, 2, 3, 4):
        p = match[n] / tot[n] if match[n] > 0 else 1.0 / (tot[n] + 1.0)
        prod *= p ** 0.25
    bp = 1.0 if c > r else math.exp(1.0 - r / c)
    return bp * prod


class TestBleu:
    def test_self_match_is_one(self):
        refs = [["go", "to", "the", "red", "ball"], ["pick", "up", "the", "blue", "key"]]
        assert metrics.bleu4(refs, refs) == pytest.approx(1.0)

    def test_disjoint_vocab_below_floor(self):
        rng = np.random.default_rng(0)
        hyps = [[f"a{i}" for i in rng.integers(0, 5, 8)] for _ in range(50)]
        refs = [[f"b{i}" for i in rng.integers(0, 5, 8)] for _ in range(50)]
        assert metrics.bleu4(hyps, refs) < 0.02

    def test_matches_independent_implementation(self):
        rng = np.random.default_rng(1)
        vocab = list("abcdefgh")
        for trial in range(50):
            n = int(rng.integers(1, 6))
            hyps, refs = [], []
            for _ in range(n):
                hyps.append([vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 12))])
                refs.append([vocab[i] for i in rng.integers(0, len(vocab), rng.integers(1, 12))])
            a = metrics.bleu4(hyps, refs)
            b = reference_bleu(hyps, refs)
            assert abs(a - b) < 1e-6

    def test_brevity_penalty_applies(self):
        ref = [["a", "b", "c", "d", "e", "f"]]
        short = [["a", "b", "c"]]
        full = [["a", "b", "c", "d", "e", "f"]]
        assert metrics.bleu4(short, ref) < metrics.bleu4(full, ref)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            metrics.bleu4([], [])

    def test_works_on_token_ids(self):
        hyps = [[4, 5, 6, 7]]
        refs = [[4, 5, 6, 7]]
        assert metrics.bleu4(hyps, refs) == pytest.approx(1.0)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=8), st.integers(0, 10**6))
def test_bleu_permutation_invariant(tokens, seed):
    rng = np.random.default_rng(seed)
    pairs = [(tokens, tokens[::-1]), ([1, 2, 3], [1, 2, 4]), ([5], [5]), (tokens + [9], tokens)]
    perm = rng.permutation(len(pairs))
    a = metrics.bleu4([p[0] for p in pairs], [p[1] for p in pairs])
    b = metrics.bleu4([pairs[i][0] for i in perm], [pairs[i][1] for i in perm])
    assert a == pytest.approx(b, abs=1e-12)


def permutation_test(a, b, n=20000, seed=0):
    """Independent oracle: permutation p-value for mean(a) > mean(b)."""
    rng = np.random.default_rng(seed)
    pooled = np.concatenate([a, b])
    observed = np.mean(a) - np.mean(b)
    count = 0
    for _ in range(n):
        perm = rng.permutation(pooled)
        if np.mean(perm[: len(a)]) - np.mean(perm[len(a) :]) >= observed - 1e-15:
            count += 1
    return count / n


class TestTTest:
    def test_identical_samples_half(self):
        assert metrics.t_test_one_sided([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(0.5)

    def test_zero_variance_equal_means(self):
        assert metrics.t_test_one_sided([2.0, 2.0], [2.0, 2.0]) == pytest.approx(0.5)

    def test_degenerate_variance_separation(self):
        p = metrics.t_test_one_sided([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        assert p < 0.01
        # and the reversed direction is far from significant
        assert metrics.t_test_one_sided([0.0, 0.0, 0.0], [1.0, 1.0, 1.0]) > 0.99

    def test_direction_matches_permutation_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            a = rng.normal(0.6, 1.0, size=8)
            b = rng.normal(0.0, 1.0, size=8)
            p_t = metrics.t_test_one_sided(a, b)
            p_perm = permutation_test(a, b, n=4000, seed=3)
            assert (p_t < 0.5) == (p_perm < 0.5) or abs(p_perm - 0.5) < 0.1

    def test_p_in_unit_interval(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=3)
            b = rng.normal(size=3)
            p = metrics.t_test_one_sided(a, b)
            assert 0.0 <= p <= 1.0

    def test_requires_two_scores(self):
        with pytest.raises(ValueError, match="two scores"):
            metrics.t_test_one_sided([1.0], [0.0, 0.0])


class TestEvalJson:
    def test_write(self, tmp_path):
        import json

        path = tmp_path / "eval.json"
        metrics.write_eval_json(path, sr=0.5, bleu=0.1, n_episodes=10, seed=3, checkpoint="x.bin")
        doc = json.loads(path.read_text())
        assert doc == {"sr": 0.5, "bleu4": 0.1, "n_episodes": 10, "seed": 3, "checkpoint": "x.bin"}
