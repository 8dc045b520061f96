"""End-to-end miniature: generate a corpus, train the latent model briefly,
then watch it follow an instruction and describe a trajectory.

Runs in a few minutes on a laptop; the acceptance suite trains the real
desk-scale configurations.
"""

import tempfile
from pathlib import Path

import numpy as np

from msvae import corpus, gridworld as gw, metrics, model as md, pipelines as pl

work = Path(tempfile.mkdtemp(prefix="msvae_demo_"))
print("working in", work)

corpus.generate(work / "corpus", seed=5, difficulty="goto_seq", m=400, n=600,
                val_tasks=40, test_tasks=40, subgoal_weights=(1.0, 0.0, 0.0, 0.0))
c = corpus.load(work / "corpus")

cfg = pl.TrainConfig(seed=0, epochs=6, iters_per_epoch=60, paired_batch=24, unpaired_batch=24,
                     eval_every=2, eval_tasks=30,
                     hp=md.HyperParams(learning_rate=3e-3),
                     model=md.ModelConfig(hidden=48, attn_dim=48, prior_hidden=48, k_slots=2, latent_dim=32))
ck, record = pl.train_msvae(cfg, c, work / "run")
print("\nvalidation curve (epoch, SR, BLEU):")
for e in record.entries:
    print(f"  {e['epoch']:3d}  {e['sr']:.2f}  {e['bleu']:.4f}")

model, _ = md.load_model(ck)
rec = c.test[0]
world, task = c.rebuild(rec)
print("\ninstruction:", c.vocab.detokenize(rec["tokens"]))
traj, states = model.follow(rec["tokens"], world, max_steps=gw.step_cap(len(rec["actions"])))
print("rollout:", [gw.Action(a).name for a in traj.actions])
print("success:", gw.check_success(states, task))

spoken, _ = model.speak(c.trajectory(rec, md.OBS_VIEW))
print("speaker describes the oracle trajectory as:", c.vocab.detokenize(spoken))

report = pl.evaluate_follower(model, c, c.test)
print(f"\ntest SR over {report.n_episodes} tasks: {report.sr:.2f}")
