"""Anatomy of the training objective on a toy batch.

Shows the per-term loss report (reconstruction, KL, cross-modal, unpaired
bound, domain distance), verifies the recombination identity, and
demonstrates the sliced-Wasserstein distance's translation property.
"""

import numpy as np

from msvae import autodiff as ad
from msvae import gridworld as gw
from msvae import model as md

rng = np.random.default_rng(1)

cfg = md.ModelConfig(vocab_size=12, obs_dim=6, word_emb=4, action_emb=4, hidden=8,
                     attn_dim=6, cell_dim=4, k_slots=2, latent_dim=4, prior_hidden=6)
model = md.MsVae(rng, cfg)

lang = md.make_lang_batch([[4, 5, 6], [7, 8, 9, 10]])
trajs = [gw.Trajectory(rng.normal(size=(3, 6)), (0, 1, 5)),
         gw.Trajectory(rng.normal(size=(4, 6)), (2, 2, 1, 5))]
unpaired = [gw.Trajectory(rng.normal(size=(3, 6)), (2, 0, 5)) for _ in range(3)]

hp = md.HyperParams(alpha=0.1, gamma=2.0, beta=0.5)
# one trajectory batch: the paired trajectories first, then the unpaired ones
loss, report = md.total_loss(model, lang, md.make_traj_batch(trajs + unpaired), hp, np.random.default_rng(0))

print("loss report (maximized objective; trainer minimizes the negation):")
for field in md.LossReport.FIELDS:
    print(f"  {field:7s} {getattr(report, field): .4f}")
print("recombines exactly:", abs(report.total - report.recombine(hp)) < 1e-10)

# the domain distance is a per-slot sliced Wasserstein-2^2 on posterior means
x = ad.constant(rng.normal(size=(64, 1, 1)))
shift = 0.8
d = md.domain_distance(x, ad.constant(x.value + shift), n_projections=50,
                       rng=np.random.default_rng(2))
print(f"\ndomain distance for a batch shifted by {shift}: {float(d.value):.6f}"
      f" (exact translation value {shift**2:.6f})")
