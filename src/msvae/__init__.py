"""Semi-supervised instruction following with a shared-latent sequence VAE.

Subpackages: autodiff (reverse-mode engine), nn (layers), gridworld
(environment + oracle), corpus (datasets), model (the VAE, baselines and
losses), pipelines (training loops), metrics (SR / BLEU / t-test), cli.
"""

import os

# one BLAS/OpenMP thread unless the caller chose otherwise: more threads cost
# CPU without saving time on these small matrices, and change float sums. This
# must run before numpy is first imported, which loads BLAS and reads these.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

__version__ = "0.1.0"
