"""The layers that read or write the K latent slots take them as one (B, K, .)
tensor: BottleneckAttention, prior_log_density_params and domain_distance.

Each is checked against its per-slot form in oracles.py (values, parameter
gradients and input gradients within 1e-12 of the oracle's largest entry),
and its graph is checked not to grow with K beyond what the prior's
recurrence needs.
"""

import numpy as np
import pytest

from msvae import autodiff as ad
from msvae import model as md
from msvae import nn
from oracles import bottleneck_per_slot, domain_distance_per_slot, prior_per_slot

TOL = 1e-12
SLOTS = [1, 2, 4]


def assert_rel_close(actual, expected, what):
    scale = np.max(np.abs(expected), initial=0.0)
    err = np.max(np.abs(actual - expected), initial=0.0)
    assert err <= TOL * scale, f"{what}: max error {err:.3g} against largest entry {scale:.3g}"


def values_and_gradients(build, leaves, seed=0):
    """The outputs of build() and the gradients of `leaves` under a fixed
    random weighting of every output entry."""
    outs = build()
    r = np.random.default_rng(seed)
    loss = ad.reduce_sum(ad.concat([ad.reshape(ad.mul(o, ad.constant(r.normal(size=o.value.shape))), (-1,))
                                    for o in outs]))
    ad.zero_grad(leaves)
    ad.backward(loss)
    return [o.value.copy() for o in outs], [p.gradient.copy() for p in leaves]


def assert_matches_oracle(build, oracle, leaves):
    got_values, got_grads = values_and_gradients(build, leaves)
    want_values, want_grads = values_and_gradients(oracle, leaves)
    for i, (got, want) in enumerate(zip(got_values, want_values)):
        assert got.shape == want.shape
        assert_rel_close(got, want, f"output {i}")
    for leaf, got, want in zip(leaves, got_grads, want_grads):
        assert_rel_close(got, want, f"gradient of {leaf.name}")


def graph_size(outs) -> int:
    """Nodes backward walks from a scalar over every output."""
    return len(ad._topo(ad.reduce_sum(ad.concat([ad.reshape(o, (-1,)) for o in outs]))))


def bottleneck(k, seed=1):
    r = np.random.default_rng(seed)
    bn = nn.BottleneckAttention(r, n_slots=k, hidden_dim=6, latent_dim=5, proj_dim=4)
    bn.tokens.value[...] = r.normal(size=bn.tokens.value.shape)  # slots that attend apart
    hidden = ad.leaf(r.normal(size=(3, 5, 6)), name="hidden")
    return bn, hidden


RAGGED = np.array([[1, 1, 1, 1, 1], [1, 1, 0, 0, 0], [1, 0, 0, 0, 0]], dtype=np.float64)


def prior_and_z(k, seed=2):
    r = np.random.default_rng(seed)
    prior = nn.AutoregressivePrior(r, latent_dim=3, hidden_dim=4)
    return prior, ad.leaf(r.normal(size=(3, k, 3)), name="z")


def means_pair(k, pb, ub, seed=3):
    r = np.random.default_rng(seed)
    return ad.leaf(r.normal(size=(pb, k, 2)), name="paired"), ad.leaf(r.normal(size=(ub, k, 2)), name="unpaired")


class TestAgainstPerSlotOracles:
    @pytest.mark.parametrize("k", SLOTS)
    @pytest.mark.parametrize("mask", [None, RAGGED], ids=["unmasked", "ragged"])
    def test_bottleneck(self, k, mask):
        bn, hidden = bottleneck(k)
        assert_matches_oracle(lambda: bn(hidden, mask), lambda: bottleneck_per_slot(bn, hidden, mask),
                              bn.params() + [hidden])

    @pytest.mark.parametrize("k", SLOTS)
    def test_prior(self, k):
        prior, z = prior_and_z(k)
        assert_matches_oracle(lambda: nn.prior_log_density_params(prior, z), lambda: prior_per_slot(prior, z),
                              prior.params() + [z])

    @pytest.mark.parametrize("k", SLOTS)
    @pytest.mark.parametrize("pb, ub", [(5, 5), (4, 7), (7, 4)])
    def test_domain_distance(self, k, pb, ub):
        x, y = means_pair(k, pb, ub)
        batched_rng, oracle_rng = np.random.default_rng(11), np.random.default_rng(11)
        assert_matches_oracle(lambda: (md.domain_distance(x, y, 6, batched_rng),),
                              lambda: (domain_distance_per_slot(x, y, 6, oracle_rng),), [x, y])
        assert batched_rng.bit_generator.state == oracle_rng.bit_generator.state


class TestGraphSizeOverSlots:
    def test_bottleneck_does_not_grow(self):
        def size(k):
            bn, hidden = bottleneck(k)
            return graph_size(bn(hidden, RAGGED))

        sizes = {k: size(k) for k in SLOTS}
        assert len(set(sizes.values())) == 1, sizes

    def test_domain_distance_does_not_grow(self):
        sizes = {k: graph_size([md.domain_distance(*means_pair(k, 4, 6), 5, np.random.default_rng(0))])
                 for k in SLOTS}
        assert len(set(sizes.values())) == 1, sizes

    def test_prior_grows_by_one_step_and_gate_block_per_slot(self):
        sizes = {k: graph_size(nn.prior_log_density_params(*prior_and_z(k))) for k in SLOTS}
        assert all(sizes[k] - sizes[1] == 2 * (k - 1) for k in SLOTS), sizes
