"""The shared-latent sequence VAE, its seq2seq baselines, and every
objective term: per-modality reconstruction and KL terms, the cross-modal
terms, the unpaired trajectory bound, the per-slot sliced-Wasserstein domain
distance, and the combined training objective.

Both encoders and both decoders multiply the GRU inputs that do not depend
on the state once per batch and step on per-step blocks of that product;
the decoders' input feed is prepared once per sequence (see _Decoder). The
objective runs each encoder, decoder and the prior once per step, over the
paired and unpaired rows stacked (see per_sample_terms).

Conventions: modality 1 is the trajectory (actions given observations),
modality 2 is the language. All likelihood terms are per-sample sums of step
log-probabilities; reported loss terms are batch means. The combined
objective is maximized; trainers minimize its negation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import autodiff as ad
from . import gridworld as gw
from . import nn
from .autodiff import Node
from .corpus import RESERVED


@dataclass
class HyperParams:
    """Objective weights and optimizer settings."""

    alpha: float = 1.0 / 20.0
    gamma: float = 100.0
    beta: float = 0.1
    learning_rate: float = 1e-3
    n_projections: int = 50


OBS_VIEW = "ego"  # every model reads the egocentric view, as BabyAI's agents do; gw keeps both encoders


@dataclass
class ModelConfig:
    vocab_size: int = 0  # set from the corpus vocabulary by TrainConfig.model_config
    obs_dim: int = gw.OBS_VIEWS[OBS_VIEW][1]  # any other width is a synthetic test vector (_grid_shape)
    word_emb: int = 32
    action_emb: int = 16
    hidden: int = 64
    obs_hidden: int = 128  # intermediate width of the observation MLP
    attn_dim: int = 64
    cell_dim: int = 32  # projection width of the spatial cell readout
    k_slots: int = 4
    latent_dim: int = 128
    prior_hidden: int = 128


@dataclass
class LossReport:
    """Per-term breakdown of the combined objective (all batch means)."""

    a1: float
    a2: float
    b1: float
    b2: float
    c1: float
    c2: float
    v: float
    dprime: float
    total: float

    FIELDS = ("a1", "a2", "b1", "b2", "c1", "c2", "v", "dprime", "total")

    def recombine(self, hp: HyperParams) -> float:
        """Reassemble the total from the parts with the given weights."""
        jbar = 0.5 * (self.a1 + hp.beta * self.b1 + self.c1 + self.a2 + hp.beta * self.b2 + self.c2)
        return jbar + hp.gamma * self.v - hp.alpha * self.dprime

    def as_row(self) -> list[float]:
        return [getattr(self, f) for f in self.FIELDS]


# ---------------------------------------------------------------------------
# batches


@dataclass
class LangBatch:
    enc_mask: np.ndarray  # (B, L)
    dec_in: np.ndarray  # bos + tokens
    dec_tgt: np.ndarray  # tokens + eos, padded: the encoder's input and the decoder's targets

    def __post_init__(self):
        self.packing = nn.Packing(self.enc_mask)  # shared by the encoder and the decoder

    def repeat_first(self, b: int) -> "LangBatch":
        """This batch's rows, then its first b rows again."""
        index = np.r_[: self.enc_mask.shape[0], :b]
        return LangBatch(self.enc_mask[index], self.dec_in[index], self.dec_tgt[index])


@dataclass
class TrajBatch:
    # the running steps' observations, packed (step-major, as Packing.pack
    # orders them) for both observation MLPs and every readout; padded steps
    # have no row
    packed_obs: np.ndarray
    dec_in: np.ndarray  # start + actions[:-1]
    dec_tgt: np.ndarray  # the recorded actions: the encoder's input and the decoder's targets
    mask: np.ndarray

    def __post_init__(self):
        self.packing = nn.Packing(self.mask)

    @functools.cached_property
    def obs_columns(self) -> ad.SplitColumns:
        """packed_obs cut for the observation MLPs' first layer, shared by
        both of them. Built on first use, so after repeat_first has set
        packed_obs."""
        return ad.SplitColumns(self.packed_obs)

    def repeat_first(self, b: int) -> tuple["TrajBatch", np.ndarray]:
        """This batch's rows, then its first b rows again; and the packed row
        of this batch that each packed row of the new batch repeats."""
        index = np.r_[: self.mask.shape[0], :b]
        # the packed rows are gathered once the new batch's packing orders them
        batch = TrajBatch(self.packed_obs[:0], self.dec_in[index], self.dec_tgt[index], self.mask[index])
        source = batch.packing.pack(self.packing.positions()[index])
        batch.packed_obs = self.packed_obs[source]
        return batch, source


def make_lang_batch(token_lists) -> LangBatch:
    if not token_lists:
        raise ValueError("empty language batch")
    if any(len(t) == 0 for t in token_lists):
        raise ValueError("empty token sequence")
    pad, bos, eos = RESERVED["<pad>"], RESERVED["<bos>"], RESERVED["<eos>"]
    width = max(len(t) for t in token_lists) + 1  # + eos
    b = len(token_lists)
    dec_in = np.full((b, width), pad, dtype=np.intp)
    dec_tgt = np.full((b, width), pad, dtype=np.intp)
    mask = np.zeros((b, width))
    for i, toks in enumerate(token_lists):
        n = len(toks)
        dec_in[i, 0] = bos
        dec_in[i, 1 : n + 1] = toks
        dec_tgt[i, :n] = toks
        dec_tgt[i, n] = eos
        mask[i, : n + 1] = 1.0
    return LangBatch(mask, dec_in, dec_tgt)


def make_traj_batch(trajectories) -> TrajBatch:
    if not trajectories:
        raise ValueError("empty trajectory batch")
    if any(len(t) == 0 for t in trajectories):
        raise ValueError("empty trajectory")
    start_id, pad_id = gw.N_ACTIONS, gw.N_ACTIONS + 1
    width = max(len(t) for t in trajectories)
    b = len(trajectories)
    dec_in = np.full((b, width), pad_id, dtype=np.intp)
    dec_tgt = np.full((b, width), 0, dtype=np.intp)
    mask = np.zeros((b, width))
    for i, tr in enumerate(trajectories):
        n = len(tr)
        dec_in[i, 0] = start_id
        dec_in[i, 1:n] = tr.actions[: n - 1]
        dec_tgt[i, :n] = tr.actions
        mask[i, :n] = 1.0
    batch = TrajBatch(np.empty((int(mask.sum()), trajectories[0].observations.shape[1])), dec_in, dec_tgt, mask)
    # each trajectory's observations go straight to their packed rows, with
    # no padded (B, T, obs_dim) copy
    positions = batch.packing.positions()
    for i, tr in enumerate(trajectories):
        batch.packed_obs[positions[i, : len(tr)]] = tr.observations
    return batch


# ---------------------------------------------------------------------------
# building blocks


class ObsMlp(nn.Layer):
    """Flattened one-hot grid -> hidden features, two tanh layers."""

    def __init__(self, rng, obs_dim: int, hidden: int, width: int | None = None):
        super().__init__()
        width = width or hidden
        self.l1 = self._child("l1", nn.Linear(rng, obs_dim, width))
        self.l2 = self._child("l2", nn.Linear(rng, width, hidden))

    def features(self, traj: TrajBatch) -> Node:
        """A packed batch's observations -> the (sum(counts), H) features of
        every running (step, row) pair, step-major as Packing.pack orders
        them. The MLP runs once over all of them; padded steps are never
        computed. The first layer is ad.split_matmul over the batch's
        obs_columns: a dense product for the columns most rows set, a
        gather-sum of weight rows for the other ones."""
        first = ad.add_rowvec(ad.split_matmul(traj.obs_columns, self.l1.w), self.l1.b)
        return ad.tanh(self.l2(ad.tanh(first)))

    def one_hot_row(self, o: np.ndarray) -> np.ndarray:
        """The features of one (1, obs_dim) one-hot observation, as a decode
        step needs them: an array, no graph. The first layer sums the weight
        rows at the ones (about 130 of 1 699 in the ego view) instead of
        reading the whole weight through a dense product. Batches go through
        features, whose split product builds a column index per batch."""
        if o.ndim != 2 or o.shape[0] != 1:
            raise ad.ShapeMismatch(f"one_hot_row: expected one (1, obs_dim) row, got {o.shape}")
        h = self.l1.w.value[np.flatnonzero(o[0])].sum(axis=0, keepdims=True) + self.l1.b.value
        return np.tanh(np.tanh(h) @ self.l2.w.value + self.l2.b.value)


def _grid_shape(obs_dim: int) -> tuple[int, int]:
    """(n_cells, channels) factorization of a flat observation.

    Observations of another width than the view's (synthetic feature vectors
    in small tests) degrade to a single cell: the readout is a projection.
    """
    _, dim, cells, channels = gw.OBS_VIEWS[OBS_VIEW]
    return (cells, channels) if obs_dim == dim else (1, obs_dim)


def grid_readout_values(query: np.ndarray, cells: np.ndarray, wq_w: np.ndarray, wq_b: np.ndarray,
                        wc_w: np.ndarray, wc_b: np.ndarray, pos: np.ndarray, scale: float):
    """The forward arithmetic of fused_grid_readout on arrays, the one place
    it is written. Returns the attended cell features and what the backward
    pass reads: the projected query, the attention weights and the mix of
    the raw cells."""
    qv = query @ wq_w + wq_b
    qc = qv @ wc_w.T
    scores = (np.matmul(cells, qc[:, :, None])[:, :, 0] + qv @ pos.T) * scale
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    mix = np.matmul(w[:, None, :], cells)[:, 0, :]
    return mix @ wc_w + wc_b + w @ pos, qv, w, mix


def fused_grid_readout(query: Node, cells: np.ndarray, wq_w: Node, wq_b: Node, wc_w: Node,
                       wc_b: Node, pos: Node, scale: float) -> Node:
    """GridReadout attention as a single graph node with a hand-written backward.

    Equivalent to the composed-op readout (keys and values wc(cells) + pos,
    scaled dot-product attention, the mix), the oracle it is tested against,
    with one node where the composed form builds fifteen. `cells` is the
    constant (B, n_cells, channels) grid, captured rather than an operand.
    """
    out, qv, w, mix = grid_readout_values(query.value, cells, wq_w.value, wq_b.value, wc_w.value, wc_b.value,
                                          pos.value, scale)

    def vjp(g):
        dw = np.matmul(cells, (g @ wc_w.value.T)[:, :, None])[:, :, 0] + g @ pos.value.T
        ds = w * (dw - (dw * w).sum(axis=1, keepdims=True)) * scale
        dqc = np.matmul(ds[:, None, :], cells)[:, 0, :]
        dq = ds @ pos.value + dqc @ wc_w.value
        dquery = dq @ wq_w.value.T if query.needs_grad else None
        return (dquery, query.value.T @ dq, dq.sum(axis=0),
                mix.T @ g + dqc.T @ qv, g.sum(axis=0), w.T @ g + ds.T @ qv)

    return Node(out, (query, wq_w, wq_b, wc_w, wc_b, pos), vjp)


class GridReadout(nn.Layer):
    """Spatial attention over grid cells.

    Cell keys/values are a linear map of the per-cell channels plus a learned
    position embedding; the query comes from decoder state and attention
    context. The dot product performs the instruction-to-cell binding that a
    flat MLP over the one-hot grid cannot learn at desk-scale sample counts.
    """

    def __init__(self, rng, query_dim: int, proj_dim: int, cfg: ModelConfig):
        super().__init__()
        self.n_cells, self.channels = _grid_shape(cfg.obs_dim)
        self.cell_block = self.n_cells * self.channels  # trailing dims (carried object) are global
        self.scale = 1.0 / np.sqrt(proj_dim)
        self.wc = self._child("wc", nn.Linear(rng, self.channels, proj_dim))
        self.pos = self._param("pos", rng.normal(0.0, 0.02, size=(self.n_cells, proj_dim)))
        self.wq = self._child("wq", nn.Linear(rng, query_dim, proj_dim))

    def cells(self, obs: np.ndarray) -> np.ndarray:
        """(n, obs_dim) observations -> their cell grids, a constant
        (n, n_cells, channels) view.

        The cells are never projected: the readout applies the channel
        projection to the query and to the attended mix instead.
        """
        return obs[:, : self.cell_block].reshape(obs.shape[0], self.n_cells, self.channels)

    def __call__(self, query: Node, cells: np.ndarray) -> Node:
        """query (B, q) x cells (B, n_cells, channels) -> attended cell features
        (channel projection + position embedding of the attended cells), as
        one fused_grid_readout node."""
        return fused_grid_readout(query, cells, self.wq.w, self.wq.b, self.wc.w, self.wc.b,
                                  self.pos, self.scale)


class LanguageEncoderCore(nn.Layer):
    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.emb = self._child("emb", nn.Embedding(rng, cfg.vocab_size, cfg.word_emb))
        self.gru = self._child("gru", nn.GruCell(rng, cfg.word_emb, cfg.hidden))

    def hidden_states(self, lang: LangBatch) -> tuple[Node, Node]:
        packing = lang.packing
        gates = self.gru.input_gates(self.emb(packing.pack(lang.dec_tgt)), packing.counts)
        return nn.gru_encode(self.gru, packing, lambda t, h: self.gru.step(gates[t], h))


class TrajEncoderCore(nn.Layer):
    """Steps over (obs features, action embedding, spatial readout) inputs;
    the readout, queried by the running state, grounds which objects the
    agent is near so downstream language decoding can name them. The first
    two do not depend on the state: their gate input is one product per
    batch, and only the readout is multiplied per step."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.emb = self._child("emb", nn.Embedding(rng, gw.N_ACTIONS + 2, cfg.action_emb))
        self.readout = self._child("readout", GridReadout(rng, cfg.hidden, cfg.cell_dim, cfg))
        self.input_blocks = [cfg.hidden + cfg.action_emb, cfg.cell_dim]  # static, readout
        self.gru = self._child("gru", nn.GruCell(rng, sum(self.input_blocks), cfg.hidden))

    def hidden_states(self, traj: TrajBatch, obs_feats: Node) -> tuple[Node, Node]:
        """obs_feats: the packed features of ObsMlp.features."""
        packing = traj.packing
        w_static, w_readout = ad.split_rows(self.gru.w, self.input_blocks)
        static = ad.concat([obs_feats, self.emb(packing.pack(traj.dec_tgt))], axis=1)
        gates = self.gru.input_gates(static, packing.counts, w_static)
        obs = packing.split(traj.packed_obs)

        def step(t, h):
            return self.gru.step(gates[t], h, self.readout(h, self.readout.cells(obs[t])), w_readout)

        return nn.gru_encode(self.gru, packing, step)


def _first_rows(x, n: int):
    """The first n rows of a node or an array; None stays None."""
    if x is None:
        return None
    return x[:n] if isinstance(x, np.ndarray) else ad.narrow(x, 0, 0, n)


class _Decoder(nn.Layer):
    """What both autoregressive decoders share: the recurrent step with its
    input feed, the context it reads from the memory (by attention or,
    without it, as the fixed (B, memory_dim) summary itself), the
    teacher-forced loop, and the same step on arrays for rollouts.

    The GRU input is the static parts (observation features, previous
    action or word embedding), then the previous step's context (input
    feeding). The static parts do not depend on the state, so their gate
    input is one product per batch (input_gates), cut into steps. The
    context depends on the state; how it enters follows what the memory is:
    - slot_memory, a few fixed slots read by attention (the latent model's
      K slots): the context mixes the slots, so its product with the
      context rows of the input weight is the same mix of the slots
      projected by those rows once per sequence, and each step mixes that
      projection with the previous attention weights;
    - one entry per time step (the baselines' encoder states) or no
      attention: each step multiplies the context by the context rows.
      Mixing a long memory would write a (T, 3H) outer product per row in
      the backward pass, which measured slower than the product.
    The first step has no previous context.
    """

    def __init__(self, memory_dim: int, use_attention: bool, static_dim: int, slot_memory: bool):
        super().__init__()
        self.use_attention = use_attention
        self.memory_dim = memory_dim
        self.static_dim = static_dim
        self.slot_memory = slot_memory and use_attention

    def _weights(self) -> list[Node]:
        """The GRU input weight's row blocks: the static parts' and the context's."""
        return ad.split_rows(self.gru.w, [self.static_dim, self.memory_dim])

    def _context(self, h: Node, memory, prepared, memory_mask) -> tuple[Node, Node | None]:
        """The step's context and, with attention, the weights that mix it
        from the memory."""
        if self.use_attention:
            return self.attn(h, prepared, memory, memory_mask)
        return memory, None

    def prepare(self, memory) -> tuple[Node | None, Node]:
        """Once per sequence: the attention keys and what feeds the context
        to the next step: for a slot memory the slots projected by the
        context rows of the input weight, (B, K, 3H), else those rows
        themselves."""
        keys = self.attn.prepare(memory) if self.use_attention else None
        w_context = self._weights()[1]
        if not self.slot_memory:
            return keys, w_context
        b, k, d = memory.value.shape
        proj = ad.matmul(ad.reshape(memory, (b * k, d)), w_context)
        return keys, ad.reshape(proj, (b, k, proj.value.shape[1]))

    def _recurrent_step(self, gates: Node, h: Node, prev, memory, prepared, feed, memory_mask):
        """Step the GRU on its static gate block and the previous step's
        feed `prev` (None at the first step: no input) times its weight rows
        `feed`, each row's projected slots or the shared context rows.
        Returns (state, context, this step's feed for the next)."""
        h = self.gru.step(gates, h, prev, feed)
        ctx, weights = self._context(h, memory, prepared, memory_mask)
        return h, ctx, weights if self.slot_memory else ctx

    def _recurrent_values(self):
        """_recurrent_step on arrays: a function of its arguments, every Node
        an ndarray, that builds no graph. The GRU's values are read here."""
        u, bx, bh = self.gru.u.value, self.gru.bx.value, self.gru.bh.value

        def recurrent(gates, h, prev, memory, prepared, feed, memory_mask):
            h = nn.gru_step_values(gates, h, u, bx, bh, prev, feed)[0]
            ctx, weights = (self.attn.attend(h, prepared, memory, memory_mask) if self.use_attention
                            else (memory, None))
            return h, ctx, weights if self.slot_memory else ctx

        return recurrent

    def _rollout_arrays(self, memory: Node, memory_mask, h: Node | None):
        """What a rollout's steps read, as arrays, made once: the initial
        state (None: zeros), the memory, its prepared keys (None without
        attention), the feed weights, the static rows of the input weight and
        the memory mask. Arrays, not nodes, so that keeping them keeps no graph."""
        prepared, feed = self.prepare(memory)
        return (np.zeros((1, self.gru.n_hidden)) if h is None else h.value, memory.value,
                None if prepared is None else prepared.value, feed.value, self.gru.w.value[: self.static_dim],
                memory_mask)

    def _teacher_forced(self, batch, gates: list[Node], memory, memory_mask, h0: Node | None, step_inputs) -> Node:
        """Per-sample sum of log p(batch.dec_tgt[:, t] | ...) over each row's
        steps -> (B,), in the caller's row order.

        The loop runs packed: the memory, its mask and h0 enter in the
        packing's row order, and step t computes only the counts[t] rows
        still running. gates are the steps' blocks of input_gates;
        step_inputs(t) gives the step_logits arguments that come between
        step t's block and the state."""
        packing = batch.packing
        if not packing.identity:
            memory = ad.gather_rows(memory, packing.order)
            memory_mask = None if memory_mask is None else memory_mask[packing.order]
            h0 = None if h0 is None else ad.gather_rows(h0, packing.order)
        prepared, feed = self.prepare(memory)
        h = h0 if h0 is not None else self.gru.init_state(packing.counts[0])
        prev = None
        targets = packing.steps(batch.dec_tgt)
        picked = []
        for t, n in enumerate(packing.counts):
            if n < h.value.shape[0]:
                h, prev, memory, prepared, memory_mask = (
                    _first_rows(x, n) for x in (h, prev, memory, prepared, memory_mask))
                feed = _first_rows(feed, n) if self.slot_memory else feed  # projected slots have rows
            logits, h, prev = self.step_logits(gates[t], *step_inputs(t), h, prev, memory, prepared, feed,
                                               memory_mask)
            picked.append(ad.select_columns(ad.log_softmax(logits), targets[t]))
        return ad.reduce_sum(ad.ragged_stack(picked, packing.order), axis=1)


class ActionDecoder(_Decoder):
    """Autoregressive policy head; the memory enters only through attention
    contexts (fed to the head and to the next step)."""

    def __init__(self, rng, cfg: ModelConfig, memory_dim: int, use_attention: bool = True,
                 slot_memory: bool = False):
        super().__init__(memory_dim, use_attention, cfg.hidden + cfg.action_emb, slot_memory)
        self.emb = self._child("emb", nn.Embedding(rng, gw.N_ACTIONS + 2, cfg.action_emb))
        self.gru = self._child("gru", nn.GruCell(rng, self.static_dim + memory_dim, cfg.hidden))
        if use_attention:
            self.attn = self._child("attn", nn.KeyValueAttention(rng, cfg.hidden, memory_dim, cfg.attn_dim))
        # spatial readout: query from (state, instruction context) attends
        # over grid cells; the dot product binds the instruction to cells
        self.readout = self._child("readout", GridReadout(rng, cfg.hidden + memory_dim, cfg.cell_dim, cfg))
        self.head = self._child("head", nn.Linear(rng, memory_dim + cfg.hidden + cfg.cell_dim, gw.N_ACTIONS))

    def input_gates(self, traj: TrajBatch, obs_feats: Node) -> list[Node]:
        """The static gate input of every step of a batch, from the packed
        features of ObsMlp.features and the previous actions."""
        static = ad.concat([obs_feats, self.emb(traj.packing.pack(traj.dec_in))], axis=1)
        return self.gru.input_gates(static, traj.packing.counts, self._weights()[0])

    def step_logits(self, gates: Node, cell_feats: np.ndarray, h: Node, prev, memory, prepared, feed,
                    memory_mask):
        """One step from its static gate block; returns (logits, state, this
        step's feed for the next)."""
        h, ctx, fed = self._recurrent_step(gates, h, prev, memory, prepared, feed, memory_mask)
        cell_ctx = self.readout(ad.concat([h, ctx], axis=1), cell_feats)
        return self.head(ad.concat([ctx, h, cell_ctx], axis=1)), h, fed

    def teacher_forced_logll(self, traj: TrajBatch, gates: list[Node], memory,
                             memory_mask=None, h0: Node | None = None) -> Node:
        """Per-sample sum of log p(a_t | ...) over valid steps -> (B,);
        gates are the per-step blocks of input_gates."""
        obs = traj.packing.split(traj.packed_obs)
        return self._teacher_forced(traj, gates, memory, memory_mask, h0, lambda t: (self.readout.cells(obs[t]),))

    def array_step(self):
        """step_logits on arrays: a function of its arguments, every Node an
        ndarray, that returns the same logits, state and feed bit for bit and
        builds no graph. The parameter values are read here, once."""
        recurrent = self._recurrent_values()
        r = self.readout
        readout = (r.wq.w.value, r.wq.b.value, r.wc.w.value, r.wc.b.value, r.pos.value, r.scale)
        head_w, head_b = self.head.w.value, self.head.b.value

        def step(gates, cell_feats, h, prev, memory, prepared, feed, memory_mask):
            h, ctx, fed = recurrent(gates, h, prev, memory, prepared, feed, memory_mask)
            cell_ctx = grid_readout_values(np.concatenate([h, ctx], axis=1), cell_feats, *readout)[0]
            return np.concatenate([ctx, h, cell_ctx], axis=1) @ head_w + head_b, h, fed

        return step

    def rollout(self, world: gw.World, obs_mlp: ObsMlp, encode_obs, arrays, mode: str, rng, max_steps: int,
                seen: dict):
        """Act in the environment from one instruction's _rollout_arrays until
        `done` or max_steps; returns (trajectory, visited states). The steps
        run on arrays (array_step). `seen` maps each world already observed
        to its (observation row, ObsMlp.one_hot_row features, readout cells);
        a world it lacks is encoded once and added, so a state that comes
        back, in this rollout or in another that shares the dict, is not
        encoded again."""
        h, memory, prepared, feed, w_static, memory_mask = arrays
        step, emb = self.array_step(), self.emb.table.value
        fed, prev = None, gw.N_ACTIONS  # the start id
        states = [world]
        obs_rows, actions = [], []
        for _ in range(max_steps):
            observed = seen.get(world)
            if observed is None:
                o = encode_obs([world])
                observed = seen[world] = o[0], obs_mlp.one_hot_row(o), self.readout.cells(o)
            row, feats, cells = observed
            gates = np.concatenate([feats, emb[[prev]]], axis=1) @ w_static
            logits, h, fed = step(gates, cells, h, fed, memory, prepared, feed, memory_mask)
            prev = _pick(logits[0], mode, rng)
            obs_rows.append(row)
            actions.append(prev)
            world, done = gw.step(world, prev)
            states.append(world)
            if done:
                break
        return gw.Trajectory(np.array(obs_rows), tuple(actions)), states


class WordDecoder(_Decoder):
    """Autoregressive language head; bos-prefixed, eos-terminated."""

    def __init__(self, rng, cfg: ModelConfig, memory_dim: int, slot_memory: bool = False):
        super().__init__(memory_dim, True, cfg.word_emb, slot_memory)
        self.emb = self._child("emb", nn.Embedding(rng, cfg.vocab_size, cfg.word_emb))
        self.gru = self._child("gru", nn.GruCell(rng, self.static_dim + memory_dim, cfg.hidden))
        self.attn = self._child("attn", nn.KeyValueAttention(rng, cfg.hidden, memory_dim, cfg.attn_dim))
        self.head = self._child("head", nn.Linear(rng, memory_dim + cfg.hidden, cfg.vocab_size))

    def input_gates(self, lang: LangBatch) -> list[Node]:
        """The static gate input of every step of a batch, from the previous words."""
        return self.gru.input_gates(self.emb(lang.packing.pack(lang.dec_in)), lang.packing.counts, self._weights()[0])

    def step_logits(self, gates: Node, h: Node, prev, memory, prepared, feed, memory_mask):
        """One step from its static gate block; returns (logits, state, this
        step's feed for the next)."""
        h, ctx, fed = self._recurrent_step(gates, h, prev, memory, prepared, feed, memory_mask)
        return self.head(ad.concat([ctx, h], axis=1)), h, fed

    def teacher_forced_logll(self, lang: LangBatch, gates: list[Node], memory, memory_mask=None,
                             h0: Node | None = None) -> Node:
        """gates are the per-step blocks of input_gates."""
        return self._teacher_forced(lang, gates, memory, memory_mask, h0, lambda t: ())

    def array_step(self):
        """step_logits on arrays, as ActionDecoder.array_step."""
        recurrent = self._recurrent_values()
        head_w, head_b = self.head.w.value, self.head.b.value

        def step(gates, h, prev, memory, prepared, feed, memory_mask):
            h, ctx, fed = recurrent(gates, h, prev, memory, prepared, feed, memory_mask)
            return np.concatenate([ctx, h], axis=1) @ head_w + head_b, h, fed

        return step

    def rollout(self, memory, memory_mask, h: Node | None, mode: str, rng, len_cap: int):
        """Speak from one episode's memory and initial state (None: zeros)
        until eos or len_cap tokens; returns (token ids, truncated flag). The
        steps run on arrays (array_step)."""
        h, memory, prepared, feed, w_static, memory_mask = self._rollout_arrays(memory, memory_mask, h)
        step, emb = self.array_step(), self.emb.table.value
        fed, prev = None, RESERVED["<bos>"]
        out = []
        for _ in range(len_cap):
            logits, h, fed = step(emb[[prev]] @ w_static, h, fed, memory, prepared, feed, memory_mask)
            prev = _pick(logits[0], mode, rng)
            if prev == RESERVED["<eos>"]:
                return out, False
            out.append(prev)
        return out, True


# ---------------------------------------------------------------------------
# the shared-latent model


class MsVae(nn.Layer):
    """Two encoders to K latent slots, two autoregressive decoders reading
    the slots through attention, and an autoregressive slot prior."""

    kind = "msvae"

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        # decoder-side and encoder-side observation featurizers are separate
        # so each can be warm-started from its corresponding baseline
        self.obs_mlp = self._child("obs_mlp", ObsMlp(rng, cfg.obs_dim, cfg.hidden, cfg.obs_hidden))
        self.enc_obs_mlp = self._child("enc_obs_mlp", ObsMlp(rng, cfg.obs_dim, cfg.hidden, cfg.obs_hidden))
        self.lang_enc = self._child("lang_enc", LanguageEncoderCore(rng, cfg))
        self.lang_bottleneck = self._child(
            "lang_bottleneck", nn.BottleneckAttention(rng, cfg.k_slots, cfg.hidden, cfg.latent_dim, cfg.attn_dim)
        )
        self.traj_enc = self._child("traj_enc", TrajEncoderCore(rng, cfg))
        self.traj_bottleneck = self._child(
            "traj_bottleneck", nn.BottleneckAttention(rng, cfg.k_slots, cfg.hidden, cfg.latent_dim, cfg.attn_dim)
        )
        self.act_dec = self._child("act_dec", ActionDecoder(rng, cfg, memory_dim=cfg.latent_dim, slot_memory=True))
        self.word_dec = self._child("word_dec", WordDecoder(rng, cfg, memory_dim=cfg.latent_dim, slot_memory=True))
        self.prior = self._child("prior", nn.AutoregressivePrior(rng, cfg.latent_dim, cfg.prior_hidden))

    # encoders ---------------------------------------------------------------

    def encode_language(self, lang: LangBatch) -> tuple[Node, Node]:
        hidden, _ = self.lang_enc.hidden_states(lang)
        return self.lang_bottleneck(hidden, lang.enc_mask)

    def encode_trajectory(self, traj: TrajBatch) -> tuple[Node, Node]:
        hidden, _ = self.traj_enc.hidden_states(traj, self.enc_obs_mlp.features(traj))
        return self.traj_bottleneck(hidden, traj.mask)

    # decoder memories, as (memory, mask, initial state): the posterior mean
    # slots, all attended, and the zero state

    def instruction_memory(self, lang: LangBatch):
        return self.encode_language(lang)[0], None, None

    def trajectory_memory(self, traj: TrajBatch):
        return self.encode_trajectory(traj)[0], None, None

    # the objective's likelihoods, given latent slots z -----------------------

    def action_log_likelihood(self, z: Node, traj: TrajBatch, obs_feats: Node | None = None) -> Node:
        """obs_feats: the decoder-side ObsMlp.features of traj, if already made."""
        if obs_feats is None:
            obs_feats = self.obs_mlp.features(traj)
        return self.act_dec.teacher_forced_logll(traj, self.act_dec.input_gates(traj, obs_feats), z)

    def language_log_likelihood(self, z: Node, lang: LangBatch) -> Node:
        return self.word_dec.teacher_forced_logll(lang, self.word_dec.input_gates(lang), z)

    # The follower and speaker interface of every model kind, which the
    # baselines take by assignment: each reads only the kind's memory.
    # perfbench wraps these methods, in this class's own body, and the
    # decoders' step_logits by name. Inference is the plain forward pass:
    # one batch-1 graph encodes the memory, and the rollouts step on arrays.

    def follower_log_likelihood(self, lang: LangBatch, traj: TrajBatch) -> Node:
        """Per-sample teacher-forced log p(actions | instruction) -> (B,)."""
        memory, mask, h0 = self.instruction_memory(lang)
        gates = self.act_dec.input_gates(traj, self.obs_mlp.features(traj))
        return self.act_dec.teacher_forced_logll(traj, gates, memory, mask, h0)

    def speaker_log_likelihood(self, traj: TrajBatch, lang: LangBatch) -> Node:
        """Per-sample teacher-forced log p(tokens | trajectory) -> (B,)."""
        memory, mask, h0 = self.trajectory_memory(traj)
        return self.word_dec.teacher_forced_logll(lang, self.word_dec.input_gates(lang), memory, mask, h0)

    def follow(self, tokens, world: gw.World, mode: str = "greedy", rng=None, max_steps: int = 64,
               cache: dict | None = None):
        """Roll the policy in the environment from a language instruction;
        returns (trajectory, visited states). The encoder is looked up per call.

        `cache` (None: a fresh dict for this call) holds what the rollout
        reads and does not change while the parameters do not: under
        tuple(tokens) the instruction's _rollout_arrays, and under each world
        already observed its features (ActionDecoder.rollout). Only what it
        lacks is computed, and the outputs are the same bits either way. The
        caller owns it, for one episode of this follower: a dict shared by
        another model, or kept across a parameter update, gives stale values."""
        cache = {} if cache is None else cache
        key = tuple(tokens)
        if key not in cache:
            cache[key] = self.act_dec._rollout_arrays(*self.instruction_memory(make_lang_batch([list(tokens)])))
        return self.act_dec.rollout(world, self.obs_mlp, gw.OBS_VIEWS[OBS_VIEW][0], cache[key], mode, rng,
                                    max_steps, cache)

    def speak(self, traj: gw.Trajectory, mode: str = "greedy", rng=None,
              len_cap: int = 30) -> tuple[list[int], bool]:
        """Describe a trajectory; returns (token ids, truncated flag)."""
        memory, mask, h = self.trajectory_memory(make_traj_batch([traj]))
        return self.word_dec.rollout(memory, mask, h, mode, rng, len_cap)

    def trajectory_language_score(self, trajs, tokens) -> np.ndarray:
        """log p(tokens | traj) for each trajectory, the pragmatic-inference
        score, from one batched teacher-forced pass. A trajectory equal to an
        earlier one (same actions, same observation bytes) is scored once and
        its score copied, so exact ties stay exact."""
        first: dict = {}  # (actions, observation bytes) -> (row, trajectory)
        rows = [first.setdefault((tuple(t.actions), t.observations.tobytes()), (len(first), t))[0] for t in trajs]
        unique = [t for _, t in first.values()]
        lang = make_lang_batch([list(tokens)] * len(unique))
        return self.speaker_log_likelihood(make_traj_batch(unique), lang).value[rows]


def _pick(logits: np.ndarray, mode: str, rng) -> int:
    if mode == "greedy":
        return int(np.argmax(logits))
    if mode == "sample":
        shifted = logits - logits.max()
        p = np.exp(shifted)
        p /= p.sum()
        return int(rng.choice(len(p), p=p))
    raise ValueError(f"unknown decoding mode {mode!r}")


# ---------------------------------------------------------------------------
# baselines (no latent bottleneck)


class BaselineFollower(nn.Layer):
    """Standard attention seq2seq policy; attention optional so the
    no-attention architecture row is the same class."""

    kind = "follower"

    def __init__(self, rng, cfg: ModelConfig, attention: bool = True):
        super().__init__()
        self.cfg = cfg
        self.attention = attention
        self.obs_mlp = self._child("obs_mlp", ObsMlp(rng, cfg.obs_dim, cfg.hidden, cfg.obs_hidden))
        self.lang_enc = self._child("lang_enc", LanguageEncoderCore(rng, cfg))
        self.act_dec = self._child("act_dec", ActionDecoder(rng, cfg, memory_dim=cfg.hidden, use_attention=attention))
        self.init_map = self._child("init_map", nn.Linear(rng, cfg.hidden, cfg.hidden))

    def instruction_memory(self, lang: LangBatch):
        hidden, final = self.lang_enc.hidden_states(lang)
        memory = hidden if self.attention else final
        mask = lang.enc_mask if self.attention else None
        return memory, mask, ad.tanh(self.init_map(final))

    follower_log_likelihood = MsVae.follower_log_likelihood
    follow = MsVae.follow


class BaselineSpeaker(nn.Layer):
    """Attention seq2seq from trajectories to language."""

    kind = "speaker"

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.cfg = cfg
        self.obs_mlp = self._child("obs_mlp", ObsMlp(rng, cfg.obs_dim, cfg.hidden, cfg.obs_hidden))
        self.traj_enc = self._child("traj_enc", TrajEncoderCore(rng, cfg))
        self.word_dec = self._child("word_dec", WordDecoder(rng, cfg, memory_dim=cfg.hidden))
        self.init_map = self._child("init_map", nn.Linear(rng, cfg.hidden, cfg.hidden))

    def trajectory_memory(self, traj: TrajBatch):
        hidden, final = self.traj_enc.hidden_states(traj, self.obs_mlp.features(traj))
        return hidden, traj.mask, ad.tanh(self.init_map(final))

    speaker_log_likelihood = MsVae.speaker_log_likelihood
    speak = MsVae.speak
    trajectory_language_score = MsVae.trajectory_language_score


# ---------------------------------------------------------------------------
# objectives


def per_sample_terms(model: MsVae, lang: LangBatch, traj: TrajBatch, rng) -> dict:
    """Run every module of the objective once over stacked rows.

    traj holds the paired trajectories (one per instruction of lang, in its
    order), then any unpaired ones. Each posterior gets one reparameterized
    sample, its noise drawn in the order paired z1, z2, unpaired z1. The
    latent rows are [paired z1; unpaired z1; z2]. The action decoder reads
    them all, each with its trajectory; the word decoder reads
    [paired z1; z2] with the instructions twice; the prior and the KL read
    them all. The action decoder's batch repeats the paired rows, so its
    features are computed once per trajectory and gathered (with
    ad.embedding, whose backward adds up repeated rows).

    Returns the per-sample outputs in those row orders ("actions", "words",
    "kl"), the trajectory posterior means and the number of paired rows.
    """
    n_paired, n = lang.dec_tgt.shape[0], traj.mask.shape[0]
    if n < n_paired:
        raise ValueError(f"{n} trajectories for {n_paired} instructions: the paired ones come first")
    m1, lv1 = model.encode_trajectory(traj)
    m2, lv2 = model.encode_language(lang)
    means, logvars = ad.concat([m1, m2], axis=0), ad.concat([lv1, lv2], axis=0)
    noise = rng.standard_normal((n + n_paired,) + m1.value.shape[1:])  # in draw order, to latent row order
    z = nn.reparameterize(means, logvars, np.concatenate([noise[:n_paired], noise[2 * n_paired:],
                                                          noise[n_paired : 2 * n_paired]]))
    decoded, source = traj.repeat_first(n_paired)
    feats = ad.embedding(model.obs_mlp.features(traj), source)
    paired = np.r_[:n_paired, n : n + n_paired]
    prior_mean, prior_logvar = nn.prior_log_density_params(model.prior, z)
    return {
        "actions": model.action_log_likelihood(z, decoded, feats),
        "words": model.language_log_likelihood(ad.gather_rows(z, paired), lang.repeat_first(n_paired)),
        "kl": nn.gaussian_kl_per_sample(means, logvars, prior_mean, prior_logvar),
        "traj_means": m1,
        "n_paired": n_paired,
    }


def _block_mean(x: Node, start: int, size: int) -> Node:
    return ad.reduce_mean(ad.narrow(x, 0, start, size))


def paired_loss(terms: dict, hp: HyperParams) -> dict:
    """All paired-bound terms from per_sample_terms: each modality's
    reconstruction and cross-modal likelihood under its one sample, and
    B = -KL of each posterior."""
    b = terms["n_paired"]
    z2 = terms["kl"].value.shape[0] - b  # the first z2 row
    actions, words, kl = terms["actions"], terms["words"], terms["kl"]
    a1, c2 = _block_mean(actions, 0, b), _block_mean(actions, z2, b)
    c1, a2 = _block_mean(words, 0, b), _block_mean(words, b, b)
    b1, b2 = ad.neg(_block_mean(kl, 0, b)), ad.neg(_block_mean(kl, z2, b))
    jbar = ad.scale(
        ad.add(
            ad.add(ad.add(a1, ad.scale(b1, hp.beta)), c1),
            ad.add(ad.add(a2, ad.scale(b2, hp.beta)), c2),
        ),
        0.5,
    )
    return {"a1": a1, "b1": b1, "c1": c1, "a2": a2, "b2": b2, "c2": c2, "jbar": jbar}


def unpaired_loss(terms: dict, hp: HyperParams) -> dict:
    """Trajectory-only bound V = A_1 + beta * B_1 (B_1 = -KL) of the
    unpaired rows of per_sample_terms."""
    b = terms["n_paired"]
    size = terms["traj_means"].value.shape[0] - b
    a1 = _block_mean(terms["actions"], b, size)
    b1 = ad.neg(_block_mean(terms["kl"], b, size))
    return {"a1": a1, "b1": b1, "v": ad.add(a1, ad.scale(b1, hp.beta))}


def domain_distance(paired_means: Node, unpaired_means: Node, n_projections: int, rng) -> Node:
    """Per-slot sliced squared 2-Wasserstein distance between the two
    batches of posterior means, summed over slots.

    Each slot draws fresh random unit projection directions; both batches
    are truncated to the smaller batch size so order statistics align.
    """
    pb, ub = paired_means.value.shape[0], unpaired_means.value.shape[0]
    if pb == 0 or ub == 0:
        raise ValueError("domain_distance: empty batch")
    if paired_means.value.shape[1:] != unpaired_means.value.shape[1:]:
        raise ad.ShapeMismatch(
            f"domain_distance: slot shapes {paired_means.value.shape} vs {unpaired_means.value.shape}"
        )
    b = min(pb, ub)
    k, d = paired_means.value.shape[1], paired_means.value.shape[2]
    dirs = rng.standard_normal((k, d, n_projections))  # the same draws as k draws of (d, P)
    dirs /= np.maximum(np.linalg.norm(dirs, axis=1, keepdims=True), 1e-12)
    # slot s's D coordinates meet only its own P directions: one block-diagonal (K*D, K*P) product
    blocks = np.zeros((k, d, k, n_projections))
    blocks[np.arange(k), :, np.arange(k)] = dirs
    blocks = ad.constant(blocks.reshape(k * d, k * n_projections))

    def sorted_projections(means):
        return ad.sort_axis0(ad.matmul(ad.reshape(ad.narrow(means, 0, 0, b), (b, k * d)), blocks))

    diff = ad.sub(sorted_projections(paired_means), sorted_projections(unpaired_means))
    return ad.scale(ad.reduce_sum(ad.mul(diff, diff)), 1.0 / (b * n_projections))


def total_loss(model: MsVae, lang: LangBatch, traj: TrajBatch, hp: HyperParams, rng) -> tuple[Node, LossReport]:
    """Combined objective over one paired and one unpaired mini-batch.

    traj holds the paired trajectories, one per instruction of lang, then
    the unpaired ones, if any (see per_sample_terms). Returns (loss node to
    minimize, per-term report). The domain distance is always evaluated when
    there are unpaired rows, but enters the objective only with weight
    alpha > 0.
    """
    terms = per_sample_terms(model, lang, traj, rng)
    p = paired_loss(terms, hp)
    total = p["jbar"]
    v_val, d_val = 0.0, 0.0
    b, n = terms["n_paired"], traj.mask.shape[0]
    if n > b:
        u = unpaired_loss(terms, hp)
        v_val = float(u["v"].value)
        if hp.gamma > 0:
            total = ad.add(total, ad.scale(u["v"], hp.gamma))
        means = terms["traj_means"]
        dprime = domain_distance(ad.narrow(means, 0, 0, b), ad.narrow(means, 0, b, n - b), hp.n_projections, rng)
        d_val = float(dprime.value)
        if hp.alpha > 0:
            total = ad.sub(total, ad.scale(dprime, hp.alpha))
    report = LossReport(
        a1=float(p["a1"].value), a2=float(p["a2"].value),
        b1=float(p["b1"].value), b2=float(p["b2"].value),
        c1=float(p["c1"].value), c2=float(p["c2"].value),
        v=v_val, dprime=d_val, total=float(total.value),
    )
    return ad.neg(total), report


# ---------------------------------------------------------------------------
# persistence


def checkpoint_meta(model, vocab_words: list[str]) -> dict:
    """The checkpoint metadata load_model rebuilds `model` from."""
    return {
        "kind": model.kind,
        "model_config": asdict(model.cfg),
        "vocab_words": vocab_words,
        "attention": getattr(model, "attention", True),
    }


def build_model(kind: str, rng, cfg: ModelConfig, attention: bool = True):
    if kind == "msvae":
        return MsVae(rng, cfg)
    if kind == "follower":
        return BaselineFollower(rng, cfg, attention)
    if kind == "speaker":
        return BaselineSpeaker(rng, cfg)
    raise ValueError(f"unknown model kind {kind!r}")


# ModelConfig fields that older checkpoints and training states carry, with
# the one value every run trained with
_RETIRED_FIELDS = {"input_feed": True, "n_actions": gw.N_ACTIONS, "obs_view": OBS_VIEW}


def check_model_settings(settings: dict, where: str) -> None:
    """Drop the retired fields from recorded ModelConfig settings, in place; a
    retired field of another value, an unknown key or a value of another
    type than its field's default (a bool is no int) is a ValueError naming it."""
    for key, value in _RETIRED_FIELDS.items():
        held = settings.pop(key, value)
        if held != value:
            raise ValueError(f"{where}.{key}={held!r} is not supported (only {value!r})")
    defaults = {f.name: f.default for f in fields(ModelConfig)}
    unknown = sorted(set(settings) - set(defaults))
    if unknown:
        raise ValueError(f"{where}.{unknown[0]} is not a model setting")
    for key, value in settings.items():
        if type(value) is not type(defaults[key]):
            raise ValueError(f"{where}.{key}={value!r} is not {type(defaults[key]).__name__}")


def load_model(path):
    """Rebuild a model from a checkpoint; returns (model, meta)."""
    arrays, meta = nn.load_checkpoint(path)
    for key, kind, name in (("kind", str, "a string"), ("model_config", dict, "an object")):
        if not isinstance(meta.get(key), kind):
            raise ValueError(f"checkpoint {path}: the metadata's {key} is missing or not {name}")
    check_model_settings(meta["model_config"], f"checkpoint {path}: model_config")
    cfg = ModelConfig(**meta["model_config"])
    model = build_model(meta["kind"], np.random.default_rng(0), cfg, meta.get("attention", True))
    params = {k: v for k, v in arrays.items() if not k.startswith("adam.")}
    missing = set(model.named_params()) - set(params)
    if missing:
        raise ValueError(f"checkpoint {path} missing parameters: {sorted(missing)[:5]}")
    model.load_values(params)
    return model, meta
