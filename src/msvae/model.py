"""The shared-latent sequence VAE, its seq2seq baselines, and every
objective term: per-modality reconstruction and KL terms, the cross-modal
terms, the unpaired trajectory bound, the per-slot sliced-Wasserstein domain
distance, and the combined training objective.

Conventions: modality 1 is the trajectory (actions given observations),
modality 2 is the language. All likelihood terms are per-sample sums of step
log-probabilities; reported loss terms are batch means. The combined
objective is maximized; trainers minimize its negation.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

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


@dataclass
class ModelConfig:
    vocab_size: int = 0  # set from the corpus vocabulary by TrainConfig.model_config
    obs_dim: int = 0  # 0 takes the width of obs_view
    n_actions: int = gw.N_ACTIONS
    word_emb: int = 32
    action_emb: int = 16
    hidden: int = 64
    obs_hidden: int = 128  # intermediate width of the observation MLP
    attn_dim: int = 64
    cell_dim: int = 32  # projection width of the spatial cell readout
    k_slots: int = 4
    latent_dim: int = 128
    prior_hidden: int = 128
    input_feed: bool = True  # feed the previous attention context into the decoder step
    obs_view: str = "ego"  # model-side observation frame: ego | grid | synthetic

    def __post_init__(self):
        if self.obs_view not in gw.OBS_VIEWS:
            return
        dim = gw.OBS_VIEWS[self.obs_view][1]
        if self.obs_dim == 0:
            self.obs_dim = dim
        elif self.obs_dim != dim:
            raise ValueError(f"obs_dim {self.obs_dim} does not match view {self.obs_view!r} (expected {dim})")


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


@dataclass
class TrajBatch:
    obs: np.ndarray  # (B, T, obs_dim)
    dec_in: np.ndarray  # start + actions[:-1]
    dec_tgt: np.ndarray  # the recorded actions: the encoder's input and the decoder's targets
    mask: np.ndarray

    def __post_init__(self):
        self.packing = nn.Packing(self.mask)
        # the running steps' observations, gathered once for both observation
        # MLPs and every readout
        self.packed_obs = self.packing.pack(self.obs)


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


def make_traj_batch(trajectories, n_actions: int = gw.N_ACTIONS) -> TrajBatch:
    if not trajectories:
        raise ValueError("empty trajectory batch")
    if any(len(t) == 0 for t in trajectories):
        raise ValueError("empty trajectory")
    start_id, pad_id = n_actions, n_actions + 1
    width = max(len(t) for t in trajectories)
    b = len(trajectories)
    odim = trajectories[0].observations.shape[1]
    obs = np.zeros((b, width, odim))
    dec_in = np.full((b, width), pad_id, dtype=np.intp)
    dec_tgt = np.full((b, width), 0, dtype=np.intp)
    mask = np.zeros((b, width))
    for i, tr in enumerate(trajectories):
        n = len(tr)
        obs[i, :n] = tr.observations
        dec_in[i, 0] = start_id
        dec_in[i, 1:n] = tr.actions[: n - 1]
        dec_tgt[i, :n] = tr.actions
        mask[i, :n] = 1.0
    return TrajBatch(obs, dec_in, dec_tgt, mask)


# ---------------------------------------------------------------------------
# building blocks


class ObsMlp(nn.Layer):
    """Flattened one-hot grid -> hidden features, two tanh layers."""

    def __init__(self, rng, obs_dim: int, hidden: int, width: int | None = None):
        super().__init__()
        width = width or hidden
        self.l1 = self._child("l1", nn.Linear(rng, obs_dim, width))
        self.l2 = self._child("l2", nn.Linear(rng, width, hidden))

    def __call__(self, x: Node) -> Node:
        return ad.tanh(self.l2(ad.tanh(self.l1(x))))

    def features_steps(self, traj: TrajBatch) -> list[Node]:
        """A packed batch's observations -> per-step (counts[t], H) nodes of
        the rows still running, longest first.

        The MLP runs once over all running (step, row) pairs; split_rows cuts
        the result into steps and gathers their gradients in one buffer.
        Padded steps are never computed."""
        return ad.split_rows(self(ad.constant(traj.packed_obs)), traj.packing.counts)

    def one_hot_row(self, o: np.ndarray) -> Node:
        """The features of one (1, obs_dim) one-hot observation, as a decode
        step needs them. The first layer sums the weight rows at the ones
        (about 130 of 1 699 in the ego view) instead of reading the whole
        weight through a dense product. Batches keep the dense product of
        __call__, which is much faster there than a gather."""
        if o.ndim != 2 or o.shape[0] != 1:
            raise ad.ShapeMismatch(f"one_hot_row: expected one (1, obs_dim) row, got {o.shape}")
        rows = ad.embedding(self.l1.w, np.flatnonzero(o[0]))
        h = ad.add_rowvec(ad.reduce_sum(rows, axis=0, keepdims=True), self.l1.b)
        return ad.tanh(self.l2(ad.tanh(h)))


def _grid_shape(obs_view: str, obs_dim: int) -> tuple[int, int]:
    """(n_cells, channels) factorization of a flat observation.

    Observations that are not whole grids (synthetic feature vectors in small
    tests) degrade to a single cell, making the readout a plain projection.
    """
    if obs_view in gw.OBS_VIEWS:
        _, dim, cells, channels = gw.OBS_VIEWS[obs_view]
        if obs_dim == dim:
            return cells, channels
    return 1, obs_dim


def observation_encoder(cfg: ModelConfig):
    """The observation encoder of the model's view: a sequence of worlds in,
    one (len(worlds), dim) array out."""
    return gw.OBS_VIEWS[cfg.obs_view][0]


def fused_grid_readout(query: Node, cells: np.ndarray, wq_w: Node, wq_b: Node, wc_w: Node,
                       wc_b: Node, pos: Node, scale: float) -> Node:
    """GridReadout attention as a single graph node with a hand-written backward.

    Equivalent to GridReadout.call_composed, the oracle it is tested against,
    with one node where the composed form builds fifteen. `cells` is the
    constant (B, n_cells, channels) grid, captured rather than an operand.
    """
    qv = query.value @ wq_w.value + wq_b.value
    qc = qv @ wc_w.value.T
    scores = (np.matmul(cells, qc[:, :, None])[:, :, 0] + qv @ pos.value.T) * scale
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    w = e / e.sum(axis=1, keepdims=True)
    mix = np.matmul(w[:, None, :], cells)[:, 0, :]
    out = mix @ wc_w.value + wc_b.value + w @ pos.value

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
        self.n_cells, self.channels = _grid_shape(cfg.obs_view, cfg.obs_dim)
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

    def call_composed(self, query: Node, cells: np.ndarray) -> Node:
        """Elementary-op formulation; the oracle for fused_grid_readout.

        Keys and values are wc(cells) + pos, and attention is linear in them:
        q . (c W + b + p) = (q W^T) . c + q . p + q . b, where the q . b term is
        the same for every cell and cancels in the softmax; the weights sum to
        one, so sum_n w_n wc(c_n) = wc(sum_n w_n c_n).
        """
        cells = ad.constant(cells)
        q = self.wq(query)
        scores = ad.add(ad.bdot(ad.matmul(q, ad.transpose2(self.wc.w)), cells),
                        ad.matmul(q, ad.transpose2(self.pos)))
        w = ad.softmax(ad.scale(scores, self.scale), axis=-1)
        return ad.add(self.wc(ad.bmix(w, cells)), ad.matmul(w, self.pos))


class LanguageEncoderCore(nn.Layer):
    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.emb = self._child("emb", nn.Embedding(rng, cfg.vocab_size, cfg.word_emb))
        self.gru = self._child("gru", nn.GruCell(rng, cfg.word_emb, cfg.hidden))

    def hidden_states(self, lang: LangBatch) -> tuple[Node, Node]:
        ids = lang.packing.steps(lang.dec_tgt)
        return nn.gru_encode(self.gru, lang.packing, lambda t, h: self.emb(ids[t]))


class TrajEncoderCore(nn.Layer):
    """Steps over (obs features, action embedding, spatial readout) inputs;
    the readout, queried by the running state, grounds which objects the
    agent is near so downstream language decoding can name them."""

    def __init__(self, rng, cfg: ModelConfig):
        super().__init__()
        self.emb = self._child("emb", nn.Embedding(rng, cfg.n_actions + 2, cfg.action_emb))
        self.readout = self._child("readout", GridReadout(rng, cfg.hidden, cfg.cell_dim, cfg))
        self.gru = self._child("gru", nn.GruCell(rng, cfg.hidden + cfg.action_emb + cfg.cell_dim, cfg.hidden))

    def hidden_states(self, traj: TrajBatch, obs_feats: list[Node]) -> tuple[Node, Node]:
        obs, actions = traj.packing.split(traj.packed_obs), traj.packing.steps(traj.dec_tgt)

        def step_input(t, h):
            cell_ctx = self.readout(h, self.readout.cells(obs[t]))
            return ad.concat([obs_feats[t], self.emb(actions[t]), cell_ctx], axis=1)

        return nn.gru_encode(self.gru, traj.packing, step_input)


def _first_rows(x, n: int):
    """The first n rows of a node or an array; None stays None."""
    if x is None:
        return None
    return x[:n] if isinstance(x, np.ndarray) else ad.narrow(x, 0, 0, n)


class _Decoder(nn.Layer):
    """What both autoregressive decoders share: the recurrent step with its
    input feed, the context it reads from the memory (by attention or,
    without it, as the fixed (B, memory_dim) summary itself), and the
    teacher-forced loop."""

    def __init__(self, cfg: ModelConfig, memory_dim: int, use_attention: bool):
        super().__init__()
        self.use_attention = use_attention
        self.memory_dim = memory_dim
        self.input_feed = cfg.input_feed

    def _context(self, h: Node, memory, prepared, memory_mask):
        if self.use_attention:
            ctx, _ = self.attn(h, prepared, memory, memory_mask)
            return ctx
        return memory

    def prepare(self, memory):
        return self.attn.prepare(memory) if self.use_attention else None

    def init_context(self, batch: int) -> Node:
        return ad.constant(np.zeros((batch, self.memory_dim)))

    def _recurrent_step(self, parts: list[Node], h: Node, prev_ctx: Node, memory, prepared, memory_mask):
        """Step the GRU on the concatenated input parts, with the previous
        context fed after them when input_feed; returns (state, context)."""
        if self.input_feed:
            parts = parts + [prev_ctx]
        h = self.gru.step(ad.concat(parts, axis=1) if len(parts) > 1 else parts[0], h)
        return h, self._context(h, memory, prepared, memory_mask)

    def _teacher_forced(self, batch, memory, memory_mask, h0: Node | None, step_inputs) -> Node:
        """Per-sample sum of log p(batch.dec_tgt[:, t] | ...) over each row's
        steps -> (B,), in the caller's row order.

        The loop runs packed: the memory, its mask and h0 enter in the
        packing's row order, and step t computes only the counts[t] rows
        still running. step_inputs(t) gives their step_logits arguments that
        come before the previous ids."""
        packing = batch.packing
        if not packing.identity:
            memory = ad.gather_rows(memory, packing.order)
            memory_mask = None if memory_mask is None else memory_mask[packing.order]
            h0 = None if h0 is None else ad.gather_rows(h0, packing.order)
        prepared = self.prepare(memory)
        h = h0 if h0 is not None else self.gru.init_state(packing.counts[0])
        ctx = self.init_context(packing.counts[0])
        prev_ids, targets = packing.steps(batch.dec_in), packing.steps(batch.dec_tgt)
        picked = []
        for t, n in enumerate(packing.counts):
            if n < h.value.shape[0]:
                h, ctx, memory, prepared, memory_mask = (
                    _first_rows(x, n) for x in (h, ctx, memory, prepared, memory_mask))
            logits, h, ctx = self.step_logits(*step_inputs(t), prev_ids[t], h, ctx, memory, prepared, memory_mask)
            picked.append(ad.select_columns(ad.log_softmax(logits), targets[t]))
        return ad.reduce_sum(ad.ragged_stack(picked, packing.order), axis=1)


class ActionDecoder(_Decoder):
    """Autoregressive policy head; the memory enters only through attention
    contexts (fed to the head and, with input_feed, to the next step)."""

    def __init__(self, rng, cfg: ModelConfig, memory_dim: int, use_attention: bool = True):
        super().__init__(cfg, memory_dim, use_attention)
        self.start_id = cfg.n_actions
        self.emb = self._child("emb", nn.Embedding(rng, cfg.n_actions + 2, cfg.action_emb))
        in_dim = cfg.hidden + cfg.action_emb + (memory_dim if cfg.input_feed else 0)
        self.gru = self._child("gru", nn.GruCell(rng, in_dim, cfg.hidden))
        if use_attention:
            self.attn = self._child("attn", nn.KeyValueAttention(rng, cfg.hidden, memory_dim, cfg.attn_dim))
        # spatial readout: query from (state, instruction context) attends
        # over grid cells; the dot product binds the instruction to cells
        self.readout = self._child("readout", GridReadout(rng, cfg.hidden + memory_dim, cfg.cell_dim, cfg))
        self.head = self._child("head", nn.Linear(rng, memory_dim + cfg.hidden + cfg.cell_dim, cfg.n_actions))

    def step_logits(self, obs_feat: Node, cell_feats: np.ndarray, prev_ids, h: Node, prev_ctx: Node,
                    memory, prepared, memory_mask):
        h, ctx = self._recurrent_step([obs_feat, self.emb(prev_ids)], h, prev_ctx, memory, prepared, memory_mask)
        cell_ctx = self.readout(ad.concat([h, ctx], axis=1), cell_feats)
        return self.head(ad.concat([ctx, h, cell_ctx], axis=1)), h, ctx

    def teacher_forced_logll(self, traj: TrajBatch, obs_feats: list[Node], memory,
                             memory_mask=None, h0: Node | None = None) -> Node:
        """Per-sample sum of log p(a_t | ...) over valid steps -> (B,);
        obs_feats are the per-step blocks of ObsMlp.features_steps."""
        obs = traj.packing.split(traj.packed_obs)
        return self._teacher_forced(traj, memory, memory_mask, h0,
                                    lambda t: (obs_feats[t], self.readout.cells(obs[t])))

    def rollout(self, world: gw.World, obs_mlp: ObsMlp, encode_obs, memory, memory_mask, h: Node | None,
                mode: str, rng, max_steps: int):
        """Act in the environment from one episode's memory and initial state
        (None: zeros) until `done` or max_steps; returns (trajectory, visited states)."""
        h = self.gru.init_state(1) if h is None else h
        prepared = self.prepare(memory)
        ctx = self.init_context(1)
        prev = np.array([self.start_id], dtype=np.intp)
        states = [world]
        obs_rows, actions = [], []
        for _ in range(max_steps):
            o = encode_obs([world])
            of = obs_mlp.one_hot_row(o)
            cf = self.readout.cells(o)
            logits, h, ctx = self.step_logits(of, cf, prev, h, ctx, memory, prepared, memory_mask)
            a = _pick(logits.value[0], mode, rng)
            obs_rows.append(o[0])
            actions.append(a)
            world, done = gw.step(world, a)
            states.append(world)
            prev = np.array([a], dtype=np.intp)
            if done:
                break
        return gw.Trajectory(np.array(obs_rows), tuple(actions)), states


class WordDecoder(_Decoder):
    """Autoregressive language head; bos-prefixed, eos-terminated."""

    def __init__(self, rng, cfg: ModelConfig, memory_dim: int):
        super().__init__(cfg, memory_dim, use_attention=True)
        self.emb = self._child("emb", nn.Embedding(rng, cfg.vocab_size, cfg.word_emb))
        in_dim = cfg.word_emb + (memory_dim if cfg.input_feed else 0)
        self.gru = self._child("gru", nn.GruCell(rng, in_dim, cfg.hidden))
        self.attn = self._child("attn", nn.KeyValueAttention(rng, cfg.hidden, memory_dim, cfg.attn_dim))
        self.head = self._child("head", nn.Linear(rng, memory_dim + cfg.hidden, cfg.vocab_size))

    def step_logits(self, prev_ids, h: Node, prev_ctx: Node, memory, prepared, memory_mask):
        h, ctx = self._recurrent_step([self.emb(prev_ids)], h, prev_ctx, memory, prepared, memory_mask)
        return self.head(ad.concat([ctx, h], axis=1)), h, ctx

    def teacher_forced_logll(self, lang: LangBatch, memory, memory_mask=None,
                             h0: Node | None = None) -> Node:
        return self._teacher_forced(lang, memory, memory_mask, h0, lambda t: ())

    def rollout(self, memory, memory_mask, h: Node | None, mode: str, rng, len_cap: int):
        """Speak from one episode's memory and initial state (None: zeros)
        until eos or len_cap tokens; returns (token ids, truncated flag)."""
        h = self.gru.init_state(1) if h is None else h
        prepared = self.prepare(memory)
        ctx = self.init_context(1)
        prev = np.array([RESERVED["<bos>"]], dtype=np.intp)
        out = []
        for _ in range(len_cap):
            logits, h, ctx = self.step_logits(prev, h, ctx, memory, prepared, memory_mask)
            w = _pick(logits.value[0], mode, rng)
            if w == RESERVED["<eos>"]:
                return out, False
            out.append(w)
            prev = np.array([w], dtype=np.intp)
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
        self.act_dec = self._child("act_dec", ActionDecoder(rng, cfg, memory_dim=cfg.latent_dim))
        self.word_dec = self._child("word_dec", WordDecoder(rng, cfg, memory_dim=cfg.latent_dim))
        self.prior = self._child("prior", nn.AutoregressivePrior(rng, cfg.latent_dim, cfg.prior_hidden))

    # encoders ---------------------------------------------------------------

    def encode_language(self, lang: LangBatch) -> tuple[Node, Node]:
        hidden, _ = self.lang_enc.hidden_states(lang)
        return self.lang_bottleneck(hidden, lang.enc_mask)

    def encode_trajectory(self, traj: TrajBatch) -> tuple[Node, Node]:
        hidden, _ = self.traj_enc.hidden_states(traj, self.enc_obs_mlp.features_steps(traj))
        return self.traj_bottleneck(hidden, traj.mask)

    # decoder memories, as (memory, mask, initial state): the posterior mean
    # slots, all attended, and the zero state

    def instruction_memory(self, lang: LangBatch):
        return self.encode_language(lang)[0], None, None

    def trajectory_memory(self, traj: TrajBatch):
        return self.encode_trajectory(traj)[0], None, None

    # the objective's likelihoods, given latent slots z -----------------------

    def action_log_likelihood(self, z: Node, traj: TrajBatch, obs_feats: list[Node] | None = None) -> Node:
        if obs_feats is None:
            obs_feats = self.obs_mlp.features_steps(traj)
        return self.act_dec.teacher_forced_logll(traj, obs_feats, z)

    def language_log_likelihood(self, z: Node, lang: LangBatch) -> Node:
        return self.word_dec.teacher_forced_logll(lang, z)

    # The follower and speaker interface of every model kind, which the
    # baselines take by assignment: each reads only the kind's memory.
    # perfbench wraps these methods, in this class's own body, and the
    # decoders' step_logits by name. Inference runs frozen: it builds no graph.

    def follower_log_likelihood(self, lang: LangBatch, traj: TrajBatch) -> Node:
        """Per-sample teacher-forced log p(actions | instruction) -> (B,)."""
        memory, mask, h0 = self.instruction_memory(lang)
        return self.act_dec.teacher_forced_logll(traj, self.obs_mlp.features_steps(traj), memory, mask, h0)

    def speaker_log_likelihood(self, traj: TrajBatch, lang: LangBatch) -> Node:
        """Per-sample teacher-forced log p(tokens | trajectory) -> (B,)."""
        memory, mask, h0 = self.trajectory_memory(traj)
        return self.word_dec.teacher_forced_logll(lang, memory, mask, h0)

    def follow(self, tokens, world: gw.World, mode: str = "greedy", rng=None, max_steps: int = 64):
        """Roll the policy in the environment from a language instruction;
        returns (trajectory, visited states)."""
        with self.frozen():
            memory, mask, h = self.instruction_memory(make_lang_batch([list(tokens)]))
            return self.act_dec.rollout(world, self.obs_mlp, observation_encoder(self.cfg), memory, mask, h,
                                        mode, rng, max_steps)

    def speak(self, traj: gw.Trajectory, mode: str = "greedy", rng=None,
              len_cap: int = 30) -> tuple[list[int], bool]:
        """Describe a trajectory; returns (token ids, truncated flag)."""
        with self.frozen():
            memory, mask, h = self.trajectory_memory(make_traj_batch([traj], self.cfg.n_actions))
            return self.word_dec.rollout(memory, mask, h, mode, rng, len_cap)

    def trajectory_language_score(self, traj: gw.Trajectory, tokens) -> float:
        """log p(tokens | traj); the pragmatic-inference score."""
        with self.frozen():
            tb, lang = make_traj_batch([traj], self.cfg.n_actions), make_lang_batch([list(tokens)])
            return float(self.speaker_log_likelihood(tb, lang).value[0])


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
        hidden, final = self.traj_enc.hidden_states(traj, self.obs_mlp.features_steps(traj))
        return hidden, traj.mask, ad.tanh(self.init_map(final))

    speaker_log_likelihood = MsVae.speaker_log_likelihood
    speak = MsVae.speak
    trajectory_language_score = MsVae.trajectory_language_score


# ---------------------------------------------------------------------------
# objectives


def paired_loss(model: MsVae, lang: LangBatch, traj: TrajBatch, hp: HyperParams, rng) -> dict:
    """All paired-bound terms, one reparameterized sample per modality branch
    (shared between the reconstruction and cross-modal terms)."""
    obs_feats = model.obs_mlp.features_steps(traj)
    m1, lv1 = model.encode_trajectory(traj)
    m2, lv2 = model.encode_language(lang)
    z1 = nn.reparameterize(m1, lv1, rng.standard_normal(m1.value.shape))
    z2 = nn.reparameterize(m2, lv2, rng.standard_normal(m2.value.shape))

    a1 = ad.reduce_mean(model.action_log_likelihood(z1, traj, obs_feats))
    c1 = ad.reduce_mean(model.language_log_likelihood(z1, lang))
    a2 = ad.reduce_mean(model.language_log_likelihood(z2, lang))
    c2 = ad.reduce_mean(model.action_log_likelihood(z2, traj, obs_feats))

    pm1, plv1 = nn.prior_log_density_params(model.prior, z1)
    b1 = ad.neg(ad.reduce_mean(nn.gaussian_kl_per_sample(m1, lv1, pm1, plv1)))
    pm2, plv2 = nn.prior_log_density_params(model.prior, z2)
    b2 = ad.neg(ad.reduce_mean(nn.gaussian_kl_per_sample(m2, lv2, pm2, plv2)))

    jbar = ad.scale(
        ad.add(
            ad.add(ad.add(a1, ad.scale(b1, hp.beta)), c1),
            ad.add(ad.add(a2, ad.scale(b2, hp.beta)), c2),
        ),
        0.5,
    )
    return {"a1": a1, "b1": b1, "c1": c1, "a2": a2, "b2": b2, "c2": c2,
            "jbar": jbar, "traj_means": m1}


def unpaired_loss(model: MsVae, traj: TrajBatch, hp: HyperParams, rng) -> dict:
    """Trajectory-only bound V = A_1 + beta * B_1 (B_1 = -KL)."""
    obs_feats = model.obs_mlp.features_steps(traj)
    m1, lv1 = model.encode_trajectory(traj)
    z1 = nn.reparameterize(m1, lv1, rng.standard_normal(m1.value.shape))
    a1 = ad.reduce_mean(model.action_log_likelihood(z1, traj, obs_feats))
    pm1, plv1 = nn.prior_log_density_params(model.prior, z1)
    b1 = ad.neg(ad.reduce_mean(nn.gaussian_kl_per_sample(m1, lv1, pm1, plv1)))
    v = ad.add(a1, ad.scale(b1, hp.beta))
    return {"a1": a1, "b1": b1, "v": v, "traj_means": m1}


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
    x = ad.narrow(paired_means, 0, 0, b)
    y = ad.narrow(unpaired_means, 0, 0, b)
    total = None
    for slot in range(k):
        dirs = rng.standard_normal((d, n_projections))
        dirs /= np.maximum(np.linalg.norm(dirs, axis=0, keepdims=True), 1e-12)
        dirs_c = ad.constant(dirs)
        xs = ad.sort_axis0(ad.matmul(ad.reshape(ad.narrow(x, 1, slot, 1), (b, d)), dirs_c))
        ys = ad.sort_axis0(ad.matmul(ad.reshape(ad.narrow(y, 1, slot, 1), (b, d)), dirs_c))
        diff = ad.sub(xs, ys)
        slot_dist = ad.reduce_mean(ad.mul(diff, diff))
        total = slot_dist if total is None else ad.add(total, slot_dist)
    return total


def total_loss(model: MsVae, lang: LangBatch, traj: TrajBatch, unpaired: TrajBatch | None,
               hp: HyperParams, rng) -> tuple[Node, LossReport]:
    """Combined objective over one paired and one unpaired mini-batch.

    Returns (loss node to minimize, per-term report). The domain distance is
    always evaluated when an unpaired batch is present, but enters the
    objective only with weight alpha > 0.
    """
    p = paired_loss(model, lang, traj, hp, rng)
    total = p["jbar"]
    v_val, d_val = 0.0, 0.0
    if unpaired is not None:
        u = unpaired_loss(model, unpaired, hp, rng)
        v_val = float(u["v"].value)
        if hp.gamma > 0:
            total = ad.add(total, ad.scale(u["v"], hp.gamma))
        dprime = domain_distance(p["traj_means"], u["traj_means"], hp.n_projections, rng)
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


def save_model(path, model, vocab_words: list[str], extra: dict | None = None) -> None:
    arrays = {k: v.value for k, v in model.named_params().items()}
    nn.save_checkpoint(path, arrays, {**checkpoint_meta(model, vocab_words), **(extra or {})})


def build_model(kind: str, rng, cfg: ModelConfig, attention: bool = True):
    if kind == "msvae":
        return MsVae(rng, cfg)
    if kind == "follower":
        return BaselineFollower(rng, cfg, attention)
    if kind == "speaker":
        return BaselineSpeaker(rng, cfg)
    raise ValueError(f"unknown model kind {kind!r}")


def load_model(path):
    """Rebuild a model from a checkpoint; returns (model, meta)."""
    arrays, meta = nn.load_checkpoint(path)
    cfg = ModelConfig(**meta["model_config"])
    model = build_model(meta["kind"], np.random.default_rng(0), cfg, meta.get("attention", True))
    params = {k: v for k, v in arrays.items() if not k.startswith("adam.")}
    missing = set(model.named_params()) - set(params)
    if missing:
        raise ValueError(f"checkpoint {path} missing parameters: {sorted(missing)[:5]}")
    model.load_values(params)
    return model, meta
