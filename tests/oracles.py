"""Reference formulations and helpers that only the tests use.

The fused nodes and hoisted products of the package are checked against
the composed-op forms below, written the plain way: concatenate every
input, multiply by the whole weight, one elementary op at a time; the
observation MLP's first layer is the dense product of the whole batch. The
layers that take the K latent slots as one tensor are checked against
their per-slot forms, one slot at a time. The training objective, which
runs each module once over stacked rows, is checked against its per-pass
composition: each encoder, decoder and prior pass over one batch at a time.
The gridworld's parent-link BFS is checked against the search that copies
its path at every expansion, and the oracle's one-pass drop goals against
their union over the empty cells. The batched pragmatic score is checked
against one one-element scoring call per trajectory, and the follower's
cached rollouts against a rollout that encodes the instruction and
observes every step's world afresh.
"""

from collections import deque

import numpy as np

from msvae import autodiff as ad
from msvae import gridworld as gw
from msvae import model as md
from msvae import nn


def gru_step_composed(cell: nn.GruCell, x: ad.Node, h: ad.Node) -> ad.Node:
    """One GRU step from the whole concatenated input x; the oracle for
    fused_gru_step, whose static block, state-dependent input and input
    feed are row blocks of x times the matching rows of cell.w."""
    nh = cell.n_hidden
    gx = ad.add_rowvec(ad.matmul(x, cell.w), cell.bx)
    gh = ad.add_rowvec(ad.matmul(h, cell.u), cell.bh)
    r = ad.sigmoid(ad.add(ad.narrow(gx, 1, 0, nh), ad.narrow(gh, 1, 0, nh)))
    z = ad.sigmoid(ad.add(ad.narrow(gx, 1, nh, nh), ad.narrow(gh, 1, nh, nh)))
    n = ad.tanh(ad.add(ad.narrow(gx, 1, 2 * nh, nh), ad.mul(r, ad.narrow(gh, 1, 2 * nh, nh))))
    # h' = n + z * (h - n)
    return ad.add(n, ad.mul(z, ad.sub(h, n)))


def obs_mlp_dense(mlp: md.ObsMlp, x: np.ndarray) -> ad.Node:
    """ObsMlp's two layers over an (n, obs_dim) observation array, the first
    a dense product with the whole weight; the oracle for ObsMlp.features,
    whose first layer is ad.split_matmul."""
    return ad.tanh(mlp.l2(ad.tanh(mlp.l1(ad.constant(x)))))


def readout_composed(readout: md.GridReadout, query: ad.Node, cells: np.ndarray) -> ad.Node:
    """GridReadout in elementary ops; the oracle for fused_grid_readout.

    Keys and values are wc(cells) + pos, and attention is linear in them:
    q . (c W + b + p) = (q W^T) . c + q . p + q . b, where the q . b term is
    the same for every cell and cancels in the softmax; the weights sum to
    one, so sum_n w_n wc(c_n) = wc(sum_n w_n c_n).
    """
    cells = ad.constant(cells)
    q = readout.wq(query)
    scores = ad.add(ad.bdot(ad.matmul(q, ad.transpose2(readout.wc.w)), cells),
                    ad.matmul(q, ad.transpose2(readout.pos)))
    w = ad.softmax(ad.scale(scores, readout.scale), axis=-1)
    return ad.add(readout.wc(ad.bmix(w, cells)), ad.matmul(w, readout.pos))


def attend(attn: nn.KeyValueAttention, query, keys, values, mask=None) -> ad.Node:
    """One-shot context vector over prepare + call."""
    if keys.value.shape[:2] != values.value.shape[:2]:
        raise ad.ShapeMismatch(
            f"attend: keys {keys.value.shape} and values {values.value.shape} disagree on (batch, length)"
        )
    ctx, _ = attn(query, attn.prepare(keys), values, mask)
    return ctx


def bottleneck_per_slot(bn: nn.BottleneckAttention, hidden: ad.Node, mask=None) -> tuple[ad.Node, ad.Node]:
    """BottleneckAttention one slot at a time; the oracle for its single
    attention over all K query tokens. Each token's query is repeated per
    sample and scored with bdot."""
    prepared = bn.attn.prepare(hidden)
    qp = ad.matmul(bn.tokens, bn.attn.wq)  # (K, P)
    b = hidden.value.shape[0]
    means, logvars = [], []
    for k in range(qp.value.shape[0]):
        scores = ad.scale(ad.bdot(ad.repeat_rows(ad.narrow(qp, 0, k, 1), b), prepared), bn.attn.scale)
        if mask is not None:
            scores = ad.add(scores, ad.constant((mask - 1.0) * 1e9))
        context = ad.bmix(ad.softmax(scores, axis=-1), hidden)
        means.append(bn.mean_head(context))
        logvars.append(ad.clamp(bn.logvar_head(context), nn.LOGVAR_MIN, nn.LOGVAR_MAX))
    return ad.stack(means, axis=1), ad.stack(logvars, axis=1)


def prior_per_slot(prior: nn.AutoregressivePrior, z: ad.Node) -> tuple[ad.Node, ad.Node]:
    """prior_log_density_params with each slot cut out of z, fed to its own
    GRU step from the whole input weight and read by its own heads; the
    oracle for the stacked form."""
    b, k, d = z.value.shape
    inputs = [ad.repeat_rows(prior.start, b)] + [ad.reshape(ad.narrow(z, 1, i, 1), (b, d)) for i in range(k - 1)]
    h = prior.gru.init_state(b)
    means, logvars = [], []
    for x in inputs:
        h = gru_step_composed(prior.gru, x, h)
        means.append(prior.mean_head(h))
        logvars.append(ad.clamp(prior.logvar_head(h), nn.LOGVAR_MIN, nn.LOGVAR_MAX))
    return ad.stack(means, axis=1), ad.stack(logvars, axis=1)


def domain_distance_per_slot(paired_means: ad.Node, unpaired_means: ad.Node, n_projections: int, rng) -> ad.Node:
    """model.domain_distance one slot at a time, each slot drawing its own
    (D, P) directions; the oracle for the block-diagonal projection."""
    b = min(paired_means.value.shape[0], unpaired_means.value.shape[0])
    k, d = paired_means.value.shape[1:]
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


def total_loss_per_pass(model: md.MsVae, lang, traj, unpaired, hp: md.HyperParams, rng):
    """model.total_loss as one pass per term: the paired bound's passes over
    lang and traj (each decoder's static gate input shared by its two
    passes), then the unpaired bound's over the separate `unpaired` batch
    (or None), then the domain distance; the oracle for the stacked form."""
    act_gates = model.act_dec.input_gates(traj, model.obs_mlp.features(traj))
    word_gates = model.word_dec.input_gates(lang)
    m1, lv1 = model.encode_trajectory(traj)
    m2, lv2 = model.encode_language(lang)
    z1 = nn.reparameterize(m1, lv1, rng.standard_normal(m1.value.shape))
    z2 = nn.reparameterize(m2, lv2, rng.standard_normal(m2.value.shape))

    def neg_kl(m, lv, z):
        return ad.neg(ad.reduce_mean(nn.gaussian_kl_per_sample(m, lv, *nn.prior_log_density_params(model.prior, z))))

    a1 = ad.reduce_mean(model.act_dec.teacher_forced_logll(traj, act_gates, z1))
    c1 = ad.reduce_mean(model.word_dec.teacher_forced_logll(lang, word_gates, z1))
    a2 = ad.reduce_mean(model.word_dec.teacher_forced_logll(lang, word_gates, z2))
    c2 = ad.reduce_mean(model.act_dec.teacher_forced_logll(traj, act_gates, z2))
    b1, b2 = neg_kl(m1, lv1, z1), neg_kl(m2, lv2, z2)
    total = ad.scale(ad.add(ad.add(ad.add(a1, ad.scale(b1, hp.beta)), c1),
                            ad.add(ad.add(a2, ad.scale(b2, hp.beta)), c2)), 0.5)
    v_val, d_val = 0.0, 0.0
    if unpaired is not None:
        um1, ulv1 = model.encode_trajectory(unpaired)
        uz1 = nn.reparameterize(um1, ulv1, rng.standard_normal(um1.value.shape))
        v = ad.add(ad.reduce_mean(model.action_log_likelihood(uz1, unpaired)), ad.scale(neg_kl(um1, ulv1, uz1), hp.beta))
        v_val = float(v.value)
        if hp.gamma > 0:
            total = ad.add(total, ad.scale(v, hp.gamma))
        dprime = md.domain_distance(m1, um1, hp.n_projections, rng)
        d_val = float(dprime.value)
        if hp.alpha > 0:
            total = ad.sub(total, ad.scale(dprime, hp.alpha))
    report = md.LossReport(*(float(x.value) for x in (a1, a2, b1, b2, c1, c2)), v=v_val, dprime=d_val,
                           total=float(total.value))
    return ad.neg(total), report


def save_model(path, model, vocab_words: list[str], extra: dict | None = None) -> None:
    """Write a model's parameters the way a training run's checkpoint holds them."""
    arrays = {k: v.value for k, v in model.named_params().items()}
    nn.save_checkpoint(path, arrays, {**md.checkpoint_meta(model, vocab_words), **(extra or {})})


def serial_language_scores(speaker, trajs, tokens) -> np.ndarray:
    """trajectory_language_score one trajectory at a time, each its own
    one-element call; the oracle for the batched pass over all of them."""
    score = type(speaker).trajectory_language_score
    return np.array([score(speaker, [t], tokens)[0] for t in trajs])


def uncached_follow(model, tokens, world, mode, rng, max_steps):
    """MsVae.follow with nothing kept between steps or calls: the
    instruction is encoded and every step's world observed and featurized
    afresh, then the step runs array_step as a rollout does. The oracle for
    follow's cache."""
    dec = model.act_dec
    memory, mask, h = model.instruction_memory(md.make_lang_batch([list(tokens)]))
    prepared, feed = dec.prepare(memory)
    prepared = None if prepared is None else prepared.value
    h = np.zeros((1, dec.gru.n_hidden)) if h is None else h.value
    step, emb, w_static = dec.array_step(), dec.emb.table.value, dec.gru.w.value[: dec.static_dim]
    fed, prev, states, rows, actions = None, gw.N_ACTIONS, [world], [], []
    for _ in range(max_steps):
        o = gw.observe_ego([world])
        gates = np.concatenate([model.obs_mlp.one_hot_row(o), emb[[prev]]], axis=1) @ w_static
        logits, h, fed = step(gates, dec.readout.cells(o), h, fed, memory.value, prepared, feed.value, mask)
        prev = md._pick(logits[0], mode, rng)
        rows.append(o[0])
        actions.append(prev)
        world, done = gw.step(world, prev)
        states.append(world)
        if done:
            break
    return gw.Trajectory(np.array(rows), tuple(actions)), states


def oracle_speak_fn():
    """Grammar-perfect speaker for pipelines.augment: re-renders the
    generating task's instruction."""

    def fn(corpus, rec):
        _, task = corpus.rebuild(rec)
        return corpus.vocab.tokenize(gw.render_instruction(task)), False

    return fn


def bfs_copying_paths(world: gw.World, goals) -> list[gw.Action] | None:
    """The oracle for gridworld._bfs: a first-in, first-out search whose
    queue holds each state with a copy of the path that reached it."""
    start = (world.agent_pos, world.agent_dir)
    if start in goals:
        return []
    blocked = {p for p, _ in world.objects}
    seen = {start}
    queue = deque([(start, [])])
    while queue:
        (pos, d), path = queue.popleft()
        for action in (gw.Action.left, gw.Action.right, gw.Action.forward):
            if action == gw.Action.left:
                nxt = (pos, (d - 1) % 4)
            elif action == gw.Action.right:
                nxt = (pos, (d + 1) % 4)
            else:
                dx, dy = gw.DIR_VECTORS[d]
                tgt = (pos[0] + dx, pos[1] + dy)
                if not (0 <= tgt[0] < world.width and 0 <= tgt[1] < world.height) or tgt in blocked:
                    continue
                nxt = (tgt, d)
            if nxt in seen:
                continue
            seen.add(nxt)
            new_path = path + [action]
            if nxt in goals:
                return new_path
            queue.append((nxt, new_path))
    return None


def drop_goals_union(world: gw.World) -> set:
    """The oracle for gridworld._drop_goals: the union of the states facing
    each empty cell but the agent's, one _goal_states_facing call per cell."""
    empty = [(x, y) for x in range(world.width) for y in range(world.height)
             if world.object_at((x, y)) is None and (x, y) != world.agent_pos]
    return set().union(*(gw._goal_states_facing(world, cell) for cell in empty))
