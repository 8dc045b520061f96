"""Single-room instruction-following gridworld: procedural task sampling,
template instruction grammar, deterministic dynamics, an oracle bot that
plans BFS-shortest paths in (position, facing) space, and success checking.

Worlds are immutable values; step() returns a new world. Observations are
flat one-hot grids that decode back to the exact world state.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, replace
from enum import IntEnum

import numpy as np

KINDS = ("ball", "box", "key")
COLORS = ("red", "green", "blue", "yellow", "purple", "grey")

# (dx, dy) indexed by facing: up, right, down, left
DIR_VECTORS = ((0, -1), (1, 0), (0, 1), (-1, 0))

DEFAULT_SIZE = 7

# weights over subgoal counts 1..4, tuned so rendered instructions average
# near 10 tokens and oracle trajectories land near the 9-12 step band
SUBGOAL_WEIGHTS = (0.55, 0.25, 0.12, 0.08)

CONNECTORS = ("then", "and_then", "after_you")
_CONNECTOR_TOKENS = {"then": ("then",), "and_then": ("and", "then"), "after_you": ("after", "you")}


class Action(IntEnum):
    left = 0
    right = 1
    forward = 2
    pickup = 3
    drop = 4
    done = 5


N_ACTIONS = len(Action)


class UnsolvableTask(ValueError):
    """Raised when no action sequence can satisfy a task."""


@dataclass(frozen=True)
class ObjectSpec:
    kind: str
    color: str

    def words(self) -> tuple[str, str]:
        return (self.color, self.kind)


@dataclass(frozen=True)
class Subgoal:
    verb: str  # "goto" | "pickup"
    spec: ObjectSpec


@dataclass(frozen=True)
class Task:
    subgoals: tuple[Subgoal, ...]
    connectors: tuple[str, ...]  # len(subgoals) - 1, from CONNECTORS


@dataclass(frozen=True)
class World:
    width: int
    height: int
    objects: tuple[tuple[tuple[int, int], ObjectSpec], ...]
    agent_pos: tuple[int, int]
    agent_dir: int
    carried: ObjectSpec | None = None

    def __post_init__(self):
        # canonical object order: equality and observation round-trips are
        # insensitive to placement history
        ordered = tuple(sorted(self.objects, key=lambda item: item[0]))
        object.__setattr__(self, "objects", ordered)

    def object_at(self, pos) -> ObjectSpec | None:
        for p, spec in self.objects:
            if p == pos:
                return spec
        return None

    def find_object(self, spec: ObjectSpec) -> tuple[int, int] | None:
        for p, s in self.objects:
            if s == spec:
                return p
        return None

    def in_bounds(self, pos) -> bool:
        return 0 <= pos[0] < self.width and 0 <= pos[1] < self.height

    def facing_cell(self) -> tuple[int, int]:
        dx, dy = DIR_VECTORS[self.agent_dir]
        return (self.agent_pos[0] + dx, self.agent_pos[1] + dy)


@dataclass(frozen=True)
class Trajectory:
    """Aligned observation/action sequences; observations[t] precedes actions[t]."""

    observations: np.ndarray  # (T, obs_dim)
    actions: tuple[int, ...]

    def __post_init__(self):
        if len(self.observations) != len(self.actions):
            raise ValueError(f"trajectory lengths differ: {len(self.observations)} obs vs {len(self.actions)} actions")

    def __len__(self) -> int:
        return len(self.actions)


# ---------------------------------------------------------------------------
# dynamics


def _posed(world: World, agent_pos: tuple[int, int], agent_dir: int) -> World:
    """`world` with the agent at a new pose. Its objects tuple is already in
    canonical order, so the successor shares it and skips the re-sort (and
    the field-by-field rebuild) of dataclasses.replace."""
    new = object.__new__(World)
    new.__dict__.update(world.__dict__, agent_pos=agent_pos, agent_dir=agent_dir)
    return new


def step(world: World, action: int) -> tuple[World, bool]:
    """Deterministic, total transition; invalid actions are no-ops."""
    action = Action(action)
    if action == Action.left:
        return _posed(world, world.agent_pos, (world.agent_dir - 1) % 4), False
    if action == Action.right:
        return _posed(world, world.agent_pos, (world.agent_dir + 1) % 4), False
    if action == Action.forward:
        target = world.facing_cell()
        if world.in_bounds(target) and world.object_at(target) is None:
            return _posed(world, target, world.agent_dir), False
        return world, False
    if action == Action.pickup:
        target = world.facing_cell()
        spec = world.object_at(target) if world.in_bounds(target) else None
        if spec is not None and world.carried is None:
            objects = tuple((p, s) for p, s in world.objects if p != target)
            return replace(world, objects=objects, carried=spec), False
        return world, False
    if action == Action.drop:
        target = world.facing_cell()
        if world.carried is not None and world.in_bounds(target) and world.object_at(target) is None:
            objects = world.objects + ((target, world.carried),)
            return replace(world, objects=objects, carried=None), False
        return world, False
    return world, True  # done


def step_cap(oracle_length: int) -> int:
    """Evaluation step budget: 4x the oracle, floor of 32."""
    return max(32, 4 * oracle_length)


# ---------------------------------------------------------------------------
# observations

OBS_CHANNELS = len(KINDS) + len(COLORS) + 1 + 4 + len(KINDS) + len(COLORS)  # 23


def obs_dim(width: int = DEFAULT_SIZE, height: int = DEFAULT_SIZE) -> int:
    return width * height * OBS_CHANNELS


_KIND_CHANNEL = {kind: i for i, kind in enumerate(KINDS)}
_COLOR_CHANNEL = {color: len(KINDS) + i for i, color in enumerate(COLORS)}


def _one_hot_runs(worlds) -> tuple[int, int, np.ndarray, list]:
    """What both encoders read from a sequence of same-size worlds: the grid
    size, each world's agent state (y * width + x) * 4 + dir as an intp
    array, and the worlds cut into runs that share one objects tuple and
    carried object, as every step but pickup and drop does. Each run is
    (start, stop, cells, channels): the cell and channel of each of its
    object one-hots, the carried object's at pseudo-cell width * height.
    Channels count kinds, then colors."""
    width, height = (worlds[0].width, worlds[0].height) if len(worlds) else (DEFAULT_SIZE, DEFAULT_SIZE)
    held = width * height
    states, starts, codes = [], [], []
    for i, w in enumerate(worlds):
        if (w.width, w.height) != (width, height):
            raise ValueError(f"world {i} is {w.width}x{w.height}, expected {width}x{height} like world 0")
        states.append((w.agent_pos[1] * width + w.agent_pos[0]) * 4 + w.agent_dir)
        if not starts or w.objects != objects or w.carried != carried:
            objects, carried = w.objects, w.carried
            cells = [(y * width + x, spec) for (x, y), spec in objects]
            if carried is not None:
                cells.append((held, carried))
            starts.append(i)
            codes.append([code for cell, spec in cells
                          for code in (cell, _KIND_CHANNEL[spec.kind], cell, _COLOR_CHANNEL[spec.color])])
    runs = [(start, stop, *np.array(run, dtype=np.intp).reshape(-1, 2).T)
            for start, stop, run in zip(starts, starts[1:] + [len(states)], codes)]
    return width, height, np.array(states, dtype=np.intp), runs


def _set_runs(out: np.ndarray, offsets: np.ndarray, runs) -> None:
    """Set the runs' one-hots in out, given each row's flat offset of every
    cell's first channel, the carried pseudo-cell's last."""
    rows = np.arange(len(out))[:, None]
    for start, stop, cells, channels in runs:
        out[rows[start:stop], offsets[start:stop, cells] + channels] = 1.0


def observe(worlds) -> np.ndarray:
    """Full-grid symbolic observations of a sequence of same-size worlds:
    flattened float64 one-hots, one (len(worlds), obs_dim) row per world."""
    nk, nc = len(KINDS), len(COLORS)
    width, height, states, runs = _one_hot_runs(worlds)
    rows = np.arange(len(states))
    agent = states // 4 * OBS_CHANNELS  # flat offset of each agent cell's first channel
    out = np.zeros((len(states), obs_dim(width, height)))
    out[rows, agent + nk + nc] = 1.0
    out[rows, agent + nk + nc + 1 + states % 4] = 1.0
    # the carried object's one-hots follow the agent's channels on its cell
    offsets = np.empty((len(states), width * height + 1), dtype=np.intp)
    offsets[:, :-1] = np.arange(width * height) * OBS_CHANNELS
    offsets[:, -1] = agent + nk + nc + 5
    _set_runs(out, offsets, runs)
    return out


def decode_observation(obs: np.ndarray, width: int = DEFAULT_SIZE, height: int = DEFAULT_SIZE) -> World:
    """Inverse of observe(); exact for any encoded world."""
    nk, nc = len(KINDS), len(COLORS)
    grid = np.asarray(obs).reshape(height, width, OBS_CHANNELS)
    agent_cells = np.argwhere(grid[:, :, nk + nc] == 1.0)
    if len(agent_cells) != 1:
        raise ValueError(f"observation holds {len(agent_cells)} agent cells, expected exactly 1")
    ay, ax = agent_cells[0]
    agent_dir = int(np.argmax(grid[ay, ax, nk + nc + 1 : nk + nc + 5]))
    objects = []
    for y in range(height):
        for x in range(width):
            if grid[y, x, :nk].any():
                kind = KINDS[int(np.argmax(grid[y, x, :nk]))]
                color = COLORS[int(np.argmax(grid[y, x, nk : nk + nc]))]
                objects.append(((x, y), ObjectSpec(kind, color)))
    carried = None
    base = nk + nc + 5
    if grid[ay, ax, base : base + nk].any():
        kind = KINDS[int(np.argmax(grid[ay, ax, base : base + nk]))]
        color = COLORS[int(np.argmax(grid[ay, ax, base + nk : base + nk + nc]))]
        carried = ObjectSpec(kind, color)
    return World(width, height, tuple(objects), (int(ax), int(ay)), agent_dir, carried)


# model-side egocentric view: the full grid re-indexed to the agent's frame
# (agent at center, facing up), so relative geometry transfers across worlds.
# The frame is a square of side ego_side(max(width, height)), which holds
# every cell in every facing. Channels per ego cell: kind one-hot, color
# one-hot, out-of-bounds flag.
EGO_CHANNELS = len(KINDS) + len(COLORS) + 1


def ego_side(size: int = DEFAULT_SIZE) -> int:
    return 2 * size - 1


def ego_dim(width: int = DEFAULT_SIZE, height: int = DEFAULT_SIZE) -> int:
    return ego_side(max(width, height)) ** 2 * EGO_CHANNELS + len(KINDS) + len(COLORS)


@functools.cache
def _ego_offsets(width: int, height: int) -> np.ndarray:
    """Read-only intp table, row (y * width + x) * 4 + dir: for an agent at
    (x, y) facing dir, the flat ego-observation offset of each world cell's
    first channel (cells row-major), then of the carried one-hots."""
    ys, xs = np.divmod(np.arange(width * height), width)
    dx = xs[None, :] - xs[:, None]  # [agent cell, world cell]
    dy = ys[None, :] - ys[:, None]
    # rotate world offsets into the agent frame (facing -> up), per facing
    fwd = np.stack([-dy, dx, dy, -dx], axis=1)
    right = np.stack([dx, dy, -dx, -dy], axis=1)
    side = ego_side(max(width, height))
    cells = ((side // 2 - fwd) * side + side // 2 + right).reshape(-1, width * height) * EGO_CHANNELS
    table = np.hstack([cells, np.full((len(cells), 1), side * side * EGO_CHANNELS)]).astype(np.intp)
    table.flags.writeable = False
    return table


def observe_ego(worlds) -> np.ndarray:
    """Egocentric re-indexing of the full grid for a sequence of same-size
    worlds, one (len(worlds), ego_dim) row each; same information content as
    observe() minus absolute coordinates (carried object appended globally)."""
    nk, nc = len(KINDS), len(COLORS)
    width, height, states, runs = _one_hot_runs(worlds)
    out = np.zeros((len(states), ego_dim(width, height)))
    grid_len = out.shape[1] - nk - nc
    out[:, nk + nc : grid_len : EGO_CHANNELS] = 1.0  # everything out of bounds until covered
    offsets = _ego_offsets(width, height)[states]
    out[np.arange(len(states))[:, None], offsets[:, :-1] + nk + nc] = 0.0
    _set_runs(out, offsets, runs)
    return out


# observation views available to models: name -> (encode, dim, cells, channels)
OBS_VIEWS = {
    "grid": (observe, obs_dim(), DEFAULT_SIZE * DEFAULT_SIZE, OBS_CHANNELS),
    "ego": (observe_ego, ego_dim(), ego_side() * ego_side(), EGO_CHANNELS),
}


# ---------------------------------------------------------------------------
# instruction grammar


def grammar_words() -> list[str]:
    words = {"go", "to", "the", "pick", "up", "then", "and", "after", "you"}
    words.update(COLORS)
    words.update(KINDS)
    return sorted(words)


def _surface(sg: Subgoal) -> list[str]:
    verb = ["go", "to"] if sg.verb == "goto" else ["pick", "up"]
    return verb + ["the", *sg.spec.words()]


def render_instruction(task: Task) -> list[str]:
    """Deterministic template rendering of a task as a word sequence.

    An "after you" connector may appear only at the final join; it moves the
    last-executed subgoal to the front of the surface form, so surface order
    reverses execution order for that pair. Success checking always honors
    execution order.
    """
    sgs = task.subgoals
    if len(task.connectors) != max(0, len(sgs) - 1):
        raise ValueError(f"task has {len(sgs)} subgoals but {len(task.connectors)} connectors")
    if "after_you" in task.connectors[:-1]:
        raise ValueError("'after you' is only valid at the final join")
    if not sgs:
        raise ValueError("task has no subgoals")
    if task.connectors and task.connectors[-1] == "after_you":
        head, body = sgs[-1], sgs[:-1]
        words = _surface(head) + ["after", "you"]
        for i, sg in enumerate(body):
            if i > 0:
                words += list(_CONNECTOR_TOKENS[task.connectors[i - 1]])
            words += _surface(sg)
        return words
    words = _surface(sgs[0])
    for sg, conn in zip(sgs[1:], task.connectors):
        words += list(_CONNECTOR_TOKENS[conn]) + _surface(sg)
    return words


# ---------------------------------------------------------------------------
# task sampling


def _place_candidate(rng: np.random.Generator, difficulty: str, width: int, height: int,
                     subgoal_weights) -> tuple[World, Task]:
    n_sub = int(rng.choice(4, p=subgoal_weights)) + 1
    n_distract = int(rng.integers(2, 5))
    all_specs = [ObjectSpec(k, c) for k in KINDS for c in COLORS]
    picked = rng.choice(len(all_specs), size=n_sub + n_distract, replace=False)
    specs = [all_specs[i] for i in picked]

    if difficulty == "goto_seq":
        verbs = ["goto"] * n_sub
    elif difficulty == "boss":
        verbs = ["goto" if rng.random() < 2 / 3 else "pickup" for _ in range(n_sub)]
    else:
        raise ValueError(f"unknown difficulty {difficulty!r}")
    subgoals = tuple(Subgoal(v, s) for v, s in zip(verbs, specs[:n_sub]))

    connectors = []
    for i in range(n_sub - 1):
        pool = CONNECTORS if i == n_sub - 2 else CONNECTORS[:2]
        connectors.append(pool[int(rng.integers(len(pool)))])

    cells = [(x, y) for x in range(width) for y in range(height)]
    chosen = rng.choice(len(cells), size=len(specs) + 1, replace=False)
    objects = tuple((cells[c], spec) for c, spec in zip(chosen[:-1], specs))
    agent_pos = cells[chosen[-1]]
    world = World(width, height, objects, agent_pos, int(rng.integers(4)))
    return world, Task(subgoals, tuple(connectors))


def sample_task(seed: int, difficulty: str, **kw) -> tuple[World, Task]:
    """Sample a solvable (world, task) from an int seed; see sample_task_record."""
    return sample_task_record(seed, difficulty, **kw)[:2]


def sample_task_record(seed: int, difficulty: str, *, width: int = DEFAULT_SIZE,
                       height: int = DEFAULT_SIZE, subgoal_weights=SUBGOAL_WEIGHTS,
                       max_tries: int = 100) -> tuple[World, Task, int, list[Action]]:
    """Sample a solvable (world, task); returns it with the accepted attempt
    index and the oracle plan that proved it solvable.

    Attempt i draws from the substream [seed, i], so a record can be rebuilt
    later without re-running solvability checks (see rebuild_task).
    """
    for attempt in range(max_tries):
        rng = np.random.default_rng([seed, attempt])
        world, task = _place_candidate(rng, difficulty, width, height, subgoal_weights)
        try:
            plan = oracle_solve(world, task)
        except UnsolvableTask:
            continue
        return world, task, attempt, plan
    raise UnsolvableTask(f"no solvable placement in {max_tries} tries (seed={seed})")


def rebuild_task(seed: int, tries: int, difficulty: str, *, width: int = DEFAULT_SIZE,
                 height: int = DEFAULT_SIZE, subgoal_weights=SUBGOAL_WEIGHTS) -> tuple[World, Task]:
    """Replay the accepted attempt of sample_task_record; no oracle calls."""
    rng = np.random.default_rng([seed, tries])
    return _place_candidate(rng, difficulty, width, height, subgoal_weights)


# ---------------------------------------------------------------------------
# success checking


def _satisfied(world: World, sg: Subgoal) -> bool:
    if sg.verb == "pickup":
        return world.carried == sg.spec
    pos = world.find_object(sg.spec)
    return pos is not None and world.facing_cell() == pos


def check_success(states: list[World], task: Task) -> bool:
    """True iff subgoals are satisfied in execution order over the episode.

    One subgoal may be consumed per state; the initial state counts.
    """
    idx = 0
    for w in states:
        if idx == len(task.subgoals):
            break
        if _satisfied(w, task.subgoals[idx]):
            idx += 1
    return idx == len(task.subgoals)


# ---------------------------------------------------------------------------
# oracle


def _bfs(world: World, goals: set[tuple[tuple[int, int], int]]) -> list[Action] | None:
    """Shortest left/right/forward path from the agent state to any goal
    (position, facing) state. Object cells block movement."""
    start = (world.agent_pos, world.agent_dir)
    if start in goals:
        return []
    blocked = {p for p, _ in world.objects}
    seen = {start}
    queue = deque([(start, [])])
    while queue:
        (pos, d), path = queue.popleft()
        for action in (Action.left, Action.right, Action.forward):
            if action == Action.left:
                nxt = (pos, (d - 1) % 4)
            elif action == Action.right:
                nxt = (pos, (d + 1) % 4)
            else:
                dx, dy = DIR_VECTORS[d]
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


def _goal_states_facing(world: World, target: tuple[int, int]) -> set[tuple[tuple[int, int], int]]:
    goals = set()
    for d, (dx, dy) in enumerate(DIR_VECTORS):
        cell = (target[0] - dx, target[1] - dy)
        if world.in_bounds(cell) and world.object_at(cell) is None:
            goals.add((cell, d))
    return goals


def oracle_solve(world: World, task: Task) -> list[Action]:
    """Solve the task with per-subgoal BFS-shortest paths; ends with done."""
    actions: list[Action] = []
    w = world
    for sg in task.subgoals:
        if sg.verb == "pickup" and w.carried is not None:
            # free the hands on the nearest empty facing cell
            empty = [(x, y) for x in range(w.width) for y in range(w.height)
                     if w.object_at((x, y)) is None and (x, y) != w.agent_pos]
            path = _bfs(w, set().union(*(_goal_states_facing(w, cell) for cell in empty)))
            if path is None:
                raise UnsolvableTask("nowhere to drop the carried object")
            path.append(Action.drop)
            w = replay(w, path)[-1]
            actions += path
        target = w.find_object(sg.spec)
        if target is None:
            raise UnsolvableTask(f"referenced object {sg.spec} not in world")
        path = _bfs(w, _goal_states_facing(w, target))
        if path is None:
            raise UnsolvableTask(f"object {sg.spec} unreachable")
        if sg.verb == "pickup":
            path.append(Action.pickup)
        w = replay(w, path)[-1]
        actions += path
    actions.append(Action.done)
    return actions


# ---------------------------------------------------------------------------
# replay


def replay(world: World, actions) -> list[World]:
    """Apply actions in order; returns every visited state, the start first.
    No observations are encoded."""
    states = [world]
    for a in actions:
        world, _ = step(world, a)
        states.append(world)
    return states


def rollout(world: World, actions, view: str = "grid") -> tuple[list[World], Trajectory]:
    """Replay actions; returns all visited states and the trajectory with
    observations encoded in the named view."""
    states = replay(world, actions)
    return states, Trajectory(OBS_VIEWS[view][0](states[:-1]), tuple(int(a) for a in actions))
