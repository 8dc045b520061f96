from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from msvae import gridworld as gw
from msvae.gridworld import Action, ObjectSpec, Subgoal, Task, World
from oracles import bfs_copying_paths, drop_goals_union


def simple_world(**kw):
    defaults = dict(
        width=7,
        height=7,
        objects=(((4, 2), ObjectSpec("ball", "red")), ((1, 5), ObjectSpec("key", "blue"))),
        agent_pos=(2, 2),
        agent_dir=1,
    )
    defaults.update(kw)
    return World(**defaults)


class TestStep:
    def test_forward_into_wall_blocked(self):
        w = simple_world(agent_pos=(6, 3), agent_dir=1)  # facing right wall
        w2, done = gw.step(w, Action.forward)
        assert w2.agent_pos == (6, 3) and not done

    def test_forward_into_object_blocked(self):
        w = simple_world(agent_pos=(3, 2), agent_dir=1)  # red ball at (4, 2)
        w2, _ = gw.step(w, Action.forward)
        assert w2.agent_pos == (3, 2)

    def test_left_right_inverse(self):
        w = simple_world()
        w2, _ = gw.step(w, Action.left)
        w3, _ = gw.step(w2, Action.right)
        assert w3.agent_dir == w.agent_dir

    def test_pickup_facing_object(self):
        w = simple_world(agent_pos=(3, 2), agent_dir=1)
        w2, _ = gw.step(w, Action.pickup)
        assert w2.carried == ObjectSpec("ball", "red")
        assert w2.object_at((4, 2)) is None

    def test_pickup_with_full_hands_noop(self):
        w = simple_world(agent_pos=(3, 2), agent_dir=1, carried=ObjectSpec("box", "grey"))
        w2, _ = gw.step(w, Action.pickup)
        assert w2 == w

    def test_drop_places_on_facing_cell(self):
        w = simple_world(agent_pos=(3, 3), agent_dir=2, carried=ObjectSpec("box", "grey"))
        w2, _ = gw.step(w, Action.drop)
        assert w2.carried is None
        assert w2.object_at((3, 4)) == ObjectSpec("box", "grey")

    def test_done_flags_episode_end(self):
        w = simple_world()
        w2, done = gw.step(w, Action.done)
        assert done and w2 == w

    def test_deterministic_and_total(self):
        w = simple_world()
        for a in Action:
            r1 = gw.step(w, a)
            r2 = gw.step(w, a)
            assert r1 == r2


class TestObservation:
    def test_round_trip_exact(self):
        for seed in range(30):
            world, task = gw.sample_task(seed, "boss")
            # also exercise a carried state by replaying a pickup task when present
            assert gw.decode_observation(gw.observe([world])[0]) == world
            actions = gw.oracle_solve(world, task)
            states, _ = gw.rollout(world, actions)
            for state in states[:: max(1, len(states) // 4)]:
                assert gw.decode_observation(gw.observe([state])[0]) == state

    def test_one_agent_channel(self):
        world, _ = gw.sample_task(3, "goto_seq")
        obs = gw.observe([world])[0].reshape(7, 7, gw.OBS_CHANNELS)
        assert obs[:, :, len(gw.KINDS) + len(gw.COLORS)].sum() == 1.0

    def test_corrupt_observation_rejected(self):
        world, _ = gw.sample_task(4, "goto_seq")
        obs = gw.observe([world])[0]
        obs = obs.copy()
        obs[np.argmax(obs)] = 0.0  # clears some channel; may remove the agent
        agent_plane = obs.reshape(7, 7, gw.OBS_CHANNELS)[:, :, len(gw.KINDS) + len(gw.COLORS)]
        if agent_plane.sum() != 1.0:
            with pytest.raises(ValueError, match="agent"):
                gw.decode_observation(obs)


def loop_observe_ego(world):
    """The per-cell loop that observe_ego replaced. It lives on only here, as
    the oracle the batched encoder must match byte for byte."""
    nk, nc = len(gw.KINDS), len(gw.COLORS)
    sw, sh = gw.ego_side(world.width), gw.ego_side(world.height)
    grid = np.zeros((sh, sw, gw.EGO_CHANNELS))
    grid[:, :, nk + nc] = 1.0  # everything out of bounds until filled
    ax, ay = world.agent_pos
    d = world.agent_dir
    cy, cx = sh // 2, sw // 2
    for y in range(world.height):
        for x in range(world.width):
            dx, dy = x - ax, y - ay
            # rotate world offsets into the agent frame (facing -> up)
            if d == 0:
                fwd, right = -dy, dx
            elif d == 1:
                fwd, right = dx, dy
            elif d == 2:
                fwd, right = dy, -dx
            else:
                fwd, right = -dx, -dy
            r, c = cy - fwd, cx + right
            grid[r, c, nk + nc] = 0.0
            spec = world.object_at((x, y))
            if spec is not None:
                grid[r, c, gw.KINDS.index(spec.kind)] = 1.0
                grid[r, c, nk + gw.COLORS.index(spec.color)] = 1.0
    carried = np.zeros(nk + nc)
    if world.carried is not None:
        carried[gw.KINDS.index(world.carried.kind)] = 1.0
        carried[nk + gw.COLORS.index(world.carried.color)] = 1.0
    return np.concatenate([grid.reshape(-1), carried])


SPECS = st.builds(ObjectSpec, st.sampled_from(gw.KINDS), st.sampled_from(gw.COLORS))


@st.composite
def random_world(draw, size):
    """Any agent cell and facing, 0-8 objects on any other cells (borders
    included), a carried object or none."""
    cells = [(x, y) for y in range(size) for x in range(size)]
    agent = draw(st.sampled_from(cells))
    spots = draw(st.lists(st.sampled_from([c for c in cells if c != agent]), max_size=8, unique=True))
    objects = tuple((spot, draw(SPECS)) for spot in spots)
    return World(size, size, objects, agent, draw(st.integers(0, 3)), draw(st.none() | SPECS))


@st.composite
def state_sequence(draw):
    """Independent same-size worlds, or the states visited by random actions
    from one world, whose pickups and drops change the objects mid-sequence."""
    size = draw(st.integers(2, 8))
    if draw(st.booleans()):
        return draw(st.lists(random_world(size), max_size=10))
    actions = draw(st.lists(st.sampled_from(list(Action)), max_size=20))
    return gw.replay(draw(random_world(size)), actions)[draw(st.integers(0, 1)):]


def replace_successor(world, action):
    """What step must return, built by dataclasses.replace, which re-sorts
    the objects; a no-op returns the world itself."""
    target = world.facing_cell()
    on_grid = world.in_bounds(target)
    spec = world.object_at(target) if on_grid else None
    if action == Action.left:
        return replace(world, agent_dir=(world.agent_dir - 1) % 4)
    if action == Action.right:
        return replace(world, agent_dir=(world.agent_dir + 1) % 4)
    if action == Action.forward and on_grid and spec is None:
        return replace(world, agent_pos=target)
    if action == Action.pickup and spec is not None and world.carried is None:
        return replace(world, objects=tuple(item for item in world.objects if item[0] != target), carried=spec)
    if action == Action.drop and on_grid and spec is None and world.carried is not None:
        return replace(world, objects=world.objects + ((target, world.carried),), carried=None)
    return world


class TestSuccessors:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(2, 8).flatmap(random_world), st.sampled_from(list(Action)), SPECS)
    def test_successors_equal_what_replace_builds(self, world, action, spec):
        # every facing, with empty and full hands, so pickups and drops take effect
        for facing in range(4):
            for carried in (None, spec):
                before = replace(world, agent_dir=facing, carried=carried)
                new, done = gw.step(before, action)
                expected = replace_successor(before, action)
                assert type(new) is World and vars(new) == vars(expected)
                assert new == expected and hash(new) == hash(expected) and repr(new) == repr(expected)
                if action in (Action.left, Action.right, Action.forward):
                    # a turn or a move shares the parent's canonical objects tuple
                    assert new.objects is before.objects
                assert new.objects == tuple(sorted(new.objects, key=lambda item: item[0]))
                assert done == (action == Action.done)

    @pytest.mark.parametrize("value", [2, np.int64(2), 2.0, np.float64(2.0), True, np.True_, Action.forward,
                                       np.array(2), 2.5, -1, 6, "2", None, [2]],
                             ids=repr)
    def test_step_takes_exactly_the_values_action_takes(self, value):
        world = simple_world()
        try:
            action = Action(value)
        except ValueError:
            with pytest.raises(ValueError):
                gw.step(world, value)
        else:
            assert gw.step(world, value) == gw.step(world, action)


class TestBatchedEncoders:
    @settings(max_examples=150, deadline=None)
    @given(state_sequence())
    def test_rows_match_oracle_and_decode(self, worlds):
        ego, grid = gw.observe_ego(worlds), gw.observe(worlds)
        size = worlds[0].width if worlds else gw.DEFAULT_SIZE
        assert ego.shape == (len(worlds), gw.ego_dim(size, size)) and ego.dtype == np.float64
        assert grid.shape == (len(worlds), gw.obs_dim(size, size)) and grid.dtype == np.float64
        for world, ego_row, grid_row in zip(worlds, ego, grid):
            assert ego_row.tobytes() == loop_observe_ego(world).tobytes()
            assert gw.decode_observation(grid_row, size, size) == world
            # agent, objects and carried object set two channels each, nothing else
            assert grid_row.sum() == 2 * (1 + len(world.objects) + (world.carried is not None))

    def test_every_agent_state_matches_oracle(self):
        # one sequence covering every agent cell and facing, objects on corners and borders
        objects = (((0, 0), ObjectSpec("ball", "red")), ((6, 0), ObjectSpec("key", "grey")),
                   ((0, 6), ObjectSpec("box", "blue")), ((6, 6), ObjectSpec("ball", "green")),
                   ((3, 0), ObjectSpec("key", "purple")), ((6, 4), ObjectSpec("box", "yellow")))
        taken = {pos for pos, _ in objects}
        worlds = [World(7, 7, objects, (x, y), d, ObjectSpec("key", "red") if (x + d) % 2 else None)
                  for y in range(7) for x in range(7) for d in range(4) if (x, y) not in taken]
        assert len(worlds) == (49 - len(objects)) * 4
        expected = np.stack([loop_observe_ego(w) for w in worlds])
        assert gw.observe_ego(worlds).tobytes() == expected.tobytes()

    def test_empty_sequence_and_rollout(self):
        assert gw.observe_ego([]).shape == (0, gw.ego_dim())
        assert gw.observe([]).shape == (0, gw.obs_dim())
        for view, (_, dim, _, _) in gw.OBS_VIEWS.items():
            states, traj = gw.rollout(simple_world(), [], view)
            assert states == [simple_world()] and traj.observations.shape == (0, dim)

    def test_mixed_sizes_rejected(self):
        small = World(5, 5, (), (1, 1), 0)
        for encode in (gw.observe, gw.observe_ego):
            with pytest.raises(ValueError, match="expected 7x7"):
                encode([simple_world(), small])

    @pytest.mark.parametrize("facing", range(4))
    @pytest.mark.parametrize("width, height", [(7, 4), (4, 7)])
    def test_non_square_ego_frame_holds_every_object(self, width, height, facing):
        """The ego frame is a square of side 2 * max(width, height) - 1
        centred on the agent; each object sits at its offset from the agent,
        rotated so the agent faces up."""
        world, _ = gw.sample_task(3, "boss", width=width, height=height)
        world = World(width, height, world.objects, world.agent_pos, facing)
        nk, nc, side = len(gw.KINDS), len(gw.COLORS), 2 * max(width, height) - 1
        obs = gw.observe_ego([world])[0]
        assert obs.shape == (gw.ego_dim(width, height),) == (side * side * gw.EGO_CHANNELS + nk + nc,)
        grid = obs[:-nk - nc].reshape(side, side, gw.EGO_CHANNELS)
        assert (grid[:, :, nk + nc] == 0).sum() == width * height  # in-bounds cells
        assert grid[:, :, :nk + nc].sum() == 2 * len(world.objects)
        ax, ay = world.agent_pos
        for (x, y), spec in world.objects:
            dx, dy = x - ax, y - ay
            fwd, right = [(-dy, dx), (dx, dy), (dy, -dx), (-dx, -dy)][facing]
            cell = grid[side // 2 - fwd, side // 2 + right]
            assert cell[gw.KINDS.index(spec.kind)] == 1 and cell[nk + gw.COLORS.index(spec.color)] == 1
            assert cell[nk + nc] == 0


class TestGrammar:
    def test_single_goto_surface(self):
        task = Task((Subgoal("goto", ObjectSpec("ball", "red")),), ())
        assert gw.render_instruction(task) == ["go", "to", "the", "red", "ball"]

    def test_after_you_reverses_surface_order(self):
        task = Task(
            (Subgoal("goto", ObjectSpec("ball", "red")), Subgoal("pickup", ObjectSpec("key", "blue"))),
            ("after_you",),
        )
        words = gw.render_instruction(task)
        assert words == ["pick", "up", "the", "blue", "key", "after", "you", "go", "to", "the", "red", "ball"]

    def test_after_you_only_final_join(self):
        task = Task(
            (
                Subgoal("goto", ObjectSpec("ball", "red")),
                Subgoal("goto", ObjectSpec("key", "blue")),
                Subgoal("goto", ObjectSpec("box", "green")),
            ),
            ("after_you", "then"),
        )
        with pytest.raises(ValueError, match="final join"):
            gw.render_instruction(task)

    def test_vocabulary_closed_and_small(self):
        vocab = set(gw.grammar_words())
        assert len(vocab) <= 40
        seen = set()
        for seed in range(2000):
            _, task = gw.rebuild_task(seed, 0, "boss")
            seen.update(gw.render_instruction(task))
        assert seen <= vocab


def parse_instruction(words):
    """Independent inverse of render_instruction; returns execution-order subgoals."""

    def read_chain(toks):
        sgs = []
        i = 0
        while i < len(toks):
            verb = "goto" if toks[i] == "go" else "pickup"
            color, kind = toks[i + 3], toks[i + 4]
            sgs.append(Subgoal(verb, ObjectSpec(kind, color)))
            i += 5
            if i < len(toks) and toks[i] == "then":
                i += 1
            elif i + 1 < len(toks) and toks[i] == "and" and toks[i + 1] == "then":
                i += 2
        return sgs

    for p in range(len(words) - 1):
        if words[p] == "after" and words[p + 1] == "you":
            return read_chain(words[p + 2 :]) + read_chain(words[:p])
    return read_chain(words)


class TestRenderInjectivity:
    def test_parse_back_recovers_execution_order(self):
        for seed in range(500):
            _, task = gw.rebuild_task(seed, 0, "boss")
            words = gw.render_instruction(task)
            assert tuple(parse_instruction(words)) == task.subgoals


class TestSampling:
    def test_goto_seq_only_goto(self):
        for seed in range(50):
            _, task = gw.sample_task(seed, "goto_seq")
            assert all(sg.verb == "goto" for sg in task.subgoals)

    def test_boss_mixes_verbs(self):
        verbs = set()
        for seed in range(60):
            _, task = gw.sample_task(seed, "boss")
            verbs.update(sg.verb for sg in task.subgoals)
        assert verbs == {"goto", "pickup"}

    def test_referenced_objects_unique(self):
        for seed in range(50):
            world, task = gw.sample_task(seed, "boss")
            for sg in task.subgoals:
                hits = [p for p, s in world.objects if s == sg.spec]
                assert len(hits) == 1

    def test_deterministic_given_seed(self):
        a = gw.sample_task(123, "boss")
        b = gw.sample_task(123, "boss")
        assert a == b

    def test_record_rebuild_matches(self):
        for seed in range(30):
            world, task, tries, plan = gw.sample_task_record(seed, "boss")
            w2, t2 = gw.rebuild_task(seed, tries, "boss")
            assert (world, task) == (w2, t2)
            assert plan == gw.oracle_solve(world, task)

    @pytest.mark.parametrize("weights", [gw.SUBGOAL_WEIGHTS, [0.25] * 4, [0, 0, 0, 1], [1, 0, 0, 0],
                                         [0.3, 0.0, 0.7, 0.0], [0.55, 0.25, 0.12, 0.08 + 1e-9],
                                         np.array([0.4, 0.3, 0.2, 0.1], dtype=np.float32)], ids=repr)
    def test_subgoal_count_is_the_draw_choice_makes(self, weights):
        for seed in range(1000):
            expected = int(np.random.default_rng([seed, 0]).choice(4, p=weights)) + 1
            _, task = gw.rebuild_task(seed, 0, "goto_seq", subgoal_weights=weights)
            assert len(task.subgoals) == expected

    @pytest.mark.parametrize("weights", [[0.5, 0.5, 0.5, -0.5], (0.6, -0.1, 0.3, 0.2), [float("nan"), 0.5, 0.25, 0.25],
                                         [0.55, 0.25, 0.12, 0.08 + 1e-7], [0.55, 0.25, 0.12, 0.08 - 1e-7],
                                         [0.5, 0.5], [0.2] * 5, [], [[0.5, 0.5], [0.0, 0.0]],
                                         np.array([0.5, 0.5, 0.5, -0.5]), np.array([np.nan, 0.5, 0.25, 0.25]),
                                         np.array([0.3, 0.3, 0.3, 0.3]), np.array([0.5, 0.5])], ids=repr)
    def test_weights_that_choice_rejects_raise(self, weights):
        with pytest.raises(ValueError):
            np.random.default_rng(0).choice(4, p=weights)
        for _ in range(2):  # a rejected vector is never remembered as checked
            with pytest.raises(ValueError):
                gw.sample_task(0, "boss", subgoal_weights=weights)
            with pytest.raises(ValueError):
                gw.rebuild_task(0, 0, "boss", subgoal_weights=weights)

    def test_mean_instruction_length_band(self):
        lengths = []
        for seed in range(400):
            _, task = gw.sample_task(seed, "goto_seq")
            lengths.append(len(gw.render_instruction(task)))
        mean = np.mean(lengths)
        assert 7.0 <= mean <= 13.0, mean

    def test_mean_trajectory_length_band(self):
        # directional target; oracle lengths include the final done
        lengths = []
        for seed in range(300):
            world, task = gw.sample_task(seed, "goto_seq")
            lengths.append(len(gw.oracle_solve(world, task)))
        mean = np.mean(lengths)
        assert 8.0 <= mean <= 14.0, mean


class TestSuccess:
    def test_stationary_agent_fails_distant_goto(self):
        world = simple_world(agent_pos=(2, 2), agent_dir=0)
        task = Task((Subgoal("goto", ObjectSpec("key", "blue")),), ())
        states = [world] * 5
        assert not gw.check_success(states, task)

    def test_oracle_trajectory_succeeds(self):
        for seed in range(100):
            world, task = gw.sample_task(seed, "boss")
            actions = gw.oracle_solve(world, task)
            states, _ = gw.rollout(world, actions)
            assert gw.check_success(states, task)

    def test_out_of_order_fails(self):
        # A east of the agent, B north; the episode faces B first, then A,
        # and never faces B again: only the wrong order is ever available
        a, b = ObjectSpec("ball", "red"), ObjectSpec("key", "blue")
        world = World(7, 7, (((3, 2), a), ((2, 1), b)), (2, 2), 3)  # facing empty west
        task = Task((Subgoal("goto", a), Subgoal("goto", b)), ("then",))
        states, _ = gw.rollout(world, [Action.right, Action.right, Action.done])
        assert gw.check_success(states, task) is False

    def test_in_order_succeeds(self):
        a, b = ObjectSpec("ball", "red"), ObjectSpec("key", "blue")
        world = World(7, 7, (((3, 2), a), ((2, 1), b)), (2, 2), 2)  # facing empty south
        task = Task((Subgoal("goto", a), Subgoal("goto", b)), ("then",))
        states, _ = gw.rollout(world, [Action.left, Action.left, Action.done])
        assert gw.check_success(states, task)


class TestOracle:
    def test_already_facing_target_yields_done_only(self):
        a = ObjectSpec("ball", "red")
        world = World(7, 7, (((3, 2), a),), (2, 2), 1)  # facing (3, 2)
        task = Task((Subgoal("goto", a),), ())
        assert gw.oracle_solve(world, task) == [Action.done]

    def test_oracle_ends_with_done(self):
        for seed in range(40):
            world, task = gw.sample_task(seed, "boss")
            actions = gw.oracle_solve(world, task)
            assert actions[-1] == Action.done

    def test_second_pickup_drops_first(self):
        a, b = ObjectSpec("ball", "red"), ObjectSpec("key", "blue")
        world = World(7, 7, (((4, 2), a), ((1, 5), b)), (2, 2), 1)
        task = Task((Subgoal("pickup", a), Subgoal("pickup", b)), ("then",))
        actions = gw.oracle_solve(world, task)
        states, _ = gw.rollout(world, actions)
        assert Action.drop in actions
        assert gw.check_success(states, task)
        assert states[-1].carried == b

    def test_unreachable_rejected(self):
        # box the target in with other objects
        target = ObjectSpec("ball", "red")
        walls = [ObjectSpec("box", c) for c in ("green", "blue", "yellow", "purple")]
        objects = (((0, 0), target), ((1, 0), walls[0]), ((0, 1), walls[1]), ((1, 1), walls[2]))
        world = World(7, 7, objects, (4, 4), 0)
        task = Task((Subgoal("goto", target),), ())
        with pytest.raises(gw.UnsolvableTask):
            gw.oracle_solve(world, task)


def brute_force_shortest(world, goal_states):
    """Independent exhaustive search over raw action sequences (iterative
    deepening over a full breadth-first frontier of states)."""
    frontier = {(world.agent_pos, world.agent_dir)}
    if frontier & goal_states:
        return 0
    seen = set(frontier)
    depth = 0
    while frontier:
        depth += 1
        nxt = set()
        for pos, d in frontier:
            w = World(world.width, world.height, world.objects, pos, d)
            for a in (Action.left, Action.right, Action.forward):
                w2, _ = gw.step(w, a)
                s = (w2.agent_pos, w2.agent_dir)
                if s not in seen:
                    seen.add(s)
                    nxt.add(s)
        if nxt & goal_states:
            return depth
        frontier = nxt
    return None


class TestBfsAgainstBruteForce:
    def test_matches_on_random_worlds(self):
        for seed in range(100):
            world, task = gw.sample_task(seed, "goto_seq")
            first = task.subgoals[0]
            target = world.find_object(first.spec)
            goals = gw._goal_states_facing(world, target)
            found = gw._bfs(world, goals)
            assert found is not None
            assert len(found[0]) == brute_force_shortest(world, goals)


@st.composite
def bfs_case(draw):
    """A random world and a goal set of on-grid states: possibly empty, on
    object cells, walled off, or holding the start. No sampled world puts an
    object under the agent, but the search must handle one like any other
    object cell it starts on: free to turn on, never re-entered."""
    size = draw(st.integers(2, 8))
    world = draw(random_world(size))
    if draw(st.booleans()):
        world = replace(world, objects=world.objects + ((world.agent_pos, draw(SPECS)),))
    states = st.tuples(st.tuples(st.integers(0, size - 1), st.integers(0, size - 1)), st.integers(0, 3))
    goals = draw(st.sets(states, max_size=6))
    if draw(st.booleans()):
        goals.add((world.agent_pos, world.agent_dir))
    return world, goals


class TestBfsAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(bfs_case())
    def test_same_path_as_the_path_copying_search(self, case):
        world, goals = case
        found = gw._bfs(world, goals)
        path = None if found is None else found[0]
        assert path == bfs_copying_paths(world, goals)
        assert path is None or all(type(a) is Action for a in path)

    @settings(max_examples=300, deadline=None)
    @given(bfs_case())
    def test_stop_state_is_the_goal_the_path_reaches(self, case):
        world, goals = case
        found = gw._bfs(world, goals)
        if found is not None:
            path, stop = found
            end = gw.replay(world, path)[-1]
            assert stop == (end.agent_pos, end.agent_dir) and stop in goals
            assert all(type(v) is int for v in (*stop[0], stop[1]))  # the end state goes to JSON

    def test_oracle_solve_equals_the_oracle_built_plan(self, monkeypatch):
        tasks = [gw.sample_task_record(seed, difficulty)
                 for difficulty in ("boss", "goto_seq") for seed in range(120)]

        def oracle_bfs(world, goals):
            path = bfs_copying_paths(world, goals)
            if path is None:
                return None
            end = gw.replay(world, path)[-1]
            return path, (end.agent_pos, end.agent_dir)

        monkeypatch.setattr(gw, "_bfs", oracle_bfs)
        monkeypatch.setattr(gw, "_drop_goals", drop_goals_union)
        for world, task, _, plan in tasks:
            assert gw.oracle_solve(world, task) == plan
        assert sum(Action.drop in plan for *_, plan in tasks) >= 5  # the drop branch ran


class TestOracleEndWorld:
    def test_end_world_is_the_replayed_plan(self):
        tasks = [gw.sample_task_record(seed, difficulty)
                 for difficulty, seeds in (("boss", range(240)), ("goto_seq", range(100))) for seed in seeds]
        for world, _, _, plan in tasks:
            end = gw.replay(world, plan)[-1]
            assert vars(plan.end) == vars(end) and plan.end == end
            assert plan.end.objects == tuple(sorted(plan.end.objects, key=lambda item: item[0]))
        assert sum(Action.drop in plan for *_, plan in tasks) >= 20  # the drop branch ran

    @settings(max_examples=300, deadline=None)
    @given(bfs_case())
    def test_one_pass_drop_goals_equal_their_union_per_empty_cell(self, case):
        world, _ = case  # the agent may stand on an object
        assert gw._drop_goals(world) == drop_goals_union(world)


class TestStepCap:
    def test_floor_and_scale(self):
        assert gw.step_cap(3) == 32
        assert gw.step_cap(10) == 40
