"""A walking tour of the instruction-following gridworld.

Samples a task, renders its instruction, lets the oracle bot solve it, and
replays the episode step by step with an ASCII picture of the world.
"""

import numpy as np

from msvae import gridworld as gw

AGENT_GLYPHS = "^>v<"


def draw(world):
    rows = []
    for y in range(world.height):
        row = []
        for x in range(world.width):
            spec = world.object_at((x, y))
            if (x, y) == world.agent_pos:
                row.append(AGENT_GLYPHS[world.agent_dir])
            elif spec is not None:
                row.append(spec.kind[0].upper() if spec.color != "red" else spec.kind[0])
            else:
                row.append(".")
        rows.append(" ".join(row))
    return "\n".join(rows)


def main():
    seed = 20
    world, task = gw.sample_task(seed, "boss")
    words = gw.render_instruction(task)
    print("instruction:", " ".join(words))
    print("subgoals:")
    for sg in task.subgoals:
        print(f"  {sg.verb} the {sg.spec.color} {sg.spec.kind}")
    print("\ninitial world (agent is ^>v<, objects are initials):")
    print(draw(world))

    actions = gw.oracle_solve(world, task)
    print(f"\noracle plan ({len(actions)} actions):", [gw.Action(a).name for a in actions])

    states, trajectory = gw.rollout(world, actions)
    print("\nfinal world:")
    print(draw(states[-1]))
    print("\nsuccess:", gw.check_success(states, task))

    # encoders take a sequence of worlds and return one row per world
    obs = gw.observe(states)
    print("\nobservations of every visited state:", obs.shape, "— each decodes back exactly:",
          all(gw.decode_observation(row) == state for row, state in zip(obs, states)))
    ego = gw.observe_ego(states)
    print("egocentric view:", ego.shape, "(models consume this frame)")

    lengths = []
    for s in range(300):
        w, t = gw.sample_task(s, "goto_seq")
        lengths.append(len(gw.oracle_solve(w, t)))
    print(f"\nmean oracle trajectory length over 300 tasks: {np.mean(lengths):.2f} steps")


if __name__ == "__main__":
    main()
