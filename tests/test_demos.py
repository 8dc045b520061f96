"""The quick demos run to completion against the current public API.

Each demo runs in its own interpreter, as a reader would run it.
demos/04_train_and_follow.py is left out: it trains a model, which takes
about 50 s on a 2-vCPU machine, too slow for this suite. The others take
under a second each.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from msvae import cli

REPO = Path(__file__).resolve().parents[1]
QUICK_DEMOS = ("01_gridworld_tour.py", "02_autodiff_basics.py", "03_objective_anatomy.py")


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_0(name, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    proc = subprocess.run([sys.executable, str(REPO / "demos" / name)], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
