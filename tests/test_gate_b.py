"""tools/gate_b.py's note on a best.bin that differs: whether the parameter
arrays are byte-identical, and which metadata keys differ."""

import importlib.util
from pathlib import Path

import numpy as np

from msvae import nn

spec = importlib.util.spec_from_file_location("gate_b", Path(__file__).parents[1] / "tools" / "gate_b.py")
gate_b = importlib.util.module_from_spec(spec)
spec.loader.exec_module(gate_b)


def checkpoint(tmp_path, name, arrays, meta) -> bytes:
    path = tmp_path / name
    nn.save_checkpoint(path, arrays, meta)
    return path.read_bytes()


def test_reads_what_save_checkpoint_writes(tmp_path):
    arrays = {"b": np.arange(6.0).reshape(2, 3), "a": np.array(2.5)}
    meta, read = gate_b.read_checkpoint(checkpoint(tmp_path, "c.bin", arrays, {"kind": "msvae"}))
    assert meta == {"kind": "msvae"}
    assert read == {name: a.tobytes() for name, a in arrays.items()}
    assert gate_b.read_checkpoint(b"not a checkpoint") is None


def test_metadata_only_difference(tmp_path):
    arrays = {"w": np.ones((2, 2)), "b": np.zeros(2)}
    meta = {"kind": "follower", "model_config": {"hidden": 4, "obs_view": "ego"}, "selected_epoch": 2}
    before = checkpoint(tmp_path, "a.bin", arrays, meta)
    after = checkpoint(tmp_path, "b.bin", arrays, {**meta, "model_config": {"hidden": 4}})
    assert gate_b.checkpoint_note(before, after) == (
        "  (every parameter array byte-identical; metadata differs at model_config.obs_view)")


def test_one_changed_array(tmp_path):
    arrays = {"w": np.ones((2, 2)), "b": np.zeros(2)}
    meta = {"kind": "follower", "selected_epoch": 2}
    before = checkpoint(tmp_path, "a.bin", arrays, meta)
    w = arrays["w"].copy()
    w[1, 0] = np.nextafter(1.0, 2.0)  # one ulp
    after = checkpoint(tmp_path, "b.bin", {**arrays, "w": w}, meta)
    assert gate_b.checkpoint_note(before, after) == "  (1 of 2 arrays differ, first w; metadata differs at no key)"
