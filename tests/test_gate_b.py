"""tools/gate_b.py's notes on files that differ: for a best.bin, whether the
parameter arrays are byte-identical, how far their values moved and which
metadata keys differ; for a runrecord.json, how far its numbers moved."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

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
    assert gate_b.checkpoint_note(before, after) == (
        f"  (1 of 2 arrays differ, first w, max relative difference {2.0 ** -52 / (1 + 2.0 ** -52):.3g}; "
        "metadata differs at no key)")


def test_changed_arrays_report_their_largest_relative_difference(tmp_path):
    arrays = {"w": np.array([[1.0, -4.0], [0.0, 2.0]]), "b": np.array([1e-300, 3.0])}
    meta = {"kind": "msvae"}
    before = checkpoint(tmp_path, "a.bin", arrays, meta)
    after = checkpoint(tmp_path, "b.bin", {"w": np.array([[1.0, -4.0], [0.0, 2.5]]), "b": np.array([0.0, 3.0])},
                       meta)
    # b[0]: 1e-300 against 0 is a relative difference of 1; w[1, 1]: 0.5 / 2.5
    assert gate_b.checkpoint_note(before, after) == (
        "  (2 of 2 arrays differ, first b, max relative difference 1; metadata differs at no key)")
    grown = checkpoint(tmp_path, "c.bin", {**arrays, "b": np.zeros(3)}, meta)
    assert gate_b.checkpoint_note(before, grown) == (
        "  (1 of 2 arrays differ, first b, not all of the same size; metadata differs at no key)")


def test_runrecord_numbers_report_their_largest_relative_difference():
    record = {"entries": [{"epoch": 0, "sr": 0.5, "smoothed": 0.25, "dir": "<OUT>/a"}], "selected_epoch": 0,
              "early_stopped": False}
    moved = json.loads(json.dumps(record))
    moved["entries"][0]["smoothed"] = 0.25 * (1 + 1e-15)
    data = [json.dumps(doc).encode() for doc in (record, moved)]
    assert gate_b.json_max_rel_diff(data[0], data[0]) == 0.0
    assert gate_b.json_max_rel_diff(*data) == pytest.approx(1e-15, rel=0.01)
    for change in ({"dir": "<OUT>/b"}, {"extra": 1}, {"sr": True}):
        other = json.loads(json.dumps(record))
        other["entries"][0].update(change)
        assert gate_b.json_max_rel_diff(data[0], json.dumps(other).encode()) is None, change
    assert gate_b.json_max_rel_diff(data[0], b"not json") is None
