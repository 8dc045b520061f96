"""Smoke tests for the benchmark harness at tiny sizes.

Each workload must print every metric BENCHMARK.json names, with its unit,
in both modes, and a deliberately wrong reference must show up as failed
operations.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import run

WORKLOADS = run.WORKLOAD_NAMES
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(capsys, work, *args) -> tuple[dict, str]:
    assert run.main(["--tiny", "--seconds", "0.5", "--seed", "3", *args], work=work) == 0
    out = capsys.readouterr().out
    return json.loads(out.strip().splitlines()[-1]), out


@pytest.fixture(scope="module")
def refs():
    """Tiny-size references, recorded once per workload."""
    return {}


@pytest.fixture
def ref(refs, workload, tmp_path, capsys):
    if workload not in refs:
        path = tmp_path / "reference.json"
        bench(capsys, tmp_path, "--workload", workload, "--ref", str(path), "--record-ref")
        refs[workload] = json.loads(path.read_text())
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(refs[workload]))
    return path


def expected(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_end_to_end_metrics(workload, ref, tmp_path, capsys):
    result, text = bench(capsys, tmp_path, "--workload", workload, "--ref", str(ref))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert "failed_ops_frac" in text


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload, ref, tmp_path, capsys):
    result, text = bench(capsys, tmp_path, "--workload", workload, "--ref", str(ref), "--trace", "1")
    assert result["correct"] and result["failed"] == 0
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected("per_layer")
    assert result["metrics"]["trace.overhead_s"]["value"] != 0
    assert any(line.split()[1:] == ["calls", "total_s", "self_s"] for line in text.splitlines())
    assert list((tmp_path / "trace").glob(f"spans-{workload}-*.npz"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_wrong_reference_counts_as_failed(workload, ref, tmp_path, capsys):
    doc = json.loads(ref.read_text())
    entry = doc[workload]
    for key, values in entry.items():
        if key == "config":
            continue
        if isinstance(values, list):  # the loss curve
            entry[key] = [x + 1.0 for x in values]
            continue
        for k, v in values.items():  # corrupt every stored output
            values[k] = [x + 1.0 for x in v] if isinstance(v, list) else (
                {m: "0" * 16 for m in v} if isinstance(v, dict) else "0" * 64)
    ref.write_text(json.dumps(doc))
    result, _ = bench(capsys, tmp_path, "--workload", workload, "--ref", str(ref))
    assert not result["correct"]
    assert result["failed"] > 0


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "gen-corpus", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
