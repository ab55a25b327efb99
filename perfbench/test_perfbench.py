"""Self-test of the benchmark at tiny sizes (about 10 s on 2 cores).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

sys.path.insert(0, run.SRC)

import workloads  # noqa: E402
from tdi import store  # noqa: E402

TINY = {
    "simulate": lambda: workloads.Simulate(img=16, bins=400, n_silhouettes=1,
                                           depth_steps=2, lateral_steps=3),
    "learn": lambda: workloads.Learn(img=16, bins=400, n_silhouettes=1, depth_steps=3,
                                     lateral_steps=4, n_test=8, epochs=5, batch_size=8,
                                     predict_calls=20),
    "sweep": lambda: workloads.Sweep(img=16, bins=400, n_silhouettes=1, depth_steps=3,
                                     lateral_steps=4, n_test=8, batch_size=8),
}


@pytest.fixture(autouse=True)
def out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", str(tmp_path))
    return tmp_path


def tiny_result(name: str, trace: bool, seed: int = 3) -> dict:
    workload = TINY[name]()
    record = run.measure(workload, seed=seed, seconds=0, trace=trace)
    args = argparse.Namespace(seed=seed, seconds=0, trace=int(trace))
    return run.report(run.load_spec(), workload, args, record)


def test_workload_names_match_spec():
    assert [w["name"] for w in run.load_spec()["workloads"]] == list(workloads.WORKLOADS)
    assert set(TINY) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", sorted(TINY))
def test_end_to_end_metrics_named_with_units(name, capsys):
    spec = run.load_spec()
    result = tiny_result(name, trace=False)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = capsys.readouterr().out
    for key in [*expected, *TINY[name]().stages, "fail_rate"]:
        assert f"metric {key} " in printed


def test_traced_runs_cover_every_per_layer_metric():
    spec = run.load_spec()
    names = [m["name"] for m in spec["per_layer"]]
    nonzero = set()
    for name in sorted(TINY):
        result = tiny_result(name, trace=True)
        assert result["correct"]
        assert list(result["metrics"]) == names
        nonzero |= {k for k, v in result["metrics"].items() if v["value"] != 0}
    # Every per-layer metric is exercised by some workload (overhead may be 0.0 by chance).
    assert set(names) - nonzero <= {"trace.overhead_s"}


def test_mean_ssim_repeats_for_a_seed():
    first = tiny_result("learn", trace=True)["metrics"]["mean_ssim"]["value"]
    second = tiny_result("learn", trace=True)["metrics"]["mean_ssim"]["value"]
    assert first == second > 0


def test_flipped_dataset_byte_raises_fail_rate(monkeypatch, capsys):
    original = store.write_dataset

    def write_then_flip(path, dataset):
        original(path, dataset)
        with open(path, "r+b") as fh:
            fh.seek(24)                   # first histogram value, low mantissa byte
            byte = fh.read(1)
            fh.seek(24)
            fh.write(bytes([byte[0] ^ 0x01]))

    monkeypatch.setattr(store, "write_dataset", write_then_flip)
    result = tiny_result("simulate", trace=False)
    assert not result["correct"] and result["failed"] >= 1
    assert "failed: dataset round trip" in capsys.readouterr().out


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "simulate",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
