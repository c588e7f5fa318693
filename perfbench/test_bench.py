"""Smoke test of the benchmark itself, at reduced size.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import bench  # noqa: E402
from treespec import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_unit(workload, tmp_path):
    for trace, kind in ((False, "end_to_end"), (True, "per_layer")):
        result = bench.measure(workload, 7, 0, trace, size="smoke", out_dir=tmp_path)
        line = bench.result_line(result)
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 2
        assert {k: v["unit"] for k, v in line["metrics"].items()} == _units(kind)
        assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
        assert result["end_to_end"]["op_s"] > 0 and result["end_to_end"]["setup_s"] > 0
        throughput = "records_per_s" if workload == "reanalyze" else "steps_per_s"
        assert list(result["throughput"]) == [throughput] and result["throughput"][throughput] > 0
        assert f"\n{throughput} " in bench.report(result)
        assert set(result["environment"]) >= {"python", "numpy", "nproc", "git_commit",
                                              "src_treespec_lines"}
        assert set(result["descriptors"]) >= {"domains", "runner.step_window_new_ratio",
                                              "model.window_unique_ratio"}
    layers = result["per_layer"]
    parts = sum(layers[k] for k in ("tree.self_s", "verify.self_s", "model.self_s",
                                    "runner.step.self_s"))
    assert parts == pytest.approx(layers["runner.step_s"], rel=1e-9, abs=1e-12)
    if workload == "reanalyze":
        assert all(v == 0 for k, v in layers.items() if k.split(".")[0] in ("model", "tree", "verify"))
        assert layers["runner.csv_bytes_read"] > 0
    else:
        assert layers["runner.step.calls"] > 0 and layers["model.contexts_scored"] > 0


def test_corrupted_output_counts_as_failed(tmp_path, monkeypatch):
    real_main = cli.main
    calls = []

    def main_flipping_a_byte(argv):
        code = real_main(argv)
        calls.append(argv)
        if len(calls) == 2:  # the first op after the warm-up
            path = Path(argv[argv.index("--out") + 1]) / "records.csv"
            data = bytearray(path.read_bytes())
            data[len(data) // 2] ^= 1
            path.write_bytes(bytes(data))
        return code

    monkeypatch.setattr(cli, "main", main_flipping_a_byte)
    result = bench.measure("reference", 7, 0, False, size="smoke", out_dir=tmp_path)
    assert result["failed"] == 1
    assert result["failed_ops"] == pytest.approx(1 / result["attempted"])
    assert not bench.result_line(result)["correct"]


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0],
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
