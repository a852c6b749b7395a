"""The benchmark's own test: every workload at a tiny size prints every
metric of BENCHMARK.json with its unit and no failure, the known defects
are probed apart from the result, a wrong answer injected through a stub
here is counted as a failure, and without mexp's sources the benchmark
exits non-zero without a result.

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_tiny(capsys, workload: str, trace: int):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "tiny"]
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_every_metric_is_printed_with_its_unit(capsys, workload, trace):
    record, result = run_tiny(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1 and result["failed"] == record["failed"]
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float) and printed["value"] >= 0
    if not trace:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    assert result["correct"] and record["failures"] == {}, record["failures"]


def test_known_defects_are_probed_apart_from_the_result(capsys):
    record, result = run_tiny(capsys, "enum-exact", 0)
    probe = record["known_defects"]
    # 15 int64-width graphs and the four conductance-bigint-n16 variants,
    # which raise OverflowError at the time of writing
    assert probe["attempted"] == 19 and probe["wrong"] >= 4
    assert result["correct"] and result["attempted"] == record["passes"] * record["ops_per_pass"]


@pytest.mark.parametrize("trace", [0, 1])
def test_an_injected_wrong_answer_is_counted(capsys, monkeypatch, trace):
    mexp, _ = run.load_program()
    real = mexp.optimal_lp_constant

    def off_by_one_percent(*args, **kwargs):
        est = real(*args, **kwargs)
        return dataclasses.replace(est, estimate=est.estimate * 1.01)

    monkeypatch.setattr(mexp, "optimal_lp_constant", off_by_one_percent)
    record, result = run_tiny(capsys, "lp-optimizer", trace)
    assert result["correct"] is False
    assert result["failed"] == record["passes"] * record["ops_per_pass"]
    assert record["fail_ratio"] > 0.5
    if trace:
        assert result["metrics"]["fail_ratio"]["value"] == record["fail_ratio"]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "enum-exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
