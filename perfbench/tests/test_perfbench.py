"""The benchmark's own tests: tiny worlds, through the same driver.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from ledger import percentile, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str) -> tuple[dict, dict]:
    """Run the driver at tiny size; returns (result, manifest)."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--size", "tiny", "--seconds", "1", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    manifest = json.loads(lines[-2].removeprefix("manifest: "))
    return json.loads(lines[-1]), manifest


def declared(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, kind):
    result, _ = bench("--workload", workload, "--trace", str(trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    # Two operations of each kind the run reports on, even at --seconds 1.
    assert result["attempted"] >= run.MIN_OPS * (2 if trace else 1)
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == declared(kind)
    for m in result["metrics"].values():
        assert type(m["value"]) in (int, float) and math.isfinite(m["value"])


def test_wrong_reference_digest_fails_operations_without_crashing(
    tmp_path, monkeypatch, capsys
):
    workload = run.tiny(run.WORKLOADS["table1-10x"])
    key = workload.world.key(run.WORLD_SEED, workload.default_seed)
    wrong = tmp_path / "references.json"
    wrong.write_text(json.dumps({key: "0" * 64}))
    monkeypatch.setattr(run, "REFERENCES", wrong)
    code = run.main(["--workload", "table1-10x", "--size", "tiny", "--seconds", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    manifest = json.loads(lines[-2].removeprefix("manifest: "))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert set(result["metrics"]) == set(declared("end_to_end"))
    assert manifest["reference"] == {"digest": "0" * 64, "source": "pinned"}


def test_non_default_seed_changes_inputs_not_metrics():
    default, m_default = bench("--workload", "stream-6h", "--trace", "1")
    other, m_other = bench("--workload", "stream-6h", "--trace", "1", "--seed", "11")
    assert m_other["seeds"]["measurement"] == 11 != m_default["seeds"]["measurement"]
    assert m_other["reference"]["digest"] != m_default["reference"]["digest"]
    assert other["correct"] and default["correct"]
    assert set(other["metrics"]) == set(default["metrics"]) == set(declared("per_layer"))
    rows = "mplatform.rows"
    assert other["metrics"][rows]["value"] != default["metrics"][rows]["value"]


def test_driver_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_self_time_subtracts_child_spans():
    spans = [
        {"name": "op", "start": 0.0, "end": 10.0, "parent": None},
        {"name": "a", "start": 1.0, "end": 4.0, "parent": 0},
        {"name": "b", "start": 3.0, "end": 6.0, "parent": 0},
        {"name": "c", "start": 2.0, "end": 3.0, "parent": 1},
    ]
    times = self_times(spans)
    assert times == {"op": 5.0, "a": 2.0, "b": 3.0, "c": 1.0}


def test_p95_leaves_twelve_of_240_samples_beyond_it():
    values = list(range(240))
    p95 = percentile(values, 95)
    assert sum(v > p95 for v in values) == 12
