"""Self-test of the benchmark at a tiny size.

    python3 -m pytest perfbench -q

Checks that every workload runs and verifies in both modes, that every
metric BENCHMARK.json names is printed with its unit, that the seed
changes the data but not the metric set, and that a corrupted or failed
read is counted as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import workloads  # noqa: E402
from repro.backends.faulty import FaultyBackend  # noqa: E402

SPEC = json.loads(run.SPEC.read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    """A 256x256 array, one setup per run."""
    monkeypatch.setattr(workloads, "N", 256)
    monkeypatch.setattr(workloads, "STRIP", 256 // workloads.RANKS)
    monkeypatch.setattr(workloads, "HOT", 128)
    monkeypatch.setattr(run, "SETUP_MIN_REPS", 1)


def _assert_contract(line: dict, trace: bool) -> None:
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == want
    for value in line["metrics"].values():
        assert isinstance(value["value"], float)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", NAMES)
def test_every_workload_runs_and_verifies(tiny, name, trace):
    cpus = os.sched_getaffinity(0)
    result = run.run_workload(name, seed=3, seconds=0.0, trace=trace)
    assert os.sched_getaffinity(0) == cpus  # a one-CPU run gives the others back
    assert result["failures"] == []
    assert result["failed"] == 0 and result["attempted"] > 0
    line = run.contract_line(result, SPEC, trace)
    assert line["correct"]
    _assert_contract(line, trace)
    if trace:
        assert abs(result["per_layer"]["trace.self_ratio"] - 1.0) <= 0.10
    else:
        assert all(v["value"] > 0 for v in line["metrics"].values())


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_every_metric_with_its_unit(trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "rmw-cached",
         "--seed", "5", "--seconds", "0", "--trace", trace],
        stdout=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    line = json.loads(lines[-1])
    assert line["correct"] and line["failed"] == 0
    _assert_contract(line, trace == "1")
    table = "\n".join(lines[:-1])
    for metric in line["metrics"]:
        assert metric in table


def _model_after_one_block(name: str, seed: int, tmp_path: Path):
    work = workloads.make(name, seed, tmp_path / f"{name}-{seed}")
    work.setup()
    try:
        work.block(workloads.OpLog(), 0)
        return np.array(work.model["multidim"] if name == "strips-mem" else work.model)
    finally:
        work.teardown()


@pytest.mark.parametrize("name", ["strips-mem", "rmw-cached"])
def test_seed_changes_data_not_metric_set(tiny, tmp_path, name):
    a = _model_after_one_block(name, 1, tmp_path)
    assert np.array_equal(a, _model_after_one_block(name, 1, tmp_path / "again"))
    assert not np.array_equal(a, _model_after_one_block(name, 2, tmp_path))
    one = run.run_workload(name, seed=1, seconds=0.0, trace=False)
    two = run.run_workload(name, seed=2, seconds=0.0, trace=False)
    assert set(one["metrics"]) == set(two["metrics"])


def test_namespace_seed_changes_ops(tiny, tmp_path):
    runs = iter(range(100))

    def names(seed):
        work = workloads.make("namespace", seed, tmp_path / f"ns-{next(runs)}")
        work.setup()
        try:
            work.block(workloads.OpLog(), 0)
            return dict(work.files)
        finally:
            work.teardown()

    assert names(1) == names(1)
    assert names(1) != names(2)


class CorruptingBackend(FaultyBackend):
    """Flips one byte of every read payload after the first ``clean`` reads."""

    def __init__(self, inner, clean: int = 0) -> None:
        super().__init__(inner)
        self.clean = clean

    def read_extents(self, server, name, extents):
        data = super().read_extents(server, name, extents)
        if self.clean > 0:
            self.clean -= 1
            return data
        if not data:
            return data
        return bytes([data[0] ^ 0xFF]) + bytes(data[1:])


def test_corrupted_read_counts_as_failure(tiny):
    result = run.run_workload(
        "strips-mem", seed=1, seconds=0.0, trace=False, wrap_backend=CorruptingBackend
    )
    assert result["failed"] > 0
    assert any("wrong bytes" in f for f in result["failures"])
    assert not run.contract_line(result, SPEC, False)["correct"]


def test_injected_read_fault_counts_as_failure(tiny):
    def faulty(backend):
        wrapped = FaultyBackend(backend)
        wrapped.fail_on("read", server=0)
        return wrapped

    # strips-mem files have one copy, so no replica can absorb the fault;
    # a failed CRC read-back inside a write is absorbed by the program,
    # so every read of server 0 fails and the read ops must notice
    result = run.run_workload("strips-mem", seed=1, seconds=0.0, trace=False, wrap_backend=faulty)
    assert result["failed"] >= 1
    assert any("InjectedFault" in f for f in result["failures"])
    assert result["metrics"]["failed_op_frac"] > 0


def test_rates_see_a_slowdown_of_a_minority_of_ops():
    fast = [["read", "multidim", run.MiB, 0.01, True, False, 0]] * 80
    slow = [["read", "multidim", run.MiB, 0.05, True, False, 0]] * 20
    metrics, samples = run.e2e_metrics(fast + slow)
    # the slowest 5 of the 100 ops are left out; the other 15 slow ones count
    assert metrics["read_MiBps"] == pytest.approx(95 / (80 * 0.01 + 15 * 0.05))
    assert samples["read_MiBps"] == 100


def test_each_block_is_scaled_by_its_own_probe():
    records = [["write", "linear", run.MiB, 0.02, True, False, 0],
               ["write", "linear", run.MiB, 0.04, True, False, 1]]
    scaled = run.at_reference_speed(records, {0: 1.0, 1: 0.5})
    assert [r[3] for r in scaled] == [0.02, 0.02]
    assert [r[3] for r in records] == [0.02, 0.04]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "strips-mem",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
