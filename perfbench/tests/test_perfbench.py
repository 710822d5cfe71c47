"""Self-tests of the benchmark (not part of the repository's tier-1 run).

Run from the repository root::

    python3 -m pytest perfbench/tests -q

They use shrunken inputs so the whole file runs in seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_workloads  # noqa: E402
import layer_trace  # noqa: E402
import run  # noqa: E402
from repro.experiments.fleet import FleetConfig  # noqa: E402


def small_inputs(name):
    """A few sessions of each workload's input family."""
    if name == "controlled":
        configs = bench_workloads.controlled_inputs(5)["configs"]
        return {"configs": configs[::15][:2] + configs[1:3]}
    if name == "fleet_observed":
        return {"config": FleetConfig(sessions=6, seed=5, fault_session=2)}
    return {"config": FleetConfig(sessions=6, seed=5, shard_size=3)}


@pytest.fixture
def work_dir(tmp_path):
    return str(tmp_path)


def traced_rows(name, work_dir, times=2):
    workload = bench_workloads.WORKLOADS[name]
    inputs = small_inputs(name)
    out = []
    for _ in range(times):
        result, tracer = run.traced_round(workload, inputs, work_dir)
        out.append((result, tracer, run.layer_row(tracer, result)))
    return out


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_two_traced_runs_give_identical_counts(name, work_dir):
    (first, _, row_a), (second, _, row_b) = traced_rows(name, work_dir)
    counts = {key: row_a[key] for key in run.COUNT_METRICS}
    assert counts == {key: row_b[key] for key in run.COUNT_METRICS}
    assert first.digest == second.digest
    assert row_a["obs.bus.published"] > 0
    assert row_a["net.integrate_window.calls"] > 0


@pytest.mark.parametrize("name", sorted(bench_workloads.WORKLOADS))
def test_self_times_never_sum_past_traced_wall(name, work_dir):
    for result, tracer, row in traced_rows(name, work_dir, times=1):
        total = layer_trace.self_time_total(tracer, include_root=True)
        assert 0 < total <= result.wall_s
        assert all(value >= 0 for value in tracer.self_s.values())
        assert 0 < row["bench.trace_coverage"] <= 1


def test_tracing_changes_no_outcome_and_is_removed(work_dir):
    from repro.experiments import runner
    from repro.net.simulator import Simulator
    from repro.net.trace import BandwidthTrace

    before = (runner.run_session, Simulator.__dict__["run"],
              BandwidthTrace.__dict__["random_walk"])
    workload = bench_workloads.WORKLOADS["fleet"]
    inputs = small_inputs("fleet")
    plain = workload.run(inputs, work_dir, 2)
    traced, _ = run.traced_round(workload, inputs, work_dir)
    assert traced.digest == plain.digest  # also jobs=1 vs jobs=2
    assert before == (runner.run_session, Simulator.__dict__["run"],
                      BandwidthTrace.__dict__["random_walk"])


def test_controlled_bypasses_synthesis_and_recorder(work_dir):
    (_, tracer, row), = traced_rows("controlled", work_dir, times=1)
    assert row["net.trace.synth.samples"] == 0
    assert row["obs.recorder.self_s"] == 0
    assert row["obs.check.self_s"] == 0
    assert row["abr.choose_level.calls"] > 0
    assert row["core.scheduler.calls"] > 0


def test_fleet_observed_captures_the_seeded_fault(work_dir):
    workload = bench_workloads.WORKLOADS["fleet_observed"]
    result = workload.run(small_inputs("fleet_observed"), work_dir, 1)
    assert result.problems == []
    assert result.captured >= 1 and result.artifact_bytes > 0


def test_seeded_inputs_repeat():
    for name, workload in bench_workloads.WORKLOADS.items():
        assert repr(workload.build(11)) == repr(workload.build(11)), name
    assert (bench_workloads.operating_points(1)
            != bench_workloads.operating_points(2))


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] \
        == list(bench_workloads.WORKLOADS)


def cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("args", [
    ("--workload", "nope", "--seed", "1", "--seconds", "1"),
    ("--workload", "fleet", "--seed", "x1", "--seconds", "1"),
    ("--workload", "fleet", "--seed", "-3", "--seconds", "1"),
    ("--workload", "fleet", "--seconds", "1"),
])
def test_bad_arguments_exit_nonzero_with_one_line(args):
    done = cli(*args)
    assert done.returncode == 2
    assert done.stdout == ""
    assert len(done.stderr.strip().splitlines()) == 1
    assert done.stderr.startswith("perfbench: error:")


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = cli("--workload", "fleet", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout
