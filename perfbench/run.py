"""The repository benchmark: one workload, one fresh process, one result.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fleet --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` measures the per-layer breakdown: each round runs the
workload untraced, then once more in-process with every layer's entry
points wrapped in spans (see ``layer_trace.py``).

Either way the workload repeats in rounds on the same seeded inputs
until ``--seconds`` have passed, times are medians over rounds, and
every round's outputs are checked.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed; usage errors exit 2
with a one-line message.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

import host_speed
import layer_trace

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {"sim_s_per_wall_s_at_ref": "s/s", "peak_rss_mb": "MB",
              "setup_s": "s"}
#: Printed with the end-to-end metrics but not gated: the throughput and
#: set-up time before rescaling, and the rounds' rescaling factor.
UNGATED = {"sim_s_per_wall_s": "s/s", "setup_s_raw": "s",
           "host_slowdown": "ratio"}
#: Per-layer metrics (``--trace 1``): name -> unit.
PER_LAYER = {
    "workloads.draw.self_s": "s",
    "net.trace.synth.self_s": "s",
    "net.trace.synth.samples": "count",
    "net.trace.horizon_used_ratio": "ratio",
    "net.sim.run.self_s": "s",
    "net.integrate_window.calls": "count",
    "obs.bus.published": "count",
    "core.scheduler.self_s": "s",
    "core.scheduler.calls": "count",
    "core.adapter.self_s": "s",
    "core.deadline_misses": "count",
    "estimators.self_s": "s",
    "dash.player.self_s": "s",
    "abr.choose_level.calls": "count",
    "abr.choose_level.self_s": "s",
    "energy.session_energy.calls_per_session": "ratio",
    "energy.self_s": "s",
    "analysis.metrics.self_s": "s",
    "obs.fold.self_s": "s",
    "obs.merge.self_s": "s",
    "obs.recorder.self_s": "s",
    "obs.check.self_s": "s",
    "obs.why.self_s": "s",
    "obs.recorder.captured": "count",
    "obs.artifact_bytes": "bytes",
    "experiments.runner.self_s": "s",
    "experiments.shard.busy_s": "s",
    "experiments.worker_busy_ratio": "ratio",
    "bench.traced_wall_s": "s",
    "bench.trace_coverage": "ratio",
    "bench.trace_overhead_ratio": "ratio",
}

#: Fresh-interpreter set-ups timed per run (``setup_s`` is their median).
SETUP_PROBES = 10
#: Kernel slices before the first probe and after each one.
SETUP_SLICES = 3
#: Fewest measured rounds per run, whatever ``--seconds`` says.  Traced
#: runs need two to check that per-layer counts repeat exactly.
MIN_ROUNDS = {0: 3, 1: 2}
PROBE_TIMEOUT_S = 60


class UsageError(Exception):
    """A bad command line: reported in one line, exit code 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def parse_args(argv, workload_names):
    parser = _Parser(prog="perfbench/run.py", add_help=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    args = parser.parse_args(argv)
    if args.workload not in workload_names:
        raise UsageError(f"unknown workload {args.workload!r} (known: "
                         f"{', '.join(sorted(workload_names))})")
    args.seed = _int_arg("--seed", args.seed, 0, 2**32 - 1)
    args.seconds = _int_arg("--seconds", args.seconds, 1, 3600)
    args.trace = _int_arg("--trace", args.trace, 0, 1)
    return args


def _int_arg(flag, text, low, high):
    try:
        value = int(text)
    except ValueError:
        raise UsageError(f"{flag} must be an integer, got {text!r}") from None
    if not low <= value <= high:
        raise UsageError(f"{flag} must be in [{low}, {high}], got {value}")
    return value


# ----------------------------------------------------------------------
# Measurement
# ----------------------------------------------------------------------
def own_peak_rss_kb() -> int:
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def time_setups(workload: str, seed: int, count: int):
    """Median seconds from interpreter start to inputs built, over
    ``count`` fresh processes, rescaled to the reference host speed by
    kernel slices taken between the probes.

    Returns ``(at_ref, raw)``."""
    raw = []
    probe = os.path.join(HERE, "setup_probe.py")
    speed = host_speed.HostSpeed(slices=SETUP_SLICES)
    speed.checkpoint()
    for _ in range(count):
        began = perf_counter()
        with subprocess.Popen([sys.executable, probe, workload, str(seed)],
                              stdout=subprocess.PIPE, cwd=ROOT) as child:
            line = child.stdout.readline()
            elapsed = perf_counter() - began
            child.stdout.read()
            code = child.wait(timeout=PROBE_TIMEOUT_S)
        if code != 0 or line.strip() != b"ready":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        speed.checkpoint()
        raw.append(elapsed)
    median = statistics.median(raw)
    return median / speed.slowdown(), median


class Rounds:
    """Repeat a measurement until the time budget is spent."""

    def __init__(self, deadline: float, minimum: int):
        self.deadline = deadline
        self.minimum = minimum
        self.taken = []

    def __iter__(self):
        while True:
            began = perf_counter()
            yield len(self.taken)
            self.taken.append(perf_counter() - began)
            typical = statistics.median(self.taken)
            if (len(self.taken) >= self.minimum
                    and perf_counter() + typical > self.deadline):
                return


def measure_end_to_end(workload, inputs, work_dir, rounds, checks):
    """Untraced rounds, each rescaled by the host speed measured during
    it, from the slices the round's own event bus paused for."""
    results, raw, at_ref = [], [], []
    speed = host_speed.HostSpeed()
    for _ in rounds:
        first = len(speed.samples)
        result = workload.run(inputs, work_dir, workload.jobs,
                              pause=speed.checkpoint)
        results.append(result)
        raw.append(result.sim_s / result.wall_s)
        at_ref.append(raw[-1] * speed.slowdown(first))
    checks.rounds(results)
    worker_kb = max(r.worker_peak_rss_kb for r in results)
    return results, {
        "sim_s_per_wall_s_at_ref": statistics.median(at_ref),
        "peak_rss_mb": max(own_peak_rss_kb(), worker_kb) / 1024.0,
        "sim_s_per_wall_s": statistics.median(raw),
        "host_slowdown": speed.slowdown(),
    }


def traced_round(workload, inputs, work_dir):
    """One in-process round with every layer wrapped; returns the round
    and its :class:`~layer_trace.Tracer`."""
    tracer = layer_trace.Tracer()
    layer_trace.install(tracer)
    try:
        result = workload.run(inputs, work_dir, 1, tracer)
    finally:
        tracer.uninstall()
    return result, tracer


def measure_per_layer(workload, inputs, work_dir, rounds, checks):
    untraced, baseline, traced, tracers = [], [], [], []
    for _ in rounds:
        plain = workload.run(inputs, work_dir, workload.jobs)
        untraced.append(plain)
        # Tracing runs in-process; its overhead is judged against an
        # untraced run of the same shape.
        baseline.append(plain if workload.jobs == 1
                        else workload.run(inputs, work_dir, 1))
        result, tracer = traced_round(workload, inputs, work_dir)
        traced.append(result)
        tracers.append(tracer)
    runs = untraced + [b for b, u in zip(baseline, untraced) if b is not u]
    runs += traced
    checks.rounds(runs)
    layer_rows = [layer_row(t, r) for t, r in zip(tracers, traced)]
    checks.same_counts(layer_rows)

    def median(key, rows=layer_rows):
        return statistics.median(row[key] for row in rows)

    # Counts are exact (checked equal across rounds); times are medians.
    metrics = {name: (layer_rows[0][name] if name in COUNT_METRICS
                      else median(name)) for name in layer_rows[0]}
    metrics["experiments.shard.busy_s"] = statistics.median(
        r.shard_busy_s for r in untraced)
    metrics["experiments.worker_busy_ratio"] = statistics.median(
        r.shard_busy_s / (r.jobs * r.wall_s) for r in untraced)
    metrics["bench.trace_overhead_ratio"] = statistics.median(
        t.wall_s / b.wall_s for t, b in zip(traced, baseline))
    return runs, metrics


#: Per-layer metrics that are exact counts: every traced round of one
#: run must give the same value.
COUNT_METRICS = tuple(name for name, unit in PER_LAYER.items()
                      if unit in ("count", "bytes")) + (
    "net.trace.horizon_used_ratio",
    "energy.session_energy.calls_per_session")


def layer_row(tracer, traced_round):
    """One traced round's per-layer figures (the heartbeat-derived and
    overhead metrics are filled in by the caller)."""
    self_s = tracer.self_s
    counts = tracer.counts
    sessions = counts.get("sessions", 0)
    synth_s = counts.get("net.trace.synth.seconds", 0.0)
    row = {f"{key}.self_s": self_s.get(key, 0.0)
           for key in layer_trace.LAYERS}
    row.update({
        "net.trace.synth.samples": int(counts.get(
            "net.trace.synth.samples", 0)),
        "net.trace.horizon_used_ratio": (
            counts.get("net.trace.used_seconds", 0.0) / synth_s
            if synth_s else 0.0),
        "net.integrate_window.calls": int(counts.get(
            "net.integrate_window.calls", 0)),
        "obs.bus.published": int(counts.get("obs.bus.published", 0)),
        "core.scheduler.calls": tracer.calls.get("core.scheduler", 0),
        "core.deadline_misses": int(counts.get("core.deadline_misses", 0)),
        "abr.choose_level.calls": tracer.calls.get("abr.choose_level", 0),
        "energy.session_energy.calls_per_session": (
            counts.get("energy.session_energy.calls", 0) / sessions
            if sessions else 0.0),
        "obs.recorder.captured": traced_round.captured,
        "obs.artifact_bytes": traced_round.artifact_bytes,
        "bench.traced_wall_s": traced_round.wall_s,
        "bench.trace_coverage": (layer_trace.self_time_total(tracer)
                                 / traced_round.wall_s),
    })
    return row


# ----------------------------------------------------------------------
# Output checks
# ----------------------------------------------------------------------
class Checks:
    """Collects failed output checks as one-line messages."""

    def __init__(self, workload: str, seed: int, recorded: dict):
        self.workload = workload
        self.seed = seed
        self.expected = recorded.get("digests", {}).get(
            workload, {}).get(str(seed))
        self.failures = []

    def rounds(self, results):
        for result in results:
            self.failures.extend(result.problems)
            if result.failed:
                self.failures.append(f"{result.failed} of "
                                     f"{result.attempted} sessions failed "
                                     f"or did not finish")
        digests = sorted({result.digest for result in results})
        if len(digests) > 1:
            self.failures.append(
                f"simulated statistics differ between rounds "
                f"(jobs={sorted({r.jobs for r in results})}, traced and "
                f"untraced): {len(digests)} distinct digests")
        elif self.expected is None:
            print(f"note: no recorded digest for {self.workload} seed "
                  f"{self.seed}; checked round-to-round identity only",
                  file=sys.stderr)
        elif digests[0] != self.expected:
            self.failures.append(
                f"simulated-statistics digest {digests[0][:16]} != recorded "
                f"{self.expected[:16]} for {self.workload} seed {self.seed}")

    def same_counts(self, rows):
        for name in COUNT_METRICS:
            values = {row[name] for row in rows}
            if len(values) > 1:
                self.failures.append(f"per-layer count {name} differs "
                                     f"between traced rounds: "
                                     f"{sorted(values)}")


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    began = perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    try:
        from bench_workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program: {exc}",
              file=sys.stderr)
        return 2
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv, WORKLOADS)
    except UsageError as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 2
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            recorded = json.load(handle)
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read {os.path.relpath(DIGESTS, ROOT)}: "
              f"{exc}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    inputs = workload.build(args.seed)
    work_dir = os.path.join(ROOT, ".perfbench-work", str(os.getpid()))
    os.makedirs(work_dir, exist_ok=True)
    checks = Checks(args.workload, args.seed, recorded)
    try:
        rounds = Rounds(began + args.seconds, MIN_ROUNDS[args.trace])
        if args.trace:
            results, metrics = measure_per_layer(workload, inputs, work_dir,
                                                 rounds, checks)
            units = PER_LAYER
        else:
            setup = time_setups(args.workload, args.seed, SETUP_PROBES)
            results, metrics = measure_end_to_end(workload, inputs,
                                                  work_dir, rounds, checks)
            metrics["setup_s"], metrics["setup_s_raw"] = setup
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass  # another run still uses it

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {len(rounds.taken)}  trace {args.trace}")
    shown = dict(units, **(UNGATED if units is END_TO_END else {}))
    for name, unit in shown.items():
        print(f"  {name:<42} {metrics[name]:>14.6g} {unit}")
    print(f"  {'failed_ratio':<42} {failed / attempted:>14.6g} ratio")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not checks.failures, "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if not checks.failures else 1


if __name__ == "__main__":
    sys.exit(main())
