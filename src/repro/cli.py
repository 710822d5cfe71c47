"""Command-line interface: run sessions and inspect them from a shell.

The paper's analysis tool is a standalone binary; this module is its
equivalent entry point, plus runners for the common experiments::

    python -m repro stream --abr festive --mpdash --wifi 3.8 --lte 3.0
    python -m repro compare --abr bba-c --wifi 2.2 --lte 1.2
    python -m repro sweep --grid wifi_mbps=2.2,3.8 --schemes baseline,rate \
        --jobs 4 --cache-dir .sweep-cache
    python -m repro download --size-mb 5 --deadline 10
    python -m repro trace --out run.jsonl --mpdash
    python -m repro trace --load run.jsonl --diff other.jsonl
    python -m repro stats --mpdash --json
    python -m repro spans --mpdash --chrome spans.json
    python -m repro profile --duration 60
    python -m repro check --mpdash --json
    python -m repro check --load run.jsonl
    python -m repro bench --label ci --compare BENCH_main.json
    python -m repro report --mpdash --out report.html
    python -m repro report --load run.jsonl --out report.html
    python -m repro sweep --schemes baseline,rate --live --report sweep.html
    python -m repro bench --load BENCH_ci.json --html bench.html
    python -m repro fleet --sessions 1000 --arrival diurnal --jobs 4 \
        --checkpoint-dir .fleet --report fleet.html
    python -m repro why --load run.jsonl
    python -m repro why --diff baseline.jsonl mpdash.jsonl
    python -m repro why --record-dir .fleet-records --top 5 --json
    python -m repro fleet --sessions 240 --ledger runs.jsonl
    python -m repro history trend --ledger runs.jsonl --html history.html
    python -m repro history --gate --ledger runs.jsonl
    python -m repro locations
    python -m repro videos

Output discipline: the machine-readable payload (``--json``, the
Prometheus exposition, the Chrome trace, the check/bench reports) goes
to stdout; human-oriented tables, progress lines, notes, and errors go
to stderr, so stdout can always be piped into a parser.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from .analysis.metrics import SessionMetrics
    from .experiments.configs import SessionConfig
    from .obs.trace_export import Trace


def build_parser() -> argparse.ArgumentParser:
    # Only the tables the options offer; each cmd_* imports what it
    # runs, so --version and --help load no subsystem beyond these.
    from . import __version__
    from .experiments.configs import BASELINE, DURATION, RATE
    from .workloads.arrivals import ARRIVAL_MODELS

    parser = argparse.ArgumentParser(
        prog="repro",
        description="MP-DASH reproduction: preference-aware multipath "
                    "video streaming")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    stream = commands.add_parser(
        "stream", help="run one streaming session and analyze it")
    _add_session_args(stream)
    stream.add_argument("--visualize", action="store_true",
                        help="print the Figure-8 chunk strip and "
                             "throughput patterns")
    _add_ledger_arg(stream, "session's headline record")

    compare = commands.add_parser(
        "compare", help="baseline vs MP-DASH (duration & rate deadlines)")
    _add_network_args(compare)
    _add_video_args(compare, duration_help=None)
    compare.add_argument("--jobs", type=int, default=1,
                         help="run the schemes on this many processes")
    compare.add_argument("--cache-dir", default=None,
                        help="reuse cached session results from this "
                             "directory")

    sweep = commands.add_parser(
        "sweep", help="run a config grid in parallel, with result caching")
    _add_network_args(sweep)
    _add_video_args(sweep)
    sweep.add_argument("--grid", action="append", default=[],
                       metavar="FIELD=V1,V2,...",
                       help="sweep one SessionConfig field over a value "
                            "list; repeatable, the grid is the cartesian "
                            "product (e.g. --grid wifi_mbps=2.2,3.8 "
                            "--grid alpha=0.8,1.0)")
    sweep.add_argument("--schemes", default=None, metavar="S1,S2,...",
                       help="shorthand for --grid scheme=... "
                            f"(choices: {', '.join((BASELINE, DURATION, RATE))})")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process)")
    sweep.add_argument("--cache-dir", default=None,
                       help="directory for on-disk result caching")
    sweep.add_argument("--timeout", type=float, default=None,
                       help="per-run wall-clock timeout, seconds")
    sweep.add_argument("--retries", type=int, default=0,
                       help="retries per failing run before recording a "
                            "failure")
    sweep.add_argument("--json", action="store_true",
                       help="machine-readable report instead of a table")
    sweep.add_argument("--live", action="store_true",
                       help="in-place terminal dashboard on stderr while "
                            "the sweep runs (auto-disabled when not a TTY)")
    sweep.add_argument("--report", metavar="FILE", default=None,
                       help="write the self-contained HTML sweep report "
                            "to FILE")
    sweep.add_argument("--bench", action="append", default=[],
                       metavar="BENCH.json",
                       help="BENCH_*.json report(s) to chart in the sweep "
                            "report's performance panel; repeatable, in "
                            "trajectory order")
    sweep.add_argument("--bench-baseline", metavar="BENCH.json",
                       default=None,
                       help="baseline BENCH_*.json the report compares "
                            "the latest --bench report against")
    _add_ledger_arg(sweep, "sweep's headline record")

    download = commands.add_parser(
        "download", help="one deadline-bounded file download")
    _add_network_args(download)
    download.add_argument("--size-mb", type=float, default=5.0)
    download.add_argument("--deadline", type=float, default=10.0)
    download.add_argument("--alpha", type=float, default=1.0)
    download.add_argument("--no-mpdash", action="store_true")

    trace = commands.add_parser(
        "trace", help="capture, replay, and diff JSONL session traces")
    _add_session_args(trace)
    trace.add_argument("--out", metavar="FILE",
                       help="export the captured trace as JSONL")
    trace.add_argument("--load", metavar="FILE",
                       help="analyze an existing trace offline instead of "
                            "running a session")
    trace.add_argument("--diff", metavar="FILE",
                       help="second trace to compare metrics against")
    trace.add_argument("--json", action="store_true",
                       help="machine-readable output instead of tables")

    stats = commands.add_parser(
        "stats", help="the standard metrics registry of one session "
                      "(Prometheus exposition or JSON)")
    _add_session_args(stats)
    stats.add_argument("--load", metavar="FILE",
                       help="rebuild the registry offline from a JSONL "
                            "trace instead of running a session")
    stats.add_argument("--json", action="store_true",
                       help="JSON dump instead of the Prometheus text "
                            "exposition")

    spans = commands.add_parser(
        "spans", help="the causal span tree of one session (chunk → "
                      "request → transfer → deadline)")
    _add_session_args(spans)
    spans.add_argument("--load", metavar="FILE",
                       help="rebuild spans offline from a JSONL trace "
                            "instead of running a session")
    spans.add_argument("--chrome", metavar="FILE",
                       help="also export Chrome trace-event JSON "
                            "(loadable in Perfetto)")
    spans.add_argument("--json", action="store_true",
                       help="span records as JSON instead of the tree view")
    spans.add_argument("--limit", type=int, default=None, metavar="N",
                       help="print at most N spans in the tree view")

    profile = commands.add_parser(
        "profile", help="wall-clock hot-path report of one session "
                        "(bus events, handlers, simulator callbacks)")
    _add_session_args(profile)
    profile.add_argument("--top", type=int, default=15, metavar="N",
                         help="rows per profile section")
    profile.add_argument("--json", action="store_true",
                         help="raw timings as JSON instead of the report")

    check = commands.add_parser(
        "check", help="judge one session (live or from a trace) against "
                      "the stock cross-layer invariants")
    _add_session_args(check)
    check.add_argument("--load", metavar="FILE",
                       help="check an exported JSONL trace offline "
                            "instead of running a session")
    check.add_argument("--max-miss-rate", type=float, default=0.25,
                       metavar="R",
                       help="deadline-miss-rate budget (fraction) for "
                            "the SLO checker")
    check.add_argument("--max-stall-ratio", type=float, default=0.10,
                       metavar="R",
                       help="stall-time-ratio budget (fraction) for the "
                            "SLO checker")
    check.add_argument("--json", action="store_true",
                       help="structured verdict report instead of the "
                            "summary")

    bench = commands.add_parser(
        "bench", help="run the pinned performance scenarios and compare "
                      "against a stored baseline")
    bench.add_argument("--scenarios", default=None, metavar="S1,S2,...",
                       help="subset of scenarios to run (default: all)")
    bench.add_argument("--repeat", type=int, default=1, metavar="N",
                       help="repetitions per scenario (best-of)")
    bench.add_argument("--label", default="local",
                       help="label stored in the report (default: local)")
    bench.add_argument("--out", default=None, metavar="FILE",
                       help="report path (default: BENCH_<label>.json; "
                            "'-' to skip writing)")
    bench.add_argument("--load", metavar="FILE",
                       help="reuse an existing report instead of "
                            "measuring (for compare-only runs)")
    bench.add_argument("--compare", metavar="BASELINE", default=None,
                       help="baseline BENCH_*.json to gate against; "
                            "exits nonzero on regression")
    bench.add_argument("--threshold", type=float, default=0.25,
                       metavar="T",
                       help="allowed fractional drift per metric before "
                            "a comparison counts as a regression")
    bench.add_argument("--json", action="store_true",
                       help="report as JSON instead of the table")
    bench.add_argument("--html", metavar="FILE", default=None,
                       help="also render the report (and the --compare "
                            "verdict, when given) as a self-contained "
                            "HTML page")
    _add_ledger_arg(bench, "measured report (ignored with --load)")

    report = commands.add_parser(
        "report", help="self-contained HTML session report (live run or "
                       "an exported JSONL trace)")
    _add_session_args(report)
    report.add_argument("--load", metavar="FILE",
                        help="render an exported JSONL trace offline "
                             "instead of running a session")
    report.add_argument("--out", metavar="FILE", default="report.html",
                        help="output path (default: report.html)")

    fleet = commands.add_parser(
        "fleet", help="simulate a fleet-scale session population in "
                      "bounded memory, with checkpoints")
    fleet.add_argument("--sessions", type=int, default=1000,
                       help="fleet size (sessions drawn from the "
                            "workload model)")
    fleet.add_argument("--arrival", default="poisson",
                       choices=list(ARRIVAL_MODELS),
                       help="session-arrival model")
    fleet.add_argument("--horizon", type=float, default=86400.0,
                       help="campaign window, seconds (arrivals land "
                            "inside it)")
    fleet.add_argument("--seed", type=int, default=0,
                       help="workload seed: same seed, byte-identical "
                            "population registry")
    _add_video_args(fleet, duration=60.0,
                    duration_help="video length per session, seconds")
    fleet.add_argument("--scheme", default=RATE,
                       choices=list((BASELINE, DURATION, RATE)),
                       help="evaluation scheme applied to every session")
    fleet.add_argument("--wifi-only-fraction", type=float, default=0.05,
                       metavar="F",
                       help="fraction of sessions without a cellular path")
    fleet.add_argument("--shard-size", type=int, default=50, metavar="N",
                       help="sessions per shard (memory/progress "
                            "granularity)")
    fleet.add_argument("--kernel", default="fast",
                       choices=("fast", "tick"),
                       help="simulation kernel for every session")
    fleet.add_argument("--jobs", type=int, default=1,
                       help="worker processes (1 = in-process)")
    fleet.add_argument("--retries", type=int, default=1,
                       help="retries per shard after a worker crash")
    fleet.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                       help="directory for atomic progress checkpoints")
    fleet.add_argument("--checkpoint-every", type=int, default=10,
                       metavar="N", help="checkpoint every N shards")
    fleet.add_argument("--resume", action="store_true",
                       help="resume from the checkpoint in "
                            "--checkpoint-dir")
    fleet.add_argument("--stop-after", type=int, default=None, metavar="N",
                       help="simulate at most N new shards this "
                            "invocation (deterministic partial run)")
    fleet.add_argument("--json", action="store_true",
                       help="machine-readable report (population + "
                            "registry) instead of the table")
    fleet.add_argument("--report", metavar="FILE", default=None,
                       help="write the self-contained HTML population "
                            "report to FILE")
    fleet.add_argument("--live", action="store_true",
                       help="live stderr dashboard (worker lanes, "
                            "recorder captures, ETA; TTY only)")
    fleet.add_argument("--record-dir", metavar="DIR", default=None,
                       help="arm the flight recorder: captured traces "
                            "and the triage manifest go under DIR")
    fleet.add_argument("--record-head-every", type=int, default=0,
                       metavar="N",
                       help="also keep every Nth session unconditionally "
                            "(0 = off)")
    fleet.add_argument("--record-miss-threshold", type=int, default=10,
                       metavar="N",
                       help="capture sessions with >= N deadline misses")
    fleet.add_argument("--record-stall-threshold", type=int, default=3,
                       metavar="N",
                       help="capture sessions with >= N stalls")
    fleet.add_argument("--record-bottom-k", type=int, default=1,
                       metavar="K",
                       help="capture each shard's K worst sessions "
                            "by QoE")
    fleet.add_argument("--fault-session", type=int, default=None,
                       metavar="I",
                       help="inject the seeded scheduler fault into "
                            "session index I (smoke/testing)")
    fleet.add_argument("--triage-top", type=int, default=0, metavar="K",
                       help="with --report: render mini session reports "
                            "for the K worst captured anomalies")
    _add_ledger_arg(fleet, "campaign's headline record")

    triage = commands.add_parser(
        "triage", help="rank and replay flight-recorder captures from "
                       "a fleet campaign")
    triage.add_argument("--record-dir", required=True, metavar="DIR",
                        help="recorder artifact root (or one campaign's "
                             "subdirectory)")
    triage.add_argument("--fleet-key", default=None, metavar="PREFIX",
                        help="campaign key prefix when DIR holds "
                             "several campaigns")
    triage.add_argument("--top", type=_positive_int, default=10,
                        metavar="K",
                        help="show the K worst anomalies (default 10)")
    triage.add_argument("--json", action="store_true",
                        help="machine-readable ranking + replay verdicts "
                             "on stdout")
    triage.add_argument("--html", metavar="FILE", default=None,
                        help="write the triage report (plus mini session "
                             "reports beside it) to FILE")

    why = commands.add_parser(
        "why", help="attribute every anomaly to a root cause: live "
                    "session, loaded trace, recorded captures, or a "
                    "two-trace diff")
    _add_session_args(why)
    why.add_argument("--load", metavar="FILE", default=None,
                     help="attribute an exported trace (.jsonl or "
                          ".jsonl.gz) instead of running a session")
    why.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None,
                     help="differential attribution: align two traces "
                          "of the same manifest chunk-by-chunk and rank "
                          "what changed")
    why.add_argument("--record-dir", metavar="DIR", default=None,
                     help="attribute a campaign's flight-recorder "
                          "captures under this artifact root")
    why.add_argument("--fleet-key", default=None, metavar="PREFIX",
                     help="campaign key prefix when DIR holds several "
                          "campaigns")
    why.add_argument("--top", type=_positive_int, default=10,
                     metavar="K",
                     help="explain at most the K worst entries "
                          "(default 10)")
    why.add_argument("--json", action="store_true",
                     help="machine-readable verdicts on stdout")

    history = commands.add_parser(
        "history", help="longitudinal trends and drift gating over a "
                        "run-ledger JSONL file")
    history.add_argument("action", nargs="?", default="list",
                         choices=("list", "show", "trend", "diff",
                                  "gate"),
                         help="list entries, show/diff entries by id "
                              "prefix, render trends, or gate on drift "
                              "(default: list)")
    history.add_argument("ids", nargs="*", metavar="ENTRY",
                         help="entry-id prefix(es): one for show, two "
                              "for diff")
    history.add_argument("--ledger", required=True, metavar="FILE",
                         help="the run-ledger JSONL file to read")
    history.add_argument("--gate", action="store_true", dest="gate_flag",
                         help="shorthand for the gate action (exit 1 on "
                              "ERROR-severity drift)")
    history.add_argument("--kind", default=None,
                         choices=("session", "sweep", "fleet", "bench"),
                         help="restrict to entries of this kind")
    history.add_argument("--last", type=_positive_int, default=None,
                         metavar="N",
                         help="restrict to the last N (matching) "
                              "entries")
    history.add_argument("--json", action="store_true",
                         help="machine-readable document on stdout")
    history.add_argument("--html", metavar="FILE", default=None,
                         help="with trend: write the longitudinal HTML "
                              "report to FILE")
    history.add_argument("--bench", action="append", default=[],
                         metavar="BENCH.json",
                         help="with trend --html: BENCH_*.json "
                              "report(s) for the trajectory panel; "
                              "repeatable, in order")

    commands.add_parser("locations",
                        help="list the 33-location field-study catalog")
    commands.add_parser("videos", help="list the Table-3 video ladders")
    return parser


def _positive_int(text: str) -> int:
    """Argparse type for ``--top``-style counts: > 0 or a clean error
    (argparse turns the raise into a usage message and exit code 2)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(
            f"must be a positive integer: {text!r}")
    return value


def _add_session_args(parser: argparse.ArgumentParser) -> None:
    """The shared run-one-session argument block (stream, trace and the
    single-session inspectors)."""
    from .core.deadlines import DEADLINE_MODES, RATE_BASED

    _add_network_args(parser)
    _add_video_args(parser)
    parser.add_argument("--mpdash", action="store_true",
                        help="enable the MP-DASH scheduler")
    parser.add_argument("--deadline-mode", default=RATE_BASED,
                        choices=list(DEADLINE_MODES))
    parser.add_argument("--alpha", type=float, default=1.0)


def _add_video_args(parser: argparse.ArgumentParser,
                    duration: float = 300.0,
                    duration_help: Optional[str] = "video length to "
                                                   "stream, seconds"
                    ) -> None:
    """What every session plays: ``--video``, ``--abr``, ``--duration``."""
    from .abr import abr_names
    from .workloads.videos import video_names

    parser.add_argument("--video", default="big_buck_bunny",
                        choices=video_names())
    parser.add_argument("--abr", default="festive", choices=abr_names())
    parser.add_argument("--duration", type=float, default=duration,
                        help=duration_help)


def _add_ledger_arg(parser: argparse.ArgumentParser, record: str) -> None:
    parser.add_argument("--ledger", metavar="FILE", default=None,
                        help=f"append the {record} to this run-ledger "
                             "JSONL file")


def _add_network_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--kernel", default="fast",
                        choices=("fast", "tick"),
                        help="simulation kernel: event-driven analytic "
                             "(fast, default) or the fixed-interval "
                             "reference (tick)")
    parser.add_argument("--wifi", type=float, default=3.8,
                        help="WiFi bandwidth, Mbps")
    parser.add_argument("--lte", type=float, default=3.0,
                        help="LTE bandwidth, Mbps")
    parser.add_argument("--wifi-rtt", type=float, default=50.0,
                        help="WiFi RTT, ms")
    parser.add_argument("--lte-rtt", type=float, default=55.0,
                        help="LTE RTT, ms")


def _load_trace(command: str, path: str) -> Optional["Trace"]:
    """The JSONL trace at ``path``, or None once ``repro <command>:
    cannot load ...`` is printed to stderr."""
    from .obs.trace_export import load_jsonl

    try:
        return load_jsonl(path)
    except (OSError, ValueError) as exc:
        print(f"repro {command}: cannot load {path}: {exc}",
              file=sys.stderr)
        return None


# ----------------------------------------------------------------------
# Subcommands
# ----------------------------------------------------------------------
def cmd_stream(args: argparse.Namespace) -> int:
    from .analysis.report import session_report
    from .experiments.configs import SessionConfig
    from .experiments.runner import run_session
    from .experiments.tables import format_table, pct

    config = SessionConfig(
        video=args.video, abr=args.abr, mpdash=args.mpdash,
        deadline_mode=args.deadline_mode, alpha=args.alpha,
        wifi_mbps=args.wifi, lte_mbps=args.lte,
        wifi_rtt_ms=args.wifi_rtt, lte_rtt_ms=args.lte_rtt,
        video_duration=args.duration, kernel=args.kernel)
    result = run_session(config, ledger=args.ledger)
    metrics = result.metrics
    # Human-oriented tables go to stderr (the stats/spans/profile
    # convention): stdout stays machine-parseable for every command.
    print(format_table(
        ["metric", "value"],
        [["finished", result.finished],
         ["cellular MB", f"{metrics.cellular_bytes / 1e6:.2f}"],
         ["cellular share", pct(metrics.cellular_fraction)],
         ["radio energy J", f"{metrics.radio_energy:.1f}"],
         ["playback bitrate Mbps", f"{metrics.mean_bitrate_mbps:.2f}"],
         ["quality switches", metrics.quality_switches],
         ["stalls", metrics.stall_count],
         ["startup delay s", f"{metrics.startup_delay:.2f}"
          if metrics.startup_delay is not None else "-"]],
        title=f"{args.video} / {args.abr} "
              f"({'MP-DASH ' + args.deadline_mode if args.mpdash else 'vanilla MPTCP'})"),
        file=sys.stderr)
    if args.visualize:
        print(file=sys.stderr)
        print(session_report(result), file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    from .experiments.compare import run_schemes
    from .experiments.configs import BASELINE, DURATION, RATE, SessionConfig
    from .experiments.tables import format_table, pct

    base = SessionConfig(
        video=args.video, abr=args.abr, wifi_mbps=args.wifi,
        lte_mbps=args.lte, wifi_rtt_ms=args.wifi_rtt,
        lte_rtt_ms=args.lte_rtt, video_duration=args.duration,
        kernel=args.kernel)
    comparison = run_schemes(base, jobs=args.jobs,
                             cache_dir=args.cache_dir)
    rows = []
    for scheme in (BASELINE, DURATION, RATE):
        metrics = comparison.results[scheme].metrics
        rows.append([
            scheme, f"{metrics.cellular_bytes / 1e6:.2f}",
            f"{metrics.radio_energy:.1f}",
            f"{metrics.mean_bitrate_mbps:.2f}", metrics.stall_count,
            pct(comparison.cellular_savings(scheme))
            if scheme != BASELINE else "-",
            pct(comparison.cellular_energy_savings(scheme))
            if scheme != BASELINE else "-"])
    print(format_table(
        ["scheme", "cell MB", "energy J", "bitrate", "stalls",
         "cell saved", "LTE-energy saved"],
        rows, title=f"{args.video} / {args.abr} @ "
                    f"W{args.wifi}/L{args.lte} Mbps"),
        file=sys.stderr)
    return 0


def _grid_value(text: str):
    """Coerce one grid value: int, then float, bool, none, else string."""
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("none", "null"):
        return None
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_grid(specs) -> dict:
    """``FIELD=V1,V2,...`` arguments -> an :func:`expand_grid` mapping."""
    grid = {}
    for spec in specs:
        name, sep, values = spec.partition("=")
        name = name.strip()
        if not sep or not name or not values:
            raise ValueError(
                f"malformed --grid {spec!r} (expected FIELD=V1,V2,...)")
        if name in grid:
            raise ValueError(f"duplicate --grid field {name!r}")
        grid[name] = [_grid_value(v.strip()) for v in values.split(",")]
    return grid


def _sweep_report(result) -> dict:
    """The structured description ``repro sweep --json`` prints."""
    runs = []
    for run in result.runs:
        entry = {"index": run.index, "key": run.config_key,
                 "status": "ok" if run.ok else "failed",
                 "cached": run.cached, "attempts": run.attempts,
                 "elapsed": run.elapsed}
        if run.summary is not None:
            entry["summary"] = run.summary.to_dict()
        if run.failure is not None:
            entry["failure"] = run.failure.to_dict()
        runs.append(entry)
    return {"jobs": result.jobs, "wall_clock": result.wall_clock,
            "total": len(result.runs),
            "succeeded": sum(1 for r in result.runs if r.ok),
            "failed": len(result.failures),
            "cache_hits": result.cache_hits, "runs": runs}


def cmd_sweep(args: argparse.Namespace) -> int:
    from .experiments.configs import SessionConfig
    from .experiments.sweep import expand_grid, run_sweep
    from .experiments.tables import sweep_table
    from .obs.bench import BenchReport
    from .obs.bus import EventBus
    from .obs.events import SweepRunFailed, SweepRunFinished
    from .obs.live import SweepDashboard

    base = SessionConfig(
        video=args.video, abr=args.abr, wifi_mbps=args.wifi,
        lte_mbps=args.lte, wifi_rtt_ms=args.wifi_rtt,
        lte_rtt_ms=args.lte_rtt, video_duration=args.duration,
        kernel=args.kernel)
    try:
        grid = parse_grid(args.grid)
        if args.schemes is not None:
            if "scheme" in grid:
                raise ValueError("--schemes conflicts with --grid scheme=")
            grid["scheme"] = [s.strip() for s in args.schemes.split(",")]
        configs = expand_grid(base, grid)
    except ValueError as exc:
        print(f"repro sweep: {exc}", file=sys.stderr)
        return 2

    bus = EventBus()
    dashboard = None
    if args.live:
        dashboard = SweepDashboard()
        dashboard.attach(bus)
    if not args.json and (dashboard is None or not dashboard.enabled):
        # Progress goes to stderr so stdout carries only the final table
        # (or, with --json, only the JSON document).  The line-per-run
        # feed yields to the in-place dashboard when --live is active.
        total = len(configs)
        bus.subscribe(SweepRunFinished, lambda e: print(
            f"[{e.time:8.2f}s] run {e.index + 1}/{total} {e.key[:12]} "
            f"{'cached' if e.cached else f'done in {e.elapsed:.2f}s'}",
            file=sys.stderr))
        bus.subscribe(SweepRunFailed, lambda e: print(
            f"[{e.time:8.2f}s] run {e.index + 1}/{total} {e.key[:12]} "
            f"FAILED ({e.kind}, {e.attempts} attempt(s)): {e.error}",
            file=sys.stderr))
    result = run_sweep(configs, jobs=args.jobs, cache_dir=args.cache_dir,
                       timeout=args.timeout, retries=args.retries, bus=bus,
                       ledger=args.ledger)
    if args.json:
        print(json.dumps(_sweep_report(result), sort_keys=True))
    else:
        print(sweep_table(result), file=sys.stderr)
    if args.report is not None:
        bench_reports = []
        for path in args.bench:
            try:
                bench_reports.append(BenchReport.load(path))
            except (OSError, ValueError, KeyError) as exc:
                print(f"repro sweep: cannot load bench report {path}: "
                      f"{exc}", file=sys.stderr)
                return 2
        baseline = None
        if args.bench_baseline is not None:
            try:
                baseline = BenchReport.load(args.bench_baseline)
            except (OSError, ValueError, KeyError) as exc:
                print(f"repro sweep: cannot load bench baseline "
                      f"{args.bench_baseline}: {exc}", file=sys.stderr)
                return 2
        result.export_report(args.report, bench_reports=bench_reports,
                             baseline=baseline)
        print(f"sweep report written to {args.report}", file=sys.stderr)
    # Failures are data, not harness errors: the sweep completed.
    return 0


def cmd_download(args: argparse.Namespace) -> int:
    from .experiments.configs import FileDownloadConfig
    from .experiments.runner import run_file_download
    from .experiments.tables import format_table, pct

    result = run_file_download(FileDownloadConfig(
        size=args.size_mb * 1e6, deadline=args.deadline,
        mpdash=not args.no_mpdash, alpha=args.alpha,
        wifi_mbps=args.wifi, lte_mbps=args.lte,
        wifi_rtt_ms=args.wifi_rtt, lte_rtt_ms=args.lte_rtt,
        kernel=args.kernel))
    print(format_table(
        ["metric", "value"],
        [["finished at s", f"{result.duration:.2f}"],
         ["deadline met", not result.missed_deadline],
         ["cellular MB", f"{result.cellular_bytes / 1e6:.2f}"],
         ["cellular share", pct(result.cellular_fraction)],
         ["radio energy J", f"{result.radio_energy:.1f}"]],
        title=f"{args.size_mb:.0f}MB download, D={args.deadline:.0f}s "
              f"({'vanilla' if args.no_mpdash else 'MP-DASH'})"))
    return 0


def _trace_summary(source: str, trace: Trace,
                   metrics: SessionMetrics) -> dict:
    """The structured description ``repro trace`` reports per trace."""
    return {
        "source": source,
        "meta": asdict(trace.meta),
        "events": {"total": len(trace.events),
                   "by_type": trace.count_by_type()},
        "metrics": asdict(metrics),
    }


def _print_trace_summary(summary: dict) -> None:
    from .experiments.tables import format_table

    metrics = summary["metrics"]
    meta = summary["meta"]
    rows = [["events", summary["events"]["total"]],
            ["session duration s", f"{meta['session_duration']:.2f}"],
            ["cellular MB",
             f"{metrics['bytes_per_path'].get('cellular', 0.0) / 1e6:.2f}"],
            ["energy J", f"{metrics['energy_total']:.1f}"],
            ["mean bitrate Mbps", f"{metrics['mean_bitrate'] * 8 / 1e6:.2f}"],
            ["quality switches", metrics["quality_switches"]],
            ["stalls", metrics["stall_count"]],
            ["chunks", metrics["chunk_count"]]]
    print(format_table(["metric", "value"], rows,
                       title=f"trace {summary['source']}"))


def cmd_trace(args: argparse.Namespace) -> int:
    """Capture a session's event stream, or analyze/diff exported ones.

    Three modes: run-and-capture (optionally ``--out`` to a JSONL file),
    ``--load`` to re-run the analyzer offline on an exported trace, and
    ``--diff`` to compare a second trace's metrics against the first.
    """
    from .experiments.configs import SessionConfig
    from .experiments.runner import run_session
    from .experiments.tables import format_table
    from .obs.trace_export import Trace, dump_jsonl, metrics_from_trace

    if args.load is not None:
        trace = _load_trace("trace", args.load)
        if trace is None:
            return 1
        if args.out is not None:
            dump_jsonl(args.out, trace.events, trace.meta)
        summary = _trace_summary(args.load, trace, metrics_from_trace(trace))
    else:
        config = SessionConfig(
            video=args.video, abr=args.abr, mpdash=args.mpdash,
            deadline_mode=args.deadline_mode, alpha=args.alpha,
            wifi_mbps=args.wifi, lte_mbps=args.lte,
            wifi_rtt_ms=args.wifi_rtt, lte_rtt_ms=args.lte_rtt,
            video_duration=args.duration, record_trace=True,
            kernel=args.kernel)
        result = run_session(config)
        if args.out is not None:
            result.export_trace(args.out)
        trace = Trace(meta=result.trace_meta, events=result.events)
        summary = _trace_summary("live", trace, result.metrics)

    if args.diff is not None:
        other = _load_trace("trace", args.diff)
        if other is None:
            return 1
        other_summary = _trace_summary(args.diff, other,
                                       metrics_from_trace(other))
        scalars = ("energy_total", "stall_count", "total_stall_time",
                   "quality_switches", "mean_bitrate", "session_duration",
                   "chunk_count")
        delta = {key: other_summary["metrics"][key] - summary["metrics"][key]
                 for key in scalars}
        report = {"a": summary, "b": other_summary, "delta": delta}
        if args.json:
            print(json.dumps(report, sort_keys=True))
        else:
            _print_trace_summary(summary)
            _print_trace_summary(other_summary)
            print(format_table(
                ["metric", "a", "b", "delta"],
                [[key, summary["metrics"][key], other_summary["metrics"][key],
                  delta[key]] for key in scalars],
                title="trace diff (b - a)"))
        return 0

    if args.json:
        print(json.dumps(summary, sort_keys=True))
    else:
        _print_trace_summary(summary)
    if args.out is not None:
        # stderr: stdout stays pure JSON/table for parsers.
        print(f"trace written to {args.out}", file=sys.stderr)
    return 0


def _session_config(args: argparse.Namespace, **overrides) -> SessionConfig:
    """A :class:`SessionConfig` from the shared session argument block."""
    from .experiments.configs import SessionConfig

    return SessionConfig(
        video=args.video, abr=args.abr, mpdash=args.mpdash,
        deadline_mode=args.deadline_mode, alpha=args.alpha,
        wifi_mbps=args.wifi, lte_mbps=args.lte,
        wifi_rtt_ms=args.wifi_rtt, lte_rtt_ms=args.lte_rtt,
        video_duration=args.duration, kernel=args.kernel, **overrides)


def cmd_stats(args: argparse.Namespace) -> int:
    """The standard metrics registry, live or rebuilt from a trace."""
    from .experiments.runner import run_session
    from .obs.metrics import registry_from_trace

    if args.load is not None:
        trace = _load_trace("stats", args.load)
        if trace is None:
            return 1
        registry = registry_from_trace(trace)
        print(f"registry rebuilt from {args.load} "
              f"({len(trace.events)} events)", file=sys.stderr)
    else:
        result = run_session(_session_config(args, collect_metrics=True))
        registry = result.metrics_registry
    if args.json:
        print(json.dumps(registry.to_dict(), sort_keys=True))
    else:
        sys.stdout.write(registry.render_prometheus())
    return 0


def cmd_spans(args: argparse.Namespace) -> int:
    """The causal span tree, live or rebuilt from a trace."""
    from .experiments.runner import run_session
    from .obs.spans import (dump_chrome_trace, render_span_tree,
                            spans_from_trace, spans_to_dicts)

    if args.load is not None:
        trace = _load_trace("spans", args.load)
        if trace is None:
            return 1
        spans = spans_from_trace(trace)
        print(f"spans rebuilt from {args.load} "
              f"({len(trace.events)} events)", file=sys.stderr)
    else:
        result = run_session(_session_config(args, collect_spans=True))
        spans = result.spans
    if args.chrome is not None:
        dump_chrome_trace(args.chrome, spans)
        print(f"chrome trace written to {args.chrome} "
              f"(open in Perfetto or chrome://tracing)", file=sys.stderr)
    if args.json:
        print(json.dumps(spans_to_dicts(spans), sort_keys=True))
    else:
        print(render_span_tree(spans, max_spans=args.limit))
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """Run one session under the profiler and print the hot-path report."""
    from .experiments.runner import run_session

    result = run_session(_session_config(args), profile=True)
    profiler = result.profile
    if args.json:
        print(json.dumps(profiler.to_dict(), sort_keys=True))
    else:
        sys.stdout.write(profiler.report(top=args.top))
    return 0


def cmd_check(args: argparse.Namespace) -> int:
    """Judge one session against the stock invariant battery.

    Exit status: 0 when no ERROR-severity violation was found (warnings
    are reported but do not fail the check), 1 on ERROR violations, 2
    when a trace could not be loaded.
    """
    from .experiments.runner import run_session
    from .obs.check import check_trace, stock_checkers

    checkers = stock_checkers(max_miss_rate=args.max_miss_rate,
                              max_stall_ratio=args.max_stall_ratio)
    if args.load is not None:
        trace = _load_trace("check", args.load)
        if trace is None:
            return 2
        report = check_trace(trace, checkers)
        print(f"checked {args.load} offline", file=sys.stderr)
    else:
        result = run_session(_session_config(args), checkers=checkers)
        report = result.check_report
    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_bench(args: argparse.Namespace) -> int:
    """Measure the pinned performance scenarios, optionally gated.

    Exit status: 0 clean, 1 when ``--compare`` found a regression, 2 on
    bad arguments or unreadable report files.
    """
    from .obs.bench import (BenchReport, compare_meta, compare_reports,
                            run_bench)
    from .obs.report import bench_report_html, write_report

    if args.load is not None:
        try:
            report = BenchReport.load(args.load)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro bench: cannot load {args.load}: {exc}",
                  file=sys.stderr)
            return 2
    else:
        scenarios = ([s.strip() for s in args.scenarios.split(",")]
                     if args.scenarios is not None else None)
        try:
            report = run_bench(
                scenarios=scenarios, repeats=args.repeat, label=args.label,
                progress=lambda message: print(message, file=sys.stderr),
                ledger=args.ledger)
        except ValueError as exc:
            print(f"repro bench: {exc}", file=sys.stderr)
            return 2
        out = args.out if args.out is not None else \
            f"BENCH_{args.label}.json"
        if out != "-":
            report.dump(out)
            print(f"benchmark report written to {out}", file=sys.stderr)

    if args.json:
        print(json.dumps(report.to_dict(), sort_keys=True))
    else:
        print(report.render(), file=sys.stderr)

    baseline = None
    if args.compare is not None:
        try:
            baseline = BenchReport.load(args.compare)
        except (OSError, ValueError, KeyError) as exc:
            print(f"repro bench: cannot load baseline {args.compare}: "
                  f"{exc}", file=sys.stderr)
            return 2
    if args.html is not None:
        write_report(args.html, bench_report_html(
            [report], baseline=baseline, threshold=args.threshold))
        print(f"bench HTML report written to {args.html}",
              file=sys.stderr)
    if baseline is not None:
        # Environment mismatches never gate, but they change what a
        # gating verdict means — surface them before the comparison.
        for mismatch in compare_meta(report, baseline):
            print(f"repro bench: warning: {mismatch.render()}",
                  file=sys.stderr)
        regressions = compare_reports(report, baseline,
                                      threshold=args.threshold)
        if regressions:
            print(f"PERFORMANCE REGRESSION vs {args.compare} "
                  f"(threshold {args.threshold:.0%}):", file=sys.stderr)
            for regression in regressions:
                print(f"  {regression}", file=sys.stderr)
            return 1
        print(f"no regression vs {args.compare} "
              f"(threshold {args.threshold:.0%})", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Render the self-contained HTML session report.

    With ``--load`` the report is a pure function of the JSONL trace —
    byte-identical to the one a live ``run_session(report=...)`` writes
    for the same session.  Without it, one session is run (recording a
    trace, the metrics registry, and spans) and rendered directly.
    """
    from .experiments.runner import run_session
    from .obs.report import session_report_html, write_report

    if args.load is not None:
        trace = _load_trace("report", args.load)
        if trace is None:
            return 1
        write_report(args.out, session_report_html(trace))
        print(f"session report written to {args.out} "
              f"(from {args.load}, {len(trace.events)} events)",
              file=sys.stderr)
    else:
        run_session(_session_config(args, collect_metrics=True,
                                    collect_spans=True),
                    report=args.out)
        print(f"session report written to {args.out}", file=sys.stderr)
    return 0


def cmd_fleet(args: argparse.Namespace) -> int:
    """Run (or resume) a fleet campaign and report its population.

    Exit status: 0 on a completed (or deliberately ``--stop-after``
    bounded) campaign, 1 when the engine gave up on a shard, 2 on bad
    arguments or a checkpoint belonging to a different campaign.
    """
    from .experiments.fleet import FleetConfig, run_fleet
    from .experiments.tables import fleet_table
    from .obs.bus import EventBus
    from .obs.events import (FleetCheckpointSaved, FleetSessionCaptured,
                             FleetShardCompleted)
    from .obs.live import FleetDashboard
    from .obs.recorder import RecorderConfig

    try:
        config = FleetConfig(
            sessions=args.sessions, arrival=args.arrival,
            horizon=args.horizon, seed=args.seed, video=args.video,
            abr=args.abr, scheme=args.scheme,
            video_duration=args.duration,
            wifi_only_fraction=args.wifi_only_fraction,
            shard_size=args.shard_size, kernel=args.kernel,
            fault_session=args.fault_session)
        recorder = None
        if args.record_dir is not None:
            recorder = RecorderConfig(
                artifact_dir=args.record_dir,
                head_every=args.record_head_every,
                miss_threshold=args.record_miss_threshold,
                stall_threshold=args.record_stall_threshold,
                bottom_k=args.record_bottom_k)
    except ValueError as exc:
        print(f"repro fleet: {exc}", file=sys.stderr)
        return 2

    bus = EventBus()
    dashboard = None
    if args.live:
        dashboard = FleetDashboard()
        dashboard.attach(bus)
    if not args.json and (dashboard is None or not dashboard.enabled):
        total = config.total_shards
        bus.subscribe(FleetShardCompleted, lambda e: print(
            f"[{e.time:8.2f}s] shard {e.shard + 1}/{total} "
            f"({e.sessions} sessions, {e.failures} failed) "
            f"in {e.elapsed:.2f}s", file=sys.stderr))
        bus.subscribe(FleetCheckpointSaved, lambda e: print(
            f"[{e.time:8.2f}s] checkpoint @ {e.shards_done} shards "
            f"-> {e.path}", file=sys.stderr))
        if recorder is not None:
            bus.subscribe(FleetSessionCaptured, lambda e: print(
                f"[{e.time:8.2f}s] captured session {e.session} "
                f"({e.reason}, score {e.score:.2f})", file=sys.stderr))
    try:
        result = run_fleet(
            config, jobs=args.jobs, checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every, resume=args.resume,
            stop_after=args.stop_after, retries=args.retries, bus=bus,
            recorder=recorder, ledger=args.ledger)
    except ValueError as exc:
        print(f"repro fleet: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"repro fleet: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(json.dumps(result.to_dict(), sort_keys=True))
    else:
        print(fleet_table(result), file=sys.stderr)
    if args.report is not None:
        result.export_report(args.report, triage_top=args.triage_top)
        print(f"fleet report written to {args.report}", file=sys.stderr)
    return 0


def _find_ledger_entry(entries, prefix: str):
    """The unique entry whose id starts with ``prefix`` (or None after
    printing the error; callers exit 2)."""
    matches = [e for e in entries if e.entry_id.startswith(prefix)]
    if not matches:
        print(f"repro history: no entry matching {prefix!r}",
              file=sys.stderr)
        return None
    if len(matches) > 1:
        ids = ", ".join(e.entry_id[:12] for e in matches[:5])
        print(f"repro history: {prefix!r} is ambiguous ({ids}...)",
              file=sys.stderr)
        return None
    return matches[0]


def cmd_history(args: argparse.Namespace) -> int:
    """Longitudinal views over a run ledger (see repro.obs.ledger).

    Actions: ``list`` entries, ``show``/``diff`` entries by id prefix,
    ``trend`` (machine-readable timeseries + EWMA tracks, or ``--html``
    the longitudinal report), ``gate`` (run the drift sentinel; exit 1
    on ERROR-severity drift).  Exit status: 0 clean, 1 gate failure,
    2 bad arguments or an unreadable ledger.
    """
    from .experiments.tables import format_table
    from .obs.bench import BenchReport
    from .obs.drift import detect_drift, drift_table, gate_ok, trend_document
    from .obs.ledger import RunLedger
    from .obs.report import history_report_html, write_report

    action = "gate" if args.gate_flag else args.action
    load = RunLedger(args.ledger).load()
    for warning in load.warnings:
        print(f"repro history: warning: {warning}", file=sys.stderr)
    entries = list(load.entries)
    if args.kind is not None:
        entries = [e for e in entries if e.kind == args.kind]
    if args.last is not None:
        entries = entries[-args.last:]

    if action == "list":
        if args.json:
            print(json.dumps([e.to_dict() for e in entries],
                             sort_keys=True))
        else:
            rows = [[str(i), e.kind, e.entry_id[:12], e.key[:12],
                     e.label or "-", str(len(e.metrics))]
                    for i, e in enumerate(entries)]
            print(format_table(
                ["#", "kind", "entry", "key", "label", "metrics"], rows,
                title=f"ledger {args.ledger} ({len(entries)} entries)"),
                file=sys.stderr)
        return 0

    if action == "show":
        if len(args.ids) != 1:
            print("repro history: show takes exactly one entry-id "
                  "prefix", file=sys.stderr)
            return 2
        entry = _find_ledger_entry(entries, args.ids[0])
        if entry is None:
            return 2
        print(json.dumps(entry.to_dict(), sort_keys=True))
        if not args.json:
            rows = [[name, f"{value:.6g}"]
                    for name, value in entry.metrics.items()]
            print(format_table(["metric", "value"], rows,
                               title=f"{entry.kind} {entry.entry_id[:12]}"),
                  file=sys.stderr)
        return 0

    if action == "diff":
        if len(args.ids) != 2:
            print("repro history: diff takes exactly two entry-id "
                  "prefixes", file=sys.stderr)
            return 2
        first = _find_ledger_entry(entries, args.ids[0])
        second = _find_ledger_entry(entries, args.ids[1])
        if first is None or second is None:
            return 2
        names = sorted(set(first.metrics) | set(second.metrics))
        deltas = []
        for name in names:
            a = first.metrics.get(name)
            b = second.metrics.get(name)
            delta = (b - a) if a is not None and b is not None else None
            relative = (delta / abs(a)
                        if delta is not None and a not in (None, 0.0)
                        else None)
            deltas.append({"metric": name, "a": a, "b": b,
                           "delta": delta, "relative": relative})
        environment = {
            key: [first.environment.get(key), second.environment.get(key)]
            for key in sorted(set(first.environment)
                              | set(second.environment))
            if first.environment.get(key) != second.environment.get(key)}
        document = {"a": first.to_dict(), "b": second.to_dict(),
                    "metrics": deltas,
                    "environment_changes": environment}
        if args.json:
            print(json.dumps(document, sort_keys=True))
        else:
            def show(value) -> str:
                return "-" if value is None else f"{value:.6g}"

            rows = [[d["metric"], show(d["a"]), show(d["b"]),
                     show(d["delta"]),
                     ("-" if d["relative"] is None
                      else f"{d['relative']:+.1%}")] for d in deltas]
            print(format_table(
                ["metric", first.entry_id[:12], second.entry_id[:12],
                 "delta", "rel"], rows,
                title=f"{first.kind} diff"), file=sys.stderr)
            for key, (mine, theirs) in environment.items():
                print(f"environment: {key}: {mine} -> {theirs}",
                      file=sys.stderr)
        return 0

    findings = detect_drift(entries)
    if action == "trend":
        document = trend_document(entries, findings)
        if args.json:
            print(json.dumps(document, sort_keys=True))
        if args.html is not None:
            bench_reports = []
            for path in args.bench:
                try:
                    bench_reports.append(BenchReport.load(path))
                except (OSError, ValueError, KeyError) as exc:
                    print(f"repro history: cannot load bench report "
                          f"{path}: {exc}", file=sys.stderr)
                    return 2
            write_report(args.html, history_report_html(
                entries, findings=findings, bench_reports=bench_reports,
                warnings=load.warnings))
            print(f"history report written to {args.html}",
                  file=sys.stderr)
        if not args.json:
            print(drift_table(findings), file=sys.stderr)
        return 0

    # action == "gate"
    if args.json:
        print(json.dumps(
            {"entries": len(entries), "gate_ok": gate_ok(findings),
             "findings": [f.to_dict() for f in findings]},
            sort_keys=True))
    else:
        print(drift_table(findings), file=sys.stderr)
    if not gate_ok(findings):
        print(f"repro history: DRIFT GATE FAILED "
              f"({sum(1 for f in findings if f.severity == 'error')} "
              f"error-severity finding(s))", file=sys.stderr)
        return 1
    print("repro history: drift gate passed", file=sys.stderr)
    return 0


def _resolve_manifest(record_dir: str, fleet_key: Optional[str],
                      prog: str):
    """Locate exactly one campaign manifest under ``record_dir``.

    Returns ``(recorder root, manifest dict)`` — artifact paths inside
    records are relative to the root, the manifest's grandparent
    directory — or ``(None, None)`` after printing the error (missing
    manifest, unmatched or ambiguous ``--fleet-key``, unreadable file;
    callers exit 2)."""
    from .obs.recorder import find_manifests, load_manifest

    manifests = find_manifests(record_dir)
    if not manifests:
        print(f"{prog}: no anomaly manifest under {record_dir}",
              file=sys.stderr)
        return None, None
    if fleet_key is not None:
        manifests = [m for m in manifests
                     if os.path.basename(os.path.dirname(m))
                     .startswith(fleet_key)]
        if not manifests:
            print(f"{prog}: no campaign matching key prefix "
                  f"{fleet_key!r}", file=sys.stderr)
            return None, None
    if len(manifests) > 1:
        keys = ", ".join(os.path.basename(os.path.dirname(m))
                         for m in manifests)
        print(f"{prog}: several campaigns under {record_dir} ({keys}); "
              f"pick one with --fleet-key", file=sys.stderr)
        return None, None
    manifest_path = manifests[0]
    try:
        manifest = load_manifest(manifest_path)
    except (OSError, ValueError) as exc:
        print(f"{prog}: {exc}", file=sys.stderr)
        return None, None
    return os.path.dirname(os.path.dirname(manifest_path)), manifest


def cmd_triage(args: argparse.Namespace) -> int:
    """Rank, replay, and render a campaign's flight-recorder captures.

    Exit status: 0 on a successful triage (even with zero captures),
    2 when the artifact directory has no usable manifest or the
    ``--fleet-key`` prefix is missing/ambiguous.
    """
    from .obs.recorder import (rank_anomalies, render_anomaly_reports,
                               replay_anomaly, triage_table)
    from .obs.report import triage_report_html, write_report

    root, manifest = _resolve_manifest(args.record_dir, args.fleet_key,
                                       "repro triage")
    if manifest is None:
        return 2
    ranked = rank_anomalies(manifest.get("records", []), top=args.top)
    replays = {int(r["index"]): replay_anomaly(root, r) for r in ranked}
    if args.json:
        print(json.dumps(
            {"fleet_key": manifest.get("fleet_key", ""),
             "stats": manifest.get("stats", {}),
             "records": [dict(r, replay=replays[int(r["index"])])
                         for r in ranked]}, sort_keys=True))
    else:
        print(triage_table(ranked), file=sys.stderr)
        for record in ranked:
            replay = replays[int(record["index"])]
            if replay.get("replayed") and not replay.get(
                    "matches_recorded"):
                print(f"warning: session {record['index']} replayed to "
                      f"different verdicts than recorded", file=sys.stderr)
    if args.html is not None:
        out_dir = os.path.dirname(os.path.abspath(args.html))
        links = render_anomaly_reports(root, ranked, out_dir)
        write_report(args.html, triage_report_html(
            ranked, fleet_key=manifest.get("fleet_key", ""),
            links=links, replays=replays))
        print(f"triage report written to {args.html} "
              f"({len(links)} mini report(s))", file=sys.stderr)
    return 0


def cmd_why(args: argparse.Namespace) -> int:
    """Causal root-cause attribution: explain why anomalies happened.

    Four modes, all pure functions of their traces: attribute a live
    session, a ``--load``-ed export, a campaign's recorded captures
    (``--record-dir``), or diff two arms (``--diff A B``).  Machine
    verdicts go to stdout with ``--json``; human tables go to stderr.

    Exit status: 0 on successful attribution (even when there is
    nothing to explain), 2 on unloadable traces or manifest problems.
    """
    from .experiments.runner import run_session
    from .obs.recorder import rank_anomalies
    from .obs.trace_export import Trace
    from .obs.why import (attribute_anomaly, attributions_from_trace,
                          diff_traces, render_attributions,
                          summarize_attributions)

    if args.diff is not None:
        path_a, path_b = args.diff
        trace_a = _load_trace("why", path_a)
        trace_b = (_load_trace("why", path_b) if trace_a is not None
                   else None)
        if trace_b is None:
            return 2
        diff = diff_traces(trace_a, trace_b)
        if args.json:
            print(json.dumps(diff.to_dict(), sort_keys=True))
        else:
            print(f"diffing {path_a} (A) vs {path_b} (B)",
                  file=sys.stderr)
            print(diff.render(top=args.top), file=sys.stderr)
        return 0

    if args.record_dir is not None:
        root, manifest = _resolve_manifest(
            args.record_dir, args.fleet_key, "repro why")
        if manifest is None:
            return 2
        ranked = rank_anomalies(manifest.get("records", []),
                                top=args.top)
        verdicts = [dict(record, why=attribute_anomaly(root, record))
                    for record in ranked]
        if args.json:
            print(json.dumps(
                {"fleet_key": manifest.get("fleet_key", ""),
                 "records": verdicts}, sort_keys=True))
        else:
            for record in verdicts:
                why = record["why"]
                if not why["attributed"]:
                    line = f"unattributable ({why['error']})"
                else:
                    summary = why["summary"]
                    line = (f"{summary['total']} verdict(s), top cause "
                            f"{summary['top_cause']} (layer "
                            f"{summary['top_layer']})")
                print(f"session {record['index']} "
                      f"[{record['reason']}]: {line}", file=sys.stderr)
            if not verdicts:
                print("no captured anomalies to attribute",
                      file=sys.stderr)
        return 0

    if args.load is not None:
        trace = _load_trace("why", args.load)
        if trace is None:
            return 2
        print(f"attributing {args.load} offline", file=sys.stderr)
    else:
        # The sampler rides along so the network rules (bandwidth-drop,
        # queue-buildup, estimator-drift) have per-path evidence.
        result = run_session(_session_config(
            args, record_trace=True, collect_metrics=True))
        trace = Trace(meta=result.trace_meta,
                      events=list(result.events))
    attributions = attributions_from_trace(trace)
    if args.json:
        print(json.dumps(
            {"attributions": [a.to_dict() for a in attributions],
             "summary": summarize_attributions(attributions)},
            sort_keys=True))
    else:
        print(render_attributions(attributions, top=args.top),
              file=sys.stderr)
    return 0


def cmd_locations(_args: argparse.Namespace) -> int:
    from .experiments.tables import format_table
    from .workloads.locations import field_study_locations

    rows = [[loc.name, loc.scenario, loc.wifi_mbps, loc.wifi_rtt_ms,
             loc.lte_mbps, loc.lte_rtt_ms]
            for loc in field_study_locations()]
    print(format_table(
        ["location", "scenario", "wifi Mbps", "wifi RTT ms", "lte Mbps",
         "lte RTT ms"], rows,
        title="Field-study catalog (33 locations, scenarios 64%/15%/21%)"))
    return 0


def cmd_videos(_args: argparse.Namespace) -> int:
    from .experiments.tables import format_table
    from .workloads.videos import VIDEO_LADDERS

    rows = [[name] + list(ladder)
            for name, ladder in sorted(VIDEO_LADDERS.items())]
    print(format_table(
        ["video", "L1", "L2", "L3", "L4", "L5"], rows,
        title="Table 3: average encoding bitrates (Mbps)"))
    return 0


_COMMANDS = {
    "stream": cmd_stream,
    "compare": cmd_compare,
    "sweep": cmd_sweep,
    "download": cmd_download,
    "trace": cmd_trace,
    "stats": cmd_stats,
    "spans": cmd_spans,
    "profile": cmd_profile,
    "check": cmd_check,
    "bench": cmd_bench,
    "report": cmd_report,
    "fleet": cmd_fleet,
    "history": cmd_history,
    "triage": cmd_triage,
    "why": cmd_why,
    "locations": cmd_locations,
    "videos": cmd_videos,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
