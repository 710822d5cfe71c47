"""Tests for the persistent run ledger (repro.obs.ledger)."""

import dataclasses
import json
import multiprocessing

import pytest

from repro.experiments import SessionConfig, run_session
from repro.experiments.fleet import FleetConfig, fleet_key, run_fleet
from repro.experiments.sweep import config_key, run_sweep
from repro.obs.bench import BenchReport, BenchResult
from repro.obs.ledger import (ENTRY_KINDS, LEDGER_SCHEMA, LedgerEntry,
                              RunLedger, bench_entry, canonical_json,
                              environment_fingerprint, fleet_entry,
                              registry_digest, session_entry, sweep_entry)


def short_config(**overrides):
    defaults = dict(video_duration=10.0, wifi_mbps=8.0, lte_mbps=8.0)
    defaults.update(overrides)
    return SessionConfig(**defaults)


def entry(**overrides):
    defaults = dict(kind="session", key="abc123", label="t",
                    environment={"python": "3.11"},
                    metrics={"qoe": 1.5, "stall_seconds": 0.0})
    defaults.update(overrides)
    return LedgerEntry(**defaults)


class TestCanonicalPieces:
    def test_canonical_json_is_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'

    def test_environment_fingerprint_shape(self):
        env = environment_fingerprint()
        assert sorted(env) == ["machine", "platform", "python"]
        assert all(isinstance(v, str) and v for v in env.values())

    def test_registry_digest_is_content_addressed(self):
        class Fake:
            def __init__(self, payload):
                self.payload = payload

            def to_dict(self):
                return self.payload

        a = registry_digest(Fake({"x": 1}))
        assert a == registry_digest(Fake({"x": 1}))
        assert a != registry_digest(Fake({"x": 2}))
        assert len(a) == 24


class TestLedgerEntry:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown ledger entry kind"):
            entry(kind="cron")

    def test_rejects_future_schema(self):
        with pytest.raises(ValueError, match="newer than this reader"):
            entry(schema=LEDGER_SCHEMA + 1)

    def test_rejects_non_finite_metric(self):
        with pytest.raises(ValueError, match="must be finite"):
            entry(metrics={"qoe": float("nan")})
        with pytest.raises(ValueError, match="must be finite"):
            entry(metrics={"qoe": float("inf")})

    def test_normalizes_metrics_to_floats(self):
        e = entry(metrics={"runs": 3, "qoe": 1.5})
        assert e.metrics == {"qoe": 1.5, "runs": 3.0}
        assert all(isinstance(v, float) for v in e.metrics.values())

    def test_entry_id_is_deterministic_content_address(self):
        assert entry().entry_id == entry().entry_id
        assert entry().entry_id != entry(metrics={"qoe": 2.0}).entry_id
        assert len(entry().entry_id) == 24

    def test_round_trips_through_dict(self):
        e = entry()
        payload = e.to_dict()
        assert payload["entry_id"] == e.entry_id
        back = LedgerEntry.from_dict(payload)
        assert back == e
        assert back.entry_id == e.entry_id

    def test_round_trip_survives_json(self):
        e = entry(registry_digest="d" * 24)
        back = LedgerEntry.from_dict(json.loads(canonical_json(e.to_dict())))
        assert back == e

    def test_from_dict_detects_tampering(self):
        payload = entry().to_dict()
        payload["metrics"]["qoe"] = 99.0
        with pytest.raises(ValueError, match="entry id mismatch"):
            LedgerEntry.from_dict(payload)

    def test_from_dict_defaults_optional_fields(self):
        back = LedgerEntry.from_dict({"kind": "bench", "key": "k"})
        assert back.label == "" and back.metrics == {}
        assert back.registry_digest is None
        assert back.schema == LEDGER_SCHEMA

    def test_entry_kinds_cover_every_entry_point(self):
        assert ENTRY_KINDS == ("session", "sweep", "fleet", "bench")


class TestRunLedger:
    def test_append_load_round_trip_in_order(self, tmp_path):
        ledger = RunLedger(str(tmp_path / "runs.jsonl"))
        first = entry(metrics={"qoe": 1.0})
        second = entry(metrics={"qoe": 2.0})
        assert ledger.append(first) == first.entry_id
        ledger.append(second)
        load = ledger.load()
        assert load.warnings == ()
        assert [e.entry_id for e in load.entries] == [first.entry_id,
                                                      second.entry_id]
        assert ledger.entries() == load.entries

    def test_missing_file_loads_empty(self, tmp_path):
        load = RunLedger(str(tmp_path / "never.jsonl")).load()
        assert load.entries == () and load.warnings == ()

    def test_truncated_tail_warns_but_keeps_prefix(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        keep = entry()
        ledger.append(keep)
        whole = (canonical_json(entry(metrics={"qoe": 7.0}).to_dict())
                 + "\n")
        with open(path, "a") as handle:
            handle.write(whole[:len(whole) // 2])  # crash mid-append
        load = ledger.load()
        assert [e.entry_id for e in load.entries] == [keep.entry_id]
        assert len(load.warnings) == 1
        assert "skipped unreadable ledger line" in load.warnings[0]
        assert ":2:" in load.warnings[0]

    def test_append_after_torn_tail_keeps_the_new_entry(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        first, second, third = (entry(metrics={"qoe": q})
                                for q in (1.0, 2.0, 3.0))
        ledger.append(first)
        ledger.append(second)
        torn = len(canonical_json(second.to_dict())) // 2
        with open(path, "r+b") as handle:
            handle.truncate(handle.seek(0, 2) - torn)  # crash mid-append
        ledger.append(third)
        load = ledger.load()
        assert [e.entry_id for e in load.entries] == [first.entry_id,
                                                      third.entry_id]
        assert len(load.warnings) == 1 and ":2:" in load.warnings[0]

    def test_intact_tail_gets_no_extra_byte(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        entries = [entry(metrics={"qoe": 1.0}), entry(metrics={"qoe": 2.0})]
        for item in entries:
            ledger.append(item)
        with open(path, "rb") as handle:
            assert handle.read() == "".join(
                canonical_json(item.to_dict()) + "\n"
                for item in entries).encode("utf-8")

    def test_corrupt_middle_line_skipped_with_warning(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        first = entry(metrics={"qoe": 1.0})
        last = entry(metrics={"qoe": 2.0})
        ledger.append(first)
        with open(path, "a") as handle:
            handle.write("{not json}\n")
            handle.write('["a","json","array"]\n')
        ledger.append(last)
        load = ledger.load()
        assert [e.entry_id for e in load.entries] == [first.entry_id,
                                                      last.entry_id]
        assert len(load.warnings) == 2
        assert "not a JSON object" in load.warnings[1]

    def test_tampered_line_is_a_warning_not_a_crash(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        payload = entry().to_dict()
        payload["metrics"]["qoe"] = -1.0  # id no longer matches
        with open(path, "w") as handle:
            handle.write(canonical_json(payload) + "\n")
        load = RunLedger(path).load()
        assert load.entries == ()
        assert "entry id mismatch" in load.warnings[0]

    def test_blank_lines_are_ignored(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        ledger = RunLedger(path)
        ledger.append(entry())
        with open(path, "a") as handle:
            handle.write("\n   \n")
        ledger.append(entry(metrics={"qoe": 3.0}))
        load = ledger.load()
        assert len(load.entries) == 2 and load.warnings == ()

    def test_repr_names_the_path(self, tmp_path):
        assert "runs.jsonl" in repr(RunLedger(str(tmp_path / "runs.jsonl")))


def _append_batch(path, worker, count):
    ledger = RunLedger(path)
    for i in range(count):
        ledger.append(LedgerEntry(
            kind="session", key=f"worker{worker}",
            metrics={"qoe": float(i), "worker": float(worker)}))


class TestConcurrentAppends:
    def test_two_processes_never_interleave_records(self, tmp_path):
        path = str(tmp_path / "shared.jsonl")
        count = 200
        ctx = multiprocessing.get_context("spawn")
        workers = [ctx.Process(target=_append_batch, args=(path, w, count))
                   for w in (1, 2)]
        for proc in workers:
            proc.start()
        for proc in workers:
            proc.join()
            assert proc.exitcode == 0
        load = RunLedger(path).load()
        assert load.warnings == ()  # no torn lines, every entry readable
        assert len(load.entries) == 2 * count
        for worker in (1, 2):
            seen = [e.metrics["qoe"] for e in load.entries
                    if e.key == f"worker{worker}"]
            assert seen == [float(i) for i in range(count)]


class TestSessionEntry:
    def test_headline_metrics_from_a_real_run(self):
        config = short_config()
        result = run_session(config)
        e = session_entry(result, label="smoke", wall_clock=0.5)
        assert e.kind == "session"
        assert e.key == config_key(config)
        assert e.label == "smoke"
        for name in ("qoe", "bitrate_mbps", "stall_seconds", "stall_count",
                     "startup_seconds", "cellular_mbytes",
                     "cellular_fraction", "energy_joules",
                     "deadline_misses", "finished", "wall_clock_seconds",
                     "sim_per_wall"):
            assert name in e.metrics, name
        assert e.metrics["finished"] == 1.0
        assert e.metrics["sim_per_wall"] == pytest.approx(
            result.session_duration / 0.5)
        assert e.environment == environment_fingerprint()

    def test_checked_run_records_violations(self):
        result = run_session(short_config(), check=True)
        e = session_entry(result)
        assert "violations" in e.metrics

    def test_profiled_run_carries_registry_digest(self):
        result = run_session(short_config())
        e = session_entry(result)
        if result.metrics_registry is not None:
            assert e.registry_digest == registry_digest(
                result.metrics_registry)


class TestSweepEntry:
    def test_key_ignores_run_order(self):
        a, b = short_config(), short_config(wifi_mbps=4.0)
        forward = sweep_entry(run_sweep([a, b]))
        backward = sweep_entry(run_sweep([b, a]))
        assert forward.key == backward.key
        assert forward.kind == "sweep"

    def test_aggregates_session_headlines(self):
        e = sweep_entry(run_sweep([short_config()]), label="grid")
        assert e.metrics["runs"] == 1.0
        assert e.metrics["failures"] == 0.0
        for name in ("qoe", "bitrate_mbps", "stall_seconds",
                     "cellular_mbytes", "energy_joules",
                     "deadline_misses", "cache_hits"):
            assert name in e.metrics, name


class TestFleetEntry:
    def test_population_quantiles_and_registry_digest(self):
        result = run_fleet(FleetConfig(sessions=6, shard_size=3,
                                       video_duration=6.0, seed=7))
        e = fleet_entry(result, label="nightly")
        assert e.kind == "fleet"
        assert e.key == fleet_key(result.config)
        assert e.metrics["sessions"] == 6.0
        for name in ("deadline_misses", "unfinished_sessions",
                     "bitrate_p50_mbps", "stalled_session_fraction"):
            assert name in e.metrics, name
        assert e.registry_digest == registry_digest(result.registry)
        # No recorder armed: no anomaly series is fabricated.
        if result.recorder is None:
            assert "anomalies" not in e.metrics


class TestBenchEntry:
    def report(self):
        results = [BenchResult(scenario="single", wall_clock=2.0,
                               sim_seconds=300.0, sim_per_wall=150.0,
                               events=1000, events_per_sec=500.0,
                               peak_rss_kb=50000, repeats=1),
                   BenchResult(scenario="sweep16", wall_clock=4.0,
                               sim_seconds=600.0, sim_per_wall=150.0,
                               events=None, events_per_sec=None,
                               peak_rss_kb=None, repeats=1)]
        return BenchReport(label="nightly", results=results,
                           meta={"python": "3.11", "platform": "linux",
                                 "machine": "x86_64"})

    def test_flattens_per_scenario_series(self):
        e = bench_entry(self.report())
        assert e.kind == "bench" and e.key == "nightly"
        assert e.metrics["single.wall_clock"] == 2.0
        assert e.metrics["single.events_per_sec"] == 500.0
        assert e.metrics["single.peak_rss_kb"] == 50000.0
        assert e.metrics["sweep16.sim_per_wall"] == 150.0
        assert "sweep16.events_per_sec" not in e.metrics
        assert "sweep16.peak_rss_kb" not in e.metrics
        assert e.environment == {"python": "3.11", "platform": "linux",
                                 "machine": "x86_64"}

    def test_label_defaults_to_report_label(self):
        assert bench_entry(self.report()).label == "nightly"
        assert bench_entry(self.report(), label="x").label == "x"

    def test_round_trips_like_every_other_kind(self):
        e = bench_entry(self.report())
        assert LedgerEntry.from_dict(e.to_dict()) == e


class TestEntryPointOptIn:
    def test_run_session_ledger_flag_appends(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        run_session(short_config(), ledger=path)
        entries = RunLedger(path).entries()
        assert len(entries) == 1 and entries[0].kind == "session"
        assert "wall_clock_seconds" in entries[0].metrics

    def test_run_sweep_ledger_flag_appends(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        run_sweep([short_config()], ledger=path)
        entries = RunLedger(path).entries()
        assert len(entries) == 1 and entries[0].kind == "sweep"

    def test_run_fleet_ledger_flag_appends(self, tmp_path):
        path = str(tmp_path / "runs.jsonl")
        run_fleet(FleetConfig(sessions=4, shard_size=2,
                              video_duration=6.0, seed=7), ledger=path)
        entries = RunLedger(path).entries()
        assert len(entries) == 1 and entries[0].kind == "fleet"

    def test_ledger_never_changes_the_run(self, tmp_path):
        config = short_config()
        plain = run_session(config)
        recorded = run_session(config, ledger=str(tmp_path / "l.jsonl"))
        assert dataclasses.asdict(plain.metrics) == dataclasses.asdict(
            recorded.metrics)
