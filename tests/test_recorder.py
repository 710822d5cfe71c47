"""Tests for the flight recorder and anomaly triage pipeline."""

import gzip
import hashlib
import json
import os

import pytest

from repro.experiments.fleet import FleetConfig, fleet_key, run_fleet
from repro.obs import (EventBus, FleetSessionCaptured, FleetWorkerHeartbeat,
                       RecorderConfig, ShardRecorder, find_manifests,
                       load_jsonl, load_manifest, rank_anomalies,
                       render_anomaly_reports, replay_anomaly, save_manifest,
                       triage_table)
from repro.obs import recorder as recorder_module
from repro.obs.events import StallStart
from repro.obs.recorder import (REASON_ORDER, artifact_name, empty_stats,
                                key_dir, merge_stats)
from repro.obs.trace_export import TraceMeta, dumps_jsonl, gzip_bytes


class FakeMetrics:
    def __init__(self, bitrate=2.0, stall_time=0.0, stalls=0):
        self.mean_bitrate_mbps = bitrate
        self.total_stall_time = stall_time
        self.stall_count = stalls
        self.startup_delay = None
        self.cellular_bytes = 0.0
        self.cellular_fraction = 0.0
        self.radio_energy = 0.0


class FakeResult:
    """Duck-typed SessionResult surface the recorder observes."""

    def __init__(self, bitrate=2.0, stall_time=0.0, stalls=0, misses=0,
                 events=(), finished=True, duration=10.0, traced=True):
        self.metrics = FakeMetrics(bitrate, stall_time, stalls)
        self.scheduler_stats = {"deadline_misses": misses}
        self.finished = finished
        self.session_duration = duration
        self.events = list(events) if traced else None
        self.trace_meta = TraceMeta(session_duration=duration)


def recorder(tmp_path, **overrides):
    defaults = dict(artifact_dir=str(tmp_path / "records"), check=False,
                    bottom_k=0)
    defaults.update(overrides)
    return ShardRecorder(RecorderConfig(**defaults), "deadbeefcafe", 0)


def tree_digest(root):
    """Stable digest of every file under ``root`` (path + bytes)."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


class TestRecorderConfig:
    def test_requires_artifact_dir(self):
        with pytest.raises(ValueError):
            RecorderConfig(artifact_dir="")

    def test_rejects_negative_knobs(self):
        for field in ("head_every", "miss_threshold", "stall_threshold",
                      "bottom_k", "max_events"):
            with pytest.raises(ValueError):
                RecorderConfig(artifact_dir="x", **{field: -1})

    def test_defaults_are_valid(self):
        config = RecorderConfig(artifact_dir="x")
        assert config.check and config.capture_failures
        assert config.head_every == 0


class TestShardRecorder:
    def test_quiet_sessions_leave_no_records(self, tmp_path):
        rec = recorder(tmp_path)
        for index in range(5):
            rec.observe(index, FakeResult())
        rec.flush()
        assert rec.records == []
        assert rec.stats["sessions"] == 5
        assert rec.stats["captured"] == 0
        assert not os.path.exists(rec.directory)

    def test_untraced_sessions_are_counted(self, tmp_path):
        rec = recorder(tmp_path)
        rec.observe(0, FakeResult(traced=False, misses=99))
        rec.flush()
        assert rec.stats["untraced"] == 1
        assert rec.records == []  # never judged, never captured

    def test_miss_threshold_triggers_capture(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=5)
        rec.observe(3, FakeResult(misses=7))
        rec.flush()
        (record,) = rec.records
        assert record["reason"] == "deadline_miss"
        assert record["score"] == 7.0
        assert record["index"] == 3 and record["shard"] == 0
        artifact = os.path.join(str(tmp_path / "records"),
                                record["artifact"])
        assert os.path.isfile(artifact)
        assert load_jsonl(artifact).meta.session_duration == 10.0

    def test_stall_threshold_triggers_capture(self, tmp_path):
        rec = recorder(tmp_path, stall_threshold=2)
        rec.observe(1, FakeResult(stalls=4, stall_time=3.0))
        rec.flush()
        (record,) = rec.records
        assert record["reason"] == "stall" and record["score"] == 4.0

    def test_most_severe_reason_wins(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=1, stall_threshold=1)
        rec.observe(0, FakeResult(misses=2, stalls=2))
        rec.flush()
        (record,) = rec.records
        assert record["reason"] == "deadline_miss"
        assert record["reasons"] == ["deadline_miss", "stall"]
        assert rec.stats["by_reason"]["deadline_miss"] == 1
        assert rec.stats["by_reason"]["stall"] == 0

    def test_zero_thresholds_disable_their_triggers(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=0, stall_threshold=0)
        rec.observe(0, FakeResult(misses=50, stalls=50))
        rec.flush()
        assert rec.records == []

    def test_head_sampling_is_deterministic(self, tmp_path):
        rec = recorder(tmp_path, head_every=3)
        for index in range(7):
            rec.observe(index, FakeResult())
        rec.flush()
        assert [r["index"] for r in rec.records] == [0, 3, 6]
        assert all(r["reason"] == "head_sample" for r in rec.records)

    def test_bottom_k_reservoir_keeps_the_worst(self, tmp_path):
        rec = recorder(tmp_path, bottom_k=2)
        qoes = {0: 5.0, 1: 1.0, 2: 3.0, 3: 0.5, 4: 4.0}
        for index, qoe in qoes.items():
            rec.observe(index, FakeResult(bitrate=qoe))
        rec.flush()
        assert [r["index"] for r in rec.records] == [1, 3]
        assert all(r["reason"] == "bottom_qoe" for r in rec.records)
        worst = min(rec.records, key=lambda r: r["qoe"])
        assert worst["index"] == 3
        assert worst["score"] == pytest.approx(-0.5)  # -qoe

    def test_qoe_proxy_penalizes_stall_ratio(self, tmp_path):
        rec = recorder(tmp_path, bottom_k=1)
        rec.observe(0, FakeResult(bitrate=3.0))
        rec.observe(1, FakeResult(bitrate=3.0, stall_time=5.0,
                                  duration=10.0))
        rec.flush()
        (record,) = rec.records
        assert record["index"] == 1  # 3.0 - 8.0 * 0.5 < 3.0

    def test_triggered_sessions_stay_out_of_the_reservoir(self, tmp_path):
        rec = recorder(tmp_path, bottom_k=1, miss_threshold=1)
        rec.observe(0, FakeResult(bitrate=0.1, misses=3))
        rec.observe(1, FakeResult(bitrate=9.0))
        rec.flush()
        reasons = {r["index"]: r["reason"] for r in rec.records}
        assert reasons == {0: "deadline_miss", 1: "bottom_qoe"}

    def test_oversized_traces_counted_not_written(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=1, max_events=1)
        events = [StallStart(0.1), StallStart(0.2)]
        rec.observe(0, FakeResult(misses=5, events=events))
        rec.flush()
        (record,) = rec.records
        assert record["artifact"] is None and record["events"] == 2
        assert rec.stats["oversized"] == 1
        assert rec.stats["captured"] == 1
        assert rec.stats["bytes_written"] == 0

    def _count_serializations(self, monkeypatch):
        """Patch the recorder's serializer; returns the list of the
        first event time of every stream it serializes."""
        serialized = []
        real = recorder_module.dumps_jsonl

        def counting(events, meta):
            serialized.append(events[0].time)
            return real(events, meta)

        monkeypatch.setattr(recorder_module, "dumps_jsonl", counting)
        return serialized

    def test_evicted_reservoir_entries_are_never_serialized(
            self, tmp_path, monkeypatch):
        serialized = self._count_serializations(monkeypatch)
        rec = recorder(tmp_path, bottom_k=2)
        # Each session is worse than the last, so every one enters the
        # reservoir and all but the two worst are evicted again.
        for index in range(6):
            rec.observe(index, FakeResult(
                bitrate=10.0 - index,
                events=[StallStart(float(index)), StallStart(9.0)]))
        assert serialized == []
        rec.flush()
        assert sorted(serialized) == [4.0, 5.0]
        assert [r["index"] for r in rec.records] == [4, 5]
        assert all(r["events"] == 2 for r in rec.records)

    def test_reservoir_artifact_is_the_canonical_trace(self, tmp_path):
        rec = recorder(tmp_path, bottom_k=1)
        events = [StallStart(0.5), StallStart(1.5), StallStart(2.5)]
        result = FakeResult(bitrate=0.2, events=events)
        rec.observe(3, result)
        rec.flush()
        (record,) = rec.records
        assert record["events"] == 3
        path = os.path.join(str(tmp_path / "records"), record["artifact"])
        with open(path, "rb") as handle:
            blob = handle.read()
        text = dumps_jsonl(events, result.trace_meta)
        assert blob == gzip_bytes(text.encode("utf-8"))

    def test_oversized_reservoir_survivor_is_not_serialized(
            self, tmp_path, monkeypatch):
        serialized = self._count_serializations(monkeypatch)
        rec = recorder(tmp_path, bottom_k=1, max_events=1)
        rec.observe(0, FakeResult(events=[StallStart(0.1),
                                          StallStart(0.2)]))
        rec.flush()
        (record,) = rec.records
        assert serialized == []
        assert record["artifact"] is None and record["events"] == 2
        assert rec.stats["oversized"] == 1

    def test_record_failure(self, tmp_path):
        rec = recorder(tmp_path)
        rec.record_failure(4, "ValueError: boom")
        rec.flush()
        (record,) = rec.records
        assert record["reason"] == "failure" and record["score"] == 1.0
        assert record["artifact"] is None
        assert record["error"] == "ValueError: boom"
        assert rec.stats["by_reason"]["failure"] == 1

    def test_capture_failures_can_be_disabled(self, tmp_path):
        rec = recorder(tmp_path, capture_failures=False)
        rec.record_failure(4, "ValueError: boom")
        rec.flush()
        assert rec.records == [] and rec.stats["captured"] == 0
        assert rec.stats["sessions"] == 1

    def test_records_sorted_by_index_after_flush(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=1, bottom_k=1)
        rec.observe(2, FakeResult(misses=5))
        rec.record_failure(0, "boom")
        rec.observe(1, FakeResult(bitrate=0.1))
        rec.flush()
        assert [r["index"] for r in rec.records] == [0, 1, 2]

    def test_artifacts_are_byte_identical_across_recorders(self, tmp_path):
        blobs = []
        for attempt in ("one", "two"):
            rec = ShardRecorder(
                RecorderConfig(artifact_dir=str(tmp_path / attempt),
                               check=False, bottom_k=0, miss_threshold=1),
                "deadbeefcafe", 0)
            rec.observe(7, FakeResult(misses=2, events=[StallStart(0.5)]))
            rec.flush()
            path = os.path.join(str(tmp_path / attempt),
                                rec.records[0]["artifact"])
            with open(path, "rb") as handle:
                blobs.append(handle.read())
        assert blobs[0] == blobs[1]

    def test_no_temp_files_left_behind(self, tmp_path):
        rec = recorder(tmp_path, head_every=1)
        for index in range(4):
            rec.observe(index, FakeResult())
        rec.flush()
        leftovers = [name for name in os.listdir(rec.directory)
                     if ".tmp." in name]
        assert leftovers == []

    def test_payload_is_json_ready(self, tmp_path):
        rec = recorder(tmp_path, miss_threshold=1)
        rec.observe(0, FakeResult(misses=3))
        rec.record_failure(1, "boom")
        rec.flush()
        payload = json.loads(json.dumps(rec.payload(), sort_keys=True))
        assert payload["stats"]["captured"] == 2
        assert len(payload["records"]) == 2


class TestStatsHelpers:
    def test_empty_stats_covers_every_reason(self):
        stats = empty_stats()
        assert set(stats["by_reason"]) == set(REASON_ORDER)
        assert stats["captured"] == 0

    def test_merge_stats_accumulates(self):
        total = empty_stats()
        part = empty_stats()
        part["sessions"] = 5
        part["captured"] = 2
        part["bytes_written"] = 100
        part["by_reason"]["violation"] = 2
        merge_stats(total, part)
        merge_stats(total, part)
        assert total["sessions"] == 10 and total["captured"] == 4
        assert total["bytes_written"] == 200
        assert total["by_reason"]["violation"] == 4


class TestManifest:
    def test_round_trip(self, tmp_path):
        stats = empty_stats()
        records = [{"index": 3, "reason": "stall", "score": 2.0}]
        path = save_manifest(str(tmp_path), "deadbeefcafe", stats, records)
        payload = load_manifest(path)
        assert payload["fleet_key"] == "deadbeefcafe"
        assert payload["records"] == records
        assert payload["version"] == 1

    def test_find_manifests_from_root_and_campaign_dir(self, tmp_path):
        save_manifest(str(tmp_path), "aaaa11112222", empty_stats(), [])
        save_manifest(str(tmp_path), "bbbb33334444", empty_stats(), [])
        from_root = find_manifests(str(tmp_path))
        assert len(from_root) == 2
        campaign = key_dir(str(tmp_path), "aaaa11112222")
        assert find_manifests(campaign) == from_root[:1]

    def test_find_manifests_missing_dir_is_empty(self, tmp_path):
        assert find_manifests(str(tmp_path / "nope")) == []

    def test_load_manifest_rejects_non_manifest_json(self, tmp_path):
        bad = tmp_path / "anomalies.json"
        bad.write_text(json.dumps([1, 2, 3]))
        with pytest.raises(ValueError):
            load_manifest(str(bad))


class TestRankAnomalies:
    RECORDS = [
        {"index": 9, "reason": "head_sample", "score": 0.0},
        {"index": 2, "reason": "stall", "score": 3.0},
        {"index": 5, "reason": "violation", "score": 1.0},
        {"index": 1, "reason": "stall", "score": 7.0},
        {"index": 0, "reason": "failure", "score": 1.0},
        {"index": 4, "reason": "stall", "score": 7.0},
    ]

    def test_orders_by_reason_then_score_then_index(self):
        ranked = rank_anomalies(self.RECORDS)
        assert [r["index"] for r in ranked] == [5, 0, 1, 4, 2, 9]

    def test_top_bounds_the_list(self):
        assert len(rank_anomalies(self.RECORDS, top=2)) == 2
        assert rank_anomalies(self.RECORDS, top=2)[0]["index"] == 5

    def test_unknown_reason_sorts_last(self):
        records = [{"index": 0, "reason": "mystery", "score": 9.0},
                   {"index": 1, "reason": "head_sample", "score": 0.0}]
        assert rank_anomalies(records)[0]["index"] == 1


class TestReplayAnomaly:
    def test_traceless_record_degrades(self, tmp_path):
        verdict = replay_anomaly(str(tmp_path), {"artifact": None})
        assert verdict["replayed"] is False
        assert "trace-less" in verdict["error"]

    def test_missing_artifact_degrades(self, tmp_path):
        verdict = replay_anomaly(str(tmp_path),
                                 {"artifact": "gone/nope.jsonl.gz"})
        assert verdict["replayed"] is False and verdict["error"]

    def test_corrupt_artifact_degrades(self, tmp_path):
        path = tmp_path / "bad.jsonl.gz"
        path.write_bytes(gzip_bytes(b"not a trace"))
        verdict = replay_anomaly(str(tmp_path), {"artifact": "bad.jsonl.gz"})
        assert verdict["replayed"] is False and verdict["error"]

    def test_torn_artifact_degrades(self, tmp_path):
        blob = gzip_bytes(dumps_jsonl(
            [StallStart(0.1)] * 50, TraceMeta(session_duration=1.0)
        ).encode("utf-8"))
        (tmp_path / "torn.jsonl.gz").write_bytes(blob[:len(blob) // 2])
        verdict = replay_anomaly(str(tmp_path),
                                 {"artifact": "torn.jsonl.gz"})
        assert verdict["replayed"] is False
        assert verdict["error"].startswith("ValueError: truncated gzip")

    def test_replays_a_real_artifact(self, tmp_path):
        text = dumps_jsonl([], TraceMeta(session_duration=1.0))
        path = tmp_path / artifact_name(3)
        path.write_bytes(gzip_bytes(text.encode("utf-8")))
        verdict = replay_anomaly(str(tmp_path),
                                 {"artifact": artifact_name(3),
                                  "violations": None})
        assert verdict["replayed"] is True and verdict["events"] == 0
        assert verdict["matches_recorded"] is True

    def test_mismatched_recorded_verdicts_flagged(self, tmp_path):
        text = dumps_jsonl([], TraceMeta(session_duration=1.0))
        path = tmp_path / artifact_name(3)
        path.write_bytes(gzip_bytes(text.encode("utf-8")))
        verdict = replay_anomaly(str(tmp_path),
                                 {"artifact": artifact_name(3),
                                  "violations": {"error": 7}})
        assert verdict["replayed"] is True
        assert verdict["matches_recorded"] is False


class TestTriageTable:
    def test_renders_with_sparse_fields(self):
        records = [
            {"index": 3, "shard": 0, "reason": "violation", "score": 2.0,
             "qoe": 1.5, "misses": 4, "stalls": 1,
             "artifact": "abc/session-00000003.jsonl.gz"},
            {"index": 9, "shard": 1, "reason": "failure", "score": 1.0,
             "qoe": None, "misses": None, "stalls": None,
             "artifact": None},
        ]
        table = triage_table(records)
        assert "2 anomaly record(s)" in table
        assert "violation" in table and "failure" in table
        assert "session-00000003.jsonl.gz" in table

    def test_empty_records(self):
        assert "0 anomaly record(s)" in triage_table([])


def fleet_config(**overrides):
    defaults = dict(sessions=8, shard_size=3, video_duration=6.0, seed=7)
    defaults.update(overrides)
    return FleetConfig(**defaults)


def rec_config(tmp_path, name="records", **overrides):
    defaults = dict(artifact_dir=str(tmp_path / name))
    defaults.update(overrides)
    return RecorderConfig(**defaults)


class TestFleetRecorderIntegration:
    def test_recording_never_changes_the_population(self, tmp_path):
        config = fleet_config()
        plain = run_fleet(config)
        recorded = run_fleet(config, recorder=rec_config(tmp_path))
        assert recorded.registry_json() == plain.registry_json()
        assert plain.recorder is None and plain.anomalies == []
        assert recorded.recorder is not None
        assert recorded.recorder["sessions"] == 8
        assert recorded.record_dir == str(tmp_path / "records")

    def test_seeded_fault_is_captured_and_ranked_first(self, tmp_path):
        config = fleet_config(fault_session=5)
        result = run_fleet(config, recorder=rec_config(tmp_path))
        faulted = [r for r in result.anomalies if r["index"] == 5]
        assert faulted and faulted[0]["reason"] == "violation"
        assert faulted[0]["violations"]["error"] > 0
        ranked = result.triage(3)
        assert ranked[0]["index"] == 5
        verdict = replay_anomaly(result.record_dir, ranked[0])
        assert verdict["replayed"] and verdict["matches_recorded"]

    def test_fault_session_changes_fleet_key(self):
        assert fleet_key(fleet_config(fault_session=5)) != \
            fleet_key(fleet_config())

    def test_captures_identical_across_worker_counts(self, tmp_path):
        config = fleet_config(sessions=12, shard_size=3, fault_session=4)
        serial = run_fleet(config, recorder=rec_config(tmp_path, "serial"))
        pooled = run_fleet(config, jobs=3,
                           recorder=rec_config(tmp_path, "pooled"))
        assert [r["index"] for r in serial.anomalies] == \
            [r["index"] for r in pooled.anomalies]
        assert serial.anomalies == pooled.anomalies
        assert tree_digest(str(tmp_path / "serial")) == \
            tree_digest(str(tmp_path / "pooled"))
        assert serial.registry_json() == pooled.registry_json()

    def test_kill_and_resume_preserves_captures(self, tmp_path):
        config = fleet_config(sessions=12, shard_size=3, fault_session=1)
        straight = run_fleet(config,
                             recorder=rec_config(tmp_path, "straight"))
        ckpt = str(tmp_path / "ckpt")
        resumed_rec = rec_config(tmp_path, "resumed")
        partial = run_fleet(config, checkpoint_dir=ckpt,
                            checkpoint_every=1, stop_after=2,
                            recorder=resumed_rec)
        assert not partial.completed
        resumed = run_fleet(config, jobs=2, checkpoint_dir=ckpt,
                            checkpoint_every=1, resume=True,
                            recorder=resumed_rec)
        assert resumed.completed
        assert resumed.anomalies == straight.anomalies
        assert resumed.recorder == straight.recorder
        assert tree_digest(str(tmp_path / "resumed")) == \
            tree_digest(str(tmp_path / "straight"))
        assert resumed.registry_json() == straight.registry_json()

    def test_manifest_written_and_loadable(self, tmp_path):
        config = fleet_config(fault_session=2)
        result = run_fleet(config, recorder=rec_config(tmp_path))
        (path,) = find_manifests(str(tmp_path / "records"))
        payload = load_manifest(path)
        assert payload["fleet_key"] == fleet_key(config)
        assert payload["stats"] == result.recorder
        assert payload["records"] == result.anomalies

    def test_heartbeat_and_capture_events_published(self, tmp_path):
        bus = EventBus()
        beats, captures = [], []
        bus.subscribe(FleetWorkerHeartbeat, beats.append)
        bus.subscribe(FleetSessionCaptured, captures.append)
        config = fleet_config(fault_session=0)
        result = run_fleet(config, bus=bus,
                           recorder=rec_config(tmp_path))
        assert len(beats) == config.total_shards
        assert all(beat.worker == os.getpid() for beat in beats)
        assert beats[0].last_index == 2 and beats[-1].last_index == 7
        assert sum(beat.captured for beat in beats) == \
            result.recorder["captured"]
        assert {c.session for c in captures} == \
            {r["index"] for r in result.anomalies}
        faulted = next(c for c in captures if c.session == 0)
        assert faulted.reason == "violation" and faulted.artifact

    def test_heartbeats_flow_without_a_recorder(self):
        bus = EventBus()
        beats = []
        bus.subscribe(FleetWorkerHeartbeat, beats.append)
        run_fleet(fleet_config(), bus=bus)
        assert len(beats) == fleet_config().total_shards
        assert all(beat.captured == 0 for beat in beats)

    def test_triage_and_export_report(self, tmp_path):
        config = fleet_config(fault_session=3)
        result = run_fleet(config, recorder=rec_config(tmp_path))
        out = tmp_path / "out" / "fleet.html"
        out.parent.mkdir()
        result.export_report(str(out), triage_top=2)
        html = out.read_text()
        assert "anomal" in html.lower()
        mini = tmp_path / "out" / "anomaly-00000003.html"
        assert mini.is_file()
        assert "anomaly-00000003.html" in html

    def test_render_anomaly_reports_skips_traceless(self, tmp_path):
        records = [{"index": 1, "artifact": None},
                   {"index": 2, "artifact": "missing/file.jsonl.gz"}]
        links = render_anomaly_reports(str(tmp_path), records,
                                       str(tmp_path / "out"))
        assert links == {}

    def test_to_dict_carries_recorder_fields(self, tmp_path):
        result = run_fleet(fleet_config(fault_session=1),
                           recorder=rec_config(tmp_path))
        payload = json.loads(json.dumps(result.to_dict(), sort_keys=True))
        assert payload["recorder"]["captured"] >= 1
        assert any(r["index"] == 1 for r in payload["anomalies"])
        assert payload["error_total"] == 0
