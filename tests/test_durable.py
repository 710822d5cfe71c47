"""Crash safety of every on-disk store built on :mod:`repro._durable`.

Each store is driven through its own public save and load calls.  A
child process saves version 1 and is then SIGKILLed inside the next
save: between the temp write and the rename for the atomic stores, half
way through the line for the ledger.  The previous content must still
load unchanged, and the next save must succeed past whatever the crash
left behind.  Damaged content on disk must meet each store's documented
load policy.
"""

import multiprocessing
import os
import signal
from types import SimpleNamespace

import pytest

from repro.analysis.metrics import SessionMetrics
from repro.experiments.fleet import (checkpoint_path, load_checkpoint,
                                     save_checkpoint)
from repro.experiments.sweep import DownloadSummary, ResultCache
from repro.obs.events import StallStart
from repro.obs.ledger import LedgerEntry, RunLedger
from repro.obs.metrics import MetricsRegistry
from repro.obs.recorder import (MANIFEST_FILE, RecorderConfig,
                                ShardRecorder, key_dir, load_manifest,
                                save_manifest)
from repro.obs.trace_export import TraceMeta, load_jsonl


class SweepCache:
    """``ResultCache``: a damaged artifact is a cache miss."""

    dies_in = "replace"

    def __init__(self, root):
        self.cache = ResultCache(os.path.join(root, "cache"))
        self.path = self.cache.path("k")

    def save(self, version):
        self.cache.store("k", DownloadSummary(
            config_key="k", duration=float(version),
            bytes_per_path={"wifi": 1.0}, missed_deadline=False,
            radio_energy=1.0))

    def load(self):
        summary = self.cache.load("k")
        return None if summary is None else int(summary.duration)

    def assert_damage_policy(self):
        assert self.load() is None


class FleetCheckpoint:
    """Fleet checkpoints: a damaged checkpoint is a fresh start."""

    dies_in = "replace"

    def __init__(self, root):
        self.path = checkpoint_path(root)

    def save(self, version):
        save_checkpoint(self.path, "fleet-key", shards_done=version,
                        sessions=version, failures=0, sim_seconds=0.0,
                        errors=[], registry=MetricsRegistry())

    def load(self):
        payload = load_checkpoint(self.path, "fleet-key")
        return None if payload is None else payload["shards_done"]

    def assert_damage_policy(self):
        assert load_checkpoint(self.path, "fleet-key") is None


class RecorderArtifacts:
    """One captured gzip artifact plus the campaign manifest; a damaged
    manifest raises ``ValueError``."""

    dies_in = "replace"
    key = "feedfacecafebeef"

    def __init__(self, root):
        self.root = root
        self.path = os.path.join(key_dir(root, self.key), MANIFEST_FILE)

    def save(self, version):
        recorder = ShardRecorder(RecorderConfig(
            artifact_dir=self.root, head_every=1, bottom_k=0, check=False),
            self.key, 0)
        recorder.observe(0, SimpleNamespace(
            metrics=SessionMetrics(stall_count=version),
            scheduler_stats={}, finished=True, session_duration=10.0,
            events=[StallStart(float(version))],
            trace_meta=TraceMeta(session_duration=10.0)))
        recorder.flush()
        save_manifest(self.root, self.key, recorder.stats,
                      recorder.records)

    def load(self):
        (record,) = load_manifest(self.path)["records"]
        trace = load_jsonl(os.path.join(self.root, record["artifact"]))
        assert trace.events[0].time == record["stalls"]
        return record["stalls"]

    def assert_damage_policy(self):
        with pytest.raises(ValueError):
            load_manifest(self.path)


class Ledger:
    """The run ledger: a damaged line is skipped with a warning."""

    dies_in = "write"

    def __init__(self, root):
        self.path = os.path.join(root, "runs.jsonl")
        self.ledger = RunLedger(self.path)

    def save(self, version):
        self.ledger.append(LedgerEntry(kind="session", key="k",
                                       metrics={"version": version}))

    def load(self):
        entries = self.ledger.load().entries
        return int(entries[-1].metrics["version"]) if entries else None

    def assert_damage_policy(self):
        load = self.ledger.load()
        assert load.entries == () and len(load.warnings) == 1


STORES = {"sweep-cache": SweepCache, "fleet-checkpoint": FleetCheckpoint,
          "recorder": RecorderArtifacts, "ledger": Ledger}


def _kill_self(*_args):
    os.kill(os.getpid(), signal.SIGKILL)


def _die_mid_save(name, root):
    """Child body: save version 1, then die inside saving version 2."""
    store = STORES[name](root)
    store.save(1)
    if store.dies_in == "replace":
        os.replace = _kill_self
    else:
        write = os.write

        def torn_write(fd, data):
            write(fd, data[:len(data) // 2])
            _kill_self()

        os.write = torn_write
    store.save(2)


def stale_files(root):
    return sorted(name for _, _, files in os.walk(root)
                  for name in files if ".tmp." in name)


@pytest.mark.parametrize("name", sorted(STORES))
class TestDurableStores:
    def test_kill_mid_save_keeps_previous_content(self, name, tmp_path):
        root = str(tmp_path)
        child = multiprocessing.get_context("spawn").Process(
            target=_die_mid_save, args=(name, root))
        child.start()
        child.join(timeout=120)
        assert not child.is_alive()
        assert child.exitcode == -signal.SIGKILL
        store = STORES[name](root)
        assert store.load() == 1
        stale = stale_files(root)
        if store.dies_in == "replace":
            assert len(stale) == 1
            assert stale[0].endswith(f".tmp.{child.pid}")
        else:
            assert stale == []
        store.save(3)
        assert store.load() == 3
        assert stale_files(root) == stale

    @pytest.mark.parametrize("damage", ["torn", "not-an-object"])
    def test_damaged_content_meets_load_policy(self, name, damage,
                                               tmp_path):
        store = STORES[name](str(tmp_path))
        store.save(1)
        with open(store.path, "rb") as handle:
            data = handle.read()
        with open(store.path, "wb") as handle:
            handle.write(data[:len(data) // 2] if damage == "torn"
                         else b"[]\n")
        store.assert_damage_policy()
        store.save(2)
        assert store.load() == 2
