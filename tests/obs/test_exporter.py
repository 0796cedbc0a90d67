"""The continuous exporter: live files, its switch, worker safety.

An export directory turns a session into a streamed one: every recorder
event appends to ``events.jsonl`` and the metrics snapshot lands in
``metrics.prom``/``snapshot.json`` at most once per interval.  These tests
pin the file formats (schema-v2 envelopes, Prometheus text exposition), the
switch (``REPRO_OBS_EXPORT`` read once at start, ``force()`` afterwards),
and worker suspension.
"""

import json
import os
from unittest import mock

import pytest

from repro.obs import exporter as exporter_module
from repro.obs.exporter import EXPORTER, ContinuousExporter


@pytest.fixture
def exporter(tmp_path):
    """A fresh (non-singleton) exporter built with the knob set."""
    with mock.patch.dict(os.environ, {"REPRO_OBS_EXPORT": str(tmp_path)}), \
            mock.patch.object(exporter_module, "EXPORT_INTERVAL_S", 0.0):
        yield ContinuousExporter(), tmp_path


@pytest.fixture
def streaming_singleton(tmp_path):
    """The process exporter forced into a temp directory, interval 0."""
    previous = EXPORTER.force(tmp_path)
    try:
        with mock.patch.object(exporter_module, "EXPORT_INTERVAL_S", 0.0):
            yield tmp_path
    finally:
        EXPORTER.force(previous)


class TestStreaming:
    def test_events_stream_as_enveloped_jsonl(self, exporter):
        exp, directory = exporter
        assert exp.active
        exp.emit({"seq": 1, "t_s": 0.25, "kind": "action.start", "op": "new"})
        exp.emit({"seq": 2, "t_s": 0.50, "kind": "action.end", "op": "new"})
        lines = (directory / "events.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["schema"] == 2
        assert first["kind"] == "obs-event"  # envelope kind survives
        assert first["event"] == "action.start"  # the recorder kind rides here
        assert first["op"] == "new"
        assert exp.events_emitted == 2

    def test_tick_writes_prometheus_and_snapshot_atomically(self, exporter):
        exp, directory = exporter
        path = exp.tick(force=True)
        assert path == directory / "snapshot.json"
        snap = json.loads(path.read_text())
        assert snap["schema"] == 2
        assert snap["kind"] == "metrics-snapshot"
        assert snap["pid"] == os.getpid()
        assert snap["sequence"] == 1
        assert {"counters", "gauges", "histograms"} <= set(snap["metrics"])
        prom = (directory / "metrics.prom").read_text()
        assert "# TYPE repro_counter counter" in prom
        assert "# TYPE repro_latency_seconds summary" in prom
        assert not list(directory.glob(".*.tmp"))  # no temp litter

    def test_tick_exports_profiles_when_the_sampler_has_samples(
        self, exporter
    ):
        from repro.obs.profiler import PROFILER

        exp, directory = exporter
        PROFILER.reset()
        PROFILER.force(200.0)
        try:
            PROFILER.merge({
                "hz": 200.0, "samples": 4,
                "slices": [{"request_id": None, "action": "run",
                            "stacks": {"a.py:main;a.py:hot": 4}}],
                "memory": {},
            })
            exp.tick(force=True)
        finally:
            PROFILER.force(None)
        folded = (directory / "profiles" / "profile.folded").read_text()
        assert "a.py:main;a.py:hot 4" in folded
        payload = json.loads(
            (directory / "profiles" / "profile.json").read_text()
        )
        assert payload["kind"] == "profile"
        assert payload["summary"]["samples"] == 4
        assert not list((directory / "profiles").glob(".*.tmp"))
        PROFILER.reset()

    def test_tick_skips_profiles_while_the_sampler_is_off(self, exporter):
        exp, directory = exporter
        exp.tick(force=True)
        assert not (directory / "profiles").exists()

    def test_interval_gates_snapshot_rewrites(self, tmp_path):
        exp = ContinuousExporter()
        exp.force(tmp_path)
        with mock.patch.object(exporter_module, "EXPORT_INTERVAL_S", 3600.0):
            assert exp.tick() is not None  # first tick always writes
            assert exp.tick() is None      # next one waits for the interval
            assert exp.tick(force=True) is not None
        assert exp.snapshots_written == 2

    def test_inactive_without_the_knob(self):
        with mock.patch.dict(os.environ, {"REPRO_OBS_EXPORT": ""}):
            exp = ContinuousExporter()
        assert not exp.active
        assert exp.tick(force=True) is None
        exp.emit({"kind": "x"})  # must not raise, must not open files
        assert exp.events_emitted == 0


class TestSwitch:
    def test_force_retargets_and_none_restores_the_start_value(
        self, exporter
    ):
        exp, directory = exporter
        other = directory / "elsewhere"
        assert exp.force(other) is None  # no override was installed
        assert other.is_dir()
        exp.emit({"seq": 1, "t_s": 0.0, "kind": "x"})
        assert (other / "events.jsonl").exists()
        assert exp.force(False) == other
        assert not exp.active
        assert exp.force(None) is False
        assert exp.active
        exp.emit({"seq": 2, "t_s": 0.0, "kind": "x"})
        assert (directory / "events.jsonl").exists()

    def test_environment_changes_after_start_are_not_read(self, tmp_path):
        with mock.patch.dict(os.environ, {"REPRO_OBS_EXPORT": ""}):
            exp = ContinuousExporter()
            os.environ["REPRO_OBS_EXPORT"] = str(tmp_path)
            exp.emit({"seq": 1, "t_s": 0.0, "kind": "x"})
        assert not exp.active
        assert not (tmp_path / "events.jsonl").exists()


class TestWorkerSuspension:
    def test_suspend_is_permanent_and_quiet(self, exporter):
        exp, directory = exporter
        exp.suspend()
        assert not exp.active
        exp.emit({"seq": 1, "t_s": 0.0, "kind": "x"})
        assert not (directory / "events.jsonl").exists()
        # even forcing a new target leaves it suspended
        exp.force(directory / "sub")
        assert not exp.active
        exp.force(None)
        assert not exp.active

    def test_suspend_does_not_close_the_parents_handle(self, exporter):
        exp, directory = exporter
        exp.emit({"seq": 1, "t_s": 0.0, "kind": "x"})
        handle = exp._events_file
        assert handle is not None
        exp.suspend()
        assert not handle.closed  # the fd belongs to the parent on fork


class TestGlobalWiring:
    def test_session_streams_through_the_singleton(self, streaming_singleton):
        """End-to-end: a traced CLI session with export on leaves all
        three export files behind."""
        from repro.cli import main

        tmp_path = streaming_singleton
        assert main(["trace", "--seed", "1"]) == 0
        assert EXPORTER.active
        assert (tmp_path / "events.jsonl").stat().st_size > 0
        assert (tmp_path / "metrics.prom").stat().st_size > 0
        snap = json.loads((tmp_path / "snapshot.json").read_text())
        assert snap["kind"] == "metrics-snapshot"
        for line in (tmp_path / "events.jsonl").read_text().splitlines():
            assert json.loads(line)["kind"] == "obs-event"

    def test_oracle_replays_are_isolated_from_export(
        self, streaming_singleton
    ):
        from repro.oracle.fuzzer import generate_trace
        from repro.oracle.replay import REFERENCE_CONFIG, applied, replay_trace

        tmp_path = streaming_singleton
        with applied(REFERENCE_CONFIG):
            assert not EXPORTER.active
        assert EXPORTER.active
        replay_trace(generate_trace(seed=1), REFERENCE_CONFIG)
        assert EXPORTER.active
        assert not (tmp_path / "events.jsonl").exists()
