"""Unit tests for the span tracer (repro.obs.tracer)."""

import json
import threading

import pytest

from repro.obs.knobs import TRACE_PATH_ENV
from repro.obs.tracer import (
    SpanTracer,
    flush_tracer,
    get_tracer,
    install_tracer,
    set_tracer,
    span,
    tracer_from_env,
)


@pytest.fixture(autouse=True)
def _no_installed_tracer():
    """Each test starts and ends with no process tracer installed."""
    set_tracer(None)
    yield
    set_tracer(None)


class TestSpanRecording:
    def test_complete_event_fields(self):
        tracer = SpanTracer(capacity=16)
        with tracer.span("work", cat="test", n=3):
            pass
        (event,) = tracer.events()
        assert event["name"] == "work"
        assert event["cat"] == "test"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
        assert event["args"] == {"n": 3}

    def test_span_records_on_exception(self):
        tracer = SpanTracer(capacity=16)
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        (event,) = tracer.events()
        assert event["args"]["error"] == "RuntimeError"

    def test_instant_event(self):
        tracer = SpanTracer(capacity=16)
        tracer.instant("mark", x=1)
        (event,) = tracer.events()
        assert event["ph"] == "i"
        assert event["args"] == {"x": 1}

    def test_ring_buffer_drops_oldest(self):
        tracer = SpanTracer(capacity=3)
        for i in range(5):
            tracer.instant(f"e{i}")
        names = [e["name"] for e in tracer.events()]
        assert names == ["e2", "e3", "e4"]
        assert tracer.dropped == 2


class TestFlush:
    def test_flush_writes_perfetto_loadable_json(self, tmp_path):
        path = tmp_path / "trace.json"
        tracer = SpanTracer(path=str(path), capacity=16)
        with tracer.span("work"):
            pass
        out = tracer.flush()
        doc = json.loads(path.read_text())
        assert out == str(path)
        assert isinstance(doc["traceEvents"], list)
        assert doc["traceEvents"][0]["name"] == "work"
        assert not list(tmp_path.glob("*.tmp"))

    def test_concurrent_flushes_leave_one_whole_trace(self, tmp_path):
        # A serving daemon's reaper thread and the CLI's exit path both
        # flush the process tracer; released together they must neither
        # tear the file nor strand a temp file.
        path = tmp_path / "trace.json"
        tracer = SpanTracer(path=str(path), capacity=4096)
        for k in range(2000):
            tracer.instant("e", k=k)
        barrier = threading.Barrier(2)
        errors = []

        def flush():
            try:
                barrier.wait()
                tracer.flush()
            except BaseException as exc:  # surfaced by the assert below
                errors.append(exc)

        threads = [threading.Thread(target=flush) for _ in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        doc = json.loads(path.read_text())
        assert len(doc["traceEvents"]) == 2000
        assert sorted(p.name for p in tmp_path.iterdir()) == ["trace.json"]

    def test_flush_without_path_raises(self):
        with pytest.raises(ValueError):
            SpanTracer(capacity=4).flush()


class TestModuleLevelHelpers:
    def test_span_is_noop_without_tracer(self):
        with span("anything", k=1):
            pass  # no tracer installed: must not raise, records nothing
        assert get_tracer() is None
        assert flush_tracer() is None

    def test_install_and_flush(self, tmp_path):
        path = tmp_path / "trace.json"
        install_tracer(str(path), capacity=8)
        with span("driver.step", cat="test"):
            pass
        assert flush_tracer() == str(path)
        doc = json.loads(path.read_text())
        assert [e["name"] for e in doc["traceEvents"]] == ["driver.step"]

    def test_tracer_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_PATH_ENV, raising=False)
        assert tracer_from_env() is None
        path = tmp_path / "trace.json"
        monkeypatch.setenv(TRACE_PATH_ENV, str(path))
        tracer = tracer_from_env()
        assert tracer is get_tracer()
        assert tracer.path == str(path)
