"""Flight recorder: sampling, failure capture, span trees, dumps."""

import json
import signal
import threading

import pytest

from repro.obs import FlightRecorder, Tracer, current_recorder, use_recorder
from repro.obs import recorder as obs_recorder
from repro.obs import trace as obs_trace


class TestSampling:
    def test_every_nth_request_kept(self):
        rec = FlightRecorder(capacity=64, sample_every=4)
        for _ in range(8):
            with rec.begin(backend="vnm") as probe:
                pass
            probe.finish("ok")
        assert len(rec) == 2  # seq 4 and 8
        assert all(e.sampled for e in rec.exemplars())
        assert rec.n_requests == 8

    def test_unsampled_ok_requests_cost_nothing_retained(self):
        rec = FlightRecorder(capacity=64, sample_every=1000)
        for _ in range(10):
            with rec.begin() as probe:
                pass
            probe.finish("ok")
        assert len(rec) == 0

    def test_every_failure_kept_regardless_of_sampling(self):
        rec = FlightRecorder(capacity=64, sample_every=1000)
        for i in range(6):
            with rec.begin(backend="vnm") as probe:
                pass
            if i % 2:
                probe.finish("error", error=RuntimeError(f"boom {i}"))
            else:
                probe.finish("ok")
        assert len(rec) == 3
        assert rec.n_failures == 3
        assert all(e.status == "error" for e in rec.exemplars())

    def test_ring_is_bounded(self):
        rec = FlightRecorder(capacity=4, sample_every=1)
        for _ in range(20):
            with rec.begin() as probe:
                pass
            probe.finish("ok")
        assert len(rec) == 4
        assert [e.seq for e in rec.exemplars()] == [17, 18, 19, 20]

    def test_finish_is_idempotent(self):
        rec = FlightRecorder(sample_every=1)
        with rec.begin() as probe:
            pass
        probe.finish("ok")
        probe.finish("error", error="late")  # ignored
        assert len(rec) == 1
        assert rec.exemplars()[0].status == "ok"

    def test_validation(self):
        with pytest.raises(ValueError):
            FlightRecorder(capacity=0)
        with pytest.raises(ValueError):
            FlightRecorder(sample_every=0)


class TestSpanTrees:
    def test_sampled_request_installs_local_tracer(self):
        rec = FlightRecorder(sample_every=1)
        assert not obs_trace.tracing_enabled()
        with rec.begin() as probe:
            assert obs_trace.tracing_enabled()
            with obs_trace.span("serve.request"):
                with obs_trace.span("serve.kernel"):
                    pass
        assert not obs_trace.tracing_enabled()  # restored
        probe.finish("ok")
        tree = rec.exemplars()[0].span_tree
        assert tree["name"] == "serve.request"
        assert tree["children"][0]["name"] == "serve.kernel"

    def test_existing_tracer_not_displaced(self):
        rec = FlightRecorder(sample_every=1)
        with obs_trace.use_tracer() as tracer:
            with rec.begin() as probe:
                assert obs_trace.current_tracer() is tracer
                with obs_trace.span("serve.request"):
                    pass
            probe.finish("ok")
        # Trace went to the user's tracer, not a probe-local one.
        assert [r.name for r in tracer.roots] == ["serve.request"]

    def test_unsampled_failure_gets_synthesized_error_tree(self):
        rec = FlightRecorder(sample_every=1000)
        with rec.begin(backend="vnm", h=64) as probe:
            pass
        probe.finish("error", error=ValueError("bad operand"))
        tree = rec.exemplars()[0].span_tree
        assert tree["status"] == "error"
        assert "ValueError" in tree["error"]
        assert tree["attrs"]["backend"] == "vnm"
        assert tree["children"] == []


class TestObserve:
    def test_direct_observation_without_probe(self):
        rec = FlightRecorder(sample_every=1)
        rec.observe("ok", latency=0.002, backend="csr", h=8)
        e = rec.exemplars()[0]
        assert e.backend == "csr" and e.h == 8
        assert e.latency == 0.002

    def test_observe_failure_always_kept(self):
        rec = FlightRecorder(sample_every=1000)
        rec.observe("error", latency=0.1, error=RuntimeError("x"))
        rec.observe("shed", shed_reason="queue_full")
        assert len(rec) == 2

    def test_unknown_fields_land_in_extra(self):
        rec = FlightRecorder(sample_every=1)
        rec.observe("ok", custom_field="hello")
        e = rec.exemplars()[0]
        assert e.extra["custom_field"] == "hello"
        assert e.to_dict()["custom_field"] == "hello"


class TestDumps:
    def test_dump_shape(self):
        rec = FlightRecorder(sample_every=1)
        rec.observe("error", error="x")
        payload = rec.dump(reason="test")
        assert payload["reason"] == "test"
        assert payload["failures"] == 1
        assert payload["exemplars"][0]["status"] == "error"
        json.dumps(payload)  # must be JSON-able

    def test_dump_json_writes_file(self, tmp_path):
        rec = FlightRecorder(sample_every=1, dump_dir=tmp_path)
        rec.observe("ok")
        path = rec.dump_json(reason="unit")
        assert path.parent == tmp_path
        data = json.loads(path.read_text())
        assert data["reason"] == "unit"
        assert rec.dumps == [str(path)]


class TestModuleRecorder:
    def test_off_by_default(self):
        assert current_recorder() is None
        assert obs_recorder.crash_dump("nothing") is None  # no-op, no raise

    def test_use_recorder_scopes(self):
        with use_recorder() as rec:
            assert current_recorder() is rec
        assert current_recorder() is None

    def test_crash_dump_records_and_writes(self, tmp_path):
        rec = FlightRecorder(sample_every=1000, dump_dir=tmp_path)
        with use_recorder(rec):
            path = obs_recorder.crash_dump("worker_crash_loop",
                                           error="3 restarts in 10s")
        data = json.loads(path.read_text())
        assert data["reason"] == "worker_crash_loop"
        assert any("3 restarts" in (e.get("error") or "")
                   for e in data["exemplars"])

    def test_signal_dump_installs_and_fires(self, tmp_path):
        rec = FlightRecorder(sample_every=1, dump_dir=tmp_path)
        previous = signal.getsignal(signal.SIGUSR1)
        try:
            with use_recorder(rec):
                assert obs_recorder.install_signal_dump() is True
                rec.observe("ok")
                signal.raise_signal(signal.SIGUSR1)
            assert len(rec.dumps) == 1
            assert json.loads(
                # the handler dumps with reason="signal"
                (tmp_path / rec.dumps[0].split("/")[-1]).read_text()
            )["reason"] == "signal"
        finally:
            signal.signal(signal.SIGUSR1, previous)

    def test_signal_dump_refused_off_main_thread(self):
        results = []
        t = threading.Thread(
            target=lambda: results.append(obs_recorder.install_signal_dump()))
        t.start()
        t.join()
        assert results == [False]


class TestTracerAttrsMark:
    def test_adopted_records_marked(self):
        tracer = Tracer()
        worker = Tracer()
        with obs_trace.use_tracer(worker):
            with obs_trace.span("stage1"):
                pass
        record = worker.roots[0]
        tracer.adopt(record)
        assert record.attrs["worker_adopted"] is True
