"""Tests for the flight recorder, SLO evaluation, and health wiring."""

import pytest

from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    SloPolicy,
    Tracer,
    chrome_trace,
    evaluate_health,
    get_flight_recorder,
    get_registry,
    record_headroom,
    set_flight_recorder,
)
from repro.obs.health import LOW_HEADROOM_BITS


class TestFlightRecorder:
    def test_record_and_inspect(self):
        rec = FlightRecorder()
        rec.record("load_shed", tenant="t0", frame_id=3)
        rec.record("retry", severity="info")
        rec.record("load_shed")
        assert rec.counts() == {"load_shed": 2, "retry": 1}
        sheds = rec.events("load_shed")
        assert len(sheds) == 2
        assert sheds[0].tenant == "t0"
        assert sheds[0].attributes["frame_id"] == 3
        assert sheds[0].severity == "warning"

    def test_ring_is_bounded_and_counts_drops(self):
        rec = FlightRecorder(capacity=4)
        for i in range(10):
            rec.record("e", index=i)
        events = rec.events()
        assert len(events) == 4
        assert rec.dropped == 6
        # Oldest events fall off the front; the tail survives.
        assert [e.attributes["index"] for e in events] == [6, 7, 8, 9]

    def test_series_bounded(self):
        rec = FlightRecorder(series_capacity=8)
        for i in range(20):
            rec.sample("depth", float(i))
        series = rec.series()["depth"]
        assert len(series) == 8
        assert [v for _, v in series] == [float(v) for v in range(12, 20)]
        # Timestamps share the span clock and never run backwards.
        times = [t for t, _ in series]
        assert times == sorted(times)

    def test_clear(self):
        rec = FlightRecorder(capacity=1)
        rec.record("a")
        rec.record("b")
        rec.sample("s", 1.0)
        rec.clear()
        assert rec.events() == [] and rec.series() == {} and rec.dropped == 0

    def test_global_swap(self):
        mine = FlightRecorder()
        previous = set_flight_recorder(mine)
        try:
            assert get_flight_recorder() is mine
        finally:
            set_flight_recorder(previous)


class TestRecordHeadroom:
    def test_publishes_gauge_window_and_series(self):
        record_headroom(42.5, engine="tensor", tenant="t1")
        reg = get_registry()
        assert reg.gauge("fhe.noise.headroom_bits", engine="tensor", tenant="t1").value == 42.5
        window = reg.histogram("fhe.noise.headroom.window", engine="tensor", tenant="t1")
        assert window.summary()["min"] == 42.5
        assert get_flight_recorder().series()["fhe.noise.headroom_bits/t1"][-1][1] == 42.5
        assert get_flight_recorder().events("low_headroom") == []

    def test_threshold_crossing_files_warning_then_critical(self):
        record_headroom(LOW_HEADROOM_BITS - 1.0, engine="scalar")
        record_headroom(-3.0, engine="scalar")
        events = get_flight_recorder().events("low_headroom")
        assert [e.severity for e in events] == ["warning", "critical"]
        assert events[1].attributes["headroom_bits"] == -3.0
        assert events[1].attributes["engine"] == "scalar"

    def test_untenanted_series_goes_to_default_track(self):
        record_headroom(30.0, engine="bsgs")
        assert "fhe.noise.headroom_bits/default" in get_flight_recorder().series()


class TestEvaluateHealth:
    def _tenant_registry(self, latencies=(0.01, 0.02), lost=0):
        reg = MetricsRegistry()
        h = reg.histogram("service.tenant.frame_latency.seconds", tenant="t0")
        for v in latencies:
            h.observe(v)
        reg.gauge("service.frames.lost", tenant="t0").set(lost)
        return reg

    def test_healthy_tenant(self):
        report = evaluate_health(
            registry=self._tenant_registry(), recorder=FlightRecorder()
        )
        assert report.healthy
        assert [s.tenant for s in report.statuses] == ["t0"]
        assert report.statuses[0].ok
        assert report.statuses[0].frame_loss == 0

    def test_latency_violation(self):
        reg = self._tenant_registry(latencies=(5.0, 6.0))
        report = evaluate_health(registry=reg, recorder=FlightRecorder())
        assert not report.healthy
        assert any("p99" in v for v in report.statuses[0].violations)

    def test_frame_loss_violation(self):
        reg = self._tenant_registry(lost=2)
        report = evaluate_health(registry=reg, recorder=FlightRecorder())
        assert not report.healthy
        assert any("frame loss" in v for v in report.statuses[0].violations)

    def test_headroom_violation_uses_window_minimum(self):
        reg = self._tenant_registry()
        w = reg.histogram("fhe.noise.headroom.window", engine="tensor", tenant="t0")
        w.observe(80.0)
        w.observe(3.0)  # transient dip — the window min must catch it
        policy = SloPolicy(min_noise_headroom_bits=10.0)
        report = evaluate_health(
            registry=reg, recorder=FlightRecorder(), policy=policy
        )
        assert report.statuses[0].min_headroom_bits == 3.0
        assert not report.healthy

    def test_critical_event_flips_healthy(self):
        rec = FlightRecorder()
        rec.record("low_headroom", severity="critical")
        report = evaluate_health(registry=self._tenant_registry(), recorder=rec)
        assert report.critical_events == 1
        assert not report.healthy
        assert report.event_counts == {"low_headroom": 1}

    def test_missing_objectives_are_skipped_not_violations(self):
        reg = MetricsRegistry()
        reg.histogram("service.tenant.frame_latency.seconds", tenant="t0").observe(0.1)
        report = evaluate_health(registry=reg, recorder=FlightRecorder())
        s = report.statuses[0]
        assert s.frame_loss is None and s.min_headroom_bits is None
        assert s.ok and report.healthy

    def test_one_tenant_run_reports_under_its_tenant_id(self):
        from repro.service import MultiTenantConfig, MultiTenantService, TenantSpec

        reg = MetricsRegistry()
        camera = TenantSpec("camera", sessions=1, frames_per_session=4)
        config = MultiTenantConfig(tenants=(camera,), n_shards=1, workers_per_shard=2)
        MultiTenantService(config, registry=reg, tracer=Tracer()).run()
        # An unlabeled latency histogram is no longer scored as a
        # pseudo-tenant: only tenant-labeled windows are.
        reg.histogram("service.frame_latency.seconds").observe(0.05)
        report = evaluate_health(registry=reg, recorder=FlightRecorder())
        assert [s.tenant for s in report.statuses] == ["camera"]
        status = report.statuses[0]
        assert status.frame_loss == 0
        assert status.p99_latency_seconds is not None
        assert report.healthy

    def test_no_traffic_still_reports(self):
        report = evaluate_health(registry=MetricsRegistry(), recorder=FlightRecorder())
        assert report.statuses == ()
        assert report.healthy
        assert "(no tenant traffic observed)" in report.render()

    def test_report_round_trips_and_renders(self):
        rec = FlightRecorder()
        rec.record("retry", severity="info")
        report = evaluate_health(registry=self._tenant_registry(lost=1), recorder=rec)
        payload = report.to_dict()
        assert payload["healthy"] is False
        assert payload["tenants"][0]["tenant"] == "t0"
        assert payload["events"] == {"retry": 1}
        text = report.render()
        assert "t0" in text and "UNHEALTHY" in text and "retry=1" in text


class TestPerfettoCounterTracks:
    def test_series_export_as_counter_events(self):
        tracer = Tracer()
        with tracer.span("work"):
            rec = FlightRecorder()
            rec.sample("service.uplink.depth", 1.0)
            rec.sample("service.uplink.depth", 3.0)
            rec.sample("fhe.noise.headroom_bits/default", 55.0)
        trace = chrome_trace(tracer, counters=rec)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert {e["name"] for e in counters} == {
            "service.uplink.depth",
            "fhe.noise.headroom_bits/default",
        }
        depth = [e for e in counters if e["name"] == "service.uplink.depth"]
        assert [e["args"]["value"] for e in depth] == [1.0, 3.0]
        # Shared epoch: samples taken inside the span land within it.
        span = next(e for e in trace["traceEvents"] if e["ph"] == "X")
        for e in counters:
            assert span["ts"] <= e["ts"] <= span["ts"] + span["dur"]
        assert all(e["ts"] >= 0 for e in counters)

    def test_counters_without_spans_still_anchor_epoch(self):
        rec = FlightRecorder()
        rec.sample("depth", 2.0)
        trace = chrome_trace([], counters=rec)
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert len(counters) == 1 and counters[0]["ts"] == 0.0

    def test_plain_mapping_accepted(self):
        trace = chrome_trace([], counters={"d": [(0.0, 1.0), (0.5, 2.0)]})
        counters = [e for e in trace["traceEvents"] if e["ph"] == "C"]
        assert [e["args"]["value"] for e in counters] == [1.0, 2.0]


class TestNonceEarlyWarning:
    def test_ninety_percent_crossing_fires_once(self):
        from repro.apps.video import NonceSequence

        seq = NonceSequence(start=0, limit=9)  # capacity 10 -> warn at 9th
        for _ in range(8):
            seq.next()
        assert get_flight_recorder().events("nonce_near_exhaustion") == []
        seq.next()  # 9/10 issued: crossing
        events = get_flight_recorder().events("nonce_near_exhaustion")
        assert len(events) == 1
        assert events[0].attributes == {"issued": 9, "remaining": 1, "capacity": 10}
        assert get_registry().gauge("pasta.nonce.remaining").value == 1
        seq.next()  # exhaust: no duplicate warning
        assert len(get_flight_recorder().events("nonce_near_exhaustion")) == 1

    def test_exhaustion_still_raises(self):
        from repro.apps.video import NonceSequence
        from repro.errors import NonceReuseError

        seq = NonceSequence(start=0, limit=1)
        seq.next()
        seq.next()
        with pytest.raises(NonceReuseError):
            seq.next()


class TestCacheEvictionBurst:
    def test_burst_recorded_single_evictions_silent(self):
        from repro.utils.budget import EVICTION_BURST, BudgetedLru, CacheBudget

        budget = CacheBudget(capacity=10.0)
        lru = BudgetedLru("t0", budget=budget)
        for i in range(10):
            lru.get_or_create(("k", i), lambda: object())
        assert get_flight_recorder().events("cache_evictions") == []
        # One oversized charge forces a burst of >= EVICTION_BURST evictions.
        budget.charge("t0", float(EVICTION_BURST))
        events = get_flight_recorder().events("cache_evictions")
        assert len(events) == 1
        assert events[0].attributes["owner"] == "t0"
        assert events[0].attributes["evicted"] >= EVICTION_BURST
