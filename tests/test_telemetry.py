"""The telemetry subsystem: registry exactness, exposition format,
tracing, the HTTP server, and the never-perturb-detection contract."""

import json
import random
import urllib.request

import pytest

from repro.core.config import EARDetConfig
from repro.model.packet import Packet
from repro.service import (
    DetectionService,
    FaultPlan,
    ShardServer,
    StreamSource,
)
from repro.service.health import ShardHealth
from repro.telemetry import (
    CONTENT_TYPE_JSON,
    CONTENT_TYPE_PROMETHEUS,
    Counter,
    Gauge,
    Histogram,
    MetricError,
    MetricRegistry,
    MetricsServer,
    NULL_REGISTRY,
    NULL_TRACER,
    ServiceInstruments,
    Telemetry,
    Tracer,
    render_json,
    render_prometheus,
)

CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518,
    beta_l=1000, gamma_l=50_000,
)


def make_packets(count=5000, heavy_share=0.1, seed=7, flows=50):
    rng = random.Random(seed)
    packets = []
    t = 0
    for i in range(count):
        t += rng.randint(500, 2000)
        if rng.random() < heavy_share:
            fid = f"h{i % 3}"
        else:
            fid = f"f{rng.randrange(flows)}"
        packets.append(
            Packet(time=t, size=rng.choice((64, 576, 1518)), fid=fid)
        )
    return packets


# ------------------------------------------------------------- primitives


class TestCounter:
    def test_inc(self):
        counter = Counter()
        counter.inc()
        counter.inc(41)
        assert counter.value == 42

    def test_negative_inc_rejected(self):
        with pytest.raises(MetricError):
            Counter().inc(-1)

    def test_set_total_tracks_external_accumulator(self):
        counter = Counter()
        counter.set_total(100)
        counter.set_total(250)
        assert counter.value == 250

    def test_set_total_survives_rewind_monotonically(self):
        """A supervised restart resumes the engine's accumulators from
        the checkpoint boundary, below the pre-crash peak; the exposed
        series must stay monotone (Prometheus counter-reset semantics)."""
        counter = Counter()
        counter.set_total(100)
        counter.set_total(40)       # rewind: adopt baseline, keep value
        assert counter.value == 100
        counter.set_total(90)       # progress past the new baseline
        assert counter.value == 150

    def test_negative_total_rejected(self):
        with pytest.raises(MetricError):
            Counter().set_total(-1)


class TestGauge:
    def test_unknown_until_set(self):
        gauge = Gauge()
        assert gauge.value is None
        gauge.set(7)
        assert gauge.value == 7
        gauge.set(None)
        assert gauge.value is None

    def test_inc_dec_treat_unknown_as_zero(self):
        gauge = Gauge()
        gauge.inc(3)
        gauge.dec()
        assert gauge.value == 2

    def test_non_int_rejected(self):
        with pytest.raises(MetricError):
            Gauge().set(1.5)


class TestHistogram:
    def test_bucket_placement_le_inclusive(self):
        histogram = Histogram((10, 20, 30))
        for value in (5, 10, 15, 100):
            histogram.observe(value)
        assert histogram.cumulative_buckets() == [
            (10, 2), (20, 3), (30, 3), (None, 4),
        ]
        assert histogram.sum == 130
        assert histogram.count == 4

    def test_boundaries_must_increase(self):
        with pytest.raises(MetricError):
            Histogram((10, 10))
        with pytest.raises(MetricError):
            Histogram(())
        with pytest.raises(MetricError):
            Histogram((1, 2.5))


class TestRegistry:
    def test_labeled_children_and_proxy(self):
        registry = MetricRegistry()
        family = registry.counter("x_total", "x", labels=("shard",))
        family.labels("0").inc(2)
        family.labels(shard="0").inc(3)  # same child either way
        assert family.labels(0).value == 5  # values are stringified
        with pytest.raises(MetricError):
            family.inc()  # labeled family has no unlabeled proxy

    def test_unlabeled_family_proxies_directly(self):
        registry = MetricRegistry()
        family = registry.counter("y_total", "y")
        family.inc(9)
        assert family.value == 9

    def test_redeclare_is_idempotent_conflict_raises(self):
        registry = MetricRegistry()
        first = registry.counter("z_total", "z")
        assert registry.counter("z_total", "z") is first
        with pytest.raises(MetricError):
            registry.gauge("z_total", "z")
        with pytest.raises(MetricError):
            registry.counter("z_total", "z", labels=("shard",))

    def test_name_and_label_grammar(self):
        registry = MetricRegistry()
        with pytest.raises(MetricError):
            registry.counter("bad name", "x")
        with pytest.raises(MetricError):
            registry.counter("ok_total", "x", labels=("bad-label",))
        with pytest.raises(MetricError):
            registry.counter("ok_total", "x", labels=("__reserved",))

    def test_histogram_requires_buckets(self):
        with pytest.raises(MetricError):
            MetricRegistry()._declare("h", "h", Histogram, (), None)


class TestNullRegistry:
    """The telemetry-off fast path: one shared inert object, no state."""

    def test_every_factory_returns_the_same_inert_metric(self):
        a = NULL_REGISTRY.counter("a_total", "a")
        b = NULL_REGISTRY.gauge("b", "b", labels=("shard",))
        c = NULL_REGISTRY.histogram("c", "c", buckets=(1, 2))
        assert a is b is c
        assert a.labels("anything") is a

    def test_operations_are_noops(self):
        metric = NULL_REGISTRY.counter("a_total", "a")
        metric.inc(5)
        metric.set_total(10)
        metric.set(3)
        metric.observe(7)
        assert metric.value is None

    def test_invisible_to_exposition(self):
        NULL_REGISTRY.counter("a_total", "a").inc()
        assert not NULL_REGISTRY.enabled
        assert len(NULL_REGISTRY) == 0
        assert render_prometheus(NULL_REGISTRY) == ""


# ------------------------------------------------------------- exposition


class TestPrometheusExposition:
    def test_help_type_and_samples(self):
        registry = MetricRegistry()
        registry.counter("req_total", "Requests.").inc(3)
        text = render_prometheus(registry)
        assert "# HELP req_total Requests." in text
        assert "# TYPE req_total counter" in text
        assert "req_total 3" in text.splitlines()

    def test_label_value_escaping(self):
        registry = MetricRegistry()
        family = registry.counter("esc_total", "x", labels=("fid",))
        family.labels('a"b\\c\nd').inc()
        text = render_prometheus(registry)
        assert 'esc_total{fid="a\\"b\\\\c\\nd"} 1' in text

    def test_help_escaping(self):
        registry = MetricRegistry()
        registry.counter("h_total", "line\nbreak \\ slash")
        assert "# HELP h_total line\\nbreak \\\\ slash" in render_prometheus(
            registry
        )

    def test_histogram_series_are_consistent(self):
        registry = MetricRegistry()
        histogram = registry.histogram("lat_ns", "x", buckets=(100, 1000))
        for value in (50, 500, 5000):
            histogram.observe(value)
        lines = render_prometheus(registry).splitlines()
        buckets = [line for line in lines if line.startswith("lat_ns_bucket")]
        assert buckets == [
            'lat_ns_bucket{le="100"} 1',
            'lat_ns_bucket{le="1000"} 2',
            'lat_ns_bucket{le="+Inf"} 3',
        ]
        # le values ascend and +Inf is last; _count equals the +Inf bucket.
        assert "lat_ns_sum 5550" in lines
        assert "lat_ns_count 3" in lines

    def test_unknown_gauge_renders_nan_and_stays_present(self):
        registry = MetricRegistry()
        registry.gauge("depth", "x")
        assert "depth NaN" in render_prometheus(registry)

    def test_json_payload_shape(self):
        registry = MetricRegistry()
        registry.counter("c_total", "c", labels=("shard",)).labels("0").inc(4)
        tracer = Tracer(registry)
        with tracer.span("step"):
            pass
        payload = render_json(registry, tracer)
        names = {family["name"] for family in payload["metrics"]}
        assert {"c_total", "eardet_span_duration_ns"} <= names
        family = next(f for f in payload["metrics"] if f["name"] == "c_total")
        assert family["samples"] == [{"labels": {"shard": "0"}, "value": 4}]
        assert payload["spans"]["finished"] == 1
        json.dumps(payload)  # JSON-safe end to end


# ---------------------------------------------------------------- tracing


class TestTracer:
    def test_span_times_and_feeds_histogram(self):
        registry = MetricRegistry()
        tracer = Tracer(registry)
        with tracer.span("work", shard=3) as span:
            pass
        assert span.duration_ns is not None and span.duration_ns >= 0
        assert span.tags == {"shard": "3"}
        family = registry.get("eardet_span_duration_ns")
        assert family.labels("work").count == 1

    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=2)
        for index in range(3):
            with tracer.span(f"s{index}"):
                pass
        assert [span.name for span in tracer.recent()] == ["s1", "s2"]
        assert tracer.finished == 3
        assert [span.name for span in tracer.recent("s2")] == ["s2"]

    def test_null_tracer_hands_out_shared_noop_span(self):
        first = NULL_TRACER.span("a")
        second = NULL_TRACER.span("b", shard=1)
        assert first is second
        with first:
            pass
        assert NULL_TRACER.recent() == []


# ------------------------------------------------------------ HTTP server


class TestMetricsServer:
    def _get(self, url):
        with urllib.request.urlopen(url, timeout=5) as response:
            return response.status, response.headers["Content-Type"], \
                response.read().decode()

    def test_endpoints_end_to_end(self):
        registry = MetricRegistry()
        registry.counter("up_total", "x").inc(7)
        tracer = Tracer(registry)
        with tracer.span("probe"):
            pass
        with MetricsServer(registry, tracer) as server:
            assert server.running and server.port != 0
            status, ctype, body = self._get(f"{server.url}/metrics")
            assert status == 200 and ctype == CONTENT_TYPE_PROMETHEUS
            assert "up_total 7" in body
            status, ctype, body = self._get(f"{server.url}/metrics.json")
            assert status == 200 and ctype == CONTENT_TYPE_JSON
            payload = json.loads(body)
            assert payload["spans"]["finished"] == 1
            status, _, body = self._get(f"{server.url}/healthz")
            assert status == 200 and body == "ok\n"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                self._get(f"{server.url}/nope")
            assert excinfo.value.code == 404
        assert not server.running
        server.stop()  # idempotent

    def test_rejects_bad_port(self):
        with pytest.raises(ValueError):
            MetricsServer(MetricRegistry(), port=70000)


# ----------------------------------------------------------- shard health


class TestShardHealthRoundTrip:
    def test_as_dict_from_dict_round_trip(self):
        health = ShardHealth(
            shard=2, packets=100, queue_depth=3, queue_capacity=64,
            detections=4, blacklist_size=5, dropped=6, queue_high_water=9,
            last_packet_ts_ns=123_456,
        )
        data = health.as_dict()
        assert data["queue_high_water"] == 9
        assert data["last_packet_ts_ns"] == 123_456
        assert ShardHealth.from_dict(data) == health

    def test_from_dict_tolerates_pre_telemetry_payloads(self):
        data = ShardHealth(
            shard=0, packets=1, queue_depth=0, queue_capacity=64,
            detections=0, blacklist_size=0, dropped=0,
        ).as_dict()
        del data["queue_high_water"]
        del data["last_packet_ts_ns"]
        health = ShardHealth.from_dict(data)
        assert health.queue_high_water == 0
        assert health.last_packet_ts_ns is None


# ------------------------------------------------------- service contract


class TestServiceTelemetry:
    def _serve(self, packets, telemetry=None, **kwargs):
        service = DetectionService(
            CONFIG, shards=2, telemetry=telemetry, **kwargs
        )
        try:
            report = service.serve(StreamSource(packets))
        finally:
            service.shutdown()
        return report

    def test_detections_bit_identical_with_and_without(self):
        packets = make_packets()
        baseline = self._serve(packets)
        telemetry = Telemetry()
        instrumented = self._serve(packets, telemetry=telemetry)
        assert instrumented.detections == baseline.detections
        assert instrumented.packets == baseline.packets

    def test_metrics_reflect_the_run_exactly(self):
        packets = make_packets()
        telemetry = Telemetry()
        report = self._serve(packets, telemetry=telemetry)
        registry = telemetry.registry
        assert registry.get("eardet_ingested_packets_total").value == len(
            packets
        )
        shard_ingest = registry.get("eardet_shard_ingest_packets_total")
        per_shard = [metric.value for _, metric in shard_ingest.collect()]
        assert sum(per_shard) == len(packets)
        detections = registry.get("eardet_shard_detections_total")
        assert sum(
            metric.value for _, metric in detections.collect()
        ) == len(report.detections)
        for _, metric in registry.get("eardet_shard_exact").collect():
            assert metric.value == 1
        for _, metric in registry.get(
            "eardet_shard_first_loss_time_ns"
        ).collect():
            assert metric.value is None  # exact run: loss time unknown/absent
        high_water = registry.get("eardet_shard_queue_high_water")
        assert all(
            metric.value >= 0 for _, metric in high_water.collect()
        )

    def test_loss_flips_exact_gauge_and_stamps_first_loss(self):
        packets = make_packets(2000)
        telemetry = Telemetry()
        plan = FaultPlan.parse("drop:shard=0,at=100,count=5")
        report = self._serve(packets, telemetry=telemetry, fault_plan=plan)
        assert not report.exact
        registry = telemetry.registry
        exact = registry.get("eardet_shard_exact")
        assert exact.labels("0").value == 0
        first_loss = registry.get("eardet_shard_first_loss_time_ns")
        assert first_loss.labels("0").value is not None

    def test_registry_survives_resume(self, tmp_path):
        """One registry spans a checkpoint/restore cycle: the resumed
        engine's accumulators rewind to the checkpoint boundary, the
        exposed counters never do."""
        packets = make_packets(3000)
        path = tmp_path / "svc.ckpt"
        telemetry = Telemetry()
        service = DetectionService(
            CONFIG, shards=2, telemetry=telemetry,
            checkpoint_path=str(path), checkpoint_every=500,
        )
        try:
            service.serve(StreamSource(packets[:2000]))
        finally:
            service.shutdown()
        peak = telemetry.registry.get("eardet_ingested_packets_total").value
        resumed = DetectionService.resume(str(path), telemetry=telemetry)
        try:
            resumed.serve(StreamSource(packets[resumed.ingested:]))
        finally:
            resumed.shutdown()
        total = telemetry.registry.get("eardet_ingested_packets_total").value
        assert total >= peak
        assert telemetry.registry.get(
            "eardet_checkpoints_written_total"
        ).value >= 1

    def test_validation_schema_is_zero_filled(self):
        from repro.guard import GuardPolicy, StreamValidator

        validator = StreamValidator(GuardPolicy.strict())
        list(validator.iter_validated(make_packets(100)))
        violations = validator.stats.as_dict()["violations"]
        assert violations == {
            "negative-time": 0,
            "time-regression": 0,
            "size-range": 0,
            "fid-invalid": 0,
        }

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "kind", ["inprocess", "multiprocess", "remote"]
    )
    def test_queue_gauges_agree_with_health(self, kind):
        """The per-shard queue gauges use the transport's own unit —
        staged packets, in-flight chunks, unacked frames — against the
        capacity :meth:`health` reports for that unit."""
        servers = [
            ShardServer().start() for _ in range(2 if kind == "remote" else 0)
        ]
        options = (
            {"workers": [(s.host, s.port) for s in servers]} if servers
            else None
        )
        telemetry = Telemetry()
        samples = []

        def sample(service):
            registry = telemetry.registry
            depth = registry.get("eardet_shard_queue_depth")
            capacity = registry.get("eardet_shard_queue_capacity")
            samples.append([
                (
                    depth.labels(str(h.shard)).value,
                    capacity.labels(str(h.shard)).value,
                    h.queue_capacity,
                )
                for h in service.engine.health()
            ])

        try:
            service = DetectionService(
                CONFIG, shards=2, batch_size=1000, engine=kind,
                telemetry=telemetry, engine_options=options,
            )
            try:
                service.serve(
                    StreamSource(make_packets(3000)), on_progress=sample
                )
            finally:
                service.shutdown()
        finally:
            for server in servers:
                server.stop()
        assert len(samples) == 3
        for shards in samples:
            assert len(shards) == 2
            for depth, capacity, health_capacity in shards:
                assert depth <= capacity
                assert capacity == health_capacity

    def test_disabled_telemetry_is_inert(self):
        telemetry = Telemetry.disabled()
        assert not telemetry.enabled
        instruments = ServiceInstruments(telemetry)
        assert not instruments.enabled
        assert telemetry.render_prometheus() == ""


# ------------------------------------------------------------- CLI wiring


class TestMetricsCli:
    def _write_trace(self, tmp_path, count=2000):
        from repro.traffic.trace_io import write_csv

        path = tmp_path / "trace.csv"
        write_csv(path, make_packets(count))
        return path

    def test_serve_metrics_out(self, tmp_path, capsys):
        from repro.cli import main

        trace = self._write_trace(tmp_path)
        out_path = tmp_path / "final.prom"
        code = main(
            [
                "serve", "--trace", str(trace), "--rho", "1000000",
                "--gamma-l", "25000", "--beta-l", "1000",
                "--gamma-h", "200000", "--shards", "2",
                "--metrics-out", str(out_path),
            ]
        )
        assert code == 0
        text = out_path.read_text()
        assert "eardet_ingested_packets_total 2000" in text
        assert 'eardet_shard_ingest_packets_total{shard="0"}' in text

    def test_metrics_command_scrapes_a_live_server(self, capsys):
        from repro.cli import main

        registry = MetricRegistry()
        registry.counter("eardet_up_total", "x").inc(1)
        with MetricsServer(registry) as server:
            code = main(["metrics", "--metrics-port", str(server.port)])
            assert code == 0
            assert "eardet_up_total 1" in capsys.readouterr().out
            code = main(
                ["metrics", "--metrics-port", str(server.port), "--json"]
            )
            assert code == 0
            payload = json.loads(capsys.readouterr().out)
            assert payload["metrics"][0]["name"] == "eardet_up_total"

    def test_metrics_command_requires_port(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["metrics"])
