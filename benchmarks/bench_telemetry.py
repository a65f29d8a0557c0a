"""Telemetry overhead, benchmarked at three altitudes.

The observability layer promises ≤5% hot-path overhead.  These rows
break that number down:

1. **Registry micro-ops** — a bound :class:`Counter` increment and the
   disabled-registry no-op, the two costs every instrumented call site
   pays (one of them, depending on whether telemetry is on).
2. **Exposition** — rendering a fully-populated registry to Prometheus
   text, the per-scrape cost (off the hot path, but bounds scrape rate).
3. **Service meso-benchmark** — the whole :class:`DetectionService`
   over the same stream with telemetry off vs on; the off/on ratio is
   the headline overhead number.  ``benchmarks/trajectory.py`` measures
   the same thing standalone and appends it to ``BENCH_telemetry.json``;
   this bench exists so pytest-benchmark's statistics cover it too.

Every service row records ``extra_info["packets"]`` and
``["packets_per_second"]``, matching ``bench_service.py``'s JSON shape.
"""

import pytest

from repro.service import DetectionService, StreamSource
from repro.telemetry import (
    MetricRegistry,
    NULL_REGISTRY,
    Telemetry,
    render_prometheus,
)
from trajectory import CONFIG, make_packets


@pytest.fixture(scope="module")
def telemetry_workload(params):
    count = max(5_000, int(1_500_000 * min(params.scale, 0.08)))
    return make_packets(count)


# ------------------------------------------------------------- micro-ops


def test_counter_inc(benchmark):
    registry = MetricRegistry()
    counter = registry.counter("bench_ops_total", "bench").labels()
    benchmark(counter.inc, 1)


def test_null_registry_noop(benchmark):
    """The disabled path every call site takes when telemetry is off."""
    counter = NULL_REGISTRY.counter("bench_ops_total", "bench").labels()
    benchmark(counter.inc, 1)


# ------------------------------------------------------------ exposition


def test_render_prometheus(benchmark, telemetry_workload):
    telemetry = Telemetry()
    service = DetectionService(CONFIG, shards=4, telemetry=telemetry)
    try:
        service.serve(StreamSource(telemetry_workload[:5_000]))
    finally:
        service.shutdown()
    text = benchmark(render_prometheus, telemetry.registry)
    assert "eardet_shard_ingest_packets_total" in text
    benchmark.extra_info["bytes"] = len(text)


# ------------------------------------------------- service off vs on


def _serve(packets, telemetry):
    service = DetectionService(CONFIG, shards=2, telemetry=telemetry)
    try:
        report = service.serve(StreamSource(packets))
    finally:
        service.shutdown()
    return report


@pytest.mark.parametrize("mode", ["off", "on"])
def test_service_telemetry(benchmark, telemetry_workload, mode):
    packets = telemetry_workload

    def run():
        telemetry = Telemetry() if mode == "on" else None
        return _serve(packets, telemetry)

    report = benchmark(run)
    assert report.packets == len(packets)
    benchmark.extra_info["packets"] = len(packets)
    benchmark.extra_info["packets_per_second"] = round(
        len(packets) / benchmark.stats.stats.min, 1
    ) if benchmark.stats is not None else None
    benchmark.extra_info["detected_flows"] = len(report.detections)
