"""Pre-declared instrument bundles for the detection service.

This module is the bridge between the generic registry and the
service's hot paths.  Two design rules keep the ≤5% overhead budget
(measured by ``benchmarks/trajectory.py``):

1. **Exact counters are synced, not duplicated.**  The runtime already
   keeps exact integer accounting everywhere (``EARDetStats``, the
   engines' per-shard ``routed``/``dropped`` arrays,
   ``ValidationStats``, ``DeadLetterSink.total``).  Instruments copy
   those accumulators into the registry with ``set_total`` — monotone,
   exact, and one call per *batch* instead of one per packet — rather
   than double-counting events on the per-packet path.  This is how
   ``EARDet.observe`` is instrumented without touching its inner loop:
   its stats object *is* the instrumentation.
2. **Per-shard children are pre-resolved.**  ``labels()`` costs a dict
   probe; :meth:`ServiceInstruments.bind_shards` resolves every
   per-shard child once, so the per-batch sync loop touches plain
   attributes only.

The service holds ``instruments = None`` when telemetry is off, so the
disabled hot path pays a single ``is None`` test per batch.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Union

from .registry import (
    DEFAULT_LATENCY_BUCKETS_NS,
    DEFAULT_SIZE_BUCKETS,
    MetricRegistry,
    NullRegistry,
    NULL_REGISTRY,
)
from .tracing import DEFAULT_SPAN_CAPACITY, NullTracer, NULL_TRACER, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing-only, avoids an import cycle
    from ..service.engine import ShardedEngine

__all__ = ["Telemetry", "ServiceInstruments"]

AnyRegistry = Union[MetricRegistry, NullRegistry]
AnyTracer = Union[Tracer, NullTracer]


class Telemetry:
    """One observability context: a registry plus a tracer.

    Construct with no arguments for a live context, or pass
    ``registry=NULL_REGISTRY`` (see :meth:`disabled`) for an inert one
    that any component can hold without branching.
    """

    def __init__(
        self,
        registry: Optional[AnyRegistry] = None,
        tracer: Optional[AnyTracer] = None,
        span_capacity: int = DEFAULT_SPAN_CAPACITY,
    ):
        self.registry: AnyRegistry = (
            registry if registry is not None else MetricRegistry()
        )
        if tracer is None:
            tracer = (
                Tracer(self.registry, capacity=span_capacity)
                if self.registry.enabled
                else NULL_TRACER
            )
        self.tracer: AnyTracer = tracer

    @classmethod
    def disabled(cls) -> "Telemetry":
        """An inert context (no-op registry and tracer)."""
        return cls(registry=NULL_REGISTRY, tracer=NULL_TRACER)

    @property
    def enabled(self) -> bool:
        return bool(self.registry.enabled)

    def serve(self, host: str = "127.0.0.1", port: int = 0):
        """A started :class:`~repro.telemetry.server.MetricsServer` over
        this context."""
        from .server import MetricsServer

        return MetricsServer(self.registry, self.tracer, host=host,
                             port=port).start()

    def render_prometheus(self) -> str:
        from .exposition import render_prometheus

        return render_prometheus(self.registry)

    def as_dict(self) -> Dict[str, object]:
        from .exposition import render_json

        return render_json(self.registry, self.tracer)

    def __repr__(self) -> str:
        return f"Telemetry(enabled={self.enabled})"


class _ShardChannel:
    """Pre-resolved per-shard metric children (plain attribute access on
    the sync path)."""

    __slots__ = (
        "ingested", "dropped", "queue_depth", "queue_high_water",
        "queue_capacity", "last_packet_ts", "exact", "first_loss",
        "detections", "blacklist_size", "counters_in_use", "evictions",
        "virtual_bytes", "blacklisted_packets", "invariant_checks",
        "invariant_check_ns", "degradation_level",
    )


#: Ladder-rung label -> numeric gauge value (matches
#: ``repro.service.overload.DegradationLevel``; kept as a plain map so
#: telemetry does not import the service package).
_LADDER_LEVELS = {"exact": 0, "deferred": 1, "aggregated": 2, "shedding": 3}


class ServiceInstruments:
    """Every metric the detection service exports, declared once.

    The full catalog (names, types, labels, meaning) is documented in
    ``docs/OBSERVABILITY.md``; keep the two in sync.
    """

    def __init__(self, telemetry: Telemetry):
        self.telemetry = telemetry
        self.enabled = telemetry.enabled
        self.tracer = telemetry.tracer
        reg = telemetry.registry
        shard = ("shard",)

        # -- ingest hot path (synced per batch) ---------------------------
        self.batches_total = reg.counter(
            "eardet_ingest_batches_total",
            "Batches pulled from the source and ingested.",
        )
        self.ingested_total = reg.counter(
            "eardet_ingested_packets_total",
            "Packets pulled from the source (includes checkpoint-resumed "
            "prefix).",
        )
        self.batch_packets = reg.histogram(
            "eardet_batch_packets",
            "Packets per ingested batch.",
            buckets=DEFAULT_SIZE_BUCKETS,
        )
        self.packet_latency_ns = reg.histogram(
            "eardet_packet_latency_ns",
            "Per-packet ingest+process latency, nanoseconds (batch time "
            "divided by batch size; exact integer division).",
            buckets=DEFAULT_LATENCY_BUCKETS_NS,
        )

        # -- per-shard families -------------------------------------------
        self._shard_ingested = reg.counter(
            "eardet_shard_ingest_packets_total",
            "Packets routed to each shard (processed or still queued).",
            labels=shard,
        )
        self._shard_dropped = reg.counter(
            "eardet_shard_dropped_packets_total",
            "Packets each shard lost (queue overflow or injected drop).",
            labels=shard,
        )
        self._queue_depth = reg.gauge(
            "eardet_shard_queue_depth",
            "Pending packets (in-process) or in-flight chunks plus staged "
            "packets (multiprocess) per shard.",
            labels=shard,
        )
        self._queue_high_water = reg.gauge(
            "eardet_shard_queue_high_water",
            "Highest queue depth each shard has reached.",
            labels=shard,
        )
        self._queue_capacity = reg.gauge(
            "eardet_shard_queue_capacity",
            "Configured queue capacity per shard.",
            labels=shard,
        )
        self._last_packet_ts = reg.gauge(
            "eardet_shard_last_packet_ts_ns",
            "Stream timestamp of the last packet routed to each shard "
            "(NaN before the first).",
            labels=shard,
        )
        self._exact = reg.gauge(
            "eardet_shard_exact",
            "1 while the shard's no-FN/no-FP guarantee holds, 0 from its "
            "first lost packet onward.",
            labels=shard,
        )
        self._first_loss = reg.gauge(
            "eardet_shard_first_loss_time_ns",
            "Stream timestamp of the shard's first lost packet (NaN while "
            "exact).",
            labels=shard,
        )
        self._detections = reg.counter(
            "eardet_shard_detections_total",
            "Large flows each shard has reported.",
            labels=shard,
        )
        self._blacklist_size = reg.gauge(
            "eardet_shard_blacklist_size",
            "Flows currently on each shard's bounded blacklist.",
            labels=shard,
        )
        self._counters_in_use = reg.gauge(
            "eardet_shard_counters_in_use",
            "Occupied counter-store slots per shard (capacity is the "
            "configured n).",
            labels=shard,
        )
        self._evictions = reg.counter(
            "eardet_shard_store_evictions_total",
            "Counters evicted by decrement-all in each shard's store.",
            labels=shard,
        )
        self._virtual_bytes = reg.counter(
            "eardet_shard_virtual_bytes_total",
            "Virtual (idle-bandwidth) bytes each shard has injected.",
            labels=shard,
        )
        self._blacklisted_packets = reg.counter(
            "eardet_shard_blacklisted_packets_total",
            "Packets each shard short-circuited as already-blacklisted.",
            labels=shard,
        )
        self._invariant_checks = reg.counter(
            "eardet_shard_invariant_checks_total",
            "Full invariant sweeps each shard's checker has run.",
            labels=shard,
        )
        self._invariant_check_ns = reg.counter(
            "eardet_shard_invariant_check_ns_total",
            "Monotonic nanoseconds each shard has spent in invariant "
            "sweeps (the guard's measured sampling cost).",
            labels=shard,
        )

        # -- overload ladder ----------------------------------------------
        self._degradation_level = reg.gauge(
            "eardet_shard_degradation_level",
            "Current ladder rung per shard (0=exact, 1=deferred, "
            "2=aggregated, 3=shedding).",
            labels=shard,
        )
        self._overload_packets = reg.counter(
            "eardet_overload_packets_total",
            "Packets attributed to each ladder rung at admission; the "
            "rung sums equal the offered total exactly.",
            labels=("rung",),
        )
        self._overload_bytes = reg.counter(
            "eardet_overload_bytes_total",
            "Bytes attributed to each ladder rung at admission; the "
            "rung sums equal the offered total exactly.",
            labels=("rung",),
        )
        self.overload_transitions_total = reg.counter(
            "eardet_overload_transitions_total",
            "Ladder transitions across all shards (escalations plus "
            "de-escalations).",
        )
        self.overload_widening_ns = reg.gauge(
            "eardet_overload_max_widening_ns",
            "Largest aggregate re-stamp distance so far, nanoseconds "
            "(0 while no packet has been aggregated).",
        )
        self.overload_widening_bytes = reg.gauge(
            "eardet_overload_widening_bytes",
            "Ambiguity-region widening implied by aggregation: over any "
            "window a flow's measured traffic can shift by at most this "
            "many bytes (ceil(rho * max_widening_ns / 1e9)).",
        )
        self.overload_first_shed_ts = reg.gauge(
            "eardet_overload_first_shed_ts_ns",
            "Stream timestamp of the first shed packet (NaN while "
            "nothing has been shed; sheds void the exactness envelope).",
        )

        # -- ambiguity-region watcher stage -------------------------------
        self._watcher_occupancy = reg.gauge(
            "eardet_watcher_occupancy",
            "Counters/buckets each shard's ambiguity-region watcher "
            "currently holds (CLEF: live RLFD counters; LOFT: sketch "
            "aggregates plus watchlist entries).",
            labels=shard,
        )
        self._watcher_verdicts = reg.gauge(
            "eardet_watcher_shard_verdicts",
            "Probabilistic verdicts each shard's watcher has issued "
            "(kept strictly apart from the exact detection series).",
            labels=shard,
        )
        self.watcher_memory_counters = reg.gauge(
            "eardet_watcher_memory_counters",
            "Total watcher memory occupancy across shards, in counters.",
        )
        self.watcher_verdicts_total = reg.gauge(
            "eardet_watcher_verdicts",
            "Distinct flows with a probabilistic watcher verdict "
            "(merged across shards; never part of exact detections).",
        )
        self._watcher_churn = reg.counter(
            "eardet_watcher_churn_total",
            "Candidate churn in the watcher stage by event "
            "(promotions/evictions/demotions for LOFT, descents for "
            "CLEF's RLFDs).",
            labels=("event",),
        )

        # -- resharding ---------------------------------------------------
        self.migrations_total = reg.counter(
            "eardet_migrations_total",
            "Committed live shard migrations.",
        )
        self.migration_rollbacks_total = reg.counter(
            "eardet_migration_rollbacks_total",
            "Migrations that failed and were rolled back to the "
            "pre-migration layout.",
        )
        self.migration_pause_ns = reg.gauge(
            "eardet_migration_pause_ns",
            "Duration of the last migration's freeze-to-cutover pause, "
            "nanoseconds.",
        )
        self.layout_epoch = reg.gauge(
            "eardet_layout_epoch",
            "Version of the live slot-to-shard layout (0 = the initial "
            "layout; incremented by every committed migration).",
        )
        self.layout_shards = reg.gauge(
            "eardet_layout_shards",
            "Shards spanned by the live slot-to-shard layout.",
        )

        # -- adaptive control (guarded hot reconfiguration) ----------------
        self.config_epoch = reg.gauge(
            "eardet_config_epoch",
            "Version of the live detector configuration (0 = the launch "
            "config; incremented by every committed retune).",
        )
        self.retunes_total = reg.counter(
            "eardet_retunes_total",
            "Committed hot reconfigurations (config-epoch advances).",
        )
        self.retune_rollbacks_total = reg.counter(
            "eardet_retune_rollbacks_total",
            "Retunes that failed and were rolled back to the pre-retune "
            "configuration.",
        )
        self.retune_infeasibles_total = reg.counter(
            "eardet_retune_infeasibles_total",
            "Controller proposals the Appendix-A solver rejected as "
            "infeasible (recorded as incidents, never applied).",
        )
        self.retune_pause_ns = reg.gauge(
            "eardet_retune_pause_ns",
            "Duration of the last retune's freeze-to-commit pause, "
            "nanoseconds.",
        )

        # -- remote transport (the remote engine's TCP fleet) --------------
        self._net_frames_sent = reg.counter(
            "eardet_net_frames_sent_total",
            "Frames put on the wire per shard connection (includes "
            "retransmits and injected duplicates).",
            labels=shard,
        )
        self._net_retransmits = reg.counter(
            "eardet_net_retransmits_total",
            "Unacked frames replayed per shard connection (reconnect "
            "replays and gap-triggered resends; always safe — duplicates "
            "are discarded by sequence).",
            labels=shard,
        )
        self._net_reconnects = reg.counter(
            "eardet_net_reconnects_total",
            "Successful (re)connects per shard connection (1 is the "
            "initial connect).",
            labels=shard,
        )
        self._net_outages = reg.counter(
            "eardet_net_outages_total",
            "Distinct outages per shard endpoint (masked or voided).",
            labels=shard,
        )
        self._net_ring_depth = reg.gauge(
            "eardet_net_ring_depth",
            "Unacked frames currently held per shard connection.",
            labels=shard,
        )
        self._net_connected = reg.gauge(
            "eardet_net_connected",
            "1 while the shard connection is established, else 0.",
            labels=shard,
        )
        self._net_lost_packets = reg.counter(
            "eardet_net_lost_packets_total",
            "Packets the partition policy voided per shard (outages past "
            "the mask budget; every one is dead-lettered and voids that "
            "shard's envelope).",
            labels=shard,
        )

        # -- service lifecycle --------------------------------------------
        self.checkpoints_total = reg.counter(
            "eardet_checkpoints_written_total",
            "Checkpoints successfully written.",
        )
        self.checkpoint_duration_ns = reg.histogram(
            "eardet_checkpoint_duration_ns",
            "Wall time of one checkpoint write (drain + serialize + "
            "atomic replace), nanoseconds.",
            buckets=DEFAULT_LATENCY_BUCKETS_NS,
        )
        self.dead_letters_total = reg.counter(
            "eardet_dead_letters_total",
            "Packets captured by the dead-letter sink.",
        )
        self.restarts_total = reg.counter(
            "eardet_supervised_restarts_total",
            "Supervised engine restarts performed.",
        )
        self.backoff_ns_total = reg.counter(
            "eardet_supervisor_backoff_ns_total",
            "Cumulative supervisor backoff sleep, nanoseconds.",
        )
        self.incidents_total = reg.counter(
            "eardet_incidents_total",
            "Forensic incidents appended to the incident store, by class.",
            labels=("class",),
        )
        self.forensics_capture_ns = reg.histogram(
            "eardet_forensics_capture_ns",
            "Wall time to capture one replay bundle (serialize baseline + "
            "trace slice + write the CRC'd container), nanoseconds.",
            buckets=DEFAULT_LATENCY_BUCKETS_NS,
        )
        self.source_retries_total = reg.counter(
            "eardet_source_retries_total",
            "Transient source failures absorbed by retry wrappers.",
        )

        # -- ingest validation --------------------------------------------
        self.validation_examined_total = reg.counter(
            "eardet_validation_examined_total",
            "Packets screened by the ingest validator.",
        )
        self._validation_violations = reg.counter(
            "eardet_validation_violations_total",
            "Ingest violations by class.",
            labels=("violation",),
        )
        self.validation_mutations_total = reg.counter(
            "eardet_validation_mutated_total",
            "Packets the validator clamped or dropped (each voids "
            "exactness like a loss).",
        )
        self.validation_reordered_total = reg.counter(
            "eardet_validation_reordered_total",
            "Packets re-slotted into time order (multiset-preserving; "
            "does not void exactness).",
        )

        self._channels: List[_ShardChannel] = []
        self._watcher_channels: List[object] = []

    # -- wiring ------------------------------------------------------------

    def bind_shards(self, shard_count: int, queue_capacity: int) -> None:
        """Resolve per-shard children once (idempotent per shard count)."""
        if len(self._channels) == shard_count:
            return
        self._channels = []
        for index in range(shard_count):
            label = str(index)
            channel = _ShardChannel()
            channel.ingested = self._shard_ingested.labels(label)
            channel.dropped = self._shard_dropped.labels(label)
            channel.queue_depth = self._queue_depth.labels(label)
            channel.queue_high_water = self._queue_high_water.labels(label)
            channel.queue_capacity = self._queue_capacity.labels(label)
            channel.last_packet_ts = self._last_packet_ts.labels(label)
            channel.exact = self._exact.labels(label)
            channel.first_loss = self._first_loss.labels(label)
            channel.detections = self._detections.labels(label)
            channel.blacklist_size = self._blacklist_size.labels(label)
            channel.counters_in_use = self._counters_in_use.labels(label)
            channel.evictions = self._evictions.labels(label)
            channel.virtual_bytes = self._virtual_bytes.labels(label)
            channel.blacklisted_packets = self._blacklisted_packets.labels(
                label
            )
            channel.invariant_checks = self._invariant_checks.labels(label)
            channel.invariant_check_ns = self._invariant_check_ns.labels(
                label
            )
            channel.degradation_level = self._degradation_level.labels(label)
            channel.queue_capacity.set(queue_capacity)
            channel.exact.set(1)
            channel.degradation_level.set(0)
            self._channels.append(channel)

    # -- per-batch hot path --------------------------------------------------

    def on_batch(self, packets: int, duration_ns: int) -> None:
        """Account one ingested batch (one call per batch, not packet)."""
        self.batches_total.inc()
        self.batch_packets.observe(packets)
        if packets > 0:
            self.packet_latency_ns.observe(duration_ns // packets)

    def sync_engine(self, engine: ShardedEngine) -> None:
        """Copy the engine's cheap routing-side accounting into the
        registry.  Reads only what every transport keeps on the routing
        side — never triggers a snapshot barrier."""
        routed = engine.routed
        envelope = engine.envelope()
        depths = engine.queue_depths()
        high_water = engine.queue_high_water
        last_ts = engine.last_packet_ts
        for index, channel in enumerate(self._channels):
            channel.ingested.set_total(routed[index])
            channel.dropped.set_total(envelope[index].lost_packets)
            channel.queue_depth.set(depths[index])
            channel.queue_high_water.set(high_water[index])
            channel.last_packet_ts.set(last_ts[index])
            loss = envelope[index].first_loss_time_ns
            if loss is not None:
                channel.exact.set(0)
                channel.first_loss.set(loss)

    def sync_detector_groups(self, groups: Sequence[Sequence[object]]) -> None:
        """Copy per-shard detector stats when a shard hosts *several*
        slot detectors (the resharding layout): gauges and totals are
        summed over the slots a shard currently hosts, so the per-shard
        series stay continuous across a migration."""
        for channel, detectors in zip(self._channels, groups):
            detections = blacklist = counters = 0
            virtual_bytes = blacklisted = evictions = 0
            checks = check_ns = 0
            has_evictions = has_checker = False
            for detector in detectors:
                stats = detector.stats  # type: ignore[attr-defined]
                detections += len(detector.sink)  # type: ignore[attr-defined]
                virtual_bytes += stats.virtual_bytes
                blacklisted += stats.blacklisted_packets
                blacklist += len(detector.blacklist)  # type: ignore[attr-defined]
                counters += detector.counters_in_use  # type: ignore[attr-defined]
                slot_evictions = getattr(detector, "store_evictions", None)
                if slot_evictions is not None:
                    has_evictions = True
                    evictions += slot_evictions
                checker = getattr(detector, "checker", None)
                if checker is not None:
                    has_checker = True
                    checks += checker.checks_run
                    check_ns += checker.check_time_ns
            channel.detections.set_total(detections)
            channel.virtual_bytes.set_total(virtual_bytes)
            channel.blacklisted_packets.set_total(blacklisted)
            channel.blacklist_size.set(blacklist)
            channel.counters_in_use.set(counters)
            if has_evictions:
                channel.evictions.set_total(evictions)
            if has_checker:
                channel.invariant_checks.set_total(checks)
                channel.invariant_check_ns.set_total(check_ns)

    def sync_reshard(self, reshard: Optional[dict]) -> None:
        """Copy the service's resharding summary (see
        :meth:`~repro.service.runtime.DetectionService.report`)."""
        if reshard is None:
            return
        self.migrations_total.set_total(reshard.get("migrations", 0))
        self.migration_rollbacks_total.set_total(
            reshard.get("rollbacks", 0)
        )
        pause = reshard.get("last_pause_ns")
        if pause is not None:
            self.migration_pause_ns.set(pause)
        layout = reshard.get("layout") or {}
        self.layout_epoch.set(layout.get("epoch", 0))
        self.layout_shards.set(layout.get("shards", 0))

    def sync_control(self, control: Optional[dict]) -> None:
        """Copy the service's adaptive-control summary (cheap scalars
        only — this runs once per ingested batch)."""
        if control is None:
            return
        self.config_epoch.set(control.get("epoch", 0))
        self.retunes_total.set_total(control.get("retunes", 0))
        self.retune_rollbacks_total.set_total(control.get("rollbacks", 0))
        self.retune_infeasibles_total.set_total(
            control.get("infeasibles", 0)
        )
        pause = control.get("last_pause_ns")
        if pause is not None:
            self.retune_pause_ns.set(pause)

    def sync_health(self, samples: Sequence[object]) -> None:
        """Copy a list of :class:`~repro.service.health.ShardHealth`
        samples — the per-shard view both engine kinds can produce (the
        multiprocess engine's detectors live out-of-process, so this is
        its only detection/blacklist source)."""
        for channel, sample in zip(self._channels, samples):
            channel.detections.set_total(
                sample.detections  # type: ignore[attr-defined]
            )
            channel.blacklist_size.set(
                sample.blacklist_size  # type: ignore[attr-defined]
            )
            channel.queue_high_water.set(
                sample.queue_high_water  # type: ignore[attr-defined]
            )

    def sync_validation(self, stats: object) -> None:
        """Copy a :class:`~repro.guard.ValidationStats` accumulator."""
        if stats is None:
            return
        self.validation_examined_total.set_total(
            stats.examined  # type: ignore[attr-defined]
        )
        self.validation_mutations_total.set_total(
            stats.mutated  # type: ignore[attr-defined]
        )
        self.validation_reordered_total.set_total(
            stats.reordered  # type: ignore[attr-defined]
        )
        for violation, count in stats.violations.items():  # type: ignore[attr-defined]
            self._validation_violations.labels(violation).set_total(count)

    def sync_dead_letters(self, total: int) -> None:
        self.dead_letters_total.set_total(total)

    def sync_watcher(self, stage: object) -> None:
        """Copy a :class:`~repro.service.pipeline.WatcherStage`'s
        occupancy, verdict, and churn accounting into the registry.
        Reads only the stage's own exact accumulators — never touches
        the exact detection series, so watcher metrics cannot be
        mistaken for (or pollute) the exactness envelope."""
        shard_count: int = stage.shard_count  # type: ignore[attr-defined]
        if len(self._watcher_channels) != shard_count:
            self._watcher_channels = [
                (
                    self._watcher_occupancy.labels(str(index)),
                    self._watcher_verdicts.labels(str(index)),
                )
                for index in range(shard_count)
            ]
        total_counters = 0
        for index, (occupancy, verdicts) in enumerate(
            self._watcher_channels
        ):
            held = stage.occupancy(index)  # type: ignore[attr-defined]
            occupancy.set(held)
            total_counters += held
            verdicts.set(
                len(stage.watcher(index).detected)  # type: ignore[attr-defined]
            )
        self.watcher_memory_counters.set(total_counters)
        self.watcher_verdicts_total.set(
            len(stage.verdicts())  # type: ignore[attr-defined]
        )
        for event, count in stage.churn().items():  # type: ignore[attr-defined]
            self._watcher_churn.labels(event).set_total(count)

    def sync_transport(self, reports: Sequence[Dict[str, object]]) -> None:
        """Copy a remote engine ``transport_report()`` — per-shard exact
        TCP transport counters — into the registry (no-op for the
        in-tree engines, which have no transport)."""
        for report in reports:
            label = str(report.get("shard", ""))
            self._net_frames_sent.labels(label).set_total(
                report.get("frames_sent", 0)  # type: ignore[arg-type]
            )
            self._net_retransmits.labels(label).set_total(
                report.get("retransmits", 0)  # type: ignore[arg-type]
            )
            self._net_reconnects.labels(label).set_total(
                report.get("reconnects", 0)  # type: ignore[arg-type]
            )
            self._net_outages.labels(label).set_total(
                report.get("outages", 0)  # type: ignore[arg-type]
            )
            self._net_ring_depth.labels(label).set(
                report.get("ring_depth", 0)  # type: ignore[arg-type]
            )
            self._net_connected.labels(label).set(
                1 if report.get("connected") else 0
            )
            self._net_lost_packets.labels(label).set_total(
                report.get("lost_packets", 0)  # type: ignore[arg-type]
            )

    def sync_overload(self, report: Optional[Dict[str, object]]) -> None:
        """Copy an engine ``overload_report()`` dict into the registry
        (no-op when no policy is armed).  Rung attribution comes from
        the merged :class:`~repro.service.overload.DegradationAccount`,
        so the exported rung totals inherit its integer identity
        ``exact + deferred + aggregated + shed == offered``."""
        if report is None:
            return
        account: Dict[str, object] = report["account"]  # type: ignore[assignment]
        for rung in _LADDER_LEVELS:
            field = "shed" if rung == "shedding" else rung
            self._overload_packets.labels(rung).set_total(
                account[field + "_packets"]  # type: ignore[arg-type]
            )
            self._overload_bytes.labels(rung).set_total(
                account[field + "_bytes"]  # type: ignore[arg-type]
            )
        self.overload_transitions_total.set_total(
            report["transitions"]  # type: ignore[arg-type]
        )
        self.overload_widening_ns.set(report["max_widening_ns"])  # type: ignore[arg-type]
        self.overload_widening_bytes.set(report["widening_bytes"])  # type: ignore[arg-type]
        first_shed = account.get("first_shed_ts")  # type: ignore[union-attr]
        if first_shed is not None:
            self.overload_first_shed_ts.set(first_shed)
        for channel, shard in zip(
            self._channels, report["shards"]  # type: ignore[arg-type]
        ):
            channel.degradation_level.set(
                _LADDER_LEVELS.get(shard["level"], 0)
            )

    # -- lifecycle events ----------------------------------------------------

    def on_checkpoint(self, duration_ns: int) -> None:
        self.checkpoints_total.inc()
        self.checkpoint_duration_ns.observe(duration_ns)

    def on_restart(self) -> None:
        self.restarts_total.inc()

    def on_backoff(self, delay_s: float) -> None:
        self.backoff_ns_total.inc(max(0, round(delay_s * 1_000_000_000)))

    def on_incident(self, incident_class: str = "restart") -> None:
        self.incidents_total.labels(incident_class).inc()

    def sync_incidents(self, totals_by_class: Dict[str, int]) -> None:
        """Make the labeled incident counter agree exactly with the
        incident store's per-class totals (the store is the source of
        truth, so counter and log can never disagree)."""
        for incident_class, total in totals_by_class.items():
            self.incidents_total.labels(incident_class).set_total(total)

    def on_capture(self, duration_ns: int) -> None:
        self.forensics_capture_ns.observe(duration_ns)

    def sync_source_retries(self, total: int) -> None:
        self.source_retries_total.set_total(total)

    def set_ingested(self, total: int) -> None:
        self.ingested_total.set_total(total)
