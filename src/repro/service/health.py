"""Operational health, loss accounting, and reporting for the service.

Per-shard health (:class:`ShardHealth`) is what an operator watches on a
live service: ingest rate, queue depth (the backpressure signal),
detections and blacklist occupancy, and packets dropped by an overflow
policy.  :class:`ServiceReport` is the end-of-run (or end-of-drain)
aggregate the CLI renders and the benchmarks consume.

Two structures added by the fault-tolerance layer:

- :class:`ExactnessEnvelope` — the per-shard statement of whether the
  paper's no-FN/no-FP guarantee still holds.  EARDet's guarantee is
  conditional on *seeing every packet*; the moment a shard loses one
  (queue-overflow drop, injected drop, truncated stream) its guarantee
  is void from the first loss onward.  Rather than silently serving
  stale guarantees, each shard reports ``exact`` plus the first-loss
  timestamp so downstream consumers can widen their ambiguity region
  from that instant.
- :class:`DeadLetterSink` — captures every packet the service dropped
  or could not process (bounded detail, exact counts), so lost traffic
  is auditable instead of vanishing into a counter.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from ..model.packet import FlowId, Packet
from ..model.units import NS_PER_S

#: Default cap on retained dead-letter entries (counts are always exact).
DEFAULT_DEAD_LETTER_CAPACITY = 4096


@dataclass
class ShardHealth:
    """A point-in-time health sample of one worker shard."""

    shard: int
    packets: int
    queue_depth: int
    queue_capacity: int
    detections: int
    blacklist_size: int
    dropped: int = 0
    #: Highest queue depth this shard has reached (backpressure headroom:
    #: how close the shard has come to its capacity, not just where it
    #: happens to be right now).
    queue_high_water: int = 0
    #: Stream timestamp of the last packet routed to this shard; None
    #: until the shard has seen traffic (a staleness signal per shard).
    last_packet_ts_ns: Optional[int] = None
    #: Current degradation-ladder rung (``"exact"`` when no overload
    #: policy is armed; see :mod:`repro.service.overload`).
    degradation_level: str = "exact"
    #: Counters/buckets the shard's ambiguity-region watcher currently
    #: holds (0 when no watcher stage is armed; see
    #: :mod:`repro.service.pipeline`).
    watcher_occupancy: int = 0
    #: Probabilistic verdicts this shard's watcher has issued so far
    #: (never part of :attr:`detections`, which stays exact-stage only).
    watcher_verdicts: int = 0
    #: Flow slots this shard currently hosts (the units a reshard can
    #: move; 1 per shard in the default identity layout, 0 for a hot
    #: spare left behind by a merge).
    slot_count: int = 1

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "packets": self.packets,
            "queue_depth": self.queue_depth,
            "queue_capacity": self.queue_capacity,
            "detections": self.detections,
            "blacklist_size": self.blacklist_size,
            "dropped": self.dropped,
            "queue_high_water": self.queue_high_water,
            "last_packet_ts_ns": self.last_packet_ts_ns,
            "degradation_level": self.degradation_level,
            "watcher_occupancy": self.watcher_occupancy,
            "watcher_verdicts": self.watcher_verdicts,
            "slot_count": self.slot_count,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardHealth":
        """Rebuild from :meth:`as_dict` output (tolerates samples written
        before ``queue_high_water`` / ``last_packet_ts_ns`` existed)."""
        return cls(
            shard=int(data["shard"]),  # type: ignore[arg-type]
            packets=int(data["packets"]),  # type: ignore[arg-type]
            queue_depth=int(data["queue_depth"]),  # type: ignore[arg-type]
            queue_capacity=int(data["queue_capacity"]),  # type: ignore[arg-type]
            detections=int(data["detections"]),  # type: ignore[arg-type]
            blacklist_size=int(data["blacklist_size"]),  # type: ignore[arg-type]
            dropped=int(data.get("dropped", 0)),  # type: ignore[arg-type]
            queue_high_water=int(data.get("queue_high_water", 0)),  # type: ignore[arg-type]
            last_packet_ts_ns=(
                None
                if data.get("last_packet_ts_ns") is None
                else int(data["last_packet_ts_ns"])  # type: ignore[arg-type]
            ),
            degradation_level=str(data.get("degradation_level", "exact")),
            watcher_occupancy=int(data.get("watcher_occupancy", 0)),  # type: ignore[arg-type]
            watcher_verdicts=int(data.get("watcher_verdicts", 0)),  # type: ignore[arg-type]
            slot_count=int(data.get("slot_count", 1)),  # type: ignore[arg-type]
        )


@dataclass
class ExactnessEnvelope:
    """Whether one shard's no-FN/no-FP guarantee still holds.

    ``exact=True`` means the shard processed every packet routed to it:
    the paper's guarantees apply verbatim.  ``exact=False`` means the
    shard lost traffic; ``first_loss_time_ns`` is the timestamp of the
    first packet it lost (the instant from which the guarantee is void —
    detections *before* it remain trustworthy), ``lost_packets`` the
    exact count, and ``reason`` the loss mechanism.
    """

    shard: int
    exact: bool = True
    lost_packets: int = 0
    first_loss_time_ns: Optional[int] = None
    reason: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "shard": self.shard,
            "exact": self.exact,
            "lost_packets": self.lost_packets,
            "first_loss_time_ns": self.first_loss_time_ns,
            "reason": self.reason,
        }


@dataclass
class DeadLetter:
    """One dropped/unprocessed packet: what, where, why.

    Every producer records the same consistent tuple — shard, slot,
    shard-local arrival index (1-based position among the packets routed
    to that shard), and reason — so the forensics capture layer can turn
    *positional* losses (injected drops, voided partitions) back into a
    replayable skip list.  ``slot``/``index`` are None only for entries
    written before the consistent tuple existed.
    """

    time_ns: int
    size: int
    fid: FlowId
    shard: int
    reason: str
    slot: Optional[int] = None
    index: Optional[int] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "time_ns": self.time_ns,
            "size": self.size,
            "fid": str(self.fid),
            "shard": self.shard,
            "slot": self.slot,
            "index": self.index,
            "reason": self.reason,
        }


class DeadLetterSink:
    """Bounded capture of every packet the service failed to process.

    ``total`` is always exact; per-packet detail is retained up to
    ``capacity`` entries (oldest first), which keeps memory bounded under
    a sustained overload while still giving the operator the head of the
    loss for forensics.
    """

    #: Cap on retained forensic events (non-packet incidents such as a
    #: rolled-back migration): the newest are kept, because the
    #: forensics lab reads each outcome's detail from the newest event
    #: of its kind; counts stay exact past the cap.
    EVENT_CAPACITY = 256

    def __init__(self, capacity: int = DEFAULT_DEAD_LETTER_CAPACITY):
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self.entries: List[DeadLetter] = []
        self.total = 0
        self.events: Deque[Dict[str, object]] = deque(
            maxlen=self.EVENT_CAPACITY
        )
        self.event_total = 0

    def record(
        self,
        packet: Packet,
        shard: int,
        reason: str,
        slot: Optional[int] = None,
        index: Optional[int] = None,
    ) -> None:
        self.total += 1
        if len(self.entries) < self.capacity:
            self.entries.append(
                DeadLetter(
                    packet.time, packet.size, packet.fid, shard, reason,
                    slot=slot, index=index,
                )
            )

    def record_event(self, kind: str, detail: Dict[str, object]) -> None:
        """Capture a non-packet forensic record (e.g. a failed migration:
        which plan, which phase, whether rollback succeeded).  Events
        never count toward :attr:`total` — no packet was lost."""
        self.event_total += 1
        self.events.append({"kind": kind, **detail})

    def __len__(self) -> int:
        return self.total

    def as_dict(self) -> Dict[str, object]:
        return {
            "total": self.total,
            "retained": len(self.entries),
            "capacity": self.capacity,
            "entries": [entry.as_dict() for entry in self.entries],
            "events": [dict(event) for event in self.events],
            "event_total": self.event_total,
        }

    def __repr__(self) -> str:
        return (
            f"DeadLetterSink(total={self.total}, "
            f"retained={len(self.entries)}/{self.capacity})"
        )


def _detection_sort_key(item):
    """Order detections by timestamp without assuming every timestamp is
    an int (machine-written reports may carry None or strings): numeric
    timestamps first in time order, everything else after, by repr."""
    value = item[1]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return (1, 0.0, repr(value))
    return (0, float(value), "")


def _format_detection_time(value) -> str:
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return f"{value / NS_PER_S:.6f}s"
    return repr(value)


@dataclass
class ServiceReport:
    """Summary of one service run (or one serve-until-drained episode)."""

    packets: int
    duration_s: float
    detections: Dict[FlowId, int]
    shard_health: List[ShardHealth] = field(default_factory=list)
    dropped: int = 0
    checkpoints_written: int = 0
    resumed_from: int = 0
    envelope: List[ExactnessEnvelope] = field(default_factory=list)
    restarts: int = 0
    #: Forensic incidents the run produced.  Structured
    #: :class:`~repro.forensics.incidents.Incident` records when the
    #: supervisor/forensics lab is armed; plain strings are tolerated for
    #: machine-written reports.  Either way ``str(incident)`` is the
    #: stable rendered line.
    incidents: List[object] = field(default_factory=list)
    dead_letters: int = 0
    source_retries: int = 0
    #: Ingest-validation accounting when the source was guarded (the
    #: ``as_dict`` of a :class:`~repro.guard.ValidationStats`); None for
    #: an unguarded source.
    validation: Optional[Dict[str, object]] = None
    #: Overload summary (the engine's ``overload_report()``) when an
    #: overload policy was armed; None otherwise.
    overload: Optional[Dict[str, object]] = None
    #: True when this run ended through a graceful drain request (SIGTERM
    #: or :meth:`DetectionService.request_drain`) rather than source
    #: exhaustion.
    drained: bool = False
    #: Probabilistic ambiguity-region verdicts when a watcher stage was
    #: armed (the stage's ``report()``); None otherwise.  Kept strictly
    #: separate from :attr:`detections` and the envelope: a watcher
    #: verdict is *evidence*, never an exact detection, and :attr:`exact`
    #: deliberately ignores this section entirely.
    watcher: Optional[Dict[str, object]] = None
    #: Resharding summary when the run used slots, a coordinator, or ran
    #: any migration: final layout, migrations committed / rolled back,
    #: the last measured migration pause, and the coordinator's decision
    #: log.  None for a static-layout run — the common case stays quiet.
    reshard: Optional[Dict[str, object]] = None
    #: Adaptive-control summary when the run armed a controller or ever
    #: retuned: current config epoch and config, retunes committed /
    #: rolled back / found infeasible, the last measured retune pause,
    #: the full epoch history (each entry stamps the stream position its
    #: config took effect at — the exactness boundary between epochs),
    #: and the controller's decision log.  None for a static-config run.
    control: Optional[Dict[str, object]] = None

    @property
    def packets_per_second(self) -> float:
        if self.duration_s <= 0:
            return 0.0
        return self.packets / self.duration_s

    @property
    def validation_mutations(self) -> int:
        """Packets the ingest validator clamped or dropped — stream
        mutations, each of which voids exactness like a lost packet."""
        if self.validation is None:
            return 0
        mutated = self.validation.get("mutated", 0)
        return mutated if isinstance(mutated, int) else 0

    @property
    def exact(self) -> bool:
        """Whether the paper's guarantee survived the run intact: every
        shard processed every packet *and* the ingest validator did not
        mutate the stream (a clamped or dropped packet means the engine
        judged traffic that differs from what was actually sent)."""
        if self.validation_mutations:
            return False
        if self.envelope:
            return all(entry.exact for entry in self.envelope)
        return self.dropped == 0

    def as_dict(self) -> Dict[str, object]:
        """Machine-consumable form (``eardet serve --json``)."""
        return {
            "packets": self.packets,
            "duration_s": self.duration_s,
            "packets_per_second": self.packets_per_second,
            "detections": {
                str(fid): time_ns for fid, time_ns in self.detections.items()
            },
            "shard_health": [h.as_dict() for h in self.shard_health],
            "dropped": self.dropped,
            "checkpoints_written": self.checkpoints_written,
            "resumed_from": self.resumed_from,
            "exact": self.exact,
            "envelope": [entry.as_dict() for entry in self.envelope],
            "restarts": self.restarts,
            "incidents": [
                incident.as_dict()
                if hasattr(incident, "as_dict")
                else str(incident)
                for incident in self.incidents
            ],
            "dead_letters": self.dead_letters,
            "source_retries": self.source_retries,
            "validation": self.validation,
            "overload": self.overload,
            "drained": self.drained,
            "watcher": self.watcher,
            "reshard": self.reshard,
            "control": self.control,
        }

    def render(self) -> str:
        """Multi-line operator-facing summary."""
        rate = (
            "idle"
            if self.packets_per_second == 0
            else f"{self.packets_per_second:,.0f} pkt/s"
        )
        lines = [
            f"service: {self.packets} packets in {self.duration_s:.3f}s "
            f"({rate}), "
            f"{len(self.detections)} large flows, {self.dropped} dropped, "
            f"{self.checkpoints_written} checkpoints"
        ]
        if self.drained:
            lines.append("  graceful drain: stopped on request, queues flushed")
        if self.resumed_from:
            lines.append(f"  resumed from checkpoint at packet {self.resumed_from}")
        if self.restarts:
            lines.append(f"  supervised restarts: {self.restarts}")
        for incident in self.incidents:
            lines.append(f"  incident: {incident}")
        if self.source_retries:
            lines.append(f"  source retries absorbed: {self.source_retries}")
        if self.dead_letters:
            lines.append(f"  dead-lettered packets: {self.dead_letters}")
        if self.validation is not None:
            examined = self.validation.get("examined", 0)
            total = sum(
                count
                for count in (self.validation.get("violations") or {}).values()
                if isinstance(count, int)
            )
            lines.append(
                f"  ingest validation: {examined} examined, "
                f"{total} violations "
                f"({self.validation.get('clamped', 0)} clamped, "
                f"{self.validation.get('dropped', 0)} dropped, "
                f"{self.validation.get('reordered', 0)} reordered)"
            )
            if self.validation_mutations:
                lines.append(
                    f"  exactness: ingest validator mutated "
                    f"{self.validation_mutations} packets — guarantee void "
                    "(engine judged repaired traffic, not the wire stream)"
                )
        if self.overload is not None:
            account = self.overload.get("account") or {}
            lines.append(
                "  overload ladder: "
                f"{account.get('exact_bytes', 0)} exact + "
                f"{account.get('deferred_bytes', 0)} deferred + "
                f"{account.get('aggregated_bytes', 0)} aggregated + "
                f"{account.get('shed_bytes', 0)} shed bytes "
                f"({self.overload.get('transitions', 0)} transitions, "
                f"widening bound {self.overload.get('max_widening_ns', 0)}ns "
                f"= {self.overload.get('widening_bytes', 0)} bytes)"
            )
        if self.reshard is not None:
            layout = self.reshard.get("layout") or {}
            pause = self.reshard.get("last_pause_ns") or 0
            pause_label = (
                f", last pause {pause / NS_PER_S * 1e3:.2f}ms" if pause else ""
            )
            lines.append(
                "  resharding: "
                f"{self.reshard.get('migrations', 0)} migrations committed, "
                f"{self.reshard.get('rollbacks', 0)} rolled back; layout "
                f"epoch {layout.get('epoch', 0)}, "
                f"{layout.get('slots', 0)} slots over "
                f"{layout.get('shards', 0)} shards{pause_label}"
            )
            coordinator = self.reshard.get("coordinator")
            if coordinator:
                lines.append(
                    "  coordinator: "
                    f"{coordinator.get('windows', 0)} windows observed, "
                    f"{coordinator.get('proposals', 0)} plans proposed"
                )
        if self.control is not None:
            config = self.control.get("config") or {}
            pause = self.control.get("last_pause_ns") or 0
            pause_label = (
                f", last pause {pause / NS_PER_S * 1e3:.2f}ms" if pause else ""
            )
            lines.append(
                "  control: config epoch "
                f"{self.control.get('epoch', 0)} "
                f"(n={config.get('n', '?')}, "
                f"gamma_l={config.get('gamma_l', '?')}, "
                f"beta_th={config.get('beta_th', '?')}); "
                f"{self.control.get('retunes', 0)} retunes committed, "
                f"{self.control.get('rollbacks', 0)} rolled back, "
                f"{self.control.get('infeasibles', 0)} infeasible"
                f"{pause_label}"
            )
            controller = self.control.get("controller")
            if controller:
                lines.append(
                    "  controller: "
                    f"{controller.get('windows', 0)} windows observed, "
                    f"{controller.get('proposals', 0)} plans proposed, "
                    f"{(controller.get('slo') or {}).get('fired', 0)} "
                    "SLO alerts fired"
                )
        if self.watcher is not None:
            churn = self.watcher.get("churn") or {}
            lines.append(
                f"  watcher ({self.watcher.get('kind')}): "
                f"{self.watcher.get('verdict_count', 0)} probabilistic "
                f"verdicts, {self.watcher.get('memory_counters', 0)} "
                f"counters "
                f"({churn.get('promotions', 0)} promotions, "
                f"{churn.get('evictions', 0)} evictions, "
                f"{churn.get('demotions', 0)} demotions, "
                f"{churn.get('descents', 0)} descents) — "
                "in-region evidence, never merged into the exact set"
            )
        for health in self.shard_health:
            ladder = (
                ""
                if health.degradation_level == "exact"
                else f", ladder {health.degradation_level.upper()}"
            )
            watch = (
                f", watcher {health.watcher_occupancy} counters/"
                f"{health.watcher_verdicts} verdicts"
                if health.watcher_occupancy or health.watcher_verdicts
                else ""
            )
            lines.append(
                f"  shard {health.shard}: {health.packets} packets, "
                f"queue {health.queue_depth}/{health.queue_capacity} "
                f"(high water {health.queue_high_water}), "
                f"{health.detections} detections, "
                f"{health.blacklist_size} blacklisted, "
                f"{health.dropped} dropped{ladder}{watch}"
            )
        degraded = [entry for entry in self.envelope if not entry.exact]
        if degraded:
            for entry in degraded:
                first = (
                    f"{entry.first_loss_time_ns / NS_PER_S:.6f}s"
                    if entry.first_loss_time_ns is not None
                    else "unknown"
                )
                lines.append(
                    f"  exactness: shard {entry.shard} DEGRADED — "
                    f"{entry.lost_packets} lost, first loss at {first} "
                    f"({entry.reason or 'unspecified'}); guarantee void "
                    "from first loss onward"
                )
        elif self.envelope:
            lines.append(
                f"  exactness: all {len(self.envelope)} shards exact "
                "(no-FN/no-FP guarantee intact)"
            )
        for fid, time_ns in sorted(
            self.detections.items(), key=_detection_sort_key
        ):
            lines.append(
                f"  large flow {fid!r} at {_format_detection_time(time_ns)}"
            )
        if self.watcher is not None:
            verdicts = self.watcher.get("verdicts") or {}
            for fid, time_ns in verdicts.items():
                lines.append(
                    f"  probabilistic verdict {fid!r} at "
                    f"{_format_detection_time(time_ns)} (watcher, in-region)"
                )
        return "\n".join(lines)
