"""Admission control and the accounted degradation ladder.

The service's bounded queues protect memory, but before this module the
only response to a full queue was to block (in-process) or drop
(multiprocess dead-letter path) — the second silently voids EARDet's
no-FN/no-FP guarantees, the exact failure mode the large-flow-detection
literature warns about when a detector is run past its resource
envelope.  This module replaces "fail open" with a typed, *accounted*
degradation ladder driven by an admission controller with hysteresis
watermarks over queue occupancy:

``EXACT``
    Normal operation.  Every packet is enqueued as-is; all guarantees
    hold.

``DEFERRED``
    Deadline-aware batch coalescing.  Packets are buffered per shard and
    released as one burst when the buffer fills or a batch deadline
    expires.  Nothing is merged or re-stamped, so the detector still
    sees the identical packet sequence — this rung is **still exact**,
    it only trades latency for queue headroom.

``AGGREGATED``
    Packets are merged into per-flow byte aggregates within a bounded
    time epoch.  Byte counters stay integer-exact, but every aggregate
    is re-stamped at its epoch's flush time, so timestamps coarsen by at
    most the epoch span.  That widens the ambiguity region by a
    *computed* bound (``max_widening_ns``; see ``docs/OVERLOAD.md``) —
    degraded, but quantified.

``SHEDDING``
    Accounted drops.  Packets are counted (packets and bytes) and
    discarded; the first shed timestamp voids the exactness envelope
    exactly the way a queue-overflow loss already does.

Every packet offered to an overloaded shard lands in exactly one rung of
the :class:`DegradationAccount`, so the integer identity::

    exact_bytes + deferred_bytes + aggregated_bytes + shed_bytes == offered_bytes

holds at all times — overload never loses *accounting*, only (at the
last rung, and visibly) packets.

The controller moves at most one rung per observation and applies a
cooldown before de-escalating, so the ladder cannot flap
EXACT↔DEFERRED within a single batch (property-tested in
``tests/test_overload.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Dict, List, Optional, Tuple

from ..model.packet import FlowId

__all__ = [
    "DegradationLevel",
    "OverloadPolicy",
    "AdmissionController",
    "DegradationAccount",
    "ShardOverload",
    "build_overload_report",
]


class DegradationLevel(IntEnum):
    """The degradation ladder, ordered from fully exact to lossy."""

    EXACT = 0
    DEFERRED = 1
    AGGREGATED = 2
    SHEDDING = 3

    @property
    def label(self) -> str:
        """Lower-case name for reports and metrics."""
        return self.name.lower()


#: The ladder in escalation order.
LADDER: Tuple[DegradationLevel, ...] = tuple(DegradationLevel)


@dataclass(frozen=True)
class OverloadPolicy:
    """Tunable knobs of the admission controller and ladder rungs.

    Watermarks are queue-occupancy fractions in ``[0, 1]``: the
    controller escalates one rung when occupancy reaches
    ``high_watermark`` and de-escalates one rung when it falls to
    ``low_watermark`` *and* the cooldown since the last transition has
    elapsed.  The gap between the watermarks plus the cooldown is the
    hysteresis that keeps the ladder from flapping.
    """

    #: Escalate when queue occupancy >= this fraction.
    high_watermark: float = 0.75
    #: De-escalate when queue occupancy <= this fraction.
    low_watermark: float = 0.25
    #: Observations (batches) that must pass after any transition before
    #: a de-escalation is allowed.
    cooldown: int = 4
    #: DEFERRED: release the coalescing buffer at this many packets.
    defer_max_packets: int = 1024
    #: DEFERRED: release the coalescing buffer after this many batches
    #: even if not full (the deadline).
    defer_deadline_batches: int = 4
    #: AGGREGATED: flush all per-flow aggregates once the current epoch
    #: spans this many nanoseconds.
    aggregate_window_ns: int = 10_000_000
    #: AGGREGATED: flush early if this many distinct flows accumulate
    #: (bounds aggregation memory under flow churn).
    aggregate_max_flows: int = 4096
    #: Per-shard packets drained from the queue per service batch when
    #: the policy is armed on the in-process engine (models worker
    #: capacity; ``None`` = drain fully, i.e. capacity is unbounded).
    drain_budget: Optional[int] = None
    #: Multiprocess producer bound: raise ``OverloadError`` when a shard
    #: queue stays full this long (``None`` keeps the historical
    #: block-until-space behaviour).
    put_timeout_s: Optional[float] = None
    #: Highest rung the controller may reach (clamp to ``AGGREGATED`` to
    #: forbid shedding outright, at the price of blocking).
    max_level: DegradationLevel = DegradationLevel.SHEDDING

    def __post_init__(self) -> None:
        if not 0.0 < self.high_watermark <= 1.0:
            raise ValueError(
                f"high_watermark must be in (0, 1], got {self.high_watermark}"
            )
        if not 0.0 <= self.low_watermark < self.high_watermark:
            raise ValueError(
                "low_watermark must satisfy 0 <= low < high, got "
                f"low={self.low_watermark} high={self.high_watermark}"
            )
        if self.cooldown < 0:
            raise ValueError(f"cooldown must be >= 0, got {self.cooldown}")
        if self.defer_max_packets < 1:
            raise ValueError(
                f"defer_max_packets must be >= 1, got {self.defer_max_packets}"
            )
        if self.defer_deadline_batches < 1:
            raise ValueError(
                "defer_deadline_batches must be >= 1, got "
                f"{self.defer_deadline_batches}"
            )
        if self.aggregate_window_ns < 1:
            raise ValueError(
                f"aggregate_window_ns must be >= 1, got {self.aggregate_window_ns}"
            )
        if self.aggregate_max_flows < 1:
            raise ValueError(
                f"aggregate_max_flows must be >= 1, got {self.aggregate_max_flows}"
            )
        if self.drain_budget is not None and self.drain_budget < 1:
            raise ValueError(
                f"drain_budget must be >= 1 or None, got {self.drain_budget}"
            )
        if self.put_timeout_s is not None and self.put_timeout_s <= 0:
            raise ValueError(
                f"put_timeout_s must be > 0 or None, got {self.put_timeout_s}"
            )


class AdmissionController:
    """Hysteresis state machine stepping a shard through the ladder.

    ``observe`` is called once per ingest batch with the shard's current
    queue depth and capacity; it moves the level **at most one rung**
    and returns the level in force for that batch.  De-escalation
    additionally requires ``policy.cooldown`` observations to have
    passed since the last transition, so recovery is deliberate while
    escalation stays immediate (safety favours backing off fast and
    recovering slowly).
    """

    #: Transition-log entries kept (oldest evicted first).
    LOG_LIMIT = 64

    def __init__(self, policy: OverloadPolicy):
        self.policy = policy
        self.level = DegradationLevel.EXACT
        self.observations = 0
        self.transitions = 0
        self._cooldown_left = 0
        #: Recent transitions as ``(observation_index, from, to)``.
        self.transition_log: List[Tuple[int, DegradationLevel, DegradationLevel]] = []

    def observe(self, depth: int, capacity: int) -> DegradationLevel:
        """Feed one occupancy sample; returns the (possibly new) level."""
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        if depth < 0:
            raise ValueError(f"depth must be >= 0, got {depth}")
        self.observations += 1
        if self._cooldown_left > 0:
            self._cooldown_left -= 1
        occupancy = depth / capacity
        policy = self.policy
        if occupancy >= policy.high_watermark and self.level < policy.max_level:
            self._transition(DegradationLevel(self.level + 1))
        elif (
            occupancy <= policy.low_watermark
            and self.level > DegradationLevel.EXACT
            and self._cooldown_left == 0
        ):
            self._transition(DegradationLevel(self.level - 1))
        return self.level

    def _transition(self, to: DegradationLevel) -> None:
        self.transition_log.append((self.observations, self.level, to))
        if len(self.transition_log) > self.LOG_LIMIT:
            del self.transition_log[0]
        self.level = to
        self.transitions += 1
        self._cooldown_left = self.policy.cooldown

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, int]:
        return {
            "level": int(self.level),
            "observations": self.observations,
            "transitions": self.transitions,
            "cooldown_left": self._cooldown_left,
        }

    def restore(self, state: Dict[str, int]) -> None:
        self.level = DegradationLevel(state["level"])
        self.observations = state["observations"]
        self.transitions = state["transitions"]
        self._cooldown_left = state["cooldown_left"]


class DegradationAccount:
    """Integer-exact account of where every offered byte went.

    Each packet offered while a policy is armed is attributed to exactly
    one rung at admission time, so
    ``exact + deferred + aggregated + shed == offered`` holds for both
    packet and byte totals at every instant.
    """

    __slots__ = (
        "exact_packets",
        "exact_bytes",
        "deferred_packets",
        "deferred_bytes",
        "aggregated_packets",
        "aggregated_bytes",
        "shed_packets",
        "shed_bytes",
        "first_shed_ts",
        "max_widening_ns",
    )

    _FIELDS = __slots__

    def __init__(self) -> None:
        self.exact_packets = 0
        self.exact_bytes = 0
        self.deferred_packets = 0
        self.deferred_bytes = 0
        self.aggregated_packets = 0
        self.aggregated_bytes = 0
        self.shed_packets = 0
        self.shed_bytes = 0
        #: Timestamp (ns) of the first shed packet; voids the envelope.
        self.first_shed_ts: Optional[int] = None
        #: Largest re-stamp distance any aggregated packet suffered —
        #: the computed ambiguity-region widening bound (ns).
        self.max_widening_ns = 0

    def admit(self, level: DegradationLevel, size: int, time_ns: int) -> None:
        """Attribute one offered packet to ``level``."""
        if level is DegradationLevel.EXACT:
            self.exact_packets += 1
            self.exact_bytes += size
        elif level is DegradationLevel.DEFERRED:
            self.deferred_packets += 1
            self.deferred_bytes += size
        elif level is DegradationLevel.AGGREGATED:
            self.aggregated_packets += 1
            self.aggregated_bytes += size
        else:
            self.shed_packets += 1
            self.shed_bytes += size
            if self.first_shed_ts is None:
                self.first_shed_ts = time_ns

    def note_widening(self, widening_ns: int) -> None:
        if widening_ns > self.max_widening_ns:
            self.max_widening_ns = widening_ns

    @property
    def offered_packets(self) -> int:
        return (
            self.exact_packets
            + self.deferred_packets
            + self.aggregated_packets
            + self.shed_packets
        )

    @property
    def offered_bytes(self) -> int:
        return (
            self.exact_bytes
            + self.deferred_bytes
            + self.aggregated_bytes
            + self.shed_bytes
        )

    def merge(self, other: "DegradationAccount") -> None:
        """Fold another shard's account into this one (for service-level
        totals); first-shed keeps the earliest, widening the largest."""
        for name in self._FIELDS:
            if name in ("first_shed_ts", "max_widening_ns"):
                continue
            setattr(self, name, getattr(self, name) + getattr(other, name))
        if other.first_shed_ts is not None and (
            self.first_shed_ts is None or other.first_shed_ts < self.first_shed_ts
        ):
            self.first_shed_ts = other.first_shed_ts
        self.note_widening(other.max_widening_ns)

    # -- checkpointing -----------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        state: Dict[str, object] = {
            name: getattr(self, name) for name in self._FIELDS
        }
        return state

    def restore(self, state: Dict[str, object]) -> None:
        for name, value in state.items():
            if name not in self._FIELDS:
                raise ValueError(f"unknown account field {name!r}")
            setattr(self, name, value)


#: One packet as a rung buffer holds it: ``(time_ns, size, fid)``.
Item = Tuple[int, int, FlowId]


class ShardOverload:
    """Per-shard ladder state: controller, account and rung buffers.

    The engine drives it with three calls:

    - :meth:`observe` once per ingest batch (before admitting packets);
      any items it returns were pending in a rung buffer that the new
      level no longer uses and **must be staged first**.
    - :meth:`admit` per packet; the returned items (possibly none, for a
      buffered packet; possibly many, for a buffer release) are what the
      engine actually stages.  ``None`` means the packet was shed.
    - :meth:`on_batch_end` after the batch; returned items are
      deadline-expired deferred packets to stage.

    :meth:`flush` releases everything pending (drain/snapshot/stop), so
    a graceful shutdown never strands buffered packets.

    All emissions preserve the monotone-feed property the detector
    relies on: deferred packets are released unmodified and in order;
    aggregates are stamped at the epoch's flush time, which is never
    earlier than any packet already emitted.
    """

    def __init__(self, policy: OverloadPolicy):
        self.policy = policy
        self.controller = AdmissionController(policy)
        self.account = DegradationAccount()
        # DEFERRED: coalescing buffer and its age in batches.
        self._defer: List[Item] = []
        self._defer_age = 0
        # AGGREGATED: fid -> [bytes, first_ts, packets]; epoch start ts.
        self._aggregates: Dict[FlowId, List[int]] = {}
        self._epoch_start: Optional[int] = None
        self._last_time = 0
        # High-water telemetry (bounded-memory evidence for the soak).
        self.defer_high_water = 0
        self.aggregate_flows_high_water = 0

    @property
    def level(self) -> DegradationLevel:
        return self.controller.level

    @property
    def pending(self) -> int:
        """Packets currently held in rung buffers (not yet staged)."""
        return len(self._defer) + sum(
            entry[2] for entry in self._aggregates.values()
        )

    # -- the three engine hooks -------------------------------------------

    def observe(self, depth: int, capacity: int) -> List[Item]:
        """Feed one occupancy sample; flush buffers a level change
        orphans.  Returns items the engine must stage immediately."""
        before = self.controller.level
        after = self.controller.observe(depth, capacity)
        if after is before:
            return []
        released: List[Item] = []
        if before is DegradationLevel.DEFERRED and self._defer:
            released.extend(self._release_defer())
        if before is DegradationLevel.AGGREGATED and self._aggregates:
            released.extend(self._flush_aggregates(self._last_time))
        return released

    def admit(
        self, time_ns: int, size: int, fid: FlowId
    ) -> Optional[List[Item]]:
        """Admit one packet at the current level.

        Returns the items to stage now (possibly empty while a buffer
        fills), or ``None`` when the packet was shed.
        """
        level = self.controller.level
        self.account.admit(level, size, time_ns)
        self._last_time = time_ns
        if level is DegradationLevel.EXACT:
            return [(time_ns, size, fid)]
        if level is DegradationLevel.DEFERRED:
            self._defer.append((time_ns, size, fid))
            if len(self._defer) > self.defer_high_water:
                self.defer_high_water = len(self._defer)
            if len(self._defer) >= self.policy.defer_max_packets:
                return self._release_defer()
            return []
        if level is DegradationLevel.AGGREGATED:
            return self._aggregate(time_ns, size, fid)
        return None

    def on_batch_end(self) -> List[Item]:
        """Advance the deferred deadline clock; returns expired items."""
        if not self._defer:
            self._defer_age = 0
            return []
        self._defer_age += 1
        if self._defer_age >= self.policy.defer_deadline_batches:
            return self._release_defer()
        return []

    def flush(self) -> List[Item]:
        """Release everything pending (drain, snapshot, stop)."""
        released = self._release_defer()
        released.extend(self._flush_aggregates(self._last_time))
        return released

    # -- rung internals ----------------------------------------------------

    def _release_defer(self) -> List[Item]:
        released = self._defer
        self._defer = []
        self._defer_age = 0
        return released

    def _aggregate(self, time_ns: int, size: int, fid: FlowId) -> List[Item]:
        if self._epoch_start is None:
            self._epoch_start = time_ns
        entry = self._aggregates.get(fid)
        if entry is None:
            self._aggregates[fid] = [size, time_ns, 1]
            if len(self._aggregates) > self.aggregate_flows_high_water:
                self.aggregate_flows_high_water = len(self._aggregates)
        else:
            entry[0] += size
            entry[2] += 1
        if (
            time_ns - self._epoch_start >= self.policy.aggregate_window_ns
            or len(self._aggregates) >= self.policy.aggregate_max_flows
        ):
            return self._flush_aggregates(time_ns)
        return []

    def _flush_aggregates(self, flush_ts: int) -> List[Item]:
        if not self._aggregates:
            return []
        released: List[Item] = []
        for fid, (total, first_ts, _count) in self._aggregates.items():
            self.account.note_widening(flush_ts - first_ts)
            released.append((flush_ts, total, fid))
        self._aggregates = {}
        self._epoch_start = None
        return released

    # -- reporting / checkpointing ----------------------------------------

    def report(self) -> Dict[str, object]:
        """Plain-data summary for ``ServiceReport`` and telemetry."""
        return {
            "level": self.level.label,
            "transitions": self.controller.transitions,
            "account": self.account.as_dict(),
            "pending": self.pending,
            "defer_high_water": self.defer_high_water,
            "aggregate_flows_high_water": self.aggregate_flows_high_water,
        }

    def snapshot(self) -> Dict[str, object]:
        """Checkpointable state.  Rung buffers must be empty — the
        engine flushes before snapshotting (enforced here)."""
        if self.pending:
            raise RuntimeError(
                f"cannot snapshot with {self.pending} packets pending in "
                "rung buffers; flush first"
            )
        return {
            "controller": self.controller.snapshot(),
            "account": self.account.as_dict(),
            "defer_high_water": self.defer_high_water,
            "aggregate_flows_high_water": self.aggregate_flows_high_water,
            "last_time": self._last_time,
        }

    def restore(self, state: Dict[str, object]) -> None:
        self.controller.restore(state["controller"])  # type: ignore[arg-type]
        self.account.restore(state["account"])  # type: ignore[arg-type]
        self.defer_high_water = state["defer_high_water"]  # type: ignore[assignment]
        self.aggregate_flows_high_water = state[  # type: ignore[assignment]
            "aggregate_flows_high_water"
        ]
        self._last_time = state["last_time"]  # type: ignore[assignment]


def build_overload_report(
    states: List[ShardOverload], rho: int
) -> Dict[str, object]:
    """Service-level overload summary shared by both engines.

    Merges the per-shard degradation accounts (the integer identity
    ``exact + deferred + aggregated + shed == offered`` holds by
    construction) and converts the maximum re-stamp distance into the
    ambiguity-widening byte bound: over any window, aggregation can
    shift at most ``rho * max_widening_ns / 1e9`` bytes of a flow's
    measured traffic across the window edge (ceiling division keeps the
    bound conservative).
    """
    from ..model.units import NS_PER_S

    total = DegradationAccount()
    for state in states:
        total.merge(state.account)
    widening_ns = total.max_widening_ns
    return {
        "policy": "ladder",
        "shards": [state.report() for state in states],
        "account": total.as_dict(),
        "max_widening_ns": widening_ns,
        "widening_bytes": -(-rho * widening_ns // NS_PER_S),
        "transitions": sum(s.controller.transitions for s in states),
    }
