"""Stream validation: the ingest-hardening half of :mod:`repro.guard`.

Every guarantee in the paper assumes the detector sees a *physical*
packet stream: non-decreasing timestamps, sizes within the link's frame
envelope ``[min_size, max_size]`` (``alpha`` is the upper end), and flow
IDs that identify real flows.  Real ingest paths violate all three —
capture reordering, corrupted trace records, adversarially crafted
metadata — so :class:`StreamValidator` sits at the boundary and gives
each violation class an explicit policy instead of silently trusting
input:

========================  =======================================
violation class           what it means
========================  =======================================
``negative-time``         arrival time below zero
``time-regression``       packet arrives before its predecessor
``size-range``            size outside ``[min_size, max_size]``
``fid-invalid``           flow ID is None or unhashable
========================  =======================================

Policies per class: ``reject`` (raise :class:`StreamViolationError` with
forensics), ``clamp`` (repair the offending field), ``drop`` (discard
the packet), and — for ``time-regression`` only — ``reorder`` (hold up
to ``reorder_window`` packets in a bounded buffer and re-emit them in
time order; packets displaced further than the window are dropped).

Accounting is exact: :class:`ValidationStats` counts every examined
packet, every violation by class, and every action taken, as plain
integers.  Clamping or dropping *mutates the stream*, which voids the
paper's exactness guarantee exactly like a lost packet — the service
layer surfaces ``stats.mutated`` through the
:class:`~repro.service.health.ServiceReport` envelope.  Reordering, by
contrast, preserves the packet multiset: it repairs capture jitter
rather than changing what was sent, so it is accounted but does not
void exactness.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, Iterator, List, Optional, Tuple

from ..model.packet import MAX_PACKET_SIZE, MIN_PACKET_SIZE, FlowId, Packet

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..model.stream import PacketStream

#: Violation classes.
NEGATIVE_TIME = "negative-time"
TIME_REGRESSION = "time-regression"
SIZE_RANGE = "size-range"
FID_INVALID = "fid-invalid"

VIOLATION_CLASSES = (NEGATIVE_TIME, TIME_REGRESSION, SIZE_RANGE, FID_INVALID)

#: Policy actions.
REJECT = "reject"
CLAMP = "clamp"
DROP = "drop"
REORDER = "reorder"

#: Retained per-violation detail records (counts are always exact).
DEFAULT_SAMPLE_CAPACITY = 64


class StreamViolationError(ValueError):
    """A stream violation under the ``reject`` policy.

    Carries forensics: the violation class, the 0-based index of the
    offending packet in the raw input, and the packet's fields.
    """

    def __init__(
        self,
        message: str,
        violation: str,
        index: int,
        packet: Optional[Packet] = None,
    ):
        super().__init__(message)
        self.violation = violation
        self.index = index
        self.packet = packet


@dataclass(frozen=True)
class ViolationSample:
    """One recorded violation: which packet, what was wrong, what we did."""

    index: int
    violation: str
    action: str
    time_ns: int
    size: int
    fid: str

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "violation": self.violation,
            "action": self.action,
            "time_ns": self.time_ns,
            "size": self.size,
            "fid": self.fid,
        }


@dataclass
class ValidationStats:
    """Exact integer accounting of a validator's work.

    ``mutated`` counts packets whose content the validator changed or
    removed (clamps + drops) — the exactness-voiding actions.  Reorders
    preserve the packet multiset and are counted separately.
    """

    examined: int = 0
    emitted: int = 0
    violations: Dict[str, int] = field(default_factory=dict)
    clamped: int = 0
    dropped: int = 0
    reordered: int = 0
    rejected: int = 0
    first_mutation_time_ns: Optional[int] = None
    first_mutation_index: Optional[int] = None
    samples: List[ViolationSample] = field(default_factory=list)
    sample_capacity: int = DEFAULT_SAMPLE_CAPACITY

    @property
    def mutated(self) -> int:
        """Packets altered or removed — each voids exactness like a loss."""
        return self.clamped + self.dropped

    @property
    def total_violations(self) -> int:
        return sum(self.violations.values())

    def record(
        self,
        violation: str,
        action: str,
        index: int,
        packet: Packet,
    ) -> None:
        """Count one violation and the action applied to it."""
        self.violations[violation] = self.violations.get(violation, 0) + 1
        if action == CLAMP:
            self.clamped += 1
        elif action == DROP:
            self.dropped += 1
        elif action == REORDER:
            self.reordered += 1
        elif action == REJECT:
            self.rejected += 1
        if action in (CLAMP, DROP) and self.first_mutation_index is None:
            self.first_mutation_index = index
            self.first_mutation_time_ns = packet.time
        if len(self.samples) < self.sample_capacity:
            self.samples.append(
                ViolationSample(
                    index=index,
                    violation=violation,
                    action=action,
                    time_ns=packet.time,
                    size=packet.size,
                    fid=repr(packet.fid),
                )
            )

    def as_dict(self) -> Dict[str, object]:
        """Machine-consumable form (folded into ``ServiceReport``).

        ``violations`` is zero-filled over every class in
        :data:`VIOLATION_CLASSES`: a clean run emits the same schema as a
        dirty one, so JSON consumers (dashboards, the metrics exporter)
        never have to special-case missing keys.
        """
        violations = {name: 0 for name in VIOLATION_CLASSES}
        violations.update(self.violations)
        return {
            "examined": self.examined,
            "emitted": self.emitted,
            "violations": violations,
            "clamped": self.clamped,
            "dropped": self.dropped,
            "reordered": self.reordered,
            "rejected": self.rejected,
            "mutated": self.mutated,
            "first_mutation_time_ns": self.first_mutation_time_ns,
            "first_mutation_index": self.first_mutation_index,
            "samples": [sample.as_dict() for sample in self.samples],
        }

    def reset(self) -> None:
        self.examined = 0
        self.emitted = 0
        self.violations = {}
        self.clamped = 0
        self.dropped = 0
        self.reordered = 0
        self.rejected = 0
        self.first_mutation_time_ns = None
        self.first_mutation_index = None
        self.samples = []


@dataclass(frozen=True)
class GuardPolicy:
    """Per-violation-class actions plus the size envelope.

    ``min_size``/``max_size`` default to the Ethernet frame envelope the
    paper uses (``alpha = 1518``); pass a different ``max_size`` to match
    the detector's engineered ``alpha``.  ``reorder_window`` is the
    bounded buffer depth used when ``time_regression == "reorder"``: a
    late packet displaced by at most that many packets is re-slotted into
    time order; one displaced further is dropped (and counted).
    """

    negative_time: str = REJECT
    time_regression: str = REJECT
    size_range: str = REJECT
    fid_invalid: str = REJECT
    min_size: int = MIN_PACKET_SIZE
    max_size: int = MAX_PACKET_SIZE
    reorder_window: int = 0

    def __post_init__(self) -> None:
        for name, allowed in (
            ("negative_time", (REJECT, CLAMP, DROP)),
            ("time_regression", (REJECT, CLAMP, DROP, REORDER)),
            ("size_range", (REJECT, CLAMP, DROP)),
            # Clamping a flow ID would merge distinct invalid flows into
            # one synthetic flow — a correctness trap, so it is not
            # offered.
            ("fid_invalid", (REJECT, DROP)),
        ):
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(
                    f"{name} policy must be one of {allowed}, got {value!r}"
                )
        if not 0 < self.min_size <= self.max_size:
            raise ValueError(
                f"need 0 < min_size <= max_size, got "
                f"[{self.min_size}, {self.max_size}]"
            )
        if self.time_regression == REORDER and self.reorder_window < 1:
            raise ValueError(
                "time_regression='reorder' needs reorder_window >= 1, "
                f"got {self.reorder_window}"
            )
        if self.reorder_window < 0:
            raise ValueError(
                f"reorder_window must be >= 0, got {self.reorder_window}"
            )

    # -- presets -----------------------------------------------------------

    @classmethod
    def strict(cls, **overrides: object) -> "GuardPolicy":
        """Reject every violation (the default)."""
        return cls(**overrides)  # type: ignore[arg-type]

    @classmethod
    def repair(cls, **overrides: object) -> "GuardPolicy":
        """Best-effort repair: clamp times/sizes, drop invalid flow IDs.

        Every repair is counted as a mutation, so downstream exactness
        reporting stays honest.
        """
        settings: Dict[str, object] = {
            "negative_time": CLAMP,
            "time_regression": CLAMP,
            "size_range": CLAMP,
            "fid_invalid": DROP,
        }
        settings.update(overrides)
        return cls(**settings)  # type: ignore[arg-type]

    @classmethod
    def reordering(cls, window: int, **overrides: object) -> "GuardPolicy":
        """Repair preset with a bounded reorder buffer for late packets."""
        settings: Dict[str, object] = {
            "negative_time": CLAMP,
            "time_regression": REORDER,
            "size_range": CLAMP,
            "fid_invalid": DROP,
            "reorder_window": window,
        }
        settings.update(overrides)
        return cls(**settings)  # type: ignore[arg-type]


class StreamValidator:
    """Validate (and optionally repair) a packet stream at the ingest
    boundary.

    One validator may process many streams; positional state (last
    accepted time, the reorder buffer) is local to each
    :meth:`iter_validated` call, while :attr:`stats` accumulates across
    calls — so a replayed source (checkpoint recovery) keeps exact
    cumulative accounting.
    """

    def __init__(
        self,
        policy: Optional[GuardPolicy] = None,
        stats: Optional[ValidationStats] = None,
    ):
        self.policy = policy or GuardPolicy()
        self.stats = stats if stats is not None else ValidationStats()

    # -- the validation pass ----------------------------------------------

    def iter_validated(self, packets: Iterable[Packet]) -> Iterator[Packet]:
        """Yield the validated stream, applying this validator's policy.

        Output timestamps are guaranteed non-decreasing and every output
        size lies in ``[min_size, max_size]`` (unless the corresponding
        policies are ``reject``, in which case a violation raises
        instead).
        """
        policy = self.policy
        stats = self.stats
        reorder = policy.time_regression == REORDER
        window = policy.reorder_window
        # Bounded min-heap of (time, arrival sequence, packet); ties keep
        # arrival order, matching repro.model.stream.merge semantics.
        buffer: List[Tuple[int, int, Packet]] = []
        last_time: Optional[int] = None
        max_seen: Optional[int] = None

        def emit_ordered(packet: Packet, index: int) -> Optional[Packet]:
            """Enforce output monotonicity; returns the packet to yield
            (possibly clamped) or None when it was dropped."""
            nonlocal last_time
            if last_time is not None and packet.time < last_time:
                if reorder:
                    # Popped from the sorted buffer yet still late: the
                    # displacement exceeded the window.  The multiset
                    # can no longer be preserved — drop, and count the
                    # mutation.
                    stats.record(TIME_REGRESSION, DROP, index, packet)
                    return None
                action = policy.time_regression
                stats.record(TIME_REGRESSION, action, index, packet)
                if action == REJECT:
                    raise StreamViolationError(
                        f"packet #{index} at t={packet.time}ns arrives "
                        f"after a packet at t={last_time}ns",
                        violation=TIME_REGRESSION,
                        index=index,
                        packet=packet,
                    )
                if action == DROP:
                    return None
                packet = Packet(
                    time=last_time, size=packet.size, fid=packet.fid
                )
            last_time = packet.time
            return packet

        screen = self._screen
        min_size = policy.min_size
        max_size = policy.max_size
        for index, packet in enumerate(packets):
            stats.examined += 1
            # Fast path: int/str flow IDs are never None and always
            # hashable, so a packet with one and clean time/size needs no
            # screening.
            fid_type = type(packet.fid)
            if (
                (fid_type is int or fid_type is str)
                and packet.time >= 0
                and min_size <= packet.size <= max_size
            ):
                pass
            else:
                screened = screen(packet, index)
                if screened is None:
                    continue
                packet = screened
            if reorder:
                if max_seen is not None and packet.time < max_seen:
                    # Genuinely out of order; the buffer will re-slot it
                    # (or emit_ordered will drop it if it pops too late).
                    stats.record(TIME_REGRESSION, REORDER, index, packet)
                if max_seen is None or packet.time > max_seen:
                    max_seen = packet.time
                heapq.heappush(buffer, (packet.time, index, packet))
                if len(buffer) > window:
                    _, popped_index, popped = heapq.heappop(buffer)
                    emitted = emit_ordered(popped, popped_index)
                    if emitted is not None:
                        stats.emitted += 1
                        yield emitted
            else:
                emitted = emit_ordered(packet, index)
                if emitted is not None:
                    stats.emitted += 1
                    yield emitted
        while buffer:
            _, popped_index, popped = heapq.heappop(buffer)
            emitted = emit_ordered(popped, popped_index)
            if emitted is not None:
                stats.emitted += 1
                yield emitted

    def validate(self, packets: Iterable[Packet]) -> "PacketStream":
        """Validate eagerly into a time-ordered
        :class:`~repro.model.stream.PacketStream`."""
        from ..model.stream import PacketStream

        return PacketStream(self.iter_validated(packets))

    # -- per-packet screening ---------------------------------------------

    def _screen(self, packet: Packet, index: int) -> Optional[Packet]:
        """Apply the time-sign, size-envelope and fid checks; returns the
        (possibly clamped) packet, or None when it was dropped."""
        policy = self.policy
        stats = self.stats

        fid_problem = self._fid_problem(packet.fid)
        if fid_problem is not None:
            action = policy.fid_invalid
            stats.record(FID_INVALID, action, index, packet)
            if action == REJECT:
                raise StreamViolationError(
                    f"packet #{index} has an invalid flow ID: {fid_problem}",
                    violation=FID_INVALID,
                    index=index,
                    packet=packet,
                )
            return None

        # Packet.__post_init__ already rejects negative times at
        # construction; this guards paths that bypass it (deserializers,
        # subclasses) so the validator's output contract holds anyway.
        if packet.time < 0:
            action = policy.negative_time
            stats.record(NEGATIVE_TIME, action, index, packet)
            if action == REJECT:
                raise StreamViolationError(
                    f"packet #{index} has negative time {packet.time}ns",
                    violation=NEGATIVE_TIME,
                    index=index,
                    packet=packet,
                )
            if action == DROP:
                return None
            packet = Packet(time=0, size=packet.size, fid=packet.fid)

        size = packet.size
        if not policy.min_size <= size <= policy.max_size:
            action = policy.size_range
            stats.record(SIZE_RANGE, action, index, packet)
            if action == REJECT:
                raise StreamViolationError(
                    f"packet #{index} size {size}B is outside "
                    f"[{policy.min_size}, {policy.max_size}]",
                    violation=SIZE_RANGE,
                    index=index,
                    packet=packet,
                )
            if action == DROP:
                return None
            clamped = min(max(size, policy.min_size), policy.max_size)
            packet = Packet(time=packet.time, size=clamped, fid=packet.fid)
        return packet

    @staticmethod
    def _fid_problem(fid: FlowId) -> Optional[str]:
        """Why a flow ID is unusable, or None when it is fine."""
        if fid is None:
            return "None is not a flow"
        try:
            hash(fid)
        except TypeError:
            return f"unhashable flow ID of type {type(fid).__name__}"
        return None

    def __repr__(self) -> str:
        return (
            f"StreamValidator(policy={self.policy!r}, "
            f"examined={self.stats.examined}, mutated={self.stats.mutated})"
        )


def validate_stream(
    packets: Iterable[Packet], policy: Optional[GuardPolicy] = None
) -> Tuple["PacketStream", ValidationStats]:
    """One-shot convenience: validate ``packets`` under ``policy``.

    Returns ``(stream, stats)`` where ``stream`` is a time-ordered
    :class:`~repro.model.stream.PacketStream` of the surviving packets.
    """
    validator = StreamValidator(policy)
    stream = validator.validate(packets)
    return stream, validator.stats
