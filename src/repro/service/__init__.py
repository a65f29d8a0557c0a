"""Streaming detection service: sharded ingestion with exact checkpoints.

This package turns the EARDet library into a deployable runtime
(``eardet serve``): pull-based packet sources, one sharded engine core
— a shared routing side (:class:`ShardedEngine`) and a slot host
(:class:`SlotHost`) — over three transports with bounded queues and
backpressure (in-process for determinism, multiprocess for throughput,
remote TCP across hosts), an exact binary checkpoint/restore layer,
the service lifecycle gluing them together, and a fault-tolerance layer
— deterministic fault injection (:mod:`repro.service.faults`),
supervised restart with checkpoint recovery
(:mod:`repro.service.supervisor`), and per-shard exactness envelopes
that state precisely where the no-FN/no-FP guarantee still holds.
Ingest hardening and runtime invariant checking come from
:mod:`repro.guard` (wrap any source in :class:`GuardedSource`; arm the
checker with ``invariant_every``).  Overload resilience — admission
control with hysteresis watermarks, the accounted degradation ladder
(EXACT → DEFERRED → AGGREGATED → SHEDDING), and graceful drain — lives
in :mod:`repro.service.overload`; retry timing everywhere goes through
the shared :class:`BackoffPolicy`.  The two-stage pipeline
(:mod:`repro.service.pipeline`) arms a per-shard ambiguity-region
watcher — CLEF's twin RLFDs or LOFT — whose probabilistic verdicts are
reported strictly apart from the exact detection set.  Elastic scaling
lives in :mod:`repro.service.reshard`: flows hash into a fixed slot
space, a versioned :class:`ShardLayout` maps slots onto shards, and
:func:`execute_migration` moves whole slots between shards live — a
two-phase freeze/extract → install/cutover protocol with rollback — so
detections are bit-identical under any migration history; the
:class:`Coordinator` proposes such plans under sustained skew.  The
multi-host layer (:mod:`repro.service.net`, :mod:`repro.service.remote`)
carries the same packet columns over TCP with exactly-once delivery —
CRC-protected frames, monotonic sequences, cumulative acks, an
unacked-frame replay ring — so a :class:`RemoteEngine` coordinator can
drive ``eardet worker --listen`` shard servers on other hosts with
bit-identical detections; outages are masked exactly within a bounded
window and accounted in the envelope beyond it.  Incident forensics —
the append-only CRC'd incident log, replay-bundle capture, and
deterministic bit-identical re-execution of any detection — lives in
:mod:`repro.forensics` (``--forensics-dir``, ``eardet replay``,
``eardet incidents``).  See ``docs/SERVICE.md``,
``docs/FAULT_TOLERANCE.md``, ``docs/GUARDRAILS.md``,
``docs/OVERLOAD.md``, ``docs/DETECTORS.md`` and ``docs/FORENSICS.md``.
"""

from .backoff import DEFAULT_BACKOFF, BackoffPolicy
from .checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    describe_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from .engine import InProcessEngine, ShardedEngine, SlotHost
from .errors import (
    FrameCorruptError,
    HandshakeError,
    InvariantViolation,
    MigrationError,
    OverloadError,
    PermanentSourceError,
    QueueStallError,
    RecoverableServiceError,
    ReplayIncompleteError,
    RestartBudgetExceededError,
    RetuneError,
    ServiceError,
    ShardCrashError,
    SourceError,
    TransientSourceError,
    TransitionError,
    TransportError,
)
from .faults import (
    CheckpointFault,
    FaultPlan,
    FaultySource,
    MigrationFault,
    NetFault,
    ShardFault,
    SourceFault,
    TuneFault,
)
from .net import (
    NET_PROTOCOL_VERSION,
    TRANSPORT_ABORT_EXIT_CODE,
    ShardConnection,
    ShardServer,
    parse_endpoint,
    parse_endpoints,
    run_worker,
)
from .remote import RemoteEngine
from .health import (
    DeadLetter,
    DeadLetterSink,
    ExactnessEnvelope,
    ServiceReport,
    ShardHealth,
)
from .overload import (
    AdmissionController,
    DegradationAccount,
    DegradationLevel,
    OverloadPolicy,
    ShardOverload,
)
from .pipeline import WATCHER_KINDS, WatcherPolicy, WatcherStage
from .reshard import (
    Coordinator,
    CoordinatorPolicy,
    MigrationPlan,
    MigrationReport,
    ShardLayout,
    SlotMove,
    execute_migration,
)
from .runtime import DetectionService
from .sources import (
    GuardedSource,
    PacketSource,
    RetryingSource,
    StreamSource,
    SyntheticSource,
    TraceFileSource,
    as_source,
)
from .supervisor import RestartPolicy, Supervisor
from .workers import (
    DRAIN_EXIT_CODE,
    MIGRATION_ABORT_EXIT_CODE,
    MultiprocessEngine,
    WorkerError,
)

__all__ = [
    "AdmissionController",
    "BackoffPolicy",
    "CheckpointCorruptError",
    "CheckpointError",
    "CheckpointFault",
    "Coordinator",
    "CoordinatorPolicy",
    "DEFAULT_BACKOFF",
    "DRAIN_EXIT_CODE",
    "DeadLetter",
    "DeadLetterSink",
    "DegradationAccount",
    "DegradationLevel",
    "DetectionService",
    "ExactnessEnvelope",
    "FaultPlan",
    "FaultySource",
    "FrameCorruptError",
    "GuardedSource",
    "HandshakeError",
    "InProcessEngine",
    "InvariantViolation",
    "MIGRATION_ABORT_EXIT_CODE",
    "MigrationError",
    "MigrationFault",
    "MigrationPlan",
    "MigrationReport",
    "MultiprocessEngine",
    "NET_PROTOCOL_VERSION",
    "NetFault",
    "OverloadError",
    "OverloadPolicy",
    "PacketSource",
    "PermanentSourceError",
    "QueueStallError",
    "RecoverableServiceError",
    "RemoteEngine",
    "ReplayIncompleteError",
    "RestartBudgetExceededError",
    "RestartPolicy",
    "RetryingSource",
    "RetuneError",
    "ServiceError",
    "ServiceReport",
    "ShardConnection",
    "ShardedEngine",
    "ShardCrashError",
    "ShardFault",
    "ShardHealth",
    "ShardLayout",
    "ShardOverload",
    "ShardServer",
    "SlotHost",
    "SlotMove",
    "SourceError",
    "SourceFault",
    "StreamSource",
    "Supervisor",
    "SyntheticSource",
    "TRANSPORT_ABORT_EXIT_CODE",
    "TraceFileSource",
    "TransientSourceError",
    "TransitionError",
    "TransportError",
    "TuneFault",
    "WATCHER_KINDS",
    "WatcherPolicy",
    "WatcherStage",
    "WorkerError",
    "as_source",
    "describe_checkpoint",
    "execute_migration",
    "parse_endpoint",
    "parse_endpoints",
    "read_checkpoint",
    "run_worker",
    "write_checkpoint",
]
