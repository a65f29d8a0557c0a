"""Structured error taxonomy for the detection service.

The service distinguishes *recoverable* failures — a crashed shard
worker, a stalled queue, a transient source hiccup — from *permanent*
ones, because the supervisor (:mod:`repro.service.supervisor`) restarts
on the former and degrades gracefully on the latter.  Every error class
carries the structured fields an operator (or the supervisor's restart
loop) needs to act: which shard, at which stream position, after how
many attempts.

Hierarchy::

    ServiceError
    ├── RecoverableServiceError        (supervisor may restart)
    │   ├── ShardCrashError            (a shard worker died)
    │   │   └── WorkerError            (a shard host's in-band error reply)
    │   ├── QueueStallError            (heartbeat went stale)
    │   ├── OverloadError              (shard queue full past the put timeout)
    │   ├── TransitionError            (a guarded live transition failed)
    │   │   ├── MigrationError         (a reshard migration failed; rolled back)
    │   │   └── RetuneError            (a hot reconfiguration failed; rolled back)
    │   ├── TransportError             (a remote shard connection failed)
    │   │   └── FrameCorruptError      (a frame failed CRC/length/magic checks)
    │   └── TransientSourceError       (retryable source failure)
    ├── SourceError
    │   ├── TransientSourceError       (also recoverable, see above)
    │   └── PermanentSourceError       (source is gone for good)
    ├── HandshakeError                 (protocol/config mismatch; permanent)
    ├── ReplayIncompleteError          (a replay bundle cannot be exact)
    └── RestartBudgetExceededError     (supervision gave up)

Two classes from other layers are re-exported here so callers can import
the whole taxonomy from one place:

- :class:`~repro.service.checkpoint.CheckpointCorruptError` (lives in
  :mod:`repro.service.checkpoint`, subclasses the pre-existing
  :class:`~repro.service.checkpoint.CheckpointError`);
- :class:`~repro.guard.invariants.InvariantViolation` (lives in
  :mod:`repro.guard` — a **permanent** error: the detector's algorithm
  state is corrupted, so restarting from the same state or a checkpoint
  of it cannot help.  The supervisor records the forensics and aborts
  instead of restarting.)
"""

from __future__ import annotations

from typing import Optional

from ..guard.invariants import InvariantViolation
from .checkpoint import CheckpointCorruptError, CheckpointError

__all__ = [
    "CheckpointCorruptError",
    "CheckpointError",
    "FrameCorruptError",
    "HandshakeError",
    "InvariantViolation",
    "MigrationError",
    "OverloadError",
    "PermanentSourceError",
    "QueueStallError",
    "RecoverableServiceError",
    "ReplayIncompleteError",
    "RetuneError",
    "RestartBudgetExceededError",
    "ServiceError",
    "ShardCrashError",
    "SourceError",
    "TransientSourceError",
    "TransitionError",
    "TransportError",
    "WorkerError",
]


class ServiceError(Exception):
    """Base class for every failure the service layer raises."""


class RecoverableServiceError(ServiceError):
    """A failure the supervisor is allowed to restart from."""


class ShardCrashError(RecoverableServiceError, RuntimeError):
    """A shard worker died (process exit, injected kill, or crash).

    ``shard`` is the shard index, ``exit_code`` the worker's exit status
    when known (multiprocess engine only).
    """

    def __init__(
        self,
        message: str,
        shard: Optional[int] = None,
        exit_code: Optional[int] = None,
    ):
        super().__init__(message)
        self.shard = shard
        self.exit_code = exit_code


class WorkerError(ShardCrashError):
    """A shard host crashed or refused a command; carries its traceback.

    What the in-band ``error`` replies of a multiprocess worker or a TCP
    shard server surface as.  It *is* a :class:`ShardCrashError`, so
    the supervisor treats both identically.
    """


class QueueStallError(RecoverableServiceError):
    """A shard stopped making progress: its heartbeat went stale.

    Raised by the supervisor's monitor when a shard's last heartbeat is
    older than the configured timeout — the worker process is alive but
    wedged (or sleeping inside an injected stall fault).
    """

    def __init__(self, message: str, shard: Optional[int] = None,
                 stalled_s: Optional[float] = None):
        super().__init__(message)
        self.shard = shard
        self.stalled_s = stalled_s


class OverloadError(RecoverableServiceError):
    """A shard queue stayed full past the producer's patience.

    Raised by the multiprocess engine when a shard's input queue remains
    full for longer than the configured ``put_timeout_s`` while the
    worker is alive — the typed replacement for letting a bare
    ``queue.Full`` escape or dropping silently.  Recoverable: the
    supervisor may restart (which re-creates queues and replays from the
    last checkpoint), or the caller may arm an
    :class:`~repro.service.overload.OverloadPolicy` so the ladder sheds
    load accountably before this point is ever reached.
    """

    def __init__(
        self,
        message: str,
        shard: Optional[int] = None,
        queue_depth: Optional[int] = None,
        queue_capacity: Optional[int] = None,
    ):
        super().__init__(message)
        self.shard = shard
        self.queue_depth = queue_depth
        self.queue_capacity = queue_capacity


class TransitionError(RecoverableServiceError):
    """A guarded live transition failed (see
    :mod:`repro.service.transition`).

    ``phase`` names the protocol step the last attempt failed in;
    ``plan`` is the human-readable plan description; ``rolled_back``
    states whether the engine was returned to its pre-transition
    ``state`` (the normal outcome).  ``rolled_back=False`` means the
    rollback itself failed, so that state is suspect: the supervisor
    treats this like any recoverable error and restores from the last
    checkpoint.  Subclasses name their ``kind`` and ``state`` for the
    executor's messages.
    """

    kind = "transition"
    state = "state"

    def __init__(
        self,
        message: str,
        phase: Optional[str] = None,
        plan: Optional[str] = None,
        rolled_back: bool = True,
        attempts: int = 0,
    ):
        super().__init__(message)
        self.phase = phase
        self.plan = plan
        self.rolled_back = rolled_back
        self.attempts = attempts


class MigrationError(TransitionError):
    """A live shard migration failed.  Rolled back, the engine is on the
    pre-migration layout; after a failed rollback the checkpoint restore
    is exact regardless of layout."""

    kind = "migration"
    state = "layout"


class RetuneError(TransitionError):
    """A guarded hot reconfiguration (retune) failed.  Rolled back,
    detections are bit-identical to never having attempted it; after a
    failed rollback the checkpoint's recorded config epoch is
    authoritative."""

    kind = "retune"
    state = "configuration"


class TransportError(RecoverableServiceError):
    """A remote shard connection failed (socket error, ack timeout,
    heartbeat loss, or a partition outlasting its mask window).

    ``shard`` is the remote shard index, ``endpoint`` its ``host:port``,
    ``frame_seq`` the sequence number of the first frame that could not
    be delivered (when known).  Recoverable: the remote engine reconnects
    under its :class:`~repro.service.backoff.BackoffPolicy` and replays
    the unacked-frame ring; the supervisor may also restart the whole
    service from the last checkpoint.
    """

    def __init__(
        self,
        message: str,
        shard: Optional[int] = None,
        endpoint: Optional[str] = None,
        frame_seq: Optional[int] = None,
    ):
        super().__init__(message)
        self.shard = shard
        self.endpoint = endpoint
        self.frame_seq = frame_seq


class FrameCorruptError(TransportError):
    """A transport frame failed its integrity checks (bad magic, bad
    CRC, impossible length, or an undecodable payload).

    ``offset`` is the byte offset of the failing field within the frame
    when known — forensics in the spirit of
    :class:`~repro.service.checkpoint.CheckpointCorruptError`.  The
    connection that produced it is torn down and re-established; the
    exactly-once sequence discipline makes the teardown lossless.
    """

    def __init__(
        self,
        message: str,
        shard: Optional[int] = None,
        endpoint: Optional[str] = None,
        frame_seq: Optional[int] = None,
        offset: Optional[int] = None,
    ):
        super().__init__(message, shard=shard, endpoint=endpoint,
                         frame_seq=frame_seq)
        self.offset = offset


class HandshakeError(ServiceError):
    """The two ends of a shard connection disagree about something a
    reconnect cannot fix: protocol version, detector seed, slot count,
    or configuration.  Permanent — retrying the same handshake would
    fail the same way, so the remote engine surfaces it instead of
    burning the backoff budget."""

    def __init__(self, message: str, shard: Optional[int] = None,
                 endpoint: Optional[str] = None):
        super().__init__(message)
        self.shard = shard
        self.endpoint = endpoint


class SourceError(ServiceError):
    """A packet source failed.  ``position`` is the number of packets it
    had delivered when it failed."""

    def __init__(self, message: str, position: Optional[int] = None):
        super().__init__(message)
        self.position = position


class TransientSourceError(SourceError, RecoverableServiceError):
    """A source failure expected to clear on retry (flaky file system,
    reconnecting capture device).  :class:`~repro.service.sources.
    RetryingSource` absorbs these up to its retry budget."""


class PermanentSourceError(SourceError):
    """The source is gone for good; pulling again cannot help.  The
    supervisor drains what it has and returns a degraded report instead
    of restarting."""


class ReplayIncompleteError(ServiceError):
    """A replay bundle cannot reproduce its incident exactly.

    Raised by :func:`repro.forensics.replay.replay_bundle` when the
    capture window was truncated (the trace ring evicted batches the
    incident's window still needed) or when positional losses inside the
    window lack recorded positions (``skips_complete=False``).  Replaying
    anyway would silently diverge from the original run, which is worse
    than a typed refusal.  ``truncated``/``skips_complete`` carry which
    condition tripped; ``bundle`` is the offending bundle's path when
    known.
    """

    def __init__(
        self,
        message: str,
        bundle: Optional[str] = None,
        truncated: bool = False,
        skips_complete: bool = True,
    ):
        super().__init__(message)
        self.bundle = bundle
        self.truncated = truncated
        self.skips_complete = skips_complete


class RestartBudgetExceededError(ServiceError):
    """Supervised restarts exhausted the restart budget."""

    def __init__(self, message: str, restarts: int,
                 last_cause: Optional[BaseException] = None):
        super().__init__(message)
        self.restarts = restarts
        self.last_cause = last_cause
