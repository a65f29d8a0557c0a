"""Supervised serving: restart-from-checkpoint with an exactness story.

EARDet's value is a *deterministic* no-FN/no-FP guarantee, which makes
fault tolerance unusually demanding: a recovery that merely "keeps
serving" is worthless if it silently voids the guarantee.  The
:class:`Supervisor` therefore recovers along exactly one of two paths,
and reports which:

1. **Exact recovery** — a shard worker died (or a queue stalled, or the
   source hiccuped transiently): tear the engine down, reload the last
   checkpoint, and replay the source suffix.  Checkpoints are exact and
   sources are replayable, so the recovered run's detections — flow ids
   *and* timestamps — are bit-identical to an unfailed run's.  A corrupt
   or missing checkpoint falls back to a from-scratch replay, which is
   slower but equally exact.
2. **Graceful degradation** — the stream itself is lost (permanent
   source failure) or restarts are exhausted while lossy faults keep
   packets from being processed: the supervisor drains what it has and
   returns a report whose per-shard exactness envelope says precisely
   where the guarantee stopped holding (``exact=False`` +
   first-loss timestamp), so downstream consumers widen their ambiguity
   region instead of trusting stale guarantees.

Restarts use bounded exponential backoff and a restart *budget*; when
the budget is exhausted the supervisor raises
:class:`~repro.service.errors.RestartBudgetExceededError` rather than
crash-looping.

Liveness is watched two ways: the engines surface dead workers as
:class:`~repro.service.errors.ShardCrashError` from the ingest path, and
the supervisor's per-batch monitor additionally compares worker
heartbeats against ``heartbeat_timeout_s`` to catch wedged-but-alive
shards (raised as :class:`~repro.service.errors.QueueStallError`).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..core.config import EARDetConfig
from ..model.packet import Packet
from .backoff import BackoffPolicy
from .checkpoint import CheckpointError
from .errors import (
    InvariantViolation,
    PermanentSourceError,
    QueueStallError,
    RecoverableServiceError,
    RestartBudgetExceededError,
)
from .health import DeadLetterSink, ServiceReport
from .runtime import CHECKPOINT_RECORDED, DetectionService
from .sources import PacketSource, as_source


@dataclass(frozen=True)
class RestartPolicy:
    """How hard the supervisor tries before giving up.

    ``max_restarts`` bounds the *total* restarts across a run (the
    budget).  The delay schedule is the shared
    :class:`~repro.service.backoff.BackoffPolicy`: geometric growth from
    ``backoff_initial_s`` by ``backoff_factor``, capped at
    ``backoff_max_s``, with optional deterministic ``jitter`` seeded by
    ``seed`` (so a fleet of supervisors restarting off the same incident
    does not thundering-herd, yet every test replay sleeps identically).
    """

    max_restarts: int = 5
    backoff_initial_s: float = 0.05
    backoff_factor: float = 2.0
    backoff_max_s: float = 5.0
    jitter: float = 0.0
    seed: int = 0

    @property
    def backoff(self) -> BackoffPolicy:
        """The equivalent shared backoff policy."""
        return BackoffPolicy(
            initial_s=self.backoff_initial_s,
            factor=self.backoff_factor,
            max_s=self.backoff_max_s,
            jitter=self.jitter,
            seed=self.seed,
        )

    def delay_s(self, restart_index: int) -> float:
        """Backoff before restart number ``restart_index`` (0-based)."""
        return self.backoff.delay_s(restart_index)


class Supervisor:
    """Run a :class:`DetectionService` under supervised restart.

    Takes the supervision knobs below; every other keyword is a
    :class:`DetectionService` constructor option, passed to each service
    this supervisor builds, fresh or recovered (a recovered one takes
    the :data:`~repro.service.runtime.CHECKPOINT_RECORDED` options from
    its checkpoint instead).  ``checkpoint_path`` is strongly
    recommended: without it every recovery is a from-scratch replay
    (still exact, just linear in the stream position at the crash).

    policy:
        The :class:`RestartPolicy` (budget + backoff).
    heartbeat_timeout_s:
        When set and the engine exposes heartbeats (multiprocess), a
        shard whose heartbeat is older than this is treated as wedged
        and restarted (:class:`QueueStallError`).
    sleep / clock:
        Injectable for deterministic tests.

    The supervisor itself also uses three service options, each one
    object spanning restarts:

    dead_letter:
        The sink (created when not given), so the final report counts
        every dead letter of the run.
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` context, also fed
        the supervisor's own restart/backoff/incident counters.
    forensics:
        Optional :class:`~repro.forensics.ForensicsLab`, so a recovered
        service does not re-announce incidents it already explained.
        The supervisor's own incidents — recoveries, restarts, source
        failures, invariant violations — are appended to the lab's
        store; without a lab they land in a memory-only
        :class:`~repro.forensics.IncidentStore` so ``report.incidents``
        is structured either way.

    A ``controller`` given as a :class:`~repro.control.ControlPolicy`
    builds a fresh controller in each restarted service (hysteresis
    state does not survive a crash, by design).
    """

    def __init__(
        self,
        config: EARDetConfig,
        policy: Optional[RestartPolicy] = None,
        heartbeat_timeout_s: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.perf_counter,
        **service_options,
    ):
        self.config = config
        self.policy = policy or RestartPolicy()
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self._sleep = sleep
        self._clock = clock
        service_options["dead_letter"] = (
            service_options.get("dead_letter") or DeadLetterSink()
        )
        self._options = service_options
        self._drain_requested = False
        self.restarts = 0
        forensics = service_options.get("forensics")
        # Deferred import: repro.forensics depends on service submodules
        # (checkpoint), so a module-level import here would cycle.
        from ..forensics.incidents import Incident, IncidentStore

        #: Structured incident records (:class:`~repro.forensics.
        #: Incident`).  ``str()`` of each record is the historical
        #: rendered line, and substring ``in`` checks search it, so code
        #: written against the plain-string log keeps working.
        self.incidents: List[Incident] = []
        self._store = (
            forensics.store if forensics is not None else IncidentStore()
        )
        self._service: Optional[DetectionService] = None
        self._instruments = None
        telemetry = service_options.get("telemetry")
        if telemetry is not None and telemetry.enabled:
            from ..telemetry import ServiceInstruments

            self._instruments = ServiceInstruments(telemetry)

    def _note_incident(
        self,
        message: str,
        incident_class: str = "restart",
        severity: str = "warning",
        packet_index: Optional[int] = None,
        payload: Optional[Dict[str, object]] = None,
        bundle: Optional[str] = None,
    ) -> None:
        record = self._store.append(
            incident_class,
            message,
            severity=severity,
            packet_index=packet_index,
            payload=payload,
            bundle=bundle,
        )
        self.incidents.append(record)
        if self._instruments is not None:
            self._instruments.on_incident(incident_class)

    # -- construction helpers ----------------------------------------------

    def _fresh_service(self) -> DetectionService:
        return DetectionService(self.config, **self._options)

    def _recovered_service(self) -> DetectionService:
        """Resume from the last checkpoint; fall back to a from-scratch
        replay when there is no checkpoint or it is corrupt (both paths
        are exact — the fallback just replays more)."""
        path = self._options.get("checkpoint_path")
        if path is not None and os.path.exists(path):
            try:
                service = DetectionService.resume(
                    path,
                    **{
                        key: value
                        for key, value in self._options.items()
                        if key not in CHECKPOINT_RECORDED
                    },
                )
                self._note_incident(
                    f"recovered from checkpoint at packet {service.ingested}",
                    incident_class="recovery",
                    severity="info",
                    packet_index=service.ingested,
                )
                return service
            except CheckpointError as error:
                self._note_incident(
                    f"checkpoint unusable ({error}); replaying from scratch",
                    incident_class="recovery",
                    severity="warning",
                    payload={"error": str(error)},
                )
        else:
            self._note_incident(
                "no checkpoint available; replaying from scratch",
                incident_class="recovery",
                severity="warning",
            )
        return self._fresh_service()

    # -- monitoring --------------------------------------------------------

    def _monitor(self, service: DetectionService) -> None:
        """Per-batch liveness probe, installed as ``serve(on_progress=)``."""
        engine = service.engine
        check = getattr(engine, "check_workers", None)
        if check is not None:
            check()
        if self.heartbeat_timeout_s is not None:
            ages = getattr(engine, "heartbeat_ages", None)
            if ages is not None:
                for shard, age in enumerate(ages()):
                    if age > self.heartbeat_timeout_s:
                        raise QueueStallError(
                            f"shard {shard} heartbeat is {age:.1f}s old "
                            f"(timeout {self.heartbeat_timeout_s:.1f}s)",
                            shard=shard,
                            stalled_s=age,
                        )

    # -- the supervised run ------------------------------------------------

    def run(
        self,
        source: Union[PacketSource, Iterable[Packet]],
        max_packets: Optional[int] = None,
    ) -> ServiceReport:
        """Serve ``source`` to exhaustion under supervision.

        ``max_packets`` bounds the run in *total stream packets* (so it
        means the same thing across restarts).  Returns the final
        :class:`ServiceReport`, annotated with restart count, incident
        log, and the exactness envelope.
        """
        source = as_source(source)
        if not source.replayable:
            raise PermanentSourceError(
                f"source {source.name!r} is not replayable; supervised "
                "restart could not recover it exactly — wrap it in a "
                "replayable source (trace file, broker) to supervise"
            )
        started = self._clock()
        service = self._service = self._fresh_service()
        if self._drain_requested:
            service.request_drain()
        while True:
            try:
                remaining = (
                    None if max_packets is None
                    else max(0, max_packets - service.ingested)
                )
                report = service.serve(
                    source, max_packets=remaining, on_progress=self._monitor
                )
                return self._annotate(report, service, source, started)
            except PermanentSourceError as error:
                # The stream itself is gone: degrade, don't spin.  Drain
                # what was ingested and state exactly what is still
                # guaranteed.
                self._note_incident(
                    f"permanent source failure: {error}",
                    incident_class="source-failure",
                    severity="error",
                    packet_index=service.ingested,
                    payload={"position": getattr(error, "position", None)},
                )
                service.engine.flush()
                report = service.report(
                    duration_s=self._clock() - started
                )
                report = self._annotate(report, service, source, started)
                for entry in report.envelope:
                    entry.exact = False
                    if not entry.reason:
                        entry.reason = (
                            "stream truncated by permanent source failure "
                            f"at packet {error.position}"
                        )
                return report
            except InvariantViolation as error:
                # Corrupted algorithm state: a restart (from the same
                # logic, or a checkpoint taken by it) cannot fix this.
                # Record the forensics and abort — never restart-loop on
                # a permanent error.
                bundle = None
                bundle_incomplete = False
                forensics = self._options.get("forensics")
                if forensics is not None:
                    # Snapshot the replay bundle before aborting: the
                    # capture ring still holds the batches that tripped
                    # the invariant.
                    bundle, bundle_incomplete = (
                        forensics.capture_violation(service, error)
                    )
                self._note_incident(
                    f"InvariantViolation ({error.check}): {error} "
                    f"(at ~packet {service.ingested}; permanent, aborting)",
                    incident_class="invariant-violation",
                    severity="critical",
                    packet_index=service.ingested,
                    payload={
                        "check": error.check,
                        "incomplete": bundle_incomplete,
                    },
                    bundle=bundle,
                )
                service.abort()
                raise
            except RecoverableServiceError as error:
                self._note_incident(
                    f"{type(error).__name__}: {error} "
                    f"(at ~packet {service.ingested})",
                    incident_class="restart",
                    severity="warning",
                    packet_index=service.ingested,
                    payload={"error_type": type(error).__name__},
                )
                service.abort()
                if self.restarts >= self.policy.max_restarts:
                    raise RestartBudgetExceededError(
                        f"gave up after {self.restarts} supervised restarts "
                        f"(budget {self.policy.max_restarts}); last cause: "
                        f"{error}",
                        restarts=self.restarts,
                        last_cause=error,
                    ) from error
                delay_s = self.policy.delay_s(self.restarts)
                if self._instruments is not None:
                    self._instruments.on_backoff(delay_s)
                self._sleep(delay_s)
                self.restarts += 1
                if self._instruments is not None:
                    self._instruments.on_restart()
                service = self._service = self._recovered_service()
                if self._drain_requested:
                    # A drain that arrived mid-recovery still applies to
                    # the recovered service: it will flush and stop at
                    # its first batch boundary.
                    service.request_drain()

    @property
    def drain_requested(self) -> bool:
        return self._drain_requested

    def request_drain(self) -> None:
        """Forward a graceful-drain request (e.g. from a SIGTERM handler)
        to the currently running service; survives restarts.  Safe to
        call from a signal handler; idempotent."""
        self._drain_requested = True
        if self._service is not None:
            self._service.request_drain()

    def shutdown(self, drain: bool = False) -> None:
        """Tear down the most recent underlying service (idempotent)."""
        if self._service is not None:
            self._service.shutdown(drain=drain)

    def _annotate(
        self,
        report: ServiceReport,
        service: DetectionService,
        source: PacketSource,
        started: float,
    ) -> ServiceReport:
        report.packets = service.ingested
        report.duration_s = self._clock() - started
        report.restarts = self.restarts
        report.incidents = list(self.incidents)
        report.dead_letters = self._options["dead_letter"].total
        report.source_retries = _source_retries(source)
        if self._instruments is not None:
            self._instruments.sync_source_retries(report.source_retries)
        return report


def _source_retries(source) -> int:
    """Total transient failures absorbed anywhere in a source wrapper
    chain (each wrapper holds the next source as ``_inner``)."""
    total = 0
    seen = set()
    while source is not None and id(source) not in seen:
        seen.add(id(source))
        total += getattr(source, "retries", 0)
        source = getattr(source, "_inner", None)
    return total
