"""The forensics lab: one object that makes every detection explainable.

:class:`ForensicsLab` rides next to a running
:class:`~repro.service.runtime.DetectionService` and owns the two
forensic stores:

- the :class:`~repro.forensics.incidents.IncidentStore` — the single
  append-only, CRC-protected JSONL log every forensic producer writes
  through, and
- the :class:`~repro.forensics.capture.CaptureLayer` — the baseline +
  trace-ring snapshotter that turns a detection or violation into a
  deterministic replay bundle.

The serve loop drives three hooks: :meth:`on_serve_start` (adopt a
baseline, prime the diff cursors so resumed state is not re-announced),
:meth:`observe_batch` (O(1) ring append per batch), and :meth:`scan`
(diff the engine's forensic surfaces — detections, watcher verdicts,
overload rungs, exactness envelope, guard stats, migrations — against
the cursors and append one incident per *new* event, capturing a replay
bundle for the replayable classes).  :meth:`rebaseline` is called at
every checkpoint boundary, reusing the checkpoint's own engine snapshot
at zero extra cost.

The lab never alters detection behaviour: it only reads engine state at
batch boundaries, so runs with and without forensics are bit-identical
(asserted in ``tests/test_forensics.py``).
"""

from __future__ import annotations

import weakref
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple, Union

from .capture import DEFAULT_RING_CAPACITY, CaptureLayer
from .incidents import DEFAULT_RETAIN, Incident, IncidentStore, _normalize_fid

#: Classes the capture layer snapshots a replay bundle for.  The other
#: classes are announcements (rung transitions, promotions, recoveries)
#: with nothing to re-execute.  A ``retune`` bundle carries the epoch
#: transition (baseline-epoch config + the transition list), so replay
#: re-derives the hot reconfiguration bit-identically.
BUNDLED_CLASSES = (
    "detection", "watcher-verdict", "invariant-violation", "retune",
)


class ForensicsLab:
    """Incident store + capture layer, wired to a service's serve loop.

    Construct one with a directory and pass it to
    :class:`~repro.service.runtime.DetectionService` (the
    ``--forensics-dir`` flag): the incident log lands at
    ``<directory>/incidents.jsonl`` and replay bundles under
    ``<directory>/bundles/``.  One lab instance survives supervised
    restarts — its cursors are what stop a recovered service from
    re-announcing detections it already explained.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        retain: int = DEFAULT_RETAIN,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.store = IncidentStore(
            self.directory / "incidents.jsonl", retain=retain
        )
        self.capture = CaptureLayer(
            self.directory / "bundles", ring_capacity=ring_capacity
        )
        self.instruments = None
        # Diff cursors: what has already been announced.  Merged, never
        # replaced, so supervised restarts and checkpoint resumes do not
        # duplicate incidents for state the recovered engine re-derives.
        self._seen_detections: Dict[object, int] = {}
        self._seen_verdicts: Dict[object, int] = {}
        self._promotions = 0
        self._overload_levels: List[str] = []
        self._voided: Set[int] = set()
        self._migrations = 0
        self._retunes = 0
        self._rollbacks: Dict[str, int] = {}
        self._retune_infeasibles = 0
        self._violations = 0
        # Identity of the service the migration/rollback cursors are
        # anchored to: those counters are per-service-instance (a
        # recovered service restarts them at zero), so the cursors must
        # re-anchor on a new instance — but keep their value across
        # repeated serve() calls on the *same* instance, or a migration
        # applied between serves would never be announced.
        self._bound_service: Optional[weakref.ref] = None
        self._prime_from_log()

    def _prime_from_log(self) -> None:
        """Rebuild the announced-event cursors from the reloaded
        incident log.  The log — not the engine — is the record of what
        was already explained: a recovered engine's restored state can
        hold detections that were checkpointed but *never announced*
        (the crash landed between the checkpoint flush and the next
        scan), and those must still be announced after recovery."""
        for record in self.store.records:
            payload = record.payload or {}
            cls = record.incident_class
            if cls == "detection" and "fid" in payload:
                self._seen_detections[_normalize_fid(payload["fid"])] = (
                    payload.get("time_ns")
                )
            elif cls == "watcher-verdict" and "fid" in payload:
                self._seen_verdicts[_normalize_fid(payload["fid"])] = (
                    payload.get("time_ns")
                )
            elif cls == "watcher-promotion":
                self._promotions = max(
                    self._promotions, int(payload.get("promotions", 0))
                )
            elif cls in ("net-outage", "exactness-void"):
                if record.shard is not None:
                    self._voided.add(record.shard)

    def bind_instruments(self, instruments) -> None:
        """Attach telemetry instruments (incident counter by class and
        the capture-cost histogram live there)."""
        self.instruments = instruments
        self.capture.instruments = instruments

    # -- serve-loop hooks --------------------------------------------------

    def on_serve_start(self, service) -> None:
        """Adopt the serve-start baseline and re-anchor the per-instance
        cursors.  Event cursors (detections, verdicts, voids) are *not*
        primed from the engine here: the incident log primed them at
        construction, and a recovered engine can restore events that
        were checkpointed but never announced — the first scan must
        still announce those."""
        self.rebaseline(service)
        engine = service.engine
        overload = self._overload_report(engine)
        if overload is not None:
            self._overload_levels = [
                str(shard.get("level", "exact"))
                for shard in overload.get("shards", [])
            ]
        bound = (
            self._bound_service() if self._bound_service is not None else None
        )
        if bound is not service:
            self._bound_service = weakref.ref(service)
            self._migrations = service._migrations
            self._retunes = service._retunes
            self._rollbacks = dict(service._rollbacks)
            self._retune_infeasibles = service._retune_infeasibles
        # The guard cursor anchors to the source this serve is about to
        # judge (serve() sets _last_source before calling this hook): a
        # fresh source starts at zero, a re-served one carries totals the
        # previous serve's drain scan already announced.
        stats = self._validation(service)
        self._violations = stats.total_violations if stats is not None else 0

    def observe_batch(self, batch, start_index: int) -> None:
        """Forward one ingested batch to the capture ring (O(1))."""
        self.capture.observe_batch(batch, start_index)

    def rebaseline(self, service, engine_snapshot=None) -> None:
        """Adopt a new capture baseline at a flush boundary (serve
        start, or right after a checkpoint — pass that checkpoint's
        engine snapshot to reuse it at zero cost)."""
        self.capture.rebaseline(service, engine_snapshot=engine_snapshot)

    def scan(self, service) -> List[Incident]:
        """Diff the engine's forensic surfaces against the cursors and
        append one incident per new event.  Returns the new incidents
        (tests and the supervisor's monitor read them)."""
        emitted: List[Incident] = []
        engine = service.engine
        index = service.ingested

        detections = engine.detections()
        fresh = [
            (fid, time_ns)
            for fid, time_ns in detections.items()
            if fid not in self._seen_detections
        ]
        for fid, time_ns in sorted(fresh, key=lambda kv: (kv[1], str(kv[0]))):
            slot, shard = self._locate(engine, fid)
            emitted.append(
                self._emit_bundled(
                    service,
                    "detection",
                    f"large flow detected: {fid} at {time_ns} ns "
                    f"(slot {slot}, shard {shard})",
                    severity="warning",
                    shard=shard,
                    slot=slot,
                    stream_time_ns=time_ns,
                    packet_index=index,
                    expected={
                        "kind": "detection", "fid": fid, "time_ns": time_ns,
                    },
                    payload={"fid": fid, "time_ns": time_ns},
                )
            )
        self._seen_detections.update(detections)

        watcher = service.watcher
        if watcher is not None:
            verdicts = watcher.verdicts()
            fresh = [
                (fid, time_ns)
                for fid, time_ns in verdicts.items()
                if fid not in self._seen_verdicts
            ]
            for fid, time_ns in sorted(
                fresh, key=lambda kv: (kv[1], str(kv[0]))
            ):
                slot, shard = self._locate(engine, fid)
                emitted.append(
                    self._emit_bundled(
                        service,
                        "watcher-verdict",
                        f"watcher verdict: {fid} flagged at {time_ns} ns "
                        f"(probabilistic, slot {slot})",
                        severity="warning",
                        shard=shard,
                        slot=slot,
                        stream_time_ns=time_ns,
                        packet_index=index,
                        expected={
                            "kind": "watcher-verdict",
                            "fid": fid,
                            "time_ns": time_ns,
                        },
                        payload={
                            "fid": fid,
                            "time_ns": time_ns,
                            "probabilistic": True,
                        },
                    )
                )
            self._seen_verdicts.update(verdicts)
            promotions = watcher.churn().get("promotions", 0)
            if promotions > self._promotions:
                delta = promotions - self._promotions
                self._promotions = promotions
                emitted.append(
                    self.store.append(
                        "watcher-promotion",
                        f"watcher promoted {delta} candidate(s) "
                        f"({promotions} total)",
                        severity="info",
                        packet_index=index,
                        payload={"promotions": promotions, "delta": delta},
                    )
                )

        overload = self._overload_report(engine)
        if overload is not None:
            levels = [
                str(shard.get("level", "exact"))
                for shard in overload.get("shards", [])
            ]
            while len(self._overload_levels) < len(levels):
                self._overload_levels.append("exact")
            for shard, level in enumerate(levels):
                previous = self._overload_levels[shard]
                if level == previous:
                    continue
                self._overload_levels[shard] = level
                emitted.append(
                    self.store.append(
                        "overload-transition",
                        f"shard {shard} degradation {previous} -> {level}",
                        severity="info" if level == "exact" else "warning",
                        shard=shard,
                        packet_index=index,
                        payload={
                            "shard": shard, "from": previous, "to": level,
                        },
                    )
                )

        for entry in self._envelope(engine):
            if entry.exact or entry.shard in self._voided:
                continue
            self._voided.add(entry.shard)
            reason = entry.reason or "unspecified"
            if reason == "partition":
                incident_class = "net-outage"
                message = (
                    f"shard {entry.shard} network outage: partition voided "
                    f"exactness (first loss at {entry.first_loss_time_ns} ns)"
                )
            else:
                incident_class = "exactness-void"
                message = (
                    f"shard {entry.shard} exactness void: {reason} "
                    f"(first loss at {entry.first_loss_time_ns} ns)"
                )
            emitted.append(
                self.store.append(
                    incident_class,
                    message,
                    severity="error",
                    shard=entry.shard,
                    stream_time_ns=entry.first_loss_time_ns,
                    packet_index=index,
                    payload={
                        "reason": reason,
                        "lost_packets": entry.lost_packets,
                        "first_loss_time_ns": entry.first_loss_time_ns,
                    },
                )
            )

        stats = self._validation(service)
        if stats is not None and stats.total_violations > self._violations:
            delta = stats.total_violations - self._violations
            self._violations = stats.total_violations
            emitted.append(
                self.store.append(
                    "guard-rejection",
                    f"ingest guard rejected {delta} packet(s) "
                    f"({stats.total_violations} total)",
                    severity="warning",
                    packet_index=index,
                    payload={
                        "total_violations": stats.total_violations,
                        "delta": delta,
                        "violations": dict(stats.violations),
                    },
                )
            )

        if service._migrations > self._migrations:
            delta = service._migrations - self._migrations
            self._migrations = service._migrations
            layout = getattr(engine, "layout", None)
            emitted.append(
                self.store.append(
                    "migration",
                    f"migration committed: epoch "
                    f"{layout.epoch if layout is not None else '?'} "
                    f"({service._migrations} total)",
                    severity="info",
                    packet_index=index,
                    payload={
                        "migrations": service._migrations,
                        "delta": delta,
                        "layout": (
                            layout.as_dict() if layout is not None else None
                        ),
                    },
                )
            )

        retunes = service._retunes
        if retunes > self._retunes:
            delta = retunes - self._retunes
            self._retunes = retunes
            detail = self._last_event(service, "retune")
            from_packets = detail.get("from_packets", index)
            emitted.append(
                self._emit_bundled(
                    service,
                    "retune",
                    f"retune committed: config epoch "
                    f"{detail.get('from_epoch', '?')} -> "
                    f"{detail.get('to_epoch', service.config_epoch)} at "
                    f"packet {from_packets} "
                    f"({detail.get('reason') or 'manual'})",
                    severity="info",
                    shard=None,
                    slot=None,
                    stream_time_ns=None,
                    packet_index=index,
                    expected={
                        "kind": "retune",
                        "from_epoch": detail.get("from_epoch"),
                        "to_epoch": detail.get(
                            "to_epoch", service.config_epoch
                        ),
                        "from_packets": from_packets,
                        "config": service.config_dict_at(from_packets),
                    },
                    payload={"retunes": retunes, "delta": delta, **detail},
                )
            )
        # One incident per terminal rollback of each guarded transition
        # kind the service counts (migration, retune).
        for kind, rollbacks in service._rollbacks.items():
            seen = self._rollbacks.get(kind, 0)
            if rollbacks > seen:
                delta = rollbacks - seen
                self._rollbacks[kind] = rollbacks
                detail = self._last_event(service, f"{kind}-rollback")
                emitted.append(
                    self.store.append(
                        f"{kind}-rollback",
                        f"{kind} rolled back in phase "
                        f"{detail.get('phase', '?')}: "
                        f"{detail.get('error', 'unknown error')}",
                        severity="error",
                        packet_index=index,
                        payload={
                            "rollbacks": rollbacks,
                            "delta": delta,
                            **detail,
                        },
                    )
                )
        retune_infeasibles = service._retune_infeasibles
        if retune_infeasibles > self._retune_infeasibles:
            delta = retune_infeasibles - self._retune_infeasibles
            self._retune_infeasibles = retune_infeasibles
            detail = self._last_event(service, "retune-infeasible")
            emitted.append(
                self.store.append(
                    "retune-infeasible",
                    f"retune proposal infeasible: "
                    f"{detail.get('constraint', '?')} binds "
                    f"(wanted gamma_l={detail.get('gamma_l_target', '?')}, "
                    f"direction {detail.get('direction', '?')})",
                    severity="warning",
                    packet_index=index,
                    payload={
                        "infeasibles": retune_infeasibles,
                        "delta": delta,
                        **detail,
                    },
                )
            )
        return emitted

    def capture_violation(self, service, error) -> Tuple[str, bool]:
        """Snapshot the replay bundle for an invariant violation (the
        supervisor calls this *before* aborting the wrecked service, so
        the bundle still sees the live trace ring).  Returns
        ``(bundle_path, incomplete)``."""
        expected = {
            "kind": "invariant-violation",
            "check": getattr(error, "check", None),
            "message": str(error),
        }
        return self.capture.write_bundle(
            service, self.store.next_id, "invariant-violation", expected
        )

    def close(self) -> None:
        self.store.close()

    # -- helpers -----------------------------------------------------------

    @staticmethod
    def _locate(engine, fid) -> Tuple[Optional[int], Optional[int]]:
        """(slot, hosting shard) of a flow, when the engine exposes its
        router (every in-tree engine does)."""
        route = getattr(engine, "_route", None)
        if route is None:
            return None, None
        slot = route(fid)
        assignment = getattr(engine, "_assignment", None)
        shard = (
            assignment[slot]
            if assignment is not None and slot < len(assignment)
            else None
        )
        return slot, shard

    @staticmethod
    def _overload_report(engine):
        report = getattr(engine, "overload_report", None)
        return report() if report is not None else None

    @staticmethod
    def _envelope(engine):
        envelope = getattr(engine, "envelope", None)
        return envelope() if envelope is not None else []

    @staticmethod
    def _validation(service):
        source = service._last_source
        if source is None:
            return None
        from ..service.sources import validation_stats

        return validation_stats(source)

    @staticmethod
    def _last_event(service, kind: str) -> Dict[str, object]:
        """The most recent dead-letter forensic event of this kind
        (the detail the service recorded when it counted the outcome)."""
        dead = service.dead_letter
        if dead is None:
            return {}
        for event in reversed(dead.events):
            if event.get("kind") == kind:
                return {k: v for k, v in event.items() if k != "kind"}
        return {}

    def _emit_bundled(
        self,
        service,
        incident_class: str,
        message: str,
        severity: str,
        shard: Optional[int],
        slot: Optional[int],
        stream_time_ns: Optional[int],
        packet_index: int,
        expected: Dict[str, object],
        payload: Dict[str, object],
    ) -> Incident:
        """Write the replay bundle first (named after the id the store
        will assign next), then append the incident referencing it."""
        bundle, incomplete = self.capture.write_bundle(
            service, self.store.next_id, incident_class, expected
        )
        payload = dict(payload)
        payload["incomplete"] = incomplete
        return self.store.append(
            incident_class,
            message,
            severity=severity,
            shard=shard,
            slot=slot,
            stream_time_ns=stream_time_ns,
            packet_index=packet_index,
            payload=payload,
            bundle=bundle,
        )
