"""Deterministic incident replay: re-derive a detection bit-identically.

A replay bundle (see :mod:`repro.forensics.capture`) carries everything
an incident's re-execution needs: the engine's exact baseline snapshot,
the trace slice since that baseline, the positional-loss skip list, and
the full engine construction recipe.  :func:`replay_bundle` rebuilds a
fresh deterministic in-process engine from the recipe, restores the
baseline, re-injects the skips as a synthesized
:class:`~repro.service.faults.FaultPlan`, replays the slice batch by
batch, and checks the *expected* event — the detection, watcher verdict,
or invariant violation the bundle was captured for — re-occurs with the
same flow id and the same nanosecond timestamp.

Exactness caveat: the guarantee is scoped to deterministic state.
Injected drops and partition losses are positional and re-inject
exactly; queue-overflow and overload-shed losses are *emergent* and
reproduce from the restored state only on the deterministic in-process
engine (the only engine replay uses).  Timing-dependent shed decisions
made by a *multiprocess* original can therefore differ — the bundle
still replays, and the verdict reports the divergence instead of hiding
it (see ``docs/FORENSICS.md``).

An incomplete bundle — trace ring truncated, or positional losses whose
dead-letter detail overflowed — refuses with a typed
:class:`~repro.service.errors.ReplayIncompleteError` rather than
replaying something subtly different from the incident.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.config import EARDetConfig, config_as_dict
from ..model.packet import Packet
from .capture import (
    BUNDLE_KIND,
    READABLE_BUNDLE_FORMATS,
    _decode_batch,
    overload_policy_from_dict,
)
from .incidents import Incident, _normalize_fid


@dataclass
class StepRecord:
    """One packet's effect on its slot detector (``--step`` mode)."""

    index: int  # 0-based position in the replayed trace slice
    packet: Tuple[int, int, object]  # (time_ns, size, fid)
    slot: int
    shard: int
    #: ``{fid: (before, after)}`` for every counter the packet changed;
    #: the slot's virtual counters count as one ``"<virtual>"`` counter
    #: holding their total bytes.
    counter_deltas: Dict[str, Tuple[Optional[int], Optional[int]]] = field(
        default_factory=dict
    )
    #: Flows first reported during this packet, ``{fid: time_ns}``.
    detections: Dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "packet": list(self.packet),
            "slot": self.slot,
            "shard": self.shard,
            "counter_deltas": {
                fid: list(delta)
                for fid, delta in sorted(self.counter_deltas.items())
            },
            "detections": dict(self.detections),
        }


@dataclass
class ReplayResult:
    """The verdict of one deterministic re-execution."""

    bundle_path: str
    incident_class: str
    expected: Dict[str, object]
    #: The expected event re-occurred with identical flow id and
    #: identical nanosecond timestamp (or, for an invariant violation,
    #: the same check tripped again).
    exact: bool
    #: What the replay actually produced for the expected key.
    observed: Optional[object] = None
    packets_replayed: int = 0
    skips_injected: int = 0
    detections: Dict[str, int] = field(default_factory=dict)
    verdicts: Dict[str, int] = field(default_factory=dict)
    #: Config-epoch transitions re-applied at their recorded positions
    #: (0 for a bundle whose window saw no retune).
    transitions_applied: int = 0
    steps: Optional[List[StepRecord]] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "bundle": self.bundle_path,
            "class": self.incident_class,
            "expected": self.expected,
            "exact": self.exact,
            "observed": self.observed,
            "packets_replayed": self.packets_replayed,
            "skips_injected": self.skips_injected,
            "detections": self.detections,
            "verdicts": self.verdicts,
            "transitions_applied": self.transitions_applied,
            "steps": (
                [step.as_dict() for step in self.steps]
                if self.steps is not None
                else None
            ),
        }


def load_bundle(path: str) -> Dict[str, object]:
    """Read and validate a replay bundle's checkpoint container."""
    from ..service.checkpoint import CheckpointError, read_checkpoint
    from ..service.errors import ReplayIncompleteError

    payload = read_checkpoint(path)
    meta = payload.get("meta") or {}
    if meta.get("kind") != BUNDLE_KIND:
        raise CheckpointError(
            f"{path} is not a replay bundle "
            f"(kind {meta.get('kind')!r}, expected {BUNDLE_KIND!r})"
        )
    if meta.get("format") not in READABLE_BUNDLE_FORMATS:
        raise CheckpointError(
            f"unsupported replay bundle format {meta.get('format')!r} "
            f"(this build reads formats {READABLE_BUNDLE_FORMATS})"
        )
    if meta.get("truncated"):
        raise ReplayIncompleteError(
            f"bundle {path} is truncated: the incident's window no longer "
            "fit the capture ring, so an exact replay is impossible "
            "(raise --forensics-ring-capacity to capture longer windows)",
            bundle=path,
            truncated=True,
            skips_complete=bool(meta.get("skips_complete", True)),
        )
    if not meta.get("skips_complete", True):
        raise ReplayIncompleteError(
            f"bundle {path} has positional losses without recorded "
            "positions (dead-letter detail overflowed); replay would "
            "diverge from the incident",
            bundle=path,
            truncated=False,
            skips_complete=False,
        )
    return payload


def _build_replay_engine(meta: Dict[str, object], skips):
    """A fresh deterministic in-process engine per the bundle's recipe,
    with the window's positional losses re-armed as drop faults."""
    from ..service.engine import InProcessEngine
    from ..service.faults import FaultPlan, ShardFault
    from ..service.pipeline import WatcherPolicy, WatcherStage

    config = EARDetConfig(**meta["config"])
    slots = meta.get("slots")
    watcher_policy = meta.get("watcher")
    watcher = (
        WatcherStage(
            WatcherPolicy.from_dict(watcher_policy),
            config,
            slots if slots is not None else meta["shards"],
        )
        if watcher_policy is not None
        else None
    )
    overload_data = meta.get("overload")
    overload = (
        overload_policy_from_dict(overload_data)
        if overload_data is not None
        else None
    )
    fault_plan = (
        FaultPlan(
            [
                ShardFault("drop", shard=shard, at=index)
                for shard, index in skips
            ]
        )
        if skips
        else None
    )
    engine = InProcessEngine(
        config,
        shards=meta["shards"],
        seed=meta["seed"],
        queue_capacity=meta.get("queue_capacity", 4096),
        overflow=meta.get("overflow", "block"),
        fault_plan=fault_plan,
        invariant_every=meta.get("invariant_every"),
        overload=overload,
        watcher=watcher,
        slots=slots,
    )
    return engine


def replay_bundle(
    path: str, step: bool = False, incident: Optional[Incident] = None
) -> ReplayResult:
    """Deterministically re-execute one incident bundle.

    Raises :class:`~repro.service.errors.ReplayIncompleteError` for
    truncated/incomplete bundles and propagates
    :class:`~repro.service.checkpoint.CheckpointError` for damaged ones.
    ``step`` additionally records per-packet counter/bucket deltas
    (flushing after every packet — a diagnostic view; under an armed
    overload policy the stepped run's shed decisions may differ from the
    batched exact replay, which is why the exactness verdict always
    comes from a non-stepped pass).
    """
    payload = load_bundle(path)
    meta = payload["meta"]
    trace = payload["trace"]
    skips = [
        (int(shard), int(index)) for shard, index in trace.get("skips") or []
    ]
    expected = dict(meta.get("expected") or {})
    engine = _build_replay_engine(meta, skips)
    engine.restore(payload["engine"])

    from ..guard import InvariantViolation

    pump = engine.pump if meta.get("overload") is not None else None
    violation: Optional[InvariantViolation] = None
    replayed = 0
    steps: Optional[List[StepRecord]] = [] if step else None

    # Config-epoch transitions inside the window, re-applied at their
    # recorded stream positions — the original run retuned only at batch
    # boundaries, so each transition lands exactly between two batches.
    pending = sorted(
        (dict(t) for t in meta.get("transitions") or []),
        key=lambda t: int(t.get("from_packets", 0)),
    )
    start = int(trace.get("start") or 0)
    applied = 0
    transition_error: Optional[str] = None

    def _apply_due(position: int) -> None:
        nonlocal applied, transition_error
        while pending and int(pending[0]["from_packets"]) <= position:
            entry = pending.pop(0)
            if transition_error is not None:
                continue
            try:
                engine.flush()
                engine.apply_config(EARDetConfig(**entry["config"]))
                applied += 1
            except Exception as error:  # noqa: BLE001 - divergence verdict
                transition_error = (
                    f"epoch {entry.get('epoch', '?')} transition at packet "
                    f"{entry.get('from_packets')} failed to re-apply: "
                    f"{error}"
                )

    try:
        for batch_data in trace.get("batches") or []:
            _apply_due(start + replayed)
            batch = [
                Packet(int(t), int(s), _normalize_fid(f))
                for t, s, f in _decode_batch(batch_data)
            ]
            if steps is None:
                engine.ingest(batch)
                if pump is not None:
                    pump()
            else:
                _ingest_stepped(engine, batch, pump, replayed, steps)
            replayed += len(batch)
        engine.flush()
        # A transition at the window's end boundary (the retune incident
        # itself commits at the position its bundle is captured at).
        _apply_due(start + replayed)
    except InvariantViolation as error:
        violation = error

    detections = {
        str(fid): time_ns for fid, time_ns in engine.detections().items()
    }
    verdicts = (
        {
            str(fid): time_ns
            for fid, time_ns in engine.watcher.verdicts().items()
        }
        if engine.watcher is not None
        else {}
    )

    kind = expected.get("kind") or meta.get("incident_class")
    if kind == "invariant-violation":
        observed = (
            {"check": violation.check, "message": str(violation)}
            if violation is not None
            else None
        )
        exact = violation is not None and (
            expected.get("check") is None
            or violation.check == expected.get("check")
        )
    elif kind == "watcher-verdict":
        observed = verdicts.get(str(_normalize_fid(expected.get("fid"))))
        exact = observed is not None and observed == expected.get("time_ns")
    elif kind == "retune":
        # The transition re-derived iff every epoch change re-applied
        # cleanly on the replayed state and the engine ended up under
        # exactly the recorded new-epoch config.
        final_config = config_as_dict(engine.config)
        observed = (
            {"error": transition_error}
            if transition_error is not None
            else final_config
        )
        exact = (
            transition_error is None
            and violation is None
            and final_config == expected.get("config")
        )
    else:  # detection
        observed = detections.get(str(_normalize_fid(expected.get("fid"))))
        exact = observed is not None and observed == expected.get("time_ns")
        if violation is not None:
            exact = False
            observed = {"check": violation.check, "message": str(violation)}
    if transition_error is not None and kind != "retune":
        # The window's config history could not be reproduced, so the
        # replayed stream ran under the wrong config from that point on.
        exact = False

    engine.close()
    return ReplayResult(
        bundle_path=path,
        incident_class=str(meta.get("incident_class")),
        expected=expected,
        exact=exact,
        observed=observed,
        packets_replayed=replayed,
        skips_injected=len(skips),
        detections=detections,
        verdicts=verdicts,
        transitions_applied=applied,
        steps=steps,
    )


def _ingest_stepped(engine, batch, pump, base_index, steps) -> None:
    """Feed a batch one packet at a time, recording each packet's slot
    detector delta (counter values, new detections)."""
    for offset, packet in enumerate(batch):
        slot = engine.slot_of(packet.fid)
        shard = engine.shard_of(packet.fid)
        detector = engine.slot_host.detectors[slot]
        before_counters = _counter_view(detector)
        before_sink = dict(detector.sink.as_dict())
        engine.ingest([packet])
        if pump is not None:
            pump()
        engine.flush()
        after_counters = _counter_view(detector)
        after_sink = dict(detector.sink.as_dict())
        deltas = {}
        for fid in set(before_counters) | set(after_counters):
            before = before_counters.get(fid)
            after = after_counters.get(fid)
            if before != after:
                deltas[fid] = (before, after)
        steps.append(
            StepRecord(
                index=base_index + offset,
                packet=(packet.time, packet.size, packet.fid),
                slot=slot,
                shard=shard,
                counter_deltas=deltas,
                detections={
                    str(fid): time_ns
                    for fid, time_ns in after_sink.items()
                    if fid not in before_sink
                },
            )
        )


def _counter_view(detector) -> Dict[str, int]:
    """The slot detector's live counter table keyed by rendered fid, its
    virtual counters summed under ``"<virtual>"``."""
    store = detector.snapshot()["store"]
    view = {str(_normalize_fid(fid)): value for fid, value in store["entries"]}
    view["<virtual>"] = sum(store["virtual"])
    return view
