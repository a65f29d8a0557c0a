"""The capture layer: minimal replay bundles for incident forensics.

On a detection, watcher verdict, or invariant violation, the service
needs enough state to *re-derive* the event bit-identically, without
recording the whole stream.  The minimal bundle is:

- the **baseline**: the engine's exact snapshot at the last natural
  flush boundary (serve start, a periodic checkpoint — whose snapshot is
  reused at zero extra cost — or a committed migration), plus
- the **trace slice**: every ingest batch since that baseline, held in a
  bounded ring buffer (integer-exact ``(time, size, fid)`` tuples,
  serialized into the bundle columnar per batch: times and flow ids as
  :func:`~repro.service.checkpoint.pack_column` columns, so any flow id
  the checkpoint codec carries — ``FiveTuple``, ``bytes``, tuples — fits,
  and sizes as packed little-endian uint32), plus
- the **skip list**: the positional losses (injected drops, voided
  partitions) inside the window, re-injected on replay as a synthesized
  :class:`~repro.service.faults.FaultPlan` so the replayed engine loses
  exactly the packets the original lost.

The ring is size-capped: when an incident's window no longer fits, the
bundle is written with ``truncated=True`` and replay refuses with a
typed :class:`~repro.service.errors.ReplayIncompleteError` rather than
silently diverging.  Bundles ride the versioned, CRC'd checkpoint
container (:mod:`repro.service.checkpoint`), so a damaged bundle fails
loudly on read like any other checkpoint.
"""

from __future__ import annotations

import json
import struct
import time
from collections import deque
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from ..model.packet import Packet
from ..service.checkpoint import (
    Encoded,
    pack_column,
    unpack_column,
    write_checkpoint,
)

#: Bundle payload schema version.  Format 2 packs the flow-id column
#: with :func:`~repro.service.checkpoint.pack_column`; format-1 bundles,
#: whose flow-id column is one JSON string, still replay.
BUNDLE_FORMAT = 2

#: Bundle formats :func:`~repro.forensics.replay.load_bundle` accepts.
READABLE_BUNDLE_FORMATS = (1, BUNDLE_FORMAT)

#: ``meta["kind"]`` of every replay bundle (checkpoint-container payload).
BUNDLE_KIND = "eardet-replay-bundle"

#: Default cap on trace packets retained across the per-shard ring.
DEFAULT_RING_CAPACITY = 65536

#: Loss reasons that are *positional* (keyed to a shard-local arrival
#: index) and must be re-injected on replay.  Queue-overflow and
#: overload-shed losses are *emergent* — they reproduce from the
#: restored engine state without help.
REPLAYABLE_LOSS_REASONS = ("injected-drop", "partition")


def _encode_batch(batch: List[Packet]) -> Encoded:
    """One ingest batch in columnar form, encoded once: ``(times, sizes,
    fids)`` with times and flow ids as :func:`~repro.service.checkpoint.
    pack_column` columns and sizes as packed ``<I`` (half an int64
    column's bytes) — integer-exact and far cheaper to serialize than
    per-packet rows, which is what keeps bundle capture inside its
    overhead budget."""
    sizes = [p.size for p in batch]
    return Encoded((
        pack_column([p.time for p in batch]),
        struct.pack(f"<{len(sizes)}I", *sizes),
        pack_column([p.fid for p in batch]),
    ))


def _decode_batch(encoded) -> List[Tuple[int, int, object]]:
    """Inverse of :func:`_encode_batch`, also for format-1 bundles, whose
    flow-id column is one JSON string (tuple ids come back from it as
    lists; the caller normalizes)."""
    times_raw, sizes_raw, fids_raw = encoded
    times = unpack_column(times_raw)
    sizes = struct.unpack(f"<{len(sizes_raw) // 4}I", sizes_raw)
    if isinstance(fids_raw, str):
        fids = json.loads(fids_raw)
    else:
        fids = unpack_column(fids_raw)
    return list(zip(times, sizes, fids))


class CaptureLayer:
    """Bounded trace ring + baseline snapshots + bundle writer.

    One instance rides next to a :class:`~repro.service.runtime.
    DetectionService`; the :class:`~repro.forensics.lab.ForensicsLab`
    drives it from the serve loop's hooks.  All bookkeeping on the hot
    path is O(1) per batch (one deque append and an eviction loop
    amortized by the size cap); the expensive work — serializing the
    trace slice and writing the container — happens only when an
    incident fires.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        ring_capacity: int = DEFAULT_RING_CAPACITY,
        instruments=None,
    ):
        if ring_capacity < 1:
            raise ValueError(
                f"ring capacity must be >= 1, got {ring_capacity}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.ring_capacity = ring_capacity
        self.instruments = instruments
        #: Ring entries are ``[start_index, batch, encoded-or-None]``;
        #: the third slot caches the batch's columnar encoding (see
        #: :func:`_encode_batch`) the first time a bundle needs it, so
        #: the many incidents that share a capture window between two
        #: checkpoints serialize each batch once, not once per incident.
        self._ring: Deque[List[object]] = deque()
        self._ring_packets = 0
        self._baseline: Optional[Dict[str, object]] = None
        self._baseline_index = 0
        self.bundles_written = 0
        self.truncated_bundles = 0
        #: Total nanoseconds spent inside :meth:`write_bundle` — the
        #: direct measure of capture cost, kept here (not only in
        #: telemetry) so the overhead benchmark can read it unarmed.
        self.capture_ns = 0

    def rebaseline(self, service, engine_snapshot=None) -> None:
        """Adopt a new baseline at the service's current boundary.

        Must only be called at natural flush points — serve start, right
        after a checkpoint write, or after a committed migration — where
        the engine's queues (and any overload rung buffers) are empty,
        so the snapshot corresponds to exactly ``service.ingested``
        packets.  Pass ``engine_snapshot`` to reuse one already taken
        (the checkpoint path: zero extra snapshot cost)."""
        if engine_snapshot is None:
            engine_snapshot = service.engine.snapshot()
        self._baseline = engine_snapshot
        self._baseline_index = service.ingested
        # The capture window restarts here by definition, so the whole
        # ring is dead weight — including, after a supervised recovery,
        # batches from the *crashed* attempt that sit beyond the
        # checkpoint position and would otherwise shadow the re-served
        # stream.
        self._ring.clear()
        self._ring_packets = 0

    def observe_batch(self, batch: List[Packet], start_index: int) -> None:
        """Append one ingested batch to the trace ring (O(1): keeps a
        reference, never copies packet data on the hot path)."""
        self._ring.append([start_index, batch, None])
        self._ring_packets += len(batch)
        while self._ring_packets > self.ring_capacity and len(self._ring) > 1:
            old = self._ring.popleft()
            self._ring_packets -= len(old[1])

    # -- bundle writing ------------------------------------------------------

    def write_bundle(
        self,
        service,
        incident_id: int,
        incident_class: str,
        expected: Dict[str, object],
    ) -> Tuple[str, bool]:
        """Write the replay bundle for one incident.

        Returns ``(path, incomplete)`` where ``incomplete`` is True when
        the window cannot be replayed exactly (ring truncation, or
        positional losses whose dead-letter detail overflowed) — the
        bundle is still written, carrying the truncation marking, and
        replay will refuse it with a typed error.
        """
        started = time.monotonic_ns()
        baseline = self._baseline
        batches: List[Encoded] = []
        earliest: Optional[int] = None
        for entry in self._ring:
            start, batch = entry[0], entry[1]
            if start + len(batch) <= self._baseline_index:
                continue
            if earliest is None:
                earliest = start
            encoded = entry[2]
            if encoded is None:
                encoded = _encode_batch(batch)
                entry[2] = encoded
            batches.append(encoded)
        truncated = baseline is None or (
            earliest is not None and earliest > self._baseline_index
        )
        skips, skips_complete = self._extract_skips(service, baseline)
        engine = service.engine
        # The bundle's config must be the one in force AT THE BASELINE —
        # a retune committed inside the window changed the live config,
        # and replaying the whole window under the new config would
        # diverge.  The transition list carries every epoch change since
        # the baseline; replay re-applies each at its recorded position.
        baseline_config = service.config_dict_at(self._baseline_index)
        transitions = service.config_transitions_after(self._baseline_index)
        meta = {
            "format": BUNDLE_FORMAT,
            "kind": BUNDLE_KIND,
            "incident": incident_id,
            "incident_class": incident_class,
            "config": baseline_config,
            "transitions": transitions,
            "seed": service.seed,
            "shards": service.shards,
            "slots": service.slots,
            "queue_capacity": getattr(engine, "queue_capacity", 4096),
            "overflow": getattr(engine, "overflow", "block"),
            "invariant_every": service.invariant_every,
            "watcher": (
                service.watcher_policy.as_dict()
                if service.watcher_policy is not None
                else None
            ),
            "overload": (
                overload_policy_to_dict(service.overload)
                if service.overload is not None
                else None
            ),
            "baseline_packets": self._baseline_index,
            "packets": service.ingested,
            "truncated": truncated,
            "skips_complete": skips_complete,
            "expected": expected,
        }
        payload = {
            "meta": meta,
            "engine": baseline if baseline is not None else {},
            "trace": {
                "start": self._baseline_index,
                "batches": batches,
                "skips": sorted(skips),
            },
        }
        path = self.directory / f"incident-{incident_id:06d}.bundle"
        # durable=False: the atomic rename still guarantees old-or-new
        # against process death, and a bundle lost to power failure is an
        # explanation artifact, not recovery state — the incident log
        # line itself is flushed through its own handle.
        write_checkpoint(str(path), payload, durable=False)
        self.bundles_written += 1
        incomplete = truncated or not skips_complete
        if incomplete:
            self.truncated_bundles += 1
        elapsed = time.monotonic_ns() - started
        self.capture_ns += elapsed
        if self.instruments is not None:
            self.instruments.on_capture(elapsed)
        return str(path), incomplete

    def _extract_skips(
        self, service, baseline
    ) -> Tuple[List[Tuple[int, int]], bool]:
        """The window's positional losses as (shard, local arrival index)
        pairs, plus whether that list is provably complete."""
        dropped_now = getattr(service.engine, "dropped", 0)
        baseline_dropped = (
            sum(baseline.get("dropped") or []) if baseline is not None else 0
        )
        window_losses = dropped_now - baseline_dropped
        dead = service.dead_letter
        if window_losses <= 0:
            return [], True
        if dead is None:
            # Losses happened in the window but nothing recorded their
            # positions — replay cannot re-inject them.
            return [], False
        complete = dead.total == len(dead.entries)
        base_routed = list(baseline.get("routed") or []) if baseline else []
        skips = set()
        for entry in dead.entries:
            if entry.reason not in REPLAYABLE_LOSS_REASONS:
                continue
            if entry.index is None:
                # A positional loss without a recorded position: the
                # producer predates the consistent dead-letter tuple.
                complete = False
                continue
            base = (
                base_routed[entry.shard]
                if entry.shard < len(base_routed)
                else 0
            )
            if entry.index > base:
                # Restarts replay the same positional drops; the
                # (shard, index) key dedupes the duplicate entries.
                skips.add((entry.shard, entry.index))
        return list(skips), complete


def overload_policy_to_dict(policy) -> Dict[str, object]:
    """Plain-data form of an :class:`~repro.service.overload.
    OverloadPolicy` (the enum field by name) for bundle metadata."""
    data = {
        name: getattr(policy, name) for name in policy.__dataclass_fields__
    }
    data["max_level"] = policy.max_level.name
    return data


def overload_policy_from_dict(data: Dict[str, object]):
    from ..service.overload import DegradationLevel, OverloadPolicy

    data = dict(data)
    data["max_level"] = DegradationLevel[str(data["max_level"])]
    return OverloadPolicy(**data)  # type: ignore[arg-type]
