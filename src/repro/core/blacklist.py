"""EARDet's bounded local blacklist (paper Section 3.3).

The blacklist stores recently identified large flows so their counters stop
being incremented once past the counter threshold.  To bound its size
against algorithmic-complexity attacks the paper prunes any blacklisted
flow that is *no longer stored in the counters*: removal cannot affect the
no-FNl / no-FPs guarantees because whether a flow is caught never depends
on other flows' behaviour, and a complete history of detections is kept by
the remote report sink (Figure 2), not by the detector.

:class:`Blacklist` implements the bounded local list; :class:`ReportSink`
models the remote server's complete copy of the detected set ``F`` together
with first-detection timestamps, which the evaluation metrics (incubation
period) need.
"""

from __future__ import annotations

from typing import Container, Dict, Iterator, List, Optional, Set, Tuple

from ..model.packet import FlowId


def _canonical_fid_order(fid: FlowId) -> int:
    from ..detectors.hashing import canonical_key

    return canonical_key(fid)


class ReportSink:
    """The remote administrator's complete record of detected flows.

    Keeps every flow ever reported and the time of its *first* report —
    re-reports of the same flow (e.g. after blacklist pruning and
    re-detection) do not move the timestamp.
    """

    def __init__(self) -> None:
        self._first_detection: Dict[FlowId, int] = {}

    def report(self, fid: FlowId, time_ns: int) -> bool:
        """Record a detection; returns True if the flow is new to the sink."""
        if fid in self._first_detection:
            return False
        self._first_detection[fid] = time_ns
        return True

    def __contains__(self, fid: FlowId) -> bool:
        return fid in self._first_detection

    def __len__(self) -> int:
        return len(self._first_detection)

    def __iter__(self) -> Iterator[FlowId]:
        return iter(self._first_detection)

    def detection_time(self, fid: FlowId) -> Optional[int]:
        """First detection time (ns) of a flow, or None if never detected."""
        return self._first_detection.get(fid)

    def as_dict(self) -> Dict[FlowId, int]:
        """Snapshot of ``{fid: first detection time}``."""
        return dict(self._first_detection)

    def reset(self) -> None:
        self._first_detection.clear()

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> List[Tuple[FlowId, int]]:
        """Serializable ``(fid, first detection time)`` pairs in a
        deterministic order (by time, then canonical fid key)."""
        return sorted(
            self._first_detection.items(),
            key=lambda item: (item[1], _canonical_fid_order(item[0])),
        )

    def restore(self, state: List[Tuple[FlowId, int]]) -> None:
        """Replace the record with a :meth:`snapshot`'s contents."""
        self._first_detection = {
            (tuple(fid) if isinstance(fid, list) else fid): time_ns
            for fid, time_ns in state
        }

    def merge(self, other: "ReportSink") -> None:
        """Fold another sink's detections in, keeping the earliest first
        report of each flow (used to aggregate per-shard sinks)."""
        for fid, time_ns in other._first_detection.items():
            current = self._first_detection.get(fid)
            if current is None or time_ns < current:
                self._first_detection[fid] = time_ns


class Blacklist:
    """Bounded set of currently-blacklisted flow IDs.

    The detector adds a flow when its counter crosses the threshold and
    calls :meth:`prune` with its counter store; any blacklisted flow that
    lost its counter is dropped, so ``len(blacklist)`` never exceeds the
    number of counters.
    """

    def __init__(self) -> None:
        self._flows: Set[FlowId] = set()

    def __contains__(self, fid: FlowId) -> bool:
        return fid in self._flows

    def __len__(self) -> int:
        return len(self._flows)

    def __iter__(self) -> Iterator[FlowId]:
        return iter(self._flows)

    def add(self, fid: FlowId) -> None:
        """Blacklist a flow."""
        self._flows.add(fid)

    def discard(self, fid: FlowId) -> None:
        """Remove a flow if present."""
        self._flows.discard(fid)

    def prune(self, stored: Container[FlowId]) -> int:
        """Drop every blacklisted flow not in ``stored`` (a set of flow
        IDs or the counter store itself); return the number pruned.

        Walks the blacklist, which holds at most ``n`` flows, rather than
        materializing the stored set."""
        stale = [fid for fid in self._flows if fid not in stored]
        if stale:
            self._flows.difference_update(stale)
        return len(stale)

    def reset(self) -> None:
        self._flows.clear()

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> List[FlowId]:
        """Serializable flow-ID list in deterministic (canonical-key)
        order."""
        return sorted(self._flows, key=_canonical_fid_order)

    def restore(self, state: List[FlowId]) -> None:
        """Replace the blacklist with a :meth:`snapshot`'s contents."""
        self._flows = {
            tuple(fid) if isinstance(fid, list) else fid for fid in state
        }
