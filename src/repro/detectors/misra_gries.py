"""The classic Misra-Gries frequent-items algorithm (landmark window).

EARDet's ancestor (paper Section 3.2): with ``n`` counters over a stream
of ``m`` unit items, every item occurring more than ``m/(n+1)`` times ends
with a non-zero counter (no false negatives over the landmark window
``[0, now)``), but infrequent items may also hold counters — the original
algorithm removes them with a second pass, which a line-rate detector
cannot afford.

This implementation generalizes to byte-weighted packets, exposes the
frequent-item guarantee for tests, and doubles as a *landmark-window*
large-flow detector: flagging flows whose counter exceeds
``gamma' * t`` - style thresholds, which is how the paper's Theorems 2/3
relate landmark algorithms to arbitrary-window ones.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from ..core.counters import CounterStore, HeapCounterStore
from ..model.packet import FlowId, Packet
from .base import Detector


class MisraGries:
    """Weighted Misra-Gries summary over a landmark window.

    Not a :class:`Detector` — it answers frequent-items queries, matching
    the original problem statement.  The summary guarantee: for every flow
    ``f``, ``volume(f) - total/(n+1) <= estimate(f) <= volume(f)``.
    """

    def __init__(self, counters: int, store_factory=HeapCounterStore):
        if counters < 1:
            raise ValueError(f"need at least 1 counter, got {counters}")
        self._store: CounterStore = store_factory(counters)
        self.counters = counters
        self.total_weight = 0

    def add(self, item: FlowId, weight: int = 1) -> None:
        """Fold one weighted item into the summary."""
        if weight <= 0:
            raise ValueError(f"weight must be positive, got {weight}")
        self.total_weight += weight
        store = self._store
        if item in store:
            store.increment(item, weight)
        else:
            leftover = store.admit(weight)
            if leftover > 0:
                store.insert(item, leftover)

    def add_stream(self, items: Iterable[Tuple[FlowId, int]]) -> "MisraGries":
        """Fold ``(item, weight)`` pairs; returns self."""
        for item, weight in items:
            self.add(item, weight)
        return self

    def estimate(self, item: FlowId) -> int:
        """Lower-bound estimate of the item's total weight (0 if absent)."""
        return self._store.get(item) if item in self._store else 0

    def candidates(self) -> Dict[FlowId, int]:
        """All stored items with their counter values — a superset of every
        item heavier than ``total_weight / (counters + 1)``."""
        return self._store.as_dict()

    def frequent_items(self, threshold_weight: int) -> Dict[FlowId, int]:
        """Candidates whose *counter* exceeds ``threshold_weight`` — the
        one-pass approximation; a second pass over the stream is needed for
        exactness, as the paper discusses."""
        return {
            item: value
            for item, value in self._store.items()
            if value > threshold_weight
        }


class LandmarkMisraGriesDetector(Detector):
    """Misra-Gries used as a landmark-window large-flow detector.

    Flags a flow when its counter exceeds ``beta_report``.  Satisfies the
    paper's L2 (no FNl over ``[0, t)`` against
    ``gamma' t + beta'`` with ``gamma' = rho/(n+1)``, ``beta' =
    beta_report``) but, lacking virtual traffic, measures against the
    *stream's* byte count rather than the link capacity — the gap EARDet
    closes.  Used by the Figure 1 experiment to show landmark-window
    evasion.
    """

    name = "mg-landmark"

    def __init__(self, counters: int, beta_report: int):
        super().__init__()
        if beta_report <= 0:
            raise ValueError(f"beta_report must be positive, got {beta_report}")
        self.summary = MisraGries(counters)
        self.beta_report = beta_report

    def _update(self, packet: Packet) -> bool:
        self.summary.add(packet.fid, packet.size)
        return self.summary.estimate(packet.fid) > self.beta_report

    def _reset_state(self) -> None:
        self.summary = MisraGries(self.summary.counters)

    def counter_count(self) -> int:
        return self.summary.counters


def exact_frequent_flows(packets, counters: int, threshold_weight: int):
    """The original *two-pass* Misra-Gries procedure, exactly.

    Pass 1 builds the one-pass summary (a superset of every flow heavier
    than ``total/(counters+1)``); pass 2 re-counts the candidates' true
    volumes and drops the false positives — the step a one-pass line-rate
    detector cannot afford, which is why EARDet needed a different route
    to the no-FPs property (Section 3.2).

    Returns ``{fid: exact volume}`` for every flow whose true volume
    strictly exceeds ``threshold_weight``.  ``packets`` must be
    re-iterable (pass it a list or a :class:`~repro.model.stream.PacketStream`).
    """
    summary = MisraGries(counters)
    for packet in packets:
        summary.add(packet.fid, packet.size)
    candidates = set(summary.candidates())
    exact: Dict[FlowId, int] = {fid: 0 for fid in candidates}
    for packet in packets:
        if packet.fid in candidates:
            exact[packet.fid] += packet.size
    return {
        fid: volume for fid, volume in exact.items() if volume > threshold_weight
    }
