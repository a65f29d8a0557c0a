"""EARDet: the paper's core contribution (Algorithm 1).

EARDet is a deterministic one-pass streaming detector built on the
Misra-Gries frequent-items algorithm, modified in three ways (Section 3.2):

1. a **blacklist** of recently detected large flows, so a counter stops
   growing once past the threshold and detection work is not repeated;
2. a **counter threshold** ``beta_TH``: a flow is declared large the moment
   its counter exceeds it, which (with the blacklist) confines every
   counter to ``beta_TH + alpha``;
3. **virtual traffic** filling unused link bandwidth, so the detector
   measures flows against the link capacity over *arbitrary* time windows
   rather than against the packet mix.

With ``n`` counters on a link of capacity ``rho`` the resulting guarantees
(Theorems 4 and 6) hold for any input whatsoever:

- *no-FNl*: every flow violating ``TH_h(t) = gamma_h t + beta_h`` with
  ``gamma_h >= rho/(n+1)``, ``beta_h >= alpha + 2 beta_TH`` is caught,
- *no-FPs*: no flow complying with ``TH_l(t) = gamma_l t + beta_l`` with
  ``beta_l < beta_TH``, ``gamma_l < R_NFP`` is ever caught.

The implementation keeps all arithmetic exact (integer bytes / nanoseconds
/ byte-nanoseconds), so those guarantees are testable as hard assertions;
see ``tests/test_properties_eardet.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable, Dict, Iterable, cast

from ..detectors.base import Detector
from ..model.packet import FlowId, Packet
from ..model.units import NS_PER_S
from .blacklist import Blacklist
from .config import EARDetConfig
from .counters import CounterStore, HeapCounterStore, VirtualUnit
from .virtual import Carryover, apply_virtual_traffic, apply_virtual_traffic_reference


class ReconfigurationError(ValueError):
    """A snapshot cannot be adapted to a new configuration.

    The config-dependent fields inside an EARDet snapshot are the counter
    store's embedded capacity and the counter-value envelope
    ``[1, beta_TH + alpha]``; adapting fails exactly when the snapshot
    holds more live counters than the new configuration's ``n`` can carry
    (shrinking below occupancy would have to *drop* counter state, which
    is never exact)."""


def reconfigure_state(
    state: Dict[str, object], config: EARDetConfig
) -> Dict[str, object]:
    """Adapt a :meth:`EARDet.snapshot` taken under one configuration for
    restore into a detector built with ``config``.

    Almost everything in a snapshot is config-independent — counters are
    ``(fid, bytes)`` pairs plus virtual byte values, the carryover is an
    exact byte-nanosecond numerator, the blacklist is a fid set.  Two
    fields depend on the configuration and get rewritten here (the
    hot-reconfiguration path: retune at a batch boundary, adapt the frozen
    snapshot, restore into a detector built with the new config):

    - the store's embedded ``capacity``, which
      :meth:`~repro.core.counters.CounterStore.restore` checks strictly,
      becomes ``config.n``;
    - counter *values* live in ``[1, beta_TH + alpha]`` under the config
      that produced them.  When the retune shrinks ``beta_TH``, a
      carried value may exceed the new envelope; such values are clamped
      down to the new ceiling ``config.beta_th + config.alpha``.  The
      clamp is minimal on purpose: values already inside the new
      envelope are carried bit-for-bit (so a rollback's same-config
      round trip perturbs nothing — counter values feed the
      Misra-Gries ``min_value`` decrement, where any gratuitous rewrite
      would shift later detection times), and a clamped value stays
      above the new ``beta_th``, so the flow is still detected on its
      next counted packet.  The clamp is deterministic, so replay of
      the epoch transition stays bit-identical.

    Returns a new state dict; the input is not mutated.  Raises
    :class:`ReconfigurationError` when the snapshot's live occupancy
    exceeds ``config.n``.
    """
    store_state = state.get("store")
    if not isinstance(store_state, dict):
        raise ReconfigurationError(
            f"snapshot has no store section to adapt: {type(store_state).__name__}"
        )
    entries = store_state.get("entries", [])
    virtual = store_state.get("virtual", [])
    occupancy = len(entries) + len(virtual)  # type: ignore[arg-type]
    if occupancy > config.n:
        raise ReconfigurationError(
            f"snapshot holds {occupancy} live counters but the new "
            f"configuration provides only n={config.n}; shrinking below "
            "occupancy would drop exact state (retry after decay or with "
            "a larger n)"
        )
    adapted = dict(state)
    ceiling = config.beta_th + config.alpha
    adapted["store"] = {
        **store_state,
        "capacity": config.n,
        "entries": [
            (fid, min(value, ceiling)) for fid, value in entries
        ],
        "virtual": [min(value, ceiling) for value in virtual],
    }
    return adapted


@dataclass
class EARDetStats:
    """Operational counters for diagnostics and ablation benchmarks."""

    packets: int = 0
    blacklisted_packets: int = 0
    virtual_bytes: int = 0
    oversubscribed_gaps: int = 0
    detections: int = 0
    blacklist_prunes: int = 0

    def reset(self) -> None:
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Serializable field dict."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}

    def restore(self, state: Dict[str, int]) -> None:
        """Restore fields from a :meth:`snapshot` (unknown keys rejected)."""
        for name, value in state.items():
            if name not in self.__dataclass_fields__:
                raise ValueError(f"unknown stats field {name!r}")
            setattr(self, name, value)


class EARDet(Detector):
    """The EARDet detector.

    Parameters
    ----------
    config:
        An :class:`~repro.core.config.EARDetConfig`, typically produced by
        :func:`repro.core.config.engineer`.
    store_factory:
        Counter-store implementation; the default is the optimized
        floating-ground heap store.  Pass
        :class:`~repro.core.counters.ReferenceCounterStore` for the O(n)
        behavioural oracle.
    reference_virtual:
        When True, process virtual traffic with the unit-by-unit reference
        loop instead of the exactly-equivalent fast path (for differential
        testing; dramatically slower on idle links).
    blacklisted_consumes_link:
        The paper's analysis assumes detected flows are *cut off
        immediately* (Section 4), i.e. their packets stop consuming link
        bandwidth.  With the default ``False``, bytes of blacklisted flows
        are accordingly treated as idle bandwidth (they become virtual
        traffic).  Set True to model a monitor-only deployment where
        detected flows keep occupying the wire.
    """

    name = "eardet"

    def __init__(
        self,
        config: EARDetConfig,
        store_factory: Callable[[int], CounterStore] = HeapCounterStore,
        reference_virtual: bool = False,
        blacklisted_consumes_link: bool = False,
    ):
        super().__init__()
        self.config = config
        self._store: CounterStore = store_factory(config.n)
        self._blacklist = Blacklist()
        self._carryover = Carryover()
        self._apply_virtual = (
            apply_virtual_traffic_reference
            if reference_virtual
            else apply_virtual_traffic
        )
        self._blacklisted_consumes_link = blacklisted_consumes_link
        # Time and size of the last packet that consumed link bandwidth,
        # used to compute each gap's idle volume (Algorithm 1 line 19).
        self._last_time = 0
        self._last_size = 0
        self._started = False
        self.stats = EARDetStats()

    # -- Algorithm 1 -------------------------------------------------------

    def _update(self, packet: Packet) -> bool:
        return self._step(packet.time, packet.size, packet.fid)

    def observe_batch(
        self,
        times: Iterable[int],
        sizes: Iterable[int],
        fids: Iterable[FlowId],
    ) -> None:
        """Process parallel packet columns in order, without building a
        :class:`~repro.model.packet.Packet`; everything ends exactly as
        per-packet :meth:`observe` leaves it.  A plain heap store on the
        fast virtual path with no checker runs :meth:`_kernel`; anything
        else (a checker audits every packet, another store or the
        reference virtual loop is a specification) runs :meth:`_step`.
        The columns are not validated here; a caller taking them from
        outside the process checks ``time >= 0`` and ``size > 0`` first,
        as ``Packet`` would."""
        store = self._store
        checker = self.checker
        if (
            type(store) is HeapCounterStore
            and checker is None
            and self._apply_virtual is apply_virtual_traffic
        ):
            self._kernel(store, times, sizes, fids)
            return
        step = self._step
        report = self.sink.report
        for now, size, fid in zip(times, sizes, fids):
            if step(now, size, fid):
                report(fid, now)
            if checker is not None:
                checker.after_packet(self)

    def _kernel(
        self,
        store: HeapCounterStore,
        times: Iterable[int],
        sizes: Iterable[int],
        fids: Iterable[FlowId],
    ) -> None:
        """:meth:`_step` over columns, with the detector's and the heap
        store's state in locals (a rebase goes through the store).  A gap
        of at most ``min(4, n)`` virtual units is stepped inline, unit by
        unit; a longer one goes to :func:`apply_virtual_traffic`, whose
        periodic shortcut from ``n + 1`` units on skips evictions unit
        stepping would count.  Stats, evictions, carryover and link clock
        are written back in a ``finally``, so a batch that raises
        part-way leaves the state the :meth:`_step` loop leaves."""
        config = self.config
        rho, beta_th = config.rho, config.beta_th
        unit_size = cast(int, config.virtual_unit)  # set in __post_init__
        capacity = store.capacity
        inline_volume = min(4, capacity) * unit_size
        rebase_at = store.REBASE_THRESHOLD
        ns, half_ns = NS_PER_S, NS_PER_S // 2
        consumes_link = self._blacklisted_consumes_link
        blacklist = self._blacklist
        flows = blacklist._flows
        report = self.sink.report
        remainder = self._carryover.remainder_scaled
        last_time, last_size = self._last_time, self._last_size
        started = self._started
        entries, heap, ground, version = store._kernel_locals()
        packets = blacklisted = virtual_bytes = oversubscribed = 0
        detections = prunes = evictions = 0
        try:
            for now, size, fid in zip(times, sizes, fids):
                packets += 1
                cut = False
                if fid in flows:
                    if fid in entries:
                        blacklisted += 1
                        if not consumes_link:
                            continue
                        cut = True
                    else:
                        flows.discard(fid)
                        prunes += 1
                volume = 0
                if started:
                    idle = rho * (now - last_time) - last_size * ns
                    if idle < 0:
                        oversubscribed += 1
                    elif idle:
                        idle += remainder
                        volume = (idle + half_ns) // ns
                        remainder = idle - volume * ns
                        virtual_bytes += volume
                    last_size = size
                else:
                    started = True
                    last_size += size
                last_time = now
                if volume > inline_volume:
                    store._kernel_return(ground, version, 0)
                    apply_virtual_traffic(store, volume, unit_size)
                    entries, heap, ground, version = store._kernel_locals()
                    volume = 0
                while volume:
                    # One virtual unit, a brand-new flow: admit it, then
                    # insert what is left of it.
                    unit = unit_size if volume > unit_size else volume
                    volume -= unit
                    if len(entries) >= capacity:
                        while True:
                            top, stamp, key = heap[0]
                            current = entries.get(key)
                            if current is not None and current[1] == stamp:
                                break
                            heappop(heap)
                        leftover = unit - (top - ground)
                        if leftover < 0:
                            ground += unit
                        else:
                            ground = top
                            while heap and heap[0][0] <= top:
                                _, stamp, key = heappop(heap)
                                current = entries.get(key)
                                if current is not None and current[1] == stamp:
                                    del entries[key]
                                    evictions += 1
                        if ground >= rebase_at:
                            store._kernel_return(ground, version, 0)
                            store.rebase()
                            entries, heap, ground, version = store._kernel_locals()
                        if leftover <= 0:
                            continue
                        unit = leftover
                    version += 1
                    key = VirtualUnit()
                    entries[key] = (ground + unit, version)
                    heappush(heap, (ground + unit, version, key))
                if cut:
                    continue
                # Misra-Gries update with byte weights (lines 10-17), then
                # the counter-threshold check (lines 21-22).
                current = entries.get(fid)
                if current is not None:
                    absolute = current[0] + size
                else:
                    value = size
                    if len(entries) >= capacity:
                        while True:
                            top, stamp, key = heap[0]
                            current = entries.get(key)
                            if current is not None and current[1] == stamp:
                                break
                            heappop(heap)
                        value -= top - ground
                        if value < 0:
                            ground += size
                        else:
                            ground = top
                            while heap and heap[0][0] <= top:
                                _, stamp, key = heappop(heap)
                                current = entries.get(key)
                                if current is not None and current[1] == stamp:
                                    del entries[key]
                                    evictions += 1
                        if ground >= rebase_at:
                            store._kernel_return(ground, version, 0)
                            store.rebase()
                            entries, heap, ground, version = store._kernel_locals()
                    if value <= 0:
                        continue
                    absolute = ground + value
                version += 1
                entries[fid] = (absolute, version)
                heappush(heap, (absolute, version, fid))
                if absolute - ground <= beta_th:
                    continue
                flows.add(fid)
                detections += 1
                prunes += blacklist.prune(entries)
                report(fid, now)
        finally:
            stats = self.stats
            stats.packets += packets
            stats.blacklisted_packets += blacklisted
            stats.virtual_bytes += virtual_bytes
            stats.oversubscribed_gaps += oversubscribed
            stats.detections += detections
            stats.blacklist_prunes += prunes
            self._carryover.remainder_scaled = remainder
            self._last_time, self._last_size = last_time, last_size
            self._started = started
            store._kernel_return(ground, version, evictions)

    def _step(self, now: int, size: int, fid: FlowId) -> bool:
        """Algorithm 1 for one packet; True when its flow is detected at
        it.  The specification :meth:`observe` and the fallback of
        :meth:`observe_batch` run, and :meth:`_kernel` must equal."""
        stats = self.stats
        stats.packets += 1
        store = self._store
        blacklist = self._blacklist
        cut = False

        if fid in blacklist:
            if fid in store:
                stats.blacklisted_packets += 1
                if not self._blacklisted_consumes_link:
                    return False
                # Monitor-only: the packet still occupies the wire, so it
                # takes part in idle fill and link consumption below.
                cut = True
            else:
                # The counter decayed away: the flow leaves the local
                # blacklist (its detection remains recorded at the sink).
                blacklist.discard(fid)
                stats.blacklist_prunes += 1

        # Idle fill and link consumption (Algorithm 1 lines 18-22).  A gap
        # with no idle volume (an oversubscribed one included) leaves the
        # carryover as it is, so it is not folded in.
        if self._started:
            idle_scaled = (
                self.config.rho * (now - self._last_time)
                - self._last_size * NS_PER_S
            )
            if idle_scaled < 0:
                stats.oversubscribed_gaps += 1
            elif idle_scaled:
                volume = self._carryover.integerize(idle_scaled)
                if volume > 0:
                    stats.virtual_bytes += volume
                    self._apply_virtual(store, volume, self.config.virtual_unit)
            self._last_size = size
        else:
            self._started = True
            self._last_size += size
        self._last_time = now
        if cut:
            return False

        # Misra-Gries update with byte weights (lines 10-17), then the
        # counter-threshold check (lines 21-22).
        if fid in store:
            value = store.increment(fid, size)
        else:
            value = store.admit(size)
            if value <= 0:
                return False
            store.insert(fid, value)
        if value <= self.config.beta_th:
            return False
        blacklist.add(fid)
        stats.detections += 1
        # Keep the bounded-blacklist invariant |L| <= n by pruning entries
        # whose counters have decayed away (Section 3.3).
        stats.blacklist_prunes += blacklist.prune(store)
        return True

    # -- introspection -----------------------------------------------------

    @property
    def counters(self) -> Dict[FlowId, int]:
        """Snapshot of the current non-zero counters (includes leftover
        virtual counters, keyed by :class:`~repro.core.counters.VirtualUnit`)."""
        return self._store.as_dict()

    @property
    def counters_in_use(self) -> int:
        """Occupied counter-store slots (cheap; no dict materialization,
        unlike :attr:`counters` — telemetry polls this per batch)."""
        return len(self._store)

    @property
    def store_evictions(self) -> int:
        """Flows this detector's store has evicted via decrement-all
        (operational telemetry; see ``CounterStore.evictions``)."""
        return self._store.evictions

    @property
    def blacklist(self) -> Blacklist:
        """The bounded local blacklist."""
        return self._blacklist

    @property
    def carryover_numerator(self) -> int:
        """Current virtual-traffic carryover as the exact integer
        numerator over 10^9 (byte-nanosecond units), satisfying
        ``-NS_PER_S // 2 <= numerator < NS_PER_S // 2``.

        This is the primary API: it is the value the algorithm actually
        carries, snapshots losslessly, and compares exactly.  Use
        :attr:`carryover_bytes` only for display.
        """
        return self._carryover.remainder_scaled

    @property
    def carryover_bytes(self) -> float:
        """Current virtual-traffic carryover in fractional bytes.

        Display convenience only — the division by 10^9 goes through
        float and can lose precision.  Exact code must use
        :attr:`carryover_numerator`.
        """
        return self._carryover.remainder_bytes

    def counter_count(self) -> int:
        return self.config.n

    # -- checkpointing -----------------------------------------------------

    #: Version of the EARDet snapshot schema; bump on incompatible change.
    SNAPSHOT_FORMAT = 2

    def snapshot(self) -> Dict[str, object]:
        """Capture the complete detector state as plain Python data.

        The snapshot is *exact*: restoring it (into this or any other
        EARDet with the same configuration — even in a different process)
        and replaying the remaining packets produces detections, detection
        timestamps, stats and counter values identical to an uninterrupted
        run.  All captured values are integers, bools, strings or nested
        lists/tuples of those, so any lossless serializer preserves
        exactness.
        """
        return {
            "format": self.SNAPSHOT_FORMAT,
            "store": self._store.snapshot(),
            "blacklist": self._blacklist.snapshot(),
            "carryover": self._carryover.snapshot(),
            "last_time": self._last_time,
            "last_size": self._last_size,
            "started": self._started,
            "stats": self.stats.snapshot(),
            "sink": self.sink.snapshot(),
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore a :meth:`snapshot`, replacing all current state.

        Format-1 snapshots still restore: their virtual counters were
        ``("__virtual__", i)`` entries (tuple or list), which move into
        the store's ``virtual`` values.
        """
        fmt = state.get("format")
        if fmt not in (1, self.SNAPSHOT_FORMAT):
            raise ValueError(
                f"unsupported EARDet snapshot format {fmt!r} "
                f"(this build reads formats 1 and {self.SNAPSHOT_FORMAT})"
            )
        store_state = state["store"]
        if fmt == 1:
            entries, virtual = [], []
            for fid, value in store_state["entries"]:
                if (
                    isinstance(fid, (tuple, list))
                    and len(fid) == 2
                    and fid[0] == "__virtual__"
                ):
                    virtual.append(value)
                else:
                    entries.append((fid, value))
            store_state = {**store_state, "entries": entries, "virtual": virtual}
        self._store.restore(store_state)
        self._blacklist.restore(state["blacklist"])
        self._carryover.restore(state["carryover"])
        self._last_time = state["last_time"]
        self._last_size = state["last_size"]
        self._started = state["started"]
        self.stats.restore(state["stats"])
        self.sink.restore(state["sink"])
        if self.checker is not None:
            # Restored state is a discontinuous jump (possibly backward in
            # time); the monitor's trackers must restart from it.
            self.checker.reset()

    def _reset_state(self) -> None:
        self._store.reset()
        self._blacklist.reset()
        self._carryover.reset()
        self._last_time = 0
        self._last_size = 0
        self._started = False
        self.stats.reset()

    def __repr__(self) -> str:
        return (
            f"EARDet(n={self.config.n}, beta_th={self.config.beta_th}, "
            f"detected={len(self.sink)})"
        )
