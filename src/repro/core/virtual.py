"""Virtual-traffic accounting for EARDet (paper Section 3.2/3.3).

The large-flow problem — unlike the frequent-items problem — must account
for *idle link time*: a flow's share of the link matters relative to the
link capacity, not just relative to other traffic.  EARDet handles this by
virtually filling unused bandwidth with **virtual traffic**, divided into
**virtual flows** (units) small enough to comply with the low-bandwidth
threshold so they never trigger alarms themselves.

Three pieces live here:

- :class:`Carryover` — the paper's exact integerization of fractional
  virtual-traffic sizes.  Idle bandwidth ``rho * t_idle`` is generally not
  a whole number of bytes; the carryover field keeps the uncounted
  remainder in exact byte-nanosecond units so the adjusted sizes differ
  from the true idle volume by less than one byte over *any* interval.
- :func:`apply_virtual_traffic_reference` — the executable specification:
  feed the virtual volume to the counter store one unit at a time, each
  unit a brand-new flow, exactly as Algorithm 1 lines 18-22 describe.
- :func:`apply_virtual_traffic` — an exactly-equivalent fast path.  It
  exploits the structure of unit processing (fill empty slots / bulk
  decrements while the minimum exceeds the unit size / the periodic regime
  once the store drains) so that long idle periods cost O(n) work rather
  than O(idle volume / unit size).  Property tests verify equivalence with
  the reference on randomized states.

A unit that is not absorbed by the decrement leaves a counter keyed by a
fresh :class:`~repro.core.counters.VirtualUnit`: the unit is never seen
again, so its counter needs a value but no name.
"""

from __future__ import annotations

from typing import Iterator

from ..model.units import NS_PER_S
from .counters import CounterStore, VirtualUnit


class Carryover:
    """Exact integerization of fractional virtual-traffic volumes.

    The true idle volume between packets is ``rho * t_idle - w_prev`` bytes
    with ``rho * t_idle`` generally fractional.  We track volumes as exact
    integers in byte-nanoseconds (numerator over 10^9) and emit integer
    byte amounts, keeping the running remainder ``co`` in scaled units with
    ``-0.5 <= co/NS < 0.5`` — the paper's invariant, achieved by rounding
    half-up on the scaled value.

    Over any sequence of emissions the total emitted differs from the total
    true volume by less than one byte (Section 3.3, "Counter
    implementation").
    """

    __slots__ = ("remainder_scaled",)

    def __init__(self) -> None:
        #: uncounted volume in byte-ns units; invariant -NS/2 <= r < NS/2.
        self.remainder_scaled = 0

    @property
    def remainder_bytes(self) -> float:
        """Current carryover in fractional bytes (for inspection)."""
        return self.remainder_scaled / NS_PER_S

    def integerize(self, volume_scaled: int) -> int:
        """Fold a scaled (byte-ns) volume in; return whole bytes to emit.

        ``volume_scaled`` must be >= 0.  The returned byte count is
        ``round(volume + carryover)`` (half-up), and the new carryover is
        the rounding error.
        """
        if volume_scaled < 0:
            raise ValueError(f"negative virtual volume {volume_scaled}")
        total = self.remainder_scaled + volume_scaled
        # Round half-up: floor((total + NS/2) / NS).
        emitted = (total + NS_PER_S // 2) // NS_PER_S
        self.remainder_scaled = total - emitted * NS_PER_S
        return emitted

    def reset(self) -> None:
        self.remainder_scaled = 0

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> int:
        """The exact scaled remainder; an int, so serialization is lossless."""
        return self.remainder_scaled

    def restore(self, state: int) -> None:
        """Restore a remainder produced by :meth:`snapshot`."""
        if not isinstance(state, int):
            raise TypeError(f"carryover snapshot must be an int, got {state!r}")
        self.remainder_scaled = state


def iter_units(volume: int, unit_size: int) -> Iterator[int]:
    """Split a byte volume into units of ``unit_size`` plus a final partial
    unit, the paper's division of virtual traffic into virtual flows."""
    if unit_size <= 0:
        raise ValueError(f"unit size must be positive, got {unit_size}")
    full, partial = divmod(volume, unit_size)
    for _ in range(full):
        yield unit_size
    if partial:
        yield partial


def apply_virtual_unit(store: CounterStore, unit: int) -> None:
    """Process one virtual unit as a brand-new flow (Algorithm 1, lines
    10-17 applied to a fresh key)."""
    if unit <= 0:
        return
    leftover = store.admit(unit)
    if leftover > 0:
        store.insert(VirtualUnit(), leftover)


def apply_virtual_traffic_reference(
    store: CounterStore, volume: int, unit_size: int
) -> None:
    """Executable specification: process every unit individually."""
    for unit in iter_units(volume, unit_size):
        apply_virtual_unit(store, unit)


def _state_key(store: CounterStore):
    """A canonical snapshot of the store for cycle detection.

    Virtual counters are interchangeable (each is keyed by a fresh
    :class:`~repro.core.counters.VirtualUnit` that is never referenced
    again), so they contribute only their value multiset; real flows
    contribute (fid, value) pairs.  Two stores with equal keys evolve
    identically under further virtual traffic.
    """
    virtual_values = []
    real_entries = []
    for fid, value in store.items():
        if type(fid) is VirtualUnit:
            virtual_values.append(value)
        else:
            real_entries.append((fid, value))
    return tuple(sorted(virtual_values)), frozenset(real_entries)


def apply_virtual_traffic(
    store: CounterStore, volume: int, unit_size: int
) -> None:
    """Fast path, exactly equivalent to the reference implementation.

    Four accelerations, each a closed form of a run of identical unit
    steps:

    1. *Periodic regime*: from an empty store, every ``(n + 1)`` full units
       return the store to empty (n fills then one decrement that clears
       them all), so the remaining volume can be reduced modulo
       ``(n + 1) * unit_size`` before simulating the final partial cycle.
    2. *Bulk decrement*: while the store is full and its minimum exceeds
       the unit size, each full unit decrements everything by exactly
       ``unit_size`` and stores nothing; a whole run of such units is a
       single ``decrement_all``.
    3. *Cycle detection*: from a non-empty store the evict/insert
       alternation may never drain the store (e.g. a lone real counter
       that keeps being replaced), but the dynamics over the finite state
       space are eventually periodic; when the exact state (virtual value
       multiset + real (fid, value) pairs) recurs, the volume consumed in
       between is one period and the remaining volume reduces modulo it.
       This bounds the work for arbitrarily long idle gaps.
    4. Everything else (fills, decrements that evict) is simulated
       step-by-step, one :meth:`~repro.core.counters.CounterStore.admit`
       per unit.
    """
    if unit_size <= 0:
        raise ValueError(f"unit size must be positive, got {unit_size}")
    if volume < 0:
        raise ValueError(f"negative virtual volume {volume}")
    n = store.capacity
    cycle = (n + 1) * unit_size
    # Cycle detection pays off only for long idle periods.
    track_cycles = volume > 2 * cycle
    seen = {} if track_cycles else None
    while volume > 0:
        if track_cycles and not store.is_empty:
            key = _state_key(store)
            previous_volume = seen.get(key)
            if previous_volume is not None:
                period = previous_volume - volume
                if period > 0 and volume >= period:
                    volume %= period
                    seen = {}
                    track_cycles = False
                    continue
            elif len(seen) < 65536:
                seen[key] = volume
            else:
                # Pathologically long transient: stop paying for snapshots
                # and fall back to plain stepping.
                seen = {}
                track_cycles = False
        if volume <= unit_size:
            # The last (or only) unit: one Misra-Gries step in any state
            # (an empty store simply takes it into a free slot).
            unit = volume
        elif store.is_empty:
            volume %= cycle
            # Final partial cycle: fill up to n slots with full units...
            full_units = min(volume // unit_size, n)
            for _ in range(full_units):
                store.insert(VirtualUnit(), unit_size)
            volume -= full_units * unit_size
            # ... then place or absorb the remainder (< unit_size, or a
            # full unit arriving with every slot taken).
            if volume > 0:
                apply_virtual_unit(store, min(volume, unit_size))
            return
        else:
            unit = unit_size
            if store.is_full:
                minimum = store.min_value()
                if minimum > unit_size:
                    # Bulk-decrement run: k full units, each reducing
                    # every counter by unit_size without evicting.  Stop
                    # one step before the minimum would reach the unit
                    # size or the volume runs out.
                    k = min((minimum - 1) // unit_size, volume // unit_size)
                    # k * unit_size <= minimum - 1, so no counter reaches
                    # zero and the store stays full throughout the run.
                    store.decrement_all(k * unit_size)
                    volume -= k * unit_size
                    continue
        volume -= unit
        leftover = store.admit(unit)
        if leftover > 0:
            store.insert(VirtualUnit(), leftover)
