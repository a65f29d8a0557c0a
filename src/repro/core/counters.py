"""Counter stores for EARDet.

EARDet (Algorithm 1 in the paper) keeps at most ``n`` non-zero counters in
an associative array indexed by flow ID and must support four operations at
line rate:

- look up / increment the counter of a stored flow,
- insert a new flow into an empty slot,
- *decrement all* non-zero counters by ``d = min(w, min_j c_j)`` and drop
  the ones that hit zero,
- find the minimum counter value.

The last two only ever run together, when a flow without a counter
arrives at a full store (Algorithm 1 lines 12-17), so the stores also
offer them as one step, :meth:`CounterStore.admit`, which every
Misra-Gries update in the package goes through.

Section 3.3 of the paper describes the key optimization this module
implements: counter values are kept **relative to a floating ground**
``c_ground``.  The decrement-all operation then becomes a single addition
to the ground, and a counter is logically zero (and removable) when its
absolute value is <= the ground.

Two interchangeable implementations are provided:

- :class:`ReferenceCounterStore` — direct O(n)-per-operation translation of
  the paper's pseudocode, kept as the behavioural oracle for differential
  tests;
- :class:`HeapCounterStore` — the floating-ground structure with an
  O(log n) lazy min-heap, mirroring the paper's "balanced search tree or
  heap" suggestion.  Its ``admit`` is fused: one heap peek, a ground bump
  and an eviction sweep, with no calls back into the public operations.

Both enforce the same invariants and are exercised against each other by
property-based tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from heapq import heapify, heappop, heappush
from typing import Dict, Iterator, List, Optional, Tuple

from ..model.packet import FlowId


class CounterStoreError(RuntimeError):
    """Raised on misuse of the counter-store API (bug in the caller)."""


class VirtualUnit:
    """The key of one virtual counter (paper Section 3.2).

    Every unit of virtual traffic is processed as a brand-new flow that
    never appears again, so its counter needs a value but no name.  A
    fresh instance hashes by identity, so it never equals a stored flow,
    and snapshots write virtual counters as plain values.
    """

    __slots__ = ()

    def __repr__(self) -> str:
        return "<virtual>"


class CounterStore(ABC):
    """Abstract interface shared by the reference and optimized stores.

    All values are integers (bytes).  A flow is *stored* when it occupies a
    slot with a strictly positive value; stores never hold zero-valued
    entries.
    """

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: Flows evicted by :meth:`decrement_all` reaching zero, over the
        #: store's lifetime.  Operational telemetry only: not part of the
        #: logical state, so :meth:`snapshot`/:meth:`restore` ignore it
        #: (a restored store starts its own eviction history).
        self.evictions: int = 0

    # -- queries ----------------------------------------------------------

    @abstractmethod
    def __contains__(self, fid: FlowId) -> bool:
        """Whether ``fid`` currently occupies a slot."""

    @abstractmethod
    def __len__(self) -> int:
        """Number of occupied slots."""

    @abstractmethod
    def get(self, fid: FlowId) -> int:
        """Current value of a stored flow (raises if not stored)."""

    @abstractmethod
    def min_value(self) -> int:
        """Minimum value among stored flows (raises if empty)."""

    @abstractmethod
    def items(self) -> Iterator[Tuple[FlowId, int]]:
        """Iterate ``(fid, value)`` pairs in unspecified order."""

    @property
    def free_slots(self) -> int:
        """Number of unoccupied slots."""
        return self.capacity - len(self)

    @property
    def is_empty(self) -> bool:
        """True when no flow is stored."""
        return len(self) == 0

    @property
    def is_full(self) -> bool:
        """True when every slot is occupied."""
        return len(self) == self.capacity

    # -- mutations ---------------------------------------------------------

    @abstractmethod
    def increment(self, fid: FlowId, amount: int) -> int:
        """Add ``amount`` to a stored flow's counter; return the new value."""

    @abstractmethod
    def insert(self, fid: FlowId, value: int) -> None:
        """Store a new flow with a positive value in a free slot."""

    @abstractmethod
    def decrement_all(self, amount: int) -> None:
        """Subtract ``amount`` from every stored counter and evict the ones
        that reach zero.  ``amount`` must not exceed :meth:`min_value` (the
        algorithm always passes ``min(w, min value)``)."""

    def admit(self, size: int) -> int:
        """Make room for ``size`` bytes of a flow that holds no counter
        (Algorithm 1 lines 12-17); return the bytes left to insert.

        With a free slot nothing changes and the result is ``size``.
        Otherwise every counter is decremented by ``d = min(size, min
        value)`` (evicting the ones that reach zero) and the result is
        ``size - d``.  A positive result always finds a free slot, since
        ``d`` was then the minimum; the caller inserts the flow with it.
        This default is built from the public operations;
        :class:`HeapCounterStore` fuses it into one step.
        """
        if size < 0:
            raise CounterStoreError(f"negative admit size {size}")
        if not self.is_full:
            return size
        decrement = min(size, self.min_value())
        self.decrement_all(decrement)
        return size - decrement

    @abstractmethod
    def reset(self) -> None:
        """Evict everything."""

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Serializable logical state: capacity, the real flows'
        ``(fid, value)`` pairs and the virtual counters' values.

        The snapshot captures the *logical* counter values — the only state
        the algorithm's behaviour depends on — so it is interchangeable
        between store implementations: a snapshot taken from a
        :class:`HeapCounterStore` restores into a
        :class:`ReferenceCounterStore` and vice versa.  Entries are sorted
        by a deterministic key and virtual values ascending, so identical
        logical states serialize to identical bytes (checkpoint files are
        reproducible).
        """
        from ..detectors.hashing import canonical_key

        entries = []
        virtual = []
        for fid, value in self.items():
            if type(fid) is VirtualUnit:
                virtual.append(value)
            else:
                entries.append((fid, value))
        entries.sort(key=lambda item: canonical_key(item[0]))
        virtual.sort()
        return {"capacity": self.capacity, "entries": entries, "virtual": virtual}

    def restore(self, state: Dict[str, object]) -> None:
        """Replace this store's contents with a :meth:`snapshot`'s, each
        virtual value under a fresh :class:`VirtualUnit`.

        The restored store is behaviourally identical to the snapshotted
        one: every query and mutation sequence produces the same results.
        """
        capacity = state["capacity"]
        if capacity != self.capacity:
            raise CounterStoreError(
                f"snapshot capacity {capacity} != store capacity {self.capacity}"
            )
        entries = state["entries"]
        virtual = state["virtual"]
        held = len(entries) + len(virtual)
        if held > self.capacity:
            raise CounterStoreError(
                f"snapshot holds {held} counters for {self.capacity} slots"
            )
        self.reset()
        for fid, value in entries:
            fid = tuple(fid) if isinstance(fid, list) else fid
            self.insert(fid, value)
        for value in virtual:
            self.insert(VirtualUnit(), value)

    # -- shared helpers ----------------------------------------------------

    def as_dict(self) -> Dict[FlowId, int]:
        """Snapshot of the stored flows (for tests and reporting)."""
        return dict(self.items())

    def _check_increment(self, fid: FlowId, amount: int) -> None:
        if amount < 0:
            raise CounterStoreError(f"negative increment {amount}")
        if fid not in self:
            raise CounterStoreError(f"increment of unstored flow {fid!r}")

    def _check_insert(self, fid: FlowId, value: int) -> None:
        if value <= 0:
            raise CounterStoreError(f"insert with non-positive value {value}")
        if fid in self:
            raise CounterStoreError(f"insert of already-stored flow {fid!r}")
        if self.is_full:
            raise CounterStoreError("insert into a full store")

    def _check_decrement(self, amount: int) -> None:
        if amount < 0:
            raise CounterStoreError(f"negative decrement {amount}")
        if amount > 0 and (self.is_empty or amount > self.min_value()):
            raise CounterStoreError(
                f"decrement {amount} exceeds the minimum stored value; "
                "Algorithm 1 only ever decrements by min(w, min counter)"
            )


class ReferenceCounterStore(CounterStore):
    """Straightforward dict-based store; O(n) decrement and min.

    This is the executable specification: every operation manipulates
    absolute counter values exactly as the paper's pseudocode describes.
    """

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._values: Dict[FlowId, int] = {}

    def __contains__(self, fid: FlowId) -> bool:
        return fid in self._values

    def __len__(self) -> int:
        return len(self._values)

    def get(self, fid: FlowId) -> int:
        return self._values[fid]

    def min_value(self) -> int:
        if not self._values:
            raise CounterStoreError("min of an empty store")
        return min(self._values.values())

    def items(self) -> Iterator[Tuple[FlowId, int]]:
        return iter(list(self._values.items()))

    def increment(self, fid: FlowId, amount: int) -> int:
        self._check_increment(fid, amount)
        self._values[fid] += amount
        return self._values[fid]

    def insert(self, fid: FlowId, value: int) -> None:
        self._check_insert(fid, value)
        self._values[fid] = value

    def decrement_all(self, amount: int) -> None:
        self._check_decrement(amount)
        if amount == 0:
            return
        survivors = {}
        for fid, value in self._values.items():
            remaining = value - amount
            if remaining > 0:
                survivors[fid] = remaining
        self.evictions += len(self._values) - len(survivors)
        self._values = survivors

    def reset(self) -> None:
        self._values.clear()


class HeapCounterStore(CounterStore):
    """Floating-ground store with a lazily-pruned min-heap.

    Each stored flow has an *absolute* value ``a = c + ground`` where ``c``
    is its logical counter.  ``decrement_all(d)`` raises the ground by
    ``d``; entries whose absolute value is <= the ground are logically zero
    and evicted.  Increments push a fresh heap entry and invalidate the old
    one via a per-flow version number (classic lazy deletion), giving
    O(log n) amortized updates — the paper's Section 3.3 structure.

    To mirror the paper's "periodically reset the floating ground to
    prevent counter overflow", the store rebases automatically once the
    ground passes :data:`REBASE_THRESHOLD` (irrelevant for Python's big
    ints, but kept so the structure matches a fixed-width implementation
    and the rebase path stays tested).
    """

    #: Ground level that triggers an automatic rebase (2**40 ~ 1 TB of
    #: decrements, comfortably within a 64-bit counter budget).
    REBASE_THRESHOLD = 1 << 40

    def __init__(self, capacity: int):
        super().__init__(capacity)
        self._ground = 0
        #: fid -> (absolute value, version)
        self._entries: Dict[FlowId, Tuple[int, int]] = {}
        #: heap of (absolute value, version, fid); stale entries are pruned
        #: lazily when they surface at the top.  Versions are unique among
        #: heap entries (the counter only grows between rebuilds), so an
        #: entry is live exactly when its version is its flow's current one.
        self._heap: List[Tuple[int, int, FlowId]] = []
        self._version = 0

    def __contains__(self, fid: FlowId) -> bool:
        return fid in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def is_empty(self) -> bool:
        return not self._entries

    @property
    def is_full(self) -> bool:
        return len(self._entries) == self.capacity

    def get(self, fid: FlowId) -> int:
        absolute, _ = self._entries[fid]
        return absolute - self._ground

    def min_value(self) -> int:
        top = self._peek()
        if top is None:
            raise CounterStoreError("min of an empty store")
        return top[0] - self._ground

    def items(self) -> Iterator[Tuple[FlowId, int]]:
        ground = self._ground
        return iter(
            [(fid, a - ground) for fid, (a, _) in self._entries.items()]
        )

    def increment(self, fid: FlowId, amount: int) -> int:
        entries = self._entries
        if amount < 0 or fid not in entries:
            self._check_increment(fid, amount)
        absolute = entries[fid][0] + amount
        self._version = version = self._version + 1
        entries[fid] = (absolute, version)
        heappush(self._heap, (absolute, version, fid))
        return absolute - self._ground

    def insert(self, fid: FlowId, value: int) -> None:
        entries = self._entries
        if value <= 0 or fid in entries or len(entries) >= self.capacity:
            self._check_insert(fid, value)
        absolute = self._ground + value
        self._version = version = self._version + 1
        entries[fid] = (absolute, version)
        heappush(self._heap, (absolute, version, fid))

    def decrement_all(self, amount: int) -> None:
        if amount <= 0:
            self._check_decrement(amount)
            return
        top = self._peek()
        if top is None or amount > top[0] - self._ground:
            self._check_decrement(amount)
        self._sweep(self._ground + amount)

    def admit(self, size: int) -> int:
        """Fused :meth:`CounterStore.admit`: one heap peek, then either a
        bare ground bump (``size`` below the minimum, nothing evicted) or
        a bump to the minimum's absolute value plus the eviction sweep."""
        if size < 0:
            raise CounterStoreError(f"negative admit size {size}")
        entries = self._entries
        if len(entries) < self.capacity:
            return size
        heap = self._heap
        while True:
            absolute, version, fid = heap[0]
            current = entries.get(fid)
            if current is not None and current[1] == version:
                break
            heappop(heap)
        leftover = size - (absolute - self._ground)
        if leftover < 0:
            # Below the minimum: a bare decrement-all by ``size``.
            if size:
                self._ground += size
                if self._ground >= self.REBASE_THRESHOLD:
                    self.rebase()
            return 0
        # Decrement-all by the minimum: the ground reaches the top's
        # absolute value, evicting every flow at that value.
        self._sweep(absolute)
        return leftover

    def reset(self) -> None:
        self._ground = 0
        self._entries.clear()
        self._heap.clear()

    def _kernel_locals(
        self,
    ) -> Tuple[Dict[FlowId, Tuple[int, int]], List[Tuple[int, int, FlowId]], int, int]:
        """What EARDet's column kernel holds in locals; it mutates the
        entries and heap in place and hands the two ints back."""
        return self._entries, self._heap, self._ground, self._version

    def _kernel_return(self, ground: int, version: int, evictions: int) -> None:
        """Take back the kernel's ground and version; add its evictions."""
        self._ground = ground
        self._version = version
        self.evictions += evictions

    def rebase(self) -> None:
        """Rewrite absolute values relative to a zero ground.

        Equivalent to the paper's periodic "reset the floating ground to
        zero and deduct all counters accordingly"; O(n log n), amortized
        away by the size of :data:`REBASE_THRESHOLD`.
        """
        ground = self._ground
        self._ground = 0
        self._heap = []
        rebased = {}
        for version, (fid, (absolute, _)) in enumerate(
            self._entries.items(), start=1
        ):
            value = absolute - ground
            rebased[fid] = (value, version)
            self._heap.append((value, version, fid))
        self._version = len(rebased)
        self._entries = rebased
        heapify(self._heap)

    def _sweep(self, ground: int) -> None:
        """Raise the floating ground to ``ground`` (a decrement-all by the
        difference) and evict every flow whose absolute value it reaches;
        stale heap entries met on the way are dropped."""
        self._ground = ground
        heap = self._heap
        entries = self._entries
        evicted = 0
        while heap and heap[0][0] <= ground:
            _, version, fid = heappop(heap)
            current = entries.get(fid)
            if current is not None and current[1] == version:
                del entries[fid]
                evicted += 1
        self.evictions += evicted
        if ground >= self.REBASE_THRESHOLD:
            self.rebase()

    def _peek(self) -> Optional[Tuple[int, int, FlowId]]:
        """Top of the heap after pruning stale entries, or None if empty."""
        heap = self._heap
        entries = self._entries
        while heap:
            top = heap[0]
            current = entries.get(top[2])
            if current is not None and current[1] == top[1]:
                return top
            heappop(heap)
        return None
