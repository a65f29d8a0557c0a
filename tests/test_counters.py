"""Counter stores: reference semantics, the optimized store, and their
differential equivalence under random operation sequences."""

import pytest
from hypothesis import given, strategies as st

from repro.core.counters import (
    CounterStoreError,
    HeapCounterStore,
    ReferenceCounterStore,
    VirtualUnit,
)

STORES = [ReferenceCounterStore, HeapCounterStore]


@pytest.mark.parametrize("store_cls", STORES)
class TestCounterStoreContract:
    def test_empty_initially(self, store_cls):
        store = store_cls(3)
        assert len(store) == 0
        assert store.is_empty
        assert not store.is_full
        assert store.free_slots == 3

    def test_insert_and_get(self, store_cls):
        store = store_cls(3)
        store.insert("a", 10)
        assert "a" in store
        assert store.get("a") == 10
        assert store.free_slots == 2

    def test_increment(self, store_cls):
        store = store_cls(3)
        store.insert("a", 10)
        assert store.increment("a", 5) == 15
        assert store.get("a") == 15

    def test_min_value(self, store_cls):
        store = store_cls(3)
        store.insert("a", 10)
        store.insert("b", 3)
        store.insert("c", 7)
        assert store.min_value() == 3

    def test_decrement_all_evicts_zeroed(self, store_cls):
        store = store_cls(3)
        store.insert("a", 10)
        store.insert("b", 3)
        store.decrement_all(3)
        assert "b" not in store
        assert store.get("a") == 7
        assert store.free_slots == 2

    def test_decrement_zero_is_noop(self, store_cls):
        store = store_cls(2)
        store.insert("a", 5)
        store.decrement_all(0)
        assert store.get("a") == 5

    def test_decrement_beyond_min_rejected(self, store_cls):
        store = store_cls(2)
        store.insert("a", 5)
        with pytest.raises(CounterStoreError):
            store.decrement_all(6)

    def test_insert_into_full_rejected(self, store_cls):
        store = store_cls(1)
        store.insert("a", 1)
        with pytest.raises(CounterStoreError):
            store.insert("b", 1)

    def test_insert_duplicate_rejected(self, store_cls):
        store = store_cls(2)
        store.insert("a", 1)
        with pytest.raises(CounterStoreError):
            store.insert("a", 2)

    def test_insert_nonpositive_rejected(self, store_cls):
        store = store_cls(2)
        with pytest.raises(CounterStoreError):
            store.insert("a", 0)

    def test_increment_unstored_rejected(self, store_cls):
        store = store_cls(2)
        with pytest.raises(CounterStoreError):
            store.increment("ghost", 1)

    def test_min_of_empty_rejected(self, store_cls):
        store = store_cls(2)
        with pytest.raises(CounterStoreError):
            store.min_value()

    def test_reset(self, store_cls):
        store = store_cls(2)
        store.insert("a", 5)
        store.reset()
        assert store.is_empty
        store.insert("a", 3)  # usable after reset
        assert store.get("a") == 3

    def test_as_dict(self, store_cls):
        store = store_cls(3)
        store.insert("a", 1)
        store.insert("b", 2)
        assert store.as_dict() == {"a": 1, "b": 2}

    def test_capacity_validation(self, store_cls):
        with pytest.raises(ValueError):
            store_cls(0)


def test_heap_store_rebase_preserves_values():
    store = HeapCounterStore(3)
    store.insert("a", 100)
    store.insert("b", 50)
    store.decrement_all(30)
    store.rebase()
    assert store.as_dict() == {"a": 70, "b": 20}
    assert store.min_value() == 20
    store.decrement_all(20)
    assert store.as_dict() == {"a": 50}


def test_heap_store_rebase_with_tied_values_of_mixed_fid_types():
    # Equal values must not fall back to comparing keys, which may be of
    # unorderable types (real str and int fids beside virtual units).
    store = HeapCounterStore(3)
    store.insert("a", 5)
    store.insert(VirtualUnit(), 5)
    store.insert(7, 5)
    store.rebase()
    assert store.min_value() == 5
    store.decrement_all(5)
    assert store.is_empty


def test_heap_store_auto_rebase_threshold():
    store = HeapCounterStore(2)
    # Start the floating ground just under the rebase threshold so the
    # next decrement crosses it and triggers the automatic rebase.
    store._ground = HeapCounterStore.REBASE_THRESHOLD - 1
    store.insert("a", 10)
    store.insert("b", 5)
    store.decrement_all(5)
    assert store._ground == 0  # rebase happened
    assert store.as_dict() == {"a": 5}


# ---------------------------------------------------------------- differential

_OPERATIONS = st.lists(
    st.tuples(
        st.sampled_from(["touch", "decrement_min", "decrement_partial"]),
        st.integers(min_value=0, max_value=7),  # flow id
        st.integers(min_value=1, max_value=1000),  # amount
    ),
    max_size=120,
)


@given(capacity=st.integers(min_value=1, max_value=8), operations=_OPERATIONS)
def test_stores_are_equivalent(capacity, operations):
    """Random MG-style operation sequences leave both stores identical."""
    reference = ReferenceCounterStore(capacity)
    optimized = HeapCounterStore(capacity)
    for op, fid, amount in operations:
        if op == "touch":
            # The Misra-Gries update: increment if stored, insert if free,
            # otherwise decrement by min(amount, min).
            if fid in reference:
                reference.increment(fid, amount)
                optimized.increment(fid, amount)
            elif not reference.is_full:
                reference.insert(fid, amount)
                optimized.insert(fid, amount)
            else:
                decrement = min(amount, reference.min_value())
                reference.decrement_all(decrement)
                optimized.decrement_all(decrement)
                leftover = amount - decrement
                if leftover > 0 and fid not in reference:
                    reference.insert(fid, leftover)
                    optimized.insert(fid, leftover)
        elif op == "decrement_min" and not reference.is_empty:
            decrement = reference.min_value()
            reference.decrement_all(decrement)
            optimized.decrement_all(decrement)
        elif op == "decrement_partial" and not reference.is_empty:
            decrement = min(amount, reference.min_value())
            reference.decrement_all(decrement)
            optimized.decrement_all(decrement)
        assert reference.as_dict() == optimized.as_dict()
        assert len(reference) == len(optimized)
        if not reference.is_empty:
            assert reference.min_value() == optimized.min_value()


# ------------------------------------------------------------------- admit


@pytest.mark.parametrize("store_cls", STORES)
def test_admit_negative_size_rejected(store_cls):
    store = store_cls(2)
    with pytest.raises(CounterStoreError):
        store.admit(-1)


@pytest.mark.parametrize("store_cls", STORES)
def test_admit_free_slot_returns_size_unchanged(store_cls):
    store = store_cls(3)
    store.insert("a", 4)
    assert store.admit(9) == 9
    assert store.as_dict() == {"a": 4}


@pytest.mark.parametrize("store_cls", STORES)
def test_admit_full_store_decrements_by_min(store_cls):
    store = store_cls(2)
    store.insert("a", 10)
    store.insert("b", 3)
    assert store.admit(2) == 0  # size < min: pure decrement
    assert store.as_dict() == {"a": 8, "b": 1}
    assert store.admit(4) == 3  # size > min: evicts b, 3 bytes left over
    assert store.as_dict() == {"a": 7}
    assert store.evictions == 1


_SIZE_MODES = st.sampled_from(["zero", "below", "equal", "above"])


@given(
    capacity=st.integers(min_value=1, max_value=6),
    values=st.lists(st.integers(min_value=1, max_value=500), max_size=6),
    bumps=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=50),
        ),
        max_size=8,
    ),
    modes=st.lists(_SIZE_MODES, min_size=1, max_size=4),
    offset=st.integers(min_value=0, max_value=600),
    near_rebase=st.booleans(),
)
def test_admit_matches_reference(
    capacity, values, bumps, modes, offset, near_rebase
):
    """The fused heap ``admit`` equals the reference store's composed
    one (from random states, including stale heap entries and a floating
    ground just under the rebase threshold)."""
    reference = ReferenceCounterStore(capacity)
    optimized = HeapCounterStore(capacity)
    if near_rebase:
        # Logical values do not depend on the ground; the next admit that
        # decrements by more than ``offset`` crosses the threshold.
        optimized._ground = HeapCounterStore.REBASE_THRESHOLD - 1 - offset
    for fid, value in enumerate(values[:capacity]):
        reference.insert(fid, value)
        optimized.insert(fid, value)
    for fid, amount in bumps:
        if fid in reference:
            # Each increment leaves a stale heap entry behind.
            reference.increment(fid, amount)
            optimized.increment(fid, amount)
    next_fid = capacity
    for mode in modes:
        minimum = reference.min_value() if not reference.is_empty else 1
        size = {
            "zero": 0,
            "below": offset % minimum,
            "equal": minimum,
            "above": minimum + 1 + offset,
        }[mode]
        leftover = reference.admit(size)
        assert optimized.admit(size) == leftover
        assert optimized.as_dict() == reference.as_dict()
        assert optimized.evictions == reference.evictions
        if not reference.is_empty:
            assert optimized.min_value() == reference.min_value()
        if leftover > 0:
            # A positive leftover always finds a free slot.
            reference.insert(next_fid, leftover)
            optimized.insert(next_fid, leftover)
            next_fid += 1
            assert optimized.as_dict() == reference.as_dict()
