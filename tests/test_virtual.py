"""Virtual-traffic machinery: carryover exactness and the fast-path /
reference equivalence (the trickiest code in the library)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.counters import HeapCounterStore, ReferenceCounterStore
from repro.core.virtual import (
    Carryover,
    apply_virtual_traffic,
    apply_virtual_traffic_reference,
    apply_virtual_unit,
    iter_units,
)
from repro.model.units import NS_PER_S


class TestCarryover:
    def test_whole_bytes_pass_through(self):
        carryover = Carryover()
        assert carryover.integerize(5 * NS_PER_S) == 5
        assert carryover.remainder_scaled == 0

    def test_fraction_accumulates(self):
        carryover = Carryover()
        # 0.4 bytes -> emits 0, carries 0.4; again -> emits 1 (0.8 rounds up).
        assert carryover.integerize(4 * NS_PER_S // 10) == 0
        assert carryover.integerize(4 * NS_PER_S // 10) == 1
        assert carryover.remainder_bytes == pytest.approx(-0.2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Carryover().integerize(-1)

    def test_reset(self):
        carryover = Carryover()
        carryover.integerize(NS_PER_S // 3)
        carryover.reset()
        assert carryover.remainder_scaled == 0

    @given(volumes=st.lists(st.integers(0, 10 * NS_PER_S), max_size=50))
    def test_invariants(self, volumes):
        """The paper's invariant: -0.5 <= co < 0.5, and the emitted total
        differs from the true total by less than one byte over any prefix."""
        carryover = Carryover()
        emitted_total = 0
        true_total = 0
        for volume in volumes:
            emitted_total += carryover.integerize(volume)
            true_total += volume
            assert -NS_PER_S // 2 <= carryover.remainder_scaled < NS_PER_S // 2
            assert abs(true_total - emitted_total * NS_PER_S) < NS_PER_S


class TestIterUnits:
    def test_exact_division(self):
        assert list(iter_units(30, 10)) == [10, 10, 10]

    def test_partial_tail(self):
        assert list(iter_units(25, 10)) == [10, 10, 5]

    def test_zero_volume(self):
        assert list(iter_units(0, 10)) == []

    def test_volume_below_unit(self):
        assert list(iter_units(3, 10)) == [3]

    def test_rejects_bad_unit(self):
        with pytest.raises(ValueError):
            list(iter_units(10, 0))


class TestApplyVirtualUnit:
    def test_fills_free_slot(self):
        store = ReferenceCounterStore(2)
        apply_virtual_unit(store, 5)
        assert sorted(store.as_dict().values()) == [5]

    def test_decrements_full_store(self):
        store = ReferenceCounterStore(1)
        store.insert("real", 10)
        apply_virtual_unit(store, 4)  # min is 10 > 4: pure decrement
        assert store.as_dict() == {"real": 6}

    def test_evicts_and_stores_leftover(self):
        store = ReferenceCounterStore(1)
        store.insert("real", 3)
        apply_virtual_unit(store, 10)  # d = 3 evicts, leftover 7 stored
        values = list(store.as_dict().values())
        assert values == [7]
        assert "real" not in store

    def test_zero_unit_noop(self):
        store = ReferenceCounterStore(1)
        apply_virtual_unit(store, 0)
        assert store.is_empty


def test_reference_matches_paper_footnote_example():
    """Figure 4's footnote: counters [3, 9] with one empty slot, 6 units of
    1-byte virtual traffic -> [0, 6] (flow with 9 drops to 6; others gone)."""
    store = ReferenceCounterStore(3)
    store.insert("a", 3)
    store.insert("b", 9)
    apply_virtual_traffic_reference(store, 6, unit_size=1)
    assert store.as_dict() == {"b": 6}


def test_fast_path_matches_paper_footnote_example():
    store = HeapCounterStore(3)
    store.insert("a", 3)
    store.insert("b", 9)
    apply_virtual_traffic(store, 6, unit_size=1)
    assert store.as_dict() == {"b": 6}


def test_fast_path_periodic_regime_from_empty():
    """From an empty store, volume reduces modulo (n+1)*unit."""
    for volume in (0, 1, 7, 8, 15, 16, 23, 24, 100):
        reference = ReferenceCounterStore(3)
        optimized = HeapCounterStore(3)
        apply_virtual_traffic_reference(reference, volume, unit_size=2)
        apply_virtual_traffic(optimized, volume, unit_size=2)
        assert sorted(reference.as_dict().values()) == sorted(
            optimized.as_dict().values()
        ), f"mismatch at volume={volume}"


def test_validation():
    store = ReferenceCounterStore(1)
    with pytest.raises(ValueError):
        apply_virtual_traffic(store, -1, 10)
    with pytest.raises(ValueError):
        apply_virtual_traffic(store, 10, 0)


_STATES = st.lists(st.integers(min_value=1, max_value=50), max_size=5)


@settings(max_examples=300)
@given(
    initial=_STATES,
    capacity_extra=st.integers(0, 2),
    volume=st.integers(0, 400),
    unit=st.integers(1, 20),
)
def test_fast_path_equals_reference(initial, capacity_extra, volume, unit):
    """Differential: arbitrary starting counters, arbitrary volume/unit —
    the fast path and the unit-by-unit reference end in the same state:
    equal snapshots (real flows and virtual values alike)."""
    capacity = max(1, len(initial) + capacity_extra)
    reference = ReferenceCounterStore(capacity)
    optimized = HeapCounterStore(capacity)
    for index, value in enumerate(initial):
        reference.insert(("real", index), value)
        optimized.insert(("real", index), value)
    apply_virtual_traffic_reference(reference, volume, unit)
    apply_virtual_traffic(optimized, volume, unit)
    assert optimized.snapshot() == reference.snapshot()
