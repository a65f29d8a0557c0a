"""Micro-benchmarks of EARDet's core data structures.

Quantifies the Section 3.3 optimizations in isolation: the floating-ground
heap store vs the O(n) reference store, and the virtual-traffic fast path
vs the unit-by-unit reference loop.
"""

import random

import pytest

from repro.core.counters import HeapCounterStore, ReferenceCounterStore
from repro.core.virtual import (
    apply_virtual_traffic,
    apply_virtual_traffic_reference,
)

N = 107
BETA_TH = 6991


def _mg_workload(store, operations):
    """Algorithm 1's counter update, through the same ``admit`` step
    ``EARDet._update`` runs (fused in the heap store)."""
    for fid, size in operations:
        if fid in store:
            store.increment(fid, size)
            continue
        leftover = store.admit(size)
        if leftover > 0:
            store.insert(fid, leftover)


@pytest.fixture(scope="module")
def operations():
    rng = random.Random(0)
    return [
        (rng.randrange(500), rng.randint(40, 1518)) for _ in range(20_000)
    ]


@pytest.mark.parametrize("store_cls", [HeapCounterStore, ReferenceCounterStore])
def test_counter_store_mg_updates(benchmark, operations, store_cls):
    def run():
        store = store_cls(N)
        _mg_workload(store, operations)
        return store

    benchmark(run)
    benchmark.extra_info["operations"] = len(operations)


@pytest.mark.parametrize(
    "label,apply",
    [
        ("fast-path", apply_virtual_traffic),
        ("reference", apply_virtual_traffic_reference),
    ],
)
def test_virtual_traffic_long_idle(benchmark, label, apply):
    """One long idle period (100 MB of virtual traffic) into busy
    counters — the case the Section 3.3 shortcuts exist for.  The fast
    path's cost is O(n); the reference loop's is O(volume / unit)."""
    def run():
        store = HeapCounterStore(N)
        for index in range(N):
            store.insert(("real", index), 1_000 + index)
        apply(store, 100_000_000, BETA_TH)
        return store

    benchmark(run)


def test_virtual_traffic_short_gaps_fast_path(benchmark):
    """Many small inter-packet gaps — the common case on a busy link."""
    def run():
        store = HeapCounterStore(N)
        for index in range(N // 2):
            store.insert(("real", index), 3_000)
        for _ in range(1_000):
            apply_virtual_traffic(store, 1_500, BETA_TH)
        return store

    benchmark(run)


@pytest.mark.parametrize(
    "label,apply",
    [
        ("fast-path", apply_virtual_traffic),
        ("reference", apply_virtual_traffic_reference),
    ],
)
def test_virtual_traffic_long_idle_from_empty(benchmark, label, apply):
    """A long idle period starting from drained counters — the periodic
    regime where the fast path reduces the volume modulo (n+1)*unit in
    O(1) while the reference loop walks every unit."""
    def run():
        store = HeapCounterStore(N)
        apply(store, 100_000_000, BETA_TH)
        return store

    benchmark(run)
