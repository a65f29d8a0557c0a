"""Per-layer cost ledger, measured from outside the program.

:class:`Ledger` wraps public entry points of each layer (class methods
and module-level functions, patched for the duration of one traced run)
and keeps one span stack per thread, so it can compute each layer's
*self* time: a span's duration minus the part covered by its child
spans.  Nothing under ``src/`` changes; the wrappers are removed by
:meth:`Ledger.uninstall`.

Each wrapper costs time of its own.  :meth:`Ledger.calibrate` measures
that cost on a no-op and the ledger subtracts it: the part a wrapper
spends inside its own measured interval (``in_ns``, charged to the span)
and the part it spends outside it (``out_ns``, charged to the caller's
span).  Call-count-only wrappers (``COUNT``) charge their cost to the
caller the same way.  Garbage-collector pauses, seen through
``gc.callbacks``, are carved out of whichever span they interrupt and
booked to the ``gc`` layer.

Batch-level spans (mode ``RECORD``/``ITER_RECORD``) are also kept as
``(name, start_ns, end_ns, parent)`` records for ``trace.json``;
per-packet spans are only aggregated.
"""

from __future__ import annotations

import gc
import statistics
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

clock = time.perf_counter_ns

#: Wrapper modes.
TIMED = "timed"  # aggregated span
RECORD = "record"  # aggregated span, also kept as a trace.json record
ITER = "iter"  # the call returns an iterator; each next() is a span
ITER_RECORD = "iter-record"
COUNT = "count"  # call count only, no span
INSTANCES = "instances"  # remember each constructed instance (``__init__``)

#: Accumulator slots per wrapped entry point: calls, self ns, amount.
_SLOTS = 3
_MAX_KEYS = 128
_GC = _MAX_KEYS - 1  # reserved key index for garbage-collector pauses
_INHERITED = object()


class _ThreadTotals:
    """One thread's accumulators, readable from any thread."""

    __slots__ = ("main", "acc", "records", "open")

    def __init__(self) -> None:
        self.main = threading.current_thread() is threading.main_thread()
        self.acc = [0] * (_MAX_KEYS * _SLOTS)
        self.records: List[Optional[tuple]] = []
        self.open: List[int] = []  # record index per open recorded span


class _ThreadState(threading.local):
    """Per-thread span stack plus aliases of that thread's
    :class:`_ThreadTotals` (registered on first use, so
    :meth:`Ledger.summary` can fold every thread's totals — the local
    itself shows each reader only its own thread's attributes)."""

    def __init__(self, registry: list):
        totals = _ThreadTotals()
        registry.append(totals)
        self.main = totals.main
        self.acc = totals.acc
        self.records = totals.records
        self.open = totals.open
        self.stack: List[int] = []  # child-time accumulator per open span
        self.gc_start = 0


class Target:
    """One entry point to wrap: ``owner.attribute`` booked to ``layer``.

    ``amount`` optionally maps ``(args, result)`` to a number summed per
    entry point (bytes written, bytes framed)."""

    __slots__ = ("owner", "attribute", "layer", "mode", "amount")

    def __init__(self, owner, attribute: str, layer: str, mode: str = TIMED,
                 amount: Optional[Callable] = None):
        self.owner = owner
        self.attribute = attribute
        self.layer = layer
        self.mode = mode
        self.amount = amount

    @property
    def name(self) -> str:
        owner = getattr(self.owner, "__name__", str(self.owner))
        return f"{owner}.{self.attribute}"


class Ledger:
    """Install wrappers, run the program, read per-layer self times."""

    def __init__(self) -> None:
        self._threads: List[_ThreadTotals] = []
        self._state = _ThreadState(self._threads)
        self._targets: List[Target] = []
        self._patched: List[Tuple[object, str, object]] = []
        self._instances: Dict[int, list] = {}
        #: Wrapper cost: inside the span, outside it (charged to the
        #: caller), and per counted call (charged to the caller).
        self.in_ns = 0.0
        self.out_ns = 0.0
        self.count_ns = 0.0

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, index: int, name: Optional[str], amount=None,
               out_ns: float = 0.0):
        state = self._state
        base = index * _SLOTS

        if name is None and amount is None:
            def wrapper(*args, **kwargs):
                stack = state.stack
                stack.append(0)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    duration = clock() - start
                    child = stack.pop()
                    acc = state.acc
                    acc[base] += 1
                    acc[base + 1] += duration - child
                    if stack:
                        stack[-1] += duration + out_ns
            return wrapper

        def recorded(*args, **kwargs):
            stack = state.stack
            records = state.records
            opened = state.open
            slot = -1
            if name is not None:
                slot = len(records)
                records.append(None)
                parent = opened[-1] if opened else -1
                opened.append(slot)
            stack.append(0)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                duration = end - start
                child = stack.pop()
                acc = state.acc
                acc[base] += 1
                acc[base + 1] += duration - child
                if amount is not None:
                    acc[base + 2] += amount(args, result)
                if slot >= 0:
                    opened.pop()
                    records[slot] = (name, start, end, parent)
                if stack:
                    stack[-1] += duration + out_ns
        return recorded

    def _iterated(self, fn, index: int, name: Optional[str],
                  out_ns: float = 0.0):
        state = self._state
        base = index * _SLOTS

        def spans(iterator):
            while True:
                stack = state.stack
                slot = -1
                if name is not None:
                    records = state.records
                    slot = len(records)
                    records.append(None)
                    parent = state.open[-1] if state.open else -1
                    state.open.append(slot)
                stack.append(0)
                start = clock()
                done = False
                try:
                    item = next(iterator)
                except StopIteration:
                    done = True
                finally:
                    end = clock()
                    duration = end - start
                    child = stack.pop()
                    acc = state.acc
                    acc[base] += 1
                    acc[base + 1] += duration - child
                    if slot >= 0:
                        state.open.pop()
                        state.records[slot] = (name, start, end, parent)
                    if stack:
                        stack[-1] += duration + out_ns
                if done:
                    return
                yield item

        def wrapper(*args, **kwargs):
            return spans(iter(fn(*args, **kwargs)))
        return wrapper

    def _counted(self, fn, index: int, amount=None, count_ns: float = 0.0):
        state = self._state
        base = index * _SLOTS

        def wrapper(*args, **kwargs):
            acc = state.acc
            acc[base] += 1
            stack = state.stack
            if stack:
                stack[-1] += count_ns
            if amount is None:
                return fn(*args, **kwargs)
            result = fn(*args, **kwargs)
            acc[base + 2] += amount(args, result)
            return result
        return wrapper

    def _remembering(self, fn, index: int):
        instances = self._instances.setdefault(index, [])

        def wrapper(self_, *args, **kwargs):
            fn(self_, *args, **kwargs)
            instances.append(self_)
        return wrapper

    def _on_gc(self, phase: str, info: dict) -> None:
        state = self._state
        if phase == "start":
            state.gc_start = clock()
            return
        pause = clock() - state.gc_start
        acc = state.acc
        acc[_GC * _SLOTS] += 1
        acc[_GC * _SLOTS + 1] += pause
        if state.stack:
            state.stack[-1] += pause

    # -- calibration -------------------------------------------------------

    def calibrate(self, calls: int = 20_000, rounds: int = 7) -> None:
        """Measure the wrapper cost on a no-op, inside an open span.

        ``in_ns`` = the wrapped no-op's recorded duration minus the cost
        of calling the bare no-op; ``out_ns`` = the rest of the extra
        time a wrapped call takes; ``count_ns`` = the extra time of a
        count-only wrapper."""
        def noop(value):
            return value

        index = _GC - 1
        base = index * _SLOTS
        timed = self._timed(noop, index, None)
        counted = self._counted(noop, index)
        state = self._state
        ins, outs, counts = [], [], []
        for _ in range(rounds):
            loop = range(calls)
            started = clock()
            for value in loop:
                pass
            empty = clock() - started
            started = clock()
            for value in loop:
                noop(value)
            bare = clock() - started
            state.acc[base + 1] = 0
            state.stack.append(0)
            started = clock()
            for value in loop:
                timed(value)
            wrapped = clock() - started
            state.stack.pop()
            recorded = state.acc[base + 1]
            started = clock()
            for value in loop:
                counted(value)
            count = clock() - started
            call_ns = (bare - empty) / calls
            extra_ns = (wrapped - bare) / calls
            in_ns = recorded / calls - call_ns
            ins.append(in_ns)
            outs.append(extra_ns - in_ns)
            counts.append((count - bare) / calls)
        state.acc[base:base + _SLOTS] = [0] * _SLOTS
        self.in_ns = max(0.0, statistics.median(ins))
        self.out_ns = max(0.0, statistics.median(outs))
        self.count_ns = max(0.0, statistics.median(counts))

    # -- install / uninstall ----------------------------------------------

    def install(self, targets: Sequence[Target]) -> None:
        """Calibrate, then patch every target."""
        if self._patched:
            raise RuntimeError("ledger already installed")
        if len(targets) >= _GC - 1:
            raise ValueError(f"at most {_GC - 2} targets")
        self.calibrate()
        self._targets = list(targets)
        for index, target in enumerate(self._targets):
            # An inherited method is absent from the owner's own dict; it
            # is shadowed while installed and the shadow deleted after.
            original = target.owner.__dict__.get(target.attribute, _INHERITED)
            fn = getattr(target.owner, target.attribute)
            mode = target.mode
            if mode in (TIMED, RECORD):
                name = target.name if mode == RECORD else None
                wrapper = self._timed(
                    fn, index, name, target.amount, out_ns=self.out_ns
                )
            elif mode in (ITER, ITER_RECORD):
                name = target.name if mode == ITER_RECORD else None
                wrapper = self._iterated(fn, index, name, out_ns=self.out_ns)
            elif mode == COUNT:
                wrapper = self._counted(
                    fn, index, target.amount, count_ns=self.count_ns
                )
            elif mode == INSTANCES:
                wrapper = self._remembering(fn, index)
            else:
                raise ValueError(f"unknown wrapper mode {mode!r}")
            setattr(target.owner, target.attribute, wrapper)
            self._patched.append((target.owner, target.attribute, original))
        gc.callbacks.append(self._on_gc)

    def uninstall(self) -> None:
        """Restore every patched attribute (idempotent)."""
        while self._patched:
            owner, attribute, original = self._patched.pop()
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        if self._on_gc in gc.callbacks:
            gc.callbacks.remove(self._on_gc)

    def reset(self) -> None:
        """Zero every thread's accumulators and records (call between
        building the service and serving, so construction is not
        booked)."""
        for thread in self._threads:
            thread.acc[:] = [0] * len(thread.acc)
            thread.records.clear()
            thread.open.clear()

    # -- results -----------------------------------------------------------

    def instances(self, owner, attribute: str = "__init__") -> list:
        """Instances constructed while installed (``INSTANCES`` targets)."""
        for index, target in enumerate(self._targets):
            if target.owner is owner and target.attribute == attribute:
                return list(self._instances.get(index, []))
        raise KeyError(f"{owner!r}.{attribute} is not an INSTANCES target")

    def summary(self) -> Dict[str, object]:
        """Per-entry-point and per-layer totals, wrapper cost subtracted.

        ``layers[layer]`` holds ``main_ns`` / ``other_ns`` (self time on
        the serving thread and on any other thread, e.g. shard-server
        threads); ``entries[name]`` holds ``calls``, ``self_ns`` and
        ``amount``; ``wrapper_ns_main`` is the total wrapper cost removed
        from the serving thread's spans."""
        entries: Dict[str, Dict[str, float]] = {}
        layers: Dict[str, Dict[str, float]] = {}
        wrapper_ns_main = 0.0
        for thread in self._threads:
            acc = thread.acc
            side = "main_ns" if thread.main else "other_ns"
            for index, target in enumerate(self._targets):
                base = index * _SLOTS
                calls = acc[base]
                if not calls and not acc[base + 2]:
                    continue
                entry = entries.setdefault(
                    target.name,
                    {"layer": target.layer, "calls": 0, "self_ns": 0.0,
                     "amount": 0},
                )
                entry["calls"] += calls
                entry["amount"] += acc[base + 2]
                if target.mode in (COUNT, INSTANCES):
                    if thread.main:
                        wrapper_ns_main += calls * self.count_ns
                    continue
                self_ns = max(0.0, acc[base + 1] - calls * self.in_ns)
                entry["self_ns"] += self_ns
                layer = layers.setdefault(
                    target.layer, {"main_ns": 0.0, "other_ns": 0.0}
                )
                layer[side] += self_ns
                if thread.main:
                    wrapper_ns_main += calls * (self.in_ns + self.out_ns)
            gc_base = _GC * _SLOTS
            if acc[gc_base]:
                entry = entries.setdefault(
                    "gc", {"layer": "gc", "calls": 0, "self_ns": 0.0,
                           "amount": 0},
                )
                entry["calls"] += acc[gc_base]
                entry["self_ns"] += acc[gc_base + 1]
                layer = layers.setdefault(
                    "gc", {"main_ns": 0.0, "other_ns": 0.0}
                )
                layer[side] += acc[gc_base + 1]
        return {
            "entries": entries,
            "layers": layers,
            "wrapper_ns_main": wrapper_ns_main,
            "calibration": {
                "in_ns": self.in_ns,
                "out_ns": self.out_ns,
                "count_ns": self.count_ns,
            },
        }

    def records(self) -> List[Dict[str, object]]:
        """Batch-level spans per thread, for ``trace.json``."""
        threads = []
        for number, thread in enumerate(self._threads):
            spans = [
                {"id": slot, "name": r[0], "start_ns": r[1], "end_ns": r[2],
                 "parent": r[3]}
                for slot, r in enumerate(thread.records)
                if r is not None
            ]
            if spans:
                threads.append({
                    "thread": "main" if thread.main else f"worker-{number}",
                    "spans": spans,
                })
        return threads
