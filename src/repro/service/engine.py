"""Sharded detection engines: the shared routing side, the slot host, and
the in-process transport.

Every engine consistently hashes each flow onto one of ``slots`` EARDet
workers — the same construction (and therefore the same guarantee
argument) as :class:`~repro.core.parallel.ParallelEARDet`: each slot sees
a sub-stream of the link whose volume over any window is still bounded by
``rho * t``, and all of a flow's packets land on the same slot, so the
per-slot no-FNl / no-FPs guarantees carry over verbatim to the ensemble.

Slots vs shards
---------------

Detection state lives per **slot** (``fid → slot`` through the seeded
stage hash); runtime resources — staging bounds, overload ladders, loss
accounting — live per **shard**; a versioned
:class:`~repro.service.reshard.ShardLayout` maps slots onto shards.  By
default ``slots == shards`` with the identity mapping, which is exactly
the pre-reshard engine.  The split is what makes *exact live
resharding* possible: EARDet's counter store couples all of a shard's
flows (min-eviction), so per-flow state cannot be divided — but a whole
slot's detector can move between shards through the snapshot/restore
path, and because each slot always sees its full hash sub-stream in
arrival order, detections are bit-identical under any layout history.

One staging path, three transports
----------------------------------

The ensemble argument does not depend on how a packet reaches its slot,
so the engines split along one line:

- :class:`ShardedEngine` is the **routing side** every transport
  shares: constructor validation, the memoized flow→slot router, the
  layout and its assignment, per-shard loss accounting (the exactness
  envelope), the watcher tap and overload ladders, health, detections,
  the one snapshot schema and skeleton, restore validation, the
  grouping, commit and rollback steps of live migration, and the one
  staging loop.  It routes each packet once onto its slot's ``(times,
  sizes, fids)`` columns (beside its shard-local arrival index, which
  stays here) — an armed overload ladder is a per-shard admission
  branch of that loop — and ships a shard's slot groups at the
  transport's bound.  It runs snapshot, extract, install, reconfigure
  and stop once, through one transport hook that sends a slot command
  to a set of shards, so which shards a command reaches and how a
  refusal is reported are decided here.
- :class:`SlotHost` is the **slot side**: one shard's ``{slot: EARDet}``,
  observe (one :meth:`EARDet.observe_batch` per slot group; a host
  never routes), and :meth:`SlotHost.command`, the one dispatch for the
  slot commands that every transport's shard shell calls.
- A transport carries slot groups and commands from one to the other:
  :class:`InProcessEngine` (a direct call into one all-slots host),
  :class:`~repro.service.workers.MultiprocessEngine` (one worker process
  per shard, chunks and in-band command markers on its queue) and
  :class:`~repro.service.remote.RemoteEngine` (one TCP
  :class:`~repro.service.net.ShardServer` per shard, exactly-once frames
  of packed slot groups and control frames).

What :class:`InProcessEngine` adds over ``ParallelEARDet`` is the
*runtime* layer:

- **bounded staging** — ``queue_capacity`` bounds each shard's staged
  packets; memory is capped at ``shards * queue_capacity`` packets
  regardless of how oversubscribed the source is;
- **explicit backpressure** — the default ``overflow="block"`` policy
  applies a full shard's staged packets before accepting more (the
  pull-based source simply isn't pulled from in the meantime);
  ``overflow="drop"`` instead sheds load with exact per-shard drop
  accounting (a lossy mode for monitor-only deployments — dropped
  packets void the exactness guarantee and are reported, never silent);
- **exact snapshots at packet boundaries** — :meth:`~ShardedEngine.
  snapshot` applies everything staged first, so the captured state
  corresponds to exactly the packets ingested so far (see
  :mod:`repro.service.checkpoint`);
- **live migration primitives** — :meth:`~ShardedEngine.
  prepare_migration`, :meth:`~ShardedEngine.extract_slots`,
  :meth:`~ShardedEngine.install_slots`, :meth:`~ShardedEngine.
  commit_layout` and :meth:`~ShardedEngine.abort_migration`, driven by
  :func:`repro.service.reshard.execute_migration`;
- **per-shard health** for live reporting.

It runs everything on the calling thread, which makes it fully
deterministic — the reference the other two transports are tested
against: all three share the routing side and the snapshot schema, and
the differential chaos gates assert their detections are bit-identical
wherever the exactness envelope says EXACT.
"""

from __future__ import annotations

import sys
import time as _time
from typing import (
    Callable, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..core.blacklist import ReportSink
from ..core.config import EARDetConfig, config_as_dict
from ..core.counters import CounterStore, HeapCounterStore
from ..core.eardet import EARDet, ReconfigurationError, reconfigure_state
from ..detectors.hashing import StageHash
from ..model.packet import FlowId, Packet
from .errors import ShardCrashError, WorkerError
from .health import DeadLetterSink, ExactnessEnvelope, ShardHealth
from .overload import DegradationLevel, OverloadPolicy, ShardOverload
from .reshard import MigrationPlan, ShardLayout

#: Default bound on each shard's staged packets (in-process engine).
DEFAULT_QUEUE_CAPACITY = 4096

#: Queue-overflow policies.
OVERFLOW_POLICIES = ("block", "drop")

#: Engine snapshot schema version (shared by every transport).
#: Stays at 1 across the slot refactor: the ``shards`` list is now
#: slot-indexed and ``slots``/``layout`` ride as optional keys, which a
#: default deployment (slots == shards, identity layout) writes
#: bit-compatibly with the pre-reshard schema.
ENGINE_SNAPSHOT_FORMAT = 1

#: Per-shard accounting kept on the routing side, as ``(snapshot key,
#: value for a fresh shard)``; each lives in ``self._<key>``.  Snapshots
#: written before a key existed restore it as fresh.
_SHARD_ACCOUNTING = (
    ("dropped", 0),
    ("first_loss", None),
    ("loss_reason", ""),
    ("queue_high_water", 0),
    ("last_packet_ts", None),
    # Arrival indices: packets ever routed to the shard, processed or
    # not.  Stored explicitly because under an AGGREGATED ladder rung
    # shard packet counts no longer equal routed - dropped.
    ("routed", 0),
)

SlotState = Dict[str, object]

#: One slot's staged packets: the ``(times, sizes, fids)`` columns its
#: detector observes, plus each packet's shard-local arrival index (the
#: position a dead letter names; it never leaves the routing side).
Staged = Tuple[List[int], List[int], List[FlowId], List[int]]

#: One slot's share of a shipped chunk: ``(slot, times, sizes, fids)``.
SlotGroup = Tuple[int, Sequence[int], Sequence[int], Sequence[FlowId]]


class FlowRouter:
    """Memoized flow-to-slot routing.

    A splitmix64 round in pure Python costs ~1.6us; a dict hit ~50ns.
    Real traffic repeats flow IDs heavily, so every transport routes
    through this cache — on the multiprocess engine the routing loop is
    the producer's main per-packet cost, and this is what lets shard
    workers outrun the single routing thread.  The cache is cleared when
    it reaches ``limit`` distinct flows to keep memory bounded under
    adversarial flow churn (routing stays correct either way: the hash is
    pure).  The cached value is the *slot*, which never changes for a
    flow — resharding swaps the slot→shard assignment, not this map.
    """

    __slots__ = ("_hash", "_cache", "_limit")

    def __init__(self, stage_hash: StageHash, limit: int = 1 << 20):
        self._hash = stage_hash
        self._cache: Dict[FlowId, int] = {}
        self._limit = limit

    def __call__(self, fid: FlowId) -> int:
        index = self._cache.get(fid)
        if index is None:
            if len(self._cache) >= self._limit:
                self._cache.clear()
            index = self._cache[fid] = self._hash(fid)
        return index


class SlotHost:
    """One shard's slot detectors, ``{slot: EARDet}``, and the slot
    commands every transport runs against them.

    The in-process engine hosts all its slots in one host; each
    multiprocess worker and each TCP shard server hosts its shard's
    slots in one.  Transports only map the commands onto their wire and
    their failures onto their own exit codes or replies.

    ``states`` maps slot → restored state for the initial slots.
    ``invariant_every`` arms an
    :class:`~repro.guard.invariants.InvariantChecker` on every detector
    the host builds.
    """

    def __init__(
        self,
        config: EARDetConfig,
        slot_ids: Iterable[int],
        states: Optional[Dict[int, SlotState]] = None,
        store_factory: Callable[[int], CounterStore] = HeapCounterStore,
        invariant_every: Optional[int] = None,
    ):
        self.config = config
        self._store_factory = store_factory
        self._invariant_every = invariant_every
        states = states or {}
        self.detectors: Dict[int, EARDet] = {
            int(slot): self._build(config, states.get(slot))
            for slot in slot_ids
        }

    def _build(
        self, config: EARDetConfig, state: Optional[SlotState] = None
    ) -> EARDet:
        detector = EARDet(config, store_factory=self._store_factory)
        if self._invariant_every is not None:
            from ..guard import InvariantChecker

            detector.attach_checker(
                InvariantChecker(int(self._invariant_every))
            )
        if state is not None:
            detector.restore(state)
        return detector

    def packets(self) -> int:
        """Packets the hosted detectors have processed."""
        return sum(d.stats.packets for d in self.detectors.values())

    def observe(self, groups: Iterable[SlotGroup]) -> None:
        """Apply routed slot groups ``(slot, times, sizes, fids)``, one
        :meth:`EARDet.observe_batch` per group.  Each group holds its
        slot's packets in arrival order, and slots are independent."""
        detectors = self.detectors
        for slot, times, sizes, fids in groups:
            detectors[slot].observe_batch(times, sizes, fids)

    def snapshot(self) -> Dict[int, SlotState]:
        """Every hosted slot's exact state."""
        return {
            slot: detector.snapshot()
            for slot, detector in self.detectors.items()
        }

    def extract(self, slot_ids: Iterable[int]) -> Dict[int, SlotState]:
        """Snapshot-and-detach the named slots (a detached slot observes
        nothing until installed somewhere).  Slots this host does not
        hold are skipped: a rollback probes migration targets that may
        hold only some of them, or none."""
        taken = {}
        for slot in slot_ids:
            detector = self.detectors.pop(int(slot), None)
            if detector is not None:
                taken[int(slot)] = detector.snapshot()
        return taken

    def install(self, states: Dict[int, SlotState]) -> None:
        """Host each slot from its (decode-verified) state, replacing any
        copy already hosted."""
        for slot, state in states.items():
            self.detectors[int(slot)] = self._build(self.config, state)

    def reconfigure(self, config: EARDetConfig) -> None:
        """Rebuild every hosted slot under ``config`` from its adapted
        snapshot (:func:`repro.core.eardet.reconfigure_state`).

        Build-all-then-swap: nothing is replaced until every slot has
        adapted, so a typed failure (e.g. live occupancy above the new
        ``n``) propagates and leaves the host exactly as it was."""
        rebuilt = {
            slot: self._build(
                config, reconfigure_state(detector.snapshot(), config)
            )
            for slot, detector in self.detectors.items()
        }
        self.detectors = rebuilt
        self.config = config

    def command(self, op: str, arg=None):
        """Run one slot command and return its reply — the one dispatch
        every transport's shard shell calls, in stream order, so the
        command sees exactly the slot groups shipped before it.  ``arg``
        and the reply are plain data (they cross process and host
        boundaries):

        - ``snapshot`` and ``stop``: every hosted slot's state (the shell
          exits after ``stop``; ``arg`` says whether it drains);
        - ``extract`` (slot ids): the states :meth:`extract` took;
        - ``install`` (``{slot: state}``): ``None``;
        - ``reconfig`` (the config as :func:`~repro.core.config.
          config_as_dict`): ``None``, or the refusal's message when the
          host keeps its old detectors (:meth:`reconfigure`).

        Any other failure raises; each shell maps it onto its own exit
        code or error reply."""
        if op in ("snapshot", "stop"):
            return self.snapshot()
        if op == "extract":
            return self.extract(arg)
        if op == "install":
            self.install(arg)
        elif op == "reconfig":
            try:
                self.reconfigure(EARDetConfig(**arg))
            except ReconfigurationError as refusal:
                return str(refusal)
        else:
            raise ValueError(f"unknown slot command {op!r}")
        return None


class ShardedEngine:
    """The routing side of a sharded EARDet, shared by every transport.

    Subclasses supply the transport — :meth:`_ship` for slot groups,
    :meth:`_command` for slot commands, :meth:`_release`,
    :meth:`terminate`, :meth:`queue_depths` and the lifecycle hooks
    below; everything that decides what a routed, lost or migrated
    packet means for exactness, and which shards a command reaches,
    lives here once.

    ``backlog_capacity`` is the bound :meth:`queue_depths` is reported
    against in :meth:`health` (packets, chunks or frames, depending on
    the transport); ``ship_at`` is how many staged packets make a shard
    ship.
    """

    def __init__(
        self,
        config: EARDetConfig,
        shards: int,
        seed: int,
        slots: Optional[int],
        fault_plan,
        dead_letter: Optional[DeadLetterSink],
        invariant_every: Optional[int],
        overload: Optional[OverloadPolicy],
        watcher,
        backlog_capacity: int,
        ship_at: int,
    ):
        if shards < 1:
            raise ValueError(f"need at least 1 shard, got {shards}")
        if slots is None:
            slots = shards
        if slots < shards:
            raise ValueError(
                f"need at least as many slots as shards, got {slots} slots "
                f"for {shards} shards"
            )
        if watcher is not None and watcher.shard_count != slots:
            raise ValueError(
                f"watcher stage has {watcher.shard_count} watchers, engine "
                f"has {slots} slots (the stage is slot-granular)"
            )
        self.config = config
        self.invariant_every = invariant_every
        self.overload_policy = overload
        # The watcher stage lives on the routing path (slot-granular): it
        # needs no shard protocol, checkpoints synchronously with the loss
        # accounting, keeps observing while a shard is full or being
        # restarted, and never physically moves during a migration.
        self.watcher = watcher
        #: The watcher tap: each slot's ``(times, sizes, fids)`` routed
        #: in the current batch (None with no watcher armed).
        self._tap = (
            None if watcher is None else [([], [], []) for _ in range(slots)]
        )
        self._plan = fault_plan
        self._dead_letter = dead_letter
        self._backlog_capacity = backlog_capacity
        self._ship_at = ship_at
        #: Whether a shard at ``ship_at`` sheds instead of shipping.
        self._sheds_when_full = False
        self._hash = StageHash(seed=seed, buckets=slots)
        self._route = FlowRouter(self._hash)
        #: Shards with provisioned runtime resources (never below the
        #: layout's shard count; a merged-away shard stays as a spare).
        self._shards = shards
        self._set_layout(ShardLayout.default(slots, shards))
        self._accepted = 0
        for key, fresh in _SHARD_ACCOUNTING:
            setattr(self, "_" + key, [fresh] * shards)
        # Each slot's staged packets, and how many each shard holds.
        self._staging: List[Staged] = [
            ([], [], [], []) for _ in range(slots)
        ]
        self._staged = [0] * shards
        # Restored slot states for hosts that start lazily; the final
        # snapshot of a closed out-of-process fleet.
        self._slot_states: Optional[List[Optional[SlotState]]] = None
        self._final_snapshot: Optional[Dict[str, object]] = None
        # Ladder state lives on the routing side: admission happens
        # where packets are routed, and rung buffers hold ``(time, size,
        # fid)`` items that :meth:`_stage` routes onto their slot.
        self._overload: Optional[List[ShardOverload]] = None
        if overload is not None:
            self._overload = [ShardOverload(overload) for _ in range(shards)]

    def _set_layout(self, layout: ShardLayout) -> None:
        self._layout = layout
        self._assignment: List[int] = list(layout.assignment)
        #: The slots each provisioned shard hosts (what it ships).
        self._shard_slots = [layout.slots_of(s) for s in range(self._shards)]

    # -- the staging loop --------------------------------------------------

    def ingest(self, batch: List[Packet]) -> None:
        """Route a batch onto slot columns, each packet once, and ship a
        shard through :meth:`_ship` when it holds ``ship_at`` staged
        packets (an in-process ``overflow="drop"`` engine sheds instead).

        An armed overload ladder is a per-shard admission branch: each
        shard's load is observed once per batch, a shard off the EXACT
        rung admits each packet through its ladder, and the deferred
        deadline clock advances at the end.  Memory stays bounded because
        load at or above the high watermark escalates one rung per batch,
        so a persistently full shard stops staging (SHEDDING) after at
        most three batches."""
        self._start()
        self.check_workers()
        states = self._overload
        # With a ladder armed: per shard, the EXACT rung's account, or
        # None where the ladder admits each packet.  The level is fixed
        # for the whole batch (only ``observe`` moves it), so the EXACT
        # rung is inlined: its packet costs one byte-count bump, and its
        # packet count and last time settle after the loop.
        exact = kept = None
        if states is not None:
            for index, state in enumerate(states):
                for item in state.observe(*self._ladder_load(index)):
                    self._stage(index, item)
            exact = [
                state.account
                if state.controller.level is DegradationLevel.EXACT else None
                for state in states
            ]
            kept = [
                routed - dropped
                for routed, dropped in zip(self._routed, self._dropped)
            ]
        staging = self._staging
        staged = self._staged
        route = self._route
        assignment = self._assignment
        routed = self._routed
        last_ts = self._last_packet_ts
        ship_at = self._ship_at
        sheds = self._sheds_when_full
        plan = self._plan
        tap = self._tap
        accepted = 0
        try:
            for packet in batch:
                fid = packet.fid
                now = packet.time
                size = packet.size
                slot = route(fid)
                index = assignment[slot]
                arrival = routed[index] = routed[index] + 1
                last_ts[index] = now
                if tap is not None:
                    # Stage-2 tap at the routing point: sees the wire
                    # stream before staging, overflow, faults or the
                    # ladder can lose it.  Slot-keyed, so the tap is
                    # invariant under resharding.
                    times, sizes, fids = tap[slot]
                    times.append(now)
                    sizes.append(size)
                    fids.append(fid)
                if plan is not None and self._fault(index, packet, slot):
                    continue
                if exact is not None:
                    account = exact[index]
                    if account is None:
                        emitted = states[index].admit(now, size, fid)
                        if emitted is None:
                            self._record_loss(
                                index, packet, "overload-shed", slot=slot
                            )
                            continue
                        for item in emitted:
                            self._stage(index, item)
                        continue
                    account.exact_bytes += size
                if staged[index] >= ship_at:
                    if sheds:
                        self._record_loss(
                            index, packet, "queue-overflow", slot=slot
                        )
                        continue
                    self._ship(index)
                times, sizes, fids, arrivals = staging[slot]
                times.append(now)
                sizes.append(size)
                fids.append(fid)
                arrivals.append(arrival)
                staged[index] += 1
                accepted += 1
            self._accepted += accepted
        finally:
            if tap is not None:
                self._feed_watcher()
        if states is not None:
            for index, state in enumerate(states):
                # Every packet an EXACT shard kept was staged, its last
                # one after any ship, so it is the latest slot-column tail.
                admitted = routed[index] - self._dropped[index] - kept[index]
                if exact[index] is not None and admitted:
                    exact[index].exact_packets += admitted
                    state._last_time = max(
                        staging[slot][0][-1]
                        for slot in self._shard_slots[index]
                        if staging[slot][0]
                    )
                for item in state.on_batch_end():
                    self._stage(index, item)
        for index, depth in enumerate(self.queue_depths()):
            self._note_depth(index, depth)

    def _feed_watcher(self) -> None:
        """Hand each slot's tapped columns to the watcher stage and empty
        the tap.  :meth:`ingest` runs this once per batch, also when the
        batch raises part-way (an injected kill, a dead worker), so the
        watchers have seen exactly the packets routed so far."""
        tap = self._tap
        assert tap is not None and self.watcher is not None
        observe = self.watcher.observe
        for slot, columns in enumerate(tap):
            if columns[0]:
                tap[slot] = ([], [], [])
                observe(slot, *columns)

    def _fault(self, index: int, packet: Packet, slot: int) -> bool:
        """The fault plan at the routing point: account an injected drop
        (returns True: the packet goes no further)."""
        if self._plan.should_drop(index, self._routed[index]):
            self._record_loss(index, packet, "injected-drop", slot=slot)
            return True
        return False

    def _stage(self, index: int, item: Tuple[int, int, FlowId]) -> None:
        """Stage one ``(time, size, fid)`` a ladder rung released.  It
        takes the shard's latest arrival index (an aggregate has no one
        index; the remote engine, which reads them, arms no ladder)."""
        if self._staged[index] >= self._ship_at:
            self._ship(index)
        time_ns, size, fid = item
        times, sizes, fids, arrivals = self._staging[self._route(fid)]
        times.append(time_ns)
        sizes.append(size)
        fids.append(fid)
        arrivals.append(self._routed[index])
        self._staged[index] += 1
        self._accepted += 1

    def _slot_groups(self, index: int) -> List[Tuple[int, Staged]]:
        """Shard ``index``'s non-empty staged slots, as ``(slot,
        staged)`` pairs."""
        staging = self._staging
        return [
            (slot, staging[slot])
            for slot in self._shard_slots[index]
            if staging[slot][0]
        ]

    def _unstage(self, index: int) -> None:
        """Leave shard ``index`` with nothing staged (after a ship)."""
        staging = self._staging
        for slot in self._shard_slots[index]:
            if staging[slot][0]:
                staging[slot] = ([], [], [], [])
        self._staged[index] = 0

    def flush(self) -> None:
        """Push everything routed so far towards its slot host: release
        the ladders' rung buffers (a drain or snapshot never strands
        them), then ship every shard holding staged packets."""
        if not self.running:
            return
        if self._overload is not None:
            for index, state in enumerate(self._overload):
                for item in state.flush():
                    self._stage(index, item)
        for index, staged in enumerate(self._staged):
            if staged:
                self._ship(index)

    def snapshot(self) -> Dict[str, object]:
        """Exact engine state at the current packet boundary: everything
        staged is pushed to its slot host first, so the collected slot
        states cover exactly the packets accepted so far."""
        if self._final_snapshot is not None:
            return self._final_snapshot
        self._start()
        self.flush()
        return self._assemble(self._broadcast("snapshot"))

    def close(self, drain: bool = False) -> Optional[Dict[str, object]]:
        """Graceful drain: push everything staged, stop every slot host
        (collecting its final exact states), release the transport and
        return the final engine snapshot.  ``drain`` marks a requested
        drain rather than the end of the stream."""
        if self._final_snapshot is None:
            self._start()
            self.flush()
            states = self._broadcast("stop", drain)
            self._release()
            self._final_snapshot = self._assemble(states)
        return self._final_snapshot

    def terminate(self) -> None:
        """Abandon in-flight work without draining (crash teardown; a
        restored checkpoint supersedes it) — here, the staged packets."""
        for index in range(self._shards):
            self._unstage(index)

    # -- transport hooks ---------------------------------------------------

    def _ship(self, index: int) -> None:
        """Hand shard ``index``'s staged slot groups to its slot host,
        leaving nothing staged."""
        raise NotImplementedError

    def _command(self, op: str, args: Dict[int, object]) -> Dict[int, object]:
        """Send slot command ``op`` (see :meth:`SlotHost.command`) to
        each shard in ``args``, with that shard's argument, behind
        everything already shipped to it; return each shard's reply.
        The one way the routing side reaches a slot host."""
        raise NotImplementedError

    def _release(self) -> None:
        """Free the transport once ``stop`` has reached every slot
        host."""

    def _ladder_load(self, index: int) -> Tuple[int, int]:
        """Shard ``index``'s backlog and its bound, in packets — what
        its overload ladder observes once per batch."""
        return self._staged[index], self._backlog_capacity

    def _note_depth(self, index: int, depth: int) -> None:
        """Raise shard ``index``'s queue high water to ``depth``."""
        if depth > self._queue_high_water[index]:
            self._queue_high_water[index] = depth

    def _staged_states(self, slot_ids: Iterable[int]) -> Dict[int, SlotState]:
        """The restored states staged for ``slot_ids`` (lazy hosts)."""
        staged = self._slot_states
        if staged is None:
            return {}
        return {slot: staged[slot] for slot in slot_ids
                if staged[slot] is not None}

    def _start(self) -> None:
        """Bring up slot hosts that a transport starts lazily."""

    def check_workers(self) -> None:
        """Raise a structured error for a slot host that has died."""

    def _check_growth(self, shards: int) -> None:
        """Raise :class:`~repro.service.errors.MigrationError` when the
        transport cannot provision ``shards`` shards."""

    def _grow(self, first_new: int) -> None:
        """Provision transport resources for shards ``first_new`` up to
        ``self._shards - 1`` (none in-process: one host holds every
        slot)."""

    def _adopt(
        self, layout: ShardLayout, slot_states: List[SlotState]
    ) -> None:
        """Take over a restored layout's slot states, staged for slot
        hosts that start lazily (hence before the first ingestion)."""
        if self.running or self._final_snapshot is not None:
            raise RuntimeError("restore() must precede any ingestion")
        self._slot_states = slot_states

    def _slot_views(self) -> List[Tuple[int, ReportSink, int]]:
        """Slot-indexed ``(packets, report sink, blacklist size)``.

        This default reads a snapshot barrier — the view of a transport
        whose detectors live in other processes or on other hosts."""
        views = []
        for state in self.snapshot()["shards"]:
            sink = ReportSink()
            sink.restore(state["sink"])
            views.append(
                (state["stats"]["packets"], sink, len(state["blacklist"]))
            )
        return views

    def _broadcast(self, op: str, arg=None) -> Dict[int, object]:
        """Slot command ``op`` to every provisioned shard — a spare that
        a rolled-back migration provisioned included, so every host
        stays on the fleet's configuration and a later migration onto
        it restores cleanly."""
        return self._command(op, dict.fromkeys(range(self._shards), arg))

    # -- introspection -----------------------------------------------------

    @property
    def running(self) -> bool:
        """Whether the slot hosts are up (in-process: always)."""
        return True

    @property
    def backlog_capacity(self) -> int:
        """The bound on each shard's :meth:`queue_depths`, in the
        transport's unit (the ``queue_capacity`` in :meth:`health`)."""
        return self._backlog_capacity

    @property
    def shard_count(self) -> int:
        return self._layout.shards

    @property
    def slot_count(self) -> int:
        return self._layout.slots

    @property
    def layout(self) -> ShardLayout:
        """The current (versioned) slot→shard assignment."""
        return self._layout

    @property
    def seed(self) -> int:
        return self._hash.seed

    @property
    def accepted(self) -> int:
        """Packets staged on their slot.  Injected drops, overflow and
        shed packets never are."""
        return self._accepted

    @property
    def dropped(self) -> int:
        """Packets accounted as lost (overflow, injected drops, overload
        shedding, partition loss)."""
        return sum(self._dropped)

    @property
    def routed(self) -> List[int]:
        """Per-shard arrival counts (the coordinator's load signal)."""
        return list(self._routed)

    @property
    def queue_high_water(self) -> List[int]:
        """Highest queue depth each shard has reached."""
        return list(self._queue_high_water)

    @property
    def last_packet_ts(self) -> List[Optional[int]]:
        """Stream timestamp of the last packet routed to each shard."""
        return list(self._last_packet_ts)

    def slot_of(self, fid: FlowId) -> int:
        """Which slot a flow hashes to (layout-independent)."""
        return self._route(fid)

    def shard_of(self, fid: FlowId) -> int:
        """Which shard currently hosts a flow's slot."""
        return self._assignment[self._route(fid)]

    def queue_depths(self) -> List[int]:
        """Current backlog per shard in the transport's own unit (cheap;
        no drain, no barrier): staged packets in-process."""
        return list(self._staged)

    # -- loss accounting ---------------------------------------------------

    def _record_loss(
        self,
        index: int,
        packet: Packet,
        reason: str,
        slot: Optional[int] = None,
        arrival: Optional[int] = None,
    ) -> None:
        """Account one lost packet to shard ``index``'s envelope and
        dead-letter it.  ``arrival`` is the packet's 1-based shard-local
        arrival index when the loss surfaces after later packets were
        routed (a partition found at ship time); it defaults to the
        routed count, which is the index at routing time."""
        self._dropped[index] += 1
        if self._first_loss[index] is None:
            self._first_loss[index] = packet.time
            self._loss_reason[index] = reason
        if self._dead_letter is not None:
            self._dead_letter.record(
                packet, index, reason, slot=slot,
                index=self._routed[index] if arrival is None else arrival,
            )

    # -- results -----------------------------------------------------------

    def detections(self) -> Dict[FlowId, int]:
        """Union of per-slot first-detection reports (flows are disjoint
        across slots, so the union is conflict-free)."""
        sink = ReportSink()
        for _packets, slot_sink, _blacklisted in self._slot_views():
            sink.merge(slot_sink)
        return sink.as_dict()

    def health(self) -> List[ShardHealth]:
        """A point-in-time per-shard health sample: slot state
        aggregated onto the hosting shard, backlog from
        :meth:`queue_depths`."""
        views = self._slot_views()
        depths = self.queue_depths()
        states = self._overload
        layout = self._layout
        watcher = self.watcher
        samples = []
        for index in range(layout.shards):
            slots = layout.slots_of(index)
            hosted = [views[slot] for slot in slots]
            samples.append(
                ShardHealth(
                    shard=index,
                    packets=sum(packets for packets, _, _ in hosted),
                    queue_depth=depths[index],
                    queue_capacity=self._backlog_capacity,
                    detections=sum(len(sink) for _, sink, _ in hosted),
                    blacklist_size=sum(size for _, _, size in hosted),
                    dropped=self._dropped[index],
                    queue_high_water=self._queue_high_water[index],
                    last_packet_ts_ns=self._last_packet_ts[index],
                    degradation_level=(
                        states[index].level.label
                        if states is not None
                        else "exact"
                    ),
                    watcher_occupancy=(
                        sum(watcher.occupancy(slot) for slot in slots)
                        if watcher is not None
                        else 0
                    ),
                    watcher_verdicts=(
                        sum(
                            len(watcher.watcher(slot).detected)
                            for slot in slots
                        )
                        if watcher is not None
                        else 0
                    ),
                    slot_count=len(slots),
                )
            )
        return samples

    def overload_report(self) -> Optional[Dict[str, object]]:
        """Service-level overload summary, or ``None`` when no policy is
        armed.  Includes the merged degradation account (whose integer
        identity ``exact + deferred + aggregated + shed == offered``
        holds by construction) and the computed ambiguity-widening
        bound: aggregates are re-stamped by at most ``max_widening_ns``,
        so over any window the measured traffic of a flow can shift by
        at most ``rho * max_widening_ns`` bytes (``widening_bytes``)."""
        if self._overload is None:
            return None
        from .overload import build_overload_report

        return build_overload_report(self._overload, self.config.rho)

    def envelope(self) -> List[ExactnessEnvelope]:
        """Per-shard exactness: a shard that lost even one packet no
        longer carries the no-FN/no-FP guarantee past its first loss."""
        return [
            ExactnessEnvelope(
                shard=index,
                exact=self._dropped[index] == 0,
                lost_packets=self._dropped[index],
                first_loss_time_ns=self._first_loss[index],
                reason=self._loss_reason[index],
            )
            for index in range(self._layout.shards)
        ]

    # -- hot reconfiguration -----------------------------------------------

    def apply_config(self, config: EARDetConfig) -> None:
        """Swap every slot detector onto ``config`` at the current packet
        boundary (the control plane's apply step).

        Every provisioned slot host adapts build-all-then-swap (see
        :meth:`SlotHost.reconfigure`), so a host that refuses keeps its
        old detectors serving.  When some hosts refuse this raises
        :class:`~repro.core.eardet.ReconfigurationError` and may leave a
        mixed fleet; rollback is ``apply_config(old_config)``, which
        always succeeds because adapting back never shrinks below
        occupancy.  Slot hosts that have not started yet build from
        their adapted staged states when they do.
        """
        if self._final_snapshot is not None:
            raise RuntimeError("engine already closed")
        if self.running:
            # Everything routed so far reaches its slot first, so the
            # swap lands at an exact stream boundary.
            self.check_workers()
            self.flush()
            replies = self._broadcast("reconfig", config_as_dict(config))
            refusals = sorted(
                (index, reply) for index, reply in replies.items()
                if reply is not None
            )
            if refusals:
                detail = "; ".join(
                    f"shard {index}: {reply}" for index, reply in refusals
                )
                raise ReconfigurationError(
                    f"{len(refusals)}/{len(replies)} shard hosts refused "
                    f"the new configuration ({detail}); fleet may be "
                    "mixed — roll back by re-applying the previous config"
                )
        elif self._slot_states is not None:
            self._slot_states = [
                None if state is None else reconfigure_state(state, config)
                for state in self._slot_states
            ]
        self.config = config

    # -- live migration ----------------------------------------------------

    def prepare_migration(self, plan: MigrationPlan) -> None:
        """Freeze phase: release the overload ladders' rung buffers
        (deferred/aggregated packets must cross the cut in per-flow
        arrival order), bring everything routed so far to its slot, and
        provision any new shards the plan targets."""
        plan.validate(self._layout)
        self._start()
        self.check_workers()
        self.flush()
        self._ensure_shards(plan.target_shards)

    def extract_slots(self, slot_ids: List[int]) -> Dict[int, SlotState]:
        """Extract phase: snapshot-and-detach the moving slots from the
        shards currently hosting them."""
        by_shard: Dict[int, List[int]] = {}
        for slot in slot_ids:
            by_shard.setdefault(self._assignment[slot], []).append(slot)
        return {
            int(slot): state
            for taken in self._command("extract", by_shard).values()
            for slot, state in taken.items()
        }

    def install_slots(
        self,
        slot_states: Dict[int, SlotState],
        assignment: Dict[int, int],
    ) -> None:
        """Install phase: hand each target shard the decode-verified
        states of the slots ``assignment`` places on it."""
        by_shard: Dict[int, Dict[int, SlotState]] = {}
        for slot, state in slot_states.items():
            shard = assignment[int(slot)]
            if shard >= self._shards:
                raise ValueError(
                    f"slot {slot} targets shard {shard}, which was never "
                    f"provisioned (prepare_migration not run?)"
                )
            by_shard.setdefault(shard, {})[int(slot)] = state
        self._command("install", by_shard)

    def commit_layout(self, layout: ShardLayout) -> None:
        """Cutover phase: atomically swap the slot→shard assignment.
        Routing lives here, so the swap is local to the engine."""
        if layout.slots != self._layout.slots:
            raise ValueError(
                f"layout has {layout.slots} slots, engine has "
                f"{self._layout.slots}"
            )
        if layout.shards > self._shards:
            raise ValueError(
                f"layout spans {layout.shards} shards but only "
                f"{self._shards} are provisioned"
            )
        self._set_layout(layout)

    def abort_migration(
        self,
        plan: MigrationPlan,
        extracted: Dict[int, SlotState],
    ) -> None:
        """Rollback: extract-and-discard any partially installed copies
        from the targets (each gives up only the slots it holds), then
        reinstall the extracted states on their sources.  Plan slots
        that were never extracted are still live and stay untouched.
        The assignment was never swapped (commit is the last step), so
        routing is already correct once the states are back."""
        targets: Dict[int, List[int]] = {}
        for move in plan.moves:
            if move.target < self._shards:
                targets.setdefault(move.target, []).append(move.slot)
        self._command("extract", targets)  # discard partial installs
        if extracted:
            self.install_slots(extracted, plan.assignment_before())

    def _ensure_shards(self, shards: int) -> None:
        """Provision runtime resources and accounting for shards up to
        index ``shards - 1``.  Never shrinks — a merged-away shard stays
        as an idle hot spare."""
        if shards <= self._shards:
            return
        self._check_growth(shards)
        grow = shards - self._shards
        for key, fresh in _SHARD_ACCOUNTING:
            getattr(self, "_" + key).extend([fresh] * grow)
        self._staged.extend([0] * grow)
        if self._overload is not None:
            self._overload.extend(
                ShardOverload(self.overload_policy) for _ in range(grow)
            )
        first_new, self._shards = self._shards, shards
        self._shard_slots.extend([] for _ in range(grow))
        self._grow(first_new)

    # -- checkpointing -----------------------------------------------------

    def _assemble(
        self, replies: Dict[int, Dict[int, SlotState]]
    ) -> Dict[str, object]:
        """The engine snapshot, from each shard's ``{slot: state}``.

        Plain Python data ready for
        :func:`repro.service.checkpoint.write_checkpoint`; the one schema
        every transport writes and :meth:`restore` reads."""
        layout = self._layout
        slot_states: List = [None] * layout.slots
        for mapping in replies.values():
            for slot, slot_state in mapping.items():
                slot_states[int(slot)] = slot_state
        missing = [
            slot for slot, value in enumerate(slot_states) if value is None
        ]
        if missing:
            raise WorkerError(
                f"snapshot barrier returned no state for slots {missing}"
            )
        return {
            "format": ENGINE_SNAPSHOT_FORMAT,
            "seed": self._hash.seed,
            "shard_count": layout.shards,
            "accepted": self._accepted,
            "dropped": list(self._dropped),
            # Optional keys (absent in pre-fault-tolerance checkpoints;
            # readers default them) — keeps the format at version 1.
            "first_loss": list(self._first_loss),
            "loss_reason": list(self._loss_reason),
            "queue_high_water": list(self._queue_high_water),
            "last_packet_ts": list(self._last_packet_ts),
            "routed": list(self._routed),
            "overload": (
                [state.snapshot() for state in self._overload]
                if self._overload is not None
                else None
            ),
            # Optional stage-2 state (absent in pre-pipeline checkpoints
            # and watcher-off runs; readers default to a fresh stage).
            "watcher": (
                self.watcher.snapshot() if self.watcher is not None else None
            ),
            # Optional reshard keys: a default deployment (identity
            # layout, epoch 0) reads back identically without them.
            "slots": layout.slots,
            "layout": layout.as_dict(),
            "layout_epoch": layout.epoch,
            # Slot-indexed detector states.  Pre-reshard snapshots carry
            # one entry per shard, which is the same thing under the
            # identity layout.
            "shards": slot_states,
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore an engine snapshot written by any transport (the
        schema is shared).

        The snapshot's *layout* (slot→shard assignment, shard count,
        epoch) is adopted: a checkpoint taken after three migrations
        restores onto an engine constructed with the original shard
        count and replays to bit-identical detections, because
        detections only depend on slots.  Seed and slot count remain
        strict — they define the hash sub-streams themselves.
        """
        fmt = state.get("format")
        if fmt != ENGINE_SNAPSHOT_FORMAT:
            raise ValueError(f"unsupported engine snapshot format {fmt!r}")
        if state["seed"] != self._hash.seed:
            raise ValueError(
                f"snapshot hash seed {state['seed']} != engine seed "
                f"{self._hash.seed}; flows would route to different slots"
            )
        slot_states = list(state["shards"])
        slots = int(state.get("slots") or len(slot_states))
        if slots != self._layout.slots:
            raise ValueError(
                f"snapshot has {slots} slots, engine has "
                f"{self._layout.slots}; flows would route to different "
                "sub-streams"
            )
        if len(slot_states) != slots:
            raise ValueError(
                f"snapshot carries {len(slot_states)} slot states for "
                f"{slots} slots"
            )
        layout_state = state.get("layout")
        if layout_state is not None:
            layout = ShardLayout.from_dict(layout_state)
        else:
            layout = ShardLayout.default(slots, int(state["shard_count"]))
        self._adopt(layout, slot_states)
        shards = self._shards = layout.shards
        self._set_layout(layout)
        self._staging = [([], [], [], []) for _ in range(slots)]
        self._staged = [0] * shards
        if self._overload is not None and len(self._overload) < shards:
            self._overload.extend(
                ShardOverload(self.overload_policy)
                for _ in range(shards - len(self._overload))
            )
        for key, fresh in _SHARD_ACCOUNTING:
            values = list(state.get(key) or ())
            setattr(self, "_" + key, values + [fresh] * (shards - len(values)))
        if state.get("routed") is None:
            # Older checkpoints carry no arrival indices.  A checkpoint
            # is taken drained, so each shard's arrivals = packets
            # processed + packets dropped — valid because pre-overload
            # checkpoints never aggregated, and pre-reshard checkpoints
            # host exactly one slot per shard.
            self._routed = [
                slot_state["stats"]["packets"] + dropped
                for slot_state, dropped in zip(slot_states, self._dropped)
            ]
        self._accepted = state["accepted"]
        overload_state = state.get("overload")
        if overload_state is not None and self._overload is not None:
            for shard_overload, shard_state in zip(
                self._overload, overload_state
            ):
                shard_overload.restore(shard_state)
        watcher_state = state.get("watcher")
        if watcher_state is not None and self.watcher is not None:
            self.watcher.restore(watcher_state)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(shards={self._layout.shards}, "
            f"slots={self._layout.slots}, epoch={self._layout.epoch}, "
            f"accepted={self._accepted}, dropped={self.dropped})"
        )


class InProcessEngine(ShardedEngine):
    """Sharded EARDet with bounded per-shard staging, single-threaded.

    Parameters
    ----------
    config:
        Configuration applied to every slot detector (with the full link
        capacity ``rho``; see the module docstring).
    shards:
        Number of hosting shards (staging bounds, ladders, loss
        accounting).
    seed:
        Seed of the flow-to-slot hash; must match between a snapshot and
        the engine restoring it.
    queue_capacity:
        Maximum staged packets per shard.
    overflow:
        ``"block"`` (apply a full shard's staged packets before staging
        more; exact) or ``"drop"`` (shed load, counted per shard;
        lossy).
    store_factory:
        Counter-store implementation for each slot detector.
    fault_plan:
        Optional :class:`~repro.service.faults.FaultPlan` consulted on
        the ingest path (injected kills, stalls, drops).
    dead_letter:
        Optional :class:`~repro.service.health.DeadLetterSink` capturing
        every packet this engine sheds (overflow or injected drops).
    invariant_every:
        When set, attach an
        :class:`~repro.guard.invariants.InvariantChecker` to every slot
        detector, auditing the paper's algorithm-state invariants once
        per that many slot-local packets.  A violation raises a typed
        :class:`~repro.guard.invariants.InvariantViolation` out of the
        ingest/flush path (permanent — the supervisor aborts rather than
        restarts).
    watcher:
        Optional :class:`~repro.service.pipeline.WatcherStage` observing
        the ambiguity region, one watcher per *slot* (its
        ``shard_count`` must equal the engine's slot count).  It taps
        the stream at the routing point — before staging, overflow,
        fault injection, or the overload ladder — and never feeds the
        slot detectors, so arming it leaves exact detections
        bit-identical.  Slot granularity also makes its verdict streams
        invariant under resharding.  Its verdicts are probabilistic and
        are read out separately (never merged into :meth:`detections`).
    overload:
        Optional :class:`~repro.service.overload.OverloadPolicy`.  When
        armed, ingestion never applies staged packets itself: packets
        are admitted through the per-shard degradation ladder and staged
        packets are applied by explicit :meth:`pump` calls bounded by
        the policy's ``drain_budget`` (modelling finite worker
        capacity), so the staged count becomes a real overload signal
        instead of a sawtooth.  Staging past capacity is permitted
        transiently — a count above the high watermark escalates the
        ladder, which reaches SHEDDING (and therefore stops staging)
        within at most three observations, keeping memory bounded.
        With ``overload=None`` (the default) nothing on the ingest path
        changes.
    slots:
        Number of flow slots (detector granularity).  ``None`` (the
        default) means one slot per shard — the pre-reshard behaviour.
        More slots than shards buys migration headroom: slots are the
        units a reshard can move.  Must be ``>= shards``.
    """

    def __init__(
        self,
        config: EARDetConfig,
        shards: int = 1,
        seed: int = 0,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        overflow: str = "block",
        store_factory: Callable[[int], CounterStore] = HeapCounterStore,
        fault_plan=None,
        dead_letter: Optional[DeadLetterSink] = None,
        invariant_every: Optional[int] = None,
        overload: Optional[OverloadPolicy] = None,
        watcher=None,
        slots: Optional[int] = None,
    ):
        if queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be positive, got {queue_capacity}"
            )
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, got {overflow!r}"
            )
        # A full shard ships (block) or sheds (drop) at capacity; with a
        # ladder armed nothing ships inside ingest, because pump() is
        # then the capacity model and the ladder bounds the backlog.
        super().__init__(
            config, shards, seed, slots, fault_plan, dead_letter,
            invariant_every, overload, watcher,
            backlog_capacity=queue_capacity,
            ship_at=queue_capacity if overload is None else sys.maxsize,
        )
        self.queue_capacity = queue_capacity
        self.overflow = overflow
        self._sheds_when_full = overflow == "drop"
        #: Every slot's detector, in one host.
        self.slot_host = SlotHost(
            config,
            range(self._layout.slots),
            store_factory=store_factory,
            invariant_every=invariant_every,
        )

    def detector_groups(self) -> List[List[EARDet]]:
        """Per-shard lists of hosted slot detectors (telemetry sync)."""
        detectors = self.slot_host.detectors
        return [
            [detectors[slot] for slot in self._shard_slots[s]]
            for s in range(self._layout.shards)
        ]

    def _slot_views(self) -> List[Tuple[int, ReportSink, int]]:
        detectors = self.slot_host.detectors
        return [
            (d.stats.packets, d.sink, len(d.blacklist))
            for d in (detectors[slot] for slot in range(self._layout.slots))
        ]

    # -- the transport -----------------------------------------------------

    def _ship(self, index: int) -> None:
        """Apply shard ``index``'s staged slot groups to their detectors
        — the direct call this transport has in place of a wire."""
        self._note_depth(index, self._staged[index])
        groups = self._slot_groups(index)
        self._unstage(index)
        self.slot_host.observe((slot, *group[:3]) for slot, group in groups)

    def _fault(self, index: int, packet: Packet, slot: int) -> bool:
        # No worker can die here, so injected stalls and kills fire at
        # routing time, at the shard-local arrival they name.
        if super()._fault(index, packet, slot):
            return True
        local = self._routed[index]
        stall = self._plan.take_stall(index, local)
        if stall is not None:
            _time.sleep(stall.duration_s)
        if self._plan.take_kill(index, local) is not None:
            raise ShardCrashError(
                f"injected kill: shard {index} died at its packet {local}",
                shard=index,
            )
        return False

    def pump(self, budget: Optional[int] = None) -> int:
        """Apply up to ``budget`` staged packets of each shard, slot by
        slot, each slot's packets in arrival order (the worker-capacity
        model under an armed overload policy; defaults to the policy's
        ``drain_budget``).  Each shard's staged count — all its ladder
        reads — falls by exactly what was applied, which is returned.
        ``None`` budget (and no policy default) applies everything."""
        if budget is None and self.overload_policy is not None:
            budget = self.overload_policy.drain_budget
        processed = 0
        detectors = self.slot_host.detectors
        for index, staged in enumerate(self._staged):
            if budget is None or staged <= budget:
                if staged:
                    self._ship(index)
                processed += staged
                continue
            remaining = budget
            for slot in self._shard_slots[index]:
                times, sizes, fids, arrivals = self._staging[slot]
                take = min(remaining, len(times))
                if take:
                    detectors[slot].observe_batch(
                        times[:take], sizes[:take], fids[:take]
                    )
                    del times[:take], sizes[:take], fids[:take]
                    del arrivals[:take]
                    remaining -= take
                    if not remaining:
                        break
            self._staged[index] -= budget
            processed += budget
        return processed

    def close(self, drain: bool = False) -> None:
        """Drain and release; the in-process engine holds no OS resources.
        ``drain`` exists for interface parity with the other transports
        (there it selects the drain exit code); the drain work — rung
        buffers released, staged packets applied — happens either way."""
        self.flush()

    def _command(self, op: str, args: Dict[int, object]) -> Dict[int, object]:
        # One host holds every slot, so a command to any set of shards is
        # one command to it.  A shard holds exactly the slots the live
        # assignment gives it — so the rollback's probe of migration
        # targets (which host nothing before cutover) takes nothing, and
        # a reinstall simply overwrites.
        if op == "extract":
            arg = [
                slot
                for index, slots in args.items()
                for slot in slots
                if self._assignment[slot] == index
            ]
        elif op == "install":
            arg = {
                slot: state
                for states in args.values()
                for slot, state in states.items()
            }
        else:
            arg = next(iter(args.values()))
        return {0: self.slot_host.command(op, arg)}

    def commit_layout(self, layout: ShardLayout) -> None:
        """Cutover phase (see :meth:`ShardedEngine.commit_layout`);
        refuses while any moved slot is still detached."""
        missing = [
            slot
            for slot in range(self._layout.slots)
            if slot not in self.slot_host.detectors
        ]
        if missing:
            raise ValueError(
                f"cannot commit layout: slots {missing} are extracted but "
                "not installed"
            )
        super().commit_layout(layout)

    def _adopt(
        self, layout: ShardLayout, slot_states: List[SlotState]
    ) -> None:
        detectors = self.slot_host.detectors
        for slot, slot_state in enumerate(slot_states):
            detectors[slot].restore(slot_state)
