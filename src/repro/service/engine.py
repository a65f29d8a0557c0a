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
stage hash); runtime resources — queues, overload ladders, loss
accounting — live per **shard**; a versioned
:class:`~repro.service.reshard.ShardLayout` maps slots onto shards.  By
default ``slots == shards`` with the identity mapping, which is exactly
the pre-reshard engine.  The split is what makes *exact live
resharding* possible: EARDet's counter store couples all of a shard's
flows (min-eviction), so per-flow state cannot be divided — but a whole
slot's detector can move between shards through the snapshot/restore
path, and because each slot always sees its full hash sub-stream in
arrival order, detections are bit-identical under any layout history.

One shard core, three transports
--------------------------------

The ensemble argument does not depend on how a packet reaches its slot,
so the engines split along one line:

- :class:`ShardedEngine` is the **routing side** every transport
  shares: constructor validation, the memoized flow→slot router, the
  layout and its assignment, per-shard loss accounting (the exactness
  envelope), the watcher tap and overload ladders, health, detections,
  the one engine snapshot schema, restore validation, the grouping,
  commit and rollback steps of live migration, and the staging loop
  that routes packets into per-shard ``(times, sizes, fids)`` columns.
- :class:`SlotHost` is the **slot side**: one shard's ``{slot: EARDet}``
  and the slot commands — observe (columns, through
  :meth:`EARDet.observe_batch`), snapshot, extract, install,
  reconfigure — that every transport runs against it.
- A transport carries routed packets and commands from one to the other:
  :class:`InProcessEngine` (bounded ``Packet`` deques drained on the
  calling thread, all slots in one host), :class:`~repro.service.workers.
  MultiprocessEngine` (one worker process per shard, column chunks and
  in-band barriers on its queue) and :class:`~repro.service.remote.
  RemoteEngine` (one TCP :class:`~repro.service.net.ShardServer` per
  shard, exactly-once frames of packed columns).

What :class:`InProcessEngine` adds over ``ParallelEARDet`` is the
*runtime* layer:

- **bounded per-shard queues** — ingestion enqueues, workers drain;
  memory is capped at ``shards * queue_capacity`` packets regardless of
  how oversubscribed the source is;
- **explicit backpressure** — the default ``overflow="block"`` policy
  drains a full queue before accepting more (the pull-based source simply
  isn't pulled from in the meantime); ``overflow="drop"`` instead sheds
  load with exact per-shard drop accounting (a lossy mode for
  monitor-only deployments — dropped packets void the exactness
  guarantee and are reported, never silent);
- **exact snapshots at packet boundaries** — :meth:`~InProcessEngine.
  snapshot` drains all queues first, so the captured state corresponds
  to exactly the packets ingested so far (see
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

import time as _time
from collections import deque
from typing import (
    Callable, Deque, Dict, Iterable, List, Optional, Sequence, Tuple,
)

from ..core.blacklist import ReportSink
from ..core.config import EARDetConfig
from ..core.counters import CounterStore, HeapCounterStore
from ..core.eardet import EARDet, reconfigure_state
from ..detectors.hashing import StageHash
from ..model.packet import FlowId, Packet
from .errors import ShardCrashError, WorkerError
from .health import DeadLetterSink, ExactnessEnvelope, ShardHealth
from .overload import DegradationLevel, OverloadPolicy, ShardOverload
from .reshard import MigrationPlan, ShardLayout

#: Default bound on each shard's pending-packet queue.
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

#: A chunk of packets as parallel ``(times, sizes, fids)`` columns.
Columns = Tuple[List[int], List[int], List[FlowId]]


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

    ``states`` maps slot → restored state for the initial slots;
    ``router`` (the shard's own flow→slot router, same seed and slot
    space as the engine's) is needed only by :meth:`observe` on a host
    with more than one slot.  ``invariant_every`` arms an
    :class:`~repro.guard.invariants.InvariantChecker` on every detector
    the host builds.
    """

    def __init__(
        self,
        config: EARDetConfig,
        slot_ids: Iterable[int],
        states: Optional[Dict[int, SlotState]] = None,
        router: Optional[FlowRouter] = None,
        store_factory: Callable[[int], CounterStore] = HeapCounterStore,
        invariant_every: Optional[int] = None,
    ):
        self.config = config
        self.router = router
        self._store_factory = store_factory
        self._invariant_every = invariant_every
        states = states or {}
        self.detectors: Dict[int, EARDet] = {
            int(slot): self._build(config, states.get(slot))
            for slot in slot_ids
        }
        self.solo: Optional[EARDet] = None
        self._refresh_solo()

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

    def _refresh_solo(self) -> None:
        # Hosting exactly one slot — the default layout — lets
        # :meth:`observe` skip per-packet slot dispatch entirely.
        self.solo = (
            next(iter(self.detectors.values()))
            if len(self.detectors) == 1
            else None
        )

    def packets(self) -> int:
        """Packets the hosted detectors have processed."""
        return sum(d.stats.packets for d in self.detectors.values())

    def observe(self, times: Sequence[int], sizes: Sequence[int],
                fids: Sequence[FlowId]) -> None:
        """Apply a chunk of packet columns through
        :meth:`EARDet.observe_batch`.  A host with several slots splits
        the chunk by slot first; each slot still sees its packets in
        arrival order, and slots are independent."""
        solo = self.solo
        if solo is not None:
            solo.observe_batch(times, sizes, fids)
            return
        router = self.router
        groups: Dict[int, Columns] = {}
        for time_ns, size, fid in zip(times, sizes, fids):
            slot = router(fid)
            group = groups.get(slot)
            if group is None:
                group = groups[slot] = ([], [], [])
            group[0].append(time_ns)
            group[1].append(size)
            group[2].append(fid)
        detectors = self.detectors
        for slot, group in groups.items():
            detectors[slot].observe_batch(*group)

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
        self._refresh_solo()
        return taken

    def install(self, states: Dict[int, SlotState]) -> None:
        """Host each slot from its (decode-verified) state, replacing any
        copy already hosted."""
        for slot, state in states.items():
            self.detectors[int(slot)] = self._build(self.config, state)
        self._refresh_solo()

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
        self._refresh_solo()


class ShardedEngine:
    """The routing side of a sharded EARDet, shared by every transport.

    Subclasses supply the transport — :meth:`ingest`, :meth:`flush`,
    :meth:`queue_depths`, :meth:`snapshot`, :meth:`close`,
    :meth:`terminate` and the hooks below; everything that decides what
    a routed, lost or migrated packet means for exactness lives here
    once.

    ``backlog_capacity`` is the bound :meth:`queue_depths` is reported
    against in :meth:`health` (packets, chunks or frames, depending on
    the transport).
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
        self._plan = fault_plan
        self._dead_letter = dead_letter
        self._backlog_capacity = backlog_capacity
        self._hash = StageHash(seed=seed, buckets=slots)
        self._route = FlowRouter(self._hash)
        self._layout = ShardLayout.default(slots, shards)
        self._assignment: List[int] = list(self._layout.assignment)
        #: Shards with provisioned runtime resources (never below the
        #: layout's shard count; a merged-away shard stays as a spare).
        self._shards = shards
        self._accepted = 0
        for key, fresh in _SHARD_ACCOUNTING:
            setattr(self, "_" + key, [fresh] * shards)
        # Staging transports' per-shard columns (see :meth:`ingest`), and
        # restored slot states staged for hosts that start lazily.
        self._staged: List[Columns] = [([], [], []) for _ in range(shards)]
        self._slot_states: Optional[List[Optional[SlotState]]] = None
        # Ladder state lives on the routing side: admission happens
        # where packets are routed, so rung buffers hold whatever the
        # transport queues (Packets in-process, ``(time, size, fid)``
        # tuples that :meth:`_stage` appends to the columns otherwise).
        self._overload: Optional[List[ShardOverload]] = None
        if overload is not None:
            self._overload = [self._new_ladder() for _ in range(shards)]

    # -- the transport -----------------------------------------------------

    def ingest(self, batch: List[Packet]) -> None:
        """The staging loop of the multiprocess and remote transports
        (the in-process engine queues Packets instead): route each
        packet onto its shard's :data:`Columns` and hand them to the
        transport's :meth:`_ship` once ``self.chunk_size`` are staged.
        An armed overload policy goes through the transport's
        ``_ingest_overload`` instead."""
        self._start()
        self.check_workers()
        if self._overload is not None:
            self._ingest_overload(batch)
            return
        staged = self._staged
        route = self._route
        assignment = self._assignment
        routed = self._routed
        last_ts = self._last_packet_ts
        chunk_size = self.chunk_size
        plan = self._plan
        watcher = self.watcher
        lost = 0
        for packet in batch:
            fid = packet.fid
            slot = route(fid)
            index = assignment[slot]
            routed[index] += 1
            last_ts[index] = packet.time
            if watcher is not None:
                watcher.observe(packet, slot)
            if plan is not None and plan.should_drop(index, routed[index]):
                self._record_loss(index, packet, "injected-drop", slot=slot)
                lost += 1
                continue
            times, sizes, fids = staged[index]
            times.append(packet.time)
            sizes.append(packet.size)
            fids.append(fid)
            if len(times) >= chunk_size:
                self._ship(index)
        self._accepted += len(batch) - lost

    def flush(self) -> None:
        """Push everything routed so far towards its slot host."""
        raise NotImplementedError

    def snapshot(self) -> Dict[str, object]:
        """Exact engine state at the current packet boundary."""
        raise NotImplementedError

    def close(self, drain: bool = False) -> Optional[Dict[str, object]]:
        """Graceful drain and release (``drain``: requested, not EOF)."""
        raise NotImplementedError

    def terminate(self) -> None:
        """Abandon in-flight work without draining (crash teardown)."""
        raise NotImplementedError

    # -- transport hooks ---------------------------------------------------

    def _ship(self, index: int) -> None:
        """Send shard ``index``'s staged columns towards its slot host,
        leaving fresh empty ones staged."""
        raise NotImplementedError

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

    def _reconfigure_staged(self, config: EARDetConfig) -> None:
        """Adapt the staged restored states, so hosts that have not
        started yet build under ``config`` when they do."""
        if self._slot_states is not None:
            self._slot_states = [
                None if state is None else reconfigure_state(state, config)
                for state in self._slot_states
            ]

    def _stage(self, index: int, item: Tuple[int, int, FlowId]) -> None:
        """Stage one ``(time, size, fid)`` released by a ladder rung,
        shipping the shard's columns once full."""
        times, sizes, fids = self._staged[index]
        times.append(item[0])
        sizes.append(item[1])
        fids.append(item[2])
        self._accepted += 1
        if len(times) >= self.chunk_size:
            self._ship(index)

    def _new_ladder(self) -> ShardOverload:
        """A fresh per-shard degradation ladder for this transport."""
        raise NotImplementedError

    def _start(self) -> None:
        """Bring up slot hosts that a transport starts lazily."""

    def check_workers(self) -> None:
        """Raise a structured error for a slot host that has died."""

    def _freeze(self) -> None:
        """Migration freeze point: everything routed so far must reach
        its slot before the moving slots are extracted."""
        self._start()
        self.check_workers()
        self.flush()

    def _extract_from(
        self, by_shard: Dict[int, List[int]]
    ) -> Dict[int, SlotState]:
        """Snapshot-and-detach ``{shard: [slots]}``; each shard returns
        only the slots it holds."""
        raise NotImplementedError

    def _install_on(self, by_shard: Dict[int, Dict[int, SlotState]]) -> None:
        """Host ``{shard: {slot: state}}``."""
        raise NotImplementedError

    def _reconfigure(self, config: EARDetConfig) -> Dict[int, str]:
        """Rebuild every slot host under ``config``; returns the last
        error line of each shard that refused."""
        raise NotImplementedError

    def _check_growth(self, shards: int) -> None:
        """Raise :class:`~repro.service.errors.MigrationError` when the
        transport cannot provision ``shards`` shards."""

    def _grow(self, first_new: int) -> None:
        """Provision transport resources for shards ``first_new`` up to
        ``self._shards - 1``."""
        raise NotImplementedError

    def _adopt(
        self, layout: ShardLayout, slot_states: List[SlotState]
    ) -> None:
        """Take over a restored layout's slot states and size the
        transport's per-shard resources for ``layout.shards`` shards."""
        raise NotImplementedError

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

    # -- introspection -----------------------------------------------------

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
        """Packets that entered a shard queue or staging buffer.
        Injected drops, overflow and shed packets never do."""
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
        """Current backlog per shard (cheap; no drain, no barrier)."""
        raise NotImplementedError

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

        Each slot host adapts build-all-then-swap (see
        :meth:`SlotHost.reconfigure`), so a host that refuses keeps its
        old detectors serving.  When some shards refuse this raises
        :class:`~repro.core.eardet.ReconfigurationError` and may leave a
        mixed fleet; rollback is ``apply_config(old_config)``, which
        always succeeds because adapting back never shrinks below
        occupancy.
        """
        failures = self._reconfigure(config)
        if failures:
            from ..core.eardet import ReconfigurationError

            detail = "; ".join(
                f"shard {index}: {error}"
                for index, error in sorted(failures.items())
            )
            raise ReconfigurationError(
                f"{len(failures)}/{self._shards} shard hosts refused the "
                f"new configuration ({detail}); fleet may be mixed — "
                "roll back by re-applying the previous config"
            )
        self.config = config

    # -- live migration ----------------------------------------------------

    def prepare_migration(self, plan: MigrationPlan) -> None:
        """Freeze phase: release the overload ladders' rung buffers
        (deferred/aggregated packets must cross the cut in per-flow
        arrival order), bring everything routed so far to its slot, and
        provision any new shards the plan targets."""
        plan.validate(self._layout)
        self._freeze()
        self._ensure_shards(plan.target_shards)

    def extract_slots(self, slot_ids: List[int]) -> Dict[int, SlotState]:
        """Extract phase: snapshot-and-detach the moving slots from the
        shards currently hosting them."""
        by_shard: Dict[int, List[int]] = {}
        for slot in slot_ids:
            by_shard.setdefault(self._assignment[slot], []).append(slot)
        if not by_shard:
            return {}
        return self._extract_from(by_shard)

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
        if by_shard:
            self._install_on(by_shard)

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
        self._layout = layout
        self._assignment = list(layout.assignment)

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
        if targets:
            self._extract_from(targets)  # discard partial installs
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
        self._staged.extend(([], [], []) for _ in range(grow))
        if self._overload is not None:
            self._overload.extend(self._new_ladder() for _ in range(grow))
        first_new, self._shards = self._shards, shards
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
        self._layout = layout
        self._assignment = list(layout.assignment)
        shards = self._shards = layout.shards
        self._staged = [([], [], []) for _ in range(shards)]
        if self._overload is not None and len(self._overload) < shards:
            self._overload.extend(
                self._new_ladder() for _ in range(shards - len(self._overload))
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
    """Sharded EARDet with bounded ingestion queues, single-threaded.

    Parameters
    ----------
    config:
        Configuration applied to every slot detector (with the full link
        capacity ``rho``; see the module docstring).
    shards:
        Number of hosting shards (queues, ladders, loss accounting).
    seed:
        Seed of the flow-to-slot hash; must match between a snapshot and
        the engine restoring it.
    queue_capacity:
        Maximum pending packets per shard.
    overflow:
        ``"block"`` (drain before accepting more; exact) or ``"drop"``
        (shed load, counted per shard; lossy).
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
        the stream at the routing point — before queueing, overflow,
        fault injection, or the overload ladder — and never feeds the
        slot detectors, so arming it leaves exact detections
        bit-identical.  Slot granularity also makes its verdict streams
        invariant under resharding.  Its verdicts are probabilistic and
        are read out separately (never merged into :meth:`detections`).
    overload:
        Optional :class:`~repro.service.overload.OverloadPolicy`.  When
        armed, ingestion stops draining synchronously: packets are
        admitted through the per-shard degradation ladder and queues are
        drained by explicit :meth:`pump` calls bounded by the policy's
        ``drain_budget`` (modelling finite worker capacity), so queue
        occupancy becomes a real overload signal instead of a sawtooth.
        Queue growth past capacity is permitted transiently — occupancy
        above the high watermark escalates the ladder, which reaches
        SHEDDING (and therefore stops enqueueing) within at most three
        observations, keeping memory bounded.  With ``overload=None``
        (the default) nothing on the ingest path changes.
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
        super().__init__(
            config, shards, seed, slots, fault_plan, dead_letter,
            invariant_every, overload, watcher,
            backlog_capacity=queue_capacity,
        )
        self.queue_capacity = queue_capacity
        self.overflow = overflow
        #: Every slot's detector, in one host.
        self.slot_host = SlotHost(
            config,
            range(self._layout.slots),
            store_factory=store_factory,
            invariant_every=invariant_every,
        )
        # Queued items carry the slot the packet was routed to at ingest,
        # so draining never hashes a flow a second time.
        self._queues: List[Deque[Tuple[int, Packet]]] = [
            deque() for _ in range(shards)
        ]

    def _new_ladder(self) -> ShardOverload:
        return ShardOverload(self.overload_policy, Packet)

    def queue_depths(self) -> List[int]:
        """Current pending-packet count per shard (cheap; no drain)."""
        return [len(queue) for queue in self._queues]

    def detector_groups(self) -> List[List[EARDet]]:
        """Per-shard lists of hosted slot detectors (telemetry sync)."""
        detectors = self.slot_host.detectors
        return [
            [detectors[slot] for slot in self._layout.slots_of(s)]
            for s in range(self._layout.shards)
        ]

    def _slot_views(self) -> List[Tuple[int, ReportSink, int]]:
        detectors = self.slot_host.detectors
        return [
            (d.stats.packets, d.sink, len(d.blacklist))
            for d in (detectors[slot] for slot in range(self._layout.slots))
        ]

    # -- ingestion ---------------------------------------------------------

    def ingest(self, batch: List[Packet]) -> None:
        """Route a batch of packets onto shard queues, applying the
        overflow policy when a queue is full (and, when a fault plan is
        armed, injecting kills/stalls/drops at exact packet positions).

        With an armed overload policy the batch instead flows through
        the per-shard degradation ladder (see :meth:`_ingest_overload`).
        """
        if self._overload is not None:
            self._ingest_overload(batch)
            return
        queues = self._queues
        route = self._route
        assignment = self._assignment
        routed = self._routed
        high_water = self._queue_high_water
        last_ts = self._last_packet_ts
        capacity = self.queue_capacity
        block = self.overflow == "block"
        plan = self._plan
        watcher = self.watcher
        for packet in batch:
            slot = route(packet.fid)
            index = assignment[slot]
            routed[index] += 1
            last_ts[index] = packet.time
            if watcher is not None:
                # Stage-2 tap at the routing point: sees the wire
                # stream before queueing/overflow/faults can lose it.
                # Slot-keyed, so the tap is invariant under resharding.
                watcher.observe(packet, slot)
            if plan is not None:
                local = routed[index]
                if plan.should_drop(index, local):
                    self._record_loss(index, packet, "injected-drop", slot=slot)
                    continue
                stall = plan.take_stall(index, local)
                if stall is not None:
                    _time.sleep(stall.duration_s)
                kill = plan.take_kill(index, local)
                if kill is not None:
                    raise ShardCrashError(
                        f"injected kill: shard {index} died at its packet "
                        f"{local}",
                        shard=index,
                    )
            queue = queues[index]
            if len(queue) >= capacity:
                if block:
                    self._drain_shard(index)
                else:
                    self._record_loss(index, packet, "queue-overflow", slot=slot)
                    continue
            queue.append((slot, packet))
            self._accepted += 1
            depth = len(queue)
            if depth > high_water[index]:
                high_water[index] = depth

    def _ingest_overload(self, batch: List[Packet]) -> None:
        """Ladder-mediated ingest: observe occupancy once per shard per
        batch, admit each packet at its shard's current rung, advance
        the deferred-deadline clock at the end.

        Enqueueing here is unconditional (no synchronous drain, no
        overflow drop): queue depth is the overload *signal*, and the
        ladder — not the queue bound — is what sheds load.  Memory stays
        bounded because occupancy at or above the high watermark
        escalates one rung per batch, so a persistently full shard stops
        enqueueing (SHEDDING) after at most three batches.
        """
        states = self._overload
        assert states is not None
        queues = self._queues
        capacity = self.queue_capacity
        route = self._route
        assignment = self._assignment
        routed = self._routed
        last_ts = self._last_packet_ts
        high_water = self._queue_high_water
        plan = self._plan
        watcher = self.watcher
        exact = DegradationLevel.EXACT
        accepted = 0
        for index, state in enumerate(states):
            for item in state.observe(len(queues[index]), capacity):
                self._enqueue(index, item)
        for packet in batch:
            slot = route(packet.fid)
            index = assignment[slot]
            routed[index] += 1
            last_ts[index] = packet.time
            if watcher is not None:
                # The watcher taps ahead of the ladder: it keeps seeing
                # in-region traffic even while this shard sheds load.
                watcher.observe(packet, slot)
            if plan is not None:
                local = routed[index]
                if plan.should_drop(index, local):
                    self._record_loss(index, packet, "injected-drop", slot=slot)
                    continue
                stall = plan.take_stall(index, local)
                if stall is not None:
                    _time.sleep(stall.duration_s)
                kill = plan.take_kill(index, local)
                if kill is not None:
                    raise ShardCrashError(
                        f"injected kill: shard {index} died at its packet "
                        f"{local}",
                        shard=index,
                    )
            state = states[index]
            if state.controller.level is exact:
                # Inlined EXACT rung (equivalent to admit + _enqueue):
                # the armed-but-idle ladder must cost attribute bumps,
                # not three function calls per packet.
                account = state.account
                account.exact_packets += 1
                account.exact_bytes += packet.size
                state._last_time = packet.time
                queue = queues[index]
                queue.append((slot, packet))
                accepted += 1
                depth = len(queue)
                if depth > high_water[index]:
                    high_water[index] = depth
                continue
            emitted = state.admit(packet.time, packet.size, packet.fid, packet)
            if emitted is None:
                self._record_loss(index, packet, "overload-shed", slot=slot)
                continue
            for item in emitted:
                self._enqueue(index, item)
        self._accepted += accepted
        for index, state in enumerate(states):
            for item in state.on_batch_end():
                self._enqueue(index, item)

    def _enqueue(self, index: int, packet: Packet) -> None:
        """Queue a packet released by a rung buffer (deferred or
        aggregated), routing it here since it bypassed :meth:`ingest`'s
        routing."""
        queue = self._queues[index]
        queue.append((self._route(packet.fid), packet))
        self._accepted += 1
        self._note_depth(index, len(queue))

    def pump(self, budget: Optional[int] = None) -> int:
        """Drain up to ``budget`` packets from each shard queue (the
        worker-capacity model under an armed overload policy; defaults
        to the policy's ``drain_budget``).  Returns packets processed.
        ``None`` budget (and no policy default) drains fully."""
        if budget is None and self.overload_policy is not None:
            budget = self.overload_policy.drain_budget
        processed = 0
        detectors = self.slot_host.detectors
        for queue in self._queues:
            remaining = budget
            while queue and (remaining is None or remaining > 0):
                slot, packet = queue.popleft()
                detectors[slot].observe(packet)
                processed += 1
                if remaining is not None:
                    remaining -= 1
        return processed

    def flush(self) -> None:
        """Process every pending packet (the graceful-drain step).

        With an armed overload policy this first releases everything the
        rung buffers hold (deferred packets, open aggregate epochs), so
        a drain or snapshot never strands coalesced packets."""
        if self._overload is not None:
            for index, state in enumerate(self._overload):
                for item in state.flush():
                    self._enqueue(index, item)
        for index in range(len(self._queues)):
            self._drain_shard(index)

    def _drain_shard(self, index: int) -> None:
        queue = self._queues[index]
        detectors = self.slot_host.detectors
        while queue:
            slot, packet = queue.popleft()
            detectors[slot].observe(packet)

    def close(self, drain: bool = False) -> None:
        """Drain and release; the in-process engine holds no OS resources.
        ``drain`` exists for interface parity with the other transports
        (there it selects the drain exit code); the drain work —
        flushing rung buffers and queues — happens either way."""
        self.flush()

    def terminate(self) -> None:
        """Abandon pending work without draining (the supervisor's
        teardown path after a crash — the restored checkpoint supersedes
        whatever is still queued)."""
        for queue in self._queues:
            queue.clear()

    # -- transport hooks ---------------------------------------------------

    def _reconfigure(self, config: EARDetConfig) -> Dict[int, str]:
        # Queues are flushed first so the swap lands at an exact stream
        # boundary; the one host's failure propagates as raised.
        self.flush()
        self.slot_host.reconfigure(config)
        return {}

    def _extract_from(
        self, by_shard: Dict[int, List[int]]
    ) -> Dict[int, SlotState]:
        # One address space hosts every slot, and a shard holds exactly
        # the slots the live assignment gives it — so the rollback's
        # probe of migration targets (which host nothing before cutover)
        # takes nothing, and a reinstall simply overwrites.
        return self.slot_host.extract(
            slot
            for index, slots in by_shard.items()
            for slot in slots
            if self._assignment[slot] == index
        )

    def _install_on(self, by_shard: Dict[int, Dict[int, SlotState]]) -> None:
        for states in by_shard.values():
            self.slot_host.install(states)

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

    def _grow(self, first_new: int) -> None:
        self._queues.extend(deque() for _ in range(self._shards - first_new))

    def _adopt(
        self, layout: ShardLayout, slot_states: List[SlotState]
    ) -> None:
        self._queues = [deque() for _ in range(layout.shards)]
        detectors = self.slot_host.detectors
        for slot, slot_state in enumerate(slot_states):
            detectors[slot].restore(slot_state)

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Exact engine state at the current packet boundary.

        Drains all queues first so the captured slot states correspond to
        exactly the packets accepted so far."""
        self.flush()
        return self._assemble({0: self.slot_host.snapshot()})
