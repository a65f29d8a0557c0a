"""In-process sharded detection engine with bounded queues.

The engine consistently hashes every flow onto one of ``slots`` EARDet
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

What the engine adds over ``ParallelEARDet`` is the *runtime* layer:

- **bounded per-shard queues** — ingestion enqueues, workers drain;
  memory is capped at ``shards * queue_capacity`` packets regardless of
  how oversubscribed the source is;
- **explicit backpressure** — the default ``overflow="block"`` policy
  drains a full queue before accepting more (the pull-based source simply
  isn't pulled from in the meantime); ``overflow="drop"`` instead sheds
  load with exact per-shard drop accounting (a lossy mode for
  monitor-only deployments — dropped packets void the exactness
  guarantee and are reported, never silent);
- **exact snapshots at packet boundaries** — :meth:`snapshot` drains all
  queues first, so the captured state corresponds to exactly the packets
  ingested so far (see :mod:`repro.service.checkpoint`);
- **live migration primitives** — :meth:`prepare_migration`,
  :meth:`extract_slots`, :meth:`install_slots`, :meth:`commit_layout`
  and :meth:`abort_migration`, driven by
  :func:`repro.service.reshard.execute_migration`;
- **per-shard health** for live reporting.

This engine runs everything on the calling thread, which makes it fully
deterministic — the reference implementation the multiprocessing engine
(:mod:`repro.service.workers`) and the multi-host TCP engine
(:mod:`repro.service.remote`) are both tested against: all three share
this interface and snapshot schema, and the differential chaos gates
assert their detections are bit-identical wherever the exactness
envelope says EXACT.
"""

from __future__ import annotations

import time as _time
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Tuple

from ..core.blacklist import ReportSink
from ..core.config import EARDetConfig
from ..core.counters import CounterStore, HeapCounterStore
from ..core.eardet import EARDet, reconfigure_state
from ..detectors.hashing import StageHash
from ..model.packet import FlowId, Packet
from .errors import ShardCrashError
from .health import DeadLetterSink, ExactnessEnvelope, ShardHealth
from .overload import DegradationLevel, OverloadPolicy, ShardOverload
from .reshard import MigrationPlan, ShardLayout

#: Default bound on each shard's pending-packet queue.
DEFAULT_QUEUE_CAPACITY = 4096

#: Queue-overflow policies.
OVERFLOW_POLICIES = ("block", "drop")

#: Engine snapshot schema version (shared with the multiprocess engine).
#: Stays at 1 across the slot refactor: the ``shards`` list is now
#: slot-indexed and ``slots``/``layout`` ride as optional keys, which a
#: default deployment (slots == shards, identity layout) writes
#: bit-compatibly with the pre-reshard schema.
ENGINE_SNAPSHOT_FORMAT = 1


class FlowRouter:
    """Memoized flow-to-slot routing.

    A splitmix64 round in pure Python costs ~1.6us; a dict hit ~50ns.
    Real traffic repeats flow IDs heavily, so both engines route through
    this cache — on the multiprocess engine the routing loop is the
    producer's main per-packet cost, and this is what lets shard workers
    outrun the single routing thread.  The cache is cleared when it
    reaches ``limit`` distinct flows to keep memory bounded under
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


class InProcessEngine:
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
        if shards < 1:
            raise ValueError(f"need at least 1 shard, got {shards}")
        if slots is None:
            slots = shards
        if slots < shards:
            raise ValueError(
                f"need at least as many slots as shards, got {slots} slots "
                f"for {shards} shards"
            )
        if queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be positive, got {queue_capacity}"
            )
        if overflow not in OVERFLOW_POLICIES:
            raise ValueError(
                f"overflow must be one of {OVERFLOW_POLICIES}, got {overflow!r}"
            )
        self.config = config
        self.queue_capacity = queue_capacity
        self.overflow = overflow
        self._store_factory = store_factory
        self._slot_detectors: List[EARDet] = [
            EARDet(config, store_factory=store_factory) for _ in range(slots)
        ]
        self.invariant_every = invariant_every
        if invariant_every is not None:
            for detector in self._slot_detectors:
                self._attach_checker(detector)
        self._hash = StageHash(seed=seed, buckets=slots)
        self._route = FlowRouter(self._hash)
        self._layout = ShardLayout.default(slots, shards)
        self._assignment: List[int] = list(self._layout.assignment)
        # Queued items carry the slot the packet was routed to at ingest,
        # so draining never hashes a flow a second time.
        self._queues: List[Deque[Tuple[int, Packet]]] = [
            deque() for _ in range(shards)
        ]
        self._dropped = [0] * shards
        self._accepted = 0
        self._plan = fault_plan
        self._dead_letter = dead_letter
        # Loss accounting for the exactness envelope: per-shard arrival
        # index (packets ever routed to the shard, processed or not),
        # first-loss timestamp, and loss mechanism.
        self._routed = [0] * shards
        self._first_loss: List[Optional[int]] = [None] * shards
        self._loss_reason = [""] * shards
        # Operational telemetry: per-shard queue high-water mark and the
        # stream timestamp of the last packet routed to each shard.
        self._queue_high_water = [0] * shards
        self._last_packet_ts: List[Optional[int]] = [None] * shards
        self.overload_policy = overload
        self._overload: Optional[List[ShardOverload[Packet]]] = None
        if overload is not None:
            self._overload = [
                ShardOverload(overload, Packet) for _ in range(shards)
            ]
        if watcher is not None and watcher.shard_count != slots:
            raise ValueError(
                f"watcher stage has {watcher.shard_count} watchers, engine "
                f"has {slots} slots (the stage is slot-granular)"
            )
        self.watcher = watcher

    def _attach_checker(self, detector: EARDet) -> None:
        from ..guard import InvariantChecker

        detector.attach_checker(InvariantChecker(self.invariant_every))

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
        """Packets accepted into queues (processed or still pending)."""
        return self._accepted

    @property
    def dropped(self) -> int:
        """Total packets shed by the ``drop`` overflow policy."""
        return sum(self._dropped)

    @property
    def routed(self) -> List[int]:
        """Per-shard arrival counts (the coordinator's load signal)."""
        return list(self._routed)

    def slot_of(self, fid: FlowId) -> int:
        """Which slot a flow hashes to (layout-independent)."""
        return self._route(fid)

    def shard_of(self, fid: FlowId) -> int:
        """Which shard currently hosts a flow's slot."""
        return self._assignment[self._route(fid)]

    def queue_depths(self) -> List[int]:
        """Current pending-packet count per shard (cheap; no drain)."""
        return [len(queue) for queue in self._queues]

    @property
    def queue_high_water(self) -> List[int]:
        """Highest queue depth each shard has reached."""
        return list(self._queue_high_water)

    @property
    def last_packet_ts(self) -> List[Optional[int]]:
        """Stream timestamp of the last packet routed to each shard."""
        return list(self._last_packet_ts)

    def detector_groups(self) -> List[List[EARDet]]:
        """Per-shard lists of hosted slot detectors (telemetry sync)."""
        return [
            [self._slot_detectors[slot] for slot in self._layout.slots_of(s)]
            for s in range(self._layout.shards)
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
        depth = len(queue)
        if depth > self._queue_high_water[index]:
            self._queue_high_water[index] = depth

    def pump(self, budget: Optional[int] = None) -> int:
        """Drain up to ``budget`` packets from each shard queue (the
        worker-capacity model under an armed overload policy; defaults
        to the policy's ``drain_budget``).  Returns packets processed.
        ``None`` budget (and no policy default) drains fully."""
        if budget is None and self.overload_policy is not None:
            budget = self.overload_policy.drain_budget
        processed = 0
        detectors = self._slot_detectors
        for queue in self._queues:
            remaining = budget
            while queue and (remaining is None or remaining > 0):
                slot, packet = queue.popleft()
                detectors[slot].observe(packet)
                processed += 1
                if remaining is not None:
                    remaining -= 1
        return processed

    def _record_loss(
        self,
        index: int,
        packet: Packet,
        reason: str,
        slot: Optional[int] = None,
    ) -> None:
        self._dropped[index] += 1
        if self._first_loss[index] is None:
            self._first_loss[index] = packet.time
            self._loss_reason[index] = reason
        if self._dead_letter is not None:
            # The consistent dead-letter tuple: shard, slot, 1-based
            # shard-local arrival index (== routed count at loss time).
            self._dead_letter.record(
                packet, index, reason, slot=slot, index=self._routed[index]
            )

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
        detectors = self._slot_detectors
        while queue:
            slot, packet = queue.popleft()
            detectors[slot].observe(packet)

    def close(self, drain: bool = False) -> None:
        """Drain and release; the in-process engine holds no OS resources.
        ``drain`` exists for interface parity with the multiprocess
        engine (there it selects the drain exit code); the drain work —
        flushing rung buffers and queues — happens either way."""
        self.flush()

    def terminate(self) -> None:
        """Abandon pending work without draining (the supervisor's
        teardown path after a crash — the restored checkpoint supersedes
        whatever is still queued)."""
        for queue in self._queues:
            queue.clear()

    # -- hot reconfiguration -----------------------------------------------

    def apply_config(self, config: EARDetConfig) -> None:
        """Swap every slot detector onto ``config`` at the current packet
        boundary (the control plane's apply step).

        Queues are flushed first, so the swap lands at an exact stream
        boundary; each slot's state is snapshotted, adapted via
        :func:`repro.core.eardet.reconfigure_state`, and restored into a
        detector built with the new configuration.  Build-all-then-swap:
        nothing is replaced until every slot has adapted successfully,
        so a typed failure (e.g. live occupancy above the new ``n``)
        leaves the engine exactly as it was.  Rollback is simply
        ``apply_config(old_config)``.
        """
        self.flush()
        rebuilt: List[EARDet] = []
        for detector in self._slot_detectors:
            state = reconfigure_state(detector.snapshot(), config)
            replacement = EARDet(config, store_factory=self._store_factory)
            replacement.restore(state)
            if self.invariant_every is not None:
                self._attach_checker(replacement)
            rebuilt.append(replacement)
        self._slot_detectors = rebuilt
        self.config = config

    # -- live migration ----------------------------------------------------

    def prepare_migration(self, plan: MigrationPlan) -> None:
        """Freeze phase: release the overload ladders' rung buffers
        (deferred/aggregated packets must cross the cut in per-flow
        arrival order), drain every pending packet so the moving slots'
        state is at the stream boundary, and provision any new shards
        the plan targets."""
        plan.validate(self._layout)
        self.flush()
        self._ensure_shards(plan.target_shards)

    def extract_slots(self, slot_ids: List[int]) -> Dict[int, Dict[str, object]]:
        """Extract phase: snapshot the moving slots' detectors and
        detach them from the engine (an extracted slot must not observe
        a packet until it is installed somewhere)."""
        extracted: Dict[int, Dict[str, object]] = {}
        for slot in slot_ids:
            detector = self._slot_detectors[slot]
            if detector is None:
                continue
            extracted[slot] = detector.snapshot()
            self._slot_detectors[slot] = None  # type: ignore[call-overload]
        return extracted

    def install_slots(
        self,
        slot_states: Dict[int, Dict[str, object]],
        assignment: Dict[int, int],
    ) -> None:
        """Install phase: rebuild each extracted slot's detector from
        its (decode-verified) state.  ``assignment`` names the hosting
        shard per slot — in this single-address-space engine the
        detector list is slot-indexed, so hosting only needs the target
        shard's runtime arrays to exist."""
        for slot, shard in assignment.items():
            if shard >= self._layout.shards and shard >= len(self._queues):
                raise ValueError(
                    f"slot {slot} targets shard {shard}, which was never "
                    f"provisioned (prepare_migration not run?)"
                )
        for slot, state in slot_states.items():
            detector = EARDet(self.config, store_factory=self._store_factory)
            detector.restore(state)
            if self.invariant_every is not None:
                self._attach_checker(detector)
            self._slot_detectors[slot] = detector

    def commit_layout(self, layout: ShardLayout) -> None:
        """Cutover phase: atomically swap the slot→shard assignment.
        Refuses to commit while any moved slot is still detached."""
        if layout.slots != self._layout.slots:
            raise ValueError(
                f"layout has {layout.slots} slots, engine has "
                f"{self._layout.slots}"
            )
        missing = [
            slot
            for slot, detector in enumerate(self._slot_detectors)
            if detector is None
        ]
        if missing:
            raise ValueError(
                f"cannot commit layout: slots {missing} are extracted but "
                "not installed"
            )
        self._ensure_shards(layout.shards)
        self._layout = layout
        self._assignment = list(layout.assignment)

    def abort_migration(
        self,
        plan: MigrationPlan,
        extracted: Dict[int, Dict[str, object]],
    ) -> None:
        """Rollback: reinstall the extracted states under the
        pre-migration assignment.  The detector list is slot-indexed and
        installs overwrite, so a partially installed copy is simply
        rebuilt from the same extracted state; plan slots that were
        never extracted are still live and must not be touched.  The
        layout was never swapped (commit is the last step), so routing
        is already correct once the state is back."""
        if extracted:
            self.install_slots(extracted, plan.assignment_before())

    def _ensure_shards(self, shards: int) -> None:
        """Grow the per-shard runtime arrays (queues, ladders, loss
        accounting) to host ``shards`` shards.  Never shrinks — a merged-
        away shard stays as an idle hot spare."""
        current = len(self._queues)
        if shards <= current:
            return
        grow = shards - current
        self._queues.extend(deque() for _ in range(grow))
        self._dropped.extend([0] * grow)
        self._routed.extend([0] * grow)
        self._first_loss.extend([None] * grow)
        self._loss_reason.extend([""] * grow)
        self._queue_high_water.extend([0] * grow)
        self._last_packet_ts.extend([None] * grow)
        if self._overload is not None:
            self._overload.extend(
                ShardOverload(self.overload_policy, Packet)
                for _ in range(grow)
            )

    # -- results -----------------------------------------------------------

    def detections(self) -> Dict[FlowId, int]:
        """Union of per-slot first-detection reports (flows are disjoint
        across slots, so the union is conflict-free)."""
        sink = ReportSink()
        for detector in self._slot_detectors:
            sink.merge(detector.sink)
        return sink.as_dict()

    def health(self) -> List[ShardHealth]:
        """A point-in-time per-shard health sample (slot state
        aggregated onto the hosting shard)."""
        states = self._overload
        layout = self._layout
        watcher = self.watcher
        samples = []
        for index in range(layout.shards):
            slots = layout.slots_of(index)
            detectors = [self._slot_detectors[slot] for slot in slots]
            samples.append(
                ShardHealth(
                    shard=index,
                    packets=sum(d.stats.packets for d in detectors),
                    queue_depth=len(self._queues[index]),
                    queue_capacity=self.queue_capacity,
                    detections=sum(len(d.sink) for d in detectors),
                    blacklist_size=sum(len(d.blacklist) for d in detectors),
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

    # -- checkpointing -----------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Exact engine state at the current packet boundary.

        Drains all queues first so the captured slot states correspond to
        exactly the packets accepted so far; the result is plain Python
        data ready for :func:`repro.service.checkpoint.write_checkpoint`.
        """
        self.flush()
        layout = self._layout
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
            # Arrival indices, stored explicitly because under an
            # AGGREGATED ladder rung shard packet counts no longer equal
            # routed - dropped (aggregates merge many arrivals into one).
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
            "shards": [
                detector.snapshot() for detector in self._slot_detectors
            ],
        }

    def restore(self, state: Dict[str, object]) -> None:
        """Restore an engine snapshot (from this or the multiprocess
        engine — the schema is shared).

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
        slot_states = state["shards"]
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
        for queue in self._queues:
            queue.clear()
        self._ensure_shards(layout.shards)
        self._layout = layout
        self._assignment = list(layout.assignment)
        for detector, slot_state in zip(self._slot_detectors, slot_states):
            detector.restore(slot_state)
        shards = layout.shards

        def _per_shard(key, default):
            values = state.get(key)
            if not values:
                return [default] * shards
            values = list(values)
            return values + [default] * (shards - len(values))

        self._dropped = _per_shard("dropped", 0)
        self._accepted = state["accepted"]
        self._first_loss = _per_shard("first_loss", None)
        self._loss_reason = _per_shard("loss_reason", "")
        self._queue_high_water = _per_shard("queue_high_water", 0)
        self._last_packet_ts = _per_shard("last_packet_ts", None)
        # Arrival indices resume exactly: newer checkpoints store them;
        # older ones are recomputed (a checkpoint is taken drained, so
        # each shard's arrivals = packets processed + packets dropped —
        # valid because pre-overload checkpoints never aggregated, and
        # pre-reshard checkpoints host exactly one slot per shard).
        routed = state.get("routed")
        if routed is not None:
            self._routed = list(routed) + [0] * (shards - len(routed))
        else:
            self._routed = [
                slot_state["stats"]["packets"] + dropped
                for slot_state, dropped in zip(slot_states, self._dropped)
            ]
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
            f"InProcessEngine(shards={self._layout.shards}, "
            f"slots={self._layout.slots}, epoch={self._layout.epoch}, "
            f"accepted={self._accepted}, dropped={self.dropped})"
        )
