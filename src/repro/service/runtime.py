"""Service lifecycle: serve a source, checkpoint periodically, recover.

:class:`DetectionService` ties the pieces together into the deployable
runtime behind ``eardet serve``:

- pulls batches from a :class:`~repro.service.sources.PacketSource`;
- feeds a sharded engine (in-process or multiprocess);
- writes an exact checkpoint every ``checkpoint_every`` ingested packets
  (aligned to batch boundaries, atomically, to ``checkpoint_path``);
- on shutdown, drains the queues gracefully and reports per-shard health;
- on restart after a crash, :meth:`DetectionService.resume` reloads the
  last checkpoint and replays the source from the checkpoint boundary —
  and because the snapshot layer is exact, the recovered run's
  detections, detection timestamps, counters and stats are identical to
  an uninterrupted run's (asserted end-to-end in
  ``tests/test_service.py``).

The checkpoint's ``meta`` block records everything needed to rebuild a
compatible service (config primitives, shard count, hash seed, engine
kind) plus the stream position; ``eardet checkpoint inspect`` renders it.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterable, List, Optional, Union

from ..core.config import EARDetConfig, config_as_dict
from ..model.packet import Packet
from .backoff import BackoffPolicy
from .checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from .engine import DEFAULT_QUEUE_CAPACITY, InProcessEngine
from .errors import TransitionError
from .health import DeadLetterSink, ServiceReport, ShardHealth
from .overload import OverloadPolicy
from .pipeline import WatcherPolicy, WatcherStage
from .reshard import (
    Coordinator,
    CoordinatorPolicy,
    MigrationPlan,
    MigrationReport,
    execute_migration,
)
from .sources import DEFAULT_BATCH_SIZE, PacketSource, as_source
from .workers import MultiprocessEngine

#: Checkpoint meta schema version.
CHECKPOINT_META_FORMAT = 1

#: Constructor keywords a checkpoint fixes: :meth:`DetectionService.
#: resume` takes them from the checkpoint (changing shards, seed or slots
#: would re-route flows and void exactness), so callers forwarding a
#: fresh service's options to ``resume`` drop these.
CHECKPOINT_RECORDED = ("shards", "seed", "slots", "checkpoint_path")

ENGINE_KINDS = ("inprocess", "multiprocess", "remote")


class _NamedSource:
    """Stand-in source for out-of-loop checkpoint writes — only the
    recorded source name matters at that point."""

    def __init__(self, name: str):
        self.name = name


def _build_engine(
    kind: str,
    config: EARDetConfig,
    shards: int,
    seed: int,
    queue_capacity: int,
    overflow: str,
    fault_plan=None,
    dead_letter: Optional[DeadLetterSink] = None,
    invariant_every: Optional[int] = None,
    overload: Optional[OverloadPolicy] = None,
    watcher: Optional[WatcherStage] = None,
    slots: Optional[int] = None,
    engine_options: Optional[Dict[str, object]] = None,
):
    options = dict(engine_options or {})
    # The routing-side options every transport shares.
    routing = dict(
        seed=seed,
        fault_plan=fault_plan,
        dead_letter=dead_letter,
        invariant_every=invariant_every,
        overload=overload,
        watcher=watcher,
        slots=slots,
    )
    if kind == "remote":
        from .remote import RemoteEngine

        workers = options.pop("workers", None)
        if not workers:
            raise ValueError(
                "the remote engine needs worker endpoints: pass "
                "engine_options={'workers': ['host:port', ...]} "
                "(the --workers flag)"
            )
        if overflow != "block":
            raise ValueError(
                "the remote engine only supports overflow='block' "
                "(its unacked-frame rings backpressure the producer)"
            )
        return RemoteEngine(
            config, workers, shards=shards, **routing, **options
        )
    if kind == "inprocess":
        if options:
            raise ValueError(
                f"the in-process engine takes no engine options, got "
                f"{sorted(options)}"
            )
        return InProcessEngine(
            config,
            shards=shards,
            queue_capacity=queue_capacity,
            overflow=overflow,
            **routing,
        )
    if kind == "multiprocess":
        if overflow != "block":
            raise ValueError(
                "the multiprocess engine only supports overflow='block' "
                "(its bounded queues block the producer)"
            )
        return MultiprocessEngine(config, shards=shards, **routing, **options)
    raise ValueError(f"engine must be one of {ENGINE_KINDS}, got {kind!r}")


class DetectionService:
    """A long-lived sharded detection runtime with exact checkpoints.

    Parameters
    ----------
    config:
        EARDet configuration applied to every shard.
    shards:
        Worker shard count.
    engine:
        ``"inprocess"`` (deterministic, single-threaded),
        ``"multiprocess"`` (one process per shard, for throughput) or
        ``"remote"`` (one TCP shard server per shard, possibly on other
        hosts; see :mod:`repro.service.remote`).
    seed:
        Flow-to-shard hash seed.
    checkpoint_path:
        Where to write checkpoints; None disables checkpointing.
    checkpoint_every:
        Checkpoint interval in ingested packets (aligned down to batch
        boundaries); None checkpoints only on graceful shutdown.
    batch_size:
        Packets pulled from the source per batch.
    queue_capacity / overflow:
        Forwarded to the engine (see :mod:`repro.service.engine`).
    fault_plan:
        Optional :class:`~repro.service.faults.FaultPlan`; forwarded to
        the engine (kills/stalls/drops) and consulted after every
        checkpoint write (checkpoint-corruption faults).
    dead_letter:
        Optional :class:`~repro.service.health.DeadLetterSink` shared
        with the engine; its total is surfaced in the report.
    invariant_every:
        When set, every shard detector runs under an
        :class:`~repro.guard.invariants.InvariantChecker` sampling the
        paper's algorithm-state invariants once per that many
        shard-local packets (see :mod:`repro.guard`).
    telemetry:
        Optional :class:`~repro.telemetry.Telemetry` context.  When given
        (and enabled), the service syncs its exact accumulators into the
        metric registry once per ingested batch and traces checkpoint
        writes; when None (the default) the hot path pays a single
        ``is None`` test per batch.  Telemetry never alters detection
        behaviour — runs with and without it are bit-identical.
    overload:
        Optional :class:`~repro.service.overload.OverloadPolicy`
        arming the degradation ladder on the engine (see
        :mod:`repro.service.overload`).  On the in-process engine the
        serve loop additionally pumps each shard's staged packets under
        the policy's ``drain_budget`` per batch.
    checkpoint_backoff:
        Optional :class:`~repro.service.backoff.BackoffPolicy` retrying
        transient checkpoint-write failures (``OSError``); None keeps
        the historical fail-fast behaviour.
    watcher:
        Optional :class:`~repro.service.pipeline.WatcherPolicy` arming a
        per-shard ambiguity-region watcher stage (CLEF's twin RLFDs or
        LOFT).  The stage taps the routing point, never feeds the exact
        shards, and its probabilistic verdicts are reported in the
        :class:`ServiceReport`'s separate ``watcher`` section — exact
        detections stay bit-identical with or without it.  The stage's
        state checkpoints and resumes with the engine.
    slots:
        Flow-keyed routing granularity (see
        :mod:`repro.service.reshard`).  Flows hash into ``slots``
        sub-streams; a versioned layout maps slots onto shards, and live
        migrations move whole slots between shards without perturbing
        detections.  Defaults to ``shards`` (one slot per shard — the
        historical layout, with no resharding headroom).  Like the seed,
        it must never change across a resume.
    engine_options:
        Engine-specific constructor options.  The multiprocess engine
        accepts ``terminate_grace_s`` (the ``--terminate-grace`` flag);
        the remote engine **requires** ``workers`` (a list of
        ``host:port`` endpoints, the ``--workers`` flag) and accepts its
        partition-policy knobs (``mask_deadline_s``,
        ``mask_frame_limit``, ``backoff``, ...).  Deployment-specific —
        never recorded in checkpoints, so pass it again on resume.
    coordinator:
        Optional :class:`~repro.service.reshard.CoordinatorPolicy`
        arming the elastic coordinator: per-shard load is observed once
        per batch and, when skew persists past the policy's hysteresis,
        a split/merge plan is executed through :meth:`apply_migration`
        at the batch boundary.  A rolled-back migration is an incident,
        not a crash — the serve loop keeps going on the old layout.
    controller:
        Optional :class:`~repro.control.ControlPolicy` (or a
        pre-built :class:`~repro.control.Controller`) arming the
        adaptive control plane: once per ``every_batches`` batches the
        controller scrapes the telemetry registry, evaluates the SLO
        burn-rate rules, and — under sustained pressure or slack —
        proposes a new configuration via the Appendix-A solver, which
        the serve loop executes through :meth:`apply_retune` at the
        batch boundary.  Each committed retune advances the **config
        epoch**; a rolled-back retune is an incident, not a crash.
        Requires enabled ``telemetry`` (the controller reads only the
        registry, never the hot path).
    forensics:
        Optional :class:`~repro.forensics.ForensicsLab` (the
        ``--forensics-dir`` flag).  Once per batch the serve loop feeds
        the lab's capture ring and scans the engine's forensic surfaces
        for new events; every checkpoint re-baselines the capture window
        at zero extra snapshot cost.  When armed without an explicit
        ``dead_letter`` sink, one is created automatically — positional
        losses must be recorded for replay bundles to re-inject them.
        Forensics never alters detection behaviour: runs with and
        without it are bit-identical.
    """

    def __init__(
        self,
        config: EARDetConfig,
        shards: int = 1,
        engine: str = "inprocess",
        seed: int = 0,
        checkpoint_path: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        overflow: str = "block",
        clock: Callable[[], float] = time.perf_counter,
        fault_plan=None,
        dead_letter: Optional[DeadLetterSink] = None,
        invariant_every: Optional[int] = None,
        telemetry=None,
        overload: Optional[OverloadPolicy] = None,
        checkpoint_backoff: Optional[BackoffPolicy] = None,
        watcher: Optional[WatcherPolicy] = None,
        slots: Optional[int] = None,
        coordinator: Optional[CoordinatorPolicy] = None,
        engine_options: Optional[Dict[str, object]] = None,
        forensics=None,
        controller=None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise ValueError(
                f"checkpoint interval must be positive, got {checkpoint_every}"
            )
        if checkpoint_every is not None and checkpoint_path is None:
            raise ValueError("checkpoint_every requires checkpoint_path")
        self.config = config
        self.engine_kind = engine
        self.shards = shards
        self.slots = slots if slots is not None else shards
        self.seed = seed
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.batch_size = batch_size
        self.fault_plan = fault_plan
        self.forensics = forensics
        if forensics is not None and dead_letter is None:
            # Replay bundles re-inject positional losses from the
            # dead-letter detail; forensics without a sink would capture
            # provably-incomplete bundles whenever anything is dropped.
            dead_letter = DeadLetterSink()
        self.dead_letter = dead_letter
        self.invariant_every = invariant_every
        self.overload = overload
        self.checkpoint_backoff = checkpoint_backoff
        self._clock = clock
        self.watcher_policy = watcher
        # The watcher stage is slot-granular: each slot's watcher sees
        # that slot's hash sub-stream no matter which shard hosts it, so
        # watcher verdicts are layout-invariant too.
        self._watcher = (
            WatcherStage(watcher, config, self.slots)
            if watcher is not None
            else None
        )
        self.engine_options = engine_options
        self._engine = _build_engine(
            engine, config, shards, seed, queue_capacity, overflow,
            fault_plan=fault_plan, dead_letter=dead_letter,
            invariant_every=invariant_every, overload=overload,
            watcher=self._watcher, slots=slots,
            engine_options=engine_options,
        )
        self.coordinator_policy = coordinator
        self._coordinator = (
            Coordinator(coordinator) if coordinator is not None else None
        )
        self._controller = None
        if controller is not None:
            # Lazy import: repro.control imports service submodules, so a
            # top-level import here would cycle through the package init.
            from ..control.controller import ControlPolicy, Controller

            if isinstance(controller, ControlPolicy):
                controller = Controller(controller)
            if not isinstance(controller, Controller):
                raise ValueError(
                    "controller must be a ControlPolicy or Controller, "
                    f"got {type(controller).__name__}"
                )
            if telemetry is None or not telemetry.enabled:
                raise ValueError(
                    "the adaptive controller requires enabled telemetry "
                    "(it retunes from registry scrapes, never the hot path)"
                )
            self._controller = controller
        self._config_epoch = 0
        self._retunes = 0
        self._retune_infeasibles = 0
        self._last_retune_pause_ns: Optional[int] = None
        #: Solver inputs of the last committed plan — the checkpoint's
        #: ``inputs`` fallback for controller-less manual retunes
        #: (``eardet tune --apply``).
        self._last_retune_inputs: Optional[Dict[str, object]] = None
        self._epoch_history: List[Dict[str, object]] = [
            {"epoch": 0, "from_packets": 0, "config": config_as_dict(config)}
        ]
        self._migrations = 0
        #: Per transition kind (``migration``, ``retune``): transitions
        #: attempted (the index fault clauses are keyed on) and terminal
        #: rollbacks.
        self._attempted = {"migration": 0, "retune": 0}
        self._rollbacks = {"migration": 0, "retune": 0}
        self._last_pause_ns: Optional[int] = None
        self._ingested = 0
        self._resumed_from = 0
        self._checkpoints_written = 0
        self._last_source: Optional[PacketSource] = None
        self._drain_requested = False
        self._drained = False
        self.telemetry = telemetry
        self._instruments = None
        if telemetry is not None and telemetry.enabled:
            from ..telemetry import ServiceInstruments

            self._instruments = ServiceInstruments(telemetry)
            self._instruments.bind_shards(
                shards, self._engine.backlog_capacity
            )
        if forensics is not None and self._instruments is not None:
            forensics.bind_instruments(self._instruments)

    # -- recovery ----------------------------------------------------------

    @classmethod
    def resume(
        cls,
        checkpoint_path: str,
        engine: Optional[str] = None,
        checkpoint_every: Optional[int] = None,
        watcher: Optional[WatcherPolicy] = None,
        **options,
    ) -> "DetectionService":
        """Rebuild a service from its last checkpoint.

        The engine kind may be switched on resume (snapshots are engine-
        agnostic); the :data:`CHECKPOINT_RECORDED` keywords and the
        config come from the checkpoint because changing them would
        re-route flows and void exactness (the engine additionally
        adopts the checkpoint's live layout, which a past migration may
        have moved off the identity assignment).  The watcher policy
        likewise comes from the checkpoint (its state rides in the
        engine snapshot); an explicit ``watcher`` argument overrides it
        but must match the recorded policy for the saved stage state to
        restore.  ``options`` are the other constructor keywords.
        """
        payload = read_checkpoint(checkpoint_path)
        meta = payload["meta"]
        if meta.get("format") != CHECKPOINT_META_FORMAT:
            raise CheckpointError(
                f"unsupported checkpoint meta format {meta.get('format')!r}"
            )
        config = EARDetConfig(**meta["config"])
        if watcher is None and meta.get("watcher") is not None:
            watcher = WatcherPolicy.from_dict(meta["watcher"])
        service = cls(
            config,
            shards=meta["shards"],
            engine=engine or meta["engine"],
            seed=meta["seed"],
            checkpoint_path=checkpoint_path,
            checkpoint_every=(
                checkpoint_every
                if checkpoint_every is not None
                else meta.get("checkpoint_every")
            ),
            watcher=watcher,
            slots=meta.get("slots"),
            **options,
        )
        service._engine.restore(payload["engine"])
        service._ingested = meta["packets"]
        service._resumed_from = meta["packets"]
        control_meta = meta.get("control")
        if control_meta is not None:
            # The checkpoint's config IS the newest epoch's config (the
            # service above was built under it); restoring the epoch
            # number and history keeps report stamps and future capture
            # bundles consistent across the resume.
            service._config_epoch = control_meta.get("epoch", 0)
            history = control_meta.get("history")
            if history:
                service._epoch_history = [dict(entry) for entry in history]
            inputs = control_meta.get("inputs")
            if inputs is not None:
                service._last_retune_inputs = dict(inputs)
        return service

    # -- properties --------------------------------------------------------

    @property
    def ingested(self) -> int:
        """Packets pulled from the source so far (including any prefix
        covered by a resumed checkpoint)."""
        return self._ingested

    @property
    def engine(self):
        """The underlying engine (for inspection and tests)."""
        return self._engine

    @property
    def watcher(self) -> Optional[WatcherStage]:
        """The armed ambiguity-region watcher stage, or None."""
        return self._watcher

    @property
    def coordinator(self) -> Optional[Coordinator]:
        """The armed elastic coordinator, or None."""
        return self._coordinator

    def health(self) -> List[ShardHealth]:
        """Live per-shard health."""
        return self._engine.health()

    # -- resharding --------------------------------------------------------

    def apply_migration(
        self,
        plan: MigrationPlan,
        attempts: Optional[int] = None,
        timeout_s: Optional[float] = None,
        backoff: Optional[BackoffPolicy] = None,
    ) -> MigrationReport:
        """Execute a migration plan at the current batch boundary.

        Runs the two-phase freeze/extract → install/cutover protocol
        (see :func:`repro.service.reshard.execute_migration`) with this
        service's fault plan armed, counts the outcome, and — on a
        rolled-back failure — records a forensic event in the
        dead-letter sink before re-raising the
        :class:`~repro.service.errors.MigrationError`.
        """
        report = self._run_transition(
            "migration",
            self._coordinator,
            attempts,
            timeout_s,
            lambda attempts, timeout_s, index: execute_migration(
                self._engine,
                plan,
                attempts=attempts,
                backoff=backoff,
                timeout_s=timeout_s,
                fault_plan=self.fault_plan,
                migration_index=index,
            ),
        )
        self._migrations += 1
        self._last_pause_ns = report.pause_ns
        if self._coordinator is not None:
            self._coordinator.note_result(committed=True)
        if self._instruments is not None:
            # Re-bind per-shard channels if the migration grew the fleet,
            # then refresh the reshard gauges immediately.
            self._instruments.bind_shards(
                self._engine.shard_count, self._engine.backlog_capacity
            )
            self._instruments.sync_reshard(self._reshard_report())
        return report

    def _run_transition(self, kind: str, owner, attempts, timeout_s, execute):
        """What :meth:`apply_migration` and :meth:`apply_retune` share:
        ``attempts`` and ``timeout_s`` default to the ``owner``'s
        (coordinator's or controller's) policy, then ``execute(attempts,
        timeout_s, index)`` runs as the run's ``index``-th transition of
        ``kind``; a terminal :class:`TransitionError` is counted, re-arms
        the owner's cooldown and leaves a ``<kind>-rollback`` event in
        the dead-letter sink before it is re-raised."""
        policy = owner.policy if owner is not None else None
        if attempts is None:
            attempts = policy.attempts if policy is not None else 3
        if timeout_s is None:
            timeout_s = policy.timeout_s if policy is not None else 30.0
        self._attempted[kind] += 1
        try:
            return execute(attempts, timeout_s, self._attempted[kind])
        except TransitionError as error:
            self._rollbacks[kind] += 1
            if owner is not None:
                owner.note_result(committed=False)
            if self.dead_letter is not None:
                self.dead_letter.record_event(
                    f"{kind}-rollback",
                    {
                        "phase": error.phase,
                        "attempts": error.attempts,
                        "rolled_back": error.rolled_back,
                        "plan": error.plan,
                        "error": str(error),
                    },
                )
            raise

    def _reshard_report(self) -> Optional[Dict[str, object]]:
        """The report's resharding section, or None while trivial (the
        initial identity layout, no coordinator, no migrations ever)."""
        layout = self._engine.layout
        trivial = (
            layout.epoch == 0
            and layout.is_identity
            and self._coordinator is None
            and self._migrations == 0
            and self._rollbacks["migration"] == 0
        )
        if trivial:
            return None
        return {
            "layout": layout.as_dict(),
            "migrations": self._migrations,
            "rollbacks": self._rollbacks["migration"],
            "last_pause_ns": self._last_pause_ns,
            "coordinator": (
                self._coordinator.report()
                if self._coordinator is not None
                else None
            ),
        }

    def _coordinate(self) -> None:
        """Per-batch coordinator tick: observe load, execute a proposed
        plan, absorb a rolled-back failure as an incident."""
        self._absorb_rollback(
            self.apply_migration, self._coordinator.observe(self._engine)
        )

    @staticmethod
    def _absorb_rollback(apply, plan) -> None:
        """Run ``apply(plan)`` for a plan a tick proposed (None: no-op).
        A cleanly rolled-back failure is an incident, not a crash: the
        old layout or config is intact and serving stays exact (the
        forensic record is in the dead-letter sink and the owner's
        cooldown is re-armed).  A failed rollback leaves state suspect,
        so that error propagates for the supervisor to restore."""
        if plan is None:
            return
        try:
            apply(plan)
        except TransitionError as error:
            if not error.rolled_back:
                raise

    # -- adaptive control (hot reconfiguration) ----------------------------

    @property
    def controller(self):
        """The armed adaptive controller, or None."""
        return self._controller

    @property
    def config_epoch(self) -> int:
        """The current configuration epoch (0 until the first committed
        retune; each commit increments it)."""
        return self._config_epoch

    def apply_retune(
        self,
        plan,
        attempts: Optional[int] = None,
        timeout_s: Optional[float] = None,
        backoff: Optional[BackoffPolicy] = None,
    ):
        """Execute a retune plan at the current batch boundary.

        Runs the five-phase propose → freeze → apply → verify → commit
        protocol (see :func:`repro.control.retune.execute_retune`) with
        this service's fault plan armed.  On commit the config epoch
        advances and the transition is recorded in the epoch history
        (which checkpoints, and which forensic capture bundles carry so
        replay re-derives the transition); on a rolled-back failure a
        forensic event lands in the dead-letter sink before the
        :class:`~repro.service.errors.RetuneError` is re-raised.
        """
        from ..control.retune import execute_retune

        report = self._run_transition(
            "retune",
            self._controller,
            attempts,
            timeout_s,
            lambda attempts, timeout_s, index: execute_retune(
                self._engine,
                plan,
                attempts=attempts,
                backoff=backoff,
                timeout_s=timeout_s,
                fault_plan=self.fault_plan,
                retune_index=index,
                from_epoch=self._config_epoch,
            ),
        )
        self._retunes += 1
        self._config_epoch = report.to_epoch
        self.config = plan.new_config
        self._last_retune_pause_ns = report.pause_ns
        self._last_retune_inputs = dict(plan.inputs)
        self._epoch_history.append(
            {
                "epoch": report.to_epoch,
                "from_packets": self._ingested,
                "config": config_as_dict(plan.new_config),
            }
        )
        if self.dead_letter is not None:
            self.dead_letter.record_event(
                "retune",
                {
                    "from_epoch": report.from_epoch,
                    "to_epoch": report.to_epoch,
                    "from_packets": self._ingested,
                    "plan": plan.describe(),
                    "reason": plan.reason,
                    "pause_ns": report.pause_ns,
                },
            )
        if self._controller is not None:
            self._controller.note_result(committed=True, plan=plan)
        if self._instruments is not None:
            self._instruments.sync_control(self._control_summary())
        return report

    def _control_tick(self) -> None:
        """Per-batch controller tick: scrape telemetry on cadence,
        execute a proposed retune, absorb a rolled-back failure as an
        incident (like :meth:`_coordinate`)."""
        controller = self._controller
        plan = controller.tick(self.telemetry.registry, self.config)
        infeasible = controller.take_infeasible()
        if infeasible is not None:
            self._retune_infeasibles += 1
            if self.dead_letter is not None:
                self.dead_letter.record_event("retune-infeasible", infeasible)
        self._absorb_rollback(self.apply_retune, plan)

    def config_dict_at(self, packets: int) -> Dict[str, object]:
        """The seven-field config in force at stream position
        ``packets`` (the newest epoch whose ``from_packets`` is ≤ it) —
        what a replay starting from that position must begin under."""
        current = self._epoch_history[0]["config"]
        for entry in self._epoch_history:
            if entry["from_packets"] <= packets:
                current = entry["config"]
            else:
                break
        return dict(current)

    def config_transitions_after(self, packets: int) -> List[Dict[str, object]]:
        """Epoch transitions strictly after stream position ``packets``
        (for capture bundles: the transitions a replay of the window
        ``(packets, ingested]`` must re-apply, in order)."""
        return [
            dict(entry)
            for entry in self._epoch_history
            if entry["from_packets"] > packets
        ]

    def _control_summary(self) -> Dict[str, object]:
        """Cheap per-batch scalars for the telemetry instruments (no
        history copies — this runs on the hot path's sync)."""
        return {
            "epoch": self._config_epoch,
            "retunes": self._retunes,
            "rollbacks": self._rollbacks["retune"],
            "infeasibles": self._retune_infeasibles,
            "last_pause_ns": self._last_retune_pause_ns,
        }

    def _control_report(self) -> Optional[Dict[str, object]]:
        """The report's control section, or None while trivial (epoch 0,
        no controller, no retune ever attempted)."""
        trivial = (
            self._config_epoch == 0
            and self._controller is None
            and self._retunes == 0
            and self._rollbacks["retune"] == 0
            and self._retune_infeasibles == 0
        )
        if trivial:
            return None
        return {
            "epoch": self._config_epoch,
            "config": config_as_dict(self.config),
            "retunes": self._retunes,
            "rollbacks": self._rollbacks["retune"],
            "infeasibles": self._retune_infeasibles,
            "last_pause_ns": self._last_retune_pause_ns,
            "history": [dict(entry) for entry in self._epoch_history],
            "controller": (
                self._controller.report()
                if self._controller is not None
                else None
            ),
        }

    # -- graceful drain ----------------------------------------------------

    @property
    def drain_requested(self) -> bool:
        return self._drain_requested

    def request_drain(self) -> None:
        """Ask the serve loop to stop at the next batch boundary and
        drain: flush in-flight batches (including ladder rung buffers),
        emit final detections, and write the terminal checkpoint.

        Safe to call from a signal handler or another thread — it only
        sets a flag the serve loop polls once per batch.  Idempotent.
        """
        self._drain_requested = True

    # -- serving -----------------------------------------------------------

    def serve(
        self,
        source: Union[PacketSource, Iterable[Packet]],
        max_packets: Optional[int] = None,
        final_checkpoint: bool = True,
        on_progress: Optional[Callable[["DetectionService"], None]] = None,
    ) -> ServiceReport:
        """Pull the source to exhaustion (or ``max_packets``), then drain.

        Periodic checkpoints are written whenever the ingested count
        crosses a multiple of ``checkpoint_every``; a final checkpoint on
        graceful shutdown captures the fully-drained state.  ``max_packets``
        bounds this call (useful for tests and for incremental serving);
        the service object can keep serving afterwards.  ``on_progress``
        is invoked after every ingested batch — the supervisor's monitor
        hook (it may raise to abort the serve loop, e.g. on a stale
        heartbeat).
        """
        source = as_source(source)
        self._last_source = source
        forensics = self.forensics
        if forensics is not None:
            forensics.on_serve_start(self)
        instruments = self._instruments
        validation = None
        if instruments is not None:
            from .sources import validation_stats

            validation = validation_stats(source)
        started = self._clock()
        served = 0
        next_boundary = self._next_boundary()
        # Under an armed overload policy the in-process engine applies
        # nothing inside ingest; the serve loop pumps each shard within
        # the policy's drain budget once per batch (the capacity model).
        # An armed controller also needs a per-batch pump: its telemetry
        # scrape reads per-detector gauges (occupancy, evictions), which
        # only move when staged packets are actually applied — without
        # the pump the control loop would steer on stale zeros.
        pump = (
            getattr(self._engine, "pump", None)
            if self.overload is not None or self._controller is not None
            else None
        )
        if self._drain_requested:
            # Drain requested before (or between) serve calls: flush and
            # report without pulling anything more from the source.
            self._finish_drain(source, final_checkpoint, instruments, validation)
            return self.report(
                packets=served, duration_s=self._clock() - started
            )
        for batch in source.batches(self.batch_size, skip=self._ingested):
            if max_packets is not None and served + len(batch) > max_packets:
                batch = batch[: max_packets - served]
                if not batch:
                    break
            if forensics is not None:
                forensics.observe_batch(batch, self._ingested)
            if instruments is None:
                self._engine.ingest(batch)
            else:
                ingest_started = time.monotonic_ns()
                self._engine.ingest(batch)
                instruments.on_batch(
                    len(batch), time.monotonic_ns() - ingest_started
                )
            if pump is not None:
                pump()
            self._ingested += len(batch)
            served += len(batch)
            if instruments is not None:
                self._sync_instruments(validation)
            if on_progress is not None:
                on_progress(self)
            if self._coordinator is not None:
                self._coordinate()
            if self._controller is not None:
                # After the coordinator: a retune this batch lands at the
                # same boundary, and its forensic events are scanned by
                # the lab pass just below (same batch, same baseline).
                self._control_tick()
            if forensics is not None:
                # Scan before any checkpoint rebaseline below: new
                # incidents must capture their bundles against the
                # baseline that covers them, not the fresh one.
                forensics.scan(self)
            if next_boundary is not None and self._ingested >= next_boundary:
                self._write_checkpoint(source)
                next_boundary = self._next_boundary()
            if self._drain_requested:
                break
            if max_packets is not None and served >= max_packets:
                break
        self._finish_drain(source, final_checkpoint, instruments, validation)
        return self.report(packets=served, duration_s=self._clock() - started)

    def _finish_drain(
        self, source, final_checkpoint, instruments, validation
    ) -> None:
        """Common tail of every serve episode: flush everything pending
        (the graceful-drain step), write the terminal checkpoint, and do
        a final telemetry sync."""
        self._engine.flush()
        if self.forensics is not None:
            self.forensics.scan(self)
        if final_checkpoint and self.checkpoint_path is not None:
            self._write_checkpoint(source)
        if instruments is not None:
            self._sync_instruments(validation)
        if self._drain_requested:
            self._drained = True

    def report(self, packets: Optional[int] = None,
               duration_s: float = 0.0) -> ServiceReport:
        """A :class:`ServiceReport` of the service's current state.

        ``serve`` calls this at the end of a run; the supervisor also
        calls it directly to report what a *degraded* service (e.g. one
        whose source failed permanently) managed to process.
        """
        envelope = self._engine.envelope()
        from .sources import validation_stats

        stats = validation_stats(self._last_source)
        shard_health = self._engine.health()
        overload = self._engine.overload_report()
        if self._instruments is not None:
            # The health sample is the only per-detector view the
            # multiprocess engine can offer the registry (its detectors
            # live out-of-process); harmless duplication in-process.
            self._instruments.sync_health(shard_health)
            if stats is not None:
                self._instruments.sync_validation(stats)
            self._instruments.sync_overload(overload)
        return ServiceReport(
            packets=self._ingested if packets is None else packets,
            duration_s=duration_s,
            detections=self._engine.detections(),
            shard_health=shard_health,
            dropped=self._engine.dropped,
            checkpoints_written=self._checkpoints_written,
            resumed_from=self._resumed_from,
            envelope=envelope,
            dead_letters=(
                self.dead_letter.total if self.dead_letter is not None else 0
            ),
            validation=stats.as_dict() if stats is not None else None,
            overload=overload,
            drained=self._drained,
            watcher=(
                self._watcher.report() if self._watcher is not None else None
            ),
            reshard=self._reshard_report(),
            control=self._control_report(),
        )

    def shutdown(self, drain: bool = False) -> None:
        """Graceful drain and engine teardown (idempotent).  With
        ``drain=True`` the teardown is marked as a requested drain:
        multiprocess workers exit with
        :data:`~repro.service.workers.DRAIN_EXIT_CODE` instead of 0."""
        if drain:
            self._drain_requested = True
            self._drained = True
        self._engine.close(drain=drain)

    def abort(self) -> None:
        """Crash-path teardown: discard queued work and kill workers
        without draining (the supervisor's cleanup before a restart —
        the checkpoint on disk, not the wreckage, is the recovery
        state)."""
        self._engine.terminate()

    def _sync_instruments(self, validation=None) -> None:
        """Copy the runtime's exact accumulators into the metric
        registry (one pass of cheap attribute reads; never triggers a
        multiprocess snapshot barrier)."""
        instruments = self._instruments
        instruments.set_ingested(self._ingested)
        instruments.sync_engine(self._engine)
        groups = getattr(self._engine, "detector_groups", None)
        if groups is not None:  # in-process: rich per-shard stats
            instruments.sync_detector_groups(groups())
        instruments.sync_reshard(self._reshard_report())
        instruments.sync_control(self._control_summary())
        if self.dead_letter is not None:
            instruments.sync_dead_letters(self.dead_letter.total)
        if self._watcher is not None:
            instruments.sync_watcher(self._watcher)
        transport_report = getattr(self._engine, "transport_report", None)
        if transport_report is not None:  # remote engine only
            instruments.sync_transport(transport_report())
        if validation is not None:
            instruments.sync_validation(validation)
        if self.forensics is not None:
            # Exact set_total sync from the store's per-class totals —
            # the counter and the incident log can never disagree.
            instruments.sync_incidents(self.forensics.store.totals_by_class)
        if self.overload is not None:
            instruments.sync_overload(self._engine.overload_report())

    def _checkpoint_control_meta(self) -> Optional[Dict[str, object]]:
        """The checkpoint's control block, or None while no retune ever
        happened (keeps old checkpoints byte-stable in the common case).

        ``eardet checkpoint inspect`` renders the epoch and the solver
        inputs; resume() restores the epoch and history so a resumed
        service keeps stamping reports with the right epoch.
        """
        if self._config_epoch == 0 and self._controller is None:
            return None
        if self._controller is not None:
            inputs = self._controller.solver_inputs(self.config)
        else:
            inputs = self._last_retune_inputs
        return {
            "epoch": self._config_epoch,
            "history": [dict(entry) for entry in self._epoch_history],
            "inputs": inputs,
        }

    def _next_boundary(self) -> Optional[int]:
        if self.checkpoint_every is None:
            return None
        every = self.checkpoint_every
        return (self._ingested // every + 1) * every

    def _write_checkpoint(self, source: PacketSource) -> None:
        instruments = self._instruments
        if instruments is None:
            self._write_checkpoint_now(source)
            return
        with instruments.tracer.span("checkpoint.write") as span:
            self._write_checkpoint_now(source)
        if span.duration_ns is not None:
            instruments.on_checkpoint(span.duration_ns)

    def checkpoint_now(self, source_name: str = "tune") -> None:
        """Write a checkpoint at the current boundary, outside the serve
        loop (the ``eardet tune --apply`` path: persist a committed
        config epoch durably without serving any traffic)."""
        if self.checkpoint_path is None:
            raise ValueError("checkpoint_now requires a checkpoint path")
        self._write_checkpoint_now(_NamedSource(source_name))

    def _write_checkpoint_now(self, source: PacketSource) -> None:
        payload = {
            "meta": {
                "format": CHECKPOINT_META_FORMAT,
                "kind": "eardet-service",
                "packets": self._ingested,
                "shards": self.shards,
                "slots": self.slots,
                "seed": self.seed,
                "engine": self.engine_kind,
                "checkpoint_every": self.checkpoint_every,
                "source": source.name,
                "watcher": (
                    self.watcher_policy.as_dict()
                    if self.watcher_policy is not None
                    else None
                ),
                # The CURRENT (newest-epoch) config: resume() rebuilds
                # the service under it directly.
                "config": config_as_dict(self.config),
                "control": self._checkpoint_control_meta(),
            },
            # snapshot() drains the engine first, so the state matches the
            # ingested count exactly — the checkpoint boundary.
            "engine": self._engine.snapshot(),
        }
        write_checkpoint(
            self.checkpoint_path, payload, retry=self.checkpoint_backoff
        )
        self._checkpoints_written += 1
        if self.forensics is not None:
            # Reuse the checkpoint's engine snapshot as the new capture
            # baseline (zero extra snapshot cost; the ring restarts
            # here, so future bundles stay small).
            self.forensics.rebaseline(self, engine_snapshot=payload["engine"])
        if self.fault_plan is not None:
            # Injected checkpoint corruption (chaos testing the recovery
            # path): damage the file right after a successful write.
            self.fault_plan.corrupt_checkpoint(
                self.checkpoint_path, self._checkpoints_written
            )
