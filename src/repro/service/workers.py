"""Multiprocess sharded engine: one OS process per shard.

Python's GIL means the in-process engine cannot exceed one core no matter
how many shards it has; this module provides the throughput deployment.
The parent is the shared routing side
(:class:`~repro.service.engine.ShardedEngine`) and each shard worker is a
process shell around one :class:`~repro.service.engine.SlotHost` holding
the **slots** currently assigned to it (one slot per shard in the default
layout), consuming chunks from a **bounded** ``multiprocessing.Queue`` —
when a shard falls behind, ``Queue.put`` blocks the parent, which
therefore stops pulling from the source: backpressure end to end, memory
bounded by ``shards * queue_capacity * chunk_size`` packets plus the
parent's staged packets.

Scaling lives or dies on the *parent's* per-packet cost (it is the one
serial stage), so the routing loop is aggressively cheap: slot lookup
goes through the memoized :class:`~repro.service.engine.FlowRouter`
rather than re-hashing every packet (the slot→shard step is a list
index), and a chunk travels as the slot groups ``(slot, times, sizes,
fids)`` the shared staging loop (:meth:`~repro.service.engine.
ShardedEngine.ingest`) builds — far cheaper to pickle than ``Packet``
instances or per-packet tuples.  The worker never routes: it feeds each
group straight to its slot's :meth:`~repro.core.eardet.EARDet.
observe_batch`.

Slot commands travel as **in-band markers**: the shared routing side
runs snapshot, extract, install, reconfigure and stop once
(:meth:`~repro.service.engine.ShardedEngine._command` is this engine's
whole command transport), and each becomes an ``(op, arg, token)``
marker on the addressed shard queues, behind the packets already
shipped there.  A worker hands the marker to
:meth:`~repro.service.engine.SlotHost.command` the moment it dequeues
it — i.e. after processing exactly the packets routed before the marker
and none after — and replies ``("done", index, token, reply)``.  So an
assembled snapshot corresponds to an exact stream prefix, just like the
in-process engine's, and is the same schema (every engine's checkpoints
are interchangeable); an ``extract`` marker is a migration's freeze
barrier (no drain of unrelated shards is needed), and the parent swaps
its slot→shard assignment only after every install is acknowledged (see
:func:`repro.service.reshard.execute_migration`); workers never route,
so the cutover is a parent-local atomic swap.

Determinism: slots are independent and each processes its hash
sub-stream in arrival order no matter which worker hosts it, so
detections, timestamps and per-slot state are identical to the
in-process engine's — only wall-clock interleaving differs.
``tests/test_service.py`` asserts this equivalence.

Fault tolerance (see :mod:`repro.service.supervisor`):

- every worker stamps a **heartbeat** (a shared double per shard) on each
  message and from a ticker thread, so a supervisor can distinguish
  "busy" from "wedged";
- the parent **detects dead workers promptly**: liveness is checked per
  ingested batch, whenever a bounded ``put`` blocks, and while waiting
  for barrier replies — a crashed shard surfaces as a structured
  :class:`~repro.service.errors.ShardCrashError` (with the exit code)
  instead of a 2-minute timeout;
- a :class:`~repro.service.faults.FaultPlan` can arm worker-side faults
  (kill / stall at an exact shard-local packet index, counted in the
  order the worker processes: a chunk slot group by slot group) and
  parent-side injected drops, for deterministic chaos testing;
- a worker that cannot install migrated slot state exits with
  :data:`MIGRATION_ABORT_EXIT_CODE` after shipping the failure in-band,
  so the supervisor classifies the death correctly.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import threading
import time
from typing import Dict, Iterable, List, Optional, Tuple

from ..core.config import EARDetConfig
from .engine import ShardedEngine, SlotHost
from .errors import MigrationError, OverloadError, ShardCrashError, WorkerError
from .health import DeadLetterSink
from .overload import OverloadPolicy

#: Packets per chunk shipped to a worker (amortizes queue/pickle costs).
DEFAULT_CHUNK_SIZE = 2048

#: Maximum in-flight chunks per shard queue.
DEFAULT_QUEUE_CAPACITY = 8

#: Seconds to wait for a worker reply before declaring it dead.
REPLY_TIMEOUT_S = 120.0

#: Seconds :meth:`MultiprocessEngine.terminate` gives a worker to die
#: on SIGTERM before escalating to SIGKILL.
TERMINATE_GRACE_S = 5.0

#: Poll granularity for blocking queue operations — the latency bound on
#: noticing a dead worker while blocked.
LIVENESS_POLL_S = 0.2

#: After a worker is seen dead, how long to keep draining the results
#: queue for a reply its feeder thread may already have in flight.
DEAD_REPLY_GRACE_S = 2.0

#: How often a worker's ticker thread refreshes its heartbeat slot.
HEARTBEAT_INTERVAL_S = 0.5

#: How often a worker's watchdog thread checks that its parent still
#: exists.  A SIGKILL'd parent runs no cleanup (the daemon flag only
#: covers normal interpreter exit), so without the watchdog crashed
#: services would leave shard workers orphaned forever.
ORPHAN_POLL_S = 5.0

#: Exit code a worker uses after an invariant violation.  Distinct from
#: a crash (and from faults.KILL_EXIT_CODE) so the parent can classify
#: the death as *permanent* — corrupted algorithm state is not fixed by
#: a restart — and recover the violation's forensics from the results
#: queue.
INVARIANT_EXIT_CODE = 86

#: Exit code a worker uses after a *graceful drain* stop (SIGTERM-driven
#: shutdown, as opposed to source exhaustion).  Lets an operator tell a
#: drained worker (final state collected, nothing lost) from a clean
#: end-of-stream exit (0) without parsing logs.
DRAIN_EXIT_CODE = 75

#: Exit code a worker uses when it cannot install migrated slot state
#: (decode-verified state that still fails to restore means the worker's
#: process is not trustworthy).  The failure ships in-band first, so the
#: parent rolls the migration back / the supervisor restores from the
#: last checkpoint — which is exact regardless of layout.
MIGRATION_ABORT_EXIT_CODE = 78

#: Heartbeat slots allocated at fleet start.  The shared array cannot
#: grow once workers hold references to it, so this is the ceiling on
#: how many shards a fleet can grow to via resharding.
MAX_WORKER_SHARDS = 64


def _invariant_from_payload(payload):
    """Rebuild a worker's :class:`~repro.guard.invariants.
    InvariantViolation` from its JSON-safe ``as_dict`` reply."""
    from ..guard import InvariantViolation

    return InvariantViolation(
        payload.get("message", "invariant violation in shard worker"),
        check=payload.get("check") or "unknown",
        detector=payload.get("detector") or "eardet",
        observed=payload.get("observed"),
        bound=payload.get("bound"),
        forensics=payload.get("forensics") or {},
    )


def _exit_when_orphaned(original_ppid, poll_s=None):
    """Watchdog loop: hard-exit the worker once its parent disappears.

    This runs in a daemon thread rather than as a timeout on the queue
    read because a crashing parent can leave the worker blocked anywhere:
    ``queue.get`` is the common case, but a parent SIGKILL'd mid-``put``
    leaves a truncated chunk in the queue pipe, and the worker then
    blocks inside ``recv`` *after* its read timeout already fired.
    ``multiprocessing.parent_process().is_alive()`` is no help either —
    under the fork start method each worker inherits the write ends of
    its earlier-forked siblings' parent sentinels, so the sentinel only
    signals once those siblings exit.  Comparing ``os.getppid()`` against
    the PID recorded at worker start sidesteps both: orphaning reparents
    the worker immediately, wherever its main thread is stuck, and
    ``os._exit`` skips interpreter teardown that could itself block on a
    dead peer.
    """
    if poll_s is None:
        poll_s = ORPHAN_POLL_S
    while True:
        time.sleep(poll_s)
        if os.getppid() != original_ppid:
            os._exit(0)


def _heartbeat_ticker(heartbeat, index, interval_s):
    """Refresh this worker's heartbeat slot even while the main thread is
    blocked on an empty queue (idle != dead)."""
    while True:
        heartbeat[index] = time.monotonic()
        time.sleep(interval_s)


def _shard_worker(
    index, config, slot_ids, initial_states, in_queue, out_queue,
    heartbeat, faults, invariant_every=None,
):
    """Worker loop: consume chunks until a ``stop`` command, answering
    each slot command in stream order.

    The worker is a process shell around one
    :class:`~repro.service.engine.SlotHost` holding the assigned slots
    (``slot_ids``; ``initial_states`` maps slot → restored state).  A
    ``("packets", groups)`` message is a list of slot groups the parent
    already routed; an ``(op, arg, token)`` message is a slot command
    for :meth:`~repro.service.engine.SlotHost.command`, answered with
    ``("done", index, token, reply)`` after everything queued before it
    — the in-band barrier.  The shell adds signals, the heartbeat, fault
    injection and the exit codes.

    ``faults`` is ``None`` or ``(kill_at, stall_at, stall_s)`` in
    shard-local packet indices, counted in the order this worker
    processes packets (each chunk group by group, so with several slots
    hosted the N-th packet here need not be the shard's N-th arrival) —
    the deterministic chaos hooks.  An
    injected kill uses ``os._exit`` so the parent sees a genuinely dead
    process (no cleanup, no in-band error message), exactly like a
    segfault or an OOM kill.

    ``invariant_every`` arms an
    :class:`~repro.guard.invariants.InvariantChecker` on every hosted
    detector.  A violation ships its forensics as an in-band
    ``("invariant", index, payload)`` reply (flushed before death) and
    exits with :data:`INVARIANT_EXIT_CODE`, so the parent raises a
    *permanent* :class:`~repro.guard.invariants.InvariantViolation`
    instead of a recoverable crash.
    """
    # The parent (e.g. the CLI) may have routed SIGTERM/SIGINT to a
    # graceful-drain flag nobody in this process reads; inheriting that
    # handler would make the worker unkillable by Process.terminate().
    # Worker drain is driven by the in-band ``stop`` command, never by
    # signals, so restore the defaults.
    import signal

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover - non-main thread
            pass
    threading.Thread(
        target=_exit_when_orphaned, args=(os.getppid(),), daemon=True
    ).start()
    if heartbeat is not None:
        threading.Thread(
            target=_heartbeat_ticker,
            args=(heartbeat, index, HEARTBEAT_INTERVAL_S),
            daemon=True,
        ).start()

    def ship_and_exit(message, code):
        # Flush the message onto the pipe before dying, so the parent
        # reads it along with the exit code.
        out_queue.put(message)
        out_queue.close()
        out_queue.join_thread()
        os._exit(code)

    try:
        import traceback

        from ..guard import InvariantViolation
        from .faults import KILL_EXIT_CODE

        host = SlotHost(
            config, slot_ids, initial_states, invariant_every=invariant_every
        )
        # Shard-local packet position for fault triggers: packets this
        # worker's detectors have processed (resumes across restore).
        processed = host.packets()
        kill_at = stall_at = None
        stall_s = 0.0
        if faults is not None:
            kill_at, stall_at, stall_s = faults
        while True:
            message = in_queue.get()
            if heartbeat is not None:
                heartbeat[index] = time.monotonic()
            if message[0] == "packets":
                groups = message[1]
                if kill_at is None and stall_at is None:
                    host.observe(groups)
                    processed += sum(len(group[1]) for group in groups)
                    continue
                for slot, times, sizes, fids in groups:
                    for time_ns, size, fid in zip(times, sizes, fids):
                        position = processed + 1
                        if stall_at is not None and position >= stall_at:
                            stall_at = None
                            time.sleep(stall_s)
                        if kill_at is not None and position >= kill_at:
                            os._exit(KILL_EXIT_CODE)
                        host.observe([(slot, (time_ns,), (size,), (fid,))])
                        processed += 1
                continue
            op, arg, token = message
            try:
                reply = host.command(op, arg)
            except Exception:
                if op != "install":
                    raise
                # Decode-verified state that still fails to restore:
                # ship the failure, then die with the migration-abort
                # code so the parent/supervisor classify it.
                ship_and_exit(
                    ("error", index, traceback.format_exc()),
                    MIGRATION_ABORT_EXIT_CODE,
                )
            # Extract and install change what this worker hosts.
            processed = host.packets()
            done = ("done", index, token, reply)
            if op == "stop" and arg:
                # Graceful drain: exit with the drain code so the parent
                # (and any process supervisor) can tell this apart from
                # a clean end-of-stream stop.
                ship_and_exit(done, DRAIN_EXIT_CODE)
            out_queue.put(done)
            if op == "stop":
                return
    except InvariantViolation as violation:
        # Ship the forensics, then die with the dedicated exit code: the
        # parent must see a permanent failure, not a restartable crash.
        ship_and_exit(
            ("invariant", index, violation.as_dict()), INVARIANT_EXIT_CODE
        )
    except Exception:  # pragma: no cover - exercised only on worker crash
        import traceback

        out_queue.put(("error", index, traceback.format_exc()))


class MultiprocessEngine(ShardedEngine):
    """Sharded EARDet across OS processes: the shared routing side of
    :class:`~repro.service.engine.ShardedEngine` with one worker process
    per shard — including the live-migration primitives (slots move
    between worker processes through in-band extract/install barriers).

    Workers start lazily on first ingestion; :meth:`restore` must
    therefore be called (if at all) before any packet is ingested.
    :meth:`close` performs the graceful drain: staged packets are
    shipped, every worker finishes its queue, returns its final exact
    state, and exits.
    """

    def __init__(
        self,
        config: EARDetConfig,
        shards: int = 1,
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
        fault_plan=None,
        dead_letter: Optional[DeadLetterSink] = None,
        invariant_every: Optional[int] = None,
        overload: Optional[OverloadPolicy] = None,
        put_timeout_s: Optional[float] = None,
        watcher=None,
        slots: Optional[int] = None,
        terminate_grace_s: float = TERMINATE_GRACE_S,
    ):
        if terminate_grace_s <= 0:
            raise ValueError(
                f"terminate_grace_s must be > 0, got {terminate_grace_s}"
            )
        if chunk_size < 1:
            raise ValueError(f"chunk size must be positive, got {chunk_size}")
        if queue_capacity < 1:
            raise ValueError(
                f"queue capacity must be positive, got {queue_capacity}"
            )
        if put_timeout_s is None and overload is not None:
            put_timeout_s = overload.put_timeout_s
        if put_timeout_s is not None and put_timeout_s <= 0:
            raise ValueError(
                f"put_timeout_s must be > 0 or None, got {put_timeout_s}"
            )
        super().__init__(
            config, shards, seed, slots, fault_plan, dead_letter,
            invariant_every, overload, watcher,
            backlog_capacity=queue_capacity,
            ship_at=chunk_size,
        )
        self.chunk_size = chunk_size
        self.queue_capacity = queue_capacity
        self.terminate_grace_s = terminate_grace_s
        self.put_timeout_s = put_timeout_s
        self._barrier_token = 0
        self._context = multiprocessing.get_context()
        self._queues = None
        self._results = None
        self._processes = None
        self._heartbeats = None

    # -- introspection -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._processes is not None

    def queue_depths(self) -> List[int]:
        """In-flight chunks per shard (parent-side view; no barrier)."""
        return [self._in_flight(index) for index in range(self._shards)]

    def _in_flight(self, index: int) -> int:
        """Chunks queued to shard ``index`` and not yet taken by its
        worker (0 before the fleet starts, or where ``Queue.qsize`` is
        unsupported — macOS)."""
        if self._queues is None:
            return 0
        try:
            return self._queues[index].qsize()
        except NotImplementedError:  # pragma: no cover - macOS
            return 0

    # -- liveness ----------------------------------------------------------

    def dead_shards(self) -> List[int]:
        """Indices of shard workers that have exited (empty if the fleet
        is not running)."""
        if self._processes is None:
            return []
        return [
            index
            for index, process in enumerate(self._processes)
            if not process.is_alive()
        ]

    def check_workers(self) -> None:
        """Raise :class:`ShardCrashError` for the first dead worker.

        Called per ingested batch (and by the supervisor's monitor), so a
        crash surfaces within one batch instead of at the next barrier.
        Marks a pending injected kill as fired, so a supervised rebuild
        of this plan does not re-arm it.
        """
        for index in self.dead_shards():
            self._raise_dead(index)

    def _raise_dead(self, index: int) -> None:
        exit_code = self._processes[index].exitcode
        if exit_code == INVARIANT_EXIT_CODE:
            self._raise_invariant_death(index)
        if self._plan is not None:
            self._plan.mark_kill_fired(index)
        raise ShardCrashError(
            f"shard {index} worker died (exit code {exit_code})",
            shard=index,
            exit_code=exit_code,
        )

    def _raise_invariant_death(self, index: int) -> None:
        """A worker exited with :data:`INVARIANT_EXIT_CODE`: recover the
        forensics it flushed onto the results queue before dying, and
        raise the (permanent) violation in the parent."""
        from ..guard import InvariantViolation

        deadline = time.monotonic() + DEAD_REPLY_GRACE_S
        while time.monotonic() < deadline:
            try:
                message = self._results.get(timeout=LIVENESS_POLL_S)
            except queue_module.Empty:
                continue
            if message[0] == "invariant":
                raise _invariant_from_payload(message[2])
            # Anything else here is a stale barrier reply; drop it — the
            # engine is about to be torn down.
        raise InvariantViolation(
            f"shard {index} worker died with the invariant exit code "
            f"({INVARIANT_EXIT_CODE}) but its forensics reply was lost",
            check="unknown",
            detector="eardet",
        )

    def heartbeat_ages(self) -> List[float]:
        """Seconds since each shard's last heartbeat (zeros before the
        fleet starts).  The supervisor compares these against its stall
        timeout to catch wedged-but-alive workers."""
        if self._heartbeats is None:
            return [0.0] * self._shards
        now = time.monotonic()
        return [
            max(0.0, now - self._heartbeats[index])
            for index in range(self._shards)
        ]

    # -- lifecycle ---------------------------------------------------------

    def _start(self) -> None:
        if self._processes is not None:
            return
        if self._final_snapshot is not None:
            raise RuntimeError("engine already closed")
        ctx = self._context
        self._queues = [
            ctx.Queue(maxsize=self.queue_capacity) for _ in range(self._shards)
        ]
        self._results = ctx.Queue()
        # Fixed-capacity heartbeat array: workers hold references, so it
        # cannot grow when a reshard spawns shards later.
        self._heartbeats = ctx.Array(
            "d", max(self._shards, MAX_WORKER_SHARDS), lock=False
        )
        now = time.monotonic()
        for index in range(len(self._heartbeats)):
            self._heartbeats[index] = now
        self._processes = []
        for index in range(self._shards):
            self._spawn_worker(index)

    def _spawn_worker(self, index: int) -> None:
        """Start the worker process hosting shard ``index``'s slots."""
        slot_ids = self._layout.slots_of(index)
        faults = None
        if self._plan is not None:
            kill_at = self._plan.kill_at(index)
            stall = self._plan.stall_for(index)
            if kill_at is not None or stall is not None:
                faults = (
                    kill_at,
                    stall.at if stall is not None else None,
                    stall.duration_s if stall is not None else 0.0,
                )
        process = self._context.Process(
            target=_shard_worker,
            args=(
                index,
                self.config,
                slot_ids,
                self._staged_states(slot_ids),
                self._queues[index],
                self._results,
                self._heartbeats,
                faults,
                self.invariant_every,
            ),
            daemon=True,
        )
        process.start()
        self._processes.append(process)

    def _put(self, index: int, message) -> None:
        """Bounded put that notices a dead consumer — and, when
        ``put_timeout_s`` is set, a merely *overloaded* one.

        A plain ``Queue.put`` on a full queue whose worker died blocks
        forever (the semaphore is only released by ``get``); polling with
        a short timeout turns that hang into a :class:`ShardCrashError`
        within ``LIVENESS_POLL_S``.  With ``put_timeout_s`` set, a queue
        that stays full past it while the worker is *alive* raises a
        typed :class:`~repro.service.errors.OverloadError` instead of
        blocking indefinitely (or letting a bare ``queue.Full`` escape).
        """
        deadline = (
            None
            if self.put_timeout_s is None
            else time.monotonic() + self.put_timeout_s
        )
        while True:
            try:
                self._queues[index].put(message, timeout=LIVENESS_POLL_S)
                return
            except queue_module.Full:
                if not self._processes[index].is_alive():
                    self._raise_dead(index)
                if deadline is not None and time.monotonic() >= deadline:
                    raise OverloadError(
                        f"shard {index} queue stayed full for "
                        f"{self.put_timeout_s}s (capacity "
                        f"{self.queue_capacity} chunks) with a live worker",
                        shard=index,
                        queue_depth=self.queue_capacity,
                        queue_capacity=self.queue_capacity,
                    )

    def _ladder_load(self, index: int) -> Tuple[int, int]:
        """Staged packets plus in-flight chunks times the chunk size,
        against ``queue_capacity * chunk_size``.  On platforms without
        ``Queue.qsize`` (macOS) only the staged count is visible, so the
        ladder under-escalates there; the blocking/``put_timeout_s``
        backstop still bounds memory."""
        chunk = self.chunk_size
        return (
            self._staged[index] + self._in_flight(index) * chunk,
            self.queue_capacity * chunk,
        )

    def _ship(self, index: int) -> None:
        """Put shard ``index``'s staged slot groups on its queue as one
        chunk, then sample the in-flight chunk count — the only moment
        it can grow.  The packets stay staged until the put succeeds."""
        groups = self._slot_groups(index)
        self._put(
            index, ("packets", [(slot, *group[:3]) for slot, group in groups])
        )
        self._unstage(index)
        self._note_depth(index, self._in_flight(index))

    def terminate(self) -> None:
        """Hard-kill workers (crash recovery / emergency shutdown);
        discards in-flight state.  Safe to call when some — or all —
        workers have already died, and idempotent.  Escalates to
        SIGKILL after a grace of ``terminate_grace_s`` seconds
        (default :data:`TERMINATE_GRACE_S`): a worker that ignores
        SIGTERM (e.g. a masked or inherited handler) must not stall
        crash recovery for ``REPLY_TIMEOUT_S`` per process.  Chaos
        tests and fast CI teardown shrink the grace via the
        constructor / ``--terminate-grace``."""
        if self._processes is None:
            return
        for process in self._processes:
            if process.is_alive():
                process.terminate()
        for process in self._processes:
            process.join(timeout=self.terminate_grace_s)
            if process.is_alive():
                process.kill()
        self._release()

    def _release(self) -> None:
        """Join the fleet's workers (stopped, or killed by
        :meth:`terminate`), close its queues and forget it."""
        for process in self._processes:
            process.join(timeout=REPLY_TIMEOUT_S)
        for queue in self._queues:
            queue.close()
        if self._results is not None:
            self._results.close()
        self._processes = None
        self._queues = None
        self._results = None
        self._heartbeats = None

    # -- transport hooks ---------------------------------------------------

    def _command(self, op: str, args: Dict[int, object]) -> Dict[int, object]:
        """An in-band command marker on each addressed shard queue: a
        worker answers only after everything queued to it before — the
        barrier (a migration's freeze needs no drain of unrelated
        shards).  A worker that cannot install migrated state ships the
        error and exits with :data:`MIGRATION_ABORT_EXIT_CODE`; ``stop``
        with ``drain`` set exits with :data:`DRAIN_EXIT_CODE` instead of
        0, marking a requested drain rather than source exhaustion."""
        self._barrier_token += 1
        token = self._barrier_token
        for index, arg in args.items():
            self._put(index, (op, arg, token))
        return self._collect(token, args)

    def _check_growth(self, shards: int) -> None:
        if self._heartbeats is not None and shards > len(self._heartbeats):
            raise MigrationError(
                f"cannot grow to {shards} shards: the heartbeat array was "
                f"sized for {len(self._heartbeats)} at fleet start "
                f"(MAX_WORKER_SHARDS)",
                phase="freeze",
                rolled_back=True,
            )

    def _grow(self, first_new: int) -> None:
        if self._processes is not None:
            for index in range(first_new, self._shards):
                self._queues.append(
                    self._context.Queue(maxsize=self.queue_capacity)
                )
                self._spawn_worker(index)

    def _collect(
        self, token: int, indices: Iterable[int]
    ) -> Dict[int, object]:
        """Gather the reply to command ``token`` from each addressed
        shard off the shared result queue, surfacing worker crashes as
        structured errors.

        Polls with a short timeout so a worker that dies while we wait is
        noticed in ``LIVENESS_POLL_S + DEAD_REPLY_GRACE_S`` (the grace
        window lets a reply the dying worker's feeder thread already
        flushed still arrive) instead of after ``REPLY_TIMEOUT_S``.
        """
        pending = set(indices)
        replies: Dict[int, object] = {}
        deadline = time.monotonic() + REPLY_TIMEOUT_S
        dead_grace: Dict[int, float] = {}
        while pending:
            try:
                message = self._results.get(timeout=LIVENESS_POLL_S)
            except queue_module.Empty:
                now = time.monotonic()
                if now > deadline:
                    raise WorkerError(
                        f"timed out waiting for {len(pending)} worker replies"
                    )
                for index in list(pending):
                    if self._processes[index].is_alive():
                        continue
                    expires = dead_grace.setdefault(
                        index, now + DEAD_REPLY_GRACE_S
                    )
                    if now > expires:
                        self._raise_dead(index)
                continue
            if message[0] == "error":
                raise WorkerError(
                    f"shard {message[1]} crashed:\n{message[2]}",
                    shard=message[1],
                )
            if message[0] == "invariant":
                raise _invariant_from_payload(message[2])
            _done, index, reply_token, reply = message
            if reply_token != token or index not in pending:
                # A stale reply from an earlier barrier; ignore.
                continue
            replies[index] = reply
            pending.discard(index)
        return replies
