"""Multi-host sharded engine: one TCP shard server per shard.

:class:`RemoteEngine` is the third transport behind
:class:`~repro.service.engine.ShardedEngine` (:class:`~repro.service.
engine.InProcessEngine` is the reference, :class:`~repro.service.
workers.MultiprocessEngine` the one-host throughput deployment): the
shared routing side — memoized flow→slot hashing, slot→shard assignment,
watcher tap, loss accounting, per-slot staging — is the multiprocess
parent's, but a shard's staged slot groups ship as one exactly-once
``BATCH`` frame of packed columns over :mod:`repro.service.net` to
:class:`~repro.service.net.ShardServer` processes that may live on other
hosts (``eardet worker --listen``), each feeding every group to its slot
in the same :class:`~repro.service.engine.SlotHost` the other transports
use — no ``Packet`` built, no flow hashed twice.

Determinism is inherited: slots are independent and each processes its
hash sub-stream in arrival order no matter which host serves it, so
detections are bit-identical to the in-process engine's — the network
may duplicate, reorder, or replay frames, but the sequence discipline
reduces all of that to exactly-once in-order application.

**The partition policy** is where networks genuinely differ from
``multiprocessing`` queues, and it mirrors the per-shard exactness
envelope the service has had since PR 2:

- While a shard's endpoint is unreachable, the outage is **masked
  exactly**: frames accumulate in the connection's unacked ring (bounded
  by ``mask_frame_limit``) while reconnects run under the shared
  :class:`~repro.service.backoff.BackoffPolicy`, up to
  ``mask_deadline_s`` from the first failed send.  A reconnect inside
  that budget replays the ring and nothing was ever lost.
- Beyond either bound the shard's exactness envelope is **voided from
  the first unsendable packet**: that packet and every routed successor
  during the outage is dead-lettered with reason ``"partition"``, in
  arrival order and under the shard-local arrival index staged beside
  it, and counted (integer identity: every routed packet is either
  applied exactly once by its server or accounted here).  Frames
  already in the ring are *not* loss — they replay on reconnect.

Everything else — snapshots at exact stream prefixes, the two-phase
migration primitives, hot reconfiguration, graceful drain — is the
shared routing side's slot commands, which this engine carries as one
exactly-once control barrier per addressed shard (its whole command
transport, :meth:`RemoteEngine._command`) instead of queue markers, so
every command reaches the same shards as on the other transports, and
live resharding across hosts and the interchangeable checkpoint schema
come for free.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..core.config import EARDetConfig, config_as_dict
from ..model.packet import Packet
from .backoff import BackoffPolicy
from .checkpoint import pack_column
from .engine import ShardedEngine
from .errors import MigrationError, TransportError, WorkerError
from .health import DeadLetterSink
from .net import (
    FT_BATCH,
    FT_CONTROL,
    ShardConnection,
    next_session_id,
    parse_endpoint,
)
from .reshard import ShardLayout
from .workers import DEFAULT_CHUNK_SIZE, _invariant_from_payload

#: Default bound on how long an endpoint outage is masked exactly before
#: the shard's envelope is voided (seconds from the first failed send).
DEFAULT_MASK_DEADLINE_S = 5.0

#: Default bound on unacked frames buffered per connection while an
#: outage is masked (also the connected-side backpressure watermark).
DEFAULT_MASK_FRAME_LIMIT = 256

#: Default deadline for one control barrier (snapshot / extract /
#: install / stop), reconnects and replays included.
DEFAULT_BARRIER_TIMEOUT_S = 60.0

Endpoint = Union[str, Tuple[str, int]]


def _as_endpoint(value: Endpoint) -> Tuple[str, int]:
    if isinstance(value, str):
        return parse_endpoint(value)
    host, port = value
    return str(host), int(port)


class RemoteEngine(ShardedEngine):
    """Sharded EARDet across TCP shard servers: the shared routing side
    of :class:`~repro.service.engine.ShardedEngine` with one connection
    per shard — including the live migration primitives (slots move
    between hosts through exactly-once extract/install control
    barriers).

    ``endpoints`` lists one ``host:port`` (or ``(host, port)``) per
    shard, in shard order; connections are established lazily on first
    ingestion (so :meth:`restore` can precede them, exactly like the
    multiprocess engine).  A layout restored from a checkpoint may use
    fewer shards than there are endpoints — the spares idle until a
    migration grows onto them; it may never need more.
    """

    def __init__(
        self,
        config: EARDetConfig,
        endpoints: Sequence[Endpoint],
        seed: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        fault_plan=None,
        dead_letter: Optional[DeadLetterSink] = None,
        invariant_every: Optional[int] = None,
        overload=None,
        watcher=None,
        slots: Optional[int] = None,
        shards: Optional[int] = None,
        backoff: Optional[BackoffPolicy] = None,
        mask_deadline_s: float = DEFAULT_MASK_DEADLINE_S,
        mask_frame_limit: int = DEFAULT_MASK_FRAME_LIMIT,
        connect_timeout_s: float = 5.0,
        barrier_timeout_s: float = DEFAULT_BARRIER_TIMEOUT_S,
    ):
        self._endpoints = [_as_endpoint(value) for value in endpoints]
        if not self._endpoints:
            raise ValueError("need at least one worker endpoint")
        if shards is None:
            shards = len(self._endpoints)
        if not 1 <= shards <= len(self._endpoints):
            raise ValueError(
                f"shards must be between 1 and the {len(self._endpoints)} "
                f"worker endpoints provided, got {shards}"
            )
        if overload is not None:
            raise ValueError(
                "the remote engine does not support the overload ladder; "
                "the partition policy (mask_deadline_s / mask_frame_limit) "
                "is its accounted degradation path"
            )
        if chunk_size < 1:
            raise ValueError(f"chunk size must be positive, got {chunk_size}")
        if mask_deadline_s < 0:
            raise ValueError(
                f"mask_deadline_s must be >= 0, got {mask_deadline_s}"
            )
        if mask_frame_limit < 1:
            raise ValueError(
                f"mask_frame_limit must be >= 1, got {mask_frame_limit}"
            )
        super().__init__(
            config, shards, seed, slots, fault_plan, dead_letter,
            invariant_every, None, watcher,
            backlog_capacity=mask_frame_limit,
            ship_at=chunk_size,
        )
        self.chunk_size = chunk_size
        self.mask_deadline_s = mask_deadline_s
        self.mask_frame_limit = mask_frame_limit
        self.connect_timeout_s = connect_timeout_s
        self.barrier_timeout_s = barrier_timeout_s
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        # Partition-policy state: when the current outage began (None
        # while reachable) and how many outages each shard has seen.
        self._outage_since: List[Optional[float]] = [None] * shards
        self._outages = [0] * shards
        self._connections: Optional[List[ShardConnection]] = None
        self._closed_reports: Optional[List[Dict[str, object]]] = None
        self._session: Optional[int] = None

    # -- introspection -----------------------------------------------------

    @property
    def running(self) -> bool:
        return self._connections is not None

    @property
    def endpoints(self) -> List[Tuple[str, int]]:
        return list(self._endpoints)

    def queue_depths(self) -> List[int]:
        """Unacked in-flight frames per shard."""
        if self._connections is None:
            return [0] * self._shards
        return [conn.ring_depth for conn in self._connections[:self._shards]]

    # -- liveness ----------------------------------------------------------

    def dead_shards(self) -> List[int]:
        """Shards whose endpoint is currently unreachable *and* whose
        mask budget is exhausted (i.e. actively accounting loss)."""
        if self._connections is None:
            return []
        return [
            index
            for index in range(self._shards)
            if not self._connections[index].connected
            and not self._mask_allows(index)
        ]

    def check_workers(self) -> None:
        """Surface a fatal in-band reply (an invariant violation shipped
        by a dying server) as the permanent error it is.  Mere
        unreachability is *not* raised here — the partition policy
        masks or accounts it instead."""
        if self._connections is None:
            return
        for conn in self._connections:
            self._check_fatal(conn)

    def heartbeat_ages(self) -> List[float]:
        """Seconds each shard has been silent while something is
        outstanding: 0 for a reachable shard with an empty ring (idle is
        not dead), the outage duration for an unreachable one."""
        if self._connections is None:
            return [0.0] * self._shards
        now = time.monotonic()
        ages = []
        for index, conn in enumerate(self._connections):
            since = self._outage_since[index]
            if since is not None:
                ages.append(max(0.0, now - since))
            elif conn.ring_depth > 0:
                ages.append(conn.seconds_since_recv())
            else:
                ages.append(0.0)
        return ages

    # -- lifecycle ---------------------------------------------------------

    def _start(self) -> None:
        if self._connections is not None:
            return
        if self._final_snapshot is not None:
            raise RuntimeError("engine already closed")
        self._session = next_session_id()
        self._connections = [
            ShardConnection(
                shard=index,
                host=host,
                port=port,
                backoff=self.backoff,
                fault_plan=self._plan,
                connect_timeout_s=self.connect_timeout_s,
            )
            for index, (host, port) in enumerate(self._endpoints)
        ]
        self._assign(range(self._layout.shards))
        self._slot_states = None

    def _assign(self, shards: Iterable[int]) -> None:
        """Connect each of ``shards`` and deliver its configuration + any
        restored slot states in one barrier (blocking, with
        reconnect-under-backoff up to the barrier deadline — a fleet that
        cannot even start is an error, not an outage to mask)."""
        config = config_as_dict(self.config)
        payloads = {}
        for index in shards:
            slot_ids = self._layout.slots_of(index)
            payloads[index] = {
                "op": "assign",
                "config": config,
                "seed": self._hash.seed,
                "slots": self._layout.slots,
                "slot_ids": list(slot_ids),
                "states": self._staged_states(slot_ids),
                "invariant_every": self.invariant_every,
            }
        for index, reply in self._barrier(payloads).items():
            if reply.get("op") != "assigned":
                raise TransportError(
                    f"shard {index} rejected its assignment: {reply!r}",
                    shard=index,
                )

    def terminate(self) -> None:
        """Drop every connection without stopping the servers (crash
        teardown; in-flight state on the servers is abandoned — a
        restarted coordinator session replaces it)."""
        self._release()

    def _release(self) -> None:
        """Close every connection, keeping its final transport report."""
        if self._connections is not None:
            self._closed_reports = [
                conn.report() for conn in self._connections
            ]
            for conn in self._connections:
                conn.close_socket()
        self._connections = None

    # -- ingest ------------------------------------------------------------

    def flush(self) -> None:
        """Ship all staged packets (and any reorder-stashed frame).
        Does not wait for acks — barriers prove the prefix."""
        super().flush()
        if self._connections is None:
            return
        for conn in self._connections[:self._shards]:
            if conn.connected:
                conn.flush_stash()
                conn.poll()

    def _ship(self, index: int) -> None:
        """Send shard ``index``'s staged slot groups as one BATCH frame,
        applying the partition policy when the endpoint is unreachable."""
        groups = self._slot_groups(index)
        self._unstage(index)
        conn = self._connections[index]
        self._check_fatal(conn)
        if not conn.connected:
            self._try_reconnect(index)
        if not conn.connected and not self._mask_allows(index):
            # The mask budget is gone: the envelope is void from this —
            # the first unsendable — packet onward, and the loss is
            # accounted to the integer identity, in arrival order.
            lost = sorted(
                (
                    (arrival, slot, Packet(time_ns, size, fid))
                    for slot, (times, sizes, fids, arrivals) in groups
                    for time_ns, size, fid, arrival in zip(
                        times, sizes, fids, arrivals
                    )
                ),
                key=lambda entry: entry[0],
            )
            for arrival, slot, packet in lost:
                self._record_loss(
                    index, packet, "partition", slot=slot, arrival=arrival
                )
            return
        try:
            conn.send(FT_BATCH, tuple(
                (slot, pack_column(times), pack_column(sizes),
                 pack_column(fids))
                for slot, (times, sizes, fids, _) in groups
            ))
            conn.poll()
            self._outage_since[index] = None
        except TransportError:
            # The frame is in the unacked ring either way — the outage
            # is masked from here until reconnect or budget exhaustion.
            self._note_outage(index)
        self._note_depth(index, conn.ring_depth)
        if conn.connected and conn.ring_depth > self.mask_frame_limit:
            # Connected but the server is far behind: apply backpressure
            # the way the bounded multiprocess queues do, by blocking
            # until the ring drains below the watermark.
            try:
                conn.wait_acks(self.mask_frame_limit, self.barrier_timeout_s)
            except TransportError:
                self._note_outage(index)

    def _note_outage(self, index: int) -> None:
        if self._outage_since[index] is None:
            self._outage_since[index] = time.monotonic()
            self._outages[index] += 1

    def _mask_allows(self, index: int) -> bool:
        """Whether shard ``index``'s current outage is still inside the
        exact-masking budget (deadline from first failure + ring bound)."""
        since = self._outage_since[index]
        if since is not None:
            if time.monotonic() - since > self.mask_deadline_s:
                return False
        conn = self._connections[index]
        return conn.ring_depth < self.mask_frame_limit

    def _try_reconnect(self, index: int) -> None:
        """One non-blocking-ish reconnect attempt, paced by the shared
        backoff policy (measured against the outage clock)."""
        conn = self._connections[index]
        since = self._outage_since[index]
        if since is not None:
            # Pace attempts: skip until the backoff delay for the next
            # attempt has elapsed since the outage began.
            elapsed = time.monotonic() - since
            if elapsed < conn.reconnect_delay_s():
                return
        try:
            conn.connect(hello_extra={"session": self._session})
            self._outage_since[index] = None
        except TransportError:
            self._note_outage(index)

    def _check_fatal(self, conn: ShardConnection) -> None:
        if conn.fatal is not None:
            raise _invariant_from_payload(conn.fatal.get("payload") or {})

    # -- control barriers --------------------------------------------------

    def _barrier(self, payloads: Dict[int, Dict]) -> Dict[int, Dict]:
        """Send each addressed shard its control frame, then block for
        every reply, reconnecting and replaying as needed up to each
        shard's barrier deadline.  Every frame is on the wire before the
        first wait, so the servers work in parallel and an N-shard
        barrier costs one round trip, not N.  A reply acks its shard's
        whole prefix (the server applies in order), so a returned
        barrier proves every earlier batch was applied."""
        deadlines, seqs = {}, {}
        for index, payload in payloads.items():
            deadlines[index] = time.monotonic() + self.barrier_timeout_s
            seqs[index] = self._retry(
                index, payload, deadlines[index],
                lambda conn, remaining: conn.send(FT_CONTROL, payload),
            )
        replies = {}
        for index, payload in payloads.items():
            seq = seqs[index]
            reply = self._retry(
                index, payload, deadlines[index],
                lambda conn, remaining: conn.wait_reply(seq, remaining),
            )
            if not isinstance(reply, dict):
                raise TransportError(
                    f"malformed barrier reply from shard {index}: {reply!r}",
                    shard=index,
                )
            if reply.get("op") == "invariant":
                raise _invariant_from_payload(reply.get("payload") or {})
            if reply.get("op") == "error":
                raise WorkerError(
                    f"shard {index} failed {payload.get('op')!r}:\n"
                    f"{reply.get('traceback') or reply.get('message')}",
                    shard=index,
                )
            replies[index] = reply
        return replies

    def _retry(self, index: int, payload: Dict, deadline: float, step):
        """Run ``step(conn, remaining)`` on shard ``index``'s connection
        until it returns, reconnecting (which replays the unacked ring)
        under backoff until ``deadline``."""
        conn = self._connections[index]
        while True:
            self._check_fatal(conn)
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"barrier {payload.get('op')!r} on shard {index} missed "
                    f"its {self.barrier_timeout_s}s deadline",
                    shard=index,
                    endpoint=conn.endpoint,
                )
            if not conn.connected:
                try:
                    conn.connect(hello_extra={"session": self._session})
                    self._outage_since[index] = None
                except TransportError:
                    self._note_outage(index)
                    time.sleep(
                        min(conn.reconnect_delay_s(), max(remaining, 0.0),
                            0.5)
                    )
                    continue
            try:
                return step(conn, remaining)
            except TransportError:
                self._check_fatal(conn)

    # -- transport hooks ---------------------------------------------------

    def _command(self, op: str, args: Dict[int, object]) -> Dict[int, object]:
        """One exactly-once control barrier across the addressed shard
        servers; ``stop`` with ``drain`` set makes a CLI-run server exit
        with the drain code."""
        replies = self._barrier(
            {index: {"op": op, "arg": arg} for index, arg in args.items()}
        )
        for index, reply in replies.items():
            if reply.get("op") != "done":
                raise TransportError(
                    f"shard {index} {op} returned {reply!r}", shard=index
                )
        return {index: reply["reply"] for index, reply in replies.items()}

    def _check_growth(self, shards: int) -> None:
        # Unlike the multiprocess engine, a remote fleet cannot mint new
        # hosts — growth is bounded by the endpoint list.
        if shards > len(self._endpoints):
            raise MigrationError(
                f"cannot grow to {shards} shards: only "
                f"{len(self._endpoints)} worker endpoints were provided",
                phase="freeze",
                rolled_back=True,
            )

    def _grow(self, first_new: int) -> None:
        grow = self._shards - first_new
        self._outage_since.extend([None] * grow)
        self._outages.extend([0] * grow)
        if self._connections is not None:
            self._assign(range(first_new, self._shards))

    def _adopt(self, layout: ShardLayout, slot_states: List) -> None:
        if layout.shards > len(self._endpoints):
            raise ValueError(
                f"snapshot layout spans {layout.shards} shards but only "
                f"{len(self._endpoints)} worker endpoints were provided"
            )
        super()._adopt(layout, slot_states)
        self._outage_since = [None] * layout.shards
        self._outages = [0] * layout.shards

    # -- transport introspection ------------------------------------------

    def transport_report(self) -> List[Dict[str, object]]:
        """Per-shard exact transport counters (frames, retransmits,
        reconnects, ring depth, reconnect pauses) plus the partition
        accounting — the source for ``eardet_net_*`` metrics and the
        ``--net`` benchmark's reconnect-pause percentiles."""
        reports = []
        for index in range(self._shards):
            if self._connections is not None:
                report = self._connections[index].report()
            elif self._closed_reports and index < len(self._closed_reports):
                report = dict(self._closed_reports[index])
                report["connected"] = False
            else:
                host, port = self._endpoints[index]
                report = {"endpoint": f"{host}:{port}", "connected": False}
            report["shard"] = index
            report["outages"] = self._outages[index]
            report["masking"] = self._outage_since[index] is not None
            report["lost_packets"] = self._dropped[index]
            reports.append(report)
        return reports

    def scrape_workers(self) -> List[Dict[str, int]]:
        """Server-side counters via a ``scrape`` control barrier on
        every active shard (the remote telemetry scrape)."""
        self._start()
        replies = self._barrier(
            dict.fromkeys(range(self._layout.shards), {"op": "scrape"})
        )
        return [dict(reply.get("metrics") or {}) for reply in replies.values()]
