"""TCP transport for multi-host engines: frames, exactly-once delivery,
and the shard server behind ``eardet worker --listen``.

The in-tree engines shard within one process tree; this module carries
the same routed slot groups over TCP so one coordinator
(:class:`~repro.service.remote.RemoteEngine`) can drive shard servers on
other hosts with the same bit-identical-detections discipline.  Networks
fail in ways ``multiprocessing`` queues never do — partitions, half-open
connections, duplicated and reordered frames — so the protocol is built
to make every such failure either *masked exactly* or *accounted in the
exactness envelope*.

Frame layout (all integers little-endian)::

    bytes 0-3    magic  b"ERNF"
    byte  4      frame type (uint8)
    bytes 5-12   sequence number (uint64)
    bytes 13-16  payload length (uint32)
    bytes 17-    payload — one value in the checkpoint codec
                 (:func:`repro.service.checkpoint.dumps`)
    last 4       CRC-32 over type + sequence + payload

A ``BATCH`` payload is a tuple of slot groups ``(slot,
times, sizes, fids)``, each column packed to little-endian int64
``bytes`` when its values allow, else a codec list (:func:`repro.
service.checkpoint.pack_column`); the server routes nothing and checks
each group as ``Packet`` would, and its slot (:func:`decode_batch`).

Exactly-once batch delivery rests on three rules:

1. **Monotonic sequences.**  Every state-carrying frame (a ``BATCH`` of
   slot groups, or a ``CONTROL`` request) takes the connection's next
   sequence number.  ``HELLO``/``WELCOME``/``ACK`` ride outside the
   stream (sequence 0 for HELLO/WELCOME; an ACK's sequence *is* the
   cumulative ack).
2. **Cumulative acks.**  The server applies a frame only when its
   sequence is exactly ``applied + 1`` and then acks ``applied``
   cumulatively.  A duplicate (``seq <= applied``) is discarded and
   re-acked — for a CONTROL frame, the cached reply is resent, so a
   retried request observes the original effect exactly once.  A gap
   (``seq > applied + 1``) is discarded and the current ack repeated,
   which tells the sender to replay.
3. **The unacked-frame ring.**  The sender keeps every frame beyond the
   cumulative ack and replays the tail on reconnect (and whenever a
   sync round discovers the server is behind).  Replayed duplicates are
   discarded by rule 2, so a retransmit is always safe.

The server (:class:`ShardServer`) is a TCP shell around the same
:class:`~repro.service.engine.SlotHost` a multiprocess worker runs:
``assign`` builds the host (configuration, hash seed and slot space,
hosted slots, restored states), ``BATCH`` frames feed each slot group to
its slot's :meth:`~repro.core.eardet.EARDet.observe_batch`, and every
other ``CONTROL`` op — ``{"op": op, "arg": arg}`` for ``snapshot``,
``extract``, ``install``, ``reconfig`` or ``stop`` — goes to the host's
one dispatch, :meth:`~repro.service.engine.SlotHost.command`, and is
answered ``{"op": "done", "reply": reply}``.  The server itself adds
``ping`` liveness, a ``scrape`` of its counters, the sequence
discipline, and its exit codes.  Because TCP delivers in order within a
connection and the sequence rules span reconnects, every barrier keeps
the exact-stream-prefix property the in-tree engines' snapshots have.

Deterministic network chaos: a :class:`~repro.service.faults.FaultPlan`
``net:`` clause fires at an exact frame send index on one connection —
drop, duplicate, reorder, delay, partition, half-open — implemented on
the sender path of :class:`ShardConnection`, so a failing run replays
bit for bit.
"""

from __future__ import annotations

import itertools
import os
import socket
import struct
import threading
import time
import zlib
from typing import Any, Container, Dict, List, Optional, Tuple

from ..core.blacklist import ReportSink
from ..core.config import EARDetConfig
from .backoff import BackoffPolicy
from .checkpoint import CheckpointError, dumps, loads, unpack_column
from .engine import SlotGroup, SlotHost
from .errors import FrameCorruptError, HandshakeError, TransportError
from .workers import DRAIN_EXIT_CODE, INVARIANT_EXIT_CODE

#: Frame magic — distinct from the checkpoint file magic so a frame
#: stream can never be mistaken for a checkpoint (or vice versa).
FRAME_MAGIC = b"ERNF"

#: Bump on any incompatible change to the frame layout or the control
#: vocabulary.  Both ends send it in the handshake and refuse mismatches
#: permanently (:class:`~repro.service.errors.HandshakeError`).
NET_PROTOCOL_VERSION = 4

#: Exit code the shard server uses when the transport fails permanently:
#: a handshake the two ends can never agree on (protocol version,
#: detector seed, slot count, or configuration) or an unrecoverable
#: protocol violation.  Distinct from a crash and from the drain /
#: invariant codes so a process supervisor can tell "restarting cannot
#: help until the deployment is fixed" from "restart me".  76 is
#: ``EX_PROTOCOL`` in BSD sysexits.
TRANSPORT_ABORT_EXIT_CODE = 76

# Frame types.
FT_HELLO = 1
FT_WELCOME = 2
FT_BATCH = 3
FT_ACK = 4
FT_CONTROL = 5
FT_REPLY = 6

_FRAME_TYPES = (FT_HELLO, FT_WELCOME, FT_BATCH, FT_ACK, FT_CONTROL, FT_REPLY)

_HEADER = struct.Struct("<4sBQI")
_CRC = struct.Struct("<I")

#: Ceiling on a single frame's payload (64 MiB) — a length field beyond
#: this is treated as corruption, not as a request to allocate.
MAX_PAYLOAD = 64 * 1024 * 1024

#: Default deadline for one blocking read of a complete frame.
DEFAULT_FRAME_TIMEOUT_S = 30.0

#: Consecutive ack-less one-second poll intervals (each followed by a
#: full tail replay that changed nothing) after which a blocked sender
#: presumes the connection is half-open — TCP writes that vanish into a
#: dead peer report no error — and tears it down so the reconnect path
#: can replay the ring on a fresh socket.
HALF_OPEN_POLL_LIMIT = 3

_session_counter = itertools.count(1)


def next_session_id() -> int:
    """A coordinator-session id: unique across supervisor restarts of
    the same process *and* across coordinator processes.  A new session
    tells the shard servers to reset their exactly-once sequence state
    and adopt the coordinator's (checkpoint-restored) view wholesale —
    cross-session exactness comes from the checkpoint replay discipline,
    exactly as it does when multiprocess workers are respawned."""
    return (os.getpid() << 20) | next(_session_counter)


def encode_frame(ftype: int, seq: int, payload: Any) -> bytes:
    """Encode one frame.  ``payload`` is any checkpoint-codec value."""
    if ftype not in _FRAME_TYPES:
        raise ValueError(f"unknown frame type {ftype!r}")
    if seq < 0:
        raise ValueError(f"sequence must be >= 0, got {seq}")
    body = dumps(payload)
    if len(body) > MAX_PAYLOAD:
        raise ValueError(f"frame payload too large: {len(body)} bytes")
    head = _HEADER.pack(FRAME_MAGIC, ftype, seq, len(body))
    crc = zlib.crc32(head[4:] + body) & 0xFFFFFFFF
    return head + body + _CRC.pack(crc)


def decode_frame(data: bytes) -> Tuple[int, int, Any]:
    """Decode one complete frame; returns ``(type, seq, payload)``.

    Raises :class:`~repro.service.errors.FrameCorruptError` with the
    failing byte offset on any integrity violation.
    """
    if len(data) < _HEADER.size + _CRC.size:
        raise FrameCorruptError(
            f"truncated frame: {len(data)} bytes", offset=len(data)
        )
    magic, ftype, seq, length = _HEADER.unpack_from(data)
    if magic != FRAME_MAGIC:
        raise FrameCorruptError(f"bad frame magic {magic!r}", offset=0)
    if ftype not in _FRAME_TYPES:
        raise FrameCorruptError(f"unknown frame type {ftype}", offset=4)
    if length > MAX_PAYLOAD:
        raise FrameCorruptError(
            f"impossible payload length {length}", offset=13
        )
    expected = _HEADER.size + length + _CRC.size
    if len(data) != expected:
        raise FrameCorruptError(
            f"frame length mismatch: {len(data)} bytes for a "
            f"{length}-byte payload",
            offset=len(data),
        )
    body = data[_HEADER.size:_HEADER.size + length]
    (stored,) = _CRC.unpack_from(data, _HEADER.size + length)
    actual = zlib.crc32(data[4:_HEADER.size + length]) & 0xFFFFFFFF
    if stored != actual:
        raise FrameCorruptError(
            f"frame CRC mismatch: stored {stored:#010x}, "
            f"computed {actual:#010x}",
            offset=_HEADER.size + length,
        )
    try:
        payload = loads(body)
    except CheckpointError as error:
        raise FrameCorruptError(
            f"undecodable frame payload: {error}", offset=_HEADER.size
        ) from error
    return ftype, seq, payload


def decode_batch(
    payload: Any, hosted: Optional[Container[int]] = None
) -> List[SlotGroup]:
    """A ``BATCH`` payload's slot groups ``(slot, times, sizes, fids)``,
    checked as ``Packet`` construction would: raises :class:`~repro.
    service.errors.FrameCorruptError` unless the payload is a tuple of
    4-tuples, each slot an ``int`` (one of ``hosted``, when given) with
    three columns of equal length, every time ``>= 0`` and every size
    ``> 0``."""
    if not isinstance(payload, tuple):
        raise FrameCorruptError(f"BATCH payload not slot groups: {payload!r:.50}")
    groups = []
    for group in payload:
        if not isinstance(group, tuple) or len(group) != 4:
            raise FrameCorruptError(
                f"BATCH group not (slot, times, sizes, fids): {group!r:.50}"
            )
        slot = group[0]
        if type(slot) is not int:
            raise FrameCorruptError(f"BATCH slot id {slot!r:.20} is not an int")
        if hosted is not None and slot not in hosted:
            raise FrameCorruptError(f"BATCH slot {slot} is not hosted here")
        try:
            times, sizes, fids = map(unpack_column, group[1:])
            lengths = (len(times), len(sizes), len(fids))
            if len(set(lengths)) != 1:
                raise FrameCorruptError(f"BATCH column lengths {lengths} differ")
            if times and (min(times) < 0 or min(sizes) <= 0):
                raise FrameCorruptError(
                    f"BATCH min time {min(times)}, min size {min(sizes)}"
                )
        except (CheckpointError, TypeError) as error:
            raise FrameCorruptError(f"bad BATCH column: {error}") from error
        groups.append((slot, times, sizes, fids))
    return groups


def read_frame(sock: socket.socket,
               timeout_s: float = DEFAULT_FRAME_TIMEOUT_S
               ) -> Tuple[int, int, Any]:
    """Read exactly one frame from ``sock``.

    Raises :class:`TransportError` on EOF/timeout and
    :class:`~repro.service.errors.FrameCorruptError` on damage.
    """
    sock.settimeout(timeout_s)
    head = _read_exact(sock, _HEADER.size)
    magic, ftype, _seq, length = _HEADER.unpack(head)
    if magic != FRAME_MAGIC:
        raise FrameCorruptError(f"bad frame magic {magic!r}", offset=0)
    if length > MAX_PAYLOAD:
        raise FrameCorruptError(
            f"impossible payload length {length}", offset=13
        )
    rest = _read_exact(sock, length + _CRC.size)
    return decode_frame(head + rest)


def _read_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        try:
            chunk = sock.recv(remaining)
        except socket.timeout as error:
            raise TransportError(
                f"timed out reading a frame ({count - remaining}/{count} "
                f"bytes arrived)"
            ) from error
        except OSError as error:
            raise TransportError(f"socket error mid-frame: {error}") from error
        if not chunk:
            raise TransportError(
                f"connection closed mid-frame ({count - remaining}/{count} "
                f"bytes arrived)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def parse_endpoint(spec: str) -> Tuple[str, int]:
    """Parse ``host:port``; a bare port means loopback."""
    spec = spec.strip()
    host, sep, port = spec.rpartition(":")
    if not sep:
        host, port = "127.0.0.1", spec
    host = host.strip() or "127.0.0.1"
    try:
        number = int(port)
    except ValueError:
        raise ValueError(f"bad endpoint {spec!r}: port must be an integer")
    if not 0 <= number <= 65535:
        raise ValueError(f"bad endpoint {spec!r}: port out of range")
    return host, number


def parse_endpoints(spec: str) -> List[Tuple[str, int]]:
    """Parse a comma-separated endpoint list (the ``--workers`` flag)."""
    endpoints = [
        parse_endpoint(part) for part in spec.split(",") if part.strip()
    ]
    if not endpoints:
        raise ValueError(f"no endpoints in {spec!r}")
    return endpoints


# -- sender side -----------------------------------------------------------


class ShardConnection:
    """One coordinator→shard-server connection with exactly-once framing.

    Owns the sequence counter, the unacked-frame ring, reconnect under a
    :class:`~repro.service.backoff.BackoffPolicy`, and the deterministic
    ``net:`` fault hooks.  The owning engine decides *policy* (when an
    outage stops being masked and becomes accounted loss); this class
    only ever reports failure, it never drops a frame on its own.
    """

    def __init__(
        self,
        shard: int,
        host: str,
        port: int,
        backoff: Optional[BackoffPolicy] = None,
        fault_plan=None,
        connect_timeout_s: float = 5.0,
        frame_timeout_s: float = DEFAULT_FRAME_TIMEOUT_S,
    ):
        self.shard = shard
        self.host = host
        self.port = port
        self.backoff = backoff if backoff is not None else BackoffPolicy()
        self._plan = fault_plan
        self.connect_timeout_s = connect_timeout_s
        self.frame_timeout_s = frame_timeout_s
        self._sock: Optional[socket.socket] = None
        self._seq = 0  # last sequence number assigned
        self._acked = 0  # highest cumulative ack received
        self._ring: List[Tuple[int, bytes]] = []  # unacked (seq, frame)
        self._send_attempts = 0  # 1-based frame send index (fault hook)
        self._reorder_stash: Optional[bytes] = None
        self._half_open = False
        self._partition_until = 0.0
        self._reconnect_attempt = 0
        self._last_recv_monotonic = time.monotonic()
        self._replies: List[Tuple[int, Any]] = []  # undelivered (seq, payload)
        #: Set when the server shipped a fatal in-band reply (an
        #: invariant violation's forensics) before dying.
        self.fatal: Optional[Dict[str, Any]] = None
        # Exact transport accounting (integers; exposed via
        # RemoteEngine.transport_report and eardet_net_* metrics).
        self.frames_sent = 0
        self.retransmits = 0
        self.reconnects = 0
        self.acks_received = 0
        self.faults_injected = 0
        self.reconnect_pauses_ns: List[int] = []

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def connected(self) -> bool:
        return self._sock is not None

    @property
    def acked_seq(self) -> int:
        return self._acked

    @property
    def highest_seq(self) -> int:
        return self._seq

    @property
    def ring_depth(self) -> int:
        return len(self._ring)

    def seconds_since_recv(self) -> float:
        return max(0.0, time.monotonic() - self._last_recv_monotonic)

    # -- connection lifecycle ---------------------------------------------

    def connect(self, hello_extra: Optional[Dict[str, Any]] = None) -> Dict:
        """(Re)connect, handshake, and replay the unacked ring.

        Returns the server's WELCOME payload.  Raises
        :class:`TransportError` when the endpoint is unreachable (or an
        injected partition still refuses reconnects) and
        :class:`~repro.service.errors.HandshakeError` on a permanent
        protocol disagreement.
        """
        if self._sock is not None:
            return {"proto": NET_PROTOCOL_VERSION, "acked": self._acked}
        now = time.monotonic()
        if now < self._partition_until:
            raise TransportError(
                f"shard {self.shard} endpoint {self.endpoint} partitioned "
                f"for another {self._partition_until - now:.3f}s (injected)",
                shard=self.shard,
                endpoint=self.endpoint,
            )
        started_ns = time.monotonic_ns()
        try:
            sock = socket.create_connection(
                (self.host, self.port), timeout=self.connect_timeout_s
            )
        except OSError as error:
            self._reconnect_attempt += 1
            raise TransportError(
                f"cannot connect to shard {self.shard} at {self.endpoint}: "
                f"{error}",
                shard=self.shard,
                endpoint=self.endpoint,
            ) from error
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._half_open = False
        try:
            hello = {
                "proto": NET_PROTOCOL_VERSION,
                "shard": self.shard,
                "seq": self._seq,
            }
            if hello_extra:
                hello.update(hello_extra)
            self._raw_send(encode_frame(FT_HELLO, 0, hello))
            ftype, _seq, welcome = read_frame(sock, self.frame_timeout_s)
            if ftype != FT_WELCOME or not isinstance(welcome, dict):
                raise FrameCorruptError(
                    f"expected WELCOME, got frame type {ftype}",
                    shard=self.shard, endpoint=self.endpoint,
                )
            if welcome.get("error"):
                self.close_socket()
                raise HandshakeError(
                    f"shard {self.shard} at {self.endpoint} refused the "
                    f"handshake: {welcome['error']}",
                    shard=self.shard, endpoint=self.endpoint,
                )
            if welcome.get("proto") != NET_PROTOCOL_VERSION:
                self.close_socket()
                raise HandshakeError(
                    f"shard {self.shard} at {self.endpoint} speaks protocol "
                    f"{welcome.get('proto')!r}, this coordinator speaks "
                    f"{NET_PROTOCOL_VERSION}",
                    shard=self.shard, endpoint=self.endpoint,
                )
            self._last_recv_monotonic = time.monotonic()
            acked = int(welcome.get("acked", 0))
            self._absorb_ack(acked)
            self.reconnects += 1
            self._reconnect_attempt = 0
            self.reconnect_pauses_ns.append(time.monotonic_ns() - started_ns)
            # Replay everything the server has not applied, in order.
            for seq, frame in list(self._ring):
                self.retransmits += 1
                self._transmit(frame)
            return welcome
        except (TransportError, HandshakeError):
            raise
        except OSError as error:
            self.close_socket()
            raise TransportError(
                f"handshake with shard {self.shard} at {self.endpoint} "
                f"failed: {error}",
                shard=self.shard, endpoint=self.endpoint,
            ) from error

    def reconnect_delay_s(self) -> float:
        """Backoff delay before the next reconnect attempt."""
        return self.backoff.delay_s(self._reconnect_attempt)

    def close_socket(self) -> None:
        """Drop the socket (the ring survives for the next connect)."""
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - close never matters
                pass
            self._sock = None
        self._reorder_stash = None
        self._half_open = False

    # -- sending -----------------------------------------------------------

    def send(self, ftype: int, payload: Any) -> int:
        """Assign the next sequence number, ring the frame, and try to
        put it on the wire.  Returns the sequence number.  Raises
        :class:`TransportError` when disconnected — the frame stays in
        the ring either way, so the caller's policy decides whether to
        mask (reconnect later and replay) or to account loss."""
        self._seq += 1
        seq = self._seq
        frame = encode_frame(ftype, seq, payload)
        self._ring.append((seq, frame))
        self._transmit(frame)
        return seq

    def _transmit(self, frame: bytes) -> None:
        """One send attempt: the ``net:`` fault hook, then the socket."""
        if self._sock is None:
            raise TransportError(
                f"shard {self.shard} connection is down",
                shard=self.shard, endpoint=self.endpoint,
            )
        if self._reorder_stash is not None:
            stashed, self._reorder_stash = self._reorder_stash, None
            self._apply_fault_and_send(frame)
            self._raw_send(stashed)
            return
        self._apply_fault_and_send(frame)

    def _apply_fault_and_send(self, frame: bytes) -> None:
        self._send_attempts += 1
        fault = None
        if self._plan is not None:
            fault = self._plan.take_net(self.shard, self._send_attempts)
        if fault is None:
            if not self._half_open:
                self._raw_send(frame)
            return
        self.faults_injected += 1
        kind = fault.kind
        if kind == "drop":
            return  # vanished on the wire; the ring will replay it
        if kind == "dup":
            self._raw_send(frame)
            self._raw_send(frame)
            return
        if kind == "reorder":
            self._reorder_stash = frame  # swaps with the next frame
            return
        if kind == "delay":
            time.sleep(fault.duration_s)
            self._raw_send(frame)
            return
        if kind == "partition":
            self.close_socket()
            self._partition_until = time.monotonic() + fault.duration_s
            raise TransportError(
                f"injected partition severed shard {self.shard} at frame "
                f"{self._send_attempts}",
                shard=self.shard, endpoint=self.endpoint,
                frame_seq=self._seq,
            )
        if kind == "halfopen":
            self._half_open = True  # writes vanish until reconnect
            return
        raise AssertionError(f"unhandled net fault kind {kind!r}")

    def _raw_send(self, frame: bytes) -> None:
        if self._sock is None:
            raise TransportError(
                f"shard {self.shard} connection is down",
                shard=self.shard, endpoint=self.endpoint,
            )
        try:
            self._sock.sendall(frame)
            self.frames_sent += 1
        except OSError as error:
            self.close_socket()
            raise TransportError(
                f"send to shard {self.shard} at {self.endpoint} failed: "
                f"{error}",
                shard=self.shard, endpoint=self.endpoint,
            ) from error

    def flush_stash(self) -> None:
        """Put a reorder-stashed frame on the wire (barriers call this so
        a stash cannot outlive the stream it belongs to)."""
        if self._reorder_stash is not None and self._sock is not None:
            stashed, self._reorder_stash = self._reorder_stash, None
            self._raw_send(stashed)

    # -- receiving ---------------------------------------------------------

    def poll(self) -> None:
        """Drain whatever frames are ready without blocking (acks trim
        the ring; replies queue for :meth:`wait_reply`)."""
        while self._sock is not None:
            try:
                self._sock.settimeout(0.0)
                peek = self._sock.recv(1, socket.MSG_PEEK)
            except (BlockingIOError, socket.timeout):
                return
            except OSError:
                self.close_socket()
                return
            if not peek:
                self.close_socket()
                return
            try:
                self._absorb(read_frame(self._sock, self.frame_timeout_s))
            except TransportError:
                self.close_socket()
                return

    def wait_reply(self, seq: int, deadline_s: float) -> Any:
        """Block until the REPLY for control frame ``seq`` arrives,
        absorbing acks on the way and re-syncing (replay) when the
        server reports it is behind.  Raises :class:`TransportError` on
        deadline or when the connection is presumed half-open (see
        :data:`HALF_OPEN_POLL_LIMIT`)."""
        deadline = time.monotonic() + deadline_s
        stalled = 0
        while True:
            for index, (reply_seq, payload) in enumerate(self._replies):
                if reply_seq == seq:
                    del self._replies[index]
                    return payload
            if self._sock is None:
                raise TransportError(
                    f"shard {self.shard} connection lost while waiting for "
                    f"reply {seq}",
                    shard=self.shard, endpoint=self.endpoint, frame_seq=seq,
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"timed out waiting for reply {seq} from shard "
                    f"{self.shard} at {self.endpoint} "
                    f"(acked {self._acked}/{self._seq})",
                    shard=self.shard, endpoint=self.endpoint, frame_seq=seq,
                )
            try:
                self._absorb(
                    read_frame(self._sock, min(remaining, 1.0))
                )
                stalled = 0
            except TransportError as error:
                if "timed out" in str(error):
                    # Nothing arrived for a whole poll interval: a frame
                    # before the reply may have vanished (an injected
                    # drop).  Retransmit the unacked tail — duplicates
                    # are discarded by sequence, so this is always safe.
                    stalled += 1
                    if stalled >= HALF_OPEN_POLL_LIMIT:
                        # Replays changed nothing either: the connection
                        # is presumed half-open (our writes vanish).
                        # Tear it down so the caller's reconnect path —
                        # which replays the ring on a fresh socket —
                        # takes over.
                        self._presume_half_open(f"reply {seq}")
                    self._replay_tail()
                    continue
                self.close_socket()
                raise

    def wait_acks(self, max_ring: int, deadline_s: float) -> None:
        """Block until the unacked ring drains to ``max_ring`` frames or
        fewer — connected-side backpressure, the analogue of blocking on
        a full multiprocess queue.  Raises :class:`TransportError` on
        deadline or a lost connection (the caller's partition policy
        takes over)."""
        deadline = time.monotonic() + deadline_s
        stalled = 0
        while len(self._ring) > max_ring:
            if self._sock is None:
                raise TransportError(
                    f"shard {self.shard} connection lost with "
                    f"{len(self._ring)} frames unacked",
                    shard=self.shard, endpoint=self.endpoint,
                )
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"shard {self.shard} at {self.endpoint} still "
                    f"{len(self._ring)} frames behind after {deadline_s}s "
                    f"(acked {self._acked}/{self._seq})",
                    shard=self.shard, endpoint=self.endpoint,
                )
            try:
                self._absorb(read_frame(self._sock, min(remaining, 1.0)))
                stalled = 0
            except TransportError as error:
                if "timed out" in str(error):
                    stalled += 1
                    if stalled >= HALF_OPEN_POLL_LIMIT:
                        self._presume_half_open(
                            f"{len(self._ring)} unacked frames"
                        )
                    self._replay_tail()
                    continue
                self.close_socket()
                raise

    def _presume_half_open(self, waiting_for: str) -> None:
        """Tear down a connection that acks nothing despite replays."""
        self.close_socket()
        raise TransportError(
            f"shard {self.shard} at {self.endpoint} acked nothing for "
            f"{HALF_OPEN_POLL_LIMIT} poll intervals while waiting for "
            f"{waiting_for}: presumed half-open",
            shard=self.shard, endpoint=self.endpoint,
        )

    def _absorb(self, frame: Tuple[int, int, Any]) -> None:
        ftype, seq, payload = frame
        self._last_recv_monotonic = time.monotonic()
        if ftype == FT_ACK:
            self.acks_received += 1
            self._absorb_ack(seq)
            if payload == "gap" and seq < self._seq:
                # The server discarded an out-of-order frame and told us
                # its high-water mark: replay the tail it is missing.
                # (Plain trailing acks are normal pipelining — replaying
                # on those would be a retransmit storm.)
                self._replay_tail()
        elif ftype == FT_REPLY:
            self._absorb_ack(seq)
            if isinstance(payload, dict) and payload.get("op") == "invariant":
                self.fatal = payload
            self._replies.append((seq, payload))
        else:
            raise FrameCorruptError(
                f"unexpected frame type {ftype} from shard {self.shard}",
                shard=self.shard, endpoint=self.endpoint,
            )

    def _absorb_ack(self, acked: int) -> None:
        if acked > self._acked:
            self._acked = acked
        while self._ring and self._ring[0][0] <= self._acked:
            self._ring.pop(0)

    def _replay_tail(self) -> None:
        for seq, frame in list(self._ring):
            if seq > self._acked:
                self.retransmits += 1
                try:
                    self._transmit(frame)
                except TransportError:
                    return

    def report(self) -> Dict[str, Any]:
        """Exact per-connection transport counters."""
        return {
            "endpoint": self.endpoint,
            "connected": self.connected,
            "frames_sent": self.frames_sent,
            "retransmits": self.retransmits,
            "reconnects": self.reconnects,
            "acks_received": self.acks_received,
            "faults_injected": self.faults_injected,
            "highest_seq": self._seq,
            "acked_seq": self._acked,
            "ring_depth": len(self._ring),
            "reconnect_pauses_ns": list(self.reconnect_pauses_ns),
        }


# -- server side -----------------------------------------------------------


class ShardServer:
    """One remote shard: a :class:`~repro.service.engine.SlotHost`
    behind a TCP listener.

    Unconfigured at start — the coordinator's ``assign`` control frame
    delivers the detector configuration, the hash seed/slot space, the
    hosted slot ids, and any restored slot states, so ``eardet worker
    --listen`` needs no detector flags and cannot drift from the
    coordinator.  One coordinator connection is active at a time; a new
    accept replaces a dead one (the reconnect path), and the
    exactly-once sequence state spans connections.

    Run blocking via :meth:`serve_forever` (the CLI) or on a daemon
    thread via :meth:`start` (tests, benchmarks, single-host fleets).
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 frame_timeout_s: float = DEFAULT_FRAME_TIMEOUT_S):
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(4)
        self.host, self.port = self._listener.getsockname()[:2]
        self.frame_timeout_s = frame_timeout_s
        self._thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self.exit_code: Optional[int] = None
        # Detection state (built by "assign").
        self._host: Optional[SlotHost] = None
        self._seed = 0
        self._slots = 0
        # Exactly-once state (spans connections within one coordinator
        # session; a new session id in HELLO resets it — see
        # :func:`next_session_id`).
        self._session: Optional[int] = None
        self._applied_seq = 0
        self._reply_cache: Dict[int, bytes] = {}
        # Exact server-side counters (the "scrape" control op).
        self.frames_received = 0
        self.duplicates_discarded = 0
        self.gaps_discarded = 0
        self.batches_applied = 0
        self.packets_processed = 0
        self.connections_accepted = 0

    @property
    def endpoint(self) -> str:
        return f"{self.host}:{self.port}"

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> "ShardServer":
        """Serve on a daemon thread (returns immediately)."""
        self._thread = threading.Thread(
            target=self.serve_forever, daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Tear the server down from outside (tests/cleanup)."""
        self._stopped.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover
            pass
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def serve_forever(self) -> int:
        """Accept coordinator connections until a ``stop`` control frame
        (or :meth:`stop`).  Returns the process exit code the CLI should
        use: 0 (end of stream), :data:`~repro.service.workers.
        DRAIN_EXIT_CODE` (graceful drain), :data:`~repro.service.
        workers.INVARIANT_EXIT_CODE` (corrupted algorithm state) or
        :data:`TRANSPORT_ABORT_EXIT_CODE` (permanent protocol
        disagreement)."""
        try:
            while not self._stopped.is_set():
                try:
                    conn, _addr = self._listener.accept()
                except OSError:
                    break  # listener closed by stop()
                self.connections_accepted += 1
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                try:
                    self._serve_connection(conn)
                except _ServerExit as final:
                    self.exit_code = final.exit_code
                    self._stopped.set()
                except (TransportError, FrameCorruptError, OSError):
                    # A torn or corrupt connection (including a broken
                    # pipe mid-ack): drop it and await the coordinator's
                    # reconnect — the sequence discipline makes this
                    # lossless.
                    pass
                finally:
                    try:
                        conn.close()
                    except OSError:  # pragma: no cover
                        pass
        finally:
            try:
                self._listener.close()
            except OSError:  # pragma: no cover
                pass
        if self.exit_code is None:
            self.exit_code = 0
        return self.exit_code

    # -- per-connection loop ----------------------------------------------

    def _serve_connection(self, conn: socket.socket) -> None:
        ftype, _seq, hello = read_frame(conn, self.frame_timeout_s)
        if ftype != FT_HELLO or not isinstance(hello, dict):
            raise FrameCorruptError(f"expected HELLO, got type {ftype}")
        if hello.get("proto") != NET_PROTOCOL_VERSION:
            conn.sendall(encode_frame(FT_WELCOME, 0, {
                "proto": NET_PROTOCOL_VERSION,
                "error": (
                    f"protocol {hello.get('proto')!r} != "
                    f"{NET_PROTOCOL_VERSION}"
                ),
            }))
            raise _ServerExit(TRANSPORT_ABORT_EXIT_CODE)
        session = hello.get("session")
        if session != self._session:
            # A new coordinator session (fresh start or a supervised
            # restart-from-checkpoint): reset the exactly-once state —
            # the coming ``assign`` replaces the hosted detectors with
            # the coordinator's restored view.
            self._session = session
            self._applied_seq = 0
            self._reply_cache = {}
        conn.sendall(encode_frame(FT_WELCOME, 0, {
            "proto": NET_PROTOCOL_VERSION,
            "acked": self._applied_seq,
            "processed": self.packets_processed,
        }))
        while True:
            try:
                ftype, seq, payload = read_frame(conn, self.frame_timeout_s)
            except TransportError as error:
                if "(0/" in str(error) and "timed out" in str(error):
                    continue  # idle coordinator, not a dead one
                raise
            self.frames_received += 1
            if ftype not in (FT_BATCH, FT_CONTROL):
                raise FrameCorruptError(
                    f"unexpected frame type {ftype} on the server side"
                )
            if seq <= self._applied_seq:
                # Exactly-once: a duplicate is discarded; the cached
                # reply (if the original was a control frame) or a
                # cumulative ack tells the sender where we are.
                self.duplicates_discarded += 1
                cached = self._reply_cache.get(seq)
                if cached is not None:
                    conn.sendall(cached)
                else:
                    conn.sendall(
                        encode_frame(FT_ACK, self._applied_seq, None)
                    )
                continue
            if seq > self._applied_seq + 1:
                # A gap: something before this frame vanished.  Discard
                # it and send a gap-marked cumulative ack — the marker
                # (not mere ack lag, which is normal while pipelining)
                # is what triggers the sender's replay.
                self.gaps_discarded += 1
                conn.sendall(encode_frame(FT_ACK, self._applied_seq, "gap"))
                continue
            # seq == applied + 1: apply exactly once.
            try:
                if ftype == FT_BATCH:
                    self._apply_batch(payload)
                    self._applied_seq = seq
                    conn.sendall(encode_frame(FT_ACK, seq, None))
                else:
                    reply, final = self._apply_control(seq, payload)
                    self._applied_seq = seq
                    frame = encode_frame(FT_REPLY, seq, reply)
                    # Cache only the latest control reply: the sender
                    # issues control frames synchronously, so only the
                    # newest can ever be re-requested.
                    self._reply_cache = {seq: frame}
                    conn.sendall(frame)
                    if final is not None:
                        raise _ServerExit(final)
            except _InvariantSignal as signal:
                # Corrupted algorithm state is permanent: ship the
                # forensics in-band (mirroring the multiprocess
                # worker), then die with the invariant exit code.
                try:
                    conn.sendall(encode_frame(FT_REPLY, seq, {
                        "op": "invariant",
                        "payload": signal.violation.as_dict(),
                    }))
                except OSError:  # pragma: no cover - peer already gone
                    pass
                raise _ServerExit(INVARIANT_EXIT_CODE)

    # -- frame application -------------------------------------------------

    def _apply_batch(self, payload) -> None:
        if self._host is None:
            raise FrameCorruptError("BATCH before assign")
        groups = decode_batch(payload, self._host.detectors)
        try:
            self._host.observe(groups)
        except Exception as error:
            if _is_invariant(error):
                raise _InvariantSignal(error) from error
            raise
        self.batches_applied += 1
        self.packets_processed += sum(len(group[1]) for group in groups)

    def _apply_control(
        self, seq: int, payload
    ) -> Tuple[Dict[str, Any], Optional[int]]:
        """Apply one control op; returns ``(reply, exit_code_or_None)``.

        ``assign``, ``ping`` and ``scrape`` are the server's own; every
        other op is a slot command (``{"op", "arg"}``) for the hosted
        :meth:`~repro.service.engine.SlotHost.command`, answered with
        ``{"op": "done", "reply": ...}``."""
        if not isinstance(payload, dict) or "op" not in payload:
            raise FrameCorruptError(f"malformed control frame {payload!r}")
        op = payload["op"]
        try:
            if op == "assign":
                return self._op_assign(payload), None
            if op == "ping":
                return {
                    "op": "pong",
                    "acked": seq,
                    "processed": self.packets_processed,
                }, None
            if op == "scrape":
                return {"op": "metrics", "metrics": self.scrape()}, None
            arg = payload.get("arg")
            if self._host is not None:
                reply = self._host.command(op, arg)
            elif op == "stop":
                reply = {}
            else:
                raise FrameCorruptError(f"control {op!r} before assign")
            code = None
            if op == "stop":
                code = DRAIN_EXIT_CODE if arg else 0
            return {"op": "done", "reply": reply}, code
        except (_InvariantSignal, _ServerExit, FrameCorruptError,
                HandshakeError):
            raise
        except Exception as error:
            if _is_invariant(error):
                raise _InvariantSignal(error) from error
            import traceback

            return {"op": "error", "traceback": traceback.format_exc(),
                    "message": str(error)}, None

    def _op_assign(self, payload) -> Dict[str, Any]:
        config = EARDetConfig(**payload["config"])
        seed = int(payload["seed"])
        slots = int(payload["slots"])
        if self._host is not None and (seed, slots) != (
            self._seed, self._slots
        ):
            # A coordinator whose hash deployment (seed / slot space)
            # disagrees with what this server was built for is a
            # permanent condition: restarting either side reproduces it.
            # Abort with the transport code.  The *detector config* is
            # deliberately not part of this check — a supervised restart
            # after a rolled-back retune legitimately reassigns with the
            # checkpoint's previous-epoch config, and the assign replaces
            # the hosted detectors wholesale either way.
            raise _ServerExit(TRANSPORT_ABORT_EXIT_CODE)
        # (Re)build wholesale: within a session the sequence discipline
        # guarantees this runs once; across sessions the coordinator's
        # restored view *replaces* whatever this server hosted.
        self._seed = seed
        self._slots = slots
        self._host = SlotHost(
            config,
            payload["slot_ids"],
            payload.get("states") or {},
            invariant_every=payload.get("invariant_every"),
        )
        return {"op": "assigned", "slots": sorted(self._host.detectors)}

    # -- introspection -----------------------------------------------------

    def _hosted(self) -> List:
        return list(self._host.detectors.values()) if self._host else []

    def scrape(self) -> Dict[str, int]:
        """Server-side exact counters (the telemetry scrape)."""
        return {
            "frames_received": self.frames_received,
            "duplicates_discarded": self.duplicates_discarded,
            "gaps_discarded": self.gaps_discarded,
            "batches_applied": self.batches_applied,
            "packets_processed": self.packets_processed,
            "connections_accepted": self.connections_accepted,
            "applied_seq": self._applied_seq,
            "detections": sum(len(det.sink) for det in self._hosted()),
        }

    def detections(self) -> Dict:
        """Merged detections of the hosted slots (local introspection —
        the coordinator gets these via snapshot frames)."""
        sink = ReportSink()
        for detector in self._hosted():
            sink.merge(detector.sink)
        return sink.as_dict()


class _ServerExit(Exception):
    """Internal: unwind the connection loop with a process exit code."""

    def __init__(self, exit_code: int):
        super().__init__(f"server exit {exit_code}")
        self.exit_code = exit_code


class _InvariantSignal(Exception):
    """Internal: an InvariantViolation crossed the frame handler."""

    def __init__(self, violation):
        super().__init__(str(violation))
        self.violation = violation


def _is_invariant(error: BaseException) -> bool:
    from ..guard import InvariantViolation

    return isinstance(error, InvariantViolation)


def run_worker(listen: str) -> int:
    """Blocking entry point for ``eardet worker --listen HOST:PORT``.

    Serves one shard until the coordinator stops it; converts an
    invariant violation into :data:`~repro.service.workers.
    INVARIANT_EXIT_CODE` so process supervisors classify the death the
    same way the multiprocess parent does.
    """
    host, port = parse_endpoint(listen)
    server = ShardServer(host=host, port=port)
    print(f"eardet worker listening on {server.endpoint}", flush=True)
    return server.serve_forever()
