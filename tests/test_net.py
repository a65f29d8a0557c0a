"""Multi-host transport: frame codec forensics, exactly-once delivery,
the ``net:`` fault DSL, and the differential network-chaos gate — the
remote engine's detections are bit-identical to the in-process engine's
wherever the exactness envelope says EXACT, and beyond the masking
budget the loss is integer-accounted from the first unsendable packet.

Everything runs over loopback :class:`ShardServer` threads, so the
whole suite is a real TCP deployment in miniature.  The fuzz seed
honors ``EARDET_NET_SEED`` so the CI net-chaos job can sweep several
packet streams; every ``net:`` fault fires at an exact (shard, frame
index) coordinate, so any failure reproduces bit for bit by re-running
with the same seed.
"""

from __future__ import annotations

import contextlib
import os
import random
import socket
import struct
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.config import EARDetConfig
from repro.core.eardet import ReconfigurationError
from repro.service import (
    BackoffPolicy,
    DRAIN_EXIT_CODE,
    DeadLetterSink,
    FaultPlan,
    FrameCorruptError,
    HandshakeError,
    InProcessEngine,
    MigrationError,
    MigrationPlan,
    MultiprocessEngine,
    NET_PROTOCOL_VERSION,
    NetFault,
    RemoteEngine,
    ShardConnection,
    ShardFault,
    ShardServer,
    TRANSPORT_ABORT_EXIT_CODE,
    TransportError,
    execute_migration,
    parse_endpoint,
    parse_endpoints,
)
from repro.service.checkpoint import pack_column
from repro.service.net import (
    FT_ACK,
    FT_BATCH,
    FT_CONTROL,
    FT_HELLO,
    MAX_PAYLOAD,
    decode_batch,
    decode_frame,
    encode_frame,
)

from conftest import FID_KINDS, mixed_packets, with_fid_kind

CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518, beta_l=1000, gamma_l=50_000
)

#: The CI net-chaos job sweeps this (see .github/workflows/ci.yml).
NET_SEED = int(os.environ.get("EARDET_NET_SEED", "7"))

#: Zero-delay reconnect retries: transport tests never really sleep.
FAST = BackoffPolicy(initial_s=0.0)


def make_packets(count=4000, seed=NET_SEED, **options):
    return mixed_packets(count, seed, **options)


@contextlib.contextmanager
def fleet(count):
    """``count`` loopback shard servers on daemon threads."""
    servers = [ShardServer().start() for _ in range(count)]
    try:
        yield servers
    finally:
        for server in servers:
            server.stop()


def endpoints_of(servers):
    return [(server.host, server.port) for server in servers]


def ingest_all(engine, packets, batch=512):
    for start in range(0, len(packets), batch):
        engine.ingest(packets[start:start + batch])
    engine.flush()


def reference_detections(packets, slots, seed=0, shards=2):
    """The in-process run every differential test compares against
    (same slot space and hash seed — that is all detections depend on)."""
    engine = InProcessEngine(CONFIG, shards=shards, seed=seed, slots=slots)
    try:
        ingest_all(engine, packets)
        return dict(engine.detections())
    finally:
        engine.close()


def remote_engine(servers, **kwargs):
    kwargs.setdefault("backoff", FAST)
    return RemoteEngine(CONFIG, endpoints_of(servers), **kwargs)


def batch_payload(*packets, slot=0):
    """The BATCH payload for ``(time, size, fid)`` packets of one slot:
    a single slot group, its three columns in :func:`pack_column`
    form."""
    columns = (pack_column(list(column)) for column in zip(*packets))
    return ((slot, *columns),)


#: An ``assign`` control payload for a one-slot shard under CONFIG.
ASSIGN = {
    "op": "assign",
    "config": {
        "rho": CONFIG.rho, "n": CONFIG.n,
        "beta_th": CONFIG.beta_th, "alpha": CONFIG.alpha,
        "beta_l": CONFIG.beta_l, "gamma_l": CONFIG.gamma_l,
        "virtual_unit": CONFIG.virtual_unit,
    },
    "seed": 0, "slots": 1, "slot_ids": [0], "states": {},
}

#: One malformed BATCH payload per check the server makes in place of
#: ``Packet`` construction and routing (ASSIGN hosts slot 0 only).  The
#: column checks apply to every group, not just the first.
BAD_BATCHES = {
    "two-columns": ((0, pack_column([1]), pack_column([64])),),
    "v1-tuple-list": [(1, 64, "flow")],
    "v2-columns": (pack_column([1]), pack_column([64]), ["f"]),
    "group-not-a-tuple": ([0, pack_column([1]), pack_column([64]), ["f"]],),
    "slot-not-int": (("0", pack_column([1]), pack_column([64]), ["f"]),),
    "slot-is-bool": ((False, pack_column([1]), pack_column([64]), ["f"]),),
    "unhosted-slot": batch_payload((1, 64, "f"), slot=1),
    "ragged-packed-column": (
        (0, b"\x00" * 12, pack_column([64]), ["f"]),
    ),
    "unequal-lengths": (
        (0, pack_column([1, 2]), pack_column([64]), ["f", "g"]),
    ),
    "negative-time": batch_payload((5, 64, 7), (-1, 64, 7)),
    "zero-size": batch_payload((1, 64, 7), (2, 0, 7)),
    "negative-size": batch_payload((1, -64, "f")),
    "bad-second-group": (
        batch_payload((1, 64, "f"))[0],
        (0, pack_column([2]), pack_column([0]), ["g"]),
    ),
}


# ---------------------------------------------------------------- codec


class TestFrameCodec:
    def test_round_trip_every_type(self):
        payloads = {
            FT_HELLO: {"proto": NET_PROTOCOL_VERSION, "shard": 3},
            FT_BATCH: batch_payload((1, 64, "flow-1"), (2, 1518, b"raw-id")),
            FT_CONTROL: {"op": "ping"},
            FT_ACK: None,
        }
        for ftype, payload in payloads.items():
            ftype_out, seq, decoded = decode_frame(
                encode_frame(ftype, 17, payload)
            )
            assert ftype_out == ftype
            assert seq == 17
            assert decoded == payload

    def test_batch_columns_pack_per_column(self):
        """Each column picks its own encoding from its values' types:
        int64-range ints pack to 8 bytes a value, anything else stays a
        codec list — and both decode to the original values."""
        big = 2**63
        payload = batch_payload(
            (1, 64, 5), (2, 1518, True), (3, 40, big), (4, 40, "f"),
        )
        ((slot, times, sizes, fids),) = payload
        assert slot == 0
        assert times == struct.pack("<4q", 1, 2, 3, 4)
        assert sizes == struct.pack("<4q", 64, 1518, 40, 40)
        assert fids == [5, True, big, "f"]
        assert pack_column([1, big]) == [1, big]
        assert pack_column([-(2**63), 2**63 - 1]) == bytes.fromhex(
            "0000000000000080" "ffffffffffffff7f"
        )
        _, _, decoded = decode_frame(encode_frame(FT_BATCH, 1, payload))
        ((slot, *columns),) = decode_batch(decoded)
        assert slot == 0
        assert [list(column) for column in columns] == [
            [1, 2, 3, 4], [64, 1518, 40, 40], [5, True, big, "f"],
        ]
        assert type(columns[2][1]) is bool

    @pytest.mark.parametrize("case", sorted(BAD_BATCHES))
    def test_malformed_batch_rejected(self, case):
        """The server builds no ``Packet`` and routes nothing, so the
        batch decoder makes its checks: a bad payload raises
        FrameCorruptError, both from :func:`decode_batch` (given the
        hosted slots) and from the server applying it."""
        payload = BAD_BATCHES[case]
        with pytest.raises(FrameCorruptError):
            decode_batch(payload, ASSIGN["slot_ids"])
        server = ShardServer()
        try:
            server._apply_control(1, ASSIGN)
            with pytest.raises(FrameCorruptError):
                server._apply_batch(payload)
            assert server.packets_processed == 0
        finally:
            server.stop()

    def test_encode_rejects_bad_type_and_seq(self):
        with pytest.raises(ValueError):
            encode_frame(99, 1, None)
        with pytest.raises(ValueError):
            encode_frame(FT_BATCH, -1, None)

    def test_bad_magic_offset_zero(self):
        frame = bytearray(encode_frame(FT_BATCH, 1, [(1, 64, "f")]))
        frame[0] = ord("X")
        with pytest.raises(FrameCorruptError) as info:
            decode_frame(bytes(frame))
        assert info.value.offset == 0

    def test_unknown_type_offset_four(self):
        frame = bytearray(encode_frame(FT_BATCH, 1, None))
        frame[4] = 99
        with pytest.raises(FrameCorruptError) as info:
            decode_frame(bytes(frame))
        assert info.value.offset == 4

    def test_flipped_payload_bit_fails_crc(self):
        frame = bytearray(encode_frame(FT_BATCH, 1, [(1, 64, "flow")]))
        frame[-6] ^= 0x01  # inside the payload, before the CRC
        with pytest.raises(FrameCorruptError, match="CRC"):
            decode_frame(bytes(frame))

    def test_truncated_frame_reports_length(self):
        frame = encode_frame(FT_BATCH, 1, [(1, 64, "flow")])
        with pytest.raises(FrameCorruptError, match="truncated"):
            decode_frame(frame[:5])
        with pytest.raises(FrameCorruptError, match="length mismatch"):
            decode_frame(frame[:-1])

    def test_impossible_length_rejected_before_read(self):
        frame = bytearray(encode_frame(FT_ACK, 1, None))
        frame[13:17] = (MAX_PAYLOAD + 1).to_bytes(4, "little")
        with pytest.raises(FrameCorruptError, match="impossible"):
            decode_frame(bytes(frame))

    def test_retransmitted_frame_is_byte_identical(self):
        """The codec is the checkpoint codec: deterministic, so a replay
        puts the identical bytes on the wire and CRCs stay valid."""
        payload = [(1, 64, "flow"), (2, 128, b"raw")]
        assert encode_frame(FT_BATCH, 5, payload) == encode_frame(
            FT_BATCH, 5, payload
        )

    def test_parse_endpoints(self):
        assert parse_endpoint("10.0.0.1:9000") == ("10.0.0.1", 9000)
        assert parse_endpoint("9000") == ("127.0.0.1", 9000)
        assert parse_endpoints("a:1, b:2") == [("a", 1), ("b", 2)]
        with pytest.raises(ValueError):
            parse_endpoint("host:notaport")
        with pytest.raises(ValueError):
            parse_endpoint("host:70000")
        with pytest.raises(ValueError):
            parse_endpoints(" , ")


# ---------------------------------------------------------- exactly-once


class TestExactlyOnce:
    def assign(self, conn):
        seq = conn.send(FT_CONTROL, ASSIGN)
        assert conn.wait_reply(seq, 10.0)["op"] == "assigned"

    def test_duplicate_batch_discarded_not_reapplied(self):
        with fleet(1) as (server,):
            conn = ShardConnection(0, server.host, server.port, backoff=FAST)
            conn.connect(hello_extra={"session": 1})
            self.assign(conn)
            batch = batch_payload((1, 64, 11), (2, 64, 11))
            seq = conn.send(FT_BATCH, batch)
            conn.wait_acks(0, 10.0)
            # Re-send the identical frame: the server must discard it by
            # sequence, not double-count the packets.
            conn._transmit(encode_frame(FT_BATCH, seq, batch))
            ping = conn.send(FT_CONTROL, {"op": "ping"})
            reply = conn.wait_reply(ping, 10.0)
            assert reply["processed"] == 2
            assert server.duplicates_discarded == 1
            assert server.packets_processed == 2
            conn.close_socket()

    def test_gap_marked_ack_triggers_replay(self):
        plan = FaultPlan.parse("net:kind=drop,shard=0,at=2")
        with fleet(1) as (server,):
            conn = ShardConnection(
                0, server.host, server.port, backoff=FAST, fault_plan=plan
            )
            conn.connect(hello_extra={"session": 1})
            self.assign(conn)  # frame 1
            conn.send(FT_BATCH, batch_payload((1, 64, 1)))  # frame 2: dropped
            conn.send(FT_BATCH, batch_payload((2, 64, 2)))  # frame 3: a gap
            conn.wait_acks(0, 10.0)  # gap ack -> replay tail -> drained
            assert server.gaps_discarded >= 1
            assert server.packets_processed == 2
            assert conn.retransmits >= 1
            assert conn.ring_depth == 0
            conn.close_socket()

    def test_duplicate_control_returns_cached_reply(self):
        with fleet(1) as (server,):
            conn = ShardConnection(0, server.host, server.port, backoff=FAST)
            conn.connect(hello_extra={"session": 1})
            self.assign(conn)
            seq = conn.send(FT_CONTROL, {"op": "ping"})
            first = conn.wait_reply(seq, 10.0)
            conn._transmit(
                encode_frame(FT_CONTROL, seq, {"op": "ping"})
            )
            again = conn.wait_reply(seq, 10.0)
            assert again == first
            assert server.duplicates_discarded == 1
            conn.close_socket()

    def test_sequence_state_survives_reconnect(self):
        with fleet(1) as (server,):
            conn = ShardConnection(0, server.host, server.port, backoff=FAST)
            conn.connect(hello_extra={"session": 1})
            self.assign(conn)
            conn.send(FT_BATCH, batch_payload((1, 64, 1)))
            conn.wait_acks(0, 10.0)
            conn.close_socket()
            welcome = conn.connect(hello_extra={"session": 1})
            # The server's cumulative ack spans connections within a
            # session: nothing replays, nothing is lost.
            assert welcome["acked"] == conn.acked_seq
            ping = conn.send(FT_CONTROL, {"op": "ping"})
            assert conn.wait_reply(ping, 10.0)["processed"] == 1
            conn.close_socket()

    def test_new_session_resets_sequence_state(self):
        with fleet(1) as (server,):
            conn = ShardConnection(0, server.host, server.port, backoff=FAST)
            conn.connect(hello_extra={"session": 1})
            self.assign(conn)
            conn.close_socket()
            fresh = ShardConnection(0, server.host, server.port, backoff=FAST)
            welcome = fresh.connect(hello_extra={"session": 2})
            assert welcome["acked"] == 0
            fresh.close_socket()


# ------------------------------------------------------------- handshake


class TestHandshake:
    def test_version_mismatch_is_permanent(self):
        with fleet(1) as (server,):
            conn = ShardConnection(0, server.host, server.port, backoff=FAST)
            with pytest.raises(HandshakeError):
                conn.connect(hello_extra={"proto": 99, "session": 1})
            deadline = time.monotonic() + 5.0
            while server.exit_code is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.exit_code == TRANSPORT_ABORT_EXIT_CODE

    @staticmethod
    def assert_refused(proto):
        with fleet(1) as (server,):
            conn = ShardConnection(0, server.host, server.port, backoff=FAST)
            with pytest.raises(HandshakeError, match=f"protocol {proto}"):
                conn.connect(hello_extra={"proto": proto, "session": 1})
            deadline = time.monotonic() + 5.0
            while server.exit_code is None and time.monotonic() < deadline:
                time.sleep(0.01)
            assert server.exit_code == TRANSPORT_ABORT_EXIT_CODE

    def test_version_1_hello_refused(self):
        """A coordinator still speaking protocol 1 (per-packet tuple
        batches) is refused permanently, never fed column-less frames."""
        assert NET_PROTOCOL_VERSION == 4
        self.assert_refused(1)

    def test_version_2_hello_refused(self):
        """A coordinator speaking protocol 2 (one shard's unrouted
        columns per batch) is refused permanently: its servers would
        have to hash every flow again."""
        self.assert_refused(2)

    def test_version_3_hello_refused(self):
        """A coordinator speaking protocol 3 (one control-frame shape per
        slot command) is refused permanently: its snapshot, extract,
        install, reconfig and stop frames carry no ``arg``."""
        self.assert_refused(3)

    def test_non_hello_first_frame_rejected(self):
        with fleet(1) as (server,):
            sock = socket.create_connection(
                (server.host, server.port), timeout=5.0
            )
            try:
                sock.sendall(encode_frame(FT_BATCH, 1, [(1, 64, "f")]))
                # The server drops the connection without a WELCOME.
                sock.settimeout(5.0)
                assert sock.recv(1) == b""
            finally:
                sock.close()


# ----------------------------------------------------------- fault DSL


class TestNetFaultDSL:
    def test_parse_and_describe_round_trip(self):
        spec = (
            "net:kind=drop,shard=0,at=5;net:kind=delay,shard=1,at=4,"
            "secs=0.05;net:kind=partition,shard=1,at=12,secs=0.2"
        )
        plan = FaultPlan.parse(spec)
        assert [f.kind for f in plan.net_faults] == [
            "drop", "delay", "partition"
        ]
        assert plan.net_faults[1].duration_s == pytest.approx(0.05)
        described = plan.describe()
        for fragment in ("kind=drop", "kind=delay", "kind=partition"):
            assert fragment in described

    def test_take_net_fires_once_at_exact_coordinate(self):
        plan = FaultPlan.parse("net:kind=dup,shard=1,at=3")
        assert plan.take_net(1, 2) is None
        assert plan.take_net(0, 3) is None  # other shard untouched
        fault = plan.take_net(1, 3)
        assert fault is not None and fault.kind == "dup"
        assert plan.take_net(1, 3) is None  # fire-once

    def test_validation(self):
        with pytest.raises(ValueError):
            NetFault(kind="gamma-ray", shard=0, at=1)
        with pytest.raises(ValueError):
            NetFault(kind="drop", shard=0, at=0)
        with pytest.raises(ValueError):
            NetFault(kind="delay", shard=0, at=1, duration_s=-1.0)


# ----------------------------------------------- differential chaos gate


class TestRemoteDifferential:
    """detections(remote, net faults) == detections(in-process) wherever
    the envelope says EXACT — the PR's central property."""

    @pytest.mark.parametrize("fid_kind", FID_KINDS)
    def test_clean_run_bit_identical(self, fid_kind):
        packets = with_fid_kind(make_packets(), fid_kind)
        expected = reference_detections(packets, slots=4)
        with fleet(2) as servers:
            engine = remote_engine(servers, slots=4, chunk_size=256)
            ingest_all(engine, packets)
            assert dict(engine.detections()) == expected
            assert all(env.exact for env in engine.envelope())
            engine.close()

    def test_chaos_drop_dup_reorder_delay_halfopen_bit_identical(self):
        packets = make_packets()
        expected = reference_detections(packets, slots=4)
        plan = FaultPlan.parse(
            "net:kind=drop,shard=0,at=3;net:kind=dup,shard=0,at=6;"
            "net:kind=reorder,shard=1,at=4;net:kind=delay,shard=1,at=7,"
            "secs=0.01;net:kind=halfopen,shard=0,at=9"
        )
        with fleet(2) as servers:
            engine = remote_engine(
                servers, slots=4, chunk_size=128, fault_plan=plan
            )
            ingest_all(engine, packets)
            report = engine.transport_report()
            assert sum(r["faults_injected"] for r in report) == 5
            assert sum(r["retransmits"] for r in report) >= 1
            assert dict(engine.detections()) == expected
            assert all(env.exact for env in engine.envelope())
            engine.close()

    def test_masked_partition_stays_exact(self):
        """An outage shorter than the mask budget is invisible: the ring
        replays on reconnect and detections are bit-identical."""
        packets = make_packets()
        expected = reference_detections(packets, slots=4)
        plan = FaultPlan.parse("net:kind=partition,shard=0,at=5,secs=0.2")
        with fleet(2) as servers:
            engine = remote_engine(
                servers, slots=4, chunk_size=128, fault_plan=plan,
                mask_deadline_s=10.0,
            )
            ingest_all(engine, packets)
            assert dict(engine.detections()) == expected
            # The snapshot barrier forced the reconnect + ring replay.
            report = engine.transport_report()
            assert report[0]["reconnects"] >= 2  # initial + post-partition
            assert report[0]["outages"] >= 1
            assert all(env.exact for env in engine.envelope())
            assert engine.dead_shards() == []
            engine.close()

    def test_voided_partition_accounts_from_first_unsendable_packet(self):
        """Past the mask budget the shard's envelope is voided: every
        lost packet is dead-lettered and integer-accounted, the healthy
        shard stays bit-identical."""
        packets = make_packets()
        sink = DeadLetterSink()
        plan = FaultPlan.parse("net:kind=partition,shard=0,at=5,secs=0.5")
        with fleet(2) as servers:
            engine = remote_engine(
                servers, slots=4, chunk_size=128, fault_plan=plan,
                mask_deadline_s=0.01, mask_frame_limit=2, dead_letter=sink,
            )
            ingest_all(engine, packets)
            envelopes = engine.envelope()
            assert not envelopes[0].exact
            assert envelopes[0].reason == "partition"
            assert envelopes[0].lost_packets > 0
            assert envelopes[0].first_loss_time_ns is not None
            assert envelopes[1].exact
            # Integer identity: every routed packet either applied
            # exactly once or accounted here.
            assert sink.total == envelopes[0].lost_packets
            losses = [
                entry for entry in sink.entries
                if entry.reason == "partition"
            ]
            assert losses[0].time_ns == envelopes[0].first_loss_time_ns
            # The healthy shard's sub-stream is still EXACT: compare
            # against the reference restricted to shard-1 flows.
            expected = reference_detections(packets, slots=4)
            remote = dict(engine.detections())
            for fid, when in expected.items():
                if engine.shard_of(fid) == 1:
                    assert remote.get(fid) == when
            engine.close()

    def test_partition_dead_letters_carry_arrival_indices(self):
        """A voided partition dead-letters each staged packet with its
        shard-local arrival index, stepping over the positions an
        injected drop took — the positions a forensics replay
        re-injects."""
        packets = make_packets()
        sink = DeadLetterSink(capacity=len(packets))
        plan = FaultPlan([
            NetFault(kind="partition", shard=0, at=5, duration_s=0.5),
            ShardFault("drop", shard=0, at=700, count=40),
        ])
        with fleet(2) as servers:
            engine = remote_engine(
                servers, slots=4, chunk_size=128, fault_plan=plan,
                mask_deadline_s=0.01, mask_frame_limit=2, dead_letter=sink,
            )
            ingest_all(engine, packets)
            arrivals = [
                (p.time, p.size, p.fid)
                for p in packets if engine.shard_of(p.fid) == 0
            ]
            engine.close()
        by_reason: dict = {}
        for entry in sink.entries:
            assert entry.shard == 0
            assert arrivals[entry.index - 1] == (
                entry.time_ns, entry.size, entry.fid
            )
            by_reason.setdefault(entry.reason, []).append(entry.index)
        assert by_reason["injected-drop"] == list(range(700, 740))
        voided = by_reason["partition"]
        # The outage spans the drop window, so voided chunks straddle it.
        assert voided == sorted(voided)
        assert min(voided) < 700 and max(voided) >= 740
        assert not set(voided) & set(range(700, 740))

    def test_dead_shard_listed_while_mask_exhausted(self):
        packets = make_packets(count=1500)
        plan = FaultPlan.parse("net:kind=partition,shard=0,at=3,secs=30")
        with fleet(2) as servers:
            engine = remote_engine(
                servers, slots=2, chunk_size=128, fault_plan=plan,
                mask_deadline_s=0.01, mask_frame_limit=2,
            )
            ingest_all(engine, packets)
            assert engine.dead_shards() == [0]
            assert engine.heartbeat_ages()[0] > 0.0
            engine.terminate()

    def test_fuzzed_fault_plans_bit_identical(self):
        """The fuzz gate: random (kind, shard, frame-index) coordinates
        from the sweep seed; every non-lossy schedule must leave the
        remote engine bit-identical and every envelope EXACT."""
        rng = random.Random(NET_SEED * 7919)
        packets = make_packets(count=3000)
        expected = reference_detections(packets, slots=4)
        for round_index in range(3):
            faults = []
            for _ in range(rng.randint(2, 5)):
                kind = rng.choice(("drop", "dup", "reorder", "halfopen"))
                faults.append(NetFault(
                    kind=kind, shard=rng.randrange(2),
                    at=rng.randint(2, 10),
                ))
            plan = FaultPlan(faults)
            with fleet(2) as servers:
                engine = remote_engine(
                    servers, slots=4, chunk_size=128, fault_plan=plan
                )
                ingest_all(engine, packets)
                detections = dict(engine.detections())
                envelopes = engine.envelope()
                engine.close()
            assert detections == expected, (
                f"round {round_index} (seed {NET_SEED}): remote diverged "
                f"under {plan.describe()}"
            )
            assert all(env.exact for env in envelopes)


# ------------------------------------------------- lifecycle + migration


class TestRemoteLifecycle:
    def test_rejects_overload_and_bad_geometry(self):
        with pytest.raises(ValueError, match="overload"):
            RemoteEngine(CONFIG, ["127.0.0.1:1"], overload=object())
        with pytest.raises(ValueError, match="shards"):
            RemoteEngine(CONFIG, ["127.0.0.1:1"], shards=2)
        with pytest.raises(ValueError, match="slots"):
            RemoteEngine(
                CONFIG, ["127.0.0.1:1", "127.0.0.1:2"], slots=1
            )
        with pytest.raises(ValueError, match="endpoint"):
            RemoteEngine(CONFIG, [])

    def test_snapshot_restore_into_new_fleet(self):
        """Cross-host failover: snapshot one fleet, restore into a brand
        new one (new session), continue the stream — bit-identical."""
        packets = make_packets()
        half = len(packets) // 2
        expected = reference_detections(packets, slots=4)
        with fleet(2) as servers:
            first = remote_engine(servers, slots=4, chunk_size=256)
            ingest_all(first, packets[:half])
            snap = first.snapshot()
            first.terminate()
        with fleet(2) as servers:
            second = remote_engine(servers, slots=4, chunk_size=256)
            second.restore(snap)
            ingest_all(second, packets[half:])
            assert dict(second.detections()) == expected
            second.close()

    def test_restore_rejects_mismatched_geometry(self):
        with fleet(2) as servers:
            engine = remote_engine(servers, slots=4)
            snap = engine.snapshot()
            engine.terminate()
        with fleet(2) as servers:
            other = remote_engine(servers, slots=8)
            with pytest.raises(ValueError, match="slots"):
                other.restore(snap)
            wrong_seed = remote_engine(servers, slots=4, seed=99)
            with pytest.raises(ValueError, match="seed"):
                wrong_seed.restore(snap)

    def test_close_drain_collects_final_state(self):
        packets = make_packets(count=1500)
        expected = reference_detections(packets, slots=2)
        with fleet(2) as servers:
            engine = remote_engine(servers, slots=2)
            ingest_all(engine, packets)
            final = engine.close(drain=True)
            assert final["format"] >= 1
            assert dict(engine.detections()) == expected
            assert not engine.running
            # Transport counters survive teardown for the final scrape.
            report = engine.transport_report()
            assert all(r["frames_sent"] > 0 for r in report)
            assert all(not r["connected"] for r in report)

    def test_health_and_scrape_shapes(self):
        packets = make_packets(count=1500)
        with fleet(2) as servers:
            engine = remote_engine(servers, slots=4)
            ingest_all(engine, packets)
            health = engine.health()
            assert [h.shard for h in health] == [0, 1]
            assert sum(h.packets for h in health) == len(packets)
            assert all(h.degradation_level == "exact" for h in health)
            assert all(h.slot_count == 2 for h in health)
            metrics = engine.scrape_workers()
            assert sum(m["packets_processed"] for m in metrics) == len(
                packets
            )
            assert all(m["duplicates_discarded"] == 0 for m in metrics)
            engine.close()


class TestPipelinedBarriers:
    def test_fleet_wide_barriers_send_every_frame_before_the_first_wait(
        self, monkeypatch
    ):
        """A fleet-wide control barrier puts every shard's frame on the
        wire before it waits on any reply — one round trip, not one per
        shard (the multiprocess engine's queue markers do the same).
        That holds for the start-up ``assign`` the first ingest sends
        too."""
        events = []
        send, wait_reply = ShardConnection.send, ShardConnection.wait_reply

        def recording_send(conn, ftype, payload):
            if ftype == FT_CONTROL:
                events.append(("send", conn.shard, payload["op"]))
            return send(conn, ftype, payload)

        def recording_wait(conn, seq, deadline_s):
            events.append(("wait", conn.shard, None))
            return wait_reply(conn, seq, deadline_s)

        monkeypatch.setattr(ShardConnection, "send", recording_send)
        monkeypatch.setattr(ShardConnection, "wait_reply", recording_wait)
        with fleet(3) as servers:
            engine = remote_engine(servers)
            try:
                for op, barrier in (
                    (
                        "assign",
                        lambda: ingest_all(engine, make_packets(count=1500)),
                    ),
                    ("snapshot", engine.snapshot),
                    ("scrape", engine.scrape_workers),
                ):
                    events.clear()
                    barrier()
                    sends = [
                        index for index, (kind, _shard, sent_op)
                        in enumerate(events)
                        if kind == "send" and sent_op == op
                    ]
                    waits = [
                        index for index, (kind, _shard, _op)
                        in enumerate(events) if kind == "wait"
                    ]
                    assert sorted(events[i][1] for i in sends) == [0, 1, 2]
                    assert len(waits) == 3
                    assert max(sends) < min(waits), events
            finally:
                engine.close()


class TestRemoteResharding:
    def test_live_split_across_hosts_bit_identical(self):
        """Cross-host live resharding: grow from 2 to 3 shards onto a
        spare endpoint mid-stream; detections match the static run."""
        packets = make_packets()
        half = len(packets) // 2
        expected = reference_detections(packets, slots=6)
        with fleet(3) as servers:
            engine = remote_engine(
                servers, slots=6, shards=2, chunk_size=256
            )
            ingest_all(engine, packets[:half])
            report = execute_migration(
                engine,
                MigrationPlan.split(engine.layout, shard=0, reason="test"),
                backoff=FAST,
            )
            assert engine.layout.shards == 3
            assert engine.layout.epoch == 1
            assert report.pause_ns > 0
            ingest_all(engine, packets[half:])
            assert dict(engine.detections()) == expected
            assert all(env.exact for env in engine.envelope())
            engine.close()

    def test_split_under_frame_chaos_bit_identical(self):
        """The migration's control barriers ride the same exactly-once
        stream as the batches, so frame faults cannot corrupt a move."""
        packets = make_packets()
        half = len(packets) // 2
        expected = reference_detections(packets, slots=6)
        plan = FaultPlan.parse(
            "net:kind=drop,shard=0,at=4;net:kind=dup,shard=1,at=5;"
            "net:kind=reorder,shard=0,at=8"
        )
        with fleet(3) as servers:
            engine = remote_engine(
                servers, slots=6, shards=2, chunk_size=128, fault_plan=plan
            )
            ingest_all(engine, packets[:half])
            execute_migration(
                engine,
                MigrationPlan.split(engine.layout, shard=0, reason="chaos"),
                backoff=FAST,
            )
            ingest_all(engine, packets[half:])
            assert dict(engine.detections()) == expected
            assert all(env.exact for env in engine.envelope())
            engine.close()

    def test_growth_past_endpoints_rolls_back(self):
        packets = make_packets(count=1000)
        with fleet(2) as servers:
            engine = remote_engine(servers, slots=4, chunk_size=256)
            ingest_all(engine, packets)
            from repro.service import MigrationError

            with pytest.raises(MigrationError):
                execute_migration(
                    engine,
                    MigrationPlan.split(
                        engine.layout, shard=0, reason="no-spare"
                    ),
                    attempts=1,
                    backoff=FAST,
                )
            assert engine.layout.shards == 2  # rolled back
            engine.close()

    def test_commands_reach_the_rolled_back_spare_on_every_transport(self):
        """Slot commands reach every provisioned shard on every
        transport.  A split rolled back at install leaves its target
        provisioned as a spare; a refused retune (n below occupancy) is
        rolled back by re-applying the old config; a committed retune
        to n=16 must reach the spare too, or the next split onto it
        restores 16-counter states into an 8-counter host.  The three
        transports end in equal snapshots."""
        packets = make_packets()
        third = len(packets) // 3
        install_fault = "mig:phase=install,mode=fail,at=1"
        snapshots = {}
        with fleet(2) as servers:
            engines = {
                "inprocess": InProcessEngine(CONFIG, shards=1, slots=4),
                "multiprocess": MultiprocessEngine(
                    CONFIG, shards=1, slots=4, chunk_size=256
                ),
                "remote": remote_engine(
                    servers, shards=1, slots=4, chunk_size=256
                ),
            }
            for kind, engine in engines.items():
                try:
                    ingest_all(engine, packets[:third])
                    with pytest.raises(MigrationError):
                        execute_migration(
                            engine,
                            MigrationPlan.split(engine.layout, shard=0),
                            attempts=1,
                            backoff=FAST,
                            fault_plan=FaultPlan.parse(install_fault),
                        )
                    assert engine.layout.shards == 1, kind
                    with pytest.raises(ReconfigurationError):
                        engine.apply_config(replace(CONFIG, n=2))
                    engine.apply_config(CONFIG)
                    engine.apply_config(replace(CONFIG, n=16))
                    ingest_all(engine, packets[third:2 * third])
                    execute_migration(
                        engine,
                        MigrationPlan.split(engine.layout, shard=0),
                        backoff=FAST,
                    )
                    assert engine.layout.shards == 2, kind
                    ingest_all(engine, packets[2 * third:])
                    snapshots[kind] = engine.snapshot()
                    del snapshots[kind]["queue_high_water"]
                finally:
                    engine.close()
        assert snapshots["multiprocess"] == snapshots["inprocess"]
        assert snapshots["remote"] == snapshots["inprocess"]


# ------------------------------------------------------------------ CLI


class TestWorkerCLI:
    @pytest.fixture
    def trace(self, tmp_path):
        """A syntactically-valid trace path: serve's engine-option
        validation fires before the file is ever opened."""
        return str(tmp_path / "stream.csv")

    def test_serve_remote_requires_workers(self, trace):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--workers"):
            main(["serve", "--trace", trace, "--engine", "remote"])

    def test_workers_requires_remote_engine(self, trace):
        from repro.cli import main

        with pytest.raises(SystemExit, match="remote"):
            main(["serve", "--trace", trace, "--workers", "127.0.0.1:1"])

    def test_workers_must_cover_shards(self, trace):
        from repro.cli import main

        with pytest.raises(SystemExit, match="shards"):
            main([
                "serve", "--trace", trace, "--engine", "remote",
                "--workers", "127.0.0.1:1", "--shards", "2",
            ])

    def test_terminate_grace_validation(self, trace):
        from repro.cli import main

        with pytest.raises(SystemExit, match="multiprocess"):
            main(["serve", "--trace", trace, "--terminate-grace", "3"])
        with pytest.raises(SystemExit, match="positive"):
            main([
                "serve", "--trace", trace, "--engine", "multiprocess",
                "--terminate-grace", "0",
            ])

    def test_worker_requires_listen(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="--listen"):
            main(["worker"])

    def test_worker_process_drains_with_exit_code(self):
        """End to end through the console entry point: spawn ``eardet
        worker --listen``, drive it over TCP, stop with drain, and check
        the exit-code contract from docs/FAULT_TOLERANCE.md."""
        repo = Path(__file__).resolve().parent.parent
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = str(repo / "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        process = subprocess.Popen(
            [
                sys.executable, "-c",
                "import sys; from repro.cli import main; "
                f"sys.exit(main(['worker', '--listen', '127.0.0.1:{port}']))",
            ],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True,
        )
        try:
            conn = ShardConnection(0, "127.0.0.1", port, backoff=FAST)
            deadline = time.monotonic() + 10.0
            while True:
                try:
                    conn.connect(hello_extra={"session": 1})
                    break
                except TransportError:
                    if time.monotonic() > deadline:
                        raise
                    time.sleep(0.05)
            seq = conn.send(FT_CONTROL, {"op": "stop", "arg": True})
            reply = conn.wait_reply(seq, 10.0)
            assert reply["op"] == "done"
            conn.close_socket()
            assert process.wait(timeout=10.0) == DRAIN_EXIT_CODE
            output = process.stdout.read()
            assert "listening" in output
        finally:
            if process.poll() is None:
                process.kill()
                process.wait()


class TestRemoteCheckpointCLI:
    """``serve --resume`` and ``tune --apply`` check the engine flags
    against the engine that will run: ``--engine`` if given, else the
    one the checkpoint records."""

    BASE = [
        "--rho", "1000000", "--gamma-l", "25000", "--beta-l", "1000",
        "--gamma-h", "200000",
    ]
    TUNE = ["--gamma-h", "200000", "--tune-gamma-l", "50000", "--apply"]

    @staticmethod
    def workers(servers):
        return ",".join(server.endpoint for server in servers)

    def serve(self, trace, *flags):
        from repro.cli import main

        return main(["serve", "--trace", str(trace), *flags])

    @pytest.fixture
    def remote_checkpoint(self, tmp_path, capsys):
        """A trace and the checkpoint a remote serve wrote 2,000 packets
        into it."""
        from repro.traffic.trace_io import write_csv

        trace = tmp_path / "trace.csv"
        write_csv(trace, make_packets(count=3000))
        ckpt = tmp_path / "remote.ckpt"
        with fleet(2) as servers:
            assert self.serve(
                trace, *self.BASE, "--shards", "2", "--engine", "remote",
                "--workers", self.workers(servers), "--checkpoint", str(ckpt),
                "--checkpoint-every", "1000", "--max-packets", "2000",
            ) == 0
        capsys.readouterr()
        return trace, ckpt

    def test_resume_without_workers_names_the_flag(self, remote_checkpoint):
        trace, ckpt = remote_checkpoint
        with pytest.raises(SystemExit) as excinfo:
            self.serve(trace, "--checkpoint", str(ckpt), "--resume")
        assert excinfo.value.code == (
            "a remote-engine checkpoint requires --workers HOST:PORT,..."
        )

    def test_tune_apply_without_workers_names_the_flag(
        self, remote_checkpoint
    ):
        from repro.cli import main

        _trace, ckpt = remote_checkpoint
        before = ckpt.read_bytes()
        with pytest.raises(SystemExit) as excinfo:
            main(["tune", "--checkpoint", str(ckpt), *self.TUNE])
        assert "--workers" in excinfo.value.code
        assert "\n" not in excinfo.value.code
        assert ckpt.read_bytes() == before

    def test_tune_apply_engine_remote_without_workers_names_the_flag(
        self, tmp_path, capsys
    ):
        from repro.cli import main
        from repro.traffic.trace_io import write_csv

        trace = tmp_path / "trace.csv"
        write_csv(trace, make_packets(count=1000))
        ckpt = tmp_path / "local.ckpt"
        assert self.serve(trace, *self.BASE, "--checkpoint", str(ckpt)) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main([
                "tune", "--checkpoint", str(ckpt), *self.TUNE,
                "--engine", "remote",
            ])
        assert excinfo.value.code == (
            "--engine remote requires --workers HOST:PORT,..."
        )

    def test_resume_on_a_loopback_fleet_matches_the_uninterrupted_run(
        self, remote_checkpoint, capsys
    ):
        trace, ckpt = remote_checkpoint
        assert self.serve(trace, *self.BASE, "--shards", "2") == 0
        reference = capsys.readouterr().out
        with fleet(2) as servers:
            assert self.serve(
                trace, "--checkpoint", str(ckpt), "--resume",
                "--workers", self.workers(servers),
            ) == 0
        resumed = capsys.readouterr().out
        assert "(2 shards, remote)" in resumed

        def detections(text):
            return sorted(
                line.strip() for line in text.splitlines()
                if line.strip().startswith("large flow '")
            )

        assert detections(resumed) == detections(reference)
        assert detections(resumed)

    def test_tune_apply_on_a_loopback_fleet_rewrites_the_checkpoint(
        self, remote_checkpoint, capsys
    ):
        from repro.cli import main
        from repro.service import read_checkpoint

        _trace, ckpt = remote_checkpoint
        with fleet(2) as servers:
            assert main([
                "tune", "--checkpoint", str(ckpt), *self.TUNE,
                "--workers", self.workers(servers),
            ]) == 0
        assert "retune committed" in capsys.readouterr().out
        meta = read_checkpoint(str(ckpt))["meta"]
        assert meta["engine"] == "remote"
        assert meta["control"]["epoch"] == 1
        assert meta["config"]["gamma_l"] == 50000
