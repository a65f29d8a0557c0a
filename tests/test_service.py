"""The streaming service: sources, sharded engines, checkpoint files,
crash recovery, and the ``eardet serve`` / ``eardet checkpoint`` CLI."""

from __future__ import annotations


import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.config import EARDetConfig
from repro.core.parallel import ParallelEARDet
from repro.model.packet import Packet
from repro.model.stream import PacketStream
from repro.service import (
    CheckpointError,
    DetectionService,
    FaultPlan,
    InProcessEngine,
    MultiprocessEngine,
    ShardFault,
    ShardServer,
    StreamSource,
    SyntheticSource,
    TraceFileSource,
    as_source,
    describe_checkpoint,
    read_checkpoint,
    write_checkpoint,
)
from repro.service.checkpoint import summarize_checkpoint
from repro.service.engine import FlowRouter

from conftest import FID_KINDS, mixed_packets as make_packets, with_fid_kind

CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518, beta_l=1000, gamma_l=50_000
)


# ---------------------------------------------------------------- sources


class TestSources:
    def test_batches_partition_the_stream(self):
        packets = make_packets(100)
        source = StreamSource(packets)
        batches = list(source.batches(batch_size=32))
        assert [len(b) for b in batches] == [32, 32, 32, 4]
        assert [p for b in batches for p in b] == packets

    def test_skip_resumes_mid_stream(self):
        packets = make_packets(50)
        source = StreamSource(packets)
        resumed = [p for b in source.batches(16, skip=33) for p in b]
        assert resumed == packets[33:]

    def test_invalid_parameters_rejected(self):
        source = StreamSource([])
        with pytest.raises(ValueError):
            next(source.batches(0))
        with pytest.raises(ValueError):
            next(source.batches(8, skip=-1))

    def test_one_shot_iterator_flagged_non_replayable(self):
        source = StreamSource(iter(make_packets(5)))
        assert not source.replayable
        assert StreamSource(make_packets(5)).replayable

    def test_synthetic_source_replays_identically(self):
        source = SyntheticSource(lambda: make_packets(30), name="gen")
        first = [p for b in source.batches(8) for p in b]
        second = [p for b in source.batches(8) for p in b]
        assert first == second

    def test_trace_file_source_round_trip(self, tmp_path):
        from repro.traffic.trace_io import write_csv

        packets = make_packets(64)
        path = tmp_path / "t.csv"
        write_csv(path, packets)
        source = TraceFileSource(path)
        assert [p for b in source.batches(100) for p in b] == packets

    def test_trace_file_source_rejects_unknown_extension(self, tmp_path):
        with pytest.raises(ValueError):
            TraceFileSource(tmp_path / "t.dat")

    def test_as_source_coerces_iterables(self):
        assert isinstance(as_source(PacketStream([])), StreamSource)
        source = StreamSource([])
        assert as_source(source) is source


# ---------------------------------------------------------------- engine


class TestInProcessEngine:
    def test_matches_parallel_eardet_exactly(self):
        """The engine is ParallelEARDet plus a runtime layer; detections
        and timestamps must be identical."""
        packets = make_packets(4000)
        reference = ParallelEARDet(CONFIG, shards=4, seed=0)
        for packet in packets:
            reference.observe(packet)
        engine = InProcessEngine(CONFIG, shards=4, seed=0)
        engine.ingest(packets)
        engine.flush()
        assert engine.detections() == reference.detected
        assert engine.detections()  # the workload does detect something

    def test_queues_stay_bounded_under_block_policy(self):
        engine = InProcessEngine(CONFIG, shards=2, queue_capacity=64)
        engine.ingest(make_packets(10_000))
        for health in engine.health():
            assert health.queue_depth <= 64
        assert engine.dropped == 0
        assert engine.accepted == 10_000

    def test_each_packet_is_routed_once(self):
        engine = InProcessEngine(CONFIG, shards=2, queue_capacity=64)
        route = engine._route
        calls = []

        def counting_route(fid):
            calls.append(fid)
            return route(fid)

        engine._route = counting_route
        packets = make_packets(2_000)
        engine.ingest(packets)  # drains full queues along the way
        engine.pump(budget=10)
        engine.flush()
        assert len(calls) == len(packets)
        assert sum(h.packets for h in engine.health()) == len(packets)

    def test_drop_policy_sheds_and_accounts(self):
        # One flow -> one shard; a tiny queue with no draining overflows.
        packets = [
            Packet(time=i * 1000, size=100, fid="same") for i in range(500)
        ]
        engine = InProcessEngine(
            CONFIG, shards=2, queue_capacity=100, overflow="drop"
        )
        engine.ingest(packets)
        assert engine.dropped == 400
        assert engine.accepted == 100
        shard = engine.shard_of("same")
        assert engine.health()[shard].dropped == 400

    def test_snapshot_drains_first(self):
        engine = InProcessEngine(CONFIG, shards=2)
        engine.ingest(make_packets(300))
        state = engine.snapshot()
        assert sum(s["stats"]["packets"] for s in state["shards"]) == 300

    def test_health_shape(self):
        engine = InProcessEngine(CONFIG, shards=3)
        engine.ingest(make_packets(1000))
        engine.flush()
        health = engine.health()
        assert [h.shard for h in health] == [0, 1, 2]
        assert sum(h.packets for h in health) == 1000

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            InProcessEngine(CONFIG, shards=0)
        with pytest.raises(ValueError):
            InProcessEngine(CONFIG, queue_capacity=0)
        with pytest.raises(ValueError):
            InProcessEngine(CONFIG, overflow="explode")


# ---------------------------------------------------------------- checkpoints


class TestCheckpointFiles:
    def _payload(self):
        engine = InProcessEngine(CONFIG, shards=2)
        engine.ingest(make_packets(500))
        return {"meta": {"format": 1, "packets": 500}, "engine": engine.snapshot()}

    def test_write_read_round_trip(self, tmp_path):
        path = tmp_path / "c.ckpt"
        payload = self._payload()
        write_checkpoint(path, payload)
        assert read_checkpoint(path) == payload

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, self._payload())
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_truncation_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        write_checkpoint(path, self._payload())
        path.write_bytes(path.read_bytes()[:-10])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_not_a_checkpoint_detected(self, tmp_path):
        path = tmp_path / "c.ckpt"
        path.write_bytes(b"definitely not a checkpoint file at all")
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_describe_mentions_shards_and_packets(self, tmp_path):
        description = describe_checkpoint(self._payload())
        assert "shard 0" in description
        assert "packets: 500" in description


# ---------------------------------------------------------------- recovery


class TestCrashRecovery:
    """The acceptance criterion: kill mid-stream, recover from the last
    checkpoint, and the detection set (flow ids AND timestamps) is
    identical to the uninterrupted run."""

    @pytest.mark.parametrize("kill_at", [1300, 5000, 9999])
    def test_kill_and_recover_is_exact(self, tmp_path, kill_at):
        packets = make_packets(10_000)
        uninterrupted = DetectionService(CONFIG, shards=4).serve(
            StreamSource(packets)
        )

        path = tmp_path / "svc.ckpt"
        crashing = DetectionService(
            CONFIG, shards=4, checkpoint_path=str(path), checkpoint_every=1000
        )
        # Simulated crash: serve part of the stream, never drain/finalize.
        crashing.serve(
            StreamSource(packets), max_packets=kill_at, final_checkpoint=False
        )

        recovered = DetectionService.resume(str(path))
        assert 0 < recovered.ingested <= kill_at
        report = recovered.serve(StreamSource(packets))
        assert report.detections == uninterrupted.detections
        assert report.resumed_from == recovered._resumed_from

    def test_recovery_replays_detections_after_boundary(self, tmp_path):
        """Detections that happened between the last checkpoint and the
        crash are rediscovered at identical timestamps on replay."""
        packets = make_packets(6000)
        reference = DetectionService(CONFIG, shards=2).serve(
            StreamSource(packets)
        )
        path = tmp_path / "svc.ckpt"
        crashing = DetectionService(
            CONFIG, shards=2, checkpoint_path=str(path), checkpoint_every=500
        )
        # Crash right before the end: plenty of detections after packet 512.
        crashing.serve(
            StreamSource(packets), max_packets=5990, final_checkpoint=False
        )
        recovered = DetectionService.resume(str(path))
        assert recovered.serve(StreamSource(packets)).detections == (
            reference.detections
        )

    def test_resume_preserves_interval_and_writes_more_checkpoints(
        self, tmp_path
    ):
        packets = make_packets(4000)
        path = tmp_path / "svc.ckpt"
        service = DetectionService(
            CONFIG, shards=2, checkpoint_path=str(path), checkpoint_every=1000
        )
        service.serve(StreamSource(packets), max_packets=2100,
                      final_checkpoint=False)
        recovered = DetectionService.resume(str(path))
        assert recovered.checkpoint_every == 1000
        report = recovered.serve(StreamSource(packets))
        assert report.checkpoints_written >= 1
        assert read_checkpoint(path)["meta"]["packets"] == 4000

    def test_resume_with_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            DetectionService.resume(str(tmp_path / "nope.ckpt"))


class TestVirtualCountersInCheckpoints:
    """Snapshots carry virtual counters as a ``virtual`` value list; the
    readers of a checkpoint's store section count them, and a format-1
    checkpoint, whose virtual counters were ``("__virtual__", i)``
    entries, still resumes exactly."""

    IDLE = make_packets(4000, max_gap_ns=3_000_000)

    def test_summary_counts_virtual_counters(self, tmp_path):
        path = tmp_path / "svc.ckpt"
        service = DetectionService(
            CONFIG, shards=2, slots=4, checkpoint_path=str(path)
        )
        try:
            service.serve(StreamSource(self.IDLE))
            detectors = service.engine.slot_host.detectors
            layout = service.engine.layout
            payload = read_checkpoint(path)
            rows = summarize_checkpoint(payload)["shards"]
            assert [row["counters_in_use"] for row in rows] == [
                sum(detectors[slot].counters_in_use
                    for slot in layout.slots_of(shard))
                for shard in range(2)
            ]
            for row in rows:
                for slot_row in row["per_slot"]:
                    assert slot_row["counters_in_use"] == (
                        detectors[slot_row["slot"]].counters_in_use
                    )
        finally:
            service.shutdown()
        assert any(
            state["store"]["virtual"] for state in payload["engine"]["shards"]
        )

    def test_format_1_checkpoint_resumes_exactly(self, tmp_path):
        uninterrupted = DetectionService(CONFIG, shards=2, slots=4)
        reference = uninterrupted.serve(StreamSource(self.IDLE))
        expected = uninterrupted.engine.snapshot()["shards"]
        uninterrupted.shutdown()

        path = tmp_path / "svc.ckpt"
        crashing = DetectionService(
            CONFIG, shards=2, slots=4, checkpoint_path=str(path),
            checkpoint_every=1000,
        )
        crashing.serve(
            StreamSource(self.IDLE), max_packets=2500, final_checkpoint=False
        )
        crashing.shutdown()
        payload = read_checkpoint(path)
        saved = read_checkpoint(path)["engine"]["shards"]
        legacy = 0
        for state in payload["engine"]["shards"]:
            store = state["store"]
            for index, value in enumerate(store.pop("virtual")):
                # Sparse indices, tuple and list forms alike.
                fid = ("__virtual__", 7 + 5 * legacy)
                store["entries"].append(
                    (list(fid) if index % 2 else fid, value)
                )
                legacy += 1
            state["format"] = 1
        assert legacy, "test needs virtual counters in the checkpoint"
        write_checkpoint(path, payload)

        recovered = DetectionService.resume(str(path))
        try:
            assert recovered.engine.snapshot()["shards"] == saved
            report = recovered.serve(StreamSource(self.IDLE))
            assert report.detections == reference.detections
            assert recovered.engine.snapshot()["shards"] == expected
        finally:
            recovered.shutdown()


# ---------------------------------------------------------------- service


class TestDetectionService:
    def test_serve_reports_throughput_and_health(self):
        report = DetectionService(CONFIG, shards=2).serve(
            StreamSource(make_packets(2000))
        )
        assert report.packets == 2000
        assert report.packets_per_second > 0
        assert len(report.shard_health) == 2
        assert "service: 2000 packets" in report.render()

    def test_incremental_serving_accumulates(self):
        packets = make_packets(3000)
        service = DetectionService(CONFIG, shards=2)
        service.serve(StreamSource(packets), max_packets=1000)
        assert service.ingested == 1000
        service.serve(StreamSource(packets))
        assert service.ingested == 3000
        reference = DetectionService(CONFIG, shards=2).serve(
            StreamSource(packets)
        )
        assert service.engine.detections() == reference.detections

    def test_checkpoint_every_requires_path(self):
        with pytest.raises(ValueError):
            DetectionService(CONFIG, checkpoint_every=100)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            DetectionService(CONFIG, engine="quantum")


@pytest.mark.slow
class TestMultiprocessEngine:
    def test_matches_inprocess_exactly(self):
        packets = make_packets(8000)
        reference = DetectionService(CONFIG, shards=4).serve(
            StreamSource(packets)
        )
        service = DetectionService(CONFIG, shards=4, engine="multiprocess")
        try:
            report = service.serve(StreamSource(packets))
        finally:
            service.shutdown()
        assert report.detections == reference.detections

    def test_checkpoints_are_engine_agnostic(self, tmp_path):
        """A checkpoint taken by the multiprocess engine resumes on the
        in-process engine (and stays exact)."""
        packets = make_packets(6000)
        reference = DetectionService(CONFIG, shards=2).serve(
            StreamSource(packets)
        )
        path = tmp_path / "mp.ckpt"
        service = DetectionService(
            CONFIG, shards=2, engine="multiprocess",
            checkpoint_path=str(path), checkpoint_every=2000,
        )
        try:
            service.serve(StreamSource(packets), max_packets=4500,
                          final_checkpoint=False)
        finally:
            service.shutdown()
        recovered = DetectionService.resume(str(path), engine="inprocess")
        assert recovered.serve(StreamSource(packets)).detections == (
            reference.detections
        )

    def test_mp_restore_round_trip(self):
        """In-process snapshot -> multiprocess restore -> replay suffix."""
        packets = make_packets(4000)
        reference = DetectionService(CONFIG, shards=2).serve(
            StreamSource(packets)
        )
        head = DetectionService(CONFIG, shards=2)
        head.serve(StreamSource(packets), max_packets=2000)
        state = head.engine.snapshot()
        mp_engine = MultiprocessEngine(CONFIG, shards=2)
        try:
            mp_engine.restore(state)
            for index in range(2000, len(packets), 500):
                mp_engine.ingest(packets[index : index + 500])
            assert mp_engine.detections() == reference.detections
        finally:
            mp_engine.close()


#: Parity layouts over 2 shards: one slot per shard (the original ids)
#: and two, where every shipped chunk carries several slot groups.
PARITY_CASES = [
    pytest.param(kind, slots, id=kind if slots == 2 else f"{kind}-4slots")
    for slots in (2, 4)
    for kind in FID_KINDS
]


@pytest.mark.slow
class TestTransportParity:
    @pytest.mark.parametrize("fid_kind, slots", PARITY_CASES)
    def test_one_snapshot_schema_under_injected_drops(self, fid_kind, slots):
        """The three transports share one routing side: serving the same
        stream under the same drop window, their snapshots agree on every
        key — ``accepted`` counts only packets staged on their slot,
        never the injected drops.  The one exception is
        ``queue_high_water``, whose unit is the transport's own
        (packets, chunks, frames).  Every flow-ID kind agrees, whichever
        column encoding its IDs take, in both layouts."""
        packets = with_fid_kind(make_packets(3000), fid_kind)
        servers = [ShardServer().start() for _ in range(2)]
        workers = [(server.host, server.port) for server in servers]
        snapshots = {}
        try:
            for kind, options in (
                ("inprocess", None),
                ("multiprocess", None),
                ("remote", {"workers": workers}),
            ):
                plan = FaultPlan(
                    [ShardFault("drop", shard=0, at=5, count=20)]
                )
                service = DetectionService(
                    CONFIG, shards=2, slots=slots, engine=kind,
                    fault_plan=plan, engine_options=options,
                )
                try:
                    service.serve(StreamSource(packets))
                    snapshots[kind] = service.engine.snapshot()
                finally:
                    service.shutdown()
        finally:
            for server in servers:
                server.stop()
        for snapshot in snapshots.values():
            del snapshot["queue_high_water"]
        assert snapshots["inprocess"]["accepted"] == len(packets) - 20
        assert snapshots["inprocess"]["dropped"][0] == 20
        assert snapshots["multiprocess"] == snapshots["inprocess"]
        assert snapshots["remote"] == snapshots["inprocess"]

    @pytest.mark.parametrize("kind", ["inprocess", "remote"])
    def test_each_packet_is_routed_once(self, kind, monkeypatch):
        """Only the staging loop routes: with several slots per shard no
        slot host hashes a flow again — counted on the class, so the
        loopback ``ShardServer`` threads' calls would count too."""
        calls = []
        route = FlowRouter.__call__

        def counting_route(router, fid):
            calls.append(fid)
            return route(router, fid)

        monkeypatch.setattr(FlowRouter, "__call__", counting_route)
        packets = make_packets(3000)
        servers = [
            ShardServer().start() for _ in range(2 if kind == "remote" else 0)
        ]
        options = (
            {"workers": [(s.host, s.port) for s in servers]} if servers
            else None
        )
        try:
            service = DetectionService(
                CONFIG, shards=2, slots=4, engine=kind,
                engine_options=options,
            )
            try:
                report = service.serve(StreamSource(packets))
                routed = sum(service.engine.routed)
            finally:
                service.shutdown()
        finally:
            for server in servers:
                server.stop()
        assert report.detections
        assert routed == len(packets)
        assert len(calls) == routed


class TestStagingDifferential:
    """The in-process engine's staging is invisible to detection: any
    capacity, any split into batches and any interleaving of partial
    pumps ends in the state of one batch staged whole."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_capacity_batching_and_pumps_are_invisible(self, data):
        shards = data.draw(st.integers(1, 3), label="shards")
        slots = data.draw(st.integers(shards, 2 * shards), label="slots")
        capacity = data.draw(st.integers(1, 64), label="capacity")
        packets = make_packets(
            300, seed=data.draw(st.integers(0, 3), label="seed"), flows=12
        )
        cuts = sorted(data.draw(
            st.lists(st.integers(0, len(packets)), max_size=6), label="cuts"
        ))
        engine = InProcessEngine(
            CONFIG, shards=shards, slots=slots, queue_capacity=capacity
        )
        for start, end in zip([0, *cuts], [*cuts, len(packets)]):
            engine.ingest(packets[start:end])
            assert max(engine.queue_depths()) <= capacity
            budgets = data.draw(
                st.lists(st.integers(0, 2 * capacity), max_size=2),
                label="pumps",
            )
            for budget in budgets:
                staged = engine.queue_depths()
                applied = engine.pump(budget)
                assert applied == sum(min(budget, n) for n in staged)
                assert engine.queue_depths() == [
                    n - min(budget, n) for n in staged
                ]
        reference = InProcessEngine(
            CONFIG, shards=shards, slots=slots,
            queue_capacity=len(packets) + 1,
        )
        reference.ingest(packets)
        state = engine.snapshot()
        expected = reference.snapshot()
        del state["queue_high_water"], expected["queue_high_water"]
        assert state == expected
        assert engine.detections() == reference.detections()


# ---------------------------------------------------------------- the CLI


class TestServeCli:
    def _write_trace(self, tmp_path, count=4000):
        from repro.traffic.trace_io import write_csv

        path = tmp_path / "trace.csv"
        write_csv(path, make_packets(count))
        return path

    def test_serve_detects_and_reports(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        code = main(
            [
                "serve", "--trace", str(path), "--rho", "1000000",
                "--gamma-l", "25000", "--beta-l", "1000",
                "--gamma-h", "200000", "--shards", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "service: 4000 packets" in out
        assert "heavy" in out

    def test_serve_checkpoint_kill_resume_cycle(self, tmp_path, capsys):
        path = self._write_trace(tmp_path)
        ckpt = tmp_path / "svc.ckpt"
        base = [
            "serve", "--trace", str(path), "--rho", "1000000",
            "--gamma-l", "25000", "--beta-l", "1000", "--gamma-h", "200000",
            "--shards", "2", "--checkpoint", str(ckpt),
        ]
        # Uninterrupted reference run (no checkpointing involved).
        assert main(base[:-2]) == 0
        reference_out = capsys.readouterr().out

        # "Crash" after 2500 packets, then recover.
        assert main(base + ["--checkpoint-every", "1000",
                            "--max-packets", "2500"]) == 0
        capsys.readouterr()
        assert main(["serve", "--trace", str(path),
                     "--checkpoint", str(ckpt), "--resume"]) == 0
        resumed_out = capsys.readouterr().out
        assert "resuming from" in resumed_out

        def detections(text):
            return sorted(
                line.strip() for line in text.splitlines()
                if line.strip().startswith("large flow")
            )

        assert detections(resumed_out) == detections(reference_out)
        assert detections(resumed_out)  # non-empty

    def test_checkpoint_inspect(self, tmp_path, capsys):
        path = self._write_trace(tmp_path, count=2000)
        ckpt = tmp_path / "svc.ckpt"
        main(
            [
                "serve", "--trace", str(path), "--rho", "1000000",
                "--gamma-l", "25000", "--beta-l", "1000",
                "--gamma-h", "200000", "--checkpoint", str(ckpt),
            ]
        )
        capsys.readouterr()
        assert main(["checkpoint", "inspect", "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "packets: 2000" in out
        assert "shard 0" in out

    def test_checkpoint_inspect_json(self, tmp_path, capsys):
        import json

        path = self._write_trace(tmp_path, count=1000)
        ckpt = tmp_path / "svc.ckpt"
        main(
            [
                "serve", "--trace", str(path), "--rho", "1000000",
                "--gamma-l", "25000", "--beta-l", "1000",
                "--gamma-h", "200000", "--checkpoint", str(ckpt),
            ]
        )
        capsys.readouterr()
        assert main(
            ["checkpoint", "inspect", "--checkpoint", str(ckpt), "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["packets"] == 1000
        assert len(payload["shard_summaries"]) == 1

    def test_serve_requires_trace(self):
        with pytest.raises(SystemExit):
            main(["serve", "--rho", "1000000", "--gamma-l", "25000",
                  "--gamma-h", "200000"])

    def test_serve_requires_thresholds(self, tmp_path):
        path = self._write_trace(tmp_path, count=10)
        with pytest.raises(SystemExit):
            main(["serve", "--trace", str(path)])

    def test_resume_requires_checkpoint(self, tmp_path):
        path = self._write_trace(tmp_path, count=10)
        with pytest.raises(SystemExit):
            main(["serve", "--trace", str(path), "--resume"])

    def test_checkpoint_unknown_subaction(self):
        with pytest.raises(SystemExit):
            main(["checkpoint", "frobnicate", "--checkpoint", "x"])
