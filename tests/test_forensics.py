"""Incident forensics: the CRC'd incident store, replay-bundle capture,
deterministic bit-identical replay, the HTML timeline viewer, and the
``eardet replay`` / ``eardet incidents`` CLI."""

from __future__ import annotations

import json
import struct

import pytest

from repro.cli import main
from repro.core.config import EARDetConfig
from repro.forensics import (
    BUNDLE_FORMAT,
    CLASS_COLORS,
    CaptureLayer,
    ForensicsLab,
    INCIDENT_CLASSES,
    Incident,
    IncidentLogCorruptError,
    IncidentStore,
    decode_line,
    encode_line,
    load_bundle,
    render_html,
    replay_bundle,
)
from repro.forensics.incidents import _normalize_fid
from repro.model.packet import FiveTuple, Packet
from repro.service import (
    DeadLetterSink,
    DetectionService,
    FaultPlan,
    InProcessEngine,
    MigrationPlan,
    ReplayIncompleteError,
    RestartPolicy,
    ShardFault,
    StreamSource,
    Supervisor,
    WatcherPolicy,
)
from repro.service.checkpoint import (
    read_checkpoint,
    unpack_column,
    write_checkpoint,
)
from repro.telemetry import Telemetry

from conftest import mixed_packets as make_packets

CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518, beta_l=1000, gamma_l=50_000
)


def forensic_serve(tmp_path, packets, name="lab", **kwargs):
    """Serve ``packets`` with a fresh lab armed; returns (report, lab)."""
    lab = ForensicsLab(tmp_path / name, **kwargs.pop("lab_kwargs", {}))
    kwargs.setdefault("checkpoint_path", str(tmp_path / f"{name}.ckpt"))
    kwargs.setdefault("checkpoint_every", 1000)
    service = DetectionService(
        CONFIG, shards=2, seed=0, forensics=lab, **kwargs
    )
    try:
        report = service.serve(StreamSource(packets))
    finally:
        service.shutdown()
        lab.close()
    return report, lab


# ------------------------------------------------------- the incident store


class TestIncidentStore:
    def test_lines_round_trip_through_crc(self):
        store = IncidentStore()
        record = store.append(
            "detection",
            "large flow detected: heavy at 123 ns",
            severity="warning",
            shard=1,
            slot=3,
            stream_time_ns=123,
            packet_index=456,
            payload={"fid": "heavy"},
            bundle="bundles/incident-000000.bundle",
        )
        decoded = decode_line(encode_line(record), line_number=1)
        assert decoded == record

    def test_ids_are_monotonic_and_totals_exact(self):
        store = IncidentStore(retain=2)
        for k in range(5):
            store.append("restart", f"r{k}")
        store.append("detection", "d")
        assert store.total == 6
        assert len(store) == 6
        assert store.totals_by_class == {"restart": 5, "detection": 1}
        # retain caps the in-memory list, never the totals
        assert [r.id for r in store.records] == [4, 5]
        assert store.next_id == 6
        assert store.find(5).incident_class == "detection"
        assert store.find(0) is None  # evicted

    def test_severity_vocabulary_enforced(self):
        store = IncidentStore()
        with pytest.raises(ValueError):
            store.append("detection", "boom", severity="catastrophic")
        with pytest.raises(ValueError):
            IncidentStore(retain=0)

    def test_persists_and_reloads_with_continued_ids(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        with IncidentStore(path) as store:
            store.append("recovery", "recovered from checkpoint at packet 5")
            store.append("detection", "large flow detected: heavy")
        records = IncidentStore.load(path)
        assert [r.id for r in records] == [0, 1]
        assert records[0].incident_class == "recovery"
        # Re-opening appends with continued monotonic ids.
        with IncidentStore(path) as store:
            assert store.total == 2
            assert store.append("restart", "again").id == 2
        assert [r.id for r in IncidentStore.load(path)] == [0, 1, 2]

    def test_flipped_byte_fails_loudly_with_line_number(self, tmp_path):
        path = tmp_path / "incidents.jsonl"
        with IncidentStore(path) as store:
            store.append("detection", "clean line")
            store.append("detection", "victim line")
        lines = path.read_text().splitlines()
        lines[1] = lines[1].replace("victim", "vICtim", 1)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(IncidentLogCorruptError) as exc:
            IncidentStore.load(path)
        assert exc.value.line_number == 2
        assert exc.value.expected_crc != exc.value.actual_crc
        with pytest.raises(IncidentLogCorruptError):
            decode_line("not json at all", line_number=9)
        with pytest.raises(IncidentLogCorruptError):
            decode_line('{"no": "envelope"}', line_number=9)

    def test_plain_string_compatibility(self):
        """The supervisor's old plain-string incident idioms — str() and
        substring membership — keep working on structured records."""
        record = Incident(
            id=0,
            incident_class="recovery",
            message="recovered from checkpoint at packet 3072",
        )
        assert str(record) == "recovered from checkpoint at packet 3072"
        assert "recovered from checkpoint" in record
        assert "no checkpoint" not in record
        assert 42 not in record  # non-strings never match

    def test_class_vocabulary_is_documented(self):
        assert "detection" in INCIDENT_CLASSES
        assert "invariant-violation" in INCIDENT_CLASSES
        assert set(CLASS_COLORS) == set(INCIDENT_CLASSES)


# ----------------------------------------------------------- capture layer


class TestCaptureLayer:
    def test_ring_eviction_is_packet_capped(self, tmp_path):
        layer = CaptureLayer(tmp_path, ring_capacity=10)
        for k in range(6):
            layer.observe_batch(
                [Packet(time=k, size=1, fid=f"f{k}")] * 4, start_index=k * 4
            )
        # 24 packets observed, cap 10: only the newest batches survive
        # (eviction always leaves at least one batch).
        assert layer._ring_packets <= 12
        assert len(layer._ring) >= 1
        with pytest.raises(ValueError):
            CaptureLayer(tmp_path, ring_capacity=0)

    def test_truncated_window_is_marked_and_refused(self, tmp_path):
        """When an incident's window no longer fits the ring, the bundle
        is still written — carrying truncated=True — and replay refuses
        with the typed error instead of silently diverging."""
        packets = make_packets(5000)
        _, lab = forensic_serve(
            tmp_path,
            packets,
            name="tiny",
            batch_size=256,
            checkpoint_every=4096,
            lab_kwargs={"ring_capacity": 64},
        )
        truncated = [
            r
            for r in lab.store.records
            if r.bundle is not None and r.payload.get("incomplete")
        ]
        assert truncated, "a 64-packet ring must truncate some window"
        assert lab.capture.truncated_bundles >= len(truncated)
        for record in truncated:
            with pytest.raises(ReplayIncompleteError) as exc:
                replay_bundle(record.bundle)
            assert exc.value.truncated
            assert exc.value.bundle == record.bundle
            with pytest.raises(ReplayIncompleteError):
                load_bundle(record.bundle)


# -------------------------------------------------- dead-letter consistency


class TestDeadLetterTuple:
    def test_every_producer_records_the_consistent_tuple(self):
        """Injected drops and queue overflows both land in the sink with
        the full (shard, slot, 1-based arrival index, reason) tuple."""
        sink = DeadLetterSink(capacity=64)
        engine = InProcessEngine(
            CONFIG,
            shards=2,
            queue_capacity=4,
            overflow="drop",
            fault_plan=FaultPlan(
                [ShardFault("drop", shard=0, at=3, count=2)]
            ),
            dead_letter=sink,
        )
        engine.ingest(make_packets(600))
        engine.flush()
        assert sink.entries
        reasons = {entry.reason for entry in sink.entries}
        assert "injected-drop" in reasons
        for entry in sink.entries:
            assert entry.shard in (0, 1)
            assert entry.slot is not None
            assert entry.index is not None and entry.index >= 1
            assert entry.reason in ("injected-drop", "queue-overflow")
        engine.close()


# -------------------------------------------------------- end-to-end replay


class TestForensicServe:
    def test_forensics_never_alters_detections(self, tmp_path):
        packets = make_packets(4000)
        bare = DetectionService(CONFIG, shards=2, seed=0)
        reference = bare.serve(StreamSource(packets))
        bare.shutdown()
        report, lab = forensic_serve(tmp_path, packets, batch_size=256)
        assert report.detections == reference.detections
        assert report.packets == reference.packets
        assert report.exact == reference.exact

    def test_every_detection_gets_an_exact_replay_bundle(self, tmp_path):
        packets = make_packets(4000)
        report, lab = forensic_serve(tmp_path, packets, batch_size=256)
        detections = [
            r for r in lab.store.records if r.incident_class == "detection"
        ]
        assert len(detections) == len(report.detections)
        assert {r.payload["fid"] for r in detections} == set(
            report.detections
        )
        for record in detections:
            assert record.bundle is not None
            assert not record.payload["incomplete"]
            result = replay_bundle(record.bundle)
            assert result.exact, (record.payload, result.observed)
            assert result.observed == record.payload["time_ns"]
            assert result.incident_class == "detection"
        # The log on disk is the same story, CRC-verified end to end.
        reloaded = IncidentStore.load(lab.store.path)
        assert len(reloaded) == lab.store.total

    @pytest.mark.parametrize("fid_kind", ["five_tuple", "bytes"])
    def test_flow_ids_json_cannot_encode_replay_exactly(
        self, tmp_path, fid_kind
    ):
        """FiveTuple (the ``.pcap`` default) and bytes flow ids: every
        bundle and incident line is written, every bundle replays
        bit-identically, and the reloaded log names the same flows."""
        index: dict = {}

        def convert(fid):
            number = index.setdefault(fid, len(index))
            if fid_kind == "bytes":
                return fid.encode()
            return FiveTuple(0x0A000001, number, 80, 443)

        packets = [
            Packet(p.time, p.size, convert(p.fid)) for p in make_packets(4000)
        ]
        report, lab = forensic_serve(tmp_path, packets, batch_size=256)
        detections = [
            r for r in lab.store.records if r.incident_class == "detection"
        ]
        assert detections and len(detections) == len(report.detections)
        for record in detections:
            result = replay_bundle(record.bundle)
            assert result.exact, (record.payload, result.observed)
            assert result.observed == record.payload["time_ns"]
        reloaded = IncidentStore.load(lab.store.path)
        assert {
            _normalize_fid(r.payload["fid"])
            for r in reloaded
            if r.incident_class == "detection"
        } == set(report.detections)

    def test_format_1_bundle_still_replays(self, tmp_path):
        """Format-1 bundles carry the flow-id column as one JSON string
        (times and sizes were already packed as today); replay still
        reads them."""
        report, lab = forensic_serve(
            tmp_path, make_packets(4000), batch_size=256
        )
        record = next(
            r for r in lab.store.records if r.incident_class == "detection"
        )
        bundle = read_checkpoint(record.bundle)
        assert bundle["meta"]["format"] == BUNDLE_FORMAT == 2
        bundle["meta"]["format"] = 1
        batches = []
        for times, sizes, fids in bundle["trace"]["batches"]:
            values = unpack_column(times)
            assert times == struct.pack(f"<{len(values)}q", *values)
            fids_json = json.dumps(
                list(unpack_column(fids)), separators=(",", ":")
            )
            batches.append((times, sizes, fids_json))
        bundle["trace"]["batches"] = batches
        path = tmp_path / "format-1.bundle"
        write_checkpoint(str(path), bundle)
        result = replay_bundle(str(path))
        assert result.exact
        assert result.observed == record.payload["time_ns"]

    def test_stepped_replay_is_repeatable(self, tmp_path):
        """Two stepped replays of one bundle in one process record the
        same steps; the slot's virtual counters show as one
        ``"<virtual>"`` counter holding their total bytes."""
        packets = make_packets(3000, heavy_share=0.3, max_gap_ns=3_000_000)
        report, lab = forensic_serve(tmp_path, packets, batch_size=256)
        record = next(
            r for r in lab.store.records if r.incident_class == "detection"
        )
        first = replay_bundle(record.bundle, step=True)
        second = replay_bundle(record.bundle, step=True)
        assert first.exact and second.exact
        assert first.steps == second.steps
        virtual = [
            step.counter_deltas["<virtual>"]
            for step in first.steps
            if "<virtual>" in step.counter_deltas
        ]
        assert virtual, "test needs virtual counters in the window"
        assert all(before != after for before, after in virtual)

    def test_injected_drops_replay_through_the_skip_list(self, tmp_path):
        """Positional losses inside the capture window are re-injected
        on replay as a synthesized FaultPlan, so the replayed engine
        loses exactly the packets the original lost."""
        packets = make_packets(4000)
        report, lab = forensic_serve(
            tmp_path,
            packets,
            name="drops",
            batch_size=256,
            fault_plan=FaultPlan(
                [ShardFault("drop", shard=0, at=50, count=30)]
            ),
        )
        assert not report.exact
        voids = [
            r
            for r in lab.store.records
            if r.incident_class == "exactness-void"
        ]
        assert len(voids) == 1
        assert voids[0].shard == 0
        assert voids[0].severity == "error"
        detections = [
            r for r in lab.store.records if r.incident_class == "detection"
        ]
        assert detections
        for record in detections:
            result = replay_bundle(record.bundle)
            assert result.exact, (record.payload, result.observed)

    def test_watcher_verdicts_are_bundled_and_replay_exactly(self, tmp_path):
        packets = make_packets(4000)
        report, lab = forensic_serve(
            tmp_path,
            packets,
            name="watch",
            watcher=WatcherPolicy(kind="clef", counters=16, seed=7),
        )
        verdicts = [
            r
            for r in lab.store.records
            if r.incident_class == "watcher-verdict"
        ]
        assert verdicts, "the clef watcher must flag something here"
        for record in verdicts:
            assert record.payload["probabilistic"] is True
            result = replay_bundle(record.bundle)
            assert result.exact, (record.payload, result.observed)
            assert result.observed == record.payload["time_ns"]

    def test_migration_is_announced_as_an_incident(self, tmp_path):
        packets = make_packets(6000)
        lab = ForensicsLab(tmp_path / "mig")
        service = DetectionService(
            CONFIG, shards=2, slots=8, seed=0, forensics=lab
        )
        try:
            service.serve(
                packets, max_packets=3000, final_checkpoint=False
            )
            service.apply_migration(
                MigrationPlan.split(service.engine.layout, 0)
            )
            service.serve(packets, final_checkpoint=False)
        finally:
            service.shutdown()
            lab.close()
        migrations = [
            r for r in lab.store.records if r.incident_class == "migration"
        ]
        assert len(migrations) == 1
        assert migrations[0].payload["layout"]["epoch"] == 1

    def test_incident_counter_can_never_disagree_with_the_log(self, tmp_path):
        """The class-labeled eardet_incidents_total is synced from the
        store's exact totals, not incremented independently."""
        packets = make_packets(4000)
        telemetry = Telemetry()
        report, lab = forensic_serve(
            tmp_path, packets, name="tele", telemetry=telemetry
        )
        counter = telemetry.registry.get("eardet_incidents_total")
        for incident_class, total in lab.store.totals_by_class.items():
            assert counter.labels(incident_class).value == total
        capture_cost = telemetry.registry.get("eardet_forensics_capture_ns")
        ((_, histogram),) = capture_cost.collect()
        assert histogram.count == lab.capture.bundles_written


# ----------------------------------------------------- supervised forensics


class TestSupervisedForensics:
    def test_restart_recovery_and_detections_in_one_log(self, tmp_path):
        packets = make_packets(5000)
        lab = ForensicsLab(tmp_path / "sup")
        supervisor = Supervisor(
            CONFIG,
            shards=2,
            checkpoint_path=str(tmp_path / "sup.ckpt"),
            checkpoint_every=1000,
            batch_size=256,
            fault_plan=FaultPlan.parse("kill:shard=1,at=1200"),
            policy=RestartPolicy(backoff_initial_s=0.0),
            sleep=lambda _s: None,
            forensics=lab,
        )
        report = supervisor.run(StreamSource(packets))
        lab.close()
        assert report.restarts == 1
        # The rendered report keeps the historical plain-string lines...
        assert any("recovered from checkpoint" in i for i in report.incidents)
        # ...but each line is now a structured record in the one log.
        classes = lab.store.totals_by_class
        assert classes["restart"] == 1
        assert classes["recovery"] == 1
        restart = next(
            r for r in lab.store.records if r.incident_class == "restart"
        )
        assert restart.severity == "warning"
        assert restart.payload["error_type"] == "ShardCrashError"
        # A restart never duplicates detection incidents, and every one
        # still replays bit-identically across the recovery boundary.
        detections = [
            r for r in lab.store.records if r.incident_class == "detection"
        ]
        assert len(detections) == len(report.detections)
        for record in detections:
            assert replay_bundle(record.bundle).exact

    def test_report_incidents_serialize_as_json(self, tmp_path):
        packets = make_packets(3000)
        lab = ForensicsLab(tmp_path / "json")
        supervisor = Supervisor(
            CONFIG,
            shards=2,
            batch_size=256,
            fault_plan=FaultPlan.parse("kill:shard=0,at=700"),
            policy=RestartPolicy(backoff_initial_s=0.0),
            sleep=lambda _s: None,
            forensics=lab,
        )
        report = supervisor.run(StreamSource(packets))
        lab.close()
        payload = json.loads(json.dumps(report.as_dict()))
        assert any(
            "no checkpoint" in entry["message"]
            for entry in payload["incidents"]
        )
        assert all(
            entry["class"] for entry in payload["incidents"]
        )


# ------------------------------------------------------------------ viewer


class TestViewer:
    def test_rendered_timeline_embeds_the_records(self):
        store = IncidentStore()
        store.append(
            "detection",
            "large flow detected: heavy at 123 ns",
            severity="warning",
            payload={"fid": "heavy"},
        )
        store.append("recovery", "recovered from checkpoint at packet 9")
        html = render_html(store.records, title="chaos run 7")
        assert "<!doctype html>" in html.lower()
        assert "chaos run 7" in html
        assert "large flow detected: heavy at 123 ns" in html
        assert CLASS_COLORS["detection"] in html
        # Self-contained: no external scripts or stylesheets.
        assert "http://" not in html and "https://" not in html

    def test_script_injection_is_escaped(self):
        store = IncidentStore()
        store.append("restart", "evil </script><script>alert(1)</script>")
        html = render_html(store.records)
        assert "</script><script>alert(1)" not in html


# --------------------------------------------------------------------- CLI


class TestForensicsCLI:
    def _serve(self, tmp_path, capsys):
        from repro.traffic.trace_io import write_csv

        trace = tmp_path / "trace.csv"
        write_csv(trace, make_packets(3000))
        code = main(
            [
                "serve", "--trace", str(trace), "--rho", "1000000",
                "--gamma-l", "50000", "--gamma-h", "200000",
                "--shards", "2",
                "--checkpoint", str(tmp_path / "svc.ckpt"),
                "--checkpoint-every", "1000",
                "--forensics-dir", str(tmp_path / "forensics"),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "incident log" in out
        return tmp_path / "forensics"

    def test_serve_replay_and_incidents_round_trip(self, tmp_path, capsys):
        forensics = self._serve(tmp_path, capsys)
        assert (forensics / "incidents.jsonl").exists()

        assert main(
            ["incidents", "list", "--forensics-dir", str(forensics)]
        ) == 0
        out = capsys.readouterr().out
        assert "detection" in out

        assert main(
            [
                "incidents", "show", "--id", "0",
                "--forensics-dir", str(forensics), "--json",
            ]
        ) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["id"] == 0

        assert main(
            ["replay", "0", "--forensics-dir", str(forensics)]
        ) == 0
        assert "EXACT" in capsys.readouterr().out

        assert main(
            [
                "replay", "0", "--forensics-dir", str(forensics),
                "--step", "--json",
            ]
        ) == 0
        stepped = json.loads(capsys.readouterr().out)
        assert stepped["exact"] is True
        assert stepped["steps"], "--step must dump per-packet records"
        assert "counter_deltas" in stepped["steps"][0]

    def test_export_html_writes_the_viewer(self, tmp_path, capsys):
        forensics = self._serve(tmp_path, capsys)
        out_path = tmp_path / "timeline.html"
        assert main(
            [
                "incidents", "export", "--html",
                "--forensics-dir", str(forensics),
                "--out", str(out_path),
            ]
        ) == 0
        capsys.readouterr()
        html = out_path.read_text()
        assert "incident" in html.lower()
        assert CLASS_COLORS["detection"] in html

    def test_cli_refuses_missing_or_bad_input(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["incidents", "list"])  # no --forensics-dir
        with pytest.raises(SystemExit):
            main(
                [
                    "incidents", "list",
                    "--forensics-dir", str(tmp_path / "nowhere"),
                ]
            )
        with pytest.raises(SystemExit):
            main(["replay", "--forensics-dir", str(tmp_path)])  # no id
