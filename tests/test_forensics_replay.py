"""Chaos-seeded replay differential: every captured incident replays
bit-identically, or refuses with a typed error.

The forensic capstone property, in the style of
tests/test_guard_differential.py: run a *supervised* service under
randomly drawn fault cocktails — shard kills forcing checkpoint
recovery, positional drops voiding exactness, checkpoint corruption,
capture rings too small for the window — and then, for **every** bundled
incident the run produced, deterministically re-execute its bundle:

- a complete bundle must re-derive the incident's event with the same
  flow id and the same nanosecond timestamp (``ReplayResult.exact``);
- a truncated or incomplete bundle must refuse with a typed
  :class:`~repro.service.errors.ReplayIncompleteError` — never replay
  something subtly different from the incident.

The CI forensics-replay job sweeps ``EARDET_FORENSICS_SEED`` (see
.github/workflows/ci.yml): the seed salts the generated traffic, so
three jobs explore three corners of the input space and a red run
reproduces locally by exporting the same seed.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EARDetConfig
from repro.forensics import (
    BUNDLED_CLASSES,
    ForensicsLab,
    IncidentStore,
    replay_bundle,
)
from repro.service import (
    DetectionService,
    ExactnessEnvelope,
    FaultPlan,
    MigrationPlan,
    ReplayIncompleteError,
    RestartPolicy,
    ShardFault,
    StreamSource,
    Supervisor,
)

from conftest import mixed_packets as make_packets

CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518, beta_l=1000, gamma_l=50_000
)

#: The CI forensics-replay job sweeps this (see .github/workflows/ci.yml).
FORENSICS_SEED = int(os.environ.get("EARDET_FORENSICS_SEED", "7"))


def verify_every_bundle(store):
    """The core property: each bundled incident replays exactly or
    refuses with the typed error.  Returns (replayed, refused)."""
    replayed = refused = 0
    for record in store.records:
        if record.bundle is None:
            continue
        assert record.incident_class in BUNDLED_CLASSES
        if record.payload.get("incomplete"):
            with pytest.raises(ReplayIncompleteError):
                replay_bundle(record.bundle)
            refused += 1
            continue
        result = replay_bundle(record.bundle)
        assert result.exact, (
            f"incident {record.id} ({record.incident_class}, "
            f"{record.payload}) diverged on replay: "
            f"observed {result.observed}"
        )
        replayed += 1
    return replayed, refused


@st.composite
def chaos_scenarios(draw):
    """A fault cocktail: traffic shape salted by the CI seed, plus any
    subset of {shard kill, positional drops, checkpoint corruption} and
    sometimes a deliberately undersized capture ring."""
    shards = draw(st.integers(min_value=2, max_value=3))
    count = draw(st.integers(min_value=1500, max_value=3000))
    stream_seed = FORENSICS_SEED * 1000 + draw(
        st.integers(min_value=0, max_value=99)
    )
    faults = []
    if draw(st.booleans()):
        shard = draw(st.integers(min_value=0, max_value=shards - 1))
        at = draw(st.integers(min_value=200, max_value=900))
        faults.append(f"kill:shard={shard},at={at}")
    if draw(st.booleans()):
        shard = draw(st.integers(min_value=0, max_value=shards - 1))
        at = draw(st.integers(min_value=20, max_value=400))
        n = draw(st.integers(min_value=1, max_value=40))
        faults.append(f"drop:shard={shard},at={at},count={n}")
    if draw(st.booleans()):
        faults.append("ckpt:after=1,mode=truncate")
    ring_capacity = draw(st.sampled_from([None, None, 192]))
    return {
        "shards": shards,
        "count": count,
        "stream_seed": stream_seed,
        "plan": ";".join(faults) if faults else None,
        "ring_capacity": ring_capacity,
    }


@settings(max_examples=8, deadline=None)
@given(chaos_scenarios())
def test_every_incident_replays_or_refuses_under_chaos(scenario):
    packets = make_packets(scenario["count"], scenario["stream_seed"])
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        lab_kwargs = {}
        if scenario["ring_capacity"] is not None:
            lab_kwargs["ring_capacity"] = scenario["ring_capacity"]
        lab = ForensicsLab(tmp / "forensics", **lab_kwargs)
        supervisor = Supervisor(
            CONFIG,
            shards=scenario["shards"],
            checkpoint_path=str(tmp / "svc.ckpt"),
            checkpoint_every=500,
            batch_size=256,
            fault_plan=(
                FaultPlan.parse(scenario["plan"])
                if scenario["plan"]
                else None
            ),
            policy=RestartPolicy(backoff_initial_s=0.0),
            sleep=lambda _s: None,
            forensics=lab,
        )
        report = supervisor.run(StreamSource(packets))
        lab.close()

        # Every detection the run reported is explained in the log, with
        # matching first-flag timestamps, and exactly once.
        detections = [
            r for r in lab.store.records if r.incident_class == "detection"
        ]
        assert {r.payload["fid"] for r in detections} == set(
            report.detections
        )
        assert len(detections) == len(report.detections)
        for record in detections:
            assert (
                report.detections[record.payload["fid"]]
                == record.payload["time_ns"]
            )

        replayed, refused = verify_every_bundle(lab.store)
        assert replayed + refused == len(detections)

        # The on-disk log survives a CRC-verified end-to-end reload.
        reloaded = IncidentStore.load(tmp / "forensics" / "incidents.jsonl")
        assert len(reloaded) == lab.store.total


def test_migration_chaos_replays_exactly(tmp_path):
    """Kill/drop chaos plus a live slot migration: detections captured
    across the layout change still replay bit-identically (replay
    rebuilds the engine and restores the bundle's layout epoch)."""
    packets = make_packets(5000, FORENSICS_SEED)
    lab = ForensicsLab(tmp_path / "forensics")
    service = DetectionService(
        CONFIG,
        shards=2,
        slots=8,
        seed=0,
        checkpoint_path=str(tmp_path / "svc.ckpt"),
        checkpoint_every=1000,
        batch_size=256,
        fault_plan=FaultPlan([ShardFault("drop", shard=1, at=40, count=20)]),
        forensics=lab,
    )
    try:
        service.serve(packets, max_packets=2500, final_checkpoint=False)
        service.apply_migration(
            MigrationPlan.split(service.engine.layout, 0)
        )
        report = service.serve(packets)
    finally:
        service.shutdown()
        lab.close()
    classes = lab.store.totals_by_class
    assert classes.get("migration") == 1
    assert classes.get("exactness-void") == 1
    assert classes.get("detection") == len(report.detections)
    replayed, refused = verify_every_bundle(lab.store)
    assert replayed > 0 and refused == 0


def test_partition_losses_map_to_net_outage_incidents(tmp_path):
    """The envelope reason "partition" (a remote worker outage past its
    masking window) is classified as net-outage; every other inexact
    reason stays exactness-void."""

    class _StubEngine:
        watcher = None

        def detections(self):
            return {}

        def envelope(self):
            return [
                ExactnessEnvelope(
                    shard=0,
                    exact=False,
                    lost_packets=12,
                    first_loss_time_ns=5_000,
                    reason="partition",
                ),
                ExactnessEnvelope(
                    shard=1,
                    exact=False,
                    lost_packets=3,
                    first_loss_time_ns=9_000,
                    reason="queue-overflow",
                ),
            ]

    class _StubService:
        engine = _StubEngine()
        watcher = None
        ingested = 100
        _migrations = 0
        _retunes = 0
        _retune_infeasibles = 0
        _rollbacks = {"migration": 0, "retune": 0}
        _last_source = None
        dead_letter = None

    lab = ForensicsLab(tmp_path / "forensics")
    emitted = lab.scan(_StubService())
    lab.close()
    by_class = {r.incident_class: r for r in emitted}
    assert set(by_class) == {"net-outage", "exactness-void"}
    outage = by_class["net-outage"]
    assert outage.shard == 0
    assert outage.severity == "error"
    assert outage.payload["lost_packets"] == 12
    assert by_class["exactness-void"].payload["reason"] == "queue-overflow"
    # Announced once: a second scan over the same envelope is silent.
    lab2 = ForensicsLab(tmp_path / "forensics2")
    lab2.scan(_StubService())
    assert lab2.scan(_StubService()) == []
    lab2.close()
