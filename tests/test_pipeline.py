"""Two-stage pipeline: exact/probabilistic verdict separation.

Extends the differential-fuzz pattern of tests/test_guard_differential.py
to the watcher stage.  The load-bearing properties:

- Arming a watcher (CLEF or LOFT) leaves the exact detection set
  **bit-identical** to a watcher-less run — the watcher taps the routed
  stream, it never feeds or perturbs the EARDet shards.
- Watcher verdicts surface only in the report's ``watcher`` section,
  which is explicitly labelled probabilistic; nothing ever launders
  them into ``ServiceReport.detections`` or the exactness envelope.
- Checkpoints carry the watcher state and replay bit-identically.

The CI ambiguity-corpus job sweeps ``EARDET_PIPELINE_SEED`` (see
.github/workflows/ci.yml) so three jobs explore three different traffic
shapes; a red run reproduces locally by exporting the same seed.
"""

from __future__ import annotations

import json
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import EARDetConfig
from repro.model.packet import Packet
from repro.service import (
    DetectionService,
    FaultPlan,
    InProcessEngine,
    OverloadPolicy,
    ShardCrashError,
    ShardFault,
    StreamSource,
    WatcherPolicy,
    WatcherStage,
)
from repro.service.pipeline import SIZING_FLOORS

#: The CI ambiguity-corpus job sweeps this (see .github/workflows/ci.yml).
PIPELINE_SEED = int(os.environ.get("EARDET_PIPELINE_SEED", "7"))

CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518, beta_l=1000,
    gamma_l=50_000,
)

POLICIES = [
    WatcherPolicy(kind="clef", counters=16, seed=PIPELINE_SEED),
    WatcherPolicy(kind="loft", counters=16, watchlist=8, seed=PIPELINE_SEED),
]


def make_packets(count=4000, seed=PIPELINE_SEED, in_region_share=0.2):
    """Mixed traffic: a heavy (exactly detectable) flow, an in-region
    pacer, and benign background."""
    rng = random.Random(seed)
    packets, time = [], 0
    for _ in range(count):
        time += rng.randint(100, 40_000)
        roll = rng.random()
        if roll < 0.1:
            fid, size = "heavy", rng.randint(800, 1518)
        elif roll < 0.1 + in_region_share:
            fid, size = "sneaky", rng.randint(200, 600)
        else:
            fid = f"flow-{rng.randint(0, 40)}"
            size = rng.randint(40, 1518)
        packets.append(Packet(time=time, size=size, fid=fid))
    return packets


class TestWatcherPolicy:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            WatcherPolicy(kind="psychic")

    def test_dict_round_trip(self):
        for policy in POLICIES:
            assert WatcherPolicy.from_dict(policy.as_dict()) == policy

    def test_from_dict_rejects_unknown_fields(self):
        data = POLICIES[0].as_dict()
        data["crystal_ball"] = True
        with pytest.raises(ValueError):
            WatcherPolicy.from_dict(data)

    @pytest.mark.parametrize(
        "kind,field,floor",
        [
            (kind, field, floor)
            for kind, floors in SIZING_FLOORS.items()
            for field, floor in floors.items()
        ],
    )
    def test_each_sizing_field_is_held_to_its_kinds_floor(
        self, kind, field, floor
    ):
        """Below the floor the policy and ``from_dict`` refuse the field;
        at the floor the watcher builds, so no floor is stricter than
        its constructor."""
        with pytest.raises(ValueError, match=f"{kind} {field} must be >= "):
            WatcherPolicy(kind=kind, **{field: floor - 1})
        data = {**WatcherPolicy(kind=kind).as_dict(), field: floor - 1}
        with pytest.raises(ValueError, match=f"{kind} {field}"):
            WatcherPolicy.from_dict(data)
        WatcherPolicy(kind=kind, **{field: floor}).build(CONFIG, shard=0)

    def test_a_field_its_kind_ignores_is_not_checked(self):
        WatcherPolicy(kind="clef", stages=0, watchlist=0, epoch_ns=0)
        WatcherPolicy(kind="loft", depth=0, fast_period_ns=0)

    def test_shards_get_distinct_salted_watchers(self):
        stage = WatcherStage(POLICIES[1], CONFIG, shards=2)
        assert stage.watcher(0).seed != stage.watcher(1).seed


class TestVerdictSeparation:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind)
    def test_exact_detections_bit_identical_with_watcher(self, policy):
        packets = make_packets()
        baseline = DetectionService(CONFIG, shards=4).serve(
            StreamSource(packets)
        )
        watched = DetectionService(CONFIG, shards=4, watcher=policy).serve(
            StreamSource(packets)
        )
        assert watched.detections == baseline.detections

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind)
    def test_probabilistic_verdicts_never_enter_exact_set(self, policy):
        packets = make_packets()
        report = DetectionService(CONFIG, shards=4, watcher=policy).serve(
            StreamSource(packets)
        )
        assert report.watcher is not None
        assert report.watcher["probabilistic"] is True
        exact_fids = {str(fid) for fid in report.detections}
        watcher_only = set(report.watcher["verdicts"]) - exact_fids
        # The in-region pacer is exactly the flow only the watcher may
        # name — and naming it must not have touched the exact set.
        for fid in watcher_only:
            assert fid not in exact_fids
        baseline = DetectionService(CONFIG, shards=4).serve(
            StreamSource(packets)
        )
        assert report.detections == baseline.detections

    def test_report_exactness_envelope_ignores_watcher(self):
        packets = make_packets()
        report = DetectionService(
            CONFIG, shards=2, watcher=POLICIES[0]
        ).serve(StreamSource(packets))
        baseline = DetectionService(CONFIG, shards=2).serve(
            StreamSource(packets)
        )
        assert report.exact == baseline.exact
        assert "never merged into the exact set" in report.render()

    def test_watcher_section_survives_as_dict(self):
        packets = make_packets(count=1500)
        report = DetectionService(
            CONFIG, shards=2, watcher=POLICIES[1]
        ).serve(StreamSource(packets))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["watcher"]["kind"] == "loft"
        assert payload["watcher"]["probabilistic"] is True


class TestCheckpointRoundTrip:
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind)
    def test_crash_recovery_replays_watcher_bit_identically(
        self, policy, tmp_path
    ):
        packets = make_packets()
        full = DetectionService(CONFIG, shards=4, watcher=policy).serve(
            StreamSource(packets)
        )
        path = str(tmp_path / "svc.ckpt")
        crashing = DetectionService(
            CONFIG, shards=4, watcher=policy,
            checkpoint_path=path, checkpoint_every=1000,
        )
        crashing.serve(
            StreamSource(packets), max_packets=2500, final_checkpoint=False
        )
        recovered = DetectionService.resume(path)
        # The watcher policy rides in checkpoint metadata.
        assert recovered.watcher_policy == policy
        report = recovered.serve(StreamSource(packets))
        assert report.detections == full.detections
        assert report.watcher["verdicts"] == full.watcher["verdicts"]

    def test_stage_restore_rejects_policy_mismatch(self):
        stage = WatcherStage(POLICIES[0], CONFIG, shards=2)
        other = WatcherStage(POLICIES[1], CONFIG, shards=2)
        with pytest.raises(ValueError):
            other.restore(stage.snapshot())

    def test_stage_restore_rejects_shard_mismatch(self):
        stage = WatcherStage(POLICIES[0], CONFIG, shards=2)
        other = WatcherStage(POLICIES[0], CONFIG, shards=3)
        with pytest.raises(ValueError):
            other.restore(stage.snapshot())

    def test_old_checkpoints_without_watcher_still_restore(self):
        """A watcher-less engine snapshot restores into a watcher-armed
        engine (fresh stage), mirroring the optional overload key."""
        packets = make_packets(count=1200)
        plain = InProcessEngine(CONFIG, shards=2)
        plain.ingest(packets)
        plain.flush()
        stage = WatcherStage(POLICIES[0], CONFIG, shards=2)
        armed = InProcessEngine(CONFIG, shards=2, watcher=stage)
        armed.restore(plain.snapshot())
        assert armed.detections() == plain.detections()


class TestEngineParity:
    def test_multiprocess_watcher_matches_inprocess(self):
        from repro.service import MultiprocessEngine

        packets = make_packets(count=2000)
        policy = POLICIES[1]
        inproc = DetectionService(
            CONFIG, shards=2, watcher=policy
        ).serve(StreamSource(packets))
        service = DetectionService(
            CONFIG, shards=2, engine="multiprocess", watcher=policy
        )
        try:
            multi = service.serve(StreamSource(packets))
        finally:
            service.shutdown()
        assert multi.detections == inproc.detections
        assert multi.watcher["verdicts"] == inproc.watcher["verdicts"]

    def test_health_reports_watcher_occupancy(self):
        report = DetectionService(
            CONFIG, shards=2, watcher=POLICIES[0]
        ).serve(StreamSource(make_packets(count=1500)))
        assert all(
            shard.watcher_occupancy > 0 for shard in report.shard_health
        )


class TestEngineTap:
    """The engine hands each slot's tapped columns to the stage once per
    batch, yet the watchers see the wire stream exactly as a per-packet
    tap would: every routed packet, in arrival order, ahead of overflow,
    injected drops and the ladder, and a batch that raises part-way has
    still delivered the packets routed before the raise."""

    BATCH = 256

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.kind)
    @pytest.mark.parametrize(
        "overload",
        [None, OverloadPolicy(high_watermark=0.5, low_watermark=0.25)],
        ids=["plain", "ladder"],
    )
    def test_stage_sees_the_routed_stream(self, policy, overload):
        packets = make_packets(count=3000)
        stage = WatcherStage(policy, CONFIG, shards=4)
        engine = InProcessEngine(
            CONFIG, shards=2, slots=4, queue_capacity=16, overflow="drop",
            overload=overload, watcher=stage,
            fault_plan=FaultPlan([
                ShardFault("drop", shard=0, at=40, count=25),
                ShardFault("kill", shard=1, at=700),
            ]),
        )
        # The kill fires at shard 1's 700th routed packet: that packet
        # is routed (and tapped), the rest of its batch is not.
        arrivals = [0, 0]
        for killed, packet in enumerate(packets):
            arrivals[engine.shard_of(packet.fid)] += 1
            if arrivals[1] == 700:
                break
        routed = killed + 1
        assert routed % self.BATCH, "the kill must land mid-batch"

        def reference(prefix):
            ref = WatcherStage(policy, CONFIG, shards=4)
            for packet in prefix:
                ref.watcher(engine.slot_of(packet.fid)).observe(packet)
            return ref

        start = 0
        with pytest.raises(ShardCrashError):
            while start < len(packets):
                engine.ingest(packets[start:start + self.BATCH])
                start += self.BATCH
        assert engine.dropped >= 25
        assert stage.snapshot() == reference(packets[:routed]).snapshot()
        # The tap was emptied by the raise: the rest of the stream adds
        # each packet once.
        for start in range(routed, len(packets), self.BATCH):
            engine.ingest(packets[start:start + self.BATCH])
        expected = reference(packets)
        assert stage.snapshot() == expected.snapshot()
        for slot in range(4):
            assert list(stage.watcher(slot).detected.items()) == list(
                expected.watcher(slot).detected.items()
            )


@st.composite
def traffic_shapes(draw):
    """Seed-salted traffic mixes: the pipeline seed rotates which corner
    of the shape space this CI shard leans on."""
    count = draw(st.integers(min_value=50, max_value=600))
    in_region = draw(st.floats(min_value=0.0, max_value=0.5))
    seed = draw(st.integers(min_value=0, max_value=2**16)) ^ PIPELINE_SEED
    shards = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(["clef", "loft"]))
    return count, in_region, seed, shards, kind


@settings(max_examples=25, deadline=None)
@given(shape=traffic_shapes())
def test_watcher_never_perturbs_exact_detections_property(shape):
    """Differential: for any traffic shape, shard count and watcher
    kind, the exact detections are bit-identical with and without the
    watcher, and the watcher section never leaks into them."""
    count, in_region, seed, shards, kind = shape
    packets = make_packets(count=count, seed=seed, in_region_share=in_region)
    policy = WatcherPolicy(kind=kind, counters=8, watchlist=4, seed=seed)
    baseline = DetectionService(CONFIG, shards=shards).serve(
        StreamSource(packets)
    )
    watched = DetectionService(CONFIG, shards=shards, watcher=policy).serve(
        StreamSource(packets)
    )
    assert watched.detections == baseline.detections
    assert watched.exact == baseline.exact
    assert baseline.watcher is None
    assert watched.watcher["probabilistic"] is True
