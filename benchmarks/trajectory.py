#!/usr/bin/env python
"""Overhead gates: one table, one warmed race, one budget check.

Every optional layer of the service promises a bounded cost, measured
rather than promised, and no change to what the exact stage detects.
:data:`GATES` holds one entry per layer.  A run of one gate races its
arms, asserting every run detects the bit-identical flow set (same ids,
same timestamps) as the baseline; appends one point to
``BENCH_<gate>.json`` at the repo root, so the file accumulates a
trajectory across commits; and exits non-zero when an overhead, a pause
or the capture share breaks its limit, which is what CI gates on.

Usage::

    PYTHONPATH=src python benchmarks/trajectory.py --smoke       # telemetry
    PYTHONPATH=src python benchmarks/trajectory.py --smoke --net --no-append --json
    PYTHONPATH=src python benchmarks/trajectory.py --forensics   # full size

Standalone by design: stdlib only, no pytest, no psutil.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import tempfile
import time
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, NamedTuple, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.control import ControlPolicy, RetunePlan, derive_config  # noqa: E402
from repro.core.config import EARDetConfig  # noqa: E402
from repro.forensics import ForensicsLab  # noqa: E402
from repro.model.packet import Packet  # noqa: E402
from repro.service import (  # noqa: E402
    BackoffPolicy,
    DetectionService,
    FaultPlan,
    InProcessEngine,
    MigrationPlan,
    OverloadPolicy,
    RemoteEngine,
    ShardServer,
    StreamSource,
    WatcherPolicy,
)
from repro.service.sources import DEFAULT_BATCH_SIZE  # noqa: E402
from repro.telemetry import Telemetry  # noqa: E402

#: Same configuration family the tier-1 service tests use: small enough
#: to evict, large enough to detect.
CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518,
    beta_l=1000, gamma_l=50_000,
)


def make_packets(count: int, seed: int = 7, flows: int = 50,
                 heavy_share: float = 0.1,
                 gap_ns: tuple = (500, 2000)) -> list:
    """A mixed stream: mostly small flows, a few heavy hitters."""
    rng = random.Random(seed)
    packets = []
    t = 0
    for i in range(count):
        t += rng.randint(*gap_ns)
        if rng.random() < heavy_share:
            fid = f"h{i % 3}"
        else:
            fid = f"f{rng.randrange(flows)}"
        packets.append(Packet(time=t, size=rng.choice((64, 576, 1518)), fid=fid))
    return packets


def make_sparse_packets(count: int, seed: int = 7) -> list:
    """An incident-*sparse* stream for the forensics gate: many light
    flows, three heavy hitters, time steps long enough that the light
    flows stay under the large-flow thresholds.  Capture cost scales
    with incident count, so the overhead budget is measured on a stream
    with a deployment-shaped incident rate (a handful of large flows),
    not on :func:`make_packets` where *every* flow trips the detector
    and the number degenerates into bundle-write throughput."""
    return make_packets(
        count, seed, flows=1000, heavy_share=0.06, gap_ns=(5000, 20000)
    )


class Run(NamedTuple):
    """One timed arm run, and any counters a probe reads back from the
    race's best run."""

    elapsed: float
    #: Sorted ``(flow id, detection time ns)`` pairs.
    detections: tuple
    stats: Optional[dict] = None


def _detections(by_flow: dict) -> tuple:
    return tuple(sorted(by_flow.items()))


def _serve(packets: list, shards: int = 2, telemetry: bool = False,
           **options) -> Run:
    service = DetectionService(
        CONFIG, shards=shards, telemetry=Telemetry() if telemetry else None,
        **options,
    )
    try:
        started = time.perf_counter()
        report = service.serve(StreamSource(packets))
        elapsed = time.perf_counter() - started
    finally:
        service.shutdown()
    return Run(elapsed, _detections(report.detections))


def race(arms: Dict[str, Callable[[list], Run]], packets: list,
         repeats: int) -> Dict[str, Run]:
    """Each arm's best run of ``repeats``, interleaved so drift in
    machine load hits every arm equally.

    Every arm first serves a quarter of the stream untimed: the first
    service run of a process pays one-time costs (imports, allocator
    growth, branch caches) that later runs do not.  Every timed run must
    detect exactly what the baseline's first run detected, or the race
    raises before any number is reported.
    """
    warm = packets[: max(1, len(packets) // 4)]
    for arm in arms.values():
        arm(warm)
    baseline = next(iter(arms))
    expected = None
    best: Dict[str, Run] = {}
    for _ in range(repeats):
        for name, arm in arms.items():
            run = arm(packets)
            if expected is None:
                expected = run.detections
            elif run.detections != expected:
                raise AssertionError(
                    f"{name} perturbed detection: {len(expected)} flows "
                    f"under {baseline} vs {len(run.detections)} under {name}"
                )
            if name not in best or run.elapsed < best[name].elapsed:
                best[name] = run
    return best


def _pauses(pauses_ns: list, paced_by: Run, count: int) -> dict:
    """Pause fields: the best pause, every pause, and one batch interval
    at ``paced_by``'s pace.  The ingest loop already spends that long
    per batch, so a pause inside it never shows up as added latency at
    the batch cadence."""
    return {
        "pause_ns": min(pauses_ns),
        "pause_ns_all": pauses_ns,
        "batch_interval_ns": round(
            1e9 * DEFAULT_BATCH_SIZE * paced_by.elapsed / count
        ),
    }


def _percentile(sorted_values: list, fraction: float) -> int:
    """Nearest-rank percentile of an already-sorted list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, round(fraction * len(sorted_values)))
    return sorted_values[min(rank, len(sorted_values)) - 1]


RESHARD_SLOTS = 8


def _reshard_probe(packets: list, repeats: int, best: dict) -> dict:
    """Live-migration pause: serve half the stream, split the hottest
    shard live, serve the rest.  The freeze-to-cutover pause must fit
    inside one batch interval, and detections must be bit-identical to
    a static run at the same slot count."""
    static = best["service-slots"].detections
    half = len(packets) // 2
    pauses_ns = []
    for _ in range(repeats):
        service = DetectionService(CONFIG, shards=2, slots=RESHARD_SLOTS)
        try:
            service.serve(packets, max_packets=half, final_checkpoint=False)
            migration = service.apply_migration(
                MigrationPlan.split(
                    service.engine.layout, shard=0, reason="bench"
                )
            )
            pauses_ns.append(migration.pause_ns)
            report = service.serve(packets, final_checkpoint=False)
        finally:
            service.shutdown()
        migrated = _detections(report.detections)
        if migrated != static:
            raise AssertionError(
                "live migration perturbed detection: "
                f"{len(static)} flows static vs {len(migrated)} resharded"
            )
    return {
        "slots": RESHARD_SLOTS,
        **_pauses(pauses_ns, best["service-slots"], len(packets)),
    }


NET_SLOTS = 4
NET_CHUNK = 2048


def _local(packets: list) -> Run:
    engine = InProcessEngine(CONFIG, shards=2, slots=NET_SLOTS)
    try:
        started = time.perf_counter()
        for start in range(0, len(packets), NET_CHUNK):
            engine.ingest(packets[start:start + NET_CHUNK])
        engine.flush()
        elapsed = time.perf_counter() - started
        detections = _detections(engine.detections())
    finally:
        engine.close()
    return Run(elapsed, detections)


def _remote(packets: list, fault_plan=None,
            mask_deadline_s: float = 5.0) -> Run:
    """The same stream through a :class:`RemoteEngine` driving two
    loopback :class:`ShardServer` threads (frame encoding + TCP +
    exactly-once acks).  Every connection setup, initial and
    post-partition, contributes one reconnect-pause sample."""
    servers = [ShardServer().start() for _ in range(2)]
    try:
        engine = RemoteEngine(
            CONFIG,
            [(server.host, server.port) for server in servers],
            slots=NET_SLOTS,
            chunk_size=NET_CHUNK,
            fault_plan=fault_plan,
            backoff=BackoffPolicy(initial_s=0.0),
            mask_deadline_s=mask_deadline_s,
        )
        started = time.perf_counter()
        for start in range(0, len(packets), NET_CHUNK):
            engine.ingest(packets[start:start + NET_CHUNK])
        engine.flush()
        # A scrape barrier: the clock stops only once every frame is
        # applied server-side, so in-flight frames are not free.
        engine.scrape_workers()
        elapsed = time.perf_counter() - started
        detections = _detections(engine.detections())
        pauses = [
            pause
            for report in engine.transport_report()
            for pause in report["reconnect_pauses_ns"]
        ]
        engine.close()
    finally:
        for server in servers:
            server.stop()
    return Run(elapsed, detections, {"reconnect_pauses_ns": pauses})


def _net_probe(packets: list, repeats: int, best: dict) -> dict:
    """Reconnect pauses as p50/p95/max, sampled in a separate pass under
    a masked partition, which must be invisible to detection."""
    plan = FaultPlan.parse("net:kind=partition,shard=0,at=6,secs=0.05")
    run = _remote(packets, fault_plan=plan, mask_deadline_s=30.0)
    local = best["service-local"].detections
    if run.detections != local:
        raise AssertionError(
            "a masked partition perturbed detection: "
            f"{len(local)} flows local vs {len(run.detections)} "
            "under partition"
        )
    pauses_ns = sorted(run.stats["reconnect_pauses_ns"])
    return {
        "slots": NET_SLOTS,
        "reconnect_pause_ns": {
            "p50": _percentile(pauses_ns, 0.50),
            "p95": _percentile(pauses_ns, 0.95),
            "max": pauses_ns[-1],
            "samples": len(pauses_ns),
        },
    }


def _checkpointed(packets: list, forensic: bool) -> Run:
    """A serve checkpointing every 2,000 packets, with or without an
    armed lab.  Both arms checkpoint identically: checkpoints re-baseline
    the capture window, so the interval caps the trace slice a bundle
    serializes."""
    with tempfile.TemporaryDirectory() as tmp:
        lab = ForensicsLab(Path(tmp) / "forensics") if forensic else None
        try:
            run = _serve(
                packets, checkpoint_path=str(Path(tmp) / "svc.ckpt"),
                checkpoint_every=2_000, forensics=lab,
            )
        finally:
            if lab is not None:
                lab.close()
        if lab is None:
            return run
        return run._replace(stats={
            "incidents": lab.store.total,
            "bundles": lab.capture.bundles_written,
            "capture_ns": lab.capture.capture_ns,
        })


def _forensics_probe(packets: list, repeats: int, best: dict) -> dict:
    """The capture share: wall time inside ``write_bundle`` over the best
    armed run, immune to the end-to-end pps jitter (which can even go
    negative on a noisy host)."""
    armed = best["service-forensics"]
    return {
        "capture_overhead_pct": round(
            100.0 * ((armed.stats["capture_ns"] / 1e9) / armed.elapsed), 3
        ),
        "incidents": armed.stats["incidents"],
        "bundles": armed.stats["bundles"],
    }


#: Solver inputs of the control gate's retune: coarsen gamma_l 2x.
RETUNE_INPUTS = {
    "gamma_l": 100_000,
    "beta_l": CONFIG.beta_l,
    "gamma_h": 200_000,
    "t_upincb_seconds": 1.0,
    "alpha": CONFIG.alpha,
}
#: Persistence beyond any window count: the loop scrapes and evaluates
#: on cadence but can never accumulate a proposal streak, the pure cost
#: of being armed.
IDLE_CONTROL = ControlPolicy(
    gamma_h=RETUNE_INPUTS["gamma_h"],
    t_upincb_seconds=RETUNE_INPUTS["t_upincb_seconds"],
    persistence=10**9,
)


def _control_probe(packets: list, repeats: int, best: dict) -> dict:
    """The guarded hot-reconfiguration pause, mid-serve: serve half the
    stream, commit the retune at the batch boundary where retunes land
    (see repro.control.retune), serve the rest.  The freeze-to-commit
    pause must fit inside one batch interval at the armed service's own
    pace, and every run must end exact in epoch 1."""
    plan = RetunePlan(
        old_config=CONFIG,
        new_config=derive_config(
            rho=CONFIG.rho, min_counters=CONFIG.n, **RETUNE_INPUTS
        ),
        reason="bench: coarsen gamma_l 50000->100000",
        inputs=RETUNE_INPUTS,
    )
    half = len(packets) // 2
    pauses_ns = []

    def retune_at_half(service):
        if service.ingested >= half and service.config_epoch == 0:
            pauses_ns.append(service.apply_retune(plan).pause_ns)

    for _ in range(repeats):
        # Armed controller (even an inert one) = per-batch queue pump,
        # so the freeze at the retune boundary finds at most one batch
        # of backlog: the deployment shape the pause budget is about.
        service = DetectionService(
            CONFIG, shards=2, telemetry=Telemetry(), controller=IDLE_CONTROL
        )
        try:
            report = service.serve(packets, on_progress=retune_at_half)
        finally:
            service.shutdown()
        if not report.exact:
            raise AssertionError("a committed retune cost exactness")
        if report.control["epoch"] != 1:
            raise AssertionError(
                f"retune did not commit: epoch {report.control['epoch']}"
            )
    return _pauses(pauses_ns, best["service-control"], len(packets))


@dataclass(frozen=True)
class Gate:
    """One overhead gate: what races, on which stream, within what."""

    name: str
    #: Arm name -> one timed run.  The first arm is the baseline: every
    #: other arm is asserted bit-identical to it and priced against it.
    arms: Dict[str, Callable[[list], Run]]
    #: Largest overhead, in percent, any other arm may cost (times
    #: ``backstop``); a probe's capture share is held to it too.
    budget: float
    #: Description of ``BENCH_<name>.json``, written when it is created.
    description: str
    #: The stream the arms serve, by length.
    stream: Callable[[int], list] = make_packets
    #: Fewest repeats the gate's delta needs for best-of to converge.
    repeat_floor: int = 1
    #: Multiple of the budget the end-to-end overhead may reach.
    backstop: float = 1.0
    #: ``probe(packets, repeats, best)`` -> extra point fields.
    probe: Optional[Callable[[list, int, Dict[str, Run]], dict]] = None

    @property
    def path(self) -> Path:
        return REPO_ROOT / f"BENCH_{self.name}.json"


GATES = {gate.name: gate for gate in (
    # The observability contract: <=5% hot-path overhead.
    Gate(
        "telemetry", budget=5.0,
        arms={"service-off": _serve,
              "service-on": partial(_serve, telemetry=True)},
        description="telemetry overhead trajectory; one point per run of "
        "benchmarks/trajectory.py",
    ),
    # Below the low watermark an armed ladder costs an admission check
    # per packet and nothing else.  A drain budget far above the batch
    # size keeps occupancy at zero, so the ladder never leaves EXACT:
    # the pure cost of being armed.
    Gate(
        "overload", budget=5.0,
        arms={"service-off": _serve,
              "service-ladder": partial(
                  _serve, overload=OverloadPolicy(drain_budget=1_000_000))},
        description="overload-ladder trajectory; points from "
        "benchmarks/trajectory.py --overload (idle-ladder overhead) and "
        "benchmarks/bench_overload.py (soak)",
    ),
    # The watcher taps the routed stream without feeding the exact stage
    # (docs/DETECTORS.md): it may cost throughput, never detections.  It
    # does real per-packet work, so the budget catches regressions, not
    # the existence of the cost.
    Gate(
        "pipeline", budget=70.0,
        arms={"service-off": _serve,
              "service-clef": partial(_serve, watcher=WatcherPolicy("clef")),
              "service-loft": partial(_serve, watcher=WatcherPolicy("loft"))},
        description="two-stage pipeline trajectory; points from "
        "benchmarks/trajectory.py --pipeline (watcher overhead) and "
        "benchmarks/bench_pipeline.py (ambiguity corpus)",
    ),
    # 8 slots over 2 shards pay only a slot->shard lookup per packet
    # against the identity layout *at the same slot count* (8 shards).
    # Detection work is per slot (fewer flows per detector means fewer
    # evictions), so a 2-slot baseline measures a different workload:
    # that mismatch, plus a cold first run, once read as a nonsensical
    # -124% here.  Equal slot spaces also mean equal detections.  The
    # budget is within run noise.
    Gate(
        "reshard", budget=8.0, probe=_reshard_probe,
        arms={"service-plain": partial(_serve, shards=RESHARD_SLOTS),
              "service-slots": partial(_serve, slots=RESHARD_SLOTS)},
        description="resharding trajectory; points from "
        "benchmarks/trajectory.py --reshard (slot-layout overhead + "
        "migration pause) and benchmarks/bench_reshard.py (migration "
        "storm + chaos)",
    ),
    # Frame encoding plus loopback TCP is real per-packet work; the
    # budget catches regressions, not the existence of the cost.  This
    # stream's str flow ids take the codec-list column; column frames
    # measured 28-58% on a 2-vCPU VM, per-packet tuple frames 75-84%, so
    # 70% catches a return to the tuple payload.
    Gate(
        "net", budget=70.0, probe=_net_probe,
        arms={"service-local": _local, "service-remote": _remote},
        description="multi-host trajectory; one point per run of "
        "benchmarks/trajectory.py --net (remote-vs-local throughput over "
        "loopback TCP + reconnect-pause percentiles)",
    ),
    # Explainability must stay cheap: the hot path pays one ring append
    # per batch and a cursor diff per scan, with bundle serialization
    # only when an incident fires.  The budget gates the capture share;
    # the end-to-end delta is too jittery on shared CI hosts to gate at
    # 3%, so it only backstops gross hot-path regressions (ring appends,
    # scans) at 5x the budget.  The true capture cost is a few ms per
    # run, well inside a shared host's run-to-run noise at 2 repeats, so
    # the floor lets best-of converge for both arms.
    Gate(
        "forensics", budget=3.0, probe=_forensics_probe,
        stream=make_sparse_packets, repeat_floor=5, backstop=5.0,
        arms={"service-off": partial(_checkpointed, forensic=False),
              "service-forensics": partial(_checkpointed, forensic=True)},
        description="forensics trajectory; one point per run of "
        "benchmarks/trajectory.py --forensics (incident capture + "
        "trace-ring overhead of an armed ForensicsLab)",
    ),
    # The armed loop pays one tick per batch (an increment and a modulo
    # off cadence, a registry scrape on cadence) plus the per-batch
    # queue pump the controller needs for fresh gauges, priced against
    # the telemetry-on service it scrapes.  A 1% gate needs best-of to
    # converge on both arms: at 2 repeats the run-to-run noise on a
    # shared host swamps the delta (observed swings of +-3% between
    # invocations), hence the same floor as forensics.
    Gate(
        "control", budget=1.0, probe=_control_probe, repeat_floor=5,
        arms={"service-on": partial(_serve, telemetry=True),
              "service-control": partial(
                  _serve, telemetry=True, controller=IDLE_CONTROL)},
        description="adaptive-control trajectory; one point per run of "
        "benchmarks/trajectory.py --control (idle-controller overhead vs "
        "the telemetry-on service + guarded retune pause)",
    ),
)}


def measure(name: str, count: int, repeats: int) -> dict:
    """Race gate ``name`` over ``count`` packets; return its point."""
    gate = GATES[name]
    packets = gate.stream(count)
    repeats = max(repeats, gate.repeat_floor)
    best = race(gate.arms, packets, repeats)
    pps = {arm: count / run.elapsed for arm, run in best.items()}
    baseline, *priced = gate.arms
    point = {
        "gate": name,
        "packets": count,
        "repeats": repeats,
        "pps": {arm: round(value, 1) for arm, value in pps.items()},
        "overhead_pct": {
            arm: round(100.0 * (1.0 - pps[arm] / pps[baseline]), 3)
            for arm in priced
        },
        "detected_flows": len(best[baseline].detections),
    }
    if gate.probe is not None:
        point.update(gate.probe(packets, repeats, best))
    return point


def check(point: dict, budget: float) -> list:
    """One FAIL line, naming the gate, per limit ``point`` breaks: an
    arm's overhead above the budget (times the gate's backstop), a
    capture share above the budget, a pause beyond one batch interval."""
    name = point["gate"]
    limit = GATES[name].backstop * budget
    failures = [
        f"FAIL: {name}: {arm} overhead {pct:.2f}% exceeds budget {limit:.1f}%"
        for arm, pct in point["overhead_pct"].items()
        if pct > limit
    ]
    capture = point.get("capture_overhead_pct", 0.0)
    if capture > budget:
        failures.append(
            f"FAIL: {name}: capture overhead {capture:.2f}% exceeds budget "
            f"{budget:.1f}%"
        )
    if point.get("pause_ns", 0) > point.get("batch_interval_ns", 0):
        failures.append(
            f"FAIL: {name}: pause {point['pause_ns'] / 1e6:.2f} ms exceeds "
            f"one batch interval ({point['batch_interval_ns'] / 1e6:.2f} ms)"
        )
    return failures


def render(point: dict) -> str:
    """The point as one line of prose; list fields stay in the JSON."""
    parts = [f"trajectory {point['gate']}: detections bit-identical"]
    for key, value in point.items():
        if isinstance(value, dict):
            value = " / ".join(f"{k} {v:,}" for k, v in value.items())
            parts.append(f"{key} {value}")
        elif isinstance(value, (int, float)):
            parts.append(f"{key} {value:,}")
    return " | ".join(parts)


def append_point(point: dict, path: Path, description: str) -> None:
    """Append to a trajectory file (a JSON object with a ``points``
    list), creating it when absent.

    Refuses a point with a ``None`` value: a null in a trajectory file
    poisons every consumer that plots or gates on the series, so a
    measurement that could not be taken must either raise or record an
    explicit sentinel the reader understands — never null.
    """
    nulls = [key for key, value in point.items() if value is None]
    if nulls:
        raise ValueError(
            f"refusing to append a point with null values for {nulls}; "
            "trajectory series must be numeric end to end"
        )
    if path.exists():
        payload = json.loads(path.read_text())
    else:
        payload = {"description": description, "points": []}
    payload["points"].append(point)
    path.write_text(json.dumps(payload, indent=2) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    gates = parser.add_mutually_exclusive_group()
    for name, gate in GATES.items():
        if name != "telemetry":
            gates.add_argument(
                f"--{name}", dest="gate", action="store_const", const=name,
                help=f"race the {name} gate instead of telemetry (budget "
                f"{gate.budget:g}%%) and append to BENCH_{name}.json",
            )
    parser.set_defaults(gate="telemetry")
    parser.add_argument(
        "--smoke", action="store_true",
        help="small workload (CI-sized): 20k packets, 2 repeats",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="override the best-of repeat count (a gate's floor still holds)",
    )
    parser.add_argument(
        "--max-overhead-pct", type=float, default=None,
        help="fail (exit 1) above this budget instead of the gate's own",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="measure and report but do not touch the trajectory file",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the measured point as JSON instead of prose",
    )
    args = parser.parse_args(argv)

    gate = GATES[args.gate]
    count = 20_000 if args.smoke else 120_000
    point = measure(args.gate, count, args.repeats or (2 if args.smoke else 5))
    point["preset"] = "smoke" if args.smoke else "full"
    point["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    if not args.no_append:
        append_point(point, gate.path, gate.description)

    print(json.dumps(point, indent=2) if args.json else render(point))
    budget = args.max_overhead_pct
    failures = check(point, gate.budget if budget is None else budget)
    for line in failures:
        print(line, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
