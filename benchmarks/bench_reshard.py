#!/usr/bin/env python
"""Migration storm + chaos: reshard a live service, gate on exactness.

The resharding subsystem's contract (docs/SERVICE.md) is that a live
migration is *invisible* to detection: flows hash into a fixed slot
space, migrations move whole slots between shards at batch boundaries,
and the detection set — flow ids AND timestamps — is bit-identical to a
service that never resharded.  This script is the enforcement:

1. **Storm phase** — serve a stream in segments, applying a scripted
   sequence of split / move / merge migrations between segments (the
   layout grows to 4 shards and shrinks back), and require

   - detections bit-identical to a static run at the same slot count,
   - **zero packet loss** across every migration,
   - a layout epoch equal to the number of committed migrations,
   - every measured freeze-to-cutover pause recorded.

2. **Chaos phase** — rerun the storm with an injected ``mig:`` fault at
   each protocol phase in turn (``freeze``, ``extract``, ``install``,
   ``cutover``; ``mode=fail``).  Every faulted migration must roll back
   cleanly and commit on the retry (attempts == 2), again with
   bit-identical detections and zero loss: a failed migration is a
   no-op, never a half-applied layout.

Exit status is non-zero when any check fails — what CI's
``reshard-chaos`` job gates on.  One structured point is appended to
``BENCH_reshard.json`` (shared with ``trajectory.py --reshard``).

Usage::

    PYTHONPATH=src python benchmarks/bench_reshard.py --quick
    PYTHONPATH=src python benchmarks/bench_reshard.py --seed 101
    PYTHONPATH=src python benchmarks/bench_reshard.py --engine multiprocess

Standalone by design: stdlib only, no pytest.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.service import (  # noqa: E402
    DetectionService,
    FaultPlan,
    MigrationPlan,
)
from repro.service.reshard import MIGRATION_PHASES  # noqa: E402
from trajectory import (  # noqa: E402
    CONFIG,
    GATES,
    append_point,
    make_packets,
)

SLOTS = 8


#: The storm's migration script: grow 2 → 3 → 4 shards, then merge back
#: down.  Each entry builds a plan against the layout the service has
#: reached by that point.
STORM_SCRIPT = [
    lambda layout: MigrationPlan.split(layout, shard=0, reason="storm"),
    lambda layout: MigrationPlan.split(layout, shard=1, reason="storm"),
    lambda layout: MigrationPlan.merge(layout, 3, 2, reason="storm"),
]


def _static_detections(packets: list, shards: int, engine: str) -> tuple:
    service = DetectionService(CONFIG, shards=shards, engine=engine,
                               slots=SLOTS)
    try:
        report = service.serve(packets, final_checkpoint=False)
    finally:
        service.shutdown()
    return tuple(sorted(report.detections.items()))


def run_storm(
    packets: list,
    engine: str,
    fault_plan=None,
) -> "tuple[dict, list[str], tuple]":
    """Serve the stream in segments with a migration between each;
    return (point fragment, failures, detections)."""
    service = DetectionService(
        CONFIG, shards=2, engine=engine, slots=SLOTS, fault_plan=fault_plan
    )
    pauses_ns = []
    attempts = []
    failures: list[str] = []
    script = STORM_SCRIPT
    segment = len(packets) // (len(script) + 1)
    try:
        served = 0
        for step, make_plan in enumerate(script):
            service.serve(
                packets, max_packets=served + segment, final_checkpoint=False
            )
            served += segment
            migration = service.apply_migration(
                make_plan(service.engine.layout)
            )
            pauses_ns.append(migration.pause_ns)
            attempts.append(migration.attempts)
            if not migration.committed:
                failures.append(f"storm migration {step + 1} did not commit")
        report = service.serve(packets, final_checkpoint=False)
        epoch = service.engine.layout.epoch
    finally:
        service.shutdown()

    if report.dropped:
        failures.append(
            f"packet loss across migrations: {report.dropped} dropped"
        )
    if epoch != len(script):
        failures.append(
            f"layout epoch {epoch} != {len(script)} committed migrations"
        )
    point = {
        "migrations": len(script),
        "pause_ns": pauses_ns,
        "attempts": attempts,
        "final_shards": service.engine.shard_count,
    }
    return point, failures, tuple(sorted(report.detections.items()))


def run_chaos(packets: list, engine: str) -> "tuple[dict, list[str], tuple]":
    """The storm again, with a ``mode=fail`` fault injected at one
    protocol phase per migration; every migration must roll back and
    commit on retry."""
    spec = ";".join(
        f"mig:phase={phase},mode=fail,at={index + 1}"
        for index, phase in enumerate(MIGRATION_PHASES[:3])
    )
    point, failures, detections = run_storm(
        packets, engine, fault_plan=FaultPlan.parse(spec)
    )
    point["fault_spec"] = spec
    for index, count in enumerate(point["attempts"]):
        if count != 2:
            failures.append(
                f"chaos migration {index + 1} took {count} attempts "
                "(expected exactly 2: one rollback, one commit)"
            )
    return point, failures, detections


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized storm: 24k packets",
    )
    parser.add_argument(
        "--packets", type=int, default=None,
        help="override the stream length",
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--engine", choices=("inprocess", "multiprocess"),
        default="inprocess", help="engine kind to storm",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="do not touch BENCH_reshard.json",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the measured point as JSON instead of prose",
    )
    args = parser.parse_args(argv)

    count = args.packets or (24_000 if args.quick else 96_000)
    packets = make_packets(count, seed=args.seed)

    # Warm untimed first (see trajectory.race): the process's first
    # service run pays one-time costs that would otherwise bias the
    # static-vs-storm comparison below.
    _static_detections(
        packets[: max(1, count // 4)], shards=2, engine=args.engine
    )

    started = time.perf_counter()
    static = _static_detections(packets, shards=2, engine=args.engine)
    static_s = time.perf_counter() - started

    started = time.perf_counter()
    storm_point, failures, storm_detections = run_storm(packets, args.engine)
    storm_s = time.perf_counter() - started
    if storm_detections != static:
        failures.append(
            f"storm detections diverged: {len(static)} flows static vs "
            f"{len(storm_detections)} resharded"
        )
    chaos_point, chaos_failures, chaos_detections = run_chaos(
        packets, args.engine
    )
    failures.extend(chaos_failures)
    if chaos_detections != static:
        failures.append(
            f"chaos detections diverged: {len(static)} flows static vs "
            f"{len(chaos_detections)} resharded"
        )

    point = {
        "seed": args.seed,
        "engine": args.engine,
        "slots": SLOTS,
        "packets": count,
        "preset": "quick" if args.quick else "full",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        # The storm's wall-clock tax over the static run — always a
        # number, never null: BENCH_reshard.json consumers gate on the
        # overhead series across both producers of this file.
        "overhead_pct": round(100.0 * (1.0 - static_s / storm_s), 3),
        "storm": storm_point,
        "chaos": chaos_point,
        "detected_flows": len(static),
        "passed": not failures,
    }
    if not args.no_append:
        gate = GATES["reshard"]
        append_point(point, gate.path, gate.description)

    if args.json:
        print(json.dumps(point, indent=2))
    else:
        pauses = "/".join(
            f"{ns / 1e6:.2f}" for ns in storm_point["pause_ns"]
        )
        print(
            f"storm: {count} packets seed {args.seed} ({args.engine}) | "
            f"{storm_point['migrations']} migrations, pauses {pauses} ms, "
            f"final {storm_point['final_shards']} shards | chaos: "
            f"attempts {chaos_point['attempts']} under {len(MIGRATION_PHASES[:3])} "
            f"injected faults | {len(static)} flows (bit-identical)"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
