#!/usr/bin/env python
"""Overload soak: drive the service far past shard capacity, gate on
the degradation ladder's accounting.

The overload subsystem's contract (docs/OVERLOAD.md) is *accounted*
degradation: no matter how oversubscribed the service is, every offered
byte lands in exactly one ladder rung, memory stays bounded, and below
the low watermark the ladder is invisible.  This script is the
enforcement:

1. **Soak phase** — offer ``--oversubscription``x (default 5x) the
   shards' drain capacity for the whole run and require

   - zero crashes,
   - the integer identity ``exact + deferred + aggregated + shed ==
     offered`` for both packets and bytes,
   - **no unaccounted drops**: every lost packet is a SHEDDING-rung
     admission (engine drop count == shed packets, every dead letter's
     reason is ``overload-shed``),
   - a bounded queue high-water mark (queue capacity plus the few
     batches the ladder needs to escalate — independent of soak length),
   - a finite widening bound whenever anything was aggregated.

2. **Calm phase** — the same workload under capacity (occupancy never
   reaches the low watermark) must produce detections *bit-identical*
   to the unarmed service: same flows, same timestamps.

Exit status is non-zero when any check fails — what CI's
``overload-soak`` job gates on.  One structured point is appended to
``BENCH_overload.json`` (shared with ``trajectory.py --overload``).

Usage::

    PYTHONPATH=src python benchmarks/bench_overload.py --quick
    PYTHONPATH=src python benchmarks/bench_overload.py --seed 101
    PYTHONPATH=src python benchmarks/bench_overload.py --json --no-append

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
    DeadLetterSink,
    DetectionService,
    OverloadPolicy,
    StreamSource,
)
from trajectory import (  # noqa: E402
    CONFIG,
    GATES,
    append_point,
    make_packets,
)

#: The ladder needs at most three batches at the high watermark to reach
#: SHEDDING (one rung per batch from EXACT); a fourth covers the batch
#: in flight when the watermark was crossed.
ESCALATION_BATCHES = 4


def soak(
    packets: list,
    shards: int,
    drain_budget: int,
    batch_size: int,
    queue_capacity: int,
) -> "tuple[dict, list[str]]":
    """Serve the whole stream at a fixed oversubscription; return the
    measured point fragment and a list of failed checks (empty = pass)."""
    dead_letters = DeadLetterSink(capacity=64)
    policy = OverloadPolicy(drain_budget=drain_budget, cooldown=2)
    service = DetectionService(
        CONFIG,
        shards=shards,
        batch_size=batch_size,
        queue_capacity=queue_capacity,
        overload=policy,
        dead_letter=dead_letters,
    )
    failures: list[str] = []
    try:
        started = time.perf_counter()
        report = service.serve(StreamSource(packets))
        elapsed = time.perf_counter() - started
    finally:
        service.shutdown()

    offered_packets = len(packets)
    offered_bytes = sum(p.size for p in packets)
    account = report.overload["account"]
    rungs = ("exact", "deferred", "aggregated", "shed")
    sum_packets = sum(account[r + "_packets"] for r in rungs)
    sum_bytes = sum(account[r + "_bytes"] for r in rungs)
    if sum_packets != offered_packets or sum_bytes != offered_bytes:
        failures.append(
            "identity violated: account sums to "
            f"{sum_packets} packets / {sum_bytes} bytes, offered "
            f"{offered_packets} / {offered_bytes}"
        )

    dropped = report.dropped
    if dropped != account["shed_packets"]:
        failures.append(
            f"unaccounted drops: engine lost {dropped} packets but the "
            f"ladder shed {account['shed_packets']}"
        )
    bad_reasons = {
        letter.reason
        for letter in dead_letters.entries
        if letter.reason != "overload-shed"
    }
    if bad_reasons:
        failures.append(
            f"losses outside the shedding rung: {sorted(bad_reasons)}"
        )

    # Bounded memory: the high water may exceed the configured capacity
    # only by what arrives while the ladder escalates — a constant,
    # not a function of soak length.
    bound = queue_capacity + ESCALATION_BATCHES * batch_size
    high_water = [h.queue_high_water for h in report.shard_health]
    if max(high_water) > bound:
        failures.append(
            f"queue high water {max(high_water)} exceeds bound {bound} "
            f"(capacity {queue_capacity} + {ESCALATION_BATCHES} "
            f"escalation batches x {batch_size})"
        )

    if account["aggregated_packets"] and report.overload["widening_bytes"] < 0:
        failures.append("negative widening bound")

    point = {
        "phase": "soak",
        "packets": offered_packets,
        "pps": round(offered_packets / elapsed, 1),
        "account": {r: account[r + "_bytes"] for r in rungs},
        "transitions": report.overload["transitions"],
        "widening_bytes": report.overload["widening_bytes"],
        "queue_high_water": high_water,
        "queue_bound": bound,
    }
    return point, failures


def calm(packets: list, shards: int) -> "tuple[dict, list[str]]":
    """Under-capacity run: the armed ladder must be invisible."""

    def detections(overload):
        service = DetectionService(CONFIG, shards=shards, overload=overload)
        try:
            report = service.serve(StreamSource(packets))
        finally:
            service.shutdown()
        if overload is not None:
            account = report.overload["account"]
            if account["exact_packets"] != len(packets):
                raise AssertionError(
                    "calm phase escalated: only "
                    f"{account['exact_packets']}/{len(packets)} packets "
                    "took the exact rung"
                )
        return tuple(sorted(report.detections.items()))

    failures: list[str] = []
    armed = detections(OverloadPolicy(drain_budget=10**9, cooldown=2))
    unarmed = detections(None)
    if armed != unarmed:
        failures.append(
            f"calm-phase detections diverged: {len(armed)} flows armed "
            f"vs {len(unarmed)} unarmed"
        )
    return {"phase": "calm", "detected_flows": len(unarmed)}, failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized soak: 30k packets",
    )
    parser.add_argument(
        "--packets", type=int, default=None,
        help="override the soak stream length",
    )
    parser.add_argument("--seed", type=int, default=7, help="workload seed")
    parser.add_argument(
        "--shards", type=int, default=2, help="service shard count"
    )
    parser.add_argument(
        "--oversubscription", type=float, default=5.0,
        help="offered load as a multiple of drain capacity (default 5)",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="do not touch BENCH_overload.json",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the measured point as JSON instead of prose",
    )
    args = parser.parse_args(argv)

    count = args.packets or (30_000 if args.quick else 120_000)
    drain_budget = 64
    batch_size = max(
        1, round(args.oversubscription * args.shards * drain_budget)
    )
    queue_capacity = 256

    packets = make_packets(count, seed=args.seed)
    soak_point, failures = soak(
        packets, args.shards, drain_budget, batch_size, queue_capacity
    )
    calm_point, calm_failures = calm(
        packets[: min(count, 20_000)], args.shards
    )
    failures.extend(calm_failures)

    point = {
        "seed": args.seed,
        "shards": args.shards,
        "oversubscription": args.oversubscription,
        "preset": "quick" if args.quick else "full",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "soak": soak_point,
        "calm": calm_point,
        "passed": not failures,
    }
    if not args.no_append:
        gate = GATES["overload"]
        append_point(point, gate.path, gate.description)

    if args.json:
        print(json.dumps(point, indent=2))
    else:
        acct = soak_point["account"]
        print(
            f"soak: {count} packets seed {args.seed} at "
            f"{args.oversubscription:g}x | {soak_point['pps']:,.0f} pps | "
            f"{acct['exact']} exact + {acct['deferred']} deferred + "
            f"{acct['aggregated']} aggregated + {acct['shed']} shed bytes | "
            f"{soak_point['transitions']} transitions | high water "
            f"{soak_point['queue_high_water']} (bound "
            f"{soak_point['queue_bound']}) | calm: "
            f"{calm_point['detected_flows']} flows bit-identical"
        )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
