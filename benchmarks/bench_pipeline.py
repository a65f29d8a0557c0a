#!/usr/bin/env python
"""Ambiguity-corpus soak: gate the two-stage pipeline's damage bound.

The pipeline's promise (docs/DETECTORS.md) has two halves, and this
script enforces both over a corpus of seeded in-region scenarios:

1. **Separation** — arming a watcher leaves the service's exact
   detections bit-identical to the watcher-less run, and the attacker
   (who paces strictly inside the ambiguity region) never appears in
   the exact set.  The no-watcher baseline missing the attacker is
   asserted too: a scenario the exact stage *could* catch would make
   the damage claim vacuous.
2. **Damage limitation** — for every corpus seed, both watchers (CLEF
   and LOFT) flag the in-region attacker, and the overuse bytes it
   landed before the verdict (beyond ``TH_l(t) = gamma_l t + beta_l``)
   stay under a stated fraction of its whole-run overuse — the measured
   bound the composition buys, which the baseline fails by
   construction.

Exit status is non-zero when any seed fails either half — what CI's
``ambiguity-corpus`` job gates on (it sweeps ``--seed``, three jobs).
One structured point is appended to ``BENCH_pipeline.json`` (shared
with ``trajectory.py --pipeline``).

Usage::

    PYTHONPATH=src python benchmarks/bench_pipeline.py --quick
    PYTHONPATH=src python benchmarks/bench_pipeline.py --seed 101
    PYTHONPATH=src python benchmarks/bench_pipeline.py --json --no-append

Standalone by design: stdlib only, no pytest.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

from repro.core.config import EARDetConfig  # noqa: E402
from repro.model.packet import Packet  # noqa: E402
from repro.model.units import NS_PER_S  # noqa: E402
from repro.service import (  # noqa: E402
    DetectionService,
    StreamSource,
    WatcherPolicy,
)
from trajectory import GATES, append_point  # noqa: E402

#: Wide ambiguity region: gamma_l = 10 kB/s, rho/(n+1) = 200 kB/s.
CONFIG = EARDetConfig(
    rho=1_000_000, n=4, beta_th=500, alpha=100, beta_l=200, gamma_l=10_000
)

ATTACKER = "in-region-atk"


def corpus_scenario(seed: int, duration_ns: int) -> list:
    """One seeded in-region scenario: an attacker pacing at a
    seed-chosen rate strictly inside the region, amid benign flows."""
    rng = random.Random(seed)
    rnfn = int(CONFIG.rnfn)
    # Anywhere from 2x gamma_l up to 80% of the no-FNl boundary.
    rate = rng.randint(2 * CONFIG.gamma_l, (8 * rnfn) // 10)
    packets = []
    gap = max(1, (100 * NS_PER_S) // rate)
    t = rng.randint(0, gap)
    while t < duration_ns:
        packets.append(Packet(time=t, size=100, fid=ATTACKER))
        t += gap
    for index in range(8):
        benign_rate = rng.randint(CONFIG.gamma_l // 8, CONFIG.gamma_l // 2)
        gap_b = max(1, (60 * NS_PER_S) // benign_rate)
        t = rng.randint(0, gap_b)
        while t < duration_ns:
            packets.append(Packet(time=t, size=60, fid=f"bg{index}"))
            t += gap_b
    packets.sort(key=lambda p: (p.time, str(p.fid)))
    return packets, rate


def overuse_bytes(packets, until_ns, end_ns) -> int:
    """Attacker bytes beyond TH_l landed before ``until_ns`` (whole run
    when never detected)."""
    horizon = end_ns if until_ns is None else until_ns
    sent = sum(
        p.size for p in packets if p.fid == ATTACKER and p.time <= horizon
    )
    allowance = (CONFIG.gamma_l * horizon) // NS_PER_S + CONFIG.beta_l
    return max(0, sent - allowance)


def run_seed(seed: int, duration_ns: int, max_damage_ratio: float) -> dict:
    packets, rate = corpus_scenario(seed, duration_ns)
    end_ns = packets[-1].time
    failures = []

    baseline = DetectionService(CONFIG, shards=2).serve(StreamSource(packets))
    if ATTACKER in baseline.detections:
        failures.append(
            f"seed {seed}: attacker at {rate} B/s is not in-region — "
            "the exact stage caught it and the damage claim is vacuous"
        )
    unbounded = overuse_bytes(packets, None, end_ns)

    point = {
        "seed": seed,
        "attack_rate": rate,
        "unbounded_damage_bytes": unbounded,
        "watchers": {},
    }
    for kind in ("clef", "loft"):
        policy = WatcherPolicy(kind=kind, seed=seed)
        report = DetectionService(CONFIG, shards=2, watcher=policy).serve(
            StreamSource(packets)
        )
        if tuple(sorted(report.detections.items())) != tuple(
            sorted(baseline.detections.items())
        ):
            failures.append(
                f"seed {seed}: {kind} perturbed the exact detections"
            )
        verdicts = report.watcher["verdicts"]
        flagged_at = verdicts.get(ATTACKER)
        if flagged_at is None:
            failures.append(
                f"seed {seed}: {kind} never flagged the in-region attacker "
                f"({rate} B/s over {duration_ns / NS_PER_S:.1f}s)"
            )
            damage = unbounded
        else:
            damage = overuse_bytes(packets, flagged_at, end_ns)
            if unbounded and damage > max_damage_ratio * unbounded:
                failures.append(
                    f"seed {seed}: {kind} flagged too late — damage "
                    f"{damage} > {max_damage_ratio:.0%} of the unbounded "
                    f"{unbounded} bytes"
                )
        point["watchers"][kind] = {
            "flagged_at_ns": flagged_at,
            "damage_bytes": damage,
            "damage_ratio": (
                round(damage / unbounded, 4) if unbounded else 0.0
            ),
        }
    point["failures"] = failures
    return point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int, action="append", default=None,
        help="corpus seed (repeatable; default corpus: 7, 11, 13)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI-sized: 2-second scenarios instead of 4",
    )
    parser.add_argument(
        "--duration-s", type=float, default=None,
        help="override the scenario length in seconds",
    )
    parser.add_argument(
        "--max-damage-ratio", type=float, default=0.75,
        help="fail when a watcher's pre-detection overuse exceeds this "
        "fraction of the attacker's whole-run overuse (default 0.75)",
    )
    parser.add_argument(
        "--no-append", action="store_true",
        help="measure and report but do not touch BENCH_pipeline.json",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="print the measured point as JSON instead of prose",
    )
    args = parser.parse_args(argv)

    seeds = args.seed or [7, 11, 13]
    duration_s = args.duration_s or (2.0 if args.quick else 4.0)
    duration_ns = max(1, round(duration_s * NS_PER_S))

    results = [
        run_seed(seed, duration_ns, args.max_damage_ratio) for seed in seeds
    ]
    failures = [line for point in results for line in point["failures"]]
    point = {
        "kind": "ambiguity-corpus",
        "seeds": seeds,
        "duration_s": duration_s,
        "max_damage_ratio": args.max_damage_ratio,
        "results": results,
        "ok": not failures,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }

    if not args.no_append:
        gate = GATES["pipeline"]
        append_point(point, gate.path, gate.description)

    if args.json:
        print(json.dumps(point, indent=2))
    else:
        for result in results:
            watchers = ", ".join(
                f"{kind}: damage {entry['damage_bytes']} "
                f"({entry['damage_ratio']:.0%} of unbounded)"
                for kind, entry in result["watchers"].items()
            )
            print(
                f"seed {result['seed']}: attacker {result['attack_rate']} B/s"
                f" | baseline damage {result['unbounded_damage_bytes']} "
                f"(UNBOUNDED) | {watchers}"
            )
    for line in failures:
        print(f"FAIL: {line}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
