"""Command-line entry point: regenerate paper experiments, detect on traces.

Usage::

    eardet list                       # what can be regenerated
    eardet figure5                    # one experiment at default params
    eardet all --preset quick         # everything, CI-sized
    eardet figure6 --scale 1.0 --repetitions 10 --attack-flows 50
    eardet figure5 --dataset caida    # the CAIDA-like trace instead

    # run the detector on a trace file (csv / binary / pcap):
    eardet detect --trace capture.pcap --rho 25000000 \\
        --gamma-l 25000 --beta-l 6072 --gamma-h 250000

    # run the streaming service with 4 shards and periodic checkpoints:
    eardet serve --trace capture.ert --rho 25000000 \\
        --gamma-l 25000 --gamma-h 250000 --shards 4 \\
        --checkpoint state.ckpt --checkpoint-every 100000

    # recover after a crash (replays from the checkpoint boundary):
    eardet serve --trace capture.ert --checkpoint state.ckpt --resume

    # inspect a checkpoint file:
    eardet checkpoint inspect --checkpoint state.ckpt

(Installed as ``eardet`` via the package's console script; also runnable
as ``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List

from .core.config import engineer
from .core.eardet import EARDet
from .experiments import (
    ablations,
    ambiguity,
    appendix_a,
    dynamics,
    elasticity,
    figure1,
    figure5,
    figure6,
    figure7,
    figure8,
    mitigation,
    robustness,
    scalability,
    table2,
    table3,
    tables456,
    window_models,
)
from .experiments.report import ExperimentParams, Table
from .model.units import NS_PER_S


def _as_list(result) -> List:
    if isinstance(result, (list, tuple)):
        return list(result)
    return [result]


#: Experiment registry: name -> callable(params) -> renderable(s).
EXPERIMENTS: Dict[str, Callable[[ExperimentParams], List]] = {
    "figure1": lambda params: _as_list(figure1.run()),
    "table2": lambda params: _as_list(table2.run()),
    "table3": lambda params: _as_list(table3.run(params)),
    "tables456": lambda params: _as_list(tables456.run(scale=params.scale, seed=params.seed)),
    "figure5": lambda params: _as_list(figure5.run(params)),
    "figure6": lambda params: _as_list(figure6.run(params)),
    "figure7": lambda params: _as_list(figure7.run(params)),
    "figure8": lambda params: _as_list(figure8.run()),
    "appendix-a": lambda params: _as_list(appendix_a.run()),
    "scalability": lambda params: _as_list(scalability.run(params)),
    "ablations": lambda params: _as_list(ablations.run(params)),
    "ambiguity": lambda params: _as_list(ambiguity.run(params)),
    "dynamics": lambda params: _as_list(dynamics.run(params)),
    "window-models": lambda params: _as_list(window_models.run(params)),
    "mitigation": lambda params: _as_list(mitigation.run(params)),
    "robustness": lambda params: _as_list(robustness.run(params)),
    "elasticity": lambda params: _as_list(elasticity.run(params)),
}

PRESETS = {
    "quick": ExperimentParams.quick,
    "default": ExperimentParams,
    "paper": ExperimentParams.paper,
}


def package_version() -> str:
    """The installed package version, falling back to the source tree's
    ``repro.__version__`` when running uninstalled (e.g. PYTHONPATH=src)."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from . import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eardet",
        description=(
            "Regenerate the EARDet paper's tables and figures, run the "
            "detector over a trace file, or serve a stream with the "
            "sharded checkpointing runtime."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {package_version()}",
    )
    parser.add_argument(
        "experiment",
        choices=[
            "list", "all", "detect", "detectors", "analyze", "simulate",
            "serve", "worker", "checkpoint", "metrics", "replay",
            "incidents", "tune", *EXPERIMENTS,
        ],
        help=(
            "experiment to run ('list' to enumerate, 'all' for everything, "
            "'detect'/'analyze' to process a trace file, 'detectors' to "
            "list every detection scheme with its exactness class, "
            "'simulate' for the closed-loop mitigation pipeline, 'serve' "
            "for the streaming service, 'worker' for a remote shard "
            "server (--listen), 'checkpoint' for checkpoint tooling, "
            "'metrics' to fetch a running service's metrics endpoint, "
            "'replay' to re-execute an incident bundle deterministically, "
            "'incidents' to list/show/export the forensic incident log, "
            "'tune' to propose/apply a guarded retune or --watch a live "
            "service's SLO burn rate)"
        ),
    )
    parser.add_argument(
        "subaction",
        nargs="?",
        default=None,
        help="sub-action for multi-verb commands (e.g. 'checkpoint inspect')",
    )
    parser.add_argument(
        "--preset",
        choices=sorted(PRESETS),
        default="default",
        help="parameter preset (quick/default/paper)",
    )
    parser.add_argument("--scale", type=float, help="trace scale override")
    parser.add_argument(
        "--repetitions", type=int, help="repetitions-per-point override"
    )
    parser.add_argument(
        "--attack-flows", type=int, help="attack flows per scenario override"
    )
    parser.add_argument("--seed", type=int, help="base RNG seed override")
    parser.add_argument(
        "--dataset",
        choices=["federico", "caida"],
        help="which synthetic dataset the trace-driven experiments use",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit experiment results as JSON instead of text tables",
    )
    parser.add_argument(
        "--chart",
        action="store_true",
        help="draw figure series as ASCII charts instead of tables",
    )

    detect = parser.add_argument_group("detect options")
    detect.add_argument("--trace", help="trace file (.csv, .ert, or .pcap)")
    detect.add_argument("--rho", type=int, help="link capacity, bytes/s")
    detect.add_argument(
        "--gamma-l", type=int, help="protected rate, bytes/s (detect)"
    )
    detect.add_argument(
        "--beta-l", type=int, default=6072, help="protected burst, bytes"
    )
    detect.add_argument(
        "--gamma-h", type=int, help="detection rate, bytes/s (detect)"
    )
    detect.add_argument(
        "--t-upincb", type=float, default=1.0,
        help="incubation-period budget, seconds",
    )
    detect.add_argument(
        "--host-pair", action="store_true",
        help="define flows by (src, dst) instead of the 5-tuple (pcap only)",
    )
    detect.add_argument(
        "--window-ms", type=float, default=100.0,
        help="probe window for peak-rate statistics (analyze)",
    )
    detect.add_argument(
        "--top", type=int, default=10, help="top talkers to list (analyze)"
    )

    serve = parser.add_argument_group("serve / checkpoint options")
    serve.add_argument(
        "--shards", type=int, default=1,
        help="worker shards for the streaming service (serve)",
    )
    serve.add_argument(
        "--engine", choices=["inprocess", "multiprocess", "remote"],
        default=None,
        help="service engine: deterministic in-process, one process per "
        "shard, or one TCP shard server per shard (serve; default "
        "inprocess, or the checkpoint's on --resume; remote requires "
        "--workers)",
    )
    serve.add_argument(
        "--workers", default=None, metavar="HOST:PORT,...",
        help="comma-separated shard-server endpoints for --engine remote "
        "(one per shard, in shard order; extras idle as split spares) "
        "(serve)",
    )
    serve.add_argument(
        "--terminate-grace", type=float, default=None, metavar="SECONDS",
        help="grace the multiprocess engine gives each worker to exit "
        "before escalating SIGTERM -> SIGKILL on abort (serve; default "
        "5s)",
    )
    serve.add_argument(
        "--listen", default=None, metavar="HOST:PORT",
        help="endpoint a remote shard server binds (worker; port 0 picks "
        "an ephemeral port, printed on stdout)",
    )
    serve.add_argument(
        "--checkpoint",
        help="checkpoint file to write periodically / read back (serve, "
        "checkpoint inspect)",
    )
    serve.add_argument(
        "--checkpoint-every", type=int, default=None,
        help="checkpoint interval in ingested packets (serve)",
    )
    serve.add_argument(
        "--batch-size", type=int, default=1024,
        help="packets pulled from the source per batch (serve)",
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=4096,
        help="max pending packets per shard queue (serve)",
    )
    serve.add_argument(
        "--overflow", choices=["block", "drop"], default="block",
        help="full-queue policy: block (exact backpressure) or drop "
        "(lossy, counted) (serve)",
    )
    serve.add_argument(
        "--max-packets", type=int, default=None,
        help="stop after this many packets (serve; for bounded runs)",
    )
    serve.add_argument(
        "--resume", action="store_true",
        help="restore state from --checkpoint and replay the trace from "
        "the checkpoint boundary (serve)",
    )
    serve.add_argument(
        "--supervise", action="store_true",
        help="run under the fault-tolerant supervisor: dead shards are "
        "restarted from the last checkpoint with bounded backoff (serve)",
    )
    serve.add_argument(
        "--max-restarts", type=int, default=5,
        help="supervised-restart budget before giving up (serve "
        "--supervise)",
    )
    serve.add_argument(
        "--heartbeat-timeout", type=float, default=None,
        help="treat a shard as wedged when its heartbeat is older than "
        "this many seconds (serve --supervise, multiprocess engine)",
    )
    serve.add_argument(
        "--retry-source", type=int, default=0,
        help="retry transient source failures up to this many consecutive "
        "times with exponential backoff (serve)",
    )
    serve.add_argument(
        "--fault-plan", default=None, metavar="SPEC",
        help="inject deterministic faults for chaos testing, e.g. "
        "'kill:shard=1,at=5000;drop:shard=0,at=200,count=10;"
        "source:kind=transient,at=3000;ckpt:after=2,mode=truncate;"
        "mig:phase=install,mode=fail,at=1' (serve)",
    )

    reshard = parser.add_argument_group(
        "resharding options",
        description=(
            "Exact live resharding for the streaming service (see "
            "docs/SERVICE.md).  --slots fixes the flow-routing "
            "granularity above the shard count so whole slots can "
            "migrate between shards at batch boundaries without "
            "perturbing detections; --coordinate arms the elastic "
            "coordinator, which splits hot shards / merges cold ones "
            "when load skew persists past its hysteresis."
        ),
    )
    reshard.add_argument(
        "--slots", type=int, default=None, metavar="N",
        help="flow-routing slots (>= --shards; default equal to "
        "--shards, which leaves no resharding headroom) (serve)",
    )
    reshard.add_argument(
        "--coordinate", action="store_true",
        help="arm the skew-driven elastic coordinator (serve; needs "
        "--slots > --shards to have anything to move)",
    )
    reshard.add_argument(
        "--skew-high", type=float, default=2.0, metavar="RATIO",
        help="max/mean per-shard load ratio that triggers a split once "
        "persistent (default 2.0)",
    )
    reshard.add_argument(
        "--skew-low", type=float, default=1.25, metavar="RATIO",
        help="skew ratio below which a merge becomes eligible "
        "(default 1.25)",
    )
    reshard.add_argument(
        "--reshard-persistence", type=int, default=3, metavar="WINDOWS",
        help="consecutive observation windows the skew must persist "
        "before the coordinator acts (default 3)",
    )
    reshard.add_argument(
        "--reshard-cooldown", type=int, default=10, metavar="WINDOWS",
        help="observation windows after any migration attempt before "
        "the next proposal (default 10)",
    )
    reshard.add_argument(
        "--max-shards", type=int, default=8, metavar="N",
        help="ceiling on coordinator-provisioned shards (default 8)",
    )

    control = parser.add_argument_group(
        "adaptive control options",
        description=(
            "Telemetry-driven retuning with guarded, exact hot "
            "reconfiguration (see docs/CONTROL.md).  --control arms the "
            "closed-loop controller on 'serve' (requires telemetry, "
            "e.g. --metrics-port, plus --gamma-h): it scrapes the "
            "metric registry each window, re-runs the Appendix-A "
            "solver under sustained pressure or slack, and applies the "
            "result through the verify-then-commit retune protocol — "
            "config changes land only at batch boundaries as explicit "
            "config epochs, rolled back on any failure.  'tune' is the "
            "manual verb: propose a retune from a checkpoint, --apply "
            "it through the same guarded path (rewriting the "
            "checkpoint at the new epoch), or --watch a live metrics "
            "endpoint's SLO burn rate."
        ),
    )
    control.add_argument(
        "--control", action="store_true",
        help="arm the adaptive controller (serve; needs --gamma-h and a "
        "telemetry flag such as --metrics-port)",
    )
    control.add_argument(
        "--control-every", type=int, default=8, metavar="BATCHES",
        help="controller sampling cadence in ingested batches (default 8)",
    )
    control.add_argument(
        "--control-min-window", type=int, default=4096, metavar="PACKETS",
        help="smallest packet window the controller will judge; shorter "
        "windows accumulate (default 4096)",
    )
    control.add_argument(
        "--control-persistence", type=int, default=3, metavar="WINDOWS",
        help="consecutive windows pressure/slack must persist before a "
        "retune is proposed (default 3)",
    )
    control.add_argument(
        "--control-cooldown", type=int, default=8, metavar="WINDOWS",
        help="windows after any retune attempt (committed, rolled back "
        "or infeasible) before the next proposal (default 8)",
    )
    control.add_argument(
        "--control-widen", type=float, default=2.0, metavar="FACTOR",
        help="multiplicative gamma_l step per coarsen/refine retune "
        "(default 2.0)",
    )
    control.add_argument(
        "--control-max-counters", type=int, default=None, metavar="N",
        help="operator memory cap on the solved counter count n "
        "(serve --control, tune)",
    )
    control.add_argument(
        "--slo-drop-budget", type=float, default=None, metavar="FRAC",
        help="SLO error budget: tolerated dropped-packet fraction "
        "feeding the burn-rate rules (default 0.001)",
    )
    control.add_argument(
        "--tune-gamma-l", type=int, default=None, metavar="RATE",
        help="target protected rate for 'tune' propose/--apply "
        "(default: re-derive at the checkpoint's current gamma_l)",
    )
    control.add_argument(
        "--apply", action="store_true",
        help="tune: execute the proposed retune against the checkpoint "
        "through the guarded five-phase protocol and rewrite it at the "
        "new config epoch (a rolled-back failure leaves it untouched)",
    )
    control.add_argument(
        "--watch", action="store_true",
        help="tune: poll a live /metrics.json endpoint (--metrics-port) "
        "and print control samples plus SLO alerts each round",
    )
    control.add_argument(
        "--watch-interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between --watch polls (default 2)",
    )
    control.add_argument(
        "--watch-rounds", type=int, default=None, metavar="N",
        help="stop --watch after N polls (default: until interrupted)",
    )

    watcher = parser.add_argument_group(
        "watcher options",
        description=(
            "Second-stage ambiguity-region watcher for the streaming "
            "service (see docs/DETECTORS.md).  --watcher arms one "
            "probabilistic detector per shard — CLEF's twin RLFDs or "
            "LOFT — tapping the routed stream next to the exact EARDet "
            "shards.  Exact detections are bit-identical with or "
            "without a watcher; watcher verdicts appear in their own "
            "probabilistic report section and are never merged into "
            "the exact set."
        ),
    )
    watcher.add_argument(
        "--watcher", choices=["clef", "loft", "none"], default="none",
        help="ambiguity-region watcher armed next to each EARDet shard "
        "(serve; default none)",
    )
    watcher.add_argument(
        "--watcher-counters", type=int, default=None, metavar="M",
        help="watcher memory: RLFD branching factor (clef) or per-stage "
        "aggregates (loft)",
    )
    watcher.add_argument(
        "--watcher-depth", type=int, default=None, metavar="D",
        help="RLFD virtual tree depth (clef)",
    )
    watcher.add_argument(
        "--watcher-fast-period-ms", type=float, default=None, metavar="MS",
        help="fast twin RLFD level period (clef)",
    )
    watcher.add_argument(
        "--watcher-slow-period-ms", type=float, default=None, metavar="MS",
        help="slow twin RLFD level period (clef)",
    )
    watcher.add_argument(
        "--watcher-epoch-ms", type=float, default=None, metavar="MS",
        help="sketch aggregation epoch (loft)",
    )
    watcher.add_argument(
        "--watcher-stages", type=int, default=None, metavar="D",
        help="sketch stages (loft)",
    )
    watcher.add_argument(
        "--watcher-watchlist", type=int, default=None, metavar="K",
        help="exact watchlist capacity for promoted candidates (loft)",
    )
    watcher.add_argument(
        "--watcher-flow-limit", type=int, default=None, metavar="N",
        help="max distinct flows tracked per sketch epoch (loft)",
    )
    watcher.add_argument(
        "--watcher-seed", type=int, default=None, metavar="SEED",
        help="watcher hash seed (salted per shard; default 0)",
    )

    overload = parser.add_argument_group(
        "overload options",
        description=(
            "Admission control for the streaming service "
            "(see docs/OVERLOAD.md).  --overload-policy ladder arms a "
            "per-shard degradation ladder (exact -> deferred -> "
            "aggregated -> shedding) driven by queue occupancy with "
            "hysteresis watermarks; every offered byte is attributed to "
            "exactly one rung, so the report's account always sums to "
            "the offered total.  SIGTERM/SIGINT during serve request a "
            "graceful drain: finish the batch, flush every rung buffer, "
            "write the final checkpoint, then report."
        ),
    )
    overload.add_argument(
        "--overload-policy", choices=["off", "ladder"], default="off",
        help="overload response: 'off' (pure backpressure) or 'ladder' "
        "(accounted degradation) (serve)",
    )
    overload.add_argument(
        "--high-watermark", type=float, default=0.75, metavar="FRAC",
        help="queue occupancy fraction that escalates the ladder one "
        "rung (default 0.75)",
    )
    overload.add_argument(
        "--low-watermark", type=float, default=0.25, metavar="FRAC",
        help="queue occupancy fraction that de-escalates one rung after "
        "the cooldown (default 0.25)",
    )
    overload.add_argument(
        "--overload-cooldown", type=int, default=4, metavar="BATCHES",
        help="batches a shard must observe after a transition before it "
        "may de-escalate (escalation is never delayed; default 4)",
    )
    overload.add_argument(
        "--drain-budget", type=int, default=None, metavar="PACKETS",
        help="packets each shard may process per batch under the ladder "
        "(in-process engine; models worker capacity; default unbounded)",
    )
    overload.add_argument(
        "--aggregate-window-ms", type=float, default=10.0, metavar="MS",
        help="epoch length for the AGGREGATED rung's per-flow coalescing "
        "(bounds the ambiguity widening; default 10)",
    )
    overload.add_argument(
        "--defer-deadline-batches", type=int, default=4, metavar="N",
        help="batches a DEFERRED buffer may age before it is force-"
        "released (default 4)",
    )

    telemetry = parser.add_argument_group(
        "telemetry options",
        description=(
            "Live observability for the streaming service "
            "(see docs/OBSERVABILITY.md).  Any of these flags turns the "
            "metric registry on; without them the hot path runs with "
            "telemetry fully disabled."
        ),
    )
    telemetry.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve live metrics over HTTP on this port while serving "
        "(0 = OS-assigned; endpoints /metrics, /metrics.json, /healthz) "
        "(serve; also the port 'metrics' fetches from)",
    )
    telemetry.add_argument(
        "--metrics-host", default="127.0.0.1", metavar="HOST",
        help="bind/fetch host for the metrics endpoint (default 127.0.0.1)",
    )
    telemetry.add_argument(
        "--metrics-out", default=None, metavar="PATH",
        help="after the run, dump the final metrics to this file "
        "(.json = JSON, anything else = Prometheus text) (serve)",
    )

    guard = parser.add_argument_group(
        "guard options",
        description=(
            "Ingest hardening and runtime invariant checking "
            "(see docs/GUARDRAILS.md).  --validate screens every trace "
            "packet for negative times, time regressions, out-of-envelope "
            "sizes and invalid flow IDs before the detector sees it; "
            "'strict' rejects the trace on the first violation, 'repair' "
            "clamps/drops offenders (voiding the exactness guarantee), "
            "'reorder' additionally re-sorts late packets within "
            "--reorder-window.  --invariant-every samples the paper's "
            "algorithm-state invariants on the live detector."
        ),
    )
    guard.add_argument(
        "--validate", choices=["strict", "repair", "reorder"], default=None,
        help="screen trace packets through the ingest validator "
        "(detect, analyze, serve)",
    )
    guard.add_argument(
        "--reorder-window", type=int, default=64,
        help="max buffered packets when re-sorting a mildly disordered "
        "stream (--validate reorder)",
    )
    guard.add_argument(
        "--min-packet-size", type=int, default=None,
        help="smallest acceptable packet size in bytes (with --validate; "
        "default: Ethernet minimum)",
    )
    guard.add_argument(
        "--max-packet-size", type=int, default=None,
        help="largest acceptable packet size in bytes (with --validate; "
        "default: Ethernet maximum)",
    )
    guard.add_argument(
        "--invariant-every", type=int, default=None, metavar="N",
        help="assert the detector's algorithm-state invariants every N "
        "packets; violations abort with forensics (detect, serve)",
    )

    forensics = parser.add_argument_group(
        "forensics options",
        description=(
            "Incident forensics and deterministic replay "
            "(see docs/FORENSICS.md).  --forensics-dir arms the lab on "
            "'serve': every detection, watcher verdict, overload "
            "transition, migration, recovery and violation is appended "
            "to an append-only CRC'd incident log, and the replayable "
            "classes get a minimal replay bundle.  'replay "
            "<bundle-or-id>' re-executes one bundle bit-identically; "
            "'incidents list|show|export' reads the log back."
        ),
    )
    forensics.add_argument(
        "--forensics-dir", default=None, metavar="DIR",
        help="arm the forensics lab: incident log at DIR/incidents.jsonl, "
        "replay bundles under DIR/bundles (serve, replay, incidents)",
    )
    forensics.add_argument(
        "--forensics-ring-capacity", type=int, default=None, metavar="N",
        help="trace packets the capture ring retains between checkpoint "
        "baselines; incidents whose window outgrows it are marked "
        "truncated and refuse replay (default 65536)",
    )
    forensics.add_argument(
        "--step", action="store_true",
        help="replay: additionally dump per-packet counter/bucket deltas "
        "(diagnostic; implies a packet-at-a-time re-execution)",
    )
    forensics.add_argument(
        "--id", type=int, default=None, metavar="ID", dest="incident_id",
        help="incident id ('incidents show'; also resolves 'replay <id>' "
        "when given instead of a positional id)",
    )
    forensics.add_argument(
        "--html", action="store_true",
        help="incidents export: render the zero-dependency HTML timeline "
        "viewer instead of JSON",
    )
    forensics.add_argument(
        "--out", default=None, metavar="PATH",
        help="incidents export: output file (default stdout for JSON, "
        "incidents.html next to the log for --html)",
    )

    sim = parser.add_argument_group("simulate options")
    sim.add_argument(
        "--bottleneck", type=int, default=2_000_000,
        help="bottleneck capacity, bytes/s (simulate)",
    )
    sim.add_argument(
        "--victims", type=int, default=4, help="TCP-like victims (simulate)"
    )
    sim.add_argument(
        "--burst-kb", type=int, default=120,
        help="attacker burst size, KB (simulate)",
    )
    sim.add_argument(
        "--period-ms", type=int, default=500,
        help="attacker burst period, ms (simulate)",
    )
    sim.add_argument(
        "--duration-s", type=float, default=20.0,
        help="simulated duration, seconds (simulate)",
    )
    sim.add_argument(
        "--no-policer", action="store_true",
        help="run without the EARDet policer (simulate)",
    )
    return parser


def resolve_params(args: argparse.Namespace) -> ExperimentParams:
    base = PRESETS[args.preset]()
    overrides = {
        name: value
        for name, value in (
            ("scale", args.scale),
            ("repetitions", args.repetitions),
            ("attack_flows", args.attack_flows),
            ("seed", args.seed),
            ("dataset", args.dataset),
        )
        if value is not None
    }
    if not overrides:
        return base
    return replace(base, **overrides)


def _guard_policy(args: argparse.Namespace):
    """Build the ingest-validation policy from the guard options, or None
    when --validate was not given."""
    from .guard import GuardPolicy

    if args.validate is None:
        for flag, value in (
            ("--min-packet-size", args.min_packet_size),
            ("--max-packet-size", args.max_packet_size),
        ):
            if value is not None:
                raise SystemExit(f"{flag} requires --validate")
        return None
    if args.validate == "strict":
        policy = GuardPolicy.strict()
    elif args.validate == "repair":
        policy = GuardPolicy.repair()
    else:
        if args.reorder_window < 1:
            raise SystemExit(
                f"--reorder-window must be >= 1, got {args.reorder_window}"
            )
        policy = GuardPolicy.reordering(window=args.reorder_window)
    overrides = {}
    if args.min_packet_size is not None:
        overrides["min_size"] = args.min_packet_size
    if args.max_packet_size is not None:
        overrides["max_size"] = args.max_packet_size
    if overrides:
        try:
            policy = replace(policy, **overrides)
        except ValueError as error:
            raise SystemExit(f"bad guard options: {error}")
    return policy


def _overload_policy(args: argparse.Namespace):
    """Build the :class:`~repro.service.OverloadPolicy` from the overload
    options, or None when ``--overload-policy off`` (the default)."""
    if args.overload_policy == "off":
        return None
    from .service import OverloadPolicy

    try:
        return OverloadPolicy(
            high_watermark=args.high_watermark,
            low_watermark=args.low_watermark,
            cooldown=args.overload_cooldown,
            drain_budget=args.drain_budget,
            aggregate_window_ns=max(
                1, round(args.aggregate_window_ms * 1_000_000)
            ),
            defer_deadline_batches=args.defer_deadline_batches,
        )
    except ValueError as error:
        raise SystemExit(f"bad overload options: {error}")


def _watcher_policy(args: argparse.Namespace):
    """Build the :class:`~repro.service.WatcherPolicy` from the watcher
    options, or None when ``--watcher none`` (the default)."""
    sizing_flags = (
        ("--watcher-counters", args.watcher_counters),
        ("--watcher-depth", args.watcher_depth),
        ("--watcher-fast-period-ms", args.watcher_fast_period_ms),
        ("--watcher-slow-period-ms", args.watcher_slow_period_ms),
        ("--watcher-epoch-ms", args.watcher_epoch_ms),
        ("--watcher-stages", args.watcher_stages),
        ("--watcher-watchlist", args.watcher_watchlist),
        ("--watcher-flow-limit", args.watcher_flow_limit),
        ("--watcher-seed", args.watcher_seed),
    )
    if args.watcher == "none":
        for flag, value in sizing_flags:
            if value is not None:
                raise SystemExit(f"{flag} requires --watcher clef|loft")
        return None
    from .service import WatcherPolicy

    def _ns(ms: float) -> int:
        return max(1, round(ms * 1_000_000))

    overrides = {}
    if args.watcher_counters is not None:
        overrides["counters"] = args.watcher_counters
    if args.watcher_depth is not None:
        overrides["depth"] = args.watcher_depth
    if args.watcher_fast_period_ms is not None:
        overrides["fast_period_ns"] = _ns(args.watcher_fast_period_ms)
    if args.watcher_slow_period_ms is not None:
        overrides["slow_period_ns"] = _ns(args.watcher_slow_period_ms)
    if args.watcher_epoch_ms is not None:
        overrides["epoch_ns"] = _ns(args.watcher_epoch_ms)
    if args.watcher_stages is not None:
        overrides["stages"] = args.watcher_stages
    if args.watcher_watchlist is not None:
        overrides["watchlist"] = args.watcher_watchlist
    if args.watcher_flow_limit is not None:
        overrides["flow_limit"] = args.watcher_flow_limit
    if args.watcher_seed is not None:
        overrides["seed"] = args.watcher_seed
    try:
        return WatcherPolicy(kind=args.watcher, **overrides)
    except ValueError as error:
        raise SystemExit(f"bad watcher options: {error}")


def _coordinator_policy(args: argparse.Namespace):
    """Build the :class:`~repro.service.CoordinatorPolicy` from the
    resharding options, or None when ``--coordinate`` was not given."""
    if not args.coordinate:
        return None
    from .service import CoordinatorPolicy

    try:
        return CoordinatorPolicy(
            skew_high=args.skew_high,
            skew_low=args.skew_low,
            persistence=args.reshard_persistence,
            cooldown=args.reshard_cooldown,
            max_shards=args.max_shards,
        )
    except ValueError as error:
        raise SystemExit(f"bad resharding options: {error}")


def _control_policy(args: argparse.Namespace):
    """Build the adaptive controller from the control options, or None
    when ``--control`` was not given.

    Returns a :class:`~repro.control.ControlPolicy` (the service
    promotes it to a controller), or a pre-built
    :class:`~repro.control.Controller` when an SLO override needs a
    custom evaluator."""
    if not args.control:
        return None
    if args.gamma_h is None:
        raise SystemExit(
            "--control requires --gamma-h (the Appendix-A solver's "
            "detection-rate input, which the running config does not "
            "record)"
        )
    from .control import ControlPolicy

    try:
        policy = ControlPolicy(
            gamma_h=args.gamma_h,
            t_upincb_seconds=args.t_upincb,
            every_batches=args.control_every,
            min_window_packets=args.control_min_window,
            persistence=args.control_persistence,
            cooldown=args.control_cooldown,
            widen_factor=args.control_widen,
            max_counters=args.control_max_counters,
        )
        if args.slo_drop_budget is None:
            return policy
        from .control import Controller, SLOEvaluator, SLOPolicy

        return Controller(
            policy,
            slo=SLOEvaluator(SLOPolicy(drop_budget=args.slo_drop_budget)),
        )
    except ValueError as error:
        raise SystemExit(f"bad control options: {error}")


def _install_drain_handlers(request_drain) -> "dict | None":
    """Route SIGTERM/SIGINT to a graceful drain request.

    The first signal asks the serve loop to stop at the next batch
    boundary and flush (``request_drain`` only sets a flag, so it is
    signal-safe); a second signal falls through to the previous handler
    (normally KeyboardInterrupt) for a hard stop.  Returns the previous
    handlers for :func:`_restore_drain_handlers`, or None when not on
    the main thread (signal.signal would raise there).
    """
    import signal
    import threading

    if threading.current_thread() is not threading.main_thread():
        return None
    previous = {}
    fired = []

    def handler(signum, frame):
        if fired:
            prior = previous.get(signum)
            if callable(prior):
                prior(signum, frame)
                return
            raise KeyboardInterrupt
        fired.append(signum)
        request_drain()

    for signum in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[signum] = signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover - exotic platforms
            pass
    return previous


def _restore_drain_handlers(previous) -> None:
    import signal

    if not previous:
        return
    for signum, handler in previous.items():
        try:
            signal.signal(signum, handler)
        except (ValueError, OSError):  # pragma: no cover
            pass


def _guard_validator(args: argparse.Namespace):
    """A fresh :class:`~repro.guard.StreamValidator` for the guard
    options, or None when validation is off."""
    from .guard import StreamValidator

    policy = _guard_policy(args)
    if policy is None:
        return None
    return StreamValidator(policy)


def _print_validation_summary(stats) -> None:
    if stats is None or stats.total_violations == 0:
        return
    print(
        f"ingest validation: {stats.examined} packets examined, "
        f"{stats.total_violations} violations "
        f"({stats.clamped} clamped, {stats.dropped} dropped, "
        f"{stats.reordered} reordered)"
    )
    if stats.mutated:
        print(
            f"WARNING: validator mutated {stats.mutated} packets — the "
            "no-FN/no-FP guarantee applies to the repaired stream, not "
            "the wire stream"
        )


def load_trace(path: str, by_host_pair: bool = False, validator=None):
    """Load a trace by extension: .csv, .ert (binary), or .pcap.

    ``validator`` is an optional :class:`~repro.guard.StreamValidator`
    applied to the parsed packets before stream construction (required
    for repair/reorder policies — a disordered trace never survives
    :class:`~repro.model.stream.PacketStream` construction otherwise).
    """
    from .traffic import pcap, trace_io

    suffix = Path(path).suffix.lower()
    if suffix == ".csv":
        return trace_io.read_csv(path, validator=validator)
    if suffix == ".ert":
        return trace_io.read_binary(path, validator=validator)
    if suffix in (".pcap", ".cap"):
        stream, _ = pcap.read_pcap(path, by_host_pair=by_host_pair)
        if validator is not None:
            return validator.validate(list(stream))
        return stream
    raise SystemExit(
        f"unsupported trace extension {suffix!r}; expected .csv, .ert or .pcap"
    )


def run_detect(args: argparse.Namespace) -> int:
    """The ``detect`` command: engineer a config and process a trace."""
    missing = [
        flag
        for flag, value in (
            ("--trace", args.trace),
            ("--rho", args.rho),
            ("--gamma-l", args.gamma_l),
            ("--gamma-h", args.gamma_h),
        )
        if value is None
    ]
    if missing:
        raise SystemExit(f"detect requires {', '.join(missing)}")
    from .guard import InvariantViolation, StreamViolationError

    validator = _guard_validator(args)
    try:
        stream = load_trace(
            args.trace, by_host_pair=args.host_pair, validator=validator
        )
    except StreamViolationError as error:
        raise SystemExit(
            f"trace rejected by ingest validation: {error} "
            "(use --validate repair/reorder to continue on a repaired "
            "stream)"
        )
    config = engineer(
        rho=args.rho,
        gamma_l=args.gamma_l,
        beta_l=args.beta_l,
        gamma_h=args.gamma_h,
        t_upincb_seconds=args.t_upincb,
    )
    print(config.describe())
    stats = stream.stats()
    print(
        f"trace: {stats.packet_count} packets, {stats.flow_count} flows, "
        f"{stats.total_bytes} bytes over {stats.duration_ns / NS_PER_S:.3f}s"
    )
    if validator is not None:
        _print_validation_summary(validator.stats)
    detector = EARDet(config)
    if args.invariant_every is not None:
        from .guard import InvariantChecker

        detector.attach_checker(InvariantChecker(every=args.invariant_every))
    try:
        detector.observe_stream(stream)
    except InvariantViolation as error:
        raise SystemExit(
            f"invariant violation ({error.check}): {error}\n"
            f"forensics: {error.forensics}"
        )
    table = Table(
        title=f"Large flows detected in {args.trace}",
        headers=["flow", "detected at (s)"],
    )
    for fid, time_ns in sorted(
        detector.detected.items(), key=lambda item: item[1]
    ):
        table.add_row(str(fid), round(time_ns / NS_PER_S, 6))
    if not detector.detected:
        table.add_note("no flow violated the high-bandwidth threshold")
    print(table.render())
    return 0


def run_detectors(args: argparse.Namespace) -> int:
    """The ``detectors`` command: enumerate every detection scheme the
    library ships with its parameters and exactness class."""
    from .detectors import DETECTOR_CATALOG, render_catalog

    try:
        if args.json:
            import json

            payload = {
                name: {
                    "class": f"{entry.module}.{entry.cls_name}",
                    "exactness": entry.exactness,
                    "summary": entry.summary,
                    "parameters": entry.parameters(),
                    "checkpointable": entry.checkpointable,
                }
                for name, entry in sorted(DETECTOR_CATALOG.items())
            }
            print(json.dumps(payload, indent=2))
        else:
            print(render_catalog(verbose=True))
    except BrokenPipeError:
        # Downstream pager/`head` closed early; exit quietly.
        sys.stderr.close()
    return 0


def run_analyze(args: argparse.Namespace) -> int:
    """The ``analyze`` command: per-flow statistics of a trace, plus the
    ground-truth class breakdown when thresholds are given."""
    from .analysis.flowstats import analyze_stream, summarize, top_talkers
    from .analysis.groundtruth import label_stream
    from .model.thresholds import ThresholdFunction
    from .model.units import bytes_to_human, rate_to_human

    if args.trace is None:
        raise SystemExit("analyze requires --trace")
    from .guard import StreamViolationError

    validator = _guard_validator(args)
    try:
        stream = load_trace(
            args.trace, by_host_pair=args.host_pair, validator=validator
        )
    except StreamViolationError as error:
        raise SystemExit(f"trace rejected by ingest validation: {error}")
    if validator is not None:
        _print_validation_summary(validator.stats)
    window_ns = max(1, round(args.window_ms * 1_000_000))
    stats = analyze_stream(stream, window_ns=window_ns)
    labels = None
    if args.gamma_h and args.gamma_l:
        config = engineer(
            rho=args.rho,
            gamma_l=args.gamma_l,
            beta_l=args.beta_l,
            gamma_h=args.gamma_h,
            t_upincb_seconds=args.t_upincb,
        )
        labels = label_stream(
            stream,
            high=ThresholdFunction(gamma=args.gamma_h, beta=config.beta_h),
            low=ThresholdFunction(gamma=args.gamma_l, beta=args.beta_l),
        )
    summary = summarize(stats, window_ns, labels=labels)
    overview = Table(title=f"Trace overview: {args.trace}", headers=["metric", "value"])
    for key, value in summary.items():
        if key.endswith("bytes"):
            value = bytes_to_human(value)
        elif key.endswith("bps"):
            value = rate_to_human(value)
        overview.add_row(key.replace("_", " "), value)
    print(overview.render())
    print()
    talkers = Table(
        title=f"Top {args.top} talkers (peak over {args.window_ms:g} ms windows)",
        headers=["flow", "bytes", "packets", "avg rate", "peak rate", "burstiness"],
    )
    for flow in top_talkers(stats, count=args.top):
        talkers.add_row(
            str(flow.fid),
            bytes_to_human(flow.bytes),
            flow.packets,
            rate_to_human(flow.average_rate_bps),
            rate_to_human(flow.peak_rate_bps(window_ns)),
            round(flow.burstiness(window_ns), 2),
        )
    print(talkers.render())
    return 0


def _serve_config(args: argparse.Namespace):
    missing = [
        flag
        for flag, value in (
            ("--rho", args.rho),
            ("--gamma-l", args.gamma_l),
            ("--gamma-h", args.gamma_h),
        )
        if value is None
    ]
    if missing:
        raise SystemExit(f"serve requires {', '.join(missing)}")
    return engineer(
        rho=args.rho,
        gamma_l=args.gamma_l,
        beta_l=args.beta_l,
        gamma_h=args.gamma_h,
        t_upincb_seconds=args.t_upincb,
    )


def run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: the sharded streaming runtime over a trace
    source, with optional periodic checkpoints, crash recovery, fault
    injection (``--fault-plan``) and supervised restart (``--supervise``)."""
    from .service import (
        DetectionService,
        FaultPlan,
        FaultySource,
        RestartPolicy,
        RetryingSource,
        Supervisor,
        TraceFileSource,
    )
    from .guard import InvariantViolation, StreamViolationError
    from .model.stream import StreamOrderError

    if args.trace is None:
        raise SystemExit("serve requires --trace")
    # Validation happens inside the trace readers, before PacketStream
    # construction — the only point where a repair/reorder policy can fix
    # a disordered trace (the stream type rejects disorder outright).
    source = TraceFileSource(
        args.trace,
        by_host_pair=args.host_pair,
        validator=_guard_validator(args),
    )
    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except ValueError as error:
            raise SystemExit(f"bad --fault-plan: {error}")
        if fault_plan.source_faults:
            source = FaultySource(source, fault_plan)
        if not args.json:
            print(f"fault plan armed: {fault_plan.describe()}")
    if args.retry_source:
        source = RetryingSource(source, max_retries=args.retry_source)

    telemetry, metrics_server = _serve_telemetry(args)
    overload = _overload_policy(args)
    watcher = _watcher_policy(args)
    coordinator = _coordinator_policy(args)
    controller = _control_policy(args)
    if controller is not None and telemetry is None:
        raise SystemExit(
            "--control needs telemetry to scrape; add --metrics-port "
            "or --metrics-out"
        )
    if args.slots is not None and args.slots < args.shards:
        raise SystemExit(
            f"--slots must be >= --shards, got {args.slots} slots for "
            f"{args.shards} shards"
        )
    engine_options = _engine_options(args)
    forensics = _forensics_lab(args)
    if forensics is not None and not args.json:
        print(f"forensics: incident log at {forensics.store.path}")
    # The options every entry point takes; fresh services (a supervisor's
    # too) add the keywords a resume reads from the checkpoint.
    options = dict(
        checkpoint_every=args.checkpoint_every,
        batch_size=args.batch_size,
        queue_capacity=args.queue_capacity,
        overflow=args.overflow,
        fault_plan=fault_plan,
        invariant_every=args.invariant_every,
        telemetry=telemetry,
        overload=overload,
        watcher=watcher,
        coordinator=coordinator,
        engine_options=engine_options,
        forensics=forensics,
        controller=controller,
    )
    fresh = dict(
        shards=args.shards,
        engine=args.engine or "inprocess",
        seed=args.seed or 0,
        checkpoint_path=args.checkpoint,
        slots=args.slots,
    )

    if args.supervise:
        if args.resume:
            raise SystemExit(
                "--supervise already recovers from --checkpoint; "
                "drop --resume"
            )
        from .service import RestartBudgetExceededError

        config = _serve_config(args)
        supervisor = Supervisor(
            config,
            policy=RestartPolicy(max_restarts=args.max_restarts),
            heartbeat_timeout_s=args.heartbeat_timeout,
            **fresh,
            **options,
        )
        if not args.json:
            print(config.describe())
        handlers = _install_drain_handlers(supervisor.request_drain)
        try:
            report = supervisor.run(source, max_packets=args.max_packets)
        except RestartBudgetExceededError as error:
            raise SystemExit(f"supervision failed: {error}")
        except (InvariantViolation, StreamViolationError) as error:
            raise SystemExit(f"serve aborted: {error}")
        except StreamOrderError as error:
            raise SystemExit(
                f"serve aborted: {error} "
                "(disordered trace — use --validate reorder to repair it)"
            )
        finally:
            _restore_drain_handlers(handlers)
            supervisor.shutdown(drain=supervisor.drain_requested)
            _finish_telemetry(args, telemetry, metrics_server)
            if forensics is not None:
                forensics.close()
        return _emit_report(args, report)

    if args.resume:
        if args.checkpoint is None:
            raise SystemExit("serve --resume requires --checkpoint")
        from .service import CheckpointError

        try:
            service = DetectionService.resume(
                args.checkpoint, engine=args.engine, **options
            )
        except (CheckpointError, FileNotFoundError) as error:
            raise SystemExit(f"cannot resume from {args.checkpoint}: {error}")
        print(
            f"resuming from {args.checkpoint} at packet {service.ingested} "
            f"({service.shards} shards, {service.engine_kind})"
        )
    else:
        service = DetectionService(_serve_config(args), **fresh, **options)
    if not args.json:
        print(service.config.describe())
    handlers = _install_drain_handlers(service.request_drain)
    try:
        report = service.serve(source, max_packets=args.max_packets)
    except (InvariantViolation, StreamViolationError) as error:
        raise SystemExit(f"serve aborted: {error}")
    except StreamOrderError as error:
        raise SystemExit(
            f"serve aborted: {error} "
            "(disordered trace — use --validate reorder to repair it)"
        )
    finally:
        _restore_drain_handlers(handlers)
        service.shutdown(drain=service.drain_requested)
        _finish_telemetry(args, telemetry, metrics_server)
        if forensics is not None:
            forensics.close()
    return _emit_report(args, report)


def _engine_options(args: argparse.Namespace):
    """Collect engine-specific ``serve`` flags into the ``engine_options``
    dict :class:`~repro.service.DetectionService` forwards to its engine,
    validating flag/engine pairings up front."""
    options = {}
    if args.workers is not None:
        if args.engine != "remote":
            raise SystemExit("--workers requires --engine remote")
        from .service import parse_endpoints

        try:
            endpoints = parse_endpoints(args.workers)
        except ValueError as error:
            raise SystemExit(f"bad --workers: {error}")
        if len(endpoints) < args.shards:
            raise SystemExit(
                f"--workers lists {len(endpoints)} endpoints for "
                f"{args.shards} shards"
            )
        options["workers"] = endpoints
    elif args.engine == "remote":
        raise SystemExit("--engine remote requires --workers HOST:PORT,...")
    if args.terminate_grace is not None:
        if (args.engine or "inprocess") != "multiprocess":
            raise SystemExit(
                "--terminate-grace only applies to --engine multiprocess"
            )
        if args.terminate_grace <= 0:
            raise SystemExit("--terminate-grace must be positive")
        options["terminate_grace_s"] = args.terminate_grace
    return options or None


def run_worker_cmd(args: argparse.Namespace) -> int:
    """The ``worker`` command: one blocking remote shard server.

    Exit codes mirror the multiprocess worker's: 0 (clean stop),
    75 (graceful drain), 76 (permanent transport/configuration
    disagreement), 86 (invariant violation) — see
    ``docs/FAULT_TOLERANCE.md``.
    """
    if args.listen is None:
        raise SystemExit("worker requires --listen HOST:PORT")
    from .service import run_worker

    try:
        return run_worker(args.listen)
    except ValueError as error:
        raise SystemExit(f"bad --listen: {error}")
    except KeyboardInterrupt:
        return 0


def _serve_telemetry(args: argparse.Namespace):
    """Build the (optional) telemetry context for ``serve``.

    Returns ``(telemetry, metrics_server)`` — both ``None`` unless a
    metrics flag was given, so the default hot path stays uninstrumented.
    """
    if args.metrics_port is None and args.metrics_out is None:
        return None, None
    from .telemetry import Telemetry

    telemetry = Telemetry()
    server = None
    if args.metrics_port is not None:
        server = telemetry.serve(host=args.metrics_host, port=args.metrics_port)
        if not args.json:
            print(f"metrics: serving at {server.url}/metrics")
    return telemetry, server


def _finish_telemetry(args: argparse.Namespace, telemetry, server) -> None:
    """Stop the metrics server and honour ``--metrics-out``.

    Runs in the serve ``finally`` blocks so a crashed run still leaves a
    final scrape behind for forensics.
    """
    if telemetry is None:
        return
    if server is not None:
        server.stop()
    if args.metrics_out:
        if args.metrics_out.endswith(".json"):
            import json

            body = json.dumps(telemetry.as_dict(), indent=2) + "\n"
        else:
            body = telemetry.render_prometheus()
        with open(args.metrics_out, "w", encoding="utf-8") as handle:
            handle.write(body)
        if not args.json:
            print(f"metrics: wrote {args.metrics_out}")


def run_metrics(args: argparse.Namespace) -> int:
    """The ``metrics`` command: scrape the live endpoint of a running
    ``serve --metrics-port`` process and print it (Prometheus text by
    default, the JSON payload with ``--json``)."""
    import urllib.error
    import urllib.request

    if args.metrics_port is None:
        raise SystemExit("metrics requires --metrics-port")
    path = "/metrics.json" if args.json else "/metrics"
    url = f"http://{args.metrics_host}:{args.metrics_port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=5.0) as response:
            body = response.read().decode("utf-8")
    except (urllib.error.URLError, OSError) as error:
        raise SystemExit(f"cannot fetch {url}: {error}")
    print(body, end="" if body.endswith("\n") else "\n")
    return 0


def _emit_report(args: argparse.Namespace, report) -> int:
    if args.json:
        import json

        print(json.dumps(report.as_dict(), indent=2))
    else:
        print(report.render())
    return 0


def run_checkpoint(args: argparse.Namespace) -> int:
    """The ``checkpoint`` command; sub-action ``inspect`` renders a
    checkpoint file's metadata and per-shard state summary."""
    from .service import CheckpointError, describe_checkpoint, read_checkpoint
    from .service.checkpoint import summarize_checkpoint

    subaction = args.subaction or "inspect"
    if subaction != "inspect":
        raise SystemExit(
            f"unknown checkpoint sub-action {subaction!r}; expected 'inspect'"
        )
    if args.checkpoint is None:
        raise SystemExit("checkpoint inspect requires --checkpoint")
    try:
        payload = read_checkpoint(args.checkpoint)
    except (CheckpointError, FileNotFoundError) as error:
        raise SystemExit(f"cannot read {args.checkpoint}: {error}")
    if args.json:
        import json

        meta = dict(payload["meta"])
        summary = summarize_checkpoint(payload)
        meta["layout"] = summary["layout"]
        meta["shard_summaries"] = [
            {
                "shard": row["shard"],
                "slots": row["slots"],
                "counters": row["counters_in_use"],
                "counter_capacity": row["counter_capacity"],
                "blacklisted": row["blacklist"],
                "detections": row["detections"],
                "packets": row["packets"],
                "watcher_watchlist": row["watcher_watchlist"],
                "per_slot": row["per_slot"],
            }
            for row in summary["shards"]
        ]
        print(json.dumps(meta, indent=2, default=str))
    else:
        print(describe_checkpoint(payload))
    return 0


def _tune_watch(args: argparse.Namespace) -> int:
    """``tune --watch``: poll a live ``/metrics.json`` endpoint, print
    control samples and SLO alerts.  Advisory only — applying a retune
    needs the in-process controller (``serve --control``) or the
    checkpoint path (``tune --apply``)."""
    import json as json_module
    import time as time_module
    import urllib.error
    import urllib.request

    from .control import SLOEvaluator, SLOPolicy, sample_from_exposition

    if args.metrics_port is None:
        raise SystemExit("tune --watch requires --metrics-port")
    url = f"http://{args.metrics_host}:{args.metrics_port}/metrics.json"
    policy = (
        SLOPolicy(drop_budget=args.slo_drop_budget)
        if args.slo_drop_budget is not None
        else SLOPolicy()
    )
    evaluator = SLOEvaluator(policy)
    rounds = 0
    try:
        while args.watch_rounds is None or rounds < args.watch_rounds:
            if rounds:
                time_module.sleep(args.watch_interval)
            try:
                with urllib.request.urlopen(url, timeout=5.0) as response:
                    payload = json_module.loads(
                        response.read().decode("utf-8")
                    )
            except (urllib.error.URLError, OSError, ValueError) as error:
                raise SystemExit(f"cannot fetch {url}: {error}")
            sample = sample_from_exposition(payload)
            alerts = evaluator.evaluate(sample)
            rounds += 1
            if args.json:
                print(
                    json_module.dumps(
                        {
                            "round": rounds,
                            "sample": sample.as_dict(),
                            "alerts": [alert.as_dict() for alert in alerts],
                        }
                    )
                )
            else:
                print(
                    f"[{rounds}] packets={sample.packets} "
                    f"dropped={sample.dropped} "
                    f"evictions={sample.evictions} "
                    f"occupancy={sample.max_occupancy} "
                    f"rung={sample.worst_rung} "
                    f"exact={'yes' if sample.exact else 'NO'}"
                )
                for alert in alerts:
                    print(
                        f"    SLO {alert.severity}: {alert.rule} — "
                        f"{alert.detail}"
                    )
    except KeyboardInterrupt:
        pass
    return 0


def run_tune(args: argparse.Namespace) -> int:
    """The ``tune`` command: the manual face of the adaptive control
    plane (see docs/CONTROL.md).

    Default (propose): read ``--checkpoint``, re-run the Appendix-A
    solver at ``--tune-gamma-l`` (default: the current ``gamma_l``)
    clamped so the new counter bank holds the checkpoint's live
    occupancy, and print the resulting plan — or the typed
    infeasibility with its binding constraint (exit code 1).

    ``--apply`` executes the plan against the checkpoint through the
    same guarded five-phase protocol the closed loop uses
    (:meth:`~repro.service.runtime.DetectionService.apply_retune`) and
    rewrites the checkpoint at the new config epoch; a rolled-back
    failure leaves the file untouched.  ``--watch`` instead polls a
    live metrics endpoint (see :func:`_tune_watch`).
    """
    import json as json_module

    if args.watch:
        return _tune_watch(args)
    from .control import RetunePlan, derive_config
    from .core.config import (
        EARDetConfig,
        InfeasibleConfigError,
        config_as_dict,
    )
    from .service import CheckpointError, read_checkpoint
    from .service.checkpoint import summarize_checkpoint

    if args.checkpoint is None:
        raise SystemExit(
            "tune requires --checkpoint (or --watch with --metrics-port)"
        )
    try:
        payload = read_checkpoint(args.checkpoint)
    except (CheckpointError, FileNotFoundError) as error:
        raise SystemExit(f"cannot read {args.checkpoint}: {error}")
    meta = payload["meta"]
    if meta.get("kind") != "eardet-service":
        raise SystemExit(
            f"{args.checkpoint} is not a service checkpoint "
            f"(kind {meta.get('kind')!r})"
        )
    config = EARDetConfig(**meta["config"])
    control_meta = meta.get("control") or {}
    inputs = control_meta.get("inputs") or {}
    epoch = int(control_meta.get("epoch", 0))
    # An explicit --gamma-h takes the whole input vector from the flags;
    # otherwise both missing solver inputs come from the checkpoint's
    # recorded control metadata (written by a controller-armed serve).
    if args.gamma_h is not None:
        gamma_h, t_upincb = args.gamma_h, args.t_upincb
    elif inputs.get("gamma_h") is not None:
        gamma_h = int(inputs["gamma_h"])
        t_upincb = float(inputs.get("t_upincb_seconds", args.t_upincb))
    else:
        raise SystemExit(
            "tune requires --gamma-h: the checkpoint records no solver "
            "inputs (it was written without a controller)"
        )
    occupancy = max(
        (
            row["counters_in_use"]
            for row in summarize_checkpoint(payload)["shards"]
        ),
        default=0,
    )
    target = (
        args.tune_gamma_l if args.tune_gamma_l is not None else config.gamma_l
    )
    if not target:
        raise SystemExit(
            "tune requires --tune-gamma-l (the checkpoint's config has "
            "no protected rate to re-derive from)"
        )
    try:
        new_config = derive_config(
            rho=config.rho,
            gamma_l=target,
            beta_l=config.beta_l,
            gamma_h=gamma_h,
            t_upincb_seconds=t_upincb,
            alpha=config.alpha,
            min_counters=max(2, occupancy),
            max_counters=args.control_max_counters,
        )
    except InfeasibleConfigError as error:
        if args.json:
            print(
                json_module.dumps(
                    {"feasible": False, **error.as_dict()}, indent=2
                )
            )
        else:
            print(f"infeasible: {error}")
            print(f"  binding constraint: {error.constraint}")
        return 1
    if new_config == config:
        if args.json:
            print(
                json_module.dumps(
                    {
                        "feasible": True,
                        "changed": False,
                        "epoch": epoch,
                        "config": meta["config"],
                    },
                    indent=2,
                )
            )
        else:
            print(
                f"no retune needed: the solver re-derives the current "
                f"config at gamma_l={target} (epoch {epoch}, "
                f"n={config.n}, beta_th={config.beta_th})"
            )
        return 0
    plan = RetunePlan(
        old_config=config,
        new_config=new_config,
        reason=f"manual tune: gamma_l {config.gamma_l}->{target}",
        inputs={
            "gamma_l": target,
            "beta_l": config.beta_l,
            "gamma_h": gamma_h,
            "t_upincb_seconds": t_upincb,
            "alpha": config.alpha,
        },
    )
    if not args.apply:
        if args.json:
            print(
                json_module.dumps(
                    {
                        "feasible": True,
                        "changed": True,
                        "epoch": epoch,
                        "proposed_epoch": epoch + 1,
                        "occupancy": occupancy,
                        "old_config": meta["config"],
                        "new_config": config_as_dict(new_config),
                        "reason": plan.reason,
                    },
                    indent=2,
                )
            )
        else:
            print(f"proposal (config epoch {epoch} -> {epoch + 1}):")
            print(f"  {plan.describe()}")
            print(
                f"  occupancy clamp: n >= {max(2, occupancy)} "
                f"(checkpoint holds {occupancy} live counters)"
            )
            print("  re-run with --apply to execute the guarded retune")
        return 0

    from .service import DetectionService, FaultPlan, RetuneError

    fault_plan = None
    if args.fault_plan:
        try:
            fault_plan = FaultPlan.parse(args.fault_plan)
        except ValueError as error:
            raise SystemExit(f"bad --fault-plan: {error}")
    service = DetectionService.resume(
        args.checkpoint,
        engine=args.engine,
        fault_plan=fault_plan,
        invariant_every=args.invariant_every,
    )
    try:
        report = service.apply_retune(plan)
    except RetuneError as error:
        service.shutdown()
        if args.json:
            print(
                json_module.dumps(
                    {
                        "committed": False,
                        "rolled_back": error.rolled_back,
                        "phase": error.phase,
                        "epoch": epoch,
                        "error": str(error),
                    },
                    indent=2,
                )
            )
        else:
            print(
                f"retune rolled back at phase {error.phase!r}: {error} "
                f"(checkpoint untouched, still epoch {epoch})"
            )
        return 1
    service.checkpoint_now()
    service.shutdown()
    if args.json:
        print(
            json_module.dumps(
                {
                    "committed": True,
                    "from_epoch": report.from_epoch,
                    "to_epoch": report.to_epoch,
                    "pause_ns": report.pause_ns,
                    "config": config_as_dict(new_config),
                },
                indent=2,
            )
        )
    else:
        print(
            f"retune committed: config epoch {report.from_epoch} -> "
            f"{report.to_epoch} (pause {report.pause_ns / NS_PER_S * 1e3:.2f}ms); "
            f"checkpoint rewritten at {args.checkpoint}"
        )
    return 0


def _forensics_lab(args: argparse.Namespace):
    """Build the ``serve`` forensics lab from ``--forensics-dir``, or
    None when forensics is not armed."""
    if args.forensics_dir is None:
        if args.forensics_ring_capacity is not None:
            raise SystemExit(
                "--forensics-ring-capacity requires --forensics-dir"
            )
        return None
    from .forensics import DEFAULT_RING_CAPACITY, ForensicsLab

    return ForensicsLab(
        args.forensics_dir,
        ring_capacity=args.forensics_ring_capacity or DEFAULT_RING_CAPACITY,
    )


def _load_incident_log(args: argparse.Namespace):
    """Read and CRC-verify the incident log named by --forensics-dir."""
    from .forensics import IncidentLogCorruptError, IncidentStore

    if args.forensics_dir is None:
        raise SystemExit(
            f"{args.experiment} requires --forensics-dir (the directory "
            "a 'serve --forensics-dir' run wrote)"
        )
    path = Path(args.forensics_dir) / "incidents.jsonl"
    if not path.exists():
        raise SystemExit(f"no incident log at {path}")
    try:
        return path, IncidentStore.load(path)
    except IncidentLogCorruptError as error:
        raise SystemExit(f"incident log damaged: {error}")


def run_replay(args: argparse.Namespace) -> int:
    """The ``replay`` command: deterministically re-execute one incident
    bundle and verify the detection re-derives bit-identically.

    The positional argument is either a bundle file path or a numeric
    incident id (resolved against ``--forensics-dir``).  Exit code 0
    means the replay was exact; 1 means it diverged; a truncated or
    incomplete bundle refuses loudly with a typed error.
    """
    from .forensics import replay_bundle
    from .service import CheckpointError, ReplayIncompleteError

    target = args.subaction
    if target is None and args.incident_id is not None:
        target = str(args.incident_id)
    if target is None:
        raise SystemExit("replay requires a bundle path or incident id")
    if target.isdigit() and not Path(target).exists():
        incident_id = int(target)
        if args.forensics_dir is None:
            raise SystemExit(
                "replay by incident id requires --forensics-dir"
            )
        bundle = (
            Path(args.forensics_dir)
            / "bundles"
            / f"incident-{incident_id:06d}.bundle"
        )
        if not bundle.exists():
            raise SystemExit(f"no bundle for incident {incident_id} "
                             f"({bundle} does not exist)")
        target = str(bundle)
    try:
        result = replay_bundle(target, step=args.step)
    except ReplayIncompleteError as error:
        raise SystemExit(f"replay refused: {error}")
    except (CheckpointError, FileNotFoundError) as error:
        raise SystemExit(f"cannot replay {target}: {error}")
    if args.json:
        import json

        print(json.dumps(result.as_dict(), indent=2, default=str))
        return 0 if result.exact else 1
    verdict = "EXACT" if result.exact else "DIVERGED"
    print(f"replay: {result.incident_class} bundle {result.bundle_path}")
    print(
        f"  {verdict}: expected {result.expected}, observed "
        f"{result.observed}"
    )
    print(
        f"  replayed {result.packets_replayed} packets, re-injected "
        f"{result.skips_injected} positional losses"
    )
    if result.steps is not None:
        for step in result.steps:
            deltas = ", ".join(
                f"{fid}: {before} -> {after}"
                for fid, (before, after) in sorted(
                    step.counter_deltas.items()
                )
            )
            line = (
                f"  [{step.index:6d}] t={step.packet[0]} "
                f"size={step.packet[1]} fid={step.packet[2]} "
                f"slot={step.slot} shard={step.shard}"
            )
            if deltas:
                line += f" | {deltas}"
            for fid, time_ns in step.detections.items():
                line += f" | DETECTED {fid} at {time_ns} ns"
            print(line)
    return 0 if result.exact else 1


def run_incidents(args: argparse.Namespace) -> int:
    """The ``incidents`` command: ``list`` (default) tabulates the log,
    ``show --id N`` dumps one record, ``export`` writes JSON (or the
    static HTML timeline with ``--html``)."""
    subaction = args.subaction or "list"
    if subaction not in ("list", "show", "export"):
        raise SystemExit(
            f"unknown incidents sub-action {subaction!r}; expected "
            "'list', 'show' or 'export'"
        )
    path, records = _load_incident_log(args)

    if subaction == "show":
        if args.incident_id is None:
            raise SystemExit("incidents show requires --id")
        for record in records:
            if record.id == args.incident_id:
                import json

                print(json.dumps(record.as_dict(), indent=2, default=str))
                return 0
        raise SystemExit(
            f"no incident {args.incident_id} in {path} "
            f"({len(records)} records)"
        )

    if subaction == "export":
        if args.html:
            from .forensics import render_html

            body = render_html(records)
            out = args.out or str(Path(path).parent / "incidents.html")
        else:
            import json

            body = (
                json.dumps(
                    [record.as_dict() for record in records], indent=2,
                    default=str,
                )
                + "\n"
            )
            out = args.out
        if out is None:
            print(body, end="")
            return 0
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(body)
        print(f"wrote {len(records)} incidents to {out}")
        return 0

    if args.json:
        import json

        print(
            json.dumps(
                [record.as_dict() for record in records], indent=2,
                default=str,
            )
        )
        return 0
    table = Table(
        title=f"Incident log: {path} ({len(records)} records)",
        headers=["id", "class", "severity", "packet", "shard", "message"],
    )
    for record in records:
        table.add_row(
            record.id,
            record.incident_class,
            record.severity,
            "" if record.packet_index is None else record.packet_index,
            "" if record.shard is None else record.shard,
            record.message,
        )
    bundles = sum(1 for record in records if record.bundle)
    table.add_note(
        f"{bundles} incident(s) carry replay bundles; "
        "re-execute one with: eardet replay <id> --forensics-dir "
        f"{Path(path).parent}"
    )
    try:
        print(table.render())
    except BrokenPipeError:
        # `eardet incidents list | head` closing the pipe early is not
        # an error worth a traceback.
        pass
    return 0


def run_simulate(args: argparse.Namespace) -> int:
    """The ``simulate`` command: the Shrew-vs-TCP mitigation pipeline with
    CLI-tunable parameters (see repro.simulation)."""
    from .model.units import milliseconds, rate_to_human, seconds
    from .simulation import (
        AimdSource,
        ConstantBitRateSource,
        ShrewSource,
        simulate,
    )

    rho = args.bottleneck
    access_rate = 10 * rho
    sources = [
        AimdSource(fid=f"victim-{index}", max_cwnd=30)
        for index in range(args.victims)
    ] + [
        ConstantBitRateSource(fid="background", rate=max(1, rho // 20)),
        ShrewSource(
            fid="attacker",
            burst_bytes=args.burst_kb * 1_000,
            period_ns=milliseconds(args.period_ms),
            link_rate=access_rate,
        ),
    ]
    detector = None
    if not args.no_policer:
        config = engineer(
            rho=13 * rho,  # the ingress aggregate the policer watches
            gamma_l=max(1, round(0.175 * rho)),
            beta_l=20_000,
            gamma_h=max(2, round(0.4 * rho)),
            t_upincb_seconds=1.0,
        )
        detector = EARDet(config)
        print(f"policer: {config.describe().splitlines()[0]}")
    result = simulate(
        sources,
        rho=rho,
        buffer_bytes=max(10_000, rho // 60),
        duration_ns=seconds(args.duration_s),
        slot_ns=milliseconds(100),
        detector=detector,
    )
    table = Table(
        title=(
            f"Mitigation simulation: {args.victims} victims vs "
            f"{args.burst_kb} KB bursts every {args.period_ms} ms"
        ),
        headers=["flow", "offered", "delivered", "policed", "goodput"],
    )
    for fid, outcome in result.flows.items():
        table.add_row(
            str(fid),
            outcome.offered_bytes,
            outcome.delivered_bytes,
            outcome.policed_bytes,
            rate_to_human(result.goodput_bps(fid)),
        )
    if detector is not None:
        table.add_note(
            "cut off: "
            + (", ".join(map(str, result.detected_flows())) or "nobody")
        )
    print(table.render())
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.experiment == "list":
        # Stable machine-parseable contract: one experiment name per line,
        # names match [a-z0-9-]+, nothing else on stdout, exit code 0.
        try:
            for name in EXPERIMENTS:
                print(name)
        except BrokenPipeError:
            # Downstream `head` closed early; exit quietly.
            sys.stderr.close()
        return 0
    if args.experiment == "detect":
        return run_detect(args)
    if args.experiment == "detectors":
        return run_detectors(args)
    if args.experiment == "analyze":
        return run_analyze(args)
    if args.experiment == "simulate":
        return run_simulate(args)
    if args.experiment == "serve":
        return run_serve(args)
    if args.experiment == "worker":
        return run_worker_cmd(args)
    if args.experiment == "checkpoint":
        return run_checkpoint(args)
    if args.experiment == "metrics":
        return run_metrics(args)
    if args.experiment == "replay":
        return run_replay(args)
    if args.experiment == "incidents":
        return run_incidents(args)
    if args.experiment == "tune":
        return run_tune(args)
    params = resolve_params(args)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        if args.json:
            import json

            from .experiments.report import to_dict

            payload = {
                name: [to_dict(item) for item in EXPERIMENTS[name](params)]
                for name in names
            }
            print(json.dumps(payload, indent=2))
        else:
            from .experiments.charts import render_chart
            from .experiments.report import SeriesSet

            for name in names:
                for item in EXPERIMENTS[name](params):
                    if args.chart and isinstance(item, SeriesSet):
                        print(render_chart(item))
                    else:
                        print(item.render())
                    print()
    except BrokenPipeError:
        # Downstream pager/`head` closed early; exit quietly.
        sys.stderr.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
