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

Flags follow the verb, and each verb takes only the flags it reads:
``eardet <verb> --help`` lists them, and a flag the verb would ignore
exits 2.

(Installed as ``eardet`` via the package's console script; also runnable
as ``python -m repro.cli``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Callable, Dict, List, Optional

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

#: Reorder-buffer depth of ``--validate reorder`` without ``--reorder-window``.
REORDER_WINDOW = 64


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
    """The ``eardet`` parser: one subparser per verb.

    Every flag is declared in exactly one of the help-less parent parsers
    below, and each verb is composed from the parents whose flags its
    handler reads — so a flag given to a verb that would ignore it exits
    2 with argparse's message.  A feature group's sub-flags default to
    None: only the values actually given reach its policy (see
    :func:`_armed`).
    """

    def flags(title=None, description=None, parents=()):
        parent = argparse.ArgumentParser(add_help=False, parents=parents)
        if title is None:
            return parent, parent.add_argument
        group = parent.add_argument_group(title, description)
        return parent, group.add_argument

    json_out, add = flags()
    add("--json", action="store_true", help="print JSON instead of text")

    seed, add = flags()
    add(
        "--seed", type=int,
        help="base RNG seed override (experiments); flow-hash seed (serve; "
        "default 0)",
    )

    experiment, add = flags("experiment options", parents=[json_out, seed])
    add(
        "--preset", choices=sorted(PRESETS), default="default",
        help="parameter preset (quick/default/paper)",
    )
    add("--scale", type=float, help="trace scale override")
    add("--repetitions", type=int, help="repetitions-per-point override")
    add("--attack-flows", type=int, help="attack flows per scenario override")
    add(
        "--dataset", choices=["federico", "caida"],
        help="which synthetic dataset the trace-driven experiments use",
    )
    add(
        "--chart", action="store_true",
        help="draw figure series as ASCII charts instead of tables",
    )

    trace, add = flags("trace options")
    add("--trace", help="trace file (.csv, .ert, or .pcap)")
    add(
        "--host-pair", action="store_true",
        help="define flows by (src, dst) instead of the 5-tuple (pcap only)",
    )

    link, add = flags("detector options")
    add("--rho", type=int, help="link capacity, bytes/s")
    add("--gamma-l", type=int, help="protected rate, bytes/s")
    add("--beta-l", type=int, default=6072, help="protected burst, bytes")

    solver, add = flags("detector options")
    add("--gamma-h", type=int, help="detection rate, bytes/s")
    add(
        "--t-upincb", type=float, default=1.0,
        help="incubation-period budget, seconds",
    )

    peaks, add = flags("analyze options")
    add(
        "--window-ms", type=float, default=100.0,
        help="probe window for peak-rate statistics",
    )
    add("--top", type=int, default=10, help="top talkers to list")

    guard, add = flags(
        "guard options",
        "Ingest hardening (see docs/GUARDRAILS.md): --validate screens "
        "every trace packet before the detector sees it — 'strict' "
        "rejects the trace at the first violation, 'repair' clamps/drops "
        "offenders (voiding the exactness guarantee), 'reorder' also "
        "re-sorts late packets within --reorder-window.",
    )
    add(
        "--validate", choices=["strict", "repair", "reorder"],
        help="screen trace packets through the ingest validator",
    )
    add(
        "--reorder-window", type=int,
        help="max buffered packets when re-sorting a mildly disordered "
        f"stream (with --validate reorder; default {REORDER_WINDOW})",
    )
    add(
        "--min-packet-size", type=int,
        help="smallest acceptable packet size in bytes (with --validate; "
        "default: Ethernet minimum)",
    )
    add(
        "--max-packet-size", type=int,
        help="largest acceptable packet size in bytes (with --validate; "
        "default: Ethernet maximum)",
    )

    invariants, add = flags("guard options")
    add(
        "--invariant-every", type=int, metavar="N",
        help="assert the detector's algorithm-state invariants every N "
        "packets; violations abort with forensics",
    )

    checkpoint, add = flags()
    add("--checkpoint", help="service checkpoint file")

    faults, add = flags()
    add(
        "--fault-plan", metavar="SPEC",
        help="inject deterministic faults for chaos testing, e.g. "
        "'kill:shard=1,at=5000;drop:shard=0,at=200,count=10;"
        "source:kind=transient,at=3000;ckpt:after=2,mode=truncate;"
        "mig:phase=install,mode=fail,at=1'",
    )

    engine, add = flags("engine options")
    add(
        "--engine", choices=["inprocess", "multiprocess", "remote"],
        help="service engine: deterministic in-process, one process per "
        "shard, or one TCP shard server per shard (default inprocess, or "
        "the checkpoint's when resuming; remote requires --workers)",
    )
    add(
        "--workers", metavar="HOST:PORT,...",
        help="comma-separated shard-server endpoints for the remote engine "
        "(one per shard, in shard order; extras idle as split spares)",
    )
    add(
        "--terminate-grace", type=float, metavar="SECONDS",
        help="grace the multiprocess engine gives each worker to exit "
        "before escalating SIGTERM -> SIGKILL on abort (default 5s)",
    )

    service, add = flags("serve options")
    add("--shards", type=int, default=1, help="worker shards")
    add("--checkpoint-every", type=int, help="checkpoint interval, packets")
    add(
        "--batch-size", type=int, default=1024,
        help="packets pulled from the source per batch",
    )
    add(
        "--queue-capacity", type=int, default=4096,
        help="max pending packets per shard queue",
    )
    add(
        "--overflow", choices=["block", "drop"], default="block",
        help="full-queue policy: block (exact backpressure) or drop "
        "(lossy, counted)",
    )
    add("--max-packets", type=int, help="stop after this many packets")
    add(
        "--resume", action="store_true",
        help="restore state from --checkpoint and replay the trace from "
        "the checkpoint boundary",
    )
    add(
        "--retry-source", type=int, default=0,
        help="retry transient source failures up to this many consecutive "
        "times with exponential backoff",
    )
    add(
        "--supervise", action="store_true",
        help="run under the fault-tolerant supervisor: dead shards are "
        "restarted from the last checkpoint with bounded backoff",
    )
    add(
        "--max-restarts", type=int,
        help="supervised-restart budget (with --supervise; default 5)",
    )
    add(
        "--heartbeat-timeout", type=float,
        help="treat a shard as wedged when its heartbeat is older than "
        "this many seconds (with --supervise, multiprocess engine)",
    )

    reshard, add = flags(
        "resharding options",
        "Exact live resharding (see docs/SERVICE.md): whole slots migrate "
        "between shards at batch boundaries without perturbing "
        "detections; --coordinate arms the elastic coordinator, which "
        "splits hot shards and merges cold ones.",
    )
    add(
        "--slots", type=int, metavar="N",
        help="flow-routing slots (>= --shards; default equal to --shards, "
        "which leaves no resharding headroom)",
    )
    add(
        "--coordinate", action="store_true",
        help="arm the skew-driven elastic coordinator (needs --slots > "
        "--shards to have anything to move)",
    )
    add(
        "--skew-high", type=float, metavar="RATIO",
        help="max/mean per-shard load ratio that triggers a split once "
        "persistent (default 2.0)",
    )
    add(
        "--skew-low", type=float, metavar="RATIO",
        help="skew ratio below which a merge becomes eligible (default 1.25)",
    )
    add(
        "--reshard-persistence", type=int, metavar="WINDOWS",
        help="observation windows the skew must persist before the "
        "coordinator acts (default 3)",
    )
    add(
        "--reshard-cooldown", type=int, metavar="WINDOWS",
        help="observation windows after any migration attempt before the "
        "next proposal (default 10)",
    )
    add(
        "--max-shards", type=int, metavar="N",
        help="ceiling on coordinator-provisioned shards (default 8)",
    )

    control, add = flags(
        "adaptive control options",
        "Telemetry-driven retuning (see docs/CONTROL.md): --control "
        "re-runs the Appendix-A solver under sustained pressure or slack "
        "and commits the result at a batch boundary as a new config "
        "epoch, rolled back on any failure.",
    )
    add(
        "--control", action="store_true",
        help="arm the adaptive controller (needs --gamma-h and a telemetry "
        "flag such as --metrics-port)",
    )
    add(
        "--control-every", type=int, metavar="BATCHES",
        help="controller sampling cadence in ingested batches (default 8)",
    )
    add(
        "--control-min-window", type=int, metavar="PACKETS",
        help="smallest packet window the controller will judge; shorter "
        "windows accumulate (default 4096)",
    )
    add(
        "--control-persistence", type=int, metavar="WINDOWS",
        help="consecutive windows pressure/slack must persist before a "
        "retune is proposed (default 3)",
    )
    add(
        "--control-cooldown", type=int, metavar="WINDOWS",
        help="windows after any retune attempt before the next proposal "
        "(default 8)",
    )
    add(
        "--control-widen", type=float, metavar="FACTOR",
        help="multiplicative gamma_l step per retune (default 2.0)",
    )

    limits, add = flags("adaptive control options")
    add(
        "--control-max-counters", type=int, metavar="N",
        help="operator memory cap on the solved counter count n",
    )
    add(
        "--slo-drop-budget", type=float, metavar="FRAC",
        help="SLO error budget: tolerated dropped-packet fraction feeding "
        "the burn-rate rules (default 0.001)",
    )

    tuning, add = flags("tune options")
    add(
        "--tune-gamma-l", type=int, metavar="RATE",
        help="target protected rate (default: re-derive at the "
        "checkpoint's current gamma_l)",
    )
    add(
        "--apply", action="store_true",
        help="execute the proposed retune against the checkpoint through "
        "the guarded protocol and rewrite it at the new config epoch (a "
        "rolled-back failure leaves it untouched)",
    )
    add(
        "--watch", action="store_true",
        help="poll a live /metrics.json endpoint (--metrics-port) and "
        "print control samples plus SLO alerts each round",
    )
    add(
        "--watch-interval", type=float, default=2.0, metavar="SECONDS",
        help="seconds between --watch polls (default 2)",
    )
    add(
        "--watch-rounds", type=int, metavar="N",
        help="stop --watch after N polls (default: until interrupted)",
    )

    watcher, add = flags(
        "watcher options",
        "A probabilistic ambiguity-region watcher per shard, next to the "
        "exact EARDet shards (see docs/DETECTORS.md); its verdicts are "
        "reported apart and never merged into the exact set.",
    )
    add(
        "--watcher", choices=["clef", "loft", "none"], default="none",
        help="ambiguity-region watcher (default none)",
    )
    add(
        "--watcher-counters", type=int, metavar="M",
        help="watcher memory: RLFD branching factor (clef) or per-stage "
        "aggregates (loft)",
    )
    add("--watcher-depth", type=int, metavar="D", help="tree depth (clef)")
    add(
        "--watcher-fast-period-ms", type=float, metavar="MS",
        help="fast twin RLFD level period (clef)",
    )
    add(
        "--watcher-slow-period-ms", type=float, metavar="MS",
        help="slow twin RLFD level period (clef)",
    )
    add(
        "--watcher-epoch-ms", type=float, metavar="MS",
        help="sketch aggregation epoch (loft)",
    )
    add("--watcher-stages", type=int, metavar="D", help="sketch stages (loft)")
    add(
        "--watcher-watchlist", type=int, metavar="K",
        help="exact watchlist capacity for promoted candidates (loft)",
    )
    add(
        "--watcher-flow-limit", type=int, metavar="N",
        help="max distinct flows tracked per sketch epoch (loft)",
    )
    add(
        "--watcher-seed", type=int, metavar="SEED",
        help="watcher hash seed (salted per shard; default 0)",
    )

    overload, add = flags(
        "overload options",
        "Admission control (see docs/OVERLOAD.md): the ladder degrades "
        "each shard exact -> deferred -> aggregated -> shedding by queue "
        "occupancy, attributing every offered byte to one rung.  "
        "SIGTERM/SIGINT request a graceful drain.",
    )
    add(
        "--overload-policy", choices=["off", "ladder"], default="off",
        help="overload response: 'off' (pure backpressure) or 'ladder' "
        "(accounted degradation)",
    )
    add(
        "--high-watermark", type=float, metavar="FRAC",
        help="queue occupancy fraction that escalates one rung (default "
        "0.75)",
    )
    add(
        "--low-watermark", type=float, metavar="FRAC",
        help="queue occupancy fraction that de-escalates one rung after "
        "the cooldown (default 0.25)",
    )
    add(
        "--overload-cooldown", type=int, metavar="BATCHES",
        help="batches after a transition before a shard may de-escalate "
        "(default 4)",
    )
    add(
        "--drain-budget", type=int, metavar="PACKETS",
        help="packets each shard may process per batch (in-process "
        "engine; models worker capacity; default unbounded)",
    )
    add(
        "--aggregate-window-ms", type=float, metavar="MS",
        help="AGGREGATED rung coalescing epoch (bounds the ambiguity "
        "widening; default 10)",
    )
    add(
        "--defer-deadline-batches", type=int, metavar="N",
        help="batches a DEFERRED buffer may age before it is force-released "
        "(default 4)",
    )

    endpoint, add = flags(
        "telemetry options",
        "Live observability (see docs/OBSERVABILITY.md).  On serve, any of "
        "these flags turns the metric registry on.",
    )
    add(
        "--metrics-port", type=int, metavar="PORT",
        help="metrics endpoint port: serve binds it (0 = OS-assigned), "
        "metrics and tune --watch fetch from it",
    )
    add(
        "--metrics-host", default="127.0.0.1", metavar="HOST",
        help="bind/fetch host for the metrics endpoint (default 127.0.0.1)",
    )

    metrics_out, add = flags("telemetry options")
    add(
        "--metrics-out", metavar="PATH",
        help="after the run, dump the final metrics to this file (.json = "
        "JSON, anything else = Prometheus text)",
    )

    lab, add = flags(
        "forensics options",
        "Incident log, replay bundles and deterministic replay (see "
        "docs/FORENSICS.md).",
    )
    add(
        "--forensics-dir", metavar="DIR",
        help="forensics lab: incident log at DIR/incidents.jsonl, replay "
        "bundles under DIR/bundles (serve writes it)",
    )

    ring, add = flags("forensics options")
    add(
        "--forensics-ring-capacity", type=int, metavar="N",
        help="trace packets the capture ring retains between checkpoint "
        "baselines; a longer incident window refuses replay (with "
        "--forensics-dir; default 65536)",
    )

    incident, add = flags("forensics options")
    add(
        "--id", type=int, metavar="ID", dest="incident_id",
        help="incident id ('incidents show'; 'replay --id N' is 'replay N')",
    )

    stepped, add = flags("forensics options")
    add(
        "--step", action="store_true",
        help="also dump per-packet counter/bucket deltas (diagnostic)",
    )

    export, add = flags("forensics options")
    add(
        "--html", action="store_true",
        help="export the zero-dependency HTML timeline instead of JSON",
    )
    add(
        "--out", metavar="PATH",
        help="export output file (default stdout for JSON, incidents.html "
        "next to the log for --html)",
    )

    simulation, add = flags("simulate options")
    add("--bottleneck", type=int, default=2_000_000, help="capacity, bytes/s")
    add("--victims", type=int, default=4, help="TCP-like victims")
    add("--burst-kb", type=int, default=120, help="attacker burst size, KB")
    add("--period-ms", type=int, default=500, help="attacker burst period, ms")
    add("--duration-s", type=float, default=20.0, help="duration, seconds")
    add("--no-policer", action="store_true", help="run without the policer")

    shard_server, add = flags()
    add(
        "--listen", metavar="HOST:PORT",
        help="endpoint the shard server binds (port 0 picks an ephemeral "
        "port, printed on stdout)",
    )

    parser = argparse.ArgumentParser(
        prog="eardet",
        description=(
            "Regenerate the EARDet paper's tables and figures, run the "
            "detector over a trace file, or serve a stream with the "
            "sharded checkpointing runtime.  Flags follow the verb; "
            "'eardet VERB --help' lists that verb's flags."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {package_version()}"
    )
    verbs = parser.add_subparsers(dest="verb", metavar="VERB", required=True)

    def verb(name, handler, summary, *parents):
        sub = verbs.add_parser(
            name, help=summary, description=summary, parents=list(parents)
        )
        sub.set_defaults(handler=handler)
        return sub

    verb("list", run_list, "enumerate the experiments, one name per line")
    verb("all", run_experiments, "run every experiment", experiment)
    verb(
        "detect", run_detect, "run EARDet over a trace file",
        trace, link, solver, guard, invariants,
    )
    verb(
        "detectors", run_detectors,
        "list every detection scheme with its exactness class", json_out,
    )
    verb(
        "analyze", run_analyze,
        "per-flow statistics of a trace file, plus the ground-truth class "
        "breakdown when thresholds are given",
        trace, link, solver, peaks, guard,
    )
    verb(
        "simulate", run_simulate,
        "the closed-loop Shrew-vs-TCP mitigation pipeline", simulation,
    )
    verb(
        "serve", run_serve, "the sharded streaming service over a trace",
        trace, link, solver, service, checkpoint, faults, seed, engine,
        guard, invariants, reshard, control, limits, watcher, overload,
        endpoint, metrics_out, lab, ring, json_out,
    )
    verb(
        "worker", run_worker_cmd,
        "one remote shard server for 'serve --engine remote'", shard_server,
    )
    verb(
        "checkpoint", run_checkpoint, "checkpoint tooling",
        checkpoint, json_out,
    ).add_argument(
        "action", nargs="?", choices=["inspect"], default="inspect",
        help="render the checkpoint's metadata and per-shard state (the "
        "only sub-action, and the default)",
    )
    verb(
        "metrics", run_metrics, "fetch a running service's metrics endpoint",
        endpoint, json_out,
    )
    verb(
        "replay", run_replay,
        "re-execute an incident bundle deterministically",
        lab, incident, stepped, json_out,
    ).add_argument(
        "target", nargs="?",
        help="bundle file path, or incident id resolved against "
        "--forensics-dir",
    )
    verb(
        "incidents", run_incidents, "list/show/export the incident log",
        lab, incident, export, json_out,
    ).add_argument(
        "action", nargs="?", choices=["list", "show", "export"],
        default="list",
        help="list the log (default), show one record (--id) or export it",
    )
    verb(
        "tune", run_tune,
        "propose a retune from a checkpoint, --apply it through the "
        "guarded protocol, or --watch a live service's SLO burn rate "
        "(see docs/CONTROL.md)",
        checkpoint, solver, limits, tuning, engine, faults, invariants,
        endpoint, json_out,
    )
    for name in EXPERIMENTS:
        verb(name, run_experiments, f"regenerate {name}", experiment)
    return parser


def _print_json(value) -> None:
    """Print ``value`` as indented JSON (anything JSON cannot encode as
    its ``str``)."""
    print(json.dumps(value, indent=2, default=str))


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


def _ns(ms: Optional[float]) -> Optional[int]:
    """Milliseconds as whole nanoseconds (at least 1); None stays None."""
    return None if ms is None else max(1, round(ms * 1_000_000))


def _armed(armed: bool, arming: str, *options) -> Optional[Dict[str, object]]:
    """The one rule of a feature group: its sub-flags mean something only
    once its arming flag is given.

    ``options`` are ``(flag, field, value)`` triples, ``value`` None when
    the flag was not given.  Armed, the group yields the given values
    keyed by ``field``, so every field left out keeps its policy default;
    unarmed, it yields None — and a sub-flag given anyway is refused with
    a message naming ``arming``.
    """
    given = [option for option in options if option[2] is not None]
    if armed:
        return {field: value for _flag, field, value in given}
    if given:
        raise SystemExit(f"{given[0][0]} requires {arming}")
    return None


def _build(what: str, make, *args, **fields):
    """``make(*args, **fields)``, a ValueError refused as one
    ``bad <what> options`` line."""
    try:
        return make(*args, **fields)
    except ValueError as error:
        raise SystemExit(f"bad {what} options: {error}")


def _guard_policy(args: argparse.Namespace):
    """Build the ingest-validation policy from the guard options, or None
    when --validate was not given."""
    given = _armed(
        args.validate is not None, "--validate",
        ("--reorder-window", "window", args.reorder_window),
        ("--min-packet-size", "min_size", args.min_packet_size),
        ("--max-packet-size", "max_size", args.max_packet_size),
    )
    if given is None:
        return None
    from .guard import GuardPolicy

    window = given.pop("window", REORDER_WINDOW)
    if args.validate == "strict":
        return _build("guard", GuardPolicy.strict, **given)
    if args.validate == "repair":
        return _build("guard", GuardPolicy.repair, **given)
    if window < 1:
        raise SystemExit(f"--reorder-window must be >= 1, got {window}")
    return _build("guard", GuardPolicy.reordering, window, **given)


def _overload_policy(args: argparse.Namespace):
    """Build the :class:`~repro.service.OverloadPolicy` from the overload
    options, or None when ``--overload-policy off`` (the default)."""
    given = _armed(
        args.overload_policy == "ladder", "--overload-policy ladder",
        ("--high-watermark", "high_watermark", args.high_watermark),
        ("--low-watermark", "low_watermark", args.low_watermark),
        ("--overload-cooldown", "cooldown", args.overload_cooldown),
        ("--drain-budget", "drain_budget", args.drain_budget),
        (
            "--aggregate-window-ms", "aggregate_window_ns",
            _ns(args.aggregate_window_ms),
        ),
        (
            "--defer-deadline-batches", "defer_deadline_batches",
            args.defer_deadline_batches,
        ),
    )
    if given is None:
        return None
    from .service import OverloadPolicy

    return _build("overload", OverloadPolicy, **given)


def _watcher_policy(args: argparse.Namespace):
    """Build the :class:`~repro.service.WatcherPolicy` from the watcher
    options, or None when ``--watcher none`` (the default)."""
    given = _armed(
        args.watcher != "none", "--watcher clef|loft",
        ("--watcher-counters", "counters", args.watcher_counters),
        ("--watcher-depth", "depth", args.watcher_depth),
        (
            "--watcher-fast-period-ms", "fast_period_ns",
            _ns(args.watcher_fast_period_ms),
        ),
        (
            "--watcher-slow-period-ms", "slow_period_ns",
            _ns(args.watcher_slow_period_ms),
        ),
        ("--watcher-epoch-ms", "epoch_ns", _ns(args.watcher_epoch_ms)),
        ("--watcher-stages", "stages", args.watcher_stages),
        ("--watcher-watchlist", "watchlist", args.watcher_watchlist),
        ("--watcher-flow-limit", "flow_limit", args.watcher_flow_limit),
        ("--watcher-seed", "seed", args.watcher_seed),
    )
    if given is None:
        return None
    from .service import WatcherPolicy

    return _build("watcher", WatcherPolicy, kind=args.watcher, **given)


def _coordinator_policy(args: argparse.Namespace):
    """Build the :class:`~repro.service.CoordinatorPolicy` from the
    resharding options, or None when ``--coordinate`` was not given."""
    given = _armed(
        args.coordinate, "--coordinate",
        ("--skew-high", "skew_high", args.skew_high),
        ("--skew-low", "skew_low", args.skew_low),
        ("--reshard-persistence", "persistence", args.reshard_persistence),
        ("--reshard-cooldown", "cooldown", args.reshard_cooldown),
        ("--max-shards", "max_shards", args.max_shards),
    )
    if given is None:
        return None
    from .service import CoordinatorPolicy

    return _build("resharding", CoordinatorPolicy, **given)


def _control_policy(args: argparse.Namespace):
    """Build the adaptive controller from the control options, or None
    when ``--control`` was not given.

    Returns a :class:`~repro.control.ControlPolicy` (the service
    promotes it to a controller), or a pre-built
    :class:`~repro.control.Controller` when an SLO override needs a
    custom evaluator."""
    given = _armed(
        args.control, "--control",
        ("--control-every", "every_batches", args.control_every),
        (
            "--control-min-window", "min_window_packets",
            args.control_min_window,
        ),
        ("--control-persistence", "persistence", args.control_persistence),
        ("--control-cooldown", "cooldown", args.control_cooldown),
        ("--control-widen", "widen_factor", args.control_widen),
        ("--control-max-counters", "max_counters", args.control_max_counters),
        ("--slo-drop-budget", "drop_budget", args.slo_drop_budget),
    )
    if given is None:
        return None
    if args.gamma_h is None:
        raise SystemExit(
            "--control requires --gamma-h (the Appendix-A solver's "
            "detection-rate input, which the running config does not "
            "record)"
        )
    from .control import Controller, ControlPolicy, SLOEvaluator, SLOPolicy

    drop_budget = given.pop("drop_budget", None)
    policy = _build(
        "control", ControlPolicy,
        gamma_h=args.gamma_h, t_upincb_seconds=args.t_upincb, **given,
    )
    if drop_budget is None:
        return policy
    slo = _build("control", SLOPolicy, drop_budget=drop_budget)
    return Controller(policy, slo=SLOEvaluator(slo))


def _supervision(args: argparse.Namespace):
    """The :class:`~repro.service.Supervisor` keywords from
    ``--supervise`` and its sub-flags, or None when not supervised."""
    given = _armed(
        args.supervise, "--supervise",
        ("--max-restarts", "max_restarts", args.max_restarts),
        ("--heartbeat-timeout", "heartbeat_timeout_s", args.heartbeat_timeout),
    )
    if given is None:
        return None
    from .service import RestartPolicy

    heartbeat = given.pop("heartbeat_timeout_s", None)
    return dict(policy=RestartPolicy(**given), heartbeat_timeout_s=heartbeat)


def _forensics_lab(args: argparse.Namespace):
    """Build the ``serve`` forensics lab from ``--forensics-dir``, or
    None when forensics is not armed."""
    given = _armed(
        args.forensics_dir is not None, "--forensics-dir",
        (
            "--forensics-ring-capacity", "ring_capacity",
            args.forensics_ring_capacity,
        ),
    )
    if given is None:
        return None
    from .forensics import ForensicsLab

    return _build("forensics", ForensicsLab, args.forensics_dir, **given)


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


#: How ``serve``, ``detect`` and ``analyze`` refuse a time-disordered
#: trace read without a reorder policy.
DISORDER_HINT = "(disordered trace — use --validate reorder to repair it)"


def load_trace(path: str, by_host_pair: bool = False, validator=None):
    """Load a trace by extension: .csv, .ert (binary), or .pcap.

    ``validator`` is an optional :class:`~repro.guard.StreamValidator`
    applied to the parsed packets before stream construction (required
    for repair/reorder policies — a disordered trace never survives
    :class:`~repro.model.stream.PacketStream` construction otherwise, and
    exits 1 here with :data:`DISORDER_HINT`).
    """
    from .model.stream import StreamOrderError
    from .traffic import pcap, trace_io

    suffix = Path(path).suffix.lower()
    try:
        if suffix == ".csv":
            return trace_io.read_csv(path, validator=validator)
        if suffix == ".ert":
            return trace_io.read_binary(path, validator=validator)
        if suffix in (".pcap", ".cap"):
            stream, _ = pcap.read_pcap(path, by_host_pair=by_host_pair)
            if validator is not None:
                return validator.validate(list(stream))
            return stream
    except StreamOrderError as error:
        raise SystemExit(f"trace rejected: {error} {DISORDER_HINT}")
    raise SystemExit(
        f"unsupported trace extension {suffix!r}; expected .csv, .ert or .pcap"
    )


def run_list(args: argparse.Namespace) -> int:
    """The ``list`` command — a stable machine-parseable contract: one
    experiment name per line, names match [a-z0-9-]+, nothing else on
    stdout, exit code 0."""
    try:
        for name in EXPERIMENTS:
            print(name)
    except BrokenPipeError:
        # Downstream `head` closed early; exit quietly.
        sys.stderr.close()
    return 0


def run_experiments(args: argparse.Namespace) -> int:
    """``all`` and the experiment verbs: regenerate tables and figures."""
    params = resolve_params(args)
    names = list(EXPERIMENTS) if args.verb == "all" else [args.verb]
    try:
        if args.json:
            from .experiments.report import to_dict

            _print_json({
                name: [to_dict(item) for item in EXPERIMENTS[name](params)]
                for name in names
            })
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


def run_detect(args: argparse.Namespace) -> int:
    """The ``detect`` command: engineer a config and process a trace."""
    _require("detect", args, ("--trace", args.trace))
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
    config = _config(args)
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
            _print_json({
                name: {
                    "class": f"{entry.module}.{entry.cls_name}",
                    "exactness": entry.exactness,
                    "summary": entry.summary,
                    "parameters": entry.parameters(),
                    "checkpointable": entry.checkpointable,
                }
                for name, entry in sorted(DETECTOR_CATALOG.items())
            })
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
    window_ns = _ns(args.window_ms)
    stats = analyze_stream(stream, window_ns=window_ns)
    labels = None
    if args.gamma_h and args.gamma_l:
        config = _config(args)
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


def _require(verb: str, args: argparse.Namespace, *required) -> None:
    """Refuse a missing ``--rho``, ``--gamma-l`` or ``--gamma-h`` — or any
    other ``(flag, value)`` pair in ``required`` — as one ``<verb>
    requires ...`` line."""
    missing = [
        flag
        for flag, value in (
            *required,
            ("--rho", args.rho),
            ("--gamma-l", args.gamma_l),
            ("--gamma-h", args.gamma_h),
        )
        if value is None
    ]
    if missing:
        raise SystemExit(f"{verb} requires {', '.join(missing)}")


def _config(args: argparse.Namespace):
    """The detector config the threshold flags engineer."""
    return engineer(
        rho=args.rho,
        gamma_l=args.gamma_l,
        beta_l=args.beta_l,
        gamma_h=args.gamma_h,
        t_upincb_seconds=args.t_upincb,
    )


def _fault_plan(args: argparse.Namespace):
    """The parsed ``--fault-plan``, or None when none was given."""
    if not args.fault_plan:
        return None
    from .service import FaultPlan

    try:
        return FaultPlan.parse(args.fault_plan)
    except ValueError as error:
        raise SystemExit(f"bad --fault-plan: {error}")


def _read_checkpoint(path: str, failure: str = "cannot read"):
    """The checkpoint at ``path``, or one ``<failure> <path>: ...`` line."""
    from .service import CheckpointError, read_checkpoint

    try:
        return read_checkpoint(path)
    except (CheckpointError, FileNotFoundError) as error:
        raise SystemExit(f"{failure} {path}: {error}")


def _resume(args: argparse.Namespace, **options):
    """Resume the service in ``--checkpoint`` on ``--engine`` (default:
    the engine it records), refusing a bad checkpoint in one line."""
    from .service import DetectionService

    try:
        return DetectionService.resume(
            args.checkpoint, engine=args.engine, **options
        )
    except (ValueError, FileNotFoundError) as error:
        raise SystemExit(f"cannot resume from {args.checkpoint}: {error}")


def run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` command: the sharded streaming runtime over a trace
    source, with optional periodic checkpoints, crash recovery, fault
    injection (``--fault-plan``) and supervised restart (``--supervise``)."""
    from .service import (
        DetectionService,
        FaultySource,
        RestartBudgetExceededError,
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
    fault_plan = _fault_plan(args)
    if fault_plan is not None:
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
    supervision = _supervision(args)
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
    if supervision is not None and args.resume:
        raise SystemExit(
            "--supervise already recovers from --checkpoint; drop --resume"
        )
    # Engine flags are checked against the engine that will run: a
    # resume's engine and shard count are the checkpoint's unless
    # --engine overrides the engine.
    engine, shards = args.engine or "inprocess", args.shards
    if args.resume:
        if args.checkpoint is None:
            raise SystemExit("serve --resume requires --checkpoint")
        meta = _read_checkpoint(args.checkpoint, "cannot resume from")["meta"]
        engine = args.engine or meta.get("engine")
        shards = meta.get("shards", shards)
    engine_options = _engine_options(args, engine, shards)
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
        engine=engine,
        seed=args.seed or 0,
        checkpoint_path=args.checkpoint,
        slots=args.slots,
    )

    if args.resume:
        runner = _resume(args, **options)
        print(
            f"resuming from {args.checkpoint} at packet {runner.ingested} "
            f"({runner.shards} shards, {runner.engine_kind})"
        )
        config, run = runner.config, runner.serve
    else:
        _require("serve", args)
        config = _config(args)
        if supervision is None:
            runner = DetectionService(config, **fresh, **options)
            run = runner.serve
        else:
            runner = Supervisor(config, **supervision, **fresh, **options)
            run = runner.run
    if not args.json:
        print(config.describe())
    handlers = _install_drain_handlers(runner.request_drain)
    try:
        report = run(source, max_packets=args.max_packets)
    except RestartBudgetExceededError as error:
        raise SystemExit(f"supervision failed: {error}")
    except (InvariantViolation, StreamViolationError) as error:
        raise SystemExit(f"serve aborted: {error}")
    except StreamOrderError as error:
        raise SystemExit(f"serve aborted: {error} {DISORDER_HINT}")
    finally:
        _restore_drain_handlers(handlers)
        runner.shutdown(drain=runner.drain_requested)
        _finish_telemetry(args, telemetry, metrics_server)
        if forensics is not None:
            forensics.close()
    return _emit_report(args, report)


def _engine_options(args: argparse.Namespace, engine, shards: int):
    """Collect the engine flags into the ``engine_options`` dict
    :class:`~repro.service.DetectionService` forwards to its engine,
    validated against the engine that will actually run: ``engine`` and
    ``shards`` are the effective ones, a resume's from its checkpoint."""
    options = {}
    if args.workers is not None:
        if engine != "remote":
            raise SystemExit("--workers requires --engine remote")
        from .service import parse_endpoints

        try:
            endpoints = parse_endpoints(args.workers)
        except ValueError as error:
            raise SystemExit(f"bad --workers: {error}")
        if len(endpoints) < shards:
            raise SystemExit(
                f"--workers lists {len(endpoints)} endpoints for "
                f"{shards} shards"
            )
        options["workers"] = endpoints
    elif engine == "remote":
        origin = "--engine remote"
        if args.engine is None:
            origin = "a remote-engine checkpoint"
        raise SystemExit(f"{origin} requires --workers HOST:PORT,...")
    if args.terminate_grace is not None:
        if engine != "multiprocess":
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

    Runs in the serve ``finally`` block so a crashed run still leaves a
    final scrape behind for forensics.
    """
    if telemetry is None:
        return
    if server is not None:
        server.stop()
    if args.metrics_out:
        if args.metrics_out.endswith(".json"):
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
        _print_json(report.as_dict())
    else:
        print(report.render())
    return 0


def run_checkpoint(args: argparse.Namespace) -> int:
    """The ``checkpoint`` command; its one sub-action, ``inspect``,
    renders a checkpoint file's metadata and per-shard state summary."""
    from .service import describe_checkpoint
    from .service.checkpoint import summarize_checkpoint

    if args.checkpoint is None:
        raise SystemExit("checkpoint inspect requires --checkpoint")
    payload = _read_checkpoint(args.checkpoint)
    if args.json:
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
        _print_json(meta)
    else:
        print(describe_checkpoint(payload))
    return 0


def _tune_watch(args: argparse.Namespace) -> int:
    """``tune --watch``: poll a live ``/metrics.json`` endpoint, print
    control samples and SLO alerts.  Advisory only — applying a retune
    needs the in-process controller (``serve --control``) or the
    checkpoint path (``tune --apply``)."""
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
                    payload = json.loads(
                        response.read().decode("utf-8")
                    )
            except (urllib.error.URLError, OSError, ValueError) as error:
                raise SystemExit(f"cannot fetch {url}: {error}")
            sample = sample_from_exposition(payload)
            alerts = evaluator.evaluate(sample)
            rounds += 1
            if args.json:
                print(
                    json.dumps(
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
    if args.watch:
        return _tune_watch(args)
    from .control import RetunePlan, derive_config
    from .core.config import (
        EARDetConfig,
        InfeasibleConfigError,
        config_as_dict,
    )
    from .service.checkpoint import summarize_checkpoint

    if args.checkpoint is None:
        raise SystemExit(
            "tune requires --checkpoint (or --watch with --metrics-port)"
        )
    payload = _read_checkpoint(args.checkpoint)
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
            _print_json({"feasible": False, **error.as_dict()})
        else:
            print(f"infeasible: {error}")
            print(f"  binding constraint: {error.constraint}")
        return 1
    if new_config == config:
        if args.json:
            _print_json({
                "feasible": True,
                "changed": False,
                "epoch": epoch,
                "config": meta["config"],
            })
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
            _print_json({
                "feasible": True,
                "changed": True,
                "epoch": epoch,
                "proposed_epoch": epoch + 1,
                "occupancy": occupancy,
                "old_config": meta["config"],
                "new_config": config_as_dict(new_config),
                "reason": plan.reason,
            })
        else:
            print(f"proposal (config epoch {epoch} -> {epoch + 1}):")
            print(f"  {plan.describe()}")
            print(
                f"  occupancy clamp: n >= {max(2, occupancy)} "
                f"(checkpoint holds {occupancy} live counters)"
            )
            print("  re-run with --apply to execute the guarded retune")
        return 0

    from .service import RetuneError

    fault_plan = _fault_plan(args)
    engine_options = _engine_options(
        args, args.engine or meta["engine"], meta["shards"]
    )
    service = _resume(
        args,
        engine_options=engine_options,
        fault_plan=fault_plan,
        invariant_every=args.invariant_every,
    )
    try:
        report = service.apply_retune(plan)
    except RetuneError as error:
        service.shutdown()
        if args.json:
            _print_json({
                "committed": False,
                "rolled_back": error.rolled_back,
                "phase": error.phase,
                "epoch": epoch,
                "error": str(error),
            })
        else:
            print(
                f"retune rolled back at phase {error.phase!r}: {error} "
                f"(checkpoint untouched, still epoch {epoch})"
            )
        return 1
    service.checkpoint_now()
    service.shutdown()
    if args.json:
        _print_json({
            "committed": True,
            "from_epoch": report.from_epoch,
            "to_epoch": report.to_epoch,
            "pause_ns": report.pause_ns,
            "config": config_as_dict(new_config),
        })
    else:
        print(
            f"retune committed: config epoch {report.from_epoch} -> "
            f"{report.to_epoch} (pause {report.pause_ns / NS_PER_S * 1e3:.2f}ms); "
            f"checkpoint rewritten at {args.checkpoint}"
        )
    return 0


def _load_incident_log(args: argparse.Namespace):
    """Read and CRC-verify the incident log named by --forensics-dir."""
    from .forensics import IncidentLogCorruptError, IncidentStore

    if args.forensics_dir is None:
        raise SystemExit(
            "incidents requires --forensics-dir (the directory a "
            "'serve --forensics-dir' run wrote)"
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

    target = args.target
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
        _print_json(result.as_dict())
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
    path, records = _load_incident_log(args)

    if args.action == "show":
        if args.incident_id is None:
            raise SystemExit("incidents show requires --id")
        for record in records:
            if record.id == args.incident_id:
                _print_json(record.as_dict())
                return 0
        raise SystemExit(
            f"no incident {args.incident_id} in {path} "
            f"({len(records)} records)"
        )

    if args.action == "export":
        if args.html:
            from .forensics import render_html

            body = render_html(records)
            out = args.out or str(Path(path).parent / "incidents.html")
        else:
            body = json.dumps(
                [record.as_dict() for record in records], indent=2,
                default=str,
            ) + "\n"
            out = args.out
        if out is None:
            print(body, end="")
            return 0
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(body)
        print(f"wrote {len(records)} incidents to {out}")
        return 0

    if args.json:
        _print_json([record.as_dict() for record in records])
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
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
