#!/usr/bin/env python
"""The benchmark of record: four workloads, normalized, exactness-gated.

Serves each workload's seeded stream through the public
:class:`DetectionService` API from an ``.ert`` trace (the ``eardet
serve`` path), in a closed loop with one producer thread, and reports
the end-to-end metrics named in ``BENCHMARK.json``.  Every serve's
detections are checked against the golden digest (seed 7) or the
``ReferenceCounterStore`` oracle (any other seed, or ``--verify``).
With ``--trace`` one extra serve runs under the per-layer ledger of
``trace.py`` and the per-layer metrics are reported instead.

    python benchmarks/suite/run.py --workload fed-open
    python benchmarks/suite/run.py --trace --out result.json     # all four
    python benchmarks/suite/run.py --workload caida-full --seed 11 --verify

Each workload runs in its own process (without ``--workload`` the four
run one after another as child processes).  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(the end-to-end metrics, or with ``--trace`` the per-layer ones);
``--out`` writes the full record: every metric with its quartiles and
sample count, raw beside normalized values, and the environment.  See
README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parents[1]
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402  (imports repro; fails without src/)
from oracle import detection_digest  # noqa: E402
from trace import (  # noqa: E402
    COUNT,
    INSTANCES,
    ITER,
    ITER_RECORD,
    RECORD,
    Ledger,
    Target,
)

from repro.analysis.memory import eardet_accesses_per_packet  # noqa: E402
from repro.core import eardet as eardet_module  # noqa: E402
from repro.core.blacklist import Blacklist  # noqa: E402
from repro.core.counters import HeapCounterStore  # noqa: E402
from repro.core.eardet import EARDet  # noqa: E402
from repro.forensics import ForensicsLab  # noqa: E402
from repro.guard import StreamValidator  # noqa: E402
from repro.service import (  # noqa: E402
    DetectionService,
    InProcessEngine,
    RemoteEngine,
    ShardConnection,
    TraceFileSource,
    WatcherStage,
)
from repro.service import net as net_module  # noqa: E402
from repro.service import runtime as runtime_module  # noqa: E402
from repro.service.engine import FlowRouter  # noqa: E402
from repro.service.sources import DEFAULT_BATCH_SIZE, PacketSource  # noqa: E402
from repro.telemetry import ServiceInstruments  # noqa: E402
from repro.traffic.trace_io import write_binary  # noqa: E402

BENCHMARK = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
GOLDEN = json.loads((HERE / "golden.json").read_text())

#: Scratch space for traces, checkpoints and forensics — inside the
#: checkout, removed after each run.
WORK_ROOT = REPO_ROOT / ".bench_work"

#: Fresh-interpreter set-up launches per run (the median is reported).
SETUP_LAUNCHES = 7

#: Batch pulls between calibration samples during a timed serve (about
#: 0.1 s of serving; a sample costs about 2 ms).
SAMPLE_EVERY = 8

#: Per-layer metrics that are deterministic counts for a given stream:
#: compare.py requires them to match exactly between runs of one seed.
COUNT_METRICS = {
    "virtual.units_per_pkt",
    "counters.ops_per_pkt",
    "counters.model_ops_per_pkt",
    "counters.min_value_per_pkt",
    "counters.decrement_all_per_pkt",
    "counters.evictions_per_pkt",
    "counters.items_per_kpkt",
    "eardet.blacklisted_pct",
    "eardet.detections_per_kpkt",
    "engine.route_calls_per_pkt",
    "forensics.bundles",
    "transport.frames_per_kpkt",
}

COUNTER_METHODS = ("increment", "insert", "decrement_all", "min_value",
                   "get", "items")
ACK_WAITS = ("ShardConnection.wait_reply", "ShardConnection.wait_acks")
SELF_LAYERS = ("virtual", "counters", "eardet", "blacklist", "engine",
               "sources", "guard", "runtime", "pipeline", "telemetry",
               "forensics", "checkpoint", "transport")


def layer_targets() -> List[Target]:
    """The ledger's entry points and the layer each is booked to (the
    table in README.md)."""
    telemetry = sorted(
        name for name, value in vars(ServiceInstruments).items()
        if not name.startswith("_") and callable(value)
    )
    return [
        Target(DetectionService, "serve", "runtime", RECORD),
        Target(TraceFileSource, "batches", "sources", ITER_RECORD),
        Target(StreamValidator, "iter_validated", "guard", ITER),
        Target(FlowRouter, "__call__", "engine", COUNT),
        *(Target(InProcessEngine, name, "engine", RECORD)
          for name in ("ingest", "flush", "pump", "snapshot")),
        Target(EARDet, "__init__", "eardet", INSTANCES),
        Target(EARDet, "observe", "eardet"),
        Target(eardet_module, "apply_virtual_traffic", "virtual"),
        *(Target(HeapCounterStore, name, "counters")
          for name in COUNTER_METHODS),
        Target(Blacklist, "add", "blacklist"),
        Target(Blacklist, "prune", "blacklist"),
        Target(WatcherStage, "observe", "pipeline"),
        *(Target(ServiceInstruments, name, "telemetry", RECORD)
          for name in telemetry),
        *(Target(ForensicsLab, name, "forensics", RECORD)
          for name in ("observe_batch", "scan", "rebaseline")),
        Target(runtime_module, "write_checkpoint", "checkpoint", RECORD,
               amount=lambda args, result: os.path.getsize(args[0])),
        *(Target(RemoteEngine, name, "transport", RECORD)
          for name in ("ingest", "flush", "snapshot", "detections", "health",
                       "envelope", "transport_report", "scrape_workers",
                       "check_workers", "close")),
        *(Target(ShardConnection, name, "transport", RECORD)
          for name in ("connect", "send", "poll", "wait_reply", "wait_acks",
                       "flush_stash", "report")),
        Target(net_module, "encode_frame", "transport", COUNT,
               amount=lambda args, result: len(result)),
    ]


class TimingProbe(PacketSource):
    """Wrap a source, timestamp every batch pull, and sample the
    calibration kernel every ``SAMPLE_EVERY`` pulls.

    A *stall* is the wall time between handing a batch to the service
    and the service asking for the next one: how long the service stops
    reading the link.  Kernel samples run inside a pull, after the inner
    source returned, so they never fall inside a stall; their time is
    excluded from the serve time.  ``_inner`` keeps
    :func:`validation_stats` able to find a guarded source's validator
    behind this wrapper."""

    def __init__(self, inner: PacketSource):
        self._inner = inner
        self.name = inner.name
        self.replayable = inner.replayable
        self.pulls: List[tuple] = []
        #: ``(start, end, ops_per_s)`` kernel samples, in time order.
        self.samples: List[tuple] = []

    def iter_packets(self):
        return self._inner.iter_packets()

    def sample(self) -> None:
        started = time.perf_counter()
        speed = calibrate.sample()
        self.samples.append((started, time.perf_counter(), speed))

    def batches(self, batch_size: int = DEFAULT_BATCH_SIZE, skip: int = 0):
        clock = time.perf_counter
        pulls = self.pulls
        batches = self._inner.batches(batch_size, skip)
        while True:
            started = clock()
            try:
                batch = next(batches)
            except StopIteration:
                pulls.append((started, clock()))
                return
            if len(pulls) % SAMPLE_EVERY == SAMPLE_EVERY - 1:
                self.sample()
            pulls.append((started, clock()))
            yield batch

    def timings(self, started: float, served_at: float, reference: float):
        """Raw and normalized serve seconds, and raw and normalized
        stalls, for a serve spanning ``[started, served_at]`` that was
        bracketed by a sample on each side.

        Between two consecutive samples the speed is taken as their
        mean; time inside samples is dropped.  The final drain (last
        pull to ``served_at``) counts as one stall."""
        samples = self.samples
        ends = [end for _, end, _ in samples]
        segments = [
            (end, next_start, (speed + next_speed) / 2)
            for (_, end, speed), (next_start, _, next_speed)
            in zip(samples, samples[1:])
        ]
        raw = normalized = 0.0
        for low, high, speed in segments:
            low, high = max(low, started), min(high, served_at)
            if high > low:
                raw += high - low
                normalized += (high - low) * speed / reference
        pulls = self.pulls
        gaps = [(pulls[i - 1][1], pulls[i][0]) for i in range(1, len(pulls))]
        gaps.append((pulls[-1][1], served_at))
        stalls, stalls_raw = [], []
        for low, high in gaps:
            speed = segments[bisect.bisect_right(ends, low) - 1][2]
            stalls_raw.append(high - low)
            stalls.append((high - low) * speed / reference)
        return raw, normalized, stalls_raw, stalls


# -- environment and statistics ---------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_head() -> Optional[str]:
    """HEAD commit when the checkout is a git repository."""
    git = REPO_ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _quartiles(values: List[float]) -> Dict[str, float]:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, round(fraction * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@contextlib.contextmanager
def one_cpu():
    """Keep this thread, and the threads and processes it starts, on one
    CPU while measuring.

    The speed of each CPU switches levels on its own.  Unpinned, the
    shard-server threads of storm-remote ran on one CPU while the kernel
    sampled the other, leaving 5.3% of noise per repeat; pinned, 3.3%
    (16 repeats each, interleaved).  The single-threaded workloads showed
    no difference."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(allowed)})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


# -- one serve --------------------------------------------------------------


def serve_once(name: str, config, trace_path: Path, workdir: Path,
               before=None, after=None):
    """Build a fresh service, serve the trace once, tear down.

    Returns ``(report, serve_seconds, timings, extras)``.  Only the
    ``serve()`` call is timed; the source is wrapped in a
    :class:`TimingProbe` and ``timings`` holds its
    ``(raw_s, normalized_s, stalls_raw, stalls)``.  ``before`` runs once
    the service is built and connected, ``after`` right after ``serve()``
    returns (the traced run arms and disarms its ledger there)."""
    workdir.mkdir(parents=True)
    servers = workloads.start_servers(name)
    service = None
    try:
        service = workloads.build_service(name, config, workdir, servers)
        workloads.connect(service, name)
        source = TimingProbe(workloads.make_source(name, trace_path))
        source.sample()
        if before is not None:
            before()
        started = time.perf_counter()
        report = service.serve(source)
        served_at = time.perf_counter()
        if after is not None:
            after()
        source.sample()
        timings = source.timings(started, served_at,
                                 GOLDEN["reference_ops_per_s"])
        engine = service.engine
        transport = (engine.transport_report()
                     if isinstance(engine, RemoteEngine) else [])
        extras = {
            "queue_high_water": max(engine.queue_high_water),
            "bundles": (service.forensics.capture.bundles_written
                        if service.forensics is not None else 0),
            "frames_sent": sum(int(e.get("frames_sent", 0)) for e in transport),
            "speeds": [speed for _, _, speed in source.samples],
        }
        service.shutdown()
        service = None
        return report, served_at - started, timings, extras
    finally:
        if service is not None:
            service.abort()
        workloads.stop_servers(servers)
        shutil.rmtree(workdir, ignore_errors=True)


# -- the run ----------------------------------------------------------------


class Run:
    """One workload in this process: generate, set up, warm up, time,
    check, and optionally trace."""

    def __init__(self, name: str, seed: int, seconds: float, repeats: int,
                 quick: bool, verify: bool):
        self.name = name
        self.seed = seed
        self.seconds = seconds
        self.repeats = repeats
        self.quick = quick
        self.verify = verify
        self.reference = GOLDEN["reference_ops_per_s"]
        self.config = workloads.solve_config(name)
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.digests: List[str] = []
        self.speeds: List[float] = []
        self.phases: Dict[str, float] = {}

    # -- bookkeeping -------------------------------------------------------

    def check(self, report) -> None:
        """Record one serve's digest (judged once the expected digest is
        known)."""
        self.attempted += 1
        self.digests.append(detection_digest(report.detections, report.exact))

    def attempt(self, label: str, function):
        """Run one serve; an exception counts as a failed attempt."""
        try:
            return function()
        except Exception:  # one failed serve must not end the run
            self.attempted += 1
            self.failed += 1
            message = f"{label}: {traceback.format_exc()}"
            self.failures.append(message)
            print(message, file=sys.stderr)
            return None

    # -- phases ------------------------------------------------------------

    def generate(self, workdir: Path) -> None:
        """Generate the stream once and write it as an ``.ert`` trace
        (the generated list is dropped: serves read the trace)."""
        packets = workloads.generate(self.name, self.seed, self.quick)
        self.packets = len(packets)
        self.trace_path = workdir / f"{self.name}.ert"
        write_binary(self.trace_path, packets)

    def _probe(self, *args: str) -> List[str]:
        return [sys.executable, str(HERE / "probe.py"), *args]

    def setup(self, workdir: Path) -> Dict[str, object]:
        """``setup_s``: the median of several fresh-interpreter launches,
        each normalized by the mean of the kernel speeds the launch
        sampled itself before and after setting up."""
        launches = 2 if self.quick else SETUP_LAUNCHES
        raw, normalized = [], []
        for launch in range(launches):
            probe_dir = workdir / f"setup-{launch}"
            probe_dir.mkdir()
            completed = subprocess.run(
                self._probe("setup", self.name, str(probe_dir)),
                capture_output=True, text=True, timeout=120, cwd=REPO_ROOT,
            )
            shutil.rmtree(probe_dir, ignore_errors=True)
            if completed.returncode != 0:
                raise RuntimeError(
                    f"setup probe exited {completed.returncode}:\n"
                    f"{completed.stderr}"
                )
            seconds, before, after = map(float, completed.stdout.split()[-3:])
            speed = (before + after) / 2
            self.speeds.append(speed)
            raw.append(seconds)
            normalized.append(seconds * speed / self.reference)
        return {"raw": raw, "normalized": normalized}

    def golden(self) -> Optional[str]:
        if self.quick or self.seed != GOLDEN["seed"]:
            return None
        return GOLDEN["digests"].get(self.name)

    def warm_up(self, workdir: Path) -> Dict[str, object]:
        """The untimed phase: one warm-up serve here while two child
        processes measure ``mem_peak_mib`` and, unless the golden digest
        applies, compute the oracle digest."""
        (workdir / "memory").mkdir()
        children = {"memory": subprocess.Popen(
            self._probe("memory", self.name, str(workdir / "memory"),
                        str(self.trace_path)),
            stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT,
        )}
        if self.golden() is None or self.verify:
            children["oracle"] = subprocess.Popen(
                [sys.executable, str(HERE / "oracle.py"), self.name,
                 str(self.trace_path)],
                stdout=subprocess.PIPE, text=True, cwd=REPO_ROOT,
            )
        try:
            outcome = self.attempt(
                "warm-up",
                lambda: serve_once(self.name, self.config, self.trace_path,
                                   workdir / "warm"),
            )
            if outcome is not None:
                self.check(outcome[0])
            outputs = {}
            for label, child in children.items():
                output, _ = child.communicate(timeout=170)
                if child.returncode != 0:
                    raise RuntimeError(f"{label} child exited {child.returncode}")
                outputs[label] = output.split()[-1]
        finally:
            for child in children.values():
                if child.poll() is None:
                    child.kill()
                    child.wait()
        golden, oracle = self.golden(), outputs.get("oracle")
        if golden is not None and oracle is not None and golden != oracle:
            self.failures.append(
                f"golden digest {golden} != oracle digest {oracle}"
            )
        return {
            "mem_mib": float(outputs["memory"]),
            "digest": {"golden": golden, "oracle": oracle,
                       "expected": golden if golden is not None else oracle},
        }

    def timed(self, workdir: Path) -> List[tuple]:
        """Timed repeats until ``seconds`` have passed (at least
        ``repeats``); returns each repeat's :meth:`TimingProbe.timings`.
        After ``3 * repeats`` failed serves it stops early; the failures
        are already counted."""
        timings = []
        phase_started = time.perf_counter()
        index = 0
        while (len(timings) < self.repeats
               or time.perf_counter() - phase_started < self.seconds):
            if index - len(timings) >= 3 * self.repeats:
                break
            outcome = self.attempt(
                f"repeat {index}",
                lambda: serve_once(self.name, self.config, self.trace_path,
                                   workdir / f"r{index}"),
            )
            index += 1
            if outcome is None:
                continue
            report, _, repeat_timings, extras = outcome
            self.check(report)
            timings.append(repeat_timings)
            self.speeds.extend(extras["speeds"])
        return timings

    def traced(self, workdir: Path) -> Optional[Dict[str, object]]:
        """One extra serve under the per-layer ledger."""
        ledger = Ledger()
        ledger.install(layer_targets())
        try:
            outcome = self.attempt(
                "traced",
                lambda: serve_once(self.name, self.config, self.trace_path,
                                   workdir / "traced",
                                   before=ledger.reset, after=ledger.uninstall),
            )
        finally:
            ledger.uninstall()
        if outcome is None:
            return None
        report, wall, (raw_s, normalized_s, _, _), extras = outcome
        self.check(report)
        detectors = ledger.instances(EARDet)
        return {
            "raw_s": raw_s,
            "normalized_s": normalized_s,
            # Kernel samples ran inside serve(), outside every wrapped
            # layer: their time landed in the runtime layer's self time.
            "sampled_s": wall - raw_s,
            "summary": ledger.summary(),
            "records": ledger.records(),
            "extras": extras,
            "stats": {
                field: sum(getattr(d.stats, field) for d in detectors)
                for field in ("packets", "blacklisted_packets",
                              "virtual_bytes", "detections")
            },
            "evictions": sum(d.store_evictions for d in detectors),
        }

    # -- metrics -----------------------------------------------------------

    def end_to_end(self, setup, mem_mib, timed) -> Dict[str, dict]:
        """Medians at the reference speed.  ``q1``/``q3`` are quartiles
        over repeats (over launches for ``setup_s``): the run's own
        repeat-to-repeat spread, which compare.py reads."""
        pps = [self.packets / normalized for _, normalized, _, _ in timed]
        pps_raw = [self.packets / raw for raw, _, _, _ in timed]
        metrics = {
            "pps": dict(_quartiles(pps), value=statistics.median(pps),
                        samples=pps, raw=_quartiles(pps_raw),
                        raw_samples=pps_raw),
            "setup_s": dict(_quartiles(setup["normalized"]),
                            value=statistics.median(setup["normalized"]),
                            samples=setup["normalized"],
                            raw=_quartiles(setup["raw"]),
                            raw_samples=setup["raw"]),
            "mem_peak_mib": {"value": mem_mib, "n": 1},
        }
        return self._labelled(metrics, BENCHMARK["end_to_end"])

    @staticmethod
    def stalls(timed) -> Dict[str, dict]:
        """Stall percentiles in ms at the reference speed, pooled over
        the repeats (``q1``/``q3`` over the repeats' own percentiles).
        Reported, not gated: they do not repeat within a bound on a
        shared VM (see README.md)."""
        repeats = [[s * 1000 for s in stalls] for _, _, _, stalls in timed]
        pooled = [s for stalls in repeats for s in stalls]
        pooled_raw = [s * 1000 for _, _, raw, _ in timed for s in raw]
        diagnostics = {}
        for name, fraction in (("stall_p50_ms", 0.50), ("stall_p98_ms", 0.98)):
            value = _percentile(pooled, fraction)
            spread = _quartiles([_percentile(r, fraction) for r in repeats])
            diagnostics[name] = {
                "value": value, "unit": "ms", "kind": "measured",
                "n": len(pooled), "q1": spread["q1"], "q3": spread["q3"],
                "beyond": sum(1 for s in pooled if s > value),
                "raw": _percentile(pooled_raw, fraction),
            }
        return diagnostics

    def per_layer(self, traced, timed) -> Dict[str, dict]:
        packets = self.packets
        summary = traced["summary"]
        entries = summary["entries"]
        layers = summary["layers"]
        stats = traced["stats"]
        extras = traced["extras"]
        # The serving thread's wall time with the wrappers' own cost
        # removed: the denominator of every share.
        work_ns = traced["raw_s"] * 1e9 - summary["wrapper_ns_main"]
        runtime = layers.setdefault("runtime", {"main_ns": 0.0, "other_ns": 0.0})
        runtime["main_ns"] = max(0.0, runtime["main_ns"] - traced["sampled_s"] * 1e9)

        def pct(ns: float) -> float:
            return 100.0 * ns / work_ns

        def layer_ns(layer: str) -> float:
            entry = layers.get(layer, {})
            return entry.get("main_ns", 0.0) + entry.get("other_ns", 0.0)

        def entry(name: str, field: str):
            return entries.get(name, {}).get(field, 0)

        main_ns = sum(layer["main_ns"] for layer in layers.values())
        other_ns = sum(layer["other_ns"] for layer in layers.values())
        # Untraced and traced serve times, both at the reference speed.
        untraced_s = statistics.median(normalized for _, normalized, _, _ in timed)
        at_reference = traced["normalized_s"] / traced["raw_s"]
        calls = {m: entry(f"HeapCounterStore.{m}", "calls")
                 for m in COUNTER_METHODS}
        metrics = {f"{layer}.self_pct": pct(layer_ns(layer))
                   for layer in SELF_LAYERS}
        metrics.update({
            "virtual.units_per_pkt":
                stats["virtual_bytes"] / self.config.virtual_unit / packets,
            "counters.ops_per_pkt": sum(calls.values()) / packets,
            "counters.model_ops_per_pkt":
                eardet_accesses_per_packet(self.config.n),
            "counters.min_value_per_pkt": calls["min_value"] / packets,
            "counters.decrement_all_per_pkt": calls["decrement_all"] / packets,
            "counters.evictions_per_pkt": traced["evictions"] / packets,
            "counters.items_per_kpkt": 1000 * calls["items"] / packets,
            "eardet.blacklisted_pct":
                100.0 * stats["blacklisted_packets"] / max(stats["packets"], 1),
            "eardet.detections_per_kpkt": 1000 * stats["detections"] / packets,
            "engine.route_calls_per_pkt":
                entry("FlowRouter.__call__", "calls") / packets,
            "engine.queue_high_water": extras["queue_high_water"],
            "forensics.bundles": extras["bundles"],
            "checkpoint.kib_written":
                entry("repro.service.runtime.write_checkpoint", "amount") / 1024,
            "transport.ack_wait_pct":
                pct(sum(entry(name, "self_ns") for name in ACK_WAITS)),
            "transport.frames_per_kpkt": 1000 * extras["frames_sent"] / packets,
            "transport.bytes_per_pkt":
                entry("repro.service.net.encode_frame", "amount") / packets,
            "server.busy_pct": pct(other_ns),
            "gc.pause_pct": pct(layer_ns("gc")),
            "gc.collections": entry("gc", "calls"),
            "trace.coverage_pct": pct(main_ns),
            "trace.closure_pct":
                100.0 * main_ns / 1e9 * at_reference / untraced_s,
            "trace.overhead_pct":
                100.0 * (traced["normalized_s"] / untraced_s - 1),
        })
        return self._labelled(
            {name: {"value": value, "n": 1} for name, value in metrics.items()},
            BENCHMARK["per_layer"],
        )

    @staticmethod
    def _labelled(values: Dict[str, dict], declared) -> Dict[str, dict]:
        """Attach unit and kind from BENCHMARK.json, in its order; a
        declared metric the run did not produce is a harness bug."""
        missing = [m["name"] for m in declared if m["name"] not in values]
        if missing:
            raise KeyError(f"metrics not produced: {missing}")
        return {
            m["name"]: dict(
                values[m["name"]], unit=m["unit"],
                kind="count" if m["name"] in COUNT_METRICS else "measured",
            )
            for m in declared
        }

    # -- driver ------------------------------------------------------------

    def _phase(self, label: str, function, *args):
        started = time.perf_counter()
        try:
            return function(*args)
        finally:
            self.phases[label] = time.perf_counter() - started

    def execute(self, trace: bool) -> Dict[str, object]:
        started = time.perf_counter()
        WORK_ROOT.mkdir(exist_ok=True)
        workdir = Path(tempfile.mkdtemp(prefix=f"{self.name}-", dir=WORK_ROOT))
        try:
            self._phase("gen_s", self.generate, workdir)
            with one_cpu():
                setup = self._phase("setup_s", self.setup, workdir)
            # The untimed phase runs three processes at once.
            untimed = self._phase("warm_s", self.warm_up, workdir)
            with one_cpu():
                timed = self._phase("timed_s", self.timed, workdir)
                traced = (self._phase("traced_s", self.traced, workdir)
                          if trace else None)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        expected = untimed["digest"]
        mismatched = sum(1 for d in self.digests if d != expected["expected"])
        if mismatched:
            self.failed += mismatched
            self.failures.append(
                f"{mismatched} serves disagree with the expected digest "
                f"{expected['expected']}"
            )
        if not timed or (trace and traced is None):
            raise RuntimeError(
                "no successful serve to measure:\n" + "\n".join(self.failures)
            )
        result = {
            "workload": self.name,
            "seed": self.seed,
            "quick": self.quick,
            "packets": self.packets,
            "config": {"n": self.config.n, "beta_th": self.config.beta_th,
                       "rho": self.config.rho},
            "correct": self.failed == 0 and not self.failures,
            "attempted": self.attempted,
            "failed": self.failed,
            "failures": self.failures,
            "digest": dict(expected, observed=self.digests),
            "metrics": self.end_to_end(setup, untimed["mem_mib"], timed),
            "diagnostics": self.stalls(timed),
            "env": {
                "python": platform.python_version(),
                "nproc": len(os.sched_getaffinity(0)),
                "cpu_model": _cpu_model(),
                "git_head": _git_head(),
                "seed": self.seed,
                "seconds": self.seconds,
                "min_repeats": self.repeats,
                "repeats": len(timed),
                "reference_ops_per_s": self.reference,
                "calibration_ops_per_s": statistics.median(self.speeds),
                "phases": self.phases,
            },
        }
        if traced is not None:
            result["layers"] = self.per_layer(traced, timed)
            result["ledger"] = {
                "entries": traced["summary"]["entries"],
                "calibration": traced["summary"]["calibration"],
            }
            result["spans"] = traced["records"]
        result["env"]["run_s"] = time.perf_counter() - started
        return result


# -- output -----------------------------------------------------------------


def _format(entry: Dict[str, object]) -> str:
    value = entry["value"]
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    detail = f"n={entry['n']}"
    if "q1" in entry and entry["n"] > 1:
        detail += f", q1={entry['q1']:.6g}, q3={entry['q3']:.6g}"
    return f"{text} {entry['unit']}  ({detail})"


def print_result(result: Dict[str, object]) -> None:
    env = result["env"]
    print(
        f"== {result['workload']}: seed {result['seed']}, "
        f"{result['packets']} packets, n={result['config']['n']}, "
        f"{env['repeats']} timed repeats, run {env['run_s']:.1f}s "
        f"(gen {env['phases']['gen_s']:.1f}s), calibration "
        f"{env['calibration_ops_per_s']:.0f} ops/s "
        f"(reference {env['reference_ops_per_s']:.0f})"
    )
    for section in ("metrics", "diagnostics", "layers"):
        for name, entry in result.get(section, {}).items():
            print(f"  {name:32s} {_format(entry)}")
    print(
        f"  correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']} digest={result['digest']['expected']}"
    )
    for failure in result["failures"]:
        print(f"  FAILURE: {failure.splitlines()[0]}")


def contract_line(results: List[Dict[str, object]], trace: bool) -> str:
    """The last stdout line: correctness plus the declared metrics."""
    section = "layers" if trace else "metrics"
    metrics = {}
    for result in results:
        prefix = "" if len(results) == 1 else f"{result['workload']}."
        for name, entry in result[section].items():
            metrics[prefix + name] = {"value": entry["value"],
                                      "unit": entry["unit"]}
    return json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    })


def write_out(path: Path, results: List[Dict[str, object]]) -> None:
    """Write the full record; batch-level spans go to a sibling
    ``<stem>.<workload>.trace.json``."""
    for result in results:
        spans = result.pop("spans", None)
        if spans is not None:
            trace_path = path.with_name(
                f"{path.stem}.{result['workload']}.trace.json"
            )
            trace_path.write_text(json.dumps({"threads": spans}) + "\n")
    payload = results[0] if len(results) == 1 else {"runs": results}
    path.write_text(json.dumps(payload, indent=2) + "\n")


def run_children(args) -> List[Dict[str, object]]:
    """One child process per workload; returns their records."""
    WORK_ROOT.mkdir(exist_ok=True)
    results = []
    with tempfile.TemporaryDirectory(dir=WORK_ROOT) as scratch:
        for name in workloads.WORKLOADS:
            out = Path(scratch) / "child.json"
            command = [
                sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--repeats", str(args.repeats),
                "--trace", str(args.trace), "--out", str(out),
            ]
            command += ["--quick"] if args.quick else []
            command += ["--verify"] if args.verify else []
            completed = subprocess.run(command, stdout=subprocess.DEVNULL,
                                       cwd=REPO_ROOT)
            if completed.returncode != 0:
                raise SystemExit(f"workload {name} exited "
                                 f"{completed.returncode}")
            result = json.loads(out.read_text())
            spans = out.with_name(f"child.{name}.trace.json")
            if spans.exists():
                result["spans"] = json.loads(spans.read_text())["threads"]
            results.append(result)
    return results


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="run one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=GOLDEN["seed"])
    parser.add_argument("--seconds", type=float,
                        default=BENCHMARK["run_seconds"],
                        help="length of the timed phase; must equal "
                             "run_seconds in BENCHMARK.json, so that every "
                             "comparable run measures as long")
    parser.add_argument("--repeats", type=int, default=5,
                        help="minimum timed repeats")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="add the traced run; print per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="tiny streams and no minimum timed phase, for "
                             "the smoke test only (not comparable)")
    parser.add_argument("--verify", action="store_true",
                        help="check against the oracle even at the golden seed")
    parser.add_argument("--out", type=Path, help="write the full record here")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.seconds != BENCHMARK["run_seconds"]:
        parser.error(f"--seconds must equal run_seconds in BENCHMARK.json "
                     f"({BENCHMARK['run_seconds']})")
    if args.quick:
        args.seconds = 0.0
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        results = run_children(args)
    else:
        run = Run(args.workload, args.seed, args.seconds, args.repeats,
                  args.quick, args.verify)
        results = [run.execute(trace=bool(args.trace))]
    for result in results:
        print_result(result)
    if args.out is not None:
        write_out(args.out, results)
    print(contract_line(results, trace=bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
