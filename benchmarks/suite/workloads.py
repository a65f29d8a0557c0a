"""The four workloads of the benchmark of record.

Each workload names a seeded stream, the detector configuration it is
served under, and the service it is served by.  Three configurations
come from the Appendix-A solver at paper scale; ``storm-remote`` keeps
the legacy n=8 eviction-storm config so its history stays comparable
with ``BENCH_net.json``.  Why each workload exists (and which layers it
exercises or bypasses) is recorded in ``README.md`` beside this file.

Everything here goes through public APIs only: ``repro.traffic``
generators, :func:`repro.core.config.engineer`, :class:`DetectionService`
and :class:`TraceFileSource` (the ``eardet serve`` path).
"""

from __future__ import annotations

import random
import sys
from pathlib import Path
from typing import List, Sequence

REPO_ROOT = Path(__file__).resolve().parents[2]
if str(REPO_ROOT / "src") not in sys.path:
    sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.config import EARDetConfig, engineer  # noqa: E402
from repro.forensics import ForensicsLab  # noqa: E402
from repro.guard import StreamValidator  # noqa: E402
from repro.model.packet import Packet  # noqa: E402
from repro.service import (  # noqa: E402
    DetectionService,
    ShardServer,
    TraceFileSource,
    WatcherPolicy,
)
from repro.telemetry import Telemetry  # noqa: E402
from repro.traffic.attacks import FloodingAttack  # noqa: E402
from repro.traffic.datasets import (  # noqa: E402
    CAIDA_RHO,
    FEDERICO_RHO,
    PAPER_BETA_L,
    PAPER_T_UPINCB,
    caida_like,
    federico_like,
)
from repro.traffic.mix import build_attack_scenario  # noqa: E402
from repro.traffic.trace_io import intern_fids  # noqa: E402

WORKLOADS = ("fed-open", "fed-congested", "caida-full", "storm-remote")

#: Flow-to-slot layout per workload: (shards, slots).
LAYOUT = {
    "fed-open": (2, 2),
    "fed-congested": (2, 2),
    "caida-full": (2, 4),
    "storm-remote": (2, 4),
}

#: Full-scale stream sizes and their ``--quick`` (smoke-test) stand-ins.
FEDERICO_OPEN_SCALE = (1.0, 0.05)
FEDERICO_CONGESTED_SCALE = (0.3, 0.03)
CAIDA_SCALE = (0.004, 0.0005)
STORM_PACKETS = (120_000, 8_000)

#: The full-scale Federico-like streams are cut to this many packets.
FEDERICO_PACKETS = {"fed-open": 200_000, "fed-congested": 160_000}

#: Attack flows mixed into both Federico-like workloads (Section 5.2).
ATTACK_FLOWS = 10

#: caida-full checkpoints every this many packets.
CHECKPOINT_EVERY = 16_384

#: The legacy eviction-storm config (``benchmarks/trajectory.py``).
LEGACY_CONFIG = EARDetConfig(
    rho=1_000_000, n=8, beta_th=3000, alpha=1518,
    beta_l=1000, gamma_l=50_000,
)


def solve_config(name: str) -> EARDetConfig:
    """The configuration a workload is served under: the Appendix-A
    solution for its dataset's Table-5 thresholds (gamma_h = 1% of rho,
    gamma_l = 0.1%), or the legacy storm config."""
    if name in ("fed-open", "fed-congested"):
        rho = FEDERICO_RHO
    elif name == "caida-full":
        rho = CAIDA_RHO
    elif name == "storm-remote":
        return LEGACY_CONFIG
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    return engineer(
        rho=rho,
        gamma_l=rho // 1000,
        beta_l=PAPER_BETA_L,
        gamma_h=rho // 100,
        t_upincb_seconds=PAPER_T_UPINCB,
    )


def storm_packets(count: int, seed: int, flows: int = 50,
                  heavy_share: float = 0.1) -> List[Packet]:
    """The legacy eviction-storm stream (a copy of ``make_packets`` in
    ``benchmarks/trajectory.py``, kept here so this benchmark does not
    depend on that script): mostly small flows, three heavy hitters,
    offered at ~575x the n=8 config's 1 MB/s link."""
    rng = random.Random(seed)
    packets = []
    t = 0
    for i in range(count):
        t += rng.randint(500, 2000)
        if rng.random() < heavy_share:
            fid = f"h{i % 3}"
        else:
            fid = f"f{rng.randrange(flows)}"
        packets.append(Packet(time=t, size=rng.choice((64, 576, 1518)), fid=fid))
    return packets


def generate(name: str, seed: int, quick: bool = False) -> List[Packet]:
    """The workload's stream for ``seed``, with flow IDs interned to ints
    (the ``.ert`` trace format needs int flow IDs)."""
    pick = 1 if quick else 0
    if name in ("fed-open", "fed-congested"):
        congested = name == "fed-congested"
        scale = (FEDERICO_CONGESTED_SCALE if congested else FEDERICO_OPEN_SCALE)[pick]
        dataset = federico_like(seed=seed, scale=scale)
        stream = build_attack_scenario(
            dataset.stream,
            FloodingAttack(rate=2 * dataset.gamma_h),
            ATTACK_FLOWS,
            dataset.rho,
            congested=congested,
            seed=seed,
        ).stream
        if not quick:
            # The generated packet count follows the seed (fed-open
            # 216k-237k over seeds 1-10; fed-congested's serialized
            # backlog past the background's window varies by a third),
            # and a serve's time and memory follow the packet count.  A
            # fixed-length prefix keeps them seed-stable.  fed-congested's
            # prefix lies inside the background's window, where the link
            # is saturated throughout.
            stream = list(stream)[:FEDERICO_PACKETS[name]]
    elif name == "caida-full":
        stream = caida_like(seed=seed, scale=CAIDA_SCALE[pick]).stream
    elif name == "storm-remote":
        stream = storm_packets(STORM_PACKETS[pick], seed)
    else:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    packets, _ = intern_fids(stream)
    return packets


def make_source(name: str, trace_path: Path) -> TraceFileSource:
    """A fresh source over the workload's ``.ert`` trace; caida-full
    screens it through a strict :class:`StreamValidator`."""
    validator = StreamValidator() if name == "caida-full" else None
    return TraceFileSource(trace_path, validator=validator)


def start_servers(name: str) -> List[ShardServer]:
    """Loopback shard servers for storm-remote (one per shard); none for
    the in-process workloads."""
    if name != "storm-remote":
        return []
    return [ShardServer().start() for _ in range(LAYOUT[name][0])]


def stop_servers(servers: Sequence[ShardServer]) -> None:
    for server in servers:
        server.stop()


def build_service(
    name: str,
    config: EARDetConfig,
    workdir: Path,
    servers: Sequence[ShardServer] = (),
) -> DetectionService:
    """The service a workload is served by, with its optional layers.

    Only caida-full arms telemetry, the CLEF watcher, forensics capture
    and periodic checkpoints; the other three bypass those layers.
    """
    shards, slots = LAYOUT[name]
    if name == "caida-full":
        return DetectionService(
            config,
            shards=shards,
            slots=slots,
            telemetry=Telemetry(),
            watcher=WatcherPolicy(kind="clef"),
            forensics=ForensicsLab(workdir / "forensics"),
            checkpoint_path=str(workdir / "service.ckpt"),
            checkpoint_every=CHECKPOINT_EVERY,
        )
    if name == "storm-remote":
        return DetectionService(
            config,
            shards=shards,
            slots=slots,
            engine="remote",
            engine_options={
                "workers": [f"{s.host}:{s.port}" for s in servers]
            },
        )
    return DetectionService(config, shards=shards, slots=slots)


def connect(service: DetectionService, name: str) -> None:
    """Complete the remote handshake up front (storm-remote), so set-up
    cost is paid before serving starts rather than inside the first
    batch."""
    if name == "storm-remote":
        service.engine.scrape_workers()
