"""Detection digests and the reference oracle.

A workload's *detection digest* is the SHA-256 of its sorted
``(fid, time)`` detections plus the report's exactness flag.  The oracle
recomputes it with an :class:`InProcessEngine` over the O(n)
:class:`ReferenceCounterStore` — the paper's pseudocode translated
directly — with the service's hash seed and slot layout.

Run as a script it prints the oracle digest of a trace file, so the
benchmark can compute it in a child process while its own untimed
warm-up runs:

    python benchmarks/suite/oracle.py WORKLOAD TRACE.ert
"""

from __future__ import annotations

import hashlib
import json
import sys
from typing import Dict

import workloads  # also puts src/ on sys.path

from repro.core.counters import ReferenceCounterStore
from repro.service import InProcessEngine
from repro.service.sources import DEFAULT_BATCH_SIZE
from repro.traffic.trace_io import read_binary


def detection_digest(detections: Dict, exact: bool) -> str:
    """SHA-256 over the sorted ``(fid, time)`` detections plus the
    exactness flag."""
    pairs = sorted((int(fid), int(time_ns)) for fid, time_ns in detections.items())
    return hashlib.sha256(json.dumps([pairs, bool(exact)]).encode()).hexdigest()


def oracle_digest(name: str, packets) -> str:
    """The digest the workload's service must reproduce."""
    shards, slots = workloads.LAYOUT[name]
    engine = InProcessEngine(
        workloads.solve_config(name), shards=shards, slots=slots,
        store_factory=ReferenceCounterStore,
    )
    for start in range(0, len(packets), DEFAULT_BATCH_SIZE):
        engine.ingest(packets[start:start + DEFAULT_BATCH_SIZE])
    engine.flush()
    exact = all(entry.exact for entry in engine.envelope())
    return detection_digest(engine.detections(), exact)


if __name__ == "__main__":
    name, trace = sys.argv[1:3]
    print(oracle_digest(name, list(read_binary(trace))))
