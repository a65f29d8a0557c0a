"""Fresh-interpreter measurements: set-up time and serve memory.

    python benchmarks/suite/probe.py setup WORKLOAD WORKDIR
    python benchmarks/suite/probe.py memory WORKLOAD WORKDIR TRACE.ert

``setup`` times, from before ``import repro`` to a service ready to
serve, the imports, the Appendix-A solve and the service build with its
optional layers (for storm-remote also starting the loopback shard
servers and completing the handshake).  It prints the seconds and, on
the same line, the calibration kernel's speed sampled in this process
right before and right after, for normalization by their mean.

``memory`` builds the same service under ``tracemalloc``, takes the
traced size once the service is built as the baseline, serves the trace
once and prints the traced peak above that baseline in MiB: the memory
the service allocates to serve the stream, independent of the
interpreter, the imports and how the allocator returns pages.  For a
given stream it is deterministic.
"""

import sys
import time
import tracemalloc
from pathlib import Path

import calibrate

if sys.argv[1:2] == ["setup"]:
    speed_before = calibrate.speed()
started = time.perf_counter()

import workloads  # noqa: E402  (imports repro)


def main(argv) -> int:
    mode, name, workdir = argv[0], argv[1], Path(argv[2])
    if mode not in ("setup", "memory"):
        raise SystemExit(f"unknown mode {mode!r}; expected setup or memory")
    if mode == "memory":
        tracemalloc.start()
    config = workloads.solve_config(name)
    servers = workloads.start_servers(name)
    try:
        service = workloads.build_service(name, config, workdir, servers)
        workloads.connect(service, name)
        if mode == "setup":
            elapsed = time.perf_counter() - started
            line = f"{elapsed:.9f} {speed_before:.1f} {calibrate.speed():.1f}"
        else:
            baseline = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            service.serve(workloads.make_source(name, Path(argv[3])))
            peak = tracemalloc.get_traced_memory()[1]
            line = f"{(peak - baseline) / 2**20:.9f}"
        service.shutdown()
    finally:
        workloads.stop_servers(servers)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
