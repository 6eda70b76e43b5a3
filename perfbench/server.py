"""Server launcher: one workload's backend behind a loopback RwsTcpServer.

Run as ``python3 perfbench/server.py WORKLOAD SEED`` with the
repository's ``src`` on ``PYTHONPATH``.  It publishes the workload's
list (:func:`workloads.served_list`), starts the server on an
ephemeral port, prints ``{"port": N}`` as one JSON line, and serves
until its standard input closes, answering each line it reads there
with ``{"cpu_s": S}``, the CPU time it has spent since it was ready
(so a client can charge a phase of its load with the server's CPU
time).  It then stops the server and prints
one more JSON line with the program's own counters: the server's
``net_snapshot()``, the backend's ``stats_report()``, the PSL's
``cache_stats()``, the process's peak resident set size, and the CPU
time it spent after it was ready to serve.
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from workloads import served_list

from repro.cluster import Router
from repro.net.server import RwsTcpServer, ServerThread
from repro.serve.service import RwsService

#: Read replicas behind the ``publish-mix`` router.
REPLICAS = 3


def build_backend(workload: str, seed: int):
    rws_list = served_list(workload, seed)
    if workload == "publish-mix":
        backend = Router(RwsService(), REPLICAS, lag=0, policy="rendezvous")
    else:
        backend = RwsService()
    backend.publish(rws_list)
    return backend


def peak_rss_mb() -> float:
    """This process's own peak resident set size.

    ``VmHWM`` rather than ``getrusage``: Linux carries the spawning
    process's peak into ``ru_maxrss`` across ``exec``, so that figure
    would report the load generator's memory, not the server's.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cpu_s() -> float:
    """CPU seconds this process has used, every thread included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv: list[str]) -> int:
    workload, seed = argv[0], int(argv[1])
    backend = build_backend(workload, seed)
    server = RwsTcpServer(backend)
    harness = ServerThread(server)
    _host, port = harness.start()
    ready_cpu_s = cpu_s()
    print(json.dumps({"port": port}), flush=True)
    try:
        for _line in sys.stdin:
            print(json.dumps({"cpu_s": cpu_s() - ready_cpu_s}), flush=True)
    finally:
        harness.stop()
    print(json.dumps({
        "net": server.net_snapshot(),
        "stats": backend.stats_report(),
        "psl": backend.psl.cache_stats(),
        "rss_mb": peak_rss_mb(),
        "serving_cpu_s": cpu_s() - ready_cpu_s,
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
