"""Wire-level serving benchmark for the Related Website Sets server.

Usage (from the repository root)::

    python3 perfbench/run.py --workload point-open --seed 1 \
        --seconds 20 --trace 0

Each run launches the workload's backend behind a loopback
``RwsTcpServer`` in its own process (``server.py``), drives it from
this process over at most two connections on one thread, checks every
answer against a naive oracle built from the same seeded lists, and
prints one JSON line last: ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``--trace 0`` reports the end-to-end metrics of
``BENCHMARK.json``; ``--trace 1`` repeats the workload's wire run for
the server's own counters and then replays the same seeded requests
through each layer in-process (``ledger.py``) for the per-layer
metrics.  The workloads are described in ``bench.py`` and
``README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no program source under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]]
                                 if env.get("PYTHONPATH") else []))
    run = bench.Run(args.workload, args.seed, args.seconds, env)
    # The prepared requests and traces are large and long-lived: keep
    # the collector from pausing the timed loops to rescan them.
    gc.freeze()
    gc.disable()
    outcome = run.traced() if args.trace else run.measured()
    for line in outcome.report:
        print(line)
    config = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = config["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": outcome.correct, "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {metric["name"]: {
            "value": float(outcome.metrics[metric["name"]]),
            "unit": metric["unit"]} for metric in listed},
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
