"""Collect result sets and compare them, metric by metric.

Collect ten untraced runs of every workload (seeds 1..10)::

    python3 perfbench/compare.py run --out a.jsonl --seeds 1-10

Summarize one set, or compare two (e.g. parent vs change)::

    python3 perfbench/compare.py show a.jsonl [b.jsonl]

For each workload and metric ``show`` prints the median and quartiles
of every set and the spread (q3 - q1) / median.  A metric is
``unresolved`` when its spread is wider than its bound in
``BENCHMARK.json``; with two sets, a median worse than the first set's
by more than the bound is flagged ``worse``.  Traced runs
(``--trace 1``) carry ``traced.*`` copies of the end-to-end figures;
``show`` reports their difference from the untraced medians as the
tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import spread

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def collect(args) -> int:
    config = _config()
    names = [workload["name"] for workload in config["workloads"]]
    seconds = config["run_seconds"]
    status = 0
    with open(args.out, "a") as out:
        for seed in _seeds(args.seeds):
            for name in names:
                proc = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(args.trace)],
                    cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode or not lines:
                    print(f"{name} seed {seed}: exit {proc.returncode}\n"
                          f"{proc.stderr[-2000:]}", file=sys.stderr)
                    status = 1
                    continue
                result = json.loads(lines[-1])
                out.write(json.dumps({"workload": name, "seed": seed,
                                      "trace": args.trace,
                                      "result": result}) + "\n")
                out.flush()
                print(f"{name} seed {seed}: " + ", ".join(
                    f"{metric}={value['value']:.4g}"
                    for metric, value in result["metrics"].items()
                    if not args.trace))
    return status


def _load(path: str) -> dict:
    """{(workload, trace): {metric: [values...]}} from a result file."""
    sets: dict = {}
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        metrics = sets.setdefault((record["workload"], record["trace"]), {})
        for name, value in record["result"]["metrics"].items():
            metrics.setdefault(name, []).append(value["value"])
    return sets


def show(args) -> int:
    config = _config()
    bounds = {m["name"]: m for m in config["end_to_end"]}
    sets = [_load(path) for path in args.files]
    for workload in [w["name"] for w in config["workloads"]]:
        print(f"== {workload}")
        for name, metric in bounds.items():
            cells, medians = [], []
            for result in sets:
                values = result.get((workload, 0), {}).get(name)
                if not values:
                    cells.append("-")
                    medians.append(None)
                    continue
                q1, median, q3, width = spread(values)
                flag = (" unresolved" if width > metric["bound"]
                        and name != "setup_s" else "")
                cells.append(f"{median:.4g} [{q1:.4g}..{q3:.4g}] "
                             f"n={len(values)} spread {width:.1%}{flag}")
                medians.append(median)
            if len(medians) == 2 and None not in medians:
                change = (medians[1] - medians[0]) / medians[0]
                worse = change if metric["better"] == "lower" else -change
                cells.append(f"change {change:+.1%}"
                             + (" worse" if worse > metric["bound"] else ""))
            print(f"  {name:22s} " + " | ".join(cells))
            for result in sets:
                traced = result.get((workload, 1), {}).get(f"traced.{name}")
                untraced = result.get((workload, 0), {}).get(name)
                if traced and untraced:
                    base = statistics.median(untraced)
                    median = statistics.median(traced)
                    print(f"  {'':22s} tracing overhead: traced median "
                          f"{median:.4g} vs {base:.4g} "
                          f"({(median - base) / base:+.1%})")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="collect runs into a result file")
    run.add_argument("--out", required=True)
    run.add_argument("--seeds", default="1-10")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0)
    run.set_defaults(func=collect)
    view = sub.add_parser("show", help="summarize or compare result files")
    view.add_argument("files", nargs="+")
    view.set_defaults(func=show)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
