"""Run-to-run spread of the benchmark's metrics over several seeds.

    python3 bench/spread.py --workload topic-cnn --seeds 1-10 --seconds 10

Runs ``bench/run.py`` once per seed, one run at a time, and prints for each
metric the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread: the distance between the quartiles as a share of the
median, the figure compared with each metric's bound in BENCHMARK.json.
``--json PATH`` also writes every run's result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = text.split("-")
        return list(range(int(first), int(last) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--json", help="write every run's result here")
    args = parser.parse_args(argv)

    bounds = {}
    spec_path = RUN.parent.parent / "BENCHMARK.json"
    if spec_path.exists():
        spec = json.loads(spec_path.read_text())
        bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}

    runs = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: exit {proc.returncode}")
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        details = json.loads(lines[-2]).get("details", {})
        runs.append({"seed": seed, "wall_s": wall, **result, "details": details})
        print(f"seed {seed}: wall {wall:.1f}s correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)

    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / abs(median) if median else float("inf")
        bound = bounds.get(name)
        print(f"{name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
              f"{'' if bound is None else bound:>6}")
    walls = [r["wall_s"] for r in runs]
    print(f"wall per run: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    if args.json:
        Path(args.json).write_text(json.dumps(runs, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
