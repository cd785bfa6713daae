"""The sentinet benchmark: one workload per process, outputs checked.

    python3 bench/run.py --workload paper-cnn-lstm --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
there and nothing needs installing.  The seed generates the corpus before
anything is timed, and the program sees only the generated CSV and texts.
BLAS is pinned to one thread before numpy loads, because threading on
the small matrices involved changes the results.

With ``--trace 0`` the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}`` holding every end-to-end
metric; with ``--trace 1`` it holds every per-layer metric instead, taken
from spans wrapped around the program's functions.  The lines before it
give the machine context and details (sample counts, hashes, failures).
``--workload all`` runs every workload, each in its own process, and ends
with one line per workload result merged under ``<workload>/<metric>``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _git_commit() -> str | None:
    """HEAD's commit read from .git without running git; None outside a repo."""
    git = ROOT / ".git"
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


def machine_context(seed: int) -> dict:
    import hashlib

    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        src_digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
        "src_sha256": src_digest.hexdigest(),
        "seed": seed,
    }


def _import_workloads():
    """The workload module, importing sentinet from this checkout's src/."""
    if not (SRC / "sentinet" / "__init__.py").is_file():
        sys.exit(f"error: no sentinet package under {SRC}")
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import workloads

    return workloads


def _with_units(values: dict, kind: str) -> dict:
    """``values`` as result-line metrics, with the units BENCHMARK.json gives."""
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json's {kind}: "
                           f"{sorted(set(values) ^ set(units))}")
    return {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()}


def run_one(args) -> int:
    workloads = _import_workloads()
    trace_dir = WORK_ROOT / f"trace-{args.workload}" if args.trace else None
    workdir = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        values, checks, details = workloads.run(
            args.workload, args.seed, args.seconds, workdir, trace_dir, args.rows
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details["error_rate"] = checks.failed / checks.attempted
    details["failures"] = checks.failures
    print(json.dumps({"context": machine_context(args.seed)}))
    print(json.dumps({"details": details}))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": _with_units(values, "per_layer" if args.trace else "end_to_end"),
    }
    print(json.dumps(result), flush=True)
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process; prints each, then one merged line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.rows is not None:
            cmd += ["--rows", str(args.rows)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        print(f"# {name}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:40s} {m['value']:>16.6g} {m['unit']}")
            merged["metrics"][f"{name}/{metric}"] = m
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
    print(json.dumps(merged), flush=True)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a workload's name, or all")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring budget")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rows", type=int, help="shrink the corpus (smoke tests only)")
    args = parser.parse_args(argv)
    # a terminated run unwinds, so the child it waits for is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOAD_NAMES:
        parser.error(f"unknown workload {args.workload!r}; one of {WORKLOAD_NAMES} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
