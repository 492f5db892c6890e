"""Benchmark entry point.

    python3 perfbench/run.py --workload coupled_small --seed 1 --seconds 25 --trace 0

Runs one workload of BENCHMARK.json from the root of a source checkout and
prints, as its last line, one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  With --trace 0 the metrics are the end-to-end
ones (wall_s, setup_s, peak_rss_mb); with --trace 1 the per-layer ones.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
SETUP_SAMPLES = 24     # half before the pipeline worker, half after it
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from worker import add_vkg_path  # noqa: E402
from workloads import WORKLOADS, seeded_overrides  # noqa: E402


def child_env(overrides: dict[str, str]) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("VKG_")}
    env.update(overrides)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    return env


class WorkerFailed(Exception):
    pass


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args], env=env,
            stdout=subprocess.PIPE,
            timeout=max(deadline - time.monotonic(), 1.0), text=True)
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"worker {args[0]} still running at the "
                           f"{DEADLINE_S:.0f} s deadline") from None
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {args[0]} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_seconds(config: str, outdir: Path, env: dict, deadline: float,
                  count: int) -> list[float]:
    """Fresh-interpreter samples: launch to the first solver step."""
    samples = []
    for _ in range(count):
        start = time.perf_counter()
        doc = run_worker(["setup", config, str(outdir)], env, deadline)
        samples.append(doc["first_step"] - start)
    return samples


def fmt(values: list[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def nominal_values(config: Path) -> dict:
    add_vkg_path()
    from vkg.config import parse_config
    return parse_config(config.read_text())


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    wl = WORKLOADS[args.workload]
    config = str(ROOT / wl.config)
    overrides = seeded_overrides(wl, nominal_values(ROOT / wl.config),
                                 args.seed)
    env = child_env(overrides)
    print(f"{args.workload} seed {args.seed}: {overrides}", file=sys.stderr)
    outdir = OUT / f"{args.workload}-{os.getpid()}"
    half = 0 if args.trace else SETUP_SAMPLES // 2
    try:
        start = time.monotonic()
        setup = setup_seconds(config, outdir, env, deadline, half)
        # leave room for the second half of the set-up samples
        spent = time.monotonic() - start
        budget = deadline - time.monotonic() - 2 * spent - 5
        doc = run_worker(["pipeline", args.workload, config, str(outdir),
                          str(args.seconds), str(args.trace), str(budget)],
                         env, deadline)
        setup += setup_seconds(config, outdir, env, deadline, half)
    except WorkerFailed as exc:
        # the program failed or hung: one failed operation, no metrics
        print(f"perfbench: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1,
                          "metrics": {}}))
        return 0
    finally:
        shutil.rmtree(outdir, ignore_errors=True)

    failed = [c for c in doc["checks"] if not c[1]]
    for name, ok, detail in doc["checks"]:
        if not ok or not name.startswith("repeat_"):
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}",
                  file=sys.stderr)
    print(f"pipeline walls {fmt(doc['walls'])}"
          + (f", traced {fmt(doc['traced_walls'])}" if args.trace else "")
          + (f", set-up {fmt(setup)}" if setup else ""), file=sys.stderr)
    if args.trace:
        metrics = doc["layers"]
        if doc["absent"]:
            print(f"absent hooks: {doc['absent']}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps(doc["spans"]))
    else:
        metrics = {
            "wall_s": {"value": statistics.median(doc["walls"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": doc["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": not failed,
                      "attempted": len(doc["checks"]),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
