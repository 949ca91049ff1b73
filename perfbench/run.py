"""Benchmark entry point: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload oracle_verify|design_study|cli_session \\
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from its
``src/`` directory, never from an installed copy. Each run launches the
workload in a fresh single-threaded interpreter (``worker.py``).

With ``--trace 0`` it first launches SETUP_PROBES more interpreters that
only set up, and reports ``setup_s`` as the median over those and the
measured run: the time from launching the interpreter to its first timed
operation (interpreter start, imports, input generation and warm-up).
The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
With ``--trace 1`` the metrics are the per-layer ones from one traced pass.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKER = BENCH_DIR / "worker.py"
# A run, its set-up probes and its checks must end well within 180 s.
TIMEOUT_S = 170
SETUP_PROBES = 6


def launch(args, deadline: float, setup_only: bool) -> tuple[float, str]:
    """Start a worker, return (seconds until it printed READY, its final
    stdout line). Single-threaded numerics: one caller, one core."""
    argv = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"error: {args.workload} worker timed out")
    if proc.returncode != 0 or first.strip() != "READY":
        raise SystemExit(f"error: {args.workload} worker exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return ready, lines[-1] if lines else ""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("oracle_verify", "design_study", "cli_session"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "dualcrit" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIMEOUT_S

    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            setups.append(launch(args, deadline, setup_only=True)[0])
    ready, line = launch(args, deadline, setup_only=False)
    setups.append(ready)
    raw = json.loads(line)
    for note, value in raw["notes"].items():
        print(f"{note}: {value}", file=sys.stderr)

    if not args.trace:
        raw["metrics"]["setup_s"] = statistics.median(setups)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    missing = {m["name"] for m in spec} - set(raw["metrics"])
    if missing:
        raise SystemExit(f"error: metrics not measured: {sorted(missing)}")
    metrics = {m["name"]: {"value": raw["metrics"][m["name"]], "unit": m["unit"]} for m in spec}
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
