"""Runs one workload in a fresh interpreter: set up, time, check, report.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints ``READY`` on standard output once set-up (imports, input
generation, warm-up) is done; ``run.py`` times set-up up to that line. With
``--setup-only`` it then exits. Otherwise it runs the workload as a closed
loop with one caller and prints one JSON line with the raw result.

With ``--trace 0`` the loop attempts whole rounds of operations until
``--seconds`` have passed. With ``--trace 1`` it makes one pass over the
seeded pool instead, timing each operation untraced and then traced, so
that the per-layer counts repeat exactly for a given seed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workload import BENCH_DIR, ROOT, SRC, child_env

OUT = BENCH_DIR / "out"

WORKLOADS = ("oracle_verify", "design_study", "cli_session")


class Checks:
    """Failures found by the output checks, plus the near-tie cases that
    were excused and the number of comparisons made."""

    def __init__(self):
        self.failures: list[str] = []
        self.excused = 0
        self.compared = 0

    def expect(self, ok: bool, message) -> None:
        self.compared += 1
        if not ok:
            self.failures.append(message() if callable(message) else message)

    def close(self, got: float, want: float, tol: float, what) -> None:
        self.expect(abs(got - want) <= tol, lambda: f"{what() if callable(what) else what}: got {got!r}, want {want!r} (tol {tol})")


def wall_of(argv: list[str]) -> float:
    """Wall time of one child process, in seconds; it must exit 0."""
    start = time.perf_counter()
    subprocess.run(argv, env=child_env(), cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def import_floor(repeats: int = 5) -> tuple[float, float]:
    """Median wall time of a bare interpreter and of ``import dualcrit``
    (minus the bare interpreter), in milliseconds."""
    bare = statistics.median(wall_of([sys.executable, "-c", "pass"]) for _ in range(repeats))
    imp = statistics.median(wall_of([sys.executable, "-c", "import dualcrit"]) for _ in range(repeats))
    return 1e3 * bare, 1e3 * (imp - bare)


def load_workload(name: str, seed: int, work: Path):
    """The workload object; only the in-process workloads import dualcrit."""
    if name == "cli_session":
        from wl_cli import CliSession

        return CliSession(None, seed, work)
    import dualcrit

    if name == "oracle_verify":
        from wl_oracle import OracleVerify as cls
    else:
        from wl_design import DesignStudy as cls
    return cls(dualcrit, seed, work)


def timed_loop(wl, seconds: float):
    """Whole rounds until ``seconds`` have passed; returns (results,
    latencies, span, failures)."""
    results, latencies, failures = [], [], []
    rounds = wl.rounds
    k = 0
    start = time.perf_counter()
    while True:
        for op in rounds[k % len(rounds)]:
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
            except Exception:  # an operation that raises counts as failed
                latencies.append(time.perf_counter() - t0)
                failures.append(f"{op!r}: {traceback.format_exc(limit=2)}")
                continue
            latencies.append(time.perf_counter() - t0)
            results.append((op, out))
        k += 1
        if time.perf_counter() - start >= seconds:
            break
    return results, latencies, time.perf_counter() - start, failures


def traced_pass(wl):
    """One pass over the pool: each operation untraced, then traced."""
    from tracer import PARENT, summarize

    untraced, traced, results, failures, spans = [], [], [], [], []
    index = 0
    for rnd in wl.rounds:
        for op in rnd:
            try:
                t0 = time.perf_counter()
                out = wl.run(op)
                untraced.append(time.perf_counter() - t0)
                results.append((op, out))
                t0 = time.perf_counter()
                out, op_spans = wl.run_traced(op, index)
                traced.append(time.perf_counter() - t0)
                results.append((op, out))
                # Parents in op_spans index op_spans itself; rebase them.
                base = len(spans)
                for span in op_spans:
                    if span[PARENT] >= 0:
                        span[PARENT] += base
                spans.extend(op_spans)
            except Exception:
                failures.append(f"{op!r}: {traceback.format_exc(limit=2)}")
            index += 1
    metrics = summarize(spans)
    ops = len(traced)
    metrics["trace.ops"] = ops
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(untraced))
    metrics["trace.op_ms"] = 1e3 * sum(untraced) / ops
    metrics["trace.traced_op_ms"] = 1e3 * sum(traced) / ops
    metrics["trace.layer_self_per_op_ms"] = metrics.pop("trace.layer_self_ms") / ops
    metrics.pop("trace.spans")
    metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = import_floor()
    return results, failures, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not (SRC / "dualcrit" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'dualcrit'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        wl = load_workload(args.workload, args.seed, work)
        wl.setup()
        wl.warm_up()
        print("READY", flush=True)
        if args.setup_only:
            return 0
        if args.trace:
            results, failures, metrics = traced_pass(wl)
        else:
            results, latencies, span, failures = timed_loop(wl, args.seconds)
            peak_kb = resource.getrusage(wl.rss_who).ru_maxrss
            metrics = {
                "ops_per_s": len(results) / span,
                "op_p50_ms": 1e3 * statistics.median(latencies),
                "op_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
                "peak_rss_mb": peak_kb / 1024.0,
            }
        checks = Checks()
        wl.check(results, checks)
        report = {
            "attempted": len(results) + len(failures),
            "failed": len(failures),
            "correct": not checks.failures,
            "metrics": metrics,
            "notes": {
                "distinct_ops": sum(len(r) for r in wl.rounds),
                "comparisons": checks.compared,
                "excused_near_ties": checks.excused,
                "check_failures": checks.failures[:20],
                "op_failures": failures[:5],
            },
        }
        print(json.dumps(report), flush=True)
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
