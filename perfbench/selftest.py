"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/selftest.py

Each workload runs briefly end to end and reports every metric; a
deliberately perturbed output fails its workload's check; traced counts
repeat exactly; and the benchmark refuses to run without the program's
source. The file name keeps it out of the default test collection,
because it launches the benchmark (about a minute in all).
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

from worker import Checks, load_workload  # noqa: E402

WORKLOADS = ("oracle_verify", "design_study", "cli_session")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
                          text=True, timeout=180)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_brief_run_reports_every_metric(workload):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def _first_round(workload, tmp_path, seed=5):
    wl = load_workload(workload, seed, tmp_path)
    wl.setup()
    return wl, [(op, wl.run(op)) for op in wl.rounds[0]]


def _checked(wl, results):
    checks = Checks()
    wl.check(results, checks)
    return checks


def _perturb_oracle(results):
    (op, (analytic, simulated, gate)), rest = results[0], results[1:]
    shifted = dataclasses.replace(analytic, p_go=analytic.p_go + 1e-6, p_nogo=analytic.p_nogo - 1e-6)
    return [(op, (shifted, simulated, gate))] + rest


def _perturb_design(results):
    (op, out), rest = results[0], results[1:]
    return [(op, dict(out, n_min_binary=out["n_min_binary"] + 1))] + rest


def _perturb_cli(results):
    # The first compare table: move one printed probability by 0.002.
    for i, (cmd, (stdout, csv_text)) in enumerate(results):
        if cmd.kind == "compare":
            lines = stdout.splitlines()
            row = lines[2].split()
            row[1] = f"{float(row[1]) + 0.002:.3f}"
            lines[2] = "  ".join(row)
            return results[:i] + [(cmd, ("\n".join(lines) + "\n", csv_text))] + results[i + 1:]
    raise AssertionError("no compare command in the round")


@pytest.mark.parametrize("workload, perturb", [
    ("oracle_verify", _perturb_oracle),
    ("design_study", _perturb_design),
    ("cli_session", _perturb_cli),
])
def test_perturbed_output_fails_its_check(workload, perturb, tmp_path):
    wl, results = _first_round(workload, tmp_path)
    assert not _checked(wl, results).failures
    assert _checked(wl, perturb(results)).failures


def test_simulated_counts_outside_the_limit_fail(tmp_path):
    wl, results = _first_round("oracle_verify", tmp_path)
    op, (analytic, simulated, gate) = results[0]
    go, nogo, inc = simulated.counts
    moved = dataclasses.replace(simulated, counts=(go - 500, nogo + 500, inc))
    assert _checked(wl, [(op, (analytic, moved, gate))]).failures


def test_traced_counts_repeat(tmp_path):
    from tracer import summarize

    wl, _ = _first_round("design_study", tmp_path)
    op = wl.rounds[0][1]
    first = summarize(wl.run_traced(op, 0)[1])
    second = summarize(wl.run_traced(op, 0)[1])
    counts = [k for k in first if k.endswith(("calls", "values", "replicates"))]
    assert counts and all(first[k] == second[k] for k in counts)
    assert first["distributions.beta_cdf.calls"] > 0 and first["binary.size_search.beta_cdf_calls"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "design_study", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_monotone_allows_rounding_not_a_real_dip():
    import reference as ref

    assert ref.monotone([0.5, 0.9999999999999987, 0.9999999999999961], increasing=True)
    assert not ref.monotone([0.5, 0.9, 0.9 - 1e-6], increasing=True)
    assert not ref.monotone([0.9, 0.5, 0.5 + 1e-6], increasing=False)


def test_rounding_dip_in_p_go_passes_the_oracle_check(tmp_path):
    # P(GO) of this binary design dips by 2.6e-15 between ORR 0.74 and 0.78.
    from worker import load_workload
    from wl_oracle import Scenario

    wl = load_workload("oracle_verify", 5, tmp_path)
    params = (0.12620360783338344, 1.0, 0.08513661815615292, 0.9, 0.20828789059540492, 53)
    wl.rounds = [[Scenario("binary", 0, 0.14, params, wl._design("binary", params), None)]]
    checks = Checks()
    wl._check_monotone(checks)
    assert checks.compared == 1 and not checks.failures
