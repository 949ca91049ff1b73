"""Checks of the CLI's printed output and CSV files against reference values.

Printed cells carry 3 decimals (half away from zero), so they must lie
within PRINT_TOL of the reference; CSV cells carry full precision and
must lie within ``reference.PROB_TOL``.
"""

from __future__ import annotations

import csv
import io
import math
import re

import paper
import reference as ref

PRINT_TOL = 5e-4 + 1e-9
VERIFY_TOL = 5e-7 + 1e-12  # verify prints 6 decimals
NUMERIC_ROW = re.compile(r"^\s*-?\d+\.\d+(\s+-?\d+\.\d+){3}\s*$")
LABELS = {(True, True): "GO", (False, False): "NO-GO",
          (True, False): "INCONCLUSIVE (case 3)", (False, True): "INCONCLUSIVE (case 4)"}


def read_config(path) -> dict:
    """The benchmark's own reading of a flat ``key = value`` config."""
    cfg = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        if key == "grid":
            cfg[key] = [float(v) for v in value.split(",")]
        elif key in ("endpoint", "design_kind", "label"):
            cfg[key] = value
        elif key in ("n", "n_events", "r_go", "r_nogo", "n_max", "seed", "reps"):
            cfg[key] = int(value)
        else:
            cfg[key] = float(value)
    return cfg


def _kv(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out


def _tables(stdout: str) -> list[list[list[float]]]:
    """Numeric rows of each table, tables separated by blank lines."""
    return [
        [[float(x) for x in line.split()] for line in block.splitlines() if NUMERIC_ROW.match(line)]
        for block in stdout.strip().split("\n\n")
    ]


def _reference_oc(cfg: dict):
    """A function of the true effect giving the reference OC, or None for
    an excused design."""
    kind = (cfg["endpoint"], cfg["design_kind"])
    sigma, null_hr = cfg.get("sigma", 2.0), cfg.get("null_hr", 1.0)
    if kind == ("tte", "dual"):
        return lambda x: ref.tte_dual_oc(cfg["alpha"], null_hr, cfg["decision_hr"], sigma, cfg["n_events"], x)
    if kind == ("tte", "standard"):
        n = cfg.get("n_events") or ref.tte_standard_events(cfg["alpha"], cfg["beta"], null_hr, cfg["alt_hr"], sigma)[0]
        return lambda x: ref.tte_standard_oc(cfg["alpha"], null_hr, sigma, n, x)
    if kind == ("binary", "dual"):
        args = (cfg["prior_a"], cfg.get("prior_b", 1.0), cfg["null_orr"], cfg["sig_prob"], cfg["decision_orr"], cfg["n"])
        return lambda x: ref.binary_oc(*args, x)
    return lambda x: ref.three_outcome_oc(cfg["n"], cfg["r_nogo"], cfg["r_go"], x)


def _check_rows(rows, cfg, checks, what, published=None):
    oc_of = _reference_oc(cfg)
    checks.expect(len(rows) == len(cfg["grid"]), f"{what}: {len(rows)} rows for {len(cfg['grid'])} grid points")
    for i, (row, effect) in enumerate(zip(rows, cfg["grid"])):
        checks.close(row[0], effect, PRINT_TOL, f"{what} effect column")
        want = oc_of(effect)
        if want is None:
            checks.excused += 1
        else:
            for got, w in zip(row[1:], want):
                checks.close(got, w, PRINT_TOL, lambda: f"{what} at {effect}")
        if published:
            for got, w in zip(row[1:], published[i]):
                if w is not None:
                    checks.close(got, w, paper.PUBLISHED_TOL + 1e-9, lambda: f"{what} at {effect} vs published")


def _check_size(cfg, stdout, checks, what):
    kv = _kv(stdout)
    kind = (cfg["endpoint"], cfg["design_kind"])
    sigma, null_hr, level = cfg.get("sigma", 2.0), cfg.get("null_hr", 1.0), 0.95
    z_level = ref.norm_ppf(0.5 * (1.0 + level))

    def size(key, want_tie):
        want, tie = want_tie
        got = int(kv[key])
        if tie and abs(got - want) <= 1:
            checks.excused += 1
        else:
            checks.expect(got == want, f"{what}: {key} = {got}, want {want}")
        return got

    def cell(key, want):
        checks.close(float(kv[key]), want, PRINT_TOL, f"{what}: {key}")

    if kind == ("tte", "dual"):
        alpha, dv = cfg["alpha"], cfg["decision_hr"]
        n_min = size("n_min", ref.tte_min_events(alpha, null_hr, dv, sigma))
        cell("estimate threshold at n_min", min(dv, ref.tte_threshold(alpha, null_hr, sigma, n_min)))
        cell("implied CI half-width factor at n_min (level 0.95)", math.exp(z_level * sigma / math.sqrt(n_min)))
        if "n_events" in cfg:
            n = cfg["n_events"]
            checks.expect(int(kv["n_events"]) == n, f"{what}: n_events")
            t_sig = ref.tte_threshold(alpha, null_hr, sigma, n)
            cell("GO threshold at n_events", min(dv, t_sig))
            cell("significance threshold at n_events", t_sig)
            cell("implied CI half-width factor at n_events (level 0.95)", math.exp(z_level * sigma / math.sqrt(n)))
    elif kind == ("tte", "standard"):
        n = size("n", ref.tte_standard_events(cfg["alpha"], cfg["beta"], null_hr, cfg["alt_hr"], sigma))
        cell("estimate threshold at n", ref.tte_threshold(cfg["alpha"], null_hr, sigma, n))
        cell("implied CI half-width factor at n (level 0.95)", math.exp(z_level * sigma / math.sqrt(n)))
    elif kind == ("binary", "dual"):
        args = (cfg["prior_a"], cfg.get("prior_b", 1.0), cfg["null_orr"], cfg["sig_prob"], cfg["decision_orr"])
        size("n_min", ref.binary_min_sample_size(*args, cfg.get("n_max", 1000)))
        if "n" in cfg:
            decisions = ref.binary_decisions(*args, cfg["n"])
            want = ref.binary_min_responders(decisions)
            checks.expect(kv["min responders for GO at n"] == ("unreachable" if want is None else str(want))
                          or any(e for _, _, e in decisions), f"{what}: min responders")
    else:
        constraints = (cfg["p0"], cfg["p1"], cfg["alpha"], cfg["beta"], cfg["eta"], cfg["pi"])
        (n, r_nogo, r_go), tie = ref.three_outcome_search(*constraints, cfg.get("n_max", 100))
        printed = (int(kv["n"]), int(re.search(r"NO-GO at r <= (\d+)", stdout).group(1)),
                   int(re.search(r"GO at r >= (\d+)", stdout).group(1)))
        checks.expect(printed == (n, r_nogo, r_go) or tie, f"{what}: design {printed}, want {(n, r_nogo, r_go)}")
        pairs, tie = ref.three_outcome_pairs(n, *constraints)
        got = [tuple(map(int, p)) for p in re.findall(r"\((\d+), (\d+)\)", kv["feasible (r_nogo, r_go) pairs at n"])]
        checks.expect(got == pairs or tie, f"{what}: feasible pairs {got}, want {pairs}")


def _check_oc_csv(cfg, text, checks, what):
    rows = list(csv.reader(io.StringIO(text)))
    checks.expect(rows[0] == ["true_effect", "p_go", "p_nogo", "p_inconclusive"], f"{what}: CSV header")
    body = [[float(x) for x in row] for row in rows[1:]]
    checks.expect(len(body) == len(cfg["grid"]), f"{what}: CSV has {len(body)} rows")
    oc_of = _reference_oc(cfg)
    for row, effect in zip(body, cfg["grid"]):
        checks.expect(row[0] == effect, f"{what}: CSV effect {row[0]} for {effect}")
        checks.close(sum(row[1:]), 1.0, ref.PROB_TOL, f"{what}: CSV row sum at {effect}")
        want = oc_of(effect)
        if want is None:
            checks.excused += 1
            continue
        for got, w in zip(row[1:], want):
            checks.close(got, w, ref.PROB_TOL, f"{what}: CSV at {effect}")


def _check_decide(cfg, r, stdout, text, checks, what):
    n = cfg["n"]
    a, b = cfg["prior_a"] + r, cfg.get("prior_b", 1.0) + n - r
    sig, rel, tie = ref.binary_decisions(cfg["prior_a"], cfg.get("prior_b", 1.0), cfg["null_orr"],
                                         cfg["sig_prob"], cfg["decision_orr"], n)[r]
    lines = stdout.splitlines()
    label, _, rest = lines[0].partition(": ")
    if tie:
        checks.excused += 1
    else:
        checks.expect(label == LABELS[(sig, rel)], f"{what}: decision {label}, want {LABELS[(sig, rel)]}")
        checks.expect(lines[1].endswith("-> met" if sig else "-> not met"), f"{what}: statistical criterion")
        checks.expect(lines[2].endswith("-> met" if rel else "-> not met"), f"{what}: clinical criterion")
    prob_positive, median = (float(v) for v in re.findall(r"=(\d+\.\d+)", rest))
    checks.close(prob_positive, float(1 - ref.beta_cdf_mp(a, b, cfg["null_orr"])), PRINT_TOL,
                 f"{what}: prob_positive")
    # The printed median rounds the true one, which therefore lies within
    # half a unit of the last digit.
    checks.expect(ref.beta_cdf_mp(a, b, max(0.0, median - PRINT_TOL)) <= 0.5 <= ref.beta_cdf_mp(a, b, min(1.0, median + PRINT_TOL)),
                  f"{what}: posterior median {median}")
    rows = list(csv.reader(io.StringIO(text)))
    checks.expect(rows[0] == ["orr", "density", "cdf"], f"{what}: posterior CSV header")
    body = [[float(x) for x in row] for row in rows[1:]]
    checks.expect(len(body) == 1000, f"{what}: posterior CSV has {len(body)} rows")
    for i in range(0, len(body), 50):
        orr, density, cdf = body[i]
        checks.expect(orr == (2 * i + 1) / 2000.0, f"{what}: posterior CSV grid")
        checks.close(cdf, float(ref.beta_cdf_mp(a, b, orr)), ref.PROB_TOL, f"{what}: posterior CDF at {orr}")
        pdf = float(ref.beta_pdf_mp(a, b, orr))
        checks.close(density, pdf, 1e-9 * max(1.0, pdf), f"{what}: posterior density at {orr}")


def _check_verify(cfg, reps, stdout, checks, what):
    oc_of = _reference_oc(cfg)
    lines = stdout.strip().splitlines()
    checks.expect(lines[-1] == "verification PASSED", f"{what}: {lines[-1]}")
    rows = [line.split() for line in lines if line.split()[1:2] and line.split()[1] in ("p_go", "p_nogo", "p_inconclusive")]
    checks.expect(len(rows) == 3 * len(cfg["grid"]), f"{what}: {len(rows)} verify rows")
    for k, row in enumerate(rows):
        effect = cfg["grid"][k // 3]
        want = oc_of(effect)
        checks.expect(row[-1] == "PASS", f"{what}: {row}")
        if want is None:
            checks.excused += 1
            continue
        p = want[k % 3]
        checks.close(float(row[2]), p, VERIFY_TOL, f"{what}: analytic {row[1]} at {effect}")
        limit = ref.mc_limit(reps, min(max(p, 0.0), 1.0)) / reps
        checks.close(float(row[3]), p, limit + VERIFY_TOL, f"{what}: simulated {row[1]} at {effect}")


def check_command(cmd, out, checks) -> None:
    stdout, csv_text = out
    what = f"{cmd.kind} #{cmd.index}"
    cfgs = [read_config(path) for path in cmd.configs]
    if cmd.kind == "size":
        _check_size(cfgs[0], stdout, checks, what)
    elif cmd.kind == "oc":
        _check_rows(_tables(stdout)[0], cfgs[0], checks, what)
        _check_oc_csv(cfgs[0], csv_text, checks, what)
    elif cmd.kind == "decide":
        _check_decide(cfgs[0], cmd.extra["observed"], stdout, csv_text, checks, what)
    elif cmd.kind == "compare":
        tables = _tables(stdout)
        checks.expect(len(tables) == len(cfgs), f"{what}: {len(tables)} tables for {len(cfgs)} configs")
        published = paper.TTE_TABLE if cfgs[0]["endpoint"] == "tte" else paper.BINARY_TABLE
        for i, (rows, cfg) in enumerate(zip(tables, cfgs)):
            _check_rows(rows, cfg, checks, f"{what} table {i + 1}", published[f"design{i + 1}"])
    else:
        _check_verify(cfgs[0], cmd.extra["reps"], stdout, checks, what)
