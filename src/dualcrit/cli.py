"""Command-line front end.

Subcommands: ``size`` (minimum sample sizes and implied thresholds),
``oc`` (operating-characteristic tables, optional CSV), ``decide``
(classify an observed result), ``compare`` (stacked OC tables for several
designs), and ``verify`` (analytic vs simulated operating characteristics).

Exit codes: 0 success, 2 config or parse error, 3 infeasible design,
4 verification failure, 141 standard output closed early (as by
``| head``), which ends the command quietly, as a SIGPIPE would.
"""

from __future__ import annotations

import argparse
import os
import sys
import warnings

from .config import (
    ResolvedDesign,
    apply_overrides,
    dump_config,
    load_config,
    resolve_design,
)
from .distributions import beta_cdf, beta_pdf
from .oracle import SimulationConfig, monte_carlo_cells
from .outcomes import OUTCOMES, InfeasibleDesignError
from .tables import fmt3, render_table, write_csv

EXIT_OK = 0
EXIT_CONFIG_ERROR = 2
EXIT_INFEASIBLE = 3
EXIT_VERIFY_FAILED = 4
EXIT_BROKEN_PIPE = 128 + 13

MIN_REPORTED_REPLICATES = 1000
# Options that are shorthands for --set KEY=VALUE, with their metavars.
SET_SHORTHANDS = {"grid": "V1,V2,...", "seed": "N", "reps": "N"}
# The heading of the true-effect column, by endpoint.
EFFECT_COLUMN = {"tte": "true_hr", "binary": "true_orr"}


class _StoreOnce(argparse.Action):
    """Store an option's value; giving the option twice is an error, not a
    silent override by the last value."""

    def __call__(self, parser, namespace, values, option_string=None):
        given = vars(namespace).setdefault("_given_once", set())
        if self.dest in given:
            raise argparse.ArgumentError(self, "may be given only once")
        given.add(self.dest)
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dualcrit",
        description="Sizing, decisions, and operating characteristics for "
        "phase II dual-criterion GO/NO-GO designs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, multi_config: bool = False):
        if multi_config:
            sp.add_argument(
                "--config",
                action="append",
                required=True,
                metavar="PATH",
                help="design config file; repeat for each design",
            )
        else:
            sp.add_argument("--config", action=_StoreOnce, required=True, metavar="PATH")
        sp.add_argument(
            "--set",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config value (repeatable)",
        )
        for key, metavar in SET_SHORTHANDS.items():
            sp.add_argument(f"--{key}", action=_StoreOnce, metavar=metavar, help=f"--set {key}={metavar}")
        if not multi_config:
            sp.add_argument(
                "--dump-config",
                action=_StoreOnce,
                metavar="PATH",
                help="write the effective config (after overrides) and continue",
            )

    sp = sub.add_parser("size", help="minimum sample size and implied thresholds")
    add_common(sp)
    sp.set_defaults(handler=cmd_size)

    sp = sub.add_parser("oc", help="operating characteristics over a true-effect grid")
    add_common(sp)
    sp.add_argument("--csv", action=_StoreOnce, metavar="PATH", help="also write the table as CSV")
    sp.set_defaults(handler=cmd_oc)

    sp = sub.add_parser("decide", help="classify an observed trial result")
    add_common(sp)
    sp.add_argument(
        "--observed",
        action=_StoreOnce,
        required=True,
        metavar="VALUE",
        help="estimated hazard ratio (tte) or responder count (binary)",
    )
    sp.add_argument(
        "--csv",
        action=_StoreOnce,
        metavar="PATH",
        help="write the posterior density and CDF over an ORR grid "
        "(binary dual-criterion designs only)",
    )
    sp.set_defaults(handler=cmd_decide)

    sp = sub.add_parser("compare", help="stacked OC tables for several designs")
    add_common(sp, multi_config=True)
    sp.add_argument("--csv", action=_StoreOnce, metavar="PATH", help="also write all rows as CSV")
    sp.set_defaults(handler=cmd_compare)

    sp = sub.add_parser("verify", help="analytic vs simulated OC, 3-SE gate per cell")
    add_common(sp)
    sp.add_argument(
        "--corrupt-go-boundary",
        action=_StoreOnce,
        type=int,
        default=0,
        metavar="DELTA",
        help="negative control: shift the analytic GO cut point by DELTA "
        "responders (binary) or DELTA standard errors of the log HR (tte) so "
        "the check must fail; +DELTA makes GO harder",
    )
    sp.set_defaults(handler=cmd_verify)
    return parser


def _effective_config(args, path: str) -> dict:
    shorthands = [f"{key}={value}" for key in SET_SHORTHANDS if (value := getattr(args, key)) is not None]
    cfg = apply_overrides(load_config(path), args.set + shorthands)
    if getattr(args, "dump_config", None):
        dump_config(cfg, args.dump_config)
    return cfg


def _require_grid(rd: ResolvedDesign) -> list[float]:
    if not rd.grid:
        raise ValueError("this command needs a true-effect grid (key 'grid' or --grid)")
    return rd.grid


def _caption(rd: ResolvedDesign) -> str:
    return rd.label if rd.label else rd.entry.caption(rd.design)


def _print_oc(designs: list[ResolvedDesign], csv_path: str | None, design_column: bool) -> None:
    """Write every row to ``csv_path`` when given, then print each
    design's OC table over its grid, a blank line between tables; with
    ``design_column``, each CSV row starts with its table's caption."""
    tables, csv_rows = [], []
    for rd in designs:
        grid = _require_grid(rd)
        rule = getattr(rd.design, "cut_rule", None)
        if rule is None:
            raise ValueError(f"operating characteristics are not defined for {rd.kind} designs")
        ocs = [rule.oc(true_effect) for true_effect in grid]
        caption = _caption(rd)
        headers = [EFFECT_COLUMN[rd.endpoint], *OUTCOMES]
        tables.append(render_table(caption, headers, [[fmt3(oc.true_effect), *map(fmt3, oc.probs)] for oc in ocs]))
        lead = [caption] if design_column else []
        csv_rows += ([*lead, oc.true_effect, *oc.probs] for oc in ocs)
    if csv_path:
        write_csv(csv_path, (["design"] if design_column else []) + ["true_effect", *OUTCOMES], csv_rows)
    print("\n\n".join(tables))


def cmd_size(args) -> int:
    cfg = _effective_config(args, args.config)
    rd = resolve_design(cfg)
    print("\n".join(rd.entry.size(cfg, rd.design)))
    return EXIT_OK


def cmd_oc(args) -> int:
    _print_oc([resolve_design(_effective_config(args, args.config))], args.csv, design_column=False)
    return EXIT_OK


def cmd_decide(args) -> int:
    cfg = _effective_config(args, args.config)
    rd = resolve_design(cfg)
    if rd.entry.decide is None:
        raise ValueError(f"decide needs a dual-criterion design ({rd.endpoint})")
    posterior, lines = rd.entry.decide(rd.design, args.observed)
    if args.csv:
        if posterior is None:
            raise ValueError("--csv posterior output is only available for binary dual designs")
        # The posterior density and CDF on an interior ORR grid, for plotting.
        orrs = [(2 * i + 1) / 2000.0 for i in range(1000)]
        write_csv(args.csv, ["orr", "density", "cdf"], [[x, beta_pdf(posterior, x), beta_cdf(posterior, x)] for x in orrs])
    print("\n".join(lines))
    return EXIT_OK


def cmd_compare(args) -> int:
    if len(args.config) < 2:
        raise ValueError("compare needs at least two --config files")
    resolved = [resolve_design(_effective_config(args, path)) for path in args.config]
    endpoints = {rd.endpoint for rd in resolved}
    if len(endpoints) > 1:
        raise ValueError(f"compare needs a single endpoint, got {sorted(endpoints)}")
    grids = {tuple(_require_grid(rd)) for rd in resolved}
    if len(grids) > 1:
        raise ValueError("compare needs the same true-effect grid for every design")
    _print_oc(resolved, args.csv, design_column=True)
    return EXIT_OK


def cmd_verify(args) -> int:
    rd = resolve_design(_effective_config(args, args.config))
    grid = _require_grid(rd)
    if rd.reps < MIN_REPORTED_REPLICATES:
        raise ValueError(f"verify needs at least {MIN_REPORTED_REPLICATES} replicates, got {rd.reps}")
    if rd.entry.simulate is None:
        raise ValueError(f"verify is not defined for {rd.kind} designs")
    rule = rd.design.cut_rule.shifted(args.corrupt_go_boundary)

    rows = []
    all_pass = True
    for index, true_effect in enumerate(grid):
        sim_cfg = SimulationConfig(seed=rd.seed, n_replicates=rd.reps, scenario=index)
        analytic = rule.oc(true_effect)
        simulated = rd.entry.simulate(rd.design, true_effect, sim_cfg)
        for cell in monte_carlo_cells(analytic, simulated):
            all_pass = all_pass and cell.passed
            numbers = (cell.analytic, cell.simulated, abs(cell.analytic - cell.simulated), cell.limit)
            status = "PASS" if cell.passed else "FAIL"
            rows.append([fmt3(true_effect), cell.outcome, *(f"{x:.6f}" for x in numbers), status])
    caption = f"verify: {_caption(rd)} (seed={rd.seed}, reps={rd.reps})"
    headers = [EFFECT_COLUMN[rd.endpoint], "outcome", "analytic", "simulated", "diff", "limit_3se", "status"]
    print(render_table(caption, headers, rows))
    print("verification " + ("PASSED" if all_pass else "FAILED"))
    return EXIT_OK if all_pass else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # Under the filters in force, a warning is one line without its source.
    with warnings.catch_warnings():
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            code = args.handler(args)
            sys.stdout.flush()  # a closed reader is met here, not at exit
            return code
        except BrokenPipeError:
            with open(os.devnull, "w") as devnull:  # for the flush at exit
                os.dup2(devnull.fileno(), sys.stdout.fileno())
            return EXIT_BROKEN_PIPE
        except InfeasibleDesignError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_INFEASIBLE
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
