"""End-to-end command-line behaviour, including the golden table fixtures,
config round-trips, CSV output, and exit codes."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from dualcrit import distributions, oracle
from dualcrit.cli import main
from dualcrit.config import load_config, parse_value, resolve_design
from dualcrit.tables import render_table

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
DATA = Path(__file__).resolve().parent / "data"
CLI_BYTES = Path(__file__).resolve().parent / "cli_bytes.json"

TTE_CONFIGS = [str(CONFIGS / f"randomized_tte_design{i}.cfg") for i in range(1, 6)]
BINARY_CONFIGS = [str(CONFIGS / f"single_arm_binary_design{i}.cfg") for i in range(1, 4)]
NO_POSTERIOR_CSV = "error: --csv posterior output is only available for binary dual designs"


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def without_keys(path, *keys) -> str:
    """The text of a config file with the lines that set ``keys`` dropped."""
    return "".join(
        line for line in Path(path).read_text().splitlines(True)
        if line.partition("=")[0].strip() not in keys
    )


def run_module(*argv, python_args=("-m", "dualcrit"), stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    """``python -m dualcrit`` in a child process importing this checkout;
    ``python_args`` replaces ``-m dualcrit`` ahead of ``argv``."""
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return subprocess.run(
        [sys.executable, *python_args, *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )


class TestSize:
    def test_tte_dual(self, capsys):
        code, out, _ = run(capsys, "size", "--config", TTE_CONFIGS[0])
        assert code == 0
        assert "n_min = 52" in out
        assert "estimate threshold at n_min = 0.700" in out
        assert "significance threshold at n_events = 0.736" in out

    def test_tte_dual_without_n_events(self, capsys, tmp_path):
        cfg = tmp_path / "no_n_events.cfg"
        cfg.write_text(without_keys(TTE_CONFIGS[0], "n_events"))
        code, out, _ = run(capsys, "size", "--config", str(cfg))
        assert code == 0
        assert out.splitlines() == [
            "n_min = 52",
            "estimate threshold at n_min = 0.700",
            "implied CI half-width factor at n_min (level 0.95) = 1.722",
        ]

    def test_tte_standard(self, capsys):
        code, out, _ = run(
            capsys, "size", "--config", TTE_CONFIGS[2],
        )
        assert code == 0
        assert "n = 55" in out
        assert "estimate threshold at n = 0.708" in out

    def test_tte_precision(self, capsys, tmp_path):
        cfg = tmp_path / "prec.cfg"
        cfg.write_text("endpoint = tte\ndesign_kind = precision\nfactor = 1.2\n")
        code, out, _ = run(capsys, "size", "--config", str(cfg))
        assert code == 0
        assert "n = 462" in out

    def test_binary_dual(self, capsys):
        code, out, _ = run(
            capsys, "size", "--config", BINARY_CONFIGS[0], "--set", "n_max=100"
        )
        assert code == 0
        assert "n_min = 22" in out
        assert "min responders for GO at n = 5" in out
        # Beta(1, 1) at null 0.3, sig_prob 0.95 and DV 0.5 needs 15 patients
        # in exact rational arithmetic: the posterior median tie at n = 14,
        # r = 7 is relevant, and not significant.
        overrides = ["prior_a=1", "prior_b=1", "null_orr=0.3", "sig_prob=0.95", "decision_orr=0.5"]
        code, out, _ = run(
            capsys, "size", "--config", BINARY_CONFIGS[0], *(arg for item in overrides for arg in ("--set", item))
        )
        assert (code, out.splitlines()[0]) == (0, "n_min = 15")

    def test_three_outcome_search(self, capsys, tmp_path):
        cfg = tmp_path / "three.cfg"
        cfg.write_text(
            "endpoint = binary\ndesign_kind = three_outcome\n"
            "p0 = 0.075\np1 = 0.275\nalpha = 0.05\nbeta = 0.1\neta = 0.8\npi = 0.9\n"
        )
        code, out, _ = run(capsys, "size", "--config", str(cfg))
        assert code == 0
        assert "n = 27" in out
        assert "NO-GO at r <= 3" in out
        assert "GO at r >= 5" in out
        assert "feasible (r_nogo, r_go) pairs at n = (3, 5)" in out


    def test_binary_search_rejects_sig_prob_below_one_half(self, capsys, tmp_path):
        # Without n the size comes from the grid search alone, which must
        # apply the design's own bound on sig_prob.
        cfg = tmp_path / "no_n.cfg"
        cfg.write_text(without_keys(BINARY_CONFIGS[0], "n"))
        code, out, err = run(capsys, "size", "--config", str(cfg), "--set", "sig_prob=0.3")
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: sig_prob must lie in [0.5, 1), got 0.3"]

    def test_three_outcome_search_rejects_p0_at_or_above_p1_as_the_design_does(self, capsys, tmp_path):
        # Without n, r_go and r_nogo the design comes from the search, which
        # must reject the inputs as the pinned design does: exit 2, not 3.
        cfg = tmp_path / "search.cfg"
        cfg.write_text(without_keys(BINARY_CONFIGS[2], "n", "r_go", "r_nogo"))
        pinned = run(capsys, "size", "--config", BINARY_CONFIGS[2], "--set", "p0=0.4")
        searched = run(capsys, "size", "--config", str(cfg), "--set", "p0=0.4")
        assert searched == pinned == (2, "", "error: p0 must be below p1, got 0.4 >= 0.275\n")


class TestStandardDesignSigma:
    """The standard design's event count, threshold and OC at sigma != 2,
    against the normal approximation written out with scipy's Cephes
    ``ndtr`` and ``ndtri``, which the program does not use for these."""

    @pytest.mark.parametrize(
        "sigma,n_events", [(3.0, None), (2.5, 77)], ids=["sized", "given_size"]
    )
    def test_size_and_oc_csv(self, capsys, tmp_path, sigma, n_events):
        # Imported here, so that the rest of the module runs without scipy.
        special = pytest.importorskip("scipy.special")
        ndtr, ndtri = special.ndtr, special.ndtri
        sets = ["--set", f"sigma={sigma}"]
        if n_events is not None:
            sets = ["--set", f"n_events={n_events}", *sets]
        alpha, beta, alt_hr = 0.1, 0.1, 0.5  # randomized_tte_design3.cfg
        z_a, z_b = -float(ndtri(alpha)), -float(ndtri(beta))
        if n_events is None:
            root = sigma * (z_a + z_b) / -math.log(alt_hr)
            n_events = math.ceil(root**2 - 1e-9)
        s = sigma / math.sqrt(n_events)
        log_threshold = -z_a * s

        code, out, _ = run(capsys, "size", "--config", TTE_CONFIGS[2], *sets)
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == f"n = {n_events}"
        assert float(lines[1].rpartition(" = ")[2]) == pytest.approx(
            math.exp(log_threshold), abs=5e-4
        )
        assert float(lines[2].rpartition(" = ")[2]) == pytest.approx(
            math.exp(-float(ndtri(0.025)) * s), abs=5e-4
        )

        csv_path = tmp_path / "oc.csv"
        code, out, _ = run(capsys, "oc", "--config", TTE_CONFIGS[2], *sets, "--csv", str(csv_path))
        assert code == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(row["true_effect"]) for row in rows] == [0.5, 0.6, 0.7, 0.8, 0.9, 1.0]
        for row in rows:
            x = (log_threshold - math.log(float(row["true_effect"]))) / s
            assert float(row["p_go"]) == pytest.approx(float(ndtr(x)), rel=1e-12, abs=0)
            assert float(row["p_nogo"]) == pytest.approx(float(ndtr(-x)), rel=1e-12, abs=0)
            assert float(row["p_inconclusive"]) == 0.0


class TestOc:
    def test_table_and_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "oc.csv"
        code, out, _ = run(
            capsys, "oc", "--config", BINARY_CONFIGS[0], "--csv", str(csv_path)
        )
        assert code == 0
        assert "0.036" in out and "0.964" in out
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert [row["true_effect"] for row in rows] == ["0.075", "0.125", "0.175", "0.225", "0.275"]
        for row in rows:
            total = float(row["p_go"]) + float(row["p_nogo"]) + float(row["p_inconclusive"])
            assert abs(total - 1.0) < 1e-9

    def test_figure_data_round_trip(self, capsys, tmp_path):
        csv_path = tmp_path / "figure.csv"
        code, out, _ = run(
            capsys, "oc", "--config", str(CONFIGS / "oc_curve_n309.cfg"),
            "--csv", str(csv_path),
        )
        assert code == 0
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 13
        # power at the decision value stays at one half by construction
        at_dv = next(row for row in rows if float(row["true_effect"]) == 0.8)
        assert float(at_dv["p_go"]) == pytest.approx(0.5, abs=1e-12)

    def test_sample_size_effect_between_panels(self, capsys, tmp_path):
        out_small = tmp_path / "n309.csv"
        out_large = tmp_path / "n420.csv"
        run(capsys, "oc", "--config", str(CONFIGS / "oc_curve_n309.cfg"), "--csv", str(out_small))
        run(capsys, "oc", "--config", str(CONFIGS / "oc_curve_n420.cfg"), "--csv", str(out_large))
        with open(out_small, newline="") as handle:
            small = {float(r["true_effect"]): float(r["p_go"]) for r in csv.DictReader(handle)}
        with open(out_large, newline="") as handle:
            large = {float(r["true_effect"]): float(r["p_go"]) for r in csv.DictReader(handle)}
        assert large[0.7] > small[0.7]
        assert large[0.9] < small[0.9]

    def test_grid_required(self, capsys, tmp_path):
        cfg = tmp_path / "nogrid.cfg"
        cfg.write_text(
            "endpoint = tte\ndesign_kind = dual\nalpha = 0.1\n"
            "decision_hr = 0.7\nn_events = 70\n"
        )
        code, _, err = run(capsys, "oc", "--config", str(cfg))
        assert code == 2
        assert "grid" in err

    def test_invalid_grid_values_rejected(self, capsys):
        code, _, err = run(
            capsys, "oc", "--config", TTE_CONFIGS[0], "--grid", "0.5,-1.0"
        )
        assert code == 2

    def test_precision_design_has_no_oc(self, capsys, tmp_path):
        cfg = tmp_path / "prec.cfg"
        cfg.write_text(
            "endpoint = tte\ndesign_kind = precision\nfactor = 1.2\ngrid = 0.5, 1.0\n"
        )
        code, _, err = run(capsys, "oc", "--config", str(cfg))
        assert code == 2
        assert "precision" in err


class TestDecide:
    def test_binary_go(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--config", BINARY_CONFIGS[0], "--observed", "5"
        )
        assert code == 0
        assert out.splitlines()[0] == "GO: prob_positive=0.967, median=0.187"

    def test_binary_inconclusive_case3(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--config", BINARY_CONFIGS[1], "--observed", "6"
        )
        assert code == 0
        assert out.splitlines()[0] == (
            "INCONCLUSIVE (case 3): prob_positive=0.954, median=0.158"
        )

    def test_tte_nogo(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--config", TTE_CONFIGS[0], "--observed", "0.9"
        )
        assert code == 0
        assert out.startswith("NO-GO:")

    def test_three_outcome_zones(self, capsys):
        code, out, _ = run(
            capsys, "decide", "--config", BINARY_CONFIGS[2], "--observed", "4"
        )
        assert code == 0
        assert out.startswith("INCONCLUSIVE: r=4")

    def test_observed_out_of_range(self, capsys):
        code, _, err = run(
            capsys, "decide", "--config", BINARY_CONFIGS[0], "--observed", "26"
        )
        assert code == 2

    @pytest.mark.parametrize("text", ["many", "5.5", "inf", "nan", "five"])
    def test_observed_wrong_type(self, capsys, text):
        code, out, err = run(capsys, "decide", "--config", BINARY_CONFIGS[0], "--observed", text)
        assert (code, out, err) == (2, "", f"error: --observed must be a responder count, got '{text}'\n")

    def test_posterior_curve_csv(self, capsys, tmp_path):
        curve = tmp_path / "posterior.csv"
        code, _, _ = run(
            capsys, "decide", "--config", BINARY_CONFIGS[0],
            "--observed", "5", "--csv", str(curve),
        )
        assert code == 0
        with open(curve, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 1000
        cdf = [float(row["cdf"]) for row in rows]
        assert all(a <= b for a, b in zip(cdf, cdf[1:]))
        assert cdf[-1] > 0.999
        # midpoint quadrature over the density column matches the CDF
        total = sum(float(row["density"]) for row in rows) / 1000.0
        assert total == pytest.approx(1.0, abs=1e-3)
        # Every byte of the file is pinned, the full-precision floats included.
        assert hashlib.sha256(curve.read_bytes()).hexdigest() == (
            "062d0417a7995d946407916d7b391da1ab5a16f39bd5f3b4bdde40de6ae92e6d"
        )

    @pytest.mark.parametrize(
        "config,observed,error",
        [
            (TTE_CONFIGS[0], "0.9", NO_POSTERIOR_CSV),
            (BINARY_CONFIGS[2], "4", NO_POSTERIOR_CSV),
            # The design decides before --csv is refused.
            (TTE_CONFIGS[0], "five", "error: --observed must be an estimated hazard ratio, got 'five'"),
            (BINARY_CONFIGS[2], "28", "error: responder count must be an integer in [0, 27], got 28"),
        ],
        ids=["tte-dual", "three-outcome", "tte-bad-observed", "three-outcome-bad-observed"],
    )
    def test_posterior_curve_needs_binary_design(self, capsys, tmp_path, config, observed, error):
        path = tmp_path / "posterior.csv"
        code, out, err = run(capsys, "decide", "--config", config, "--observed", observed, "--csv", str(path))
        assert (code, out, err) == (2, "", error + "\n")
        assert not path.exists()

    @pytest.mark.parametrize(
        "config,count,spelling",
        [(BINARY_CONFIGS[0], "5", "5.0"), (BINARY_CONFIGS[0], "5", "5e0"), (BINARY_CONFIGS[2], "4", "4.0")],
        ids=["dual-5.0", "dual-5e0", "three-outcome-4.0"],
    )
    def test_a_count_may_be_written_as_any_integral_number(self, capsys, config, count, spelling):
        # The number rule of the config, where --set n=25.0 is a size.
        written = run(capsys, "decide", "--config", config, "--observed", spelling)
        assert written == run(capsys, "decide", "--config", config, "--observed", count)
        assert written[0] == 0

    # Prior Beta(1, 1) with r = n / 2 gives a posterior Beta(a, a), whose
    # median is exactly the decision value 1/2: an inclusive rule meets it.
    @pytest.mark.parametrize(
        "n,r,verdict",
        [("8", "4", "GO: prob_positive=0.980, median=0.500"),
         ("4", "2", "INCONCLUSIVE (case 4): prob_positive=0.942, median=0.500")],
        ids=["n8-r4", "n4-r2"],
    )
    def test_an_exact_median_tie_meets_the_clinical_criterion(self, capsys, n, r, verdict):
        overrides = ["prior_a=1", "prior_b=1", "null_orr=0.2", "decision_orr=0.5", f"n={n}"]
        code, out, _ = run(
            capsys, "decide", "--config", BINARY_CONFIGS[0], "--observed", r,
            *(arg for item in overrides for arg in ("--set", item)),
        )
        assert code == 0
        lines = out.splitlines()
        assert (lines[0], lines[2]) == (verdict, "clinical criterion: median >= 0.5 -> met")


# The commands whose full output ``cli_bytes.json`` pins for every shipped
# config; verify runs honest and with the GO cut shifted by one.
PINNED_COMMANDS = (
    ("size",),
    ("oc",),
    ("verify", "--reps", "2000"),
    ("verify", "--reps", "2000", "--corrupt-go-boundary", "1"),
)


def cli_outputs() -> dict[str, list]:
    """[exit code, stdout, stderr] of each pinned command on each shipped
    config, keyed by the command line with the config path relative to
    the repository."""
    outputs = {}
    for path in sorted(CONFIGS.glob("*.cfg")):
        for command in PINNED_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command[0], "--config", str(path), *command[1:]])
            key = " ".join([command[0], "--config", f"configs/{path.name}", *command[1:]])
            outputs[key] = [code, out.getvalue(), err.getvalue()]
    return outputs


def test_pinned_outputs_byte_identical():
    assert cli_outputs() == json.loads(CLI_BYTES.read_text(encoding="utf-8"))


def test_an_unwritable_csv_is_a_value_error_raised_without_the_config_module(tmp_path):
    # tables imports nothing from config, and its write error is a plain ValueError.
    script = (
        "import sys\n"
        "from dualcrit import tables\n"
        "try:\n"
        f"    tables.write_csv({str(tmp_path / 'missing' / 'out.csv')!r}, ['a'], [[1.0]])\n"
        "except ValueError as exc:\n"
        "    assert str(exc).startswith('cannot write '), exc\n"
        "else:\n"
        "    sys.exit('no error')\n"
        "assert 'dualcrit.config' not in sys.modules, 'dualcrit.config was imported'\n"
    )
    result = run_module(python_args=("-c", script))
    assert (result.returncode, result.stderr) == (0, "")


def test_a_table_row_of_the_wrong_length_is_a_value_error():
    with pytest.raises(ValueError, match="^row has 1 cells, table has 2 columns$"):
        render_table("caption", ["a", "b"], [["1", "2"], ["3"]])


# The caption each design kind with operating characteristics gives its OC
# table when the config has no label.
CAPTIONS = {
    "randomized_tte_design1": "dual-criterion (tte): alpha=0.1, null_hr=1.0, "
    "decision_hr=0.7, sigma=2.0, n_events=70",
    "randomized_tte_design3": "standard (tte): alpha=0.1, beta=0.1, alt_hr=0.5, n_events=55",
    "single_arm_binary_design1": "dual-criterion (binary): prior=Beta(0.0811, 1.0), "
    "null_orr=0.075, sig_prob=0.95, decision_orr=0.175, n=25",
    "single_arm_binary_design3": "three-outcome (binary): n=27, r_nogo=3, r_go=5",
}


@pytest.mark.parametrize("name,caption", CAPTIONS.items(), ids=list(CAPTIONS))
def test_oc_without_a_label_is_captioned_by_its_design(capsys, tmp_path, name, caption):
    # The pinned labelled table with the design's caption in place of the label.
    path = tmp_path / "unlabelled.cfg"
    path.write_text(without_keys(CONFIGS / f"{name}.cfg", "label"))
    _, labelled, _ = json.loads(CLI_BYTES.read_text(encoding="utf-8"))[f"oc --config configs/{name}.cfg"]
    assert run(capsys, "oc", "--config", str(path)) == (0, caption + "\n" + labelled.split("\n", 1)[1], "")


class TestLabelUnderOverrides:
    """A label names the design its file describes; an override of a key
    other than label, grid, seed and reps drops it."""

    LABEL = "1. dual-criterion design: alpha=0.1, DV=0.7, n=70"

    def test_a_design_override_is_captioned_by_the_design(self, capsys):
        code, out, _ = run(capsys, "oc", "--config", TTE_CONFIGS[0], "--set", "n_events=30")
        assert code == 0
        assert out.splitlines()[0] == (
            "dual-criterion (tte): alpha=0.1, null_hr=1.0, decision_hr=0.7, sigma=2.0, n_events=30"
        )

    @pytest.mark.parametrize("flags", [["--seed", "3"], ["--grid", "0.5,0.7"], ["--set", "reps=2000"]])
    def test_a_run_override_keeps_the_label(self, capsys, flags):
        code, out, _ = run(capsys, "oc", "--config", TTE_CONFIGS[0], *flags)
        assert (code, out.splitlines()[0]) == (0, self.LABEL)

    @pytest.mark.parametrize("order", ["label-first", "label-last"])
    def test_a_label_given_with_a_design_override_is_kept(self, capsys, order):
        items = ["--set", "label=x", "--set", "n_events=30"]
        if order == "label-last":
            items = items[2:] + items[:2]
        code, out, _ = run(capsys, "oc", "--config", TTE_CONFIGS[0], *items)
        assert (code, out.splitlines()[0]) == (0, "x")

    @pytest.mark.filterwarnings("ignore:n_events=.* is below the minimum:UserWarning")
    def test_compare_captions_every_overridden_design_by_the_design(self, capsys, tmp_path):
        csv_path = tmp_path / "compare.csv"
        argv = ["compare", *(f"--config={path}" for path in TTE_CONFIGS), "--set", "sigma=3.0"]
        code, out, _ = run(capsys, *argv, "--csv", str(csv_path))
        assert code == 0
        designs = [resolve_design({**load_config(path), "sigma": 3.0}) for path in TTE_CONFIGS]
        captions = [rd.entry.caption(rd.design) for rd in designs]
        assert [table.split("\n", 1)[0] for table in out.split("\n\n")] == captions
        with open(csv_path, newline="") as handle:
            assert list(dict.fromkeys(row["design"] for row in csv.DictReader(handle))) == captions

    def test_a_design_override_dumps_no_label(self, capsys, tmp_path):
        dumped = tmp_path / "dump.cfg"
        run(capsys, "size", "--config", TTE_CONFIGS[0], "--set", "n_events=103", "--dump-config", str(dumped))
        assert "label" not in load_config(dumped)
        run(capsys, "size", "--config", TTE_CONFIGS[0], "--seed", "3", "--dump-config", str(dumped))
        assert load_config(dumped)["label"] == self.LABEL


# The shipped dual configs, the key that sets their size and an observed value.
DUAL_CONFIGS = [
    *((path, "n_events", "0.75") for path in [*TTE_CONFIGS[:2], str(CONFIGS / "oc_curve_n309.cfg"),
                                              str(CONFIGS / "oc_curve_n420.cfg")]),
    *((path, "n", "5") for path in BINARY_CONFIGS[:2]),
]


@pytest.mark.parametrize(
    "path,size_key,observed", DUAL_CONFIGS, ids=[Path(path).stem for path, *_ in DUAL_CONFIGS]
)
def test_a_dual_config_without_a_size_runs_at_the_size_that_size_reports(
    capsys, tmp_path, path, size_key, observed
):
    # The label goes too: the size override it is compared with drops it.
    sizeless = tmp_path / "sizeless.cfg"
    sizeless.write_text(without_keys(path, size_key, "label"))
    code, out, _ = run(capsys, "size", "--config", str(sizeless))
    assert code == 0
    n_min = out.splitlines()[0].removeprefix("n_min = ")
    for command in (["oc"], ["decide", "--observed", observed], ["verify", "--reps", "1000"]):
        at_n_min = run(capsys, command[0], "--config", str(path), f"--set={size_key}={n_min}", *command[1:])
        assert run(capsys, command[0], "--config", str(sizeless), *command[1:]) == at_n_min
        assert at_n_min[0] == 0, command


class TestCompare:
    def test_tte_fixture_byte_identical(self, capsys):
        argv = ["compare"]
        for path in TTE_CONFIGS:
            argv += ["--config", path]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (DATA / "randomized_tte_comparison.txt").read_text()

    def test_binary_fixture_byte_identical(self, capsys):
        argv = ["compare"]
        for path in BINARY_CONFIGS:
            argv += ["--config", path]
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == (DATA / "single_arm_binary_comparison.txt").read_text()

    def test_csv_rows_keep_simplex(self, capsys, tmp_path):
        csv_path = tmp_path / "t4.csv"
        argv = ["compare"]
        for path in BINARY_CONFIGS:
            argv += ["--config", path]
        argv += ["--csv", str(csv_path)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        with open(csv_path, newline="") as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == 15
        labels = {row["design"] for row in rows}
        assert len(labels) == 3
        for row in rows:
            total = float(row["p_go"]) + float(row["p_nogo"]) + float(row["p_inconclusive"])
            assert abs(total - 1.0) < 1e-9

    def test_single_config_rejected(self, capsys):
        code, _, err = run(capsys, "compare", "--config", TTE_CONFIGS[0])
        assert code == 2
        assert "at least two" in err

    def test_mixed_endpoints_rejected(self, capsys):
        code, _, err = run(
            capsys, "compare", "--config", TTE_CONFIGS[0], "--config", BINARY_CONFIGS[0]
        )
        assert code == 2
        assert "endpoint" in err


class TestConfigRoundTrip:
    @pytest.mark.parametrize("path", TTE_CONFIGS + BINARY_CONFIGS)
    def test_dump_rebuilds_identical_design(self, capsys, tmp_path, path):
        dumped = tmp_path / "dump.cfg"
        code, _, _ = run(
            capsys, "size", "--config", path, "--dump-config", str(dumped)
        )
        assert code == 0
        original = resolve_design(load_config(path))
        rebuilt = resolve_design(load_config(dumped))
        assert rebuilt.design == original.design
        assert rebuilt.grid == original.grid
        assert rebuilt.label == original.label

    def test_overrides_are_dumped(self, capsys, tmp_path):
        dumped = tmp_path / "dump.cfg"
        code, _, _ = run(
            capsys, "size", "--config", TTE_CONFIGS[0],
            "--set", "n_events=103", "--dump-config", str(dumped),
        )
        assert code == 0
        assert load_config(dumped)["n_events"] == 103

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("endpoint = tte\ndesign_kind = dual\nalpa = 0.1\n")
        code, _, err = run(capsys, "size", "--config", str(cfg))
        assert code == 2
        assert "alpa" in err

    def test_malformed_number_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("endpoint = tte\ndesign_kind = dual\nalpha = lots\n")
        code, _, err = run(capsys, "size", "--config", str(cfg))
        assert code == 2

    def test_duplicate_key_rejected_with_both_lines(self, capsys, tmp_path):
        cfg = tmp_path / "dup.cfg"
        cfg.write_text("endpoint = tte\ndesign_kind = dual\nalpha = 0.1\n# again\nalpha = 0.3\n")
        code, out, err = run(capsys, "size", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}:5: duplicate key 'alpha', first set on line 3\n"

    def test_key_the_design_kind_does_not_read_rejected(self, capsys):
        code, out, err = run(
            capsys, "size", "--config", TTE_CONFIGS[0],
            "--set", "alt_hr=0.5", "--set", "r_go=3", "--set", "prior_mean=0.3",
        )
        assert code == 2
        assert out == ""
        assert err == "error: tte dual designs do not read key(s): alt_hr, r_go, prior_mean\n"

    def test_prior_mean_beside_prior_a_rejected(self, capsys):
        code, out, err = run(
            capsys, "size", "--config", BINARY_CONFIGS[0], "--set", "prior_mean=0.5"
        )
        assert code == 2
        assert out == ""
        assert err == "error: give prior_a or prior_mean, not both\n"

    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.stem)
    def test_shipped_configs_use_only_keys_they_read(self, path):
        resolve_design(load_config(path))

    @pytest.mark.parametrize("text", ["3.5", "inf", "nan"])
    def test_non_integral_value_for_integer_key(self, capsys, text):
        code, out, err = run(
            capsys, "size", "--config", TTE_CONFIGS[2], "--set", f"n_events={text}"
        )
        assert code == 2
        assert out == ""
        assert err == f"error: value for 'n_events' must be an integer, got '{text}'\n"

    def test_integer_keys_parse_exactly(self):
        # A route through float would round 2**64 - 1 up to 2**64.
        assert parse_value("seed", str(2**64 - 1)) == 2**64 - 1
        assert parse_value("n_events", "4.0e2") == 400

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "size", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2

    @pytest.mark.parametrize("comments", [True, False], ids=["comment-first", "key-first"])
    def test_a_config_with_a_byte_order_mark(self, capsys, tmp_path, comments):
        # Many editors start a UTF-8 file with one; it must not hide the
        # first line's comment, or become part of its key.
        text = Path(TTE_CONFIGS[0]).read_text()
        if not comments:
            text = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf" + text[:1].encode())
        expected = run(capsys, "oc", "--config", str(plain))
        assert expected[0] == 0
        assert run(capsys, "oc", "--config", str(marked)) == expected


class TestVerify:
    def test_passes_on_honest_design(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--config", BINARY_CONFIGS[2],
            "--seed", "7", "--reps", "20000",
        )
        assert code == 0
        assert "verification PASSED" in out
        assert "FAIL" not in out

    def test_negative_control_fails(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--config", BINARY_CONFIGS[2],
            "--seed", "7", "--reps", "20000", "--corrupt-go-boundary", "1",
        )
        assert code == 4
        assert "FAIL" in out
        assert "verification FAILED" in out

    def test_negative_control_on_dual_binary(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--config", BINARY_CONFIGS[0],
            "--seed", "3", "--reps", "5000", "--corrupt-go-boundary", "-1",
        )
        assert code == 4

    def test_near_certain_outcome(self, capsys):
        # At ORR 0.9 the pmf summed over the GO counts exceeds 1 by a few ulps.
        code, out, _ = run(
            capsys, "verify", "--config", BINARY_CONFIGS[2],
            "--grid", "0.05,0.3,0.9", "--seed", "11", "--reps", "3000",
        )
        assert code == 0
        assert "verification PASSED" in out

    def test_too_few_replicates_rejected(self, capsys):
        code, _, err = run(
            capsys, "verify", "--config", BINARY_CONFIGS[2], "--reps", "500"
        )
        assert code == 2
        assert "replicates" in err

    def test_seed_beyond_64_bits_rejected_without_traceback(self):
        result = run_module(
            "verify", "--config", TTE_CONFIGS[0], "--seed", str(5 + 2**64), "--reps", "1000"
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: seed")
        assert "Traceback" not in result.stderr

    def test_replicates_beyond_one_stream_per_chunk_index_rejected(self, capsys):
        # chunk indices past 2**32 would read the next scenario's streams
        code, out, err = run(
            capsys, "verify", "--config", TTE_CONFIGS[0], "--reps", str(8192 * 2**32 + 1)
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: n_replicates must be at most 8192 * 2**32")

    def test_negative_control_on_tte_dual(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--config", TTE_CONFIGS[0],
            "--reps", "2000", "--corrupt-go-boundary", "1",
        )
        assert code == 4
        assert "verification FAILED" in out


# Every config that verify supports: the TTE dual designs and the binary
# dual and three-outcome designs. None sets a seed or replicates.
VERIFY_CONFIGS = [
    *TTE_CONFIGS[:2],
    str(CONFIGS / "oc_curve_n309.cfg"),
    str(CONFIGS / "oc_curve_n420.cfg"),
    *BINARY_CONFIGS,
]


class TestVerifyGateOnConfigs:
    """The gate at the inputs users run: each config at its default seed and
    replicates passes, and each negative control fails."""

    def test_verify_configs_are_every_config_that_verify_supports(self, capsys):
        for path in sorted(CONFIGS.glob("*.cfg")):
            code, _, err = run(capsys, "verify", "--config", str(path), "--reps", "1000")
            assert (str(path) in VERIFY_CONFIGS) == (code != 2), (path, err)

    @pytest.mark.parametrize("path", VERIFY_CONFIGS, ids=lambda p: Path(p).stem)
    def test_passes_honest_and_fails_corrupted_boundaries(self, capsys, path):
        for delta, expected in (("0", 0), ("1", 4), ("-1", 4)):
            code, out, err = run(capsys, "verify", "--config", path, "--corrupt-go-boundary", delta)
            assert (code, err) == (expected, ""), (delta, out)
            assert "(seed=42, reps=100000)" in out

    @pytest.mark.parametrize("path", BINARY_CONFIGS, ids=lambda p: Path(p).stem)
    def test_fails_a_binomial_model_that_is_off(self, capsys, monkeypatch, path):
        # The analytic OC reads incomplete-beta tails, so a pmf at 1.03 p
        # moves the simulated counts alone.
        def off(n, p, k, pmf=distributions.binomial_pmf):
            return pmf(n, 1.03 * p, k)

        monkeypatch.setattr(distributions, "binomial_pmf", off)
        monkeypatch.setattr(oracle, "binomial_pmf", off)
        code, out, err = run(capsys, "verify", "--config", path, "--seed", "42")
        assert (code, err) == (4, ""), out


DECIDE_NEEDS_DUAL = "error: decide needs a dual-criterion design (tte)"
PASS, FAIL = (0, ""), (4, "")

# The config and an observed value for each design kind; None is the
# precision design written by the test.
KIND_CONFIGS = {
    "tte_dual": (TTE_CONFIGS[0], "0.9"),
    "tte_standard": (TTE_CONFIGS[2], "0.9"),
    "tte_precision": (None, "0.9"),
    "binary_dual": (BINARY_CONFIGS[0], "5"),
    "three_outcome": (BINARY_CONFIGS[2], "4"),
}
VERIFY = ["verify", "--seed", "7", "--reps", "20000"]
MATRIX_COMMANDS = {
    "size": ["size"],
    "oc": ["oc"],
    "decide": ["decide", "--observed", "{observed}"],
    "decide --csv": ["decide", "--observed", "{observed}", "--csv", "{csv}"],
    "verify": VERIFY,
    "verify --corrupt-go-boundary 1": VERIFY + ["--corrupt-go-boundary", "1"],
    "verify --corrupt-go-boundary -1": VERIFY + ["--corrupt-go-boundary", "-1"],
    "verify --corrupt-go-boundary 3": VERIFY + ["--corrupt-go-boundary", "3"],
    "verify --corrupt-go-boundary -3": VERIFY + ["--corrupt-go-boundary", "-3"],
}
# (exit code, first stderr line) per kind, in the order of MATRIX_COMMANDS.
# A GO cut point shifted below the NO-GO one takes the NO-GO one along, so
# the three-outcome negative control at -3 fails verification (exit 4).
# The TTE negative control shifts the GO cut by DELTA standard errors.
NO_VERIFY = {kind: (2, f"error: verify is not defined for {kind} designs") for kind in ("standard", "precision")}
MATRIX = {
    "tte_dual": [PASS, PASS, PASS, (2, NO_POSTERIOR_CSV), PASS] + [FAIL] * 4,
    "tte_standard": [PASS, PASS, (2, DECIDE_NEEDS_DUAL), (2, DECIDE_NEEDS_DUAL)]
    + [NO_VERIFY["standard"]] * 5,
    "tte_precision": [
        PASS,
        (2, "error: operating characteristics are not defined for precision designs"),
        (2, DECIDE_NEEDS_DUAL), (2, DECIDE_NEEDS_DUAL),
    ] + [NO_VERIFY["precision"]] * 5,
    "binary_dual": [PASS] * 5 + [FAIL] * 4,
    "three_outcome": [PASS, PASS, PASS, (2, NO_POSTERIOR_CSV), PASS] + [FAIL] * 4,
}


class TestCapabilityMatrix:
    """Every command against every design kind: exit code and first error line."""

    @pytest.mark.parametrize(
        "kind,command,expected",
        [
            pytest.param(kind, command, expected, id=f"{kind}-{command}")
            for kind, row in MATRIX.items()
            for command, expected in zip(MATRIX_COMMANDS, row)
        ],
    )
    def test_exit_code_and_first_error_line(self, capsys, tmp_path, kind, command, expected):
        path, observed = KIND_CONFIGS[kind]
        if path is None:
            path = tmp_path / "precision.cfg"
            path.write_text(
                "endpoint = tte\ndesign_kind = precision\nfactor = 1.2\ngrid = 0.5, 1.0\n"
            )
        argv = [
            arg.format(observed=observed, csv=tmp_path / "posterior.csv")
            for arg in MATRIX_COMMANDS[command]
        ]
        code, _, err = run(capsys, argv[0], "--config", str(path), *argv[1:])
        assert (code, (err.splitlines() or [""])[0]) == expected


class TestExtremeMagnitudes:
    """Valid but extreme values give an answer or one clear error line, not
    a traceback, a hang or a size of 0 events."""

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["size", "--config", TTE_CONFIGS[0], "--set", "sigma=1e300"],
             "the required number of events exceeds 1e300"),
            (["size", "--config", TTE_CONFIGS[2], "--set", "sigma=1e300"],
             "the required number of events exceeds 1e300"),
            (["size", "--config", TTE_CONFIGS[0], "--set", "sigma=1e12"],
             "the significance threshold underflows at sigma=1000000000000.0, n_events=70"),
            (["oc", "--config", TTE_CONFIGS[2], "--set", "n_events=77", "--set", "sigma=1e6"],
             "the significance threshold underflows at sigma=1000000.0, n_events=77"),
            (["oc", "--config", BINARY_CONFIGS[0], "--set", "prior_a=1e300"],
             "beta shapes must be at most 100000, got (1e+300, 1.0)"),
            (["verify", "--config", TTE_CONFIGS[0], "--reps", "1000", "--corrupt-go-boundary", str(10**400)],
             f"the GO cut shifted by {10**400} standard errors is not finite"),
        ],
        ids=["dual-sigma", "standard-sigma", "dual-threshold", "standard-threshold", "prior-shape",
             "go-shift-past-float-range"],
    )
    def test_one_error_line(self, capsys, argv, error):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # 70 events is below the minimum
            code, out, err = run(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {error}\n")

    @pytest.mark.parametrize(
        "argv,error",
        [
            (["oc", "--config", TTE_CONFIGS[0], "--set", f"n_events={10**400}"],
             f"n_events must be at most 2**53, got {10**400}"),
            (["oc", "--config", BINARY_CONFIGS[0], "--set", f"n={10**400}"],
             f"n must be at most 2**53, got {10**400}"),
            (["oc", "--config", TTE_CONFIGS[2], "--set", f"n_events={10**400}"],
             f"n_events must be at most 1.7976931348623157e+308, got {10**400}"),
            (["size", "--config", TTE_CONFIGS[0], "--set", "alpha=1e-17"],
             "alpha must be at least 2**-53, got 1e-17"),
            (["size", "--config", TTE_CONFIGS[2], "--set", "beta=1e-17"],
             "beta must be at least 2**-53, got 1e-17"),
            (["size", "--config", TTE_CONFIGS[0], "--set", "level=0.9999999999999999"],
             "level must be at most 1 - 2**-52, got 0.9999999999999999"),
            (["size", "--config", TTE_CONFIGS[0], "--set", "level=1.5"],
             "level must lie strictly in (0, 1), got 1.5"),
            # An infinite input is not positive and finite.
            (["decide", "--config", TTE_CONFIGS[0], "--observed", "inf"],
             "estimated_hr must be positive and finite, got inf"),
            (["oc", "--config", TTE_CONFIGS[0], "--grid", "inf"], "true_hr must be positive and finite, got inf"),
            (["size", "--config", TTE_CONFIGS[0], "--set", "sigma=inf"], "sigma must be positive and finite, got inf"),
            (["size", "--config", BINARY_CONFIGS[0], "--set", "prior_b=inf"],
             "beta shape b must be positive and finite, got inf"),
        ],
        ids=["dual-events", "binary-n", "standard-events", "alpha", "beta", "level", "level-above-1",
             "observed-inf", "grid-inf", "sigma-inf", "prior-b-inf"],
    )
    def test_input_past_the_bound_of_its_formula(self, capsys, argv, error):
        # Sizes past the float range used to end in an OverflowError, and
        # rates whose quantile argument rounds to 1 named an internal call.
        assert run(capsys, *argv) == (2, "", f"error: {error}\n")

    def test_dual_size_past_the_count_bound(self, capsys, tmp_path):
        # The derived size is a count like a given one, so it has the same bound.
        cfg = tmp_path / "dual.cfg"
        cfg.write_text(without_keys(TTE_CONFIGS[0], "n_events"))
        code, out, err = run(capsys, "size", "--config", str(cfg), "--set", "sigma=1e12")
        assert (code, out) == (2, "")
        assert err.startswith("error: n_events must be at most 2**53, got 1")

    def test_precision_size_overflow(self, capsys, tmp_path):
        cfg = tmp_path / "prec.cfg"
        cfg.write_text("endpoint = tte\ndesign_kind = precision\nfactor = 1.2\nsigma = 1e300\n")
        code, out, err = run(capsys, "size", "--config", str(cfg))
        assert (code, out) == (2, "")
        assert err == "error: the required number of events exceeds 1e300\n"

    def test_size_is_at_least_one_event(self, capsys, tmp_path):
        # At alpha just below 0.5 the significance threshold is the null
        # value for any size, so a single event makes relevance imply it.
        cfg = tmp_path / "dual.cfg"
        cfg.write_text("endpoint = tte\ndesign_kind = dual\nalpha = 0.4999999999\ndecision_hr = 0.7\n")
        code, out, _ = run(capsys, "size", "--config", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "n_min = 1"

    def test_huge_values_print_in_full(self, capsys):
        code, out, _ = run(
            capsys, "oc", "--config", TTE_CONFIGS[0], "--grid", "1e300,1e-300", "--csv", os.devnull
        )
        assert code == 0
        assert str(10**300) + ".000" in out
        code, out, _ = run(capsys, "decide", "--config", TTE_CONFIGS[0], "--observed", "1e30")
        assert code == 0
        assert out.startswith("NO-GO: p_value=1.000, estimate=1" + "0" * 30 + ".000")


def test_decide_on_a_posterior_in_the_millions():
    # Posterior shapes in the millions are past the range where the
    # incomplete beta is accurate to 1e-9, so the size is refused by name;
    # the largest admitted size (prior_b = 1) decides.
    result = run_module(
        "decide", "--config", BINARY_CONFIGS[0], "--set", "n=4000000", "--observed", "1000000"
    )
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == "error: n must be at most 99999 so that Beta shapes stay within 100000, got 4000000\n"
    result = run_module(
        "decide", "--config", BINARY_CONFIGS[0], "--set", "n=99999", "--observed", "25000"
    )
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    assert result.stdout.startswith("GO: ")


def test_binary_oc_at_the_shape_cap(capsys):
    # The largest size the cap admits under prior_b = 1: each OC tail is one
    # incomplete beta, so the table takes well under a second.
    code, out, err = run(capsys, "oc", "--config", BINARY_CONFIGS[0], "--set", "n=99999")
    assert (code, err) == (0, "")
    assert out.splitlines()[0].endswith("n=99999")
    assert len(out.splitlines()) == 2 + 5


@pytest.mark.parametrize(
    "argv",
    [["verify", "--reps", "1000"], ["oc"], ["size"]],
    ids=lambda argv: argv[0],
)
def test_a_closed_stdout_ends_quietly(argv):
    # The reading end is closed before the child starts, so its first
    # write fails, as behind ``| head`` once head has exited.
    read, write = os.pipe()
    os.close(read)
    try:
        result = run_module(*argv, "--config", BINARY_CONFIGS[0], stdout=write)
    finally:
        os.close(write)
    assert (result.returncode, result.stderr) == (141, "")


@pytest.mark.parametrize(
    "config,override,error",
    [
        (0, "n=100000", "n must be at most 99999 so that Beta shapes stay within 100000, got 100000"),
        (0, "prior_a=1e14", "beta shapes must be at most 100000, got (100000000000000.0, 1.0)"),
        (2, "n=100001", "n must be at most 100000 so that Beta shapes stay within 100000, got 100001"),
    ],
    ids=["dual-n", "dual-prior", "three-outcome-n"],
)
def test_a_binary_size_or_prior_past_the_shape_cap_is_refused(capsys, config, override, error):
    for command in ("size", "oc", "verify"):
        argv = (command, "--config", BINARY_CONFIGS[config], "--set", override)
        assert run(capsys, *argv) == (2, "", f"error: {error}\n")


class TestRepeatedOption:
    """A single-valued option given twice is an error, not a silent
    override by the last value."""

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["size", "--config", TTE_CONFIGS[0], "--config", BINARY_CONFIGS[0]], "--config"),
            (["verify", "--config", BINARY_CONFIGS[0], "--seed", "1", "--seed", "2"], "--seed"),
            (["verify", "--config", BINARY_CONFIGS[0], "--reps", "1000", "--reps=2000"], "--reps"),
            (["verify", "--config", BINARY_CONFIGS[0], "--corrupt-go-boundary", "0",
              "--corrupt-go-boundary", "0"], "--corrupt-go-boundary"),
            (["oc", "--config", TTE_CONFIGS[0], "--grid", "0.5", "--grid", "0.7"], "--grid"),
            (["oc", "--config", TTE_CONFIGS[0], "--csv", "a.csv", "--csv", "b.csv"], "--csv"),
            (["size", "--config", TTE_CONFIGS[0], "--dump-config", "a", "--dump-config", "b"],
             "--dump-config"),
            (["decide", "--config", BINARY_CONFIGS[0], "--observed", "3", "--observed", "4"],
             "--observed"),
            (["compare", "--config", TTE_CONFIGS[0], "--config", TTE_CONFIGS[1], "--csv", "a",
              "--csv", "b"], "--csv"),
        ],
        ids=["config", "seed", "reps", "corrupt", "grid", "csv", "dump-config", "observed", "compare-csv"],
    )
    def test_exits_2_naming_the_option(self, capsys, tmp_path, monkeypatch, argv, option):
        monkeypatch.chdir(tmp_path)  # nothing may be written
        with pytest.raises(SystemExit) as info:
            main(argv)
        out, err = capsys.readouterr()
        assert (info.value.code, out) == (2, "")
        assert err.splitlines()[-1].endswith(f"error: argument {option}: may be given only once")
        assert list(tmp_path.iterdir()) == []


class TestOverrides:
    """``--grid``, ``--seed`` and ``--reps`` are ``--set`` items, and a key
    may be overridden once."""

    @pytest.mark.parametrize(
        "overrides,key",
        [
            (["--set", "seed=1", "--set", "seed=2"], "seed"),
            (["--seed", "3", "--set", "seed=2"], "seed"),
            (["--set", "reps=2000", "--reps", "1000"], "reps"),
            (["--set", "grid=0.5", "--grid", "0.7"], "grid"),
            (["--set", "n_events=60", "--set", "n_events=80"], "n_events"),
        ],
        ids=["set-set", "seed-set", "set-reps", "set-grid", "n_events"],
    )
    def test_a_key_overridden_twice_exits_2_naming_it(self, capsys, overrides, key):
        code, out, err = run(capsys, "verify", "--config", TTE_CONFIGS[0], *overrides)
        assert (code, out, err) == (2, "", f"error: {key!r} may be overridden only once\n")

    def test_options_parse_as_config_values(self, capsys):
        # As in a config file, where "seed = 1e3" is 1000.
        code, out, _ = run(
            capsys, "verify", "--config", BINARY_CONFIGS[2], "--seed", "1e3", "--reps", "1e3",
            "--grid", " 0.1, 0.3 ",
        )
        assert code == 0
        assert "(seed=1000, reps=1000)" in out.splitlines()[0]
        assert [line.split()[0] for line in out.splitlines()[2:-1]] == ["0.100"] * 3 + ["0.300"] * 3

    @pytest.mark.parametrize(
        "option,value,error",
        [
            ("--seed", "abc", "value for 'seed' must be a number, got 'abc'"),
            ("--reps", "2.5", "value for 'reps' must be an integer, got '2.5'"),
            ("--grid", "", "grid must list at least one value, got ''"),
        ],
        ids=["seed", "reps", "grid"],
    )
    def test_a_bad_option_value_is_a_config_error(self, capsys, option, value, error):
        code, out, err = run(capsys, "verify", "--config", TTE_CONFIGS[0], option, value)
        assert (code, out, err) == (2, "", f"error: {error}\n")


class TestErrorPaths:
    """Exit 2 and the first error line on paths the other tests do not take."""

    @pytest.mark.parametrize(
        "argv,config,error",
        [
            (["oc", "--set", "grid=,"], TTE_CONFIGS[0], "grid must list at least one value, got ','"),
            (["oc", "--grid", "0.5,x"], TTE_CONFIGS[0], "grid values must be numbers, got '0.5,x'"),
            (["size"], "endpoint = tte\nalpha 0.1\n", "{path}:2: expected 'key = value', got 'alpha 0.1'"),
            (["size"], without_keys(BINARY_CONFIGS[0], "prior_a"),
             "binary designs need prior_a (or prior_mean), plus prior_b"),
            (["size"], without_keys(BINARY_CONFIGS[2], "r_go"),
             "three_outcome designs need either all of n, r_go, r_nogo or none"),
            (["decide", "--observed", "28"], BINARY_CONFIGS[2], "responder count must be an integer in [0, 27], got 28"),
            (["compare", "--config", str(CONFIGS / "oc_curve_n309.cfg")], TTE_CONFIGS[0],
             "compare needs the same true-effect grid for every design"),
        ],
        ids=["empty-grid", "grid-not-numbers", "no-equals", "no-prior", "partial-boundaries",
             "decide-out-of-range", "compare-grids"],
    )
    def test_exit_2_and_first_error_line(self, capsys, tmp_path, argv, config, error):
        # ``config`` is a shipped config's path or the text of one to write.
        path = config
        if "\n" in config:
            path = tmp_path / "test.cfg"
            path.write_text(config)
        code, out, err = run(capsys, argv[0], "--config", str(path), *argv[1:])
        assert (code, out, err.splitlines()[0]) == (2, "", "error: " + error.format(path=path))


class TestFilesThatCannotBeUsed:
    """A path the command cannot write, or a config it cannot decode, is a
    config error: exit 2 and one error line naming the file."""

    @pytest.mark.parametrize(
        "argv,option",
        [
            (["oc", "--config", TTE_CONFIGS[0]], "--csv"),
            (["oc", "--config", TTE_CONFIGS[0]], "--dump-config"),
            (["decide", "--config", BINARY_CONFIGS[0], "--observed", "5"], "--csv"),
            (["compare", "--config", TTE_CONFIGS[0], "--config", TTE_CONFIGS[1]], "--csv"),
        ],
        ids=["oc-csv", "oc-dump-config", "decide-csv", "compare-csv"],
    )
    def test_an_unwritable_output_path(self, capsys, tmp_path, argv, option):
        path = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, *argv, option, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1
        assert not path.parent.exists()

    def test_a_config_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(Path(TTE_CONFIGS[0]).read_bytes() + b"# caf\xe9\n")
        code, out, err = run(capsys, "size", "--config", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read config {path}: 'utf-8' codec can't decode byte 0xe9")
        assert err.count("\n") == 1


BINARY_INFEASIBLE = (
    "endpoint = binary\ndesign_kind = dual\nprior_a = 0.0811\nprior_b = 1.0\n"
    "null_orr = 0.075\nsig_prob = 0.999999\ndecision_orr = 0.076\nn_max = 25\n"
)


class TestInfeasibleExitCode:
    def test_three_outcome_search_failure(self, capsys, tmp_path):
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(
            "endpoint = binary\ndesign_kind = three_outcome\n"
            "p0 = 0.2\np1 = 0.21\nalpha = 0.05\nbeta = 0.1\neta = 0.8\npi = 0.9\n"
            "n_max = 30\n"
        )
        code, _, err = run(capsys, "size", "--config", str(cfg))
        assert code == 3
        assert "no feasible" in err

    def test_binary_grid_failure(self, capsys, tmp_path):
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(BINARY_INFEASIBLE)
        code, _, err = run(capsys, "size", "--config", str(cfg))
        assert code == 3
        assert "no conclusive sample size" in err

    @pytest.mark.parametrize("command", [["oc"], ["decide", "--observed", "1"], ["verify"]], ids=" ".join)
    def test_binary_grid_failure_on_every_command(self, capsys, tmp_path, command):
        # Without n every command sizes the design by the grid search.
        cfg = tmp_path / "hard.cfg"
        cfg.write_text(BINARY_INFEASIBLE)
        code, out, err = run(capsys, command[0], "--config", str(cfg), *command[1:])
        assert (code, out, err) == (3, "", "error: no conclusive sample size at or below n_max=25\n")


def test_below_minimum_warning_is_one_line():
    result = run_module(
        "oc", "--config", "configs/randomized_tte_design1.cfg", "--set", "n_events=30"
    )
    assert result.returncode == 0
    assert result.stderr.splitlines() == [
        "warning: n_events=30 is below the minimum 52 at which meeting the decision value "
        "implies significance; relevant-but-not-significant outcomes are possible"
    ]


def test_module_entry_point_runs():
    result = run_module("size", "--config", TTE_CONFIGS[0])
    assert result.returncode == 0
    assert "n_min = 52" in result.stdout


# Runs ``python -m dualcrit ARGV`` (or only ``import dualcrit`` when ARGV is
# empty) and, as the interpreter exits, prints which of numpy and scipy it
# had loaded.
LOADED_PROBE = """
import atexit, runpy, sys
atexit.register(lambda: print("loaded:", *sorted({"numpy", "scipy"} & set(sys.modules))))
if sys.argv[1:]:
    runpy.run_module("dualcrit", run_name="__main__", alter_sys=True)
else:
    import dualcrit
"""
BINARY_DUAL = BINARY_CONFIGS[:2]
THREE_OUTCOME = BINARY_CONFIGS[2]


class TestImportBoundary:
    """numpy loads only in the oracle, the one code that computes on arrays:
    ``size``, ``oc``, ``decide`` and ``compare`` run on the standard library
    for every design, ``verify`` needs numpy, and no command loads scipy,
    which is a test reference, not a runtime dependency."""

    @pytest.mark.parametrize(
        "argv,loaded",
        [
            pytest.param((), (), id="import"),
            *(
                pytest.param(("size", "--config", path), (), id=f"size-{Path(path).stem}")
                for path in BINARY_CONFIGS
            ),
            *(
                pytest.param(("oc", "--config", path, "--csv", "{tmp}/oc.csv"), (),
                             id=f"oc-csv-{Path(path).stem}")
                for path in BINARY_CONFIGS
            ),
            *(
                pytest.param(("decide", "--config", path, "--observed", "5", "--csv", "{tmp}/post.csv"),
                             (), id=f"decide-csv-{Path(path).stem}")
                for path in BINARY_DUAL
            ),
            pytest.param(("decide", "--config", THREE_OUTCOME, "--observed", "4"), (),
                         id="decide-three-outcome"),
            pytest.param(("compare", *(x for p in BINARY_CONFIGS for x in ("--config", p))), (),
                         id="compare-binary"),
            pytest.param(("verify", "--config", THREE_OUTCOME, "--seed", "7", "--reps", "20000"), ("numpy",),
                         id="verify-binary"),
            pytest.param(("size", "--config", TTE_CONFIGS[0]), (), id="size-tte"),
            *(
                pytest.param(("size", "--config", path), (), id=f"size-{Path(path).stem}")
                for path in TTE_CONFIGS[1:]
            ),
            *(
                pytest.param(("oc", "--config", path, "--csv", "{tmp}/oc.csv"), (),
                             id=f"oc-csv-{Path(path).stem}")
                for path in TTE_CONFIGS
            ),
            *(
                pytest.param(("decide", "--config", path, "--observed", "0.75"), (),
                             id=f"decide-{Path(path).stem}")
                for path in TTE_CONFIGS[:2]
            ),
            pytest.param(("compare", *(x for p in TTE_CONFIGS for x in ("--config", p))), (),
                         id="compare-tte"),
            pytest.param(("verify", "--config", TTE_CONFIGS[0], "--seed", "7", "--reps", "20000"),
                         ("numpy",), id="verify-tte"),
        ],
    )
    def test_modules_loaded_at_exit(self, tmp_path, argv, loaded):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        result = run_module(*argv, python_args=("-c", LOADED_PROBE))
        assert result.returncode == 0, result.stderr
        modules = result.stdout.splitlines()[-1].split()
        assert "scipy" not in modules
        assert modules == ["loaded:", *loaded]


if __name__ == "__main__":
    # Rewrite the pinned outputs: PYTHONPATH=src python tests/test_cli.py
    CLI_BYTES.write_text(json.dumps(cli_outputs(), indent=1) + "\n", encoding="utf-8")
