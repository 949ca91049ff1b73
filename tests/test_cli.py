"""End-to-end command-line behaviour, including the golden table fixtures,
config round-trips, CSV output, and exit codes."""

import csv
import subprocess
import sys
from pathlib import Path

import pytest

from dualcrit.cli import main
from dualcrit.config import load_config, resolve_design

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
DATA = Path(__file__).resolve().parent / "data"

TTE_CONFIGS = [str(CONFIGS / f"randomized_tte_design{i}.cfg") for i in range(1, 6)]
BINARY_CONFIGS = [str(CONFIGS / f"single_arm_binary_design{i}.cfg") for i in range(1, 4)]


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSize:
    def test_tte_dual(self, capsys):
        code, out, _ = run(capsys, "size", "--config", TTE_CONFIGS[0])
        assert code == 0
        assert "n_min = 52" in out
        assert "estimate threshold at n_min = 0.700" in out
        assert "significance threshold at n_events = 0.736" in out

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

    def test_observed_wrong_type(self, capsys):
        code, _, err = run(
            capsys, "decide", "--config", BINARY_CONFIGS[0], "--observed", "many"
        )
        assert code == 2

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

    def test_posterior_curve_needs_binary_design(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "decide", "--config", TTE_CONFIGS[0],
            "--observed", "0.9", "--csv", str(tmp_path / "x.csv"),
        )
        assert code == 2


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
        original = resolve_design(load_config(path), require_n=False)
        rebuilt = resolve_design(load_config(dumped), require_n=False)
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

    def test_missing_file_rejected(self, capsys, tmp_path):
        code, _, err = run(capsys, "size", "--config", str(tmp_path / "absent.cfg"))
        assert code == 2


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

    def test_too_few_replicates_rejected(self, capsys):
        code, _, err = run(
            capsys, "verify", "--config", BINARY_CONFIGS[2], "--reps", "500"
        )
        assert code == 2
        assert "replicates" in err

    def test_seed_beyond_64_bits_rejected_without_traceback(self):
        result = subprocess.run(
            [sys.executable, "-m", "dualcrit", "verify", "--config", TTE_CONFIGS[0],
             "--seed", str(5 + 2**64), "--reps", "1000"],
            capture_output=True,
            text=True,
            cwd=REPO,
        )
        assert result.returncode == 2
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("error: seed")
        assert "Traceback" not in result.stderr

    def test_corrupt_flag_needs_binary_endpoint(self, capsys):
        code, _, err = run(
            capsys, "verify", "--config", TTE_CONFIGS[0],
            "--reps", "2000", "--corrupt-go-boundary", "1",
        )
        assert code == 2


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
        cfg.write_text(
            "endpoint = binary\ndesign_kind = dual\nprior_a = 0.0811\nprior_b = 1.0\n"
            "null_orr = 0.075\nsig_prob = 0.999999\ndecision_orr = 0.076\nn_max = 25\n"
        )
        code, _, err = run(capsys, "size", "--config", str(cfg))
        assert code == 3
        assert "no conclusive sample size" in err


def test_module_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "dualcrit", "size", "--config", TTE_CONFIGS[0]],
        capture_output=True,
        text=True,
        cwd=REPO,
    )
    assert result.returncode == 0
    assert "n_min = 52" in result.stdout
