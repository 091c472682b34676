"""Command-line interface: invocations, formats, exit codes, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from bayesdesk.cli import main

DATA = Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_beta_binomial_json(self, capsys):
        code, out, _ = run(capsys, "estimate", "--model", "beta-binomial",
                           "--successes", "38", "--trials", "58", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["posterior"] == {"family": "Beta", "a": 39, "b": 21}
        assert payload["posterior_mean"] == 0.65
        assert payload["map_estimate"] == pytest.approx(38 / 58, rel=1e-14)

    def test_gamma_poisson_from_contingency_file(self, capsys):
        for group, shape, rate in (("non-malignant", 136, 161), ("malignant", 96, 133)):
            code, out, _ = run(capsys, "estimate", "--model", "gamma-poisson",
                               "--prior-shape", "1", "--prior-rate", "2",
                               "--data-file", str(DATA / "cancer.csv"),
                               "--group", group, "--format", "json")
            assert code == 0
            payload = json.loads(out)
            assert payload["posterior"] == {"family": "Gamma", "shape": shape, "rate": rate}

    def test_gamma_poisson_inline_counts(self, capsys):
        code, out, _ = run(capsys, "estimate", "--model", "gamma-poisson",
                           "--prior-shape", "1", "--prior-rate", "2",
                           "--counts", "77,51,7", "--exposures", "87,62,10",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["posterior"]["shape"] == 136

    def test_normal_known_var(self, capsys):
        code, out, _ = run(capsys, "estimate", "--model", "normal-known-var",
                           "--stats", "n=25,mean=3,ssd=10", "--prior-xi", "1",
                           "--prior-lam", "4", "--known-variance", "2",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        precision = 25 / 2.0 + 4.0
        assert payload["posterior"]["mean"] == pytest.approx(
            (25 * 3 / 2.0 + 4.0) / precision, rel=1e-14)

    def test_normal_inv_gamma_joint(self, capsys):
        code, out, _ = run(capsys, "estimate", "--model", "normal-inv-gamma",
                           "--stats", "n=10,mean=0,ssd=1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["posterior"] == {"family": "NormalInverseGamma", "xi": 0,
                                        "lam_mu": 10, "lam_sigma": 5, "alpha": 1}
        assert payload["sigma_sq_posterior_mean"] == 0.125

    def test_grid_csv_written(self, capsys, tmp_path):
        target = tmp_path / "beta_grid.csv"
        code, out, _ = run(capsys, "estimate", "--model", "beta-binomial",
                           "--successes", "38", "--trials", "58",
                           "--grid-csv", str(target), "--format", "json")
        assert code == 0
        rows = np.loadtxt(target, delimiter=",", skiprows=1)
        assert rows.shape == (4001, 2)
        mass = float(np.sum(0.5 * (rows[1:, 1] + rows[:-1, 1]) * np.diff(rows[:, 0])))
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run(capsys, "estimate", "--model", "beta-binomial")
        assert code == 2
        assert "successes" in err

    def test_unknown_group_exit_2(self, capsys):
        code, _, err = run(capsys, "estimate", "--model", "gamma-poisson",
                           "--prior-shape", "1", "--prior-rate", "2",
                           "--data-file", str(DATA / "cancer.csv"),
                           "--group", "benign")
        assert code == 2
        assert "benign" in err and "malignant" in err


class TestHpd:
    def test_cauchy_normal_reference_run(self, capsys):
        code, out, _ = run(capsys, "hpd", "--model", "cauchy-normal",
                           "--prior-var", "10", "--data", "-4.3,3.2",
                           "--alpha", "0.05", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["k_alpha"] == pytest.approx(0.0415, abs=0.003)
        assert payload["coverage"] == pytest.approx(0.95, abs=1e-5)
        assert len(payload["intervals"]) == 1

    def test_jeffreys_sample_route(self, capsys, tmp_path):
        target = tmp_path / "points.csv"
        code, out, _ = run(capsys, "hpd", "--model", "normal-jeffreys",
                           "--stats", "n=10,mean=0,ssd=1", "--alpha", "0.90",
                           "--sample", "1000", "--seed", "7",
                           "--points-csv", str(target), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n_draws"] == 1000
        assert payload["n_retained"] == 100
        with open(target) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1000
        assert sum(int(r["retained"]) for r in rows) == 100

    def test_beta_binomial_grid_route(self, capsys):
        code, out, _ = run(capsys, "hpd", "--model", "beta-binomial",
                           "--successes", "38", "--trials", "58",
                           "--alpha", "0.05", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        lo, hi = payload["intervals"][0]["lo"], payload["intervals"][0]["hi"]
        assert 0.5 < lo < 0.65 < hi < 0.8

    def test_alpha_one_rejected(self, capsys):
        code, _, err = run(capsys, "hpd", "--model", "cauchy-normal",
                           "--prior-var", "10", "--data", "-4.3,3.2",
                           "--alpha", "1.0")
        assert code == 2
        assert "alpha" in err


class TestTest:
    def test_point_null_reference_value(self, capsys):
        code, out, _ = run(capsys, "test", "--point-null", "--x", "1.96",
                           "--sigma", "1", "--tau-sq", "10", "--rho", "0.5",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["posterior_null_prob"] == pytest.approx(0.366, abs=6e-4)
        assert payload["decision"] == "reject_H0"

    def test_point_null_improper_reference_value(self, capsys):
        code, out, _ = run(capsys, "test", "--point-null-improper", "--x", "2.58",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["posterior_null_prob"] == pytest.approx(0.0141, abs=5e-5)

    def test_one_sided_reference_value(self, capsys):
        code, out, _ = run(capsys, "test", "--one-sided", "--x", "1.6449",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["posterior_prob_theta_le_0"] == pytest.approx(0.05, abs=1e-5)

    def test_quadrature_route_matches_closed_form(self, capsys):
        code, closed_out, _ = run(capsys, "test", "--point-null", "--x", "1.3",
                                  "--tau", "2.0", "--format", "json")
        assert code == 0
        code, quad_out, _ = run(capsys, "test", "--point-null", "--x", "1.3",
                                "--tau", "2.0", "--quadrature", "--format", "json")
        assert code == 0
        closed = json.loads(closed_out)
        quad = json.loads(quad_out)
        assert quad["method"] == "quadrature"
        assert quad["bf10"] == pytest.approx(closed["bf10"], rel=1e-8)

    def test_sweep_writes_csv(self, capsys, tmp_path):
        target = tmp_path / "sweep.csv"
        code, out, _ = run(capsys, "test", "--point-null", "--x", "1.96",
                           "--sweep-tau", "1e-4,10,100", "--sweep-csv", str(target),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["sweep"]) == 100
        with open(target) as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        assert header == ["tau", "bf10", "posterior_prob"]
        assert len(rows) == 100
        taus = [float(r[0]) for r in rows]
        assert taus[0] == pytest.approx(1e-4) and taus[-1] == pytest.approx(10.0)
        assert all(math.isfinite(float(v)) for r in rows for v in r)

    @pytest.mark.parametrize("method", [(), ("--quadrature",)], ids=["closed-form", "quadrature"])
    def test_decisive_evidence_reports_infinite_bf(self, capsys, method):
        code, out, _ = run(capsys, "test", "--point-null", "--x", "60", "--tau", "10", *method,
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["bf10"] == "inf"
        assert payload["log10_bf10"] == pytest.approx(772.988005081280, rel=1e-12)

    def test_flat_slab_exits_3(self, capsys):
        code, _, err = run(capsys, "test", "--point-null", "--x", "1.96",
                           "--slab", "flat")
        assert code == 3
        assert "improper" in err

    def test_missing_tau_exits_2(self, capsys):
        code, _, err = run(capsys, "test", "--point-null", "--x", "1.96")
        assert code == 2
        assert "tau" in err


class TestRegress:
    def test_report_table_and_csv(self, capsys, tmp_path):
        target = tmp_path / "report.csv"
        code, out, _ = run(capsys, "regress", "--data-file", str(DATA / "regress20.csv"),
                           "--response", "y", "--report-csv", str(target),
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 20 and payload["p"] == 4
        assert payload["g"] == 20
        names = [r["name"] for r in payload["rows"]]
        assert names == ["Intercept", "X1", "X2", "X3"]
        labels = {r["name"]: r["label"] for r in payload["rows"]}
        assert labels["X1"] == "****" and labels["X2"] == "****"
        assert labels["X3"] == ""
        with open(target) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["name"] for r in rows] == names

    def test_text_table_contains_legend(self, capsys):
        code, out, _ = run(capsys, "regress", "--data-file", str(DATA / "regress20.csv"),
                           "--response", "y")
        assert code == 0
        assert "evidence against H0" in out
        assert "Intercept" in out

    def test_missing_response_exits_2(self, capsys):
        code, _, err = run(capsys, "regress", "--data-file", str(DATA / "regress20.csv"),
                           "--response", "zz")
        assert code == 2
        assert "zz" in err

    def test_decisive_evidence_reports_infinite_bf(self, capsys, tmp_path):
        rng = np.random.default_rng(35)
        x = rng.standard_normal(2000)
        y = 3.0 * x + 0.05 * rng.standard_normal(2000)
        path = tmp_path / "strong.csv"
        np.savetxt(path, np.column_stack([y, x]), delimiter=",", header="y,x", comments="")
        code, out, _ = run(capsys, "regress", "--data-file", str(path), "--response", "y",
                           "--format", "json")
        assert code == 0
        row = json.loads(out)["rows"][1]
        assert row["bf10"] == "inf"
        assert math.isfinite(row["log10_bf10"]) and row["label"] == "****"

    def test_rank_deficiency_exits_3(self, capsys, tmp_path):
        path = tmp_path / "collinear.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["y", "a", "b"])
            for i in range(10):
                writer.writerow([i * 0.5, i, 2 * i])
        code, _, err = run(capsys, "regress", "--data-file", str(path),
                           "--response", "y")
        assert code == 3
        assert "singular" in err.lower()


class TestPredict:
    def test_reference_predictive(self, capsys):
        code, out, _ = run(capsys, "predict", "--stats", "n=10,mean=0,ssd=1",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["predictive"]["df"] == 10
        assert payload["predictive"]["location"] == 0
        assert payload["predictive"]["scale"] == pytest.approx(
            math.sqrt(11.0 / 100.0), rel=1e-14)

    def test_from_data_file(self, capsys):
        code, out, _ = run(capsys, "predict", "--data-file", str(DATA / "sample10.csv"),
                           "--column", "x", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["predictive"]["df"] == 10
        assert payload["predictive"]["location"] == pytest.approx(0.0, abs=1e-16)
        assert payload["predictive"]["scale"] == pytest.approx(
            math.sqrt(11.0 / 100.0), rel=1e-12)

    def test_single_point_exits_3(self, capsys):
        code, _, err = run(capsys, "predict", "--stats", "n=1,mean=0,ssd=0")
        assert code == 3
        assert "improper" in err


class TestOutliers:
    def test_planted_fixture_flags_only_plant(self, capsys):
        code, out, _ = run(capsys, "outliers", "--data-file",
                           str(DATA / "planted_outlier.csv"), "--alpha", "0.95",
                           "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["flagged_indices"] == [29]
        assert payload["n"] == 30

    def test_report_csv(self, capsys, tmp_path):
        target = tmp_path / "outliers.csv"
        code, _, _ = run(capsys, "outliers", "--data-file",
                         str(DATA / "planted_outlier.csv"), "--alpha", "0.95",
                         "--report-csv", str(target))
        assert code == 0
        with open(target) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 30
        assert rows[29]["flagged"] == "true"
        assert sum(r["flagged"] == "true" for r in rows) == 1

    def test_two_row_file_exits_2(self, capsys):
        code, _, err = run(capsys, "outliers", "--data-file", str(DATA / "two_rows.csv"))
        assert code == 2
        assert "3" in err

    def test_empty_file_exits_2(self, capsys):
        code, _, err = run(capsys, "outliers", "--data-file", str(DATA / "empty.csv"))
        assert code == 2
        assert "no data rows" in err

    def test_alpha_one_exits_2(self, capsys):
        code, _, err = run(capsys, "outliers", "--data-file",
                           str(DATA / "planted_outlier.csv"), "--alpha", "1.0")
        assert code == 2


# one run per subcommand, each writing its side file as side.csv
SIDE_FILE_RUNS = {
    "estimate": ("estimate", "--model", "beta-binomial", "--successes", "38", "--trials", "58",
                 "--grid-csv", "side.csv"),
    "hpd-cauchy-normal": ("hpd", "--model", "cauchy-normal", "--prior-var", "10",
                          "--data", "-4.3,3.2", "--alpha", "0.05", "--grid-csv", "side.csv"),
    "hpd-normal-jeffreys": ("hpd", "--model", "normal-jeffreys", "--stats", "n=10,mean=0,ssd=1",
                            "--alpha", "0.9", "--sample", "1000", "--seed", "7",
                            "--points-csv", "side.csv"),
    "test": ("test", "--point-null", "--x", "1.96", "--sweep-tau", "1e-4,10,50",
             "--sweep-csv", "side.csv"),
    "regress": ("regress", "--data-file", str(DATA / "regress20.csv"), "--response", "y",
                "--report-csv", "side.csv"),
    "predict": ("predict", "--data-file", str(DATA / "sample10.csv"), "--grid-csv", "side.csv"),
    "outliers": ("outliers", "--data-file", str(DATA / "planted_outlier.csv"),
                 "--report-csv", "side.csv"),
}


class TestOutputContract:
    @pytest.mark.parametrize("argv", list(SIDE_FILE_RUNS.values()), ids=list(SIDE_FILE_RUNS))
    def test_byte_identical_reruns(self, capsys, tmp_path, argv):
        side = tmp_path / "side.csv"
        for fmt in ("json", "text", "csv"):
            runs = []
            for _ in range(2):
                code, out, _ = run(capsys, *argv, "--out-dir", str(tmp_path), "--format", fmt)
                assert code == 0
                runs.append((out, side.read_bytes()))
                side.unlink()
            assert runs[0] == runs[1]

    def test_json_17_significant_digits(self, capsys):
        _, out, _ = run(capsys, "test", "--point-null", "--x", "1.96",
                        "--sigma", "1", "--tau-sq", "10", "--format", "json")
        assert "0.36650633769830504" in out

    def test_text_header_lists_defaults(self, capsys):
        _, out, _ = run(capsys, "estimate", "--model", "beta-binomial",
                        "--successes", "38", "--trials", "58")
        lines = out.splitlines()
        assert lines[0] == "# bayesdesk estimate"
        assert "grid_points=4001" in lines[1]
        assert "seed=0" in lines[1]

    def test_csv_format_is_key_value(self, capsys):
        _, out, _ = run(capsys, "estimate", "--model", "beta-binomial",
                        "--successes", "38", "--trials", "58", "--format", "csv")
        rows = list(csv.reader(out.splitlines()))
        assert rows[0] == ["key", "value"]
        flat = {r[0]: r[1] for r in rows[1:]}
        assert flat["posterior.a"] == "39"

    def test_out_dir_env_redirects_side_files(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BAYESDESK_OUT_DIR", str(tmp_path / "outputs"))
        code, out, _ = run(capsys, "estimate", "--model", "beta-binomial",
                           "--successes", "3", "--trials", "9",
                           "--grid-csv", "grid.csv", "--format", "json")
        assert code == 0
        written = json.loads(out)["grid_csv"]
        assert written == str(tmp_path / "outputs" / "grid.csv")
        assert os.path.exists(written)

    def test_out_dir_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BAYESDESK_OUT_DIR", str(tmp_path / "env_dir"))
        flag_dir = tmp_path / "flag_dir"
        code, out, _ = run(capsys, "estimate", "--model", "beta-binomial",
                           "--successes", "3", "--trials", "9",
                           "--grid-csv", "grid.csv", "--out-dir", str(flag_dir),
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["grid_csv"] == str(flag_dir / "grid.csv")

    def test_absolute_paths_ignore_out_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BAYESDESK_OUT_DIR", str(tmp_path / "elsewhere"))
        target = tmp_path / "direct.csv"
        code, out, _ = run(capsys, "estimate", "--model", "beta-binomial",
                           "--successes", "3", "--trials", "9",
                           "--grid-csv", str(target), "--format", "json")
        assert code == 0
        assert json.loads(out)["grid_csv"] == str(target)

    def test_malformed_csv_reports_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x\n1.0\noops\n2.0\n")
        code, _, err = run(capsys, "outliers", "--data-file", str(path))
        assert code == 2
        assert "line 3" in err

    def test_contingency_schema_enforced(self, capsys, tmp_path):
        path = tmp_path / "bad_schema.csv"
        path.write_text("stratum,arm,survived,total\ns1,a,1,2\n")
        code, _, err = run(capsys, "estimate", "--model", "gamma-poisson",
                           "--prior-shape", "1", "--prior-rate", "2",
                           "--data-file", str(path), "--group", "a")
        assert code == 2
        assert "line 1" in err and "stratum" in err

    @pytest.mark.parametrize("argv, named", [
        (("outliers", "--data", "1,2,3", "--data-file", str(DATA / "sample10.csv")),
         "--data-file"),
        (("test", "--point-null", "--x", "1", "--sweep-tau", "1,10,abc"), "--sweep-tau"),
        (("hpd", "--model", "beta-binomial", "--successes", "3", "--trials", "9",
          "--grid-points", "-3"), "--grid-points"),
        (("estimate", "--model", "beta-binomial", "--successes", "3", "--trials", "9",
          "--grid-points", "2", "--grid-csv", "g.csv"), "--grid-points"),
        (("hpd", "--model", "cauchy-normal", "--prior-var", "10", "--data", "1e308,-1e308"),
         "-1e+308, 1e+308"),
        (("hpd", "--model", "cauchy-normal", "--prior-var", "10", "--data", "1e200,-1e200"),
         "-1e+200, 1e+200"),
        (("test", "--point-null", "--x", "1", "--sweep-tau", "1,inf,5"), "--sweep-tau"),
        (("hpd", "--model", "cauchy-normal", "--prior-var", "inf", "--data", "1,2"),
         "prior_variance"),
        (("test", "--point-null", "--x", "1.96", "--tau", "0"), "--tau must be positive"),
        (("test", "--point-null", "--x", "1.96", "--tau", "-1"), "--tau must be positive"),
        (("test", "--point-null", "--x", "1.96", "--tau", "inf"), "--tau must be finite"),
        (("test", "--point-null", "--x", "1.96", "--sigma", "0", "--tau", "1"),
         "--sigma must be positive"),
        (("test", "--point-null", "--x", "1.96", "--sigma-sq", "inf", "--tau", "1"),
         "--sigma-sq must be finite"),
        (("test", "--one-sided", "--x", "inf"), "--x must be finite"),
        (("test", "--point-null", "--x", "nan", "--tau", "1"), "--x must be finite"),
    ], ids=["outliers-two-sources", "sweep-tau", "grid-points-negative", "grid-points-2",
            "cauchy-huge-data", "cauchy-huge-spread", "sweep-tau-infinite", "prior-var-inf",
            "tau-zero", "tau-negative", "tau-inf", "sigma-zero", "sigma-sq-inf",
            "one-sided-x-inf", "x-nan"])
    def test_bad_input_exits_2_naming_it(self, capsys, tmp_path, argv, named):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _, err = run(capsys, *argv, "--out-dir", str(tmp_path))
        assert code == 2
        assert named in err
        assert [str(w.message) for w in caught] == []

    @pytest.mark.parametrize("argv", [
        ("hpd", "--model", "beta-binomial", "--successes", "0", "--trials", "0",
         "--prior-a", "0.5", "--prior-b", "0.5"),
        ("hpd", "--model", "gamma-poisson", "--counts", "0", "--exposures", "1",
         "--prior-shape", "0.5", "--prior-rate", "1"),
    ], ids=["beta-u-shaped", "gamma-shape-below-1"])
    def test_unbounded_density_at_grid_end_exits_3(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "infinite at x = 0" in err and "--grid-min/--grid-max" in err

    def test_overflowing_x_by_quadrature_exits_3(self, capsys):
        # (x - theta)^2 passes float range; the null marginal underflows to zero
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "test", "--point-null", "--x", "1e300", "--tau", "2",
                                 "--quadrature")
        assert (code, out) == (3, "")
        assert err.startswith("numerical error:") and caught == []

    def test_huge_data_on_explicit_grid_is_finite(self, capsys):
        # log1p((x - mu)^2) is 2 log(1e308) per datum, finite though (x - mu)^2 is not
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run(capsys, "hpd", "--model", "cauchy-normal", "--prior-var", "10",
                               "--data", "1e308,-1e308", "--grid-min", "-1", "--grid-max", "1",
                               "--format", "json")
        assert code == 0 and caught == []
        payload = json.loads(out)
        prior_mass = math.sqrt(20.0 * math.pi) * math.erf(1.0 / math.sqrt(20.0))
        assert payload["log_norm_const"] == pytest.approx(
            math.log(prior_mass) - 4.0 * math.log(1e308), rel=1e-12)
        assert payload["coverage"] == pytest.approx(0.95, abs=1e-10)

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, "outliers", "--data-file", "/nonexistent/file.csv")
        assert code == 2


class TestImportFootprint:
    def test_no_scipy_without_quadrature(self, tmp_path):
        # scipy is loaded only by the quadrature route; every other subcommand runs on numpy
        script = f"""
import contextlib, io, sys
import bayesdesk
from bayesdesk import cli
data = {str(DATA)!r}
runs = [
    ["estimate", "--model", "beta-binomial", "--successes", "3", "--trials", "9"],
    ["estimate", "--model", "normal-known-var", "--data-file", data + "/sample10.csv",
     "--column", "x"],
    ["hpd", "--model", "beta-binomial", "--successes", "3", "--trials", "9"],
    ["hpd", "--model", "normal-jeffreys", "--stats", "n=10,mean=0,ssd=1", "--sample", "200"],
    ["test", "--point-null", "--x", "1.96", "--tau", "3"],
    ["test", "--point-null", "--x", "1.96", "--sweep-tau", "0.1,100,5"],
    ["regress", "--data-file", data + "/regress20.csv", "--response", "y"],
    ["predict", "--stats", "n=10,mean=0,ssd=1"],
    ["outliers", "--data-file", data + "/planted_outlier.csv"],
]
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv + ["--out-dir", {str(tmp_path)!r}]) == 0, argv
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(__file__).parents[1] / "src"), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
