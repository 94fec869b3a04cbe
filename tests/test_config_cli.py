"""Configuration round-trips and CLI behavior (exit codes, output files)."""

import csv
import json
import math

import jsonschema
import pytest

from sdma_capacity import cli, reporting
from sdma_capacity.analytic import density_for_scheme
from sdma_capacity.config import ConfigError, ExperimentConfig
from sdma_capacity.montecarlo import InconclusiveBisection, find_max_density
from sdma_capacity.network import NetworkParams, Scheme


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestConfig:
    def test_round_trip(self, tmp_path):
        cfg = ExperimentConfig(lam=3e-5, alpha=3.5, distance=12.0, eta=1e-7,
                               m=4, n=2, k=2, schemes=["zf-multi", "bd-ub"],
                               grid=["2", "4:2:2"], trials=5000, seed=42,
                               tolerance=0.05, method="sandwich")
        path = tmp_path / "exp.ini"
        cfg.to_file(str(path))
        loaded = ExperimentConfig.from_file(str(path))
        assert loaded == cfg

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\nlambda_typo = 1\n")
        with pytest.raises(ConfigError, match="lambda_typo"):
            ExperimentConfig.from_file(str(path))

    def test_unknown_section(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[simulation]\ntrials = 10\n")
        with pytest.raises(ConfigError, match="simulation"):
            ExperimentConfig.from_file(str(path))

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="not found"):
            ExperimentConfig.from_file("/nonexistent/exp.ini")

    def test_invalid_epsilon_named(self):
        cfg = ExperimentConfig(epsilon=0.0)
        with pytest.raises(ConfigError, match="epsilon"):
            cfg.validate()

    def test_unknown_scheme_rejected(self):
        cfg = ExperimentConfig(schemes=["zf-typo"])
        with pytest.raises(ValueError, match="zf-typo"):
            cfg.validate()

    def test_grid_entry_forms(self):
        cfg = ExperimentConfig(grid=["2", "8:2:4"])
        cfg.validate()
        grid = cfg.antenna_grid(Scheme.ZF_MISO)
        assert grid == [(2, 1, 2), (8, 2, 4)]

    def test_grid_entry_errors(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(grid=["2:4"]).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(grid=["x"]).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(grid=["0"]).validate()

    def test_bd_grid_expansion(self):
        cfg = ExperimentConfig(grid=["2", "4"])
        assert cfg.antenna_grid(Scheme.BD_UB) == [(4, 2, 2), (8, 4, 2)]

    def test_network_params_mapping(self):
        cfg = ExperimentConfig(lam=2e-4, distance=15.0, m=4, n=1, k=4)
        p = cfg.network_params()
        assert p == NetworkParams(lam=2e-4, D=15.0, M=4, N=1, K=4)


class TestCliAnalytic:
    def test_default_zf_miso_row(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = cli.main(["analytic", "--out", str(out)])
        assert rc == cli.EXIT_OK
        rows = read_csv(out)
        assert len(rows) == 1
        assert rows[0]["scheme"] == "zf-miso"
        assert float(rows[0]["lambda_eps"]) == pytest.approx(1.2327e-4, rel=1e-3)

    def test_json_matches_schema(self, tmp_path):
        out = tmp_path / "res.json"
        rc = cli.main(["analytic", "--scheme", "dpc-mimo-ub", "--scheme",
                       "zf-antsel", "--m", "4", "--n", "4", "--k", "4",
                       "--format", "json", "--out", str(out)])
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, reporting.load_schema())
        assert doc["exponents"]["dpc-mimo-ub"] == pytest.approx(1.5)
        assert len(doc["rows"]) == 2

    def test_sandwich_method_brackets(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = cli.main(["analytic", "--scheme", "dpc-mimo-ub", "--m", "2",
                       "--n", "2", "--k", "2", "--method", "sandwich",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        row = read_csv(out)[0]
        assert float(row["ci_low"]) <= float(row["ci_high"])
        assert row["method"] == "sandwich"

    def test_snr_flag_sets_noise(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = cli.main(["analytic", "--scheme", "zf-miso", "--snr-db", "40",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        row = read_csv(out)[0]
        assert float(row["eta"]) == pytest.approx(1e-4)
        # eta zeta / rho = 3 > -log(1 - 0.1): noise-limited, density 0
        assert float(row["lambda_eps"]) == 0.0


class TestCliSimulate:
    def test_outage_matches_analytic(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = cli.main(["simulate", "--scheme", "siso", "--lambda", "1e-4",
                       "--trials", "40000", "--seed", "9", "--out", str(out)])
        assert rc == cli.EXIT_OK
        row = read_csv(out)[0]
        exact = 1 - math.exp(-1e-4 * math.sqrt(3e4) * 4.9348022)
        assert float(row["ci_low"]) - 0.004 <= exact <= float(row["ci_high"]) + 0.004
        assert row["p_out"]

    def test_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--scheme", "siso", "--lambda", "1e-4",
                "--trials", "20000", "--seed", "21"]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert cli.main(args + ["--out", str(out1)]) == cli.EXIT_OK
        assert cli.main(args + ["--out", str(out2)]) == cli.EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_find_density_recovers_closed_form(self, tmp_path):
        out = tmp_path / "res.csv"
        rc = cli.main(["simulate", "--find-density", "--scheme", "zf-miso",
                       "--m", "2", "--n", "1", "--k", "2", "--seed", "5",
                       "--tolerance", "0.05", "--out", str(out)])
        assert rc == cli.EXIT_OK
        row = read_csv(out)[0]
        closed = density_for_scheme(NetworkParams(M=2, N=1, K=2),
                                    Scheme.ZF_MISO).lambda_eps
        assert float(row["lambda_eps"]) == pytest.approx(closed, rel=0.10)
        assert row["method"] == "mc-root"
        res = find_max_density(Scheme.ZF_MISO, NetworkParams(M=2, N=1, K=2),
                               seed=5, tolerance=0.05)
        assert (row["trials"], row["seed"]) == (str(res.extras["trials"]), "5")

    def test_infeasible_scheme_is_numerical_error(self, tmp_path):
        rc = cli.main(["simulate", "--scheme", "zf-multi", "--m", "2",
                       "--n", "2", "--k", "2",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_NUMERICAL

    def test_inconclusive_maps_to_exit_4(self, tmp_path, monkeypatch):
        def fake(*args, **kw):
            raise InconclusiveBisection("budget exhausted", (1e-5, 2e-5))

        monkeypatch.setattr(cli, "find_max_density", fake)
        rc = cli.main(["simulate", "--find-density", "--scheme", "zf-miso",
                       "--m", "2", "--n", "1", "--k", "2",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_INCONCLUSIVE


class TestCliSweep:
    def test_analytic_slope_printed(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        rc = cli.main(["sweep", "--scheme", "zf-miso", "--grid", "2,4,8,16",
                       "--out", str(out)])
        assert rc == cli.EXIT_OK
        text = capsys.readouterr().out
        assert "slope zf-miso" in text
        rows = read_csv(out)
        assert len(rows) == 4

    def test_sweep_json_schema(self, tmp_path):
        out = tmp_path / "sweep.json"
        rc = cli.main(["sweep", "--scheme", "dpc-miso", "--grid", "2,4,8,16",
                       "--format", "json", "--out", str(out)])
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, reporting.load_schema())
        slope = doc["slopes"]["dpc-miso/small-eps"]
        assert slope == pytest.approx(1.0, abs=0.1)

    def test_siso_sweep_has_null_slope(self, tmp_path, capsys):
        # siso has one antenna count at every grid point: no slope to fit
        out = tmp_path / "sweep.json"
        rc = cli.main(["sweep", "--scheme", "siso", "--grid", "2,4,8,16,32",
                       "--format", "json", "--out", str(out)])
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, reporting.load_schema())
        assert doc["slopes"] == {"siso/exact-root": None}
        assert len(doc["rows"]) == 5
        assert "slope siso [exact-root]: undefined" in capsys.readouterr().out

    def test_single_point_grid_rejected(self, tmp_path):
        rc = cli.main(["sweep", "--scheme", "zf-miso", "--grid", "4",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_CONFIG

    def test_all_rows_failing_exit_3(self, tmp_path):
        # every triple violates M >= K*N for zf-multi
        rc = cli.main(["sweep", "--scheme", "zf-multi",
                       "--grid", "2:2:2,3:2:2", "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_NUMERICAL


class TestCliValidate:
    def test_validate_passes(self, tmp_path):
        out = tmp_path / "validation.json"
        rc = cli.main(["validate", "--seed", "3", "--out", str(out)])
        assert rc == cli.EXIT_OK
        doc = json.loads(out.read_text())
        jsonschema.validate(doc, reporting.load_schema())
        assert all(c["passed"] for c in doc["checks"])


class TestCliErrors:
    def test_bad_epsilon_exit_2(self, tmp_path):
        rc = cli.main(["analytic", "--epsilon", "1.5",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_CONFIG

    def test_unknown_scheme_exit_2(self, tmp_path):
        rc = cli.main(["analytic", "--scheme", "zf-typo",
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_CONFIG

    def test_bad_config_file_exit_2(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[network]\nmystery = 1\n")
        rc = cli.main(["analytic", "--config", str(path),
                       "--out", str(tmp_path / "x.csv")])
        assert rc == cli.EXIT_CONFIG
