import json
import math

import pytest

from maf.cli import main
from maf.config import (
    ConfigError,
    SystemConfig,
    build_system,
    bundled_names,
    load_bundled,
    load_config,
)
from maf.reports import CheckReport, emit, from_residuals, parse_json


class TestReports:
    def test_pass_threshold_inclusive(self):
        assert CheckReport("x", 1e-8, 1e-8, 1e-8).passed
        assert not CheckReport("x", 1.0001e-8, 1e-8, 1e-8).passed

    def test_from_residuals_empty(self):
        rep = from_residuals("x", [], 1e-8)
        assert rep.max_residual == 0.0 and rep.mean_residual == 0.0 and rep.passed

    def test_from_residuals_nan_not_first_fails(self):
        rep = from_residuals("x", [1e-12, float("nan"), 1e-13], 1e-8)
        assert math.isnan(rep.max_residual)
        assert not rep.passed

    def test_from_residuals_inf_fails(self):
        rep = from_residuals("x", [1e-12, float("inf")], float("inf"))
        assert rep.max_residual == float("inf")
        assert not rep.passed

    def test_json_nonfinite_is_valid(self):
        def reject(token):
            raise ValueError(f"bare constant {token}")

        text = emit([from_residuals("x", [1e-12, float("nan")], 1e-8, spread=[float("inf"), -math.inf])])
        data = json.loads(text, parse_constant=reject)
        assert data[0]["max_residual"] == "nan" and data[0]["metadata"]["spread"] == ["inf", "-inf"]
        back = parse_json(text)[0]
        assert math.isnan(back.max_residual) and not back.passed
        inf_tol = parse_json(emit([CheckReport("y", 0.0, 0.0, float("inf"))]))[0]
        assert inf_tol.tol == float("inf") and inf_tol.passed

    def test_json_roundtrip(self):
        reps = [from_residuals("a", [0.1, 0.3], 1.0, note="n")]
        back = parse_json(emit(reps, fmt="json"))
        assert back[0].name == "a"
        assert back[0].max_residual == 0.3
        assert back[0].metadata == {"note": "n"}

    def test_csv_columns(self):
        text = emit([from_residuals("a", [0.5], 1.0)], fmt="csv")
        lines = text.strip().splitlines()
        assert lines[0] == "name,max_residual,mean_residual,tol,pass"
        assert lines[1].startswith("a,0.5,")

    def test_unknown_format(self):
        with pytest.raises(ValueError):
            emit([], fmt="yaml")

    def test_str_verdict(self):
        assert str(from_residuals("a", [0.5], 1.0)).endswith("PASS")
        assert str(from_residuals("a", [2.0], 1.0)).endswith("FAIL")


class TestConfigs:
    def test_bundled_names(self):
        assert set(bundled_names()) >= {"landau", "conjugate", "alteration"}

    def test_bundled_systems_build(self):
        for name in ("landau", "conjugate", "alteration"):
            sys_ = build_system(load_bundled(name))
            assert sys_.B > 0

    def test_unknown_bundled(self):
        with pytest.raises(ConfigError):
            load_bundled("nonexistent")

    def test_missing_key(self):
        with pytest.raises(ConfigError, match="missing required"):
            SystemConfig.from_dict({"nu": 1.0})

    def test_load_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="valid JSON"):
            load_config(str(p))

    def test_load_missing_file(self):
        with pytest.raises(ConfigError):
            load_config("/no/such/file.json")

    def test_rejects_nonpositive_field(self):
        # pushing mu high flips the derived field negative for tau = zbar
        cfg = load_bundled("conjugate")
        cfg.mu = 3.0
        with pytest.raises(ConfigError, match="invariant"):
            build_system(cfg)

    def test_unknown_tau_kind(self):
        cfg = load_bundled("landau")
        cfg.tau = {"kind": "spline"}
        with pytest.raises(ConfigError, match="tau"):
            build_system(cfg)

    def test_file_config_roundtrip(self, tmp_path):
        from importlib import resources

        text = (resources.files("maf") / "configs" / "landau.json").read_text()
        p = tmp_path / "sys.json"
        p.write_text(text)
        cfg = load_config(str(p))
        assert cfg.nu == load_bundled("landau").nu


class TestCli:
    def test_report_passes_all_bundled(self, capsys):
        for name in ("landau", "conjugate", "alteration"):
            assert main(["report", "--config", name]) == 0
            data = json.loads(capsys.readouterr().out)
            assert all(d["pass"] for d in data)

    def test_check_failure_exit_code(self, capsys):
        # overriding the quantized flux breaks the character extension
        cfg = json.loads(
            __import__("importlib.resources", fromlist=["files"])
            .files("maf")
            .joinpath("configs", "landau.json")
            .read_text()
        )
        cfg["rdq"] = {"nu": 1.0, "values_on_generators": [[1, 0], [1, 0]]}
        import tempfile

        with tempfile.NamedTemporaryFile("w", suffix=".json", delete=False) as fh:
            json.dump(cfg, fh)
            path = fh.name
        assert main(["rdq", "--config", path]) == 1
        capsys.readouterr()

    def test_config_error_exit_code(self, capsys):
        assert main(["field", "--config", "nonexistent"]) == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_grid_spec(self, capsys):
        assert main(["field", "--config", "landau", "--grid", "0,1,5"]) == 2
        capsys.readouterr()

    def test_deterministic_output(self, capsys):
        main(["gauge", "--config", "alteration", "--z", "1,1"])
        first = capsys.readouterr().out
        main(["gauge", "--config", "alteration", "--z", "1,1"])
        assert capsys.readouterr().out == first

    def test_gauge_value_metadata(self, capsys):
        assert main(["gauge", "--config", "alteration", "--z", "1,1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert "phi" in data[0]["metadata"]

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["field", "--config", "landau", "--out", str(out)]) == 0
        assert json.loads(out.read_text())[0]["pass"]
        assert capsys.readouterr().out == ""

    def test_zero_tol_is_honoured(self, capsys):
        code = main(["report", "--config", "landau", "--tol", "0"])
        reports = json.loads(capsys.readouterr().out)
        assert all(d["tol"] == 0.0 for d in reports), [d["name"] for d in reports if d["tol"] != 0.0]
        data = {d["name"]: d for d in reports}
        for name in ("spectrum_rayleigh", "kernel_structure"):
            assert not data[name]["pass"]
        assert code == 1

    def test_numerical_breakdown_exit_code(self, capsys, monkeypatch):
        # a NaN finite-difference step makes the derivative non-finite
        monkeypatch.setenv("MAF_FD_STEP", "nan")
        with pytest.warns(RuntimeWarning):
            assert main(["spectrum", "--config", "landau"]) == 3
        captured = capsys.readouterr()
        assert captured.err.startswith("numerical error: non-finite derivative")
        assert captured.out == ""

    def test_csv_format(self, capsys):
        assert main(["field", "--config", "landau", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "name,max_residual,mean_residual,tol,pass"

    def test_highdim_verdicts(self, capsys):
        assert main(["highdim", "--config", "landau"]) == 0
        data = json.loads(capsys.readouterr().out)
        by_name = {d["name"]: d for d in data}
        assert by_name["highdim_identity"]["pass"]
        assert by_name["highdim_conjugate"]["pass"]
        rot = by_name["highdim_rotation45"]
        assert rot["pass"]  # the assembled 2-form is constant
        assert not rot["metadata"]["result"]["per_l"]["pass"]
        assert not rot["metadata"]["result"]["agree"]

    def test_fd_step_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MAF_FD_STEP", "1e-3")
        assert main(["field", "--config", "conjugate"]) == 0
        capsys.readouterr()

    def test_fixed_invariance_element(self, capsys):
        assert main(["invariance", "--config", "conjugate", "--g", "0,1,1,0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1 and data[0]["pass"]

    def test_spectrum_listing(self, capsys):
        assert main(["spectrum", "--config", "alteration", "--kmax", "2"]) == 0
        data = json.loads(capsys.readouterr().out)
        levels = data[0]["metadata"]["levels"]
        assert [r["lambda"] for r in levels] == [-3.0, -9.0, -15.0]

    def test_kernel_value(self, capsys):
        assert main(["kernel", "--config", "landau", "--z", "0,0", "--w", "0,0"]) == 0
        data = json.loads(capsys.readouterr().out)
        import numpy as np

        val = complex(*data[0]["metadata"]["value"])
        assert abs(val - 1 / np.pi) < 1e-12
