import json
import math
import re
import struct
import sys
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maf.cli import COMMANDS, main
from maf.config import ConfigError, SystemConfig, build_system, load_bundled, load_config
from maf.fields import Grid
from maf.reports import CheckReport, element_dicts, emit, from_element_residuals, from_residuals

ROOT = Path(__file__).resolve().parents[1]
_NONFINITE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def parse_json(text: str) -> list[CheckReport]:
    """Inverse of ``emit(..., fmt='json')``: "nan", "inf" and "-inf" in residuals and
    tolerances become floats again."""

    def num(v):
        return _NONFINITE.get(v, v) if isinstance(v, str) else v

    keys = ("max_residual", "mean_residual", "tol")
    return [CheckReport(d["name"], *(num(d[k]) for k in keys), d.get("metadata", {})) for d in json.loads(text)]


def landau_text(**changes) -> str:
    """The bundled landau config as JSON text, with ``changes`` to its top-level keys."""
    data = json.loads(resources.files("maf").joinpath("configs", "landau.json").read_text())
    return json.dumps({**data, **changes})


def bundled_names() -> list[str]:
    """The packaged example systems, ``configs/*.json`` beside ``maf.config``."""
    files = resources.files("maf").joinpath("configs").iterdir()
    return sorted(f.name.removesuffix(".json") for f in files if f.name.endswith(".json"))


def old_from_residuals(residuals):
    """(max, mean) through Python floats: the max as from_residuals took it before
    the numpy reduction replaced the formula, kept as an oracle, and the mean of
    the correctly rounded sum (``math.fsum``), inf where that sum overflows."""
    arr = np.asarray(residuals, dtype=float).ravel()
    if not arr.size:
        return 0.0, 0.0
    vals = arr.tolist()
    finite = np.isfinite(arr)
    worst = max(vals) if finite.all() else vals[int(np.argmin(finite))]
    try:
        return worst, math.fsum(vals) / len(vals)
    except OverflowError:  # raised before a NaN among the summands is seen
        return worst, math.nan if np.isnan(arr).any() else math.inf


def jsonable(obj):
    """obj as plain JSON data, as emit converted it before its writer folded
    the conversion in; kept with json.dumps as the writer's oracle."""
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, complex):
        return [jsonable(obj.real), jsonable(obj.imag)]
    if isinstance(obj, float) and not math.isfinite(obj):
        return repr(obj)
    return obj


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def per_row_summary(residuals):
    """(max, mean) by the general path of from_residuals: the first non-finite residual in
    row-major order, else the largest; numpy's pairwise sum under errstate, over n."""
    arr = np.asarray(residuals, dtype=float).ravel()
    if not arr.size:
        return 0.0, 0.0
    finite = np.isfinite(arr)
    worst = arr.max() if finite.all() else arr[np.argmin(finite)]
    with np.errstate(over="ignore"):
        total = arr.sum()
    return float(worst), float(total) / arr.size


def summary_cases():
    """(G, N) residual arrays: random ones over many scales, a NaN, an inf, NaN and inf in
    either order, two 1e308 entries whose sum overflows, and empty ones."""
    rng = np.random.default_rng(3)
    cases = [rng.exponential(10.0 ** rng.integers(-16, 5), (g, n)) for g, n in [(1, 1), (3, 81), (5, 121), (2, 7)]]
    for bad in ([math.nan], [math.inf], [math.inf, math.nan], [math.nan, math.inf], [1e308, 1e308]):
        arr = rng.random((3, 9))
        arr[1, 2 : 2 + len(bad)] = bad
        cases.append(arr)
    # several bad rows in one call: a NaN row, an inf-before-NaN row and an overflowing one
    several = rng.random((4, 9))
    several[0, 4], several[1, 2:4], several[3, 0:2] = math.nan, [math.inf, math.nan], [1e308, 1e308]
    return cases + [np.zeros((3, 0)), np.zeros((0, 4)), several]


def _residuals(vals, n, seed, inserts):
    """vals and n uniform residuals (enough that a pairwise sum rounds apart from
    a left-to-right one), with NaN and inf inserted at the given positions."""
    vals = vals + (np.random.default_rng(seed).random(n) * 1e3).tolist()
    for i, x in inserts:
        vals.insert(i, x)
    return vals


residual_lists = st.builds(
    _residuals,
    st.lists(st.floats(min_value=0.0, allow_nan=False), max_size=20),
    st.integers(0, 300),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 320), st.sampled_from([math.nan, math.inf])), max_size=3),
)
json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    st.complex_numbers(),
    st.floats().map(np.float64),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.complex_numbers().map(np.complex128),
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=20,
)


class TestReports:
    @given(residual_lists, st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_from_residuals_matches_python_float_reduction(self, residuals, as_matrix):
        arr = np.array(residuals, float)
        if as_matrix and arr.size % 2 == 0:
            arr = arr.reshape(2, -1)
        rep = from_residuals("x", arr, 1e-8)
        worst, mean = old_from_residuals(arr)
        assert _bits(rep.max_residual) == _bits(worst)
        # the pairwise sum of nonnegative residuals is within a few ulps of the correctly rounded
        # one (a left-to-right sum may be off by up to n / 2 ulps); the division by n may round
        # in the subnormal range, hence one ulp of 0 besides
        if math.isnan(mean):
            assert math.isnan(rep.mean_residual)
        else:
            assert math.isclose(rep.mean_residual, mean, rel_tol=16 * sys.float_info.epsilon, abs_tol=math.ulp(0.0))

    @given(st.text(), residual_lists, st.floats(), json_values)
    @settings(max_examples=100, deadline=None)
    def test_emit_matches_json_dumps(self, name, residuals, tol, metadata):
        reports = [from_residuals(name, residuals, tol, value=metadata), CheckReport(name, 0.0, 0.0, tol)]
        oracle = json.dumps(jsonable([r.to_dict() for r in reports]), indent=2, sort_keys=True, allow_nan=False)
        assert emit(reports) == oracle

    def test_emit_rejects_keys_that_are_not_strings(self):
        with pytest.raises(TypeError):
            emit([CheckReport("x", 0.0, 0.0, 1.0, {"counts": {1: 2}})])

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", range(len(summary_cases())))
    def test_summaries_match_the_per_row_path(self, case):
        arr = summary_cases()[case]
        gs = (np.exp(1j * np.arange(len(arr))), np.arange(len(arr)) * (0.5 - 1j))
        rows = [per_row_summary(r) for r in arr]
        reps = from_element_residuals("x", arr, 1e-8, gs, "gamma", k=2)
        assert len(reps) == len(arr)
        for rep, (worst, mean), g in zip(reps, rows, element_dicts(gs)):
            assert (_bits(rep.max_residual), _bits(rep.mean_residual)) == (_bits(worst), _bits(mean))
            assert rep.metadata == {"gamma": g, "k": 2}
        for r, (worst, mean) in zip([arr, *arr], [per_row_summary(arr), *rows]):
            rep = from_residuals("x", r, 1e-8)
            assert (_bits(rep.max_residual), _bits(rep.mean_residual)) == (_bits(worst), _bits(mean))

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


class TestConfigs:
    def test_bundled_names(self):
        # exactly the *.json files packaged under src/maf/configs, each loading by its name
        packaged = sorted(p.stem for p in (ROOT / "src" / "maf" / "configs").glob("*.json"))
        assert bundled_names() == packaged and set(packaged) >= {"landau", "conjugate", "alteration"}
        assert [load_bundled(name).name for name in packaged] == packaged

    def test_bundled_systems_build(self):
        for name in ("landau", "conjugate", "alteration"):
            sys_ = build_system(load_bundled(name))
            assert sys_.B > 0

    def test_unknown_bundled(self):
        for name in ("nonexistent", "landau.json"):
            with pytest.raises(ConfigError, match=f"no bundled config named '{name}'"):
                load_bundled(name)

    def test_unknown_grid_key_is_refused(self, capsys, tmp_path):
        # a misspelt grid key would leave the checks on the default 41 x 41 grid
        for name in bundled_names():
            assert set(load_bundled(name).grid) <= {"xmin", "xmax", "nx", "ymin", "ymax", "ny"}
        assert set(load_config(str(ROOT / "perfbench" / "p6.json")).grid) == {"xmin", "xmax", "nx", "ymin", "ymax", "ny"}
        data = json.loads((resources.files("maf") / "configs" / "landau.json").read_text())
        data["grid"]["nX"] = 9
        with pytest.raises(ConfigError, match="unknown grid key 'nX'"):
            SystemConfig.from_dict(data)
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(data))
        for command in ("report", "field"):
            assert main([command, "--config", str(p)]) == 2
            captured = capsys.readouterr()
            assert "unknown grid key 'nX'" in captured.err and captured.out == ""
            assert "malformed config value" not in captured.err

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

    @pytest.mark.parametrize(
        "changes, message",
        [
            ({"chi": {"values_on_generators": [[math.nan, 0], [1, 0]]}}, "pseudo-character value (nan+0j) is not unimodular"),
            ({"nu": math.nan}, "nu must be finite, got nan"),
            ({"mu": math.nan}, "mu must be finite, got nan"),
            ({"tau": {"kind": "affine", "p": [1, 0], "q": [0, 0], "r": [math.nan, 0]}}, "tau's r must be finite"),
            ({"tau": {"kind": "from_beta", "beta": [math.nan, 0]}}, "beta=(nan+0j) is not a common fixed point"),
            ({"gamma": {"generators": [{"a": [1, 0], "b": [0, math.nan]}, {"a": [1, 0], "b": [0, 1]}]}},
             "translation part must be finite"),
            ({"gamma": {"generators": [{"a": [math.nan, 0], "b": [1, 0]}, {"a": [1, 0], "b": [0, 1]}]}},
             "rotation part must be finite"),
        ],
        ids=["chi", "nu", "mu", "tau_r", "tau_beta", "generator_b", "generator_a"],
    )
    def test_non_finite_config_is_refused_by_name(self, capsys, tmp_path, changes, message):
        # a NaN fails every refusal, so none reads it as passing, and no check runs on it
        path = tmp_path / "nan.json"
        path.write_text(landau_text(**changes))
        assert main(["report", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("config error: ") and message in captured.err

    @pytest.mark.parametrize("g, part", [("1,0,nan,0", "translation"), ("nan,0,0,0", "rotation"), ("1,0,0,inf", "translation")])
    def test_non_finite_element_is_refused_by_name(self, capsys, g, part):
        assert main(["invariance", "--config", "landau", "--g", g]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"usage error: {part} part must be finite")

    def test_field_passes_on_a_far_grid(self, capsys):
        # the absolute defect there is ~1e-12 of round-off, growing like |z|; divided by |z| it passes
        assert main(["field", "--config", "alteration", "--grid=-1e4,1e4,41,-1e4,1e4,41"]) == 0
        assert json.loads(capsys.readouterr().out)[0]["pass"]

    def test_bad_grid_spec(self, capsys):
        assert main(["field", "--config", "landau", "--grid", "0,1,5"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("grid, axis", [("-3,3,0,-3,3,5", "nx"), ("-3,3,5,-3,3,-1", "ny")])
    def test_empty_grid_names_the_axis(self, capsys, grid, axis):
        for command in ("field", "report"):
            assert main([command, "--config", "landau", f"--grid={grid}"]) == 2
            captured = capsys.readouterr()
            assert captured.err.startswith(f"usage error: grid {axis} must be >= 1")
            assert captured.out == ""

    @pytest.mark.parametrize("grid, bound", [("0,nan,5,0,1,5", "xmax"), ("-inf,1,5,0,1,5", "xmin"),
                                             ("0,1,5,nan,1,5", "ymin"), ("0,1,5,0,inf,5", "ymax")])
    def test_non_finite_grid_bound_is_refused_by_name(self, capsys, tmp_path, grid, bound):
        # a NaN bound gave "nan" residuals and exit 1; in --grid or in the config's grid block
        path = tmp_path / "grid.json"
        keys = ("xmin", "xmax", "nx", "ymin", "ymax", "ny")
        path.write_text(landau_text(grid={k: (int if k[0] == "n" else float)(v) for k, v in zip(keys, grid.split(","))}))
        for argv in (["--config", "landau", f"--grid={grid}"], ["--config", str(path)]):
            for command in ("field", "report"):
                assert main([command, *argv]) == 2
                captured = capsys.readouterr()
                assert captured.out == "" and captured.err.startswith(f"usage error: grid {bound} must be finite")

    @pytest.mark.parametrize("key, value, want", [
        ("xmin", "a", "a real number"), ("xmin", None, "a real number"), ("ymax", [1], "a real number"),
        ("xmax", True, "a real number"), ("nx", 2.5, "an integer"), ("ny", "5", "an integer"),
        ("nx", True, "an integer"), ("ymin", 10**400, "finite"),
    ], ids=["xmin_str", "xmin_null", "ymax_list", "xmax_bool", "nx_float", "ny_str", "nx_bool", "ymin_past_float"])
    def test_malformed_grid_value_is_refused_by_name(self, capsys, tmp_path, key, value, want):
        # these exited 1 with a traceback (a TypeError, or numpy's cast error for an int past the
        # float range), and "nx": true ran as one point
        with pytest.raises(ValueError, match=re.escape(f"grid {key} must be {want}, got {value!r}")):
            Grid(**{key: value})
        path = tmp_path / "grid.json"
        path.write_text(landau_text(grid={key: value}))
        assert main(["field", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"usage error: grid {key} must be {want}")

    @pytest.mark.parametrize("command, points", [("kernel", ["--z", "nan,0", "--w", "0,0"]),
                                                 ("kernel", ["--z", "0,0", "--w", "0,inf"]),
                                                 ("gauge", ["--z", "nan,0"]), ("gauge", ["--z", "0,-inf"])],
                             ids=["kernel_z", "kernel_w", "gauge_nan", "gauge_inf"])
    def test_non_finite_point_is_refused(self, capsys, command, points):
        # these exited 0 with a "nan" value or phi in the metadata, which no check reads
        assert main([command, "--config", "landau", *points]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage error: a point is RE,IM, two finite numbers")

    @pytest.mark.parametrize("nu", [math.nan, math.inf])
    def test_non_finite_rdq_nu_is_refused_by_name(self, capsys, tmp_path, nu):
        # the rdq block's own flux; a NaN gave a NaN report and exit 1
        path = tmp_path / "rdq.json"
        path.write_text(landau_text(rdq={"nu": nu, "values_on_generators": [[1, 0], [1, 0]]}))
        for command in ("rdq", "report"):
            assert main([command, "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"config error: rdq block: nu must be finite, got {nu}")

    @pytest.mark.parametrize(
        "option, value", [("--kmax", "-1"), ("--tol", "nan"), ("--tol", "-1"), ("--tol", "inf")]
    )
    def test_out_of_range_option_is_usage_error(self, capsys, option, value):
        # --kmax -1 would list no level and check none; a NaN or negative
        # tolerance would fail every check
        for command in ("spectrum", "report"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", "landau", option, value])
            assert exc.value.code == 2
            captured = capsys.readouterr()
            assert f"argument {option}: must be finite and >= 0" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize(
        "command, spaced, joined",
        [
            ("gauge", ["--z", "-1,0"], ["--z=-1,0"]),
            ("kernel", ["--z", "-1,0", "--w", "-.5,-0.5"], ["--z=-1,0", "--w=-.5,-0.5"]),
            ("invariance", ["--g", "-1,0,-0.5,1"], ["--g=-1,0,-0.5,1"]),
            ("field", ["--grid", "-3,3,21,-3,3,21"], ["--grid=-3,3,21,-3,3,21"]),
        ],
    )
    def test_pair_options_take_a_leading_minus(self, capsys, command, spaced, joined):
        # "--z -1,0" means what "--z=-1,0" means, not an unknown option "-1,0"
        assert main([command, "--config", "alteration", *spaced]) == 0
        out = capsys.readouterr().out
        assert main([command, "--config", "alteration", *joined]) == 0
        assert capsys.readouterr().out == out
        if command == "gauge":
            assert json.loads(out)[0]["metadata"]["z"] == [-1.0, 0.0]
        if command == "field":
            assert json.loads(out)[0]["metadata"]["grid"]["xmin"] == -3.0

    def test_deterministic_output(self, capsys):
        main(["gauge", "--config", "alteration", "--z", "1,1"])
        first = capsys.readouterr().out
        main(["gauge", "--config", "alteration", "--z", "1,1"])
        assert capsys.readouterr().out == first

    def test_gauge_value_metadata(self, capsys):
        assert main(["gauge", "--config", "alteration", "--z", "1,1"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["metadata"]["phi"] == 2 * (-0.21650635094610965 - 0.125)  # 2 Re(gauge_k (1 + i))
        assert data[0]["metadata"]["gauge_k"] == [-0.21650635094610965, 0.125]

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["field", "--config", "landau", "--out", str(out)]) == 0
        assert json.loads(out.read_text())[0]["pass"]
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_zero_tol_is_honoured(self, capsys, command):
        code = main([command, "--config", "landau", "--tol", "0"])
        reports = json.loads(capsys.readouterr().out)
        assert reports
        assert all(d["tol"] == 0.0 for d in reports), [d["name"] for d in reports if d["tol"] != 0.0]
        data = {d["name"]: d for d in reports}
        if command == "report":
            assert {"spectrum_rayleigh", "kernel_structure"} <= data.keys()
        for name in ("spectrum_rayleigh", "kernel_structure"):
            assert name not in data or not data[name]["pass"]
        assert code == (0 if all(d["pass"] for d in reports) else 1)

    def test_numerical_breakdown_exit_code(self, capsys, tmp_path):
        # at B = 1e5 the strip eigenfunctions underflow to 0 on every sample point
        data = json.loads((resources.files("maf") / "configs" / "landau.json").read_text())
        data["nu"] = 1e5
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(data))
        assert main(["spectrum", "--config", str(p)]) == 3
        captured = capsys.readouterr()
        assert captured.err == "numerical error: field vanishes on all sample points\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "rho_tilde, tau_tilde",
        [
            ({"kind": "power", "n": 2}, {"kind": "linear", "c": [1, 0]}),
            ({"kind": "power", "n": 0}, {"kind": "linear", "c": [0, 1]}),
            ({"kind": "conjugate"}, {"kind": "linear", "c": [2, 0]}),
            ({"kind": "power", "n": 3}, {"kind": "conjugate"}),
        ],
    )
    def test_separated_non_endomorphism_names_rho(self, capsys, tmp_path, rho_tilde, tau_tilde):
        data = json.loads((resources.files("maf") / "configs" / "landau.json").read_text())
        data["rho"] = {"family": "separated", "rho_tilde": rho_tilde, "tau_tilde": tau_tilde}
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(data))
        assert main(["report", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: system invariant violated: separated rho with power")
        assert "a nonzero additive map needs power 1 if linear, -1 if conjugate" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("c, code", [(7, 0), (3.5, 2)])
    def test_rho_preserves_the_lattice_exactly(self, capsys, tmp_path, c, code):
        # z -> c z maps the translations Z[i] into themselves for every integer c, however
        # long the words of the images; 3.5 maps 1 off the lattice
        data = json.loads((resources.files("maf") / "configs" / "landau.json").read_text())
        data["rho"] = {"family": "separated", "rho_tilde": {"kind": "power", "n": 1}, "tau_tilde": {"kind": "linear", "c": [c, 0]}}
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(data))
        assert main(["report", "--config", str(p)]) == code
        captured = capsys.readouterr()
        if code:
            assert captured.err == "config error: system invariant violated: rho does not preserve the subgroup: generator 0 escapes\n"
        else:
            assert all(r["pass"] for r in json.loads(captured.out))

    @pytest.mark.parametrize("kept, failing", [(0, "equivariance"), (1, "endomorphism_homomorphism")])
    def test_rho_without_its_fixed_point_term_fails(self, capsys, monkeypatch, fresh_groups, kept, failing):
        # apply_endo_ab with c b^(n) + kept * beta in place of c b^(n) + (1 - a^n) beta,
        # swapped in once the system is built.  kept = 0 gives the endomorphism
        # (n, c, 0), whose fixed point is 0 and no longer tau's beta; kept = 1 is
        # not an endomorphism at all.
        import maf.cli
        import maf.equivariant

        def broken(rho, a, b):
            an = maf.equivariant._cpow(a, rho.n)
            return an, rho.c * (b if rho.n == 1 else np.conj(b)) + kept * rho.beta

        def build_then_break(cfg):
            sys_ = build_system(cfg)
            monkeypatch.setattr(maf.equivariant, "apply_endo_ab", broken)
            return sys_

        monkeypatch.setattr(maf.cli, "build_system", build_then_break)
        assert main(["report", "--config", "alteration"]) == 1
        reports = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
        assert not reports[failing]["pass"] and reports[failing]["max_residual"] > 0.1
        assert reports["endomorphism_homomorphism"]["pass"] == (kept == 0)

    def test_csv_format(self, capsys):
        assert main(["field", "--config", "landau", "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "name,max_residual,mean_residual,tol,pass"

    def test_highdim_verdicts(self, capsys):
        assert main(["highdim", "--config", "landau"]) == 0
        data = json.loads(capsys.readouterr().out)
        by_name = {d["name"]: d for d in data}
        for name in ("highdim_identity", "highdim_conjugate"):
            assert by_name[name]["pass"] and by_name[name]["tol"] == 1e-12
            assert by_name[name]["max_residual"] == 0.0
            assert by_name[name]["metadata"]["coordinate_decoupling"]["decoupled"]
        rot = by_name["highdim_rotation45"]
        assert rot["pass"] and rot["max_residual"] <= 1e-12  # U is unitary
        assert not rot["metadata"]["coordinate_decoupling"]["decoupled"]

    @pytest.mark.parametrize("command", ["report", "highdim"])
    def test_fd_step_changes_no_output(self, capsys, tmp_path, command):
        # a config that still carries "fd_step" (perfbench/p6.json does) loads, and its value,
        # which no command reads, changes no byte of the output
        assert main([command, "--config", "landau"]) == 0
        want = capsys.readouterr().out
        data = json.loads((resources.files("maf") / "configs" / "landau.json").read_text())
        for step in (3e-3, -1.0):
            data["fd_step"] = step
            p = tmp_path / "sys.json"
            p.write_text(json.dumps(data))
            assert main([command, "--config", str(p)]) == 0
            assert capsys.readouterr().out == want

    @pytest.mark.parametrize("step", ["nan", "1e-2"])
    def test_fd_step_env_is_not_read(self, capsys, monkeypatch, step):
        # no environment variable sets the step: the commands take no finite difference
        assert main(["report", "--config", "conjugate"]) == 0
        want = capsys.readouterr().out
        monkeypatch.setenv("MAF_FD_STEP", step)
        assert main(["report", "--config", "conjugate"]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize(
        "block, key",
        [
            ({"n": 2, "cases": [{"name": "notau"}]}, "'tau'"),
            ({"n": 2, "cases": [{"tau": {"kind": "linear"}}]}, "'U'"),
            ({"n": 2}, "'cases'"),
            ({"n": 2, "cases": []}, "needs at least one case"),
            ({"n": 0, "cases": [{"tau": {"kind": "identity"}}]}, "n must be an integer ≥ 1, got 0"),
            ({"n": 2.5, "cases": [{"tau": {"kind": "identity"}}]}, "n must be an integer ≥ 1, got 2.5"),
            ({"n": "x", "cases": [{"tau": {"kind": "identity"}}]}, "n must be an integer ≥ 1, got 'x'"),
            ({"n": 2, "cases": {"a": 1}}, "'cases' must be a list of objects"),
            ({"n": 2, "cases": ["identity"]}, "'cases' must be a list of objects"),
            ({"n": 2, "cases": [{"tau": "identity"}]}, "'tau' must be an object"),
            ({"n": 2, "cases": [{"tau": {"kind": "linear", "U": [[1, 0], [0, 1]]}}]}, "'U' must be rows of [re, im] pairs"),
        ],
    )
    def test_incomplete_highdim_block_is_config_error(self, capsys, tmp_path, block, key):
        data = json.loads((resources.files("maf") / "configs" / "landau.json").read_text())
        data["highdim"] = block
        p = tmp_path / "sys.json"
        p.write_text(json.dumps(data))
        assert main(["highdim", "--config", str(p)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and key in captured.err
        assert captured.out == ""

    def test_missing_or_unknown_command_exits_2(self, capsys):
        for argv in ([], ["--config", "landau"], ["nope", "--config", "landau"], ["report"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
        capsys.readouterr()

    def test_readme_cli_examples(self, capsys):
        import shlex
        from pathlib import Path

        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## CLI", 1)[1].split("```bash", 1)[1].split("```", 1)[0]
        lines = [line.split("#", 1)[0] for line in block.splitlines() if line.startswith("maf ")]
        assert len(lines) >= 8
        for line in lines:
            argv = shlex.split(line)[1:]
            assert main(argv) == 0, line
            capsys.readouterr()

    def test_fixed_invariance_element(self, capsys):
        assert main(["invariance", "--config", "conjugate", "--g", "0,1,1,0"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert len(data) == 1 and data[0]["pass"]
        assert data[0]["name"] == "invariance"
        assert data[0]["metadata"]["n_elements"] == 1
        assert data[0]["metadata"]["g"] == {"a": [0.0, 1.0], "b": [1.0, 0.0]}
        assert data[0]["max_residual"] == data[0]["mean_residual"]

    def test_report_takes_the_point_and_element_options(self, capsys):
        assert main(["report", "--config", "alteration", "--z", "1,1", "--g", "0,1,1,0"]) == 0
        data = {d["name"]: d for d in json.loads(capsys.readouterr().out)}
        assert data["gauge_coefficient"]["metadata"]["z"] == [1.0, 1.0]
        assert "phi" in data["gauge_coefficient"]["metadata"]
        assert data["invariance"]["metadata"]["g"] == {"a": [0.0, 1.0], "b": [1.0, 0.0]}

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


# The report entries each subcommand prints, by name.  report prints these and
# the two checks that only it runs.
REPORT_ONLY = {"endomorphism_homomorphism", "intertwining"}
ENTRIES = {
    "check-equivariance": {"equivariance"},
    "field": {"field_coefficient"},
    "gauge": {"gauge_coefficient"},
    "invariance": {"invariance"},
    "lift": {"chi_tau_hat_spread", "lifting"},
    "spectrum": {"spectrum_rayleigh"},
    "kernel": {"kernel_structure", "kernel_invariance"},
    "rdq": {"rdq"},
}


class TestMemoisedCommands:
    """What a process keeps between commands (closures, character tables, product
    indices, and each config with its built system) changes no byte a command prints."""

    @pytest.mark.parametrize("config", ["landau", "conjugate", "alteration", "perfbench/p6.json"])
    def test_warm_and_cold_give_the_same_bytes(self, capsys, fresh_groups, config):
        import maf.cli
        import maf.groups

        config = str(ROOT / config) if config.endswith(".json") else config

        def run(command, seed, k):
            code = main([command, "--config", config, "--seed", str(seed), "--k", str(k)])
            return (code, *capsys.readouterr())

        for seed in range(5):
            for k in range(4):
                for command in COMMANDS:
                    maf.groups._read.cache_clear()
                    maf.cli._MEMO.clear()
                    cold = run(command, seed, k)
                    assert run(command, seed, k) == cold, (command, seed, k)

    @staticmethod
    def _write(path, **changes):
        path.write_text(landau_text(**changes))
        return str(path)

    @pytest.fixture
    def builds(self, monkeypatch):
        """The name of the config of every ``build_system`` call the CLI makes."""
        import maf.cli

        made, real = [], maf.cli.build_system
        monkeypatch.setattr(maf.cli, "build_system", lambda cfg: made.append(cfg.name) or real(cfg))
        return made

    def test_an_edited_config_is_read_again(self, capsys, tmp_path, builds):
        def seed_and_nu(path):
            assert main(["invariance", "--config", path]) == 0
            meta = json.loads(capsys.readouterr().out)[0]["metadata"]
            assert main(["highdim", "--config", path]) == 0
            return meta["seed"], json.loads(capsys.readouterr().out)[0]["metadata"]["nu"]

        path = self._write(tmp_path / "cfg.json", seed=1)
        assert seed_and_nu(path) == (1, 1.0)
        self._write(tmp_path / "cfg.json", seed=2, nu=2.0)
        assert seed_and_nu(path) == (2, 2.0)
        assert builds == ["landau", "landau"]

    def test_seed_and_grid_do_not_reach_the_next_command(self, capsys):
        def run(*options):
            assert main(["report", "--config", "landau", *options]) == 0
            return capsys.readouterr().out

        first = run()
        assert run("--seed", "7", "--grid", "-1,1,5,-1,1,5") != first
        assert run() == first

    @pytest.mark.parametrize(
        "text, message, built",
        [
            ("{", "config PATH is not valid JSON: Expecting property name enclosed in double quotes", []),
            (json.dumps({"nu": 1.0}), "missing required config key: mu", []),
            # parses, then fails to build, and is built again each time
            (landau_text(tau={"kind": "nope"}), "unknown tau descriptor kind 'nope'", ["landau"] * 3),
        ],
        ids=["json", "key", "build"],
    )
    def test_a_failing_config_fails_alike_every_time(self, capsys, tmp_path, builds, text, message, built):
        path = tmp_path / "bad.json"
        path.write_text(text)
        for _ in range(3):
            assert main(["report", "--config", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("config error: " + message.replace("PATH", str(path)))
        assert builds == built

    def test_second_command_builds_nothing(self, capsys, builds):
        for command in ("report", "kernel", "highdim", "lift"):
            assert main([command, "--config", "landau"]) == 0
        capsys.readouterr()
        assert builds == ["landau"]

    def test_seventeenth_config_evicts_the_least_recently_used(self, capsys, tmp_path, builds):
        paths = [self._write(tmp_path / f"cfg{i}.json", seed=i) for i in range(17)]

        def run(i):
            assert main(["check-equivariance", "--config", paths[i]]) == 0

        for i in range(16):
            run(i)
        run(0)  # now the most recently used: 1 is the oldest
        run(16)
        assert len(builds) == 17
        run(0)
        run(16)
        assert len(builds) == 17
        run(1)
        capsys.readouterr()
        assert len(builds) == 18


class TestCatalogue:
    @pytest.mark.parametrize("command", COMMANDS)
    def test_one_system_per_command(self, capsys, monkeypatch, command):
        import maf.cli

        calls = []
        real = maf.cli.build_system

        def spy(cfg):
            calls.append(cfg.name)
            return real(cfg)

        monkeypatch.setattr(maf.cli, "build_system", spy)
        assert main([command, "--config", "landau"]) == 0
        assert calls == ([] if command == "highdim" else ["landau"])  # on an empty memo
        assert main([command, "--config", "landau"]) == 0  # a repeat builds none
        capsys.readouterr()
        assert calls == ([] if command == "highdim" else ["landau"])

    @pytest.mark.parametrize(
        "name, rdq, tables",
        [
            ("landau", "bundled", 2),  # its rdq block checks nu = pi on the nu = 1 system
            ("landau", None, 1),
            ("landau", {"nu": 1.0, "values_on_generators": [[1, 0], [1, 0]]}, 1),
            ("landau", {"values_on_generators": [[1, 0], [-1, 0]]}, 2),
            ("conjugate", None, 1),
            ("alteration", None, 1),
        ],
    )
    def test_one_character_table_per_system(self, capsys, monkeypatch, tmp_path, fresh_groups, name, rdq, tables):
        import maf.automorphy

        data = json.loads(resources.files("maf").joinpath("configs", f"{name}.json").read_text())
        if rdq != "bundled":
            data.pop("rdq", None)
            if rdq:
                data["rdq"] = rdq
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        built = []
        real = maf.automorphy.CharacterTable.__init__

        def spy(self, *args, **kwargs):
            built.append(args)
            real(self, *args, **kwargs)

        monkeypatch.setattr(maf.automorphy.CharacterTable, "__init__", spy)
        main(["report", "--config", str(path)])
        capsys.readouterr()
        assert len(built) == tables
        main(["report", "--config", str(path)])  # the same report again builds none
        capsys.readouterr()
        assert len(built) == tables

    def test_entries_cover_the_subcommands(self):
        assert set(ENTRIES) == set(COMMANDS) - {"report", "highdim"}

    @pytest.mark.parametrize("name", bundled_names())
    def test_subcommands_print_their_report_entries(self, capsys, name):
        def run(command):
            assert main([command, "--config", name]) == 0
            return json.loads(capsys.readouterr().out)

        report = run("report")
        assert {d["name"] for d in report} == set().union(REPORT_ONLY, *ENTRIES.values())
        for command, names in ENTRIES.items():
            assert run(command) == [d for d in report if d["name"] in names], command
