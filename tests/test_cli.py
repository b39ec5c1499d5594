import argparse
import dataclasses
import json
import math
import re
import time
import warnings
from pathlib import Path

import pytest

import nearfield.link as link_mod
import nearfield.sweep as sweep_mod
from nearfield import (
    DEFAULT_BUDGET,
    AngleSearchPolicy,
    ArrayConfig,
    EnvelopeSearchPolicy,
    HorizonExceededError,
    Tolerances,
    cli,
)
from nearfield.arrays import MAX_ELEMENTS, MAX_RANGE_M, MIN_RANGE_M
from nearfield.boundaries import MAX_GRID_POINTS
from nearfield.metrics import MAX_ANGLE_POINTS, MAX_ROW_CELLS

FAST = ["--points-per-decade", "200", "--coarse-angles", "181"]
RADII = ("rayleigh", "epf", "spf", "sspf", "opt_linf", "opt_l2", "opt_se")
README = Path(__file__).resolve().parents[1] / "README.md"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_boundaries_table(capsys):
    code, out, err = run_cli(
        capsys, "boundaries", "--freq-ghz", "10", "--elements", "5", *FAST
    )
    assert code == 0 and err == ""
    rows = [line.split() for line in out.splitlines()[2:]]
    assert [row[0] for row in rows] == list(RADII)
    assert [row[2:] for row in rows] == [[]] * 4 + [["yes"], ["yes"], ["no"]]


def test_boundaries_json_round_trip(capsys):
    code, out, _ = run_cli(
        capsys, "boundaries", "--freq-ghz", "10", "--elements", "5", "--json", *FAST
    )
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["schema", "config", "tolerances", "budget", "boundaries"]
    assert doc["schema"] == 1
    assert doc["config"]["n_elements"] == 5
    bounds = doc["boundaries"]
    assert list(bounds) == [f"{name}_m" for name in RADII] + [
        f"opt_{m}_certified" for m in ("linf", "l2", "se")
    ]
    assert bounds["rayleigh_m"] == pytest.approx(0.24, rel=1e-12)
    assert bounds["epf_m"] <= bounds["spf_m"] <= bounds["sspf_m"]
    assert bounds["opt_linf_certified"] is True
    assert bounds["opt_se_certified"] is False
    # serialized floats parse back bit-exactly
    assert json.loads(json.dumps(doc)) == doc


def test_boundaries_tolerance_flag_shrinks_radius(capsys):
    _, out1, _ = run_cli(
        capsys, "boundaries", "--freq-ghz", "10", "--elements", "5", "--json", *FAST
    )
    _, out2, _ = run_cli(
        capsys, "boundaries", "--freq-ghz", "10", "--elements", "5", "--json",
        "--delta-inf", "4e-3", *FAST,
    )
    loose = json.loads(out2)["boundaries"]["opt_linf_m"]
    tight = json.loads(out1)["boundaries"]["opt_linf_m"]
    assert loose < tight


def test_boundaries_single_element(capsys):
    code, out, _ = run_cli(
        capsys, "boundaries", "--freq-ghz", "1", "--elements", "1", "--json"
    )
    assert code == 0
    bounds = json.loads(out)["boundaries"]
    assert bounds["rayleigh_m"] == 0.0 and bounds["spf_m"] == 0.0
    assert bounds["opt_linf_m"] == bounds["opt_l2_m"] == 1.5  # r_min, ten spacings
    # the pilot-noise floor alone sets opt_se, found by the SE scan
    assert bounds["opt_se_m"] == pytest.approx(31.799, rel=1e-4)
    assert not bounds["opt_se_certified"]


def test_curve_stdout_two_points(capsys):
    code, out, _ = run_cli(
        capsys, "curve", "--metric", "linf", "--freq-ghz", "10", "--elements", "5",
        "--r-start", "1.0", "--r-stop", "10.0", "--r-points", "2", "--coarse-angles", "181",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("config_id,")
    assert len(lines) == 3
    assert lines[1].split(",")[0] == "10GHz-N5"


def test_curve_l2_value_at_transition(capsys, tmp_path):
    out_file = tmp_path / "curve.csv"
    code, _, _ = run_cli(
        capsys, "curve", "--metric", "l2", "--freq-ghz", "300", "--elements", "64",
        "--r-start", "1.9845", "--r-stop", "2.0", "--r-points", "1",
        "--out", str(out_file),
    )
    assert code == 0
    line = out_file.read_text().splitlines()[1]
    value = float(line.split(",")[5])
    # worst-case normalized mismatch at the classical transition range,
    # cross-checked against a dense-angle brute-force maximum
    assert value == pytest.approx(0.6701335424405033, rel=1e-9)


def test_curve_linf_crosses_tolerance_near_56m(capsys, tmp_path):
    out_file = tmp_path / "linf.csv"
    code, _, _ = run_cli(
        capsys, "curve", "--metric", "linf", "--freq-ghz", "300", "--elements", "64",
        "--r-start", "40", "--r-stop", "70", "--r-points", "41",
        "--out", str(out_file),
    )
    assert code == 0
    rows = [line.split(",") for line in out_file.read_text().splitlines()[1:]]
    ranges = [float(r[4]) for r in rows]
    values = [float(r[5]) for r in rows]
    above = [r for r, v in zip(ranges, values) if v >= 1e-3]
    below = [r for r, v in zip(ranges, values) if v < 1e-3]
    assert max(above) < min(b for b in below if b > max(above)) if below else True
    assert 54.0 < max(above) < 57.0


def test_curve_below_the_smallest_range_exits_2(capsys):
    # at 1e-170 m the range to element 0 would underflow to 0: the grid's
    # start is refused by name before anything is evaluated
    code, out, err = run_cli(
        capsys, "curve", "--metric", "linf", "--freq-ghz", "1", "--elements", "2",
        "--r-start", "1e-170", "--r-stop", "1", "--r-points", "4",
    )
    assert code == 2 and not out
    assert err.startswith("error: start must be at least") and "1e-170" in err


def test_se_command_json(capsys):
    code, out, _ = run_cli(
        capsys, "se", "--freq-ghz", "10", "--elements", "5", "--range-m", "0.5", "--json"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["theta_is_worst_case"] is True
    assert 0.0 <= doc["eta"] <= 1.0
    assert doc["delta_se"] >= 0.0
    assert doc["se_opt"] >= doc["se_mis"] >= 0.0


def test_se_command_fixed_angle(capsys):
    code, out, _ = run_cli(
        capsys, "se", "--freq-ghz", "10", "--elements", "5", "--range-m", "0.5",
        "--theta-deg", "60", "--json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["theta_rad"] == pytest.approx(math.radians(60))
    assert doc["theta_is_worst_case"] is False


def test_se_text_report_matches_json(capsys):
    argv = ("se", "--freq-ghz", "10", "--elements", "5", "--range-m", "0.5")
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""
    doc = json.loads(run_cli(capsys, *argv, "--json")[1])
    report = dict(line.split(None, 1) for line in out.splitlines())
    assert list(report) == ["range_m", "theta_rad", "se_opt", "se_mis", "delta_se", "eta",
                            "gain", "nmse_lower_bound"]
    assert report["theta_rad"].endswith("(worst-case)")
    assert report["se_opt"].endswith("bits/s/Hz")
    for key in ("theta_rad", "se_opt", "se_mis", "delta_se", "eta", "gain", "nmse_lower_bound"):
        assert float(report[key].split()[0]) == pytest.approx(doc[key], rel=1e-5, abs=1e-9)


def test_spacing_flag_overrides_the_config_file(tmp_path):
    path = tmp_path / "array.json"
    path.write_text(json.dumps({"array": {"spacing_m": 0.05}}))
    argv = ["boundaries", "--freq-ghz", "10", "--elements", "5", "--config", str(path)]

    def built(*extra):
        args = cli.build_parser().parse_args(argv + list(extra))
        return cli._section(args, cli._load_config_file(args.config), "array")

    assert built() == {"spacing": 0.05}
    assert built("--spacing-m", "0.02") == {"spacing": 0.02}


def test_config_file_precedence(capsys, tmp_path):
    cfg_file = tmp_path / "defaults.json"
    cfg_file.write_text(json.dumps({"tolerances": {"delta_inf": 4e-3}}))
    _, out_file_only, _ = run_cli(
        capsys, "boundaries", "--freq-ghz", "10", "--elements", "5", "--json",
        "--config", str(cfg_file), *FAST,
    )
    _, out_flag_wins, _ = run_cli(
        capsys, "boundaries", "--freq-ghz", "10", "--elements", "5", "--json",
        "--config", str(cfg_file), "--delta-inf", "1e-3", *FAST,
    )
    _, out_default, _ = run_cli(
        capsys, "boundaries", "--freq-ghz", "10", "--elements", "5", "--json", *FAST
    )
    file_radius = json.loads(out_file_only)["boundaries"]["opt_linf_m"]
    flag_radius = json.loads(out_flag_wins)["boundaries"]["opt_linf_m"]
    default_radius = json.loads(out_default)["boundaries"]["opt_linf_m"]
    assert file_radius < default_radius  # looser tolerance from the file
    assert flag_radius == default_radius  # flag overrides the file


# section -> a builder of its settings object from the fields given
SECTIONS = {
    "array": lambda **fields: ArrayConfig(10e9, 5, **fields),
    "tolerances": Tolerances,
    "budget": lambda **fields: dataclasses.replace(DEFAULT_BUDGET, **fields),
    "angle_policy": AngleSearchPolicy,
    "envelope_policy": EnvelopeSearchPolicy,
}


@pytest.mark.parametrize(
    "section, key, field, flag", [row[:4] for row in cli._SETTINGS],
    ids=[f"{row[0]}.{row[1]}" for row in cli._SETTINGS],
)
def test_config_file_and_flag_reach_every_setting(tmp_path, section, key, field, flag):
    build = SECTIONS[section]
    base = getattr(build(), field)
    if key.endswith("_db"):
        file_value, flag_value = 25.0, 35.0
        file_field, flag_field = 10.0 ** (25.0 / 10.0), 10.0 ** (35.0 / 10.0)
    else:
        file_value = file_field = 2 * (0.25 if base is None else base)
        flag_value = flag_field = 3 * (0.25 if base is None else base)
    path = tmp_path / "settings.json"
    path.write_text(json.dumps({section: {key: file_value}}))
    argv = ["boundaries", "--freq-ghz", "10", "--elements", "5", "--config", str(path)]

    def built(*extra):
        args = cli.build_parser().parse_args(argv + list(extra))
        return build(**cli._section(args, cli._load_config_file(args.config), section))

    assert built() == build(**{field: file_field})
    if flag is not None:
        assert built(flag, repr(flag_value)) == build(**{field: flag_field})


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg_file = tmp_path / "bad.json"
    # the SE scan horizon, its trailing-decade margin and the three inner-solver
    # tolerances are fixed, not settings
    for section, key in (
        ("tolerances", "delta_unknown"),
        ("envelope_policy", "certification_margin"),
        ("envelope_policy", "max_scan_factor"),
        ("angle_policy", "refine_tolerance"),
        ("angle_policy", "refine_max_iter"),
        ("envelope_policy", "bisection_tol"),
    ):
        cfg_file.write_text(json.dumps({section: {key: 1.0}}))
        code, _, err = run_cli(
            capsys, "boundaries", "--freq-ghz", "10", "--elements", "5",
            "--config", str(cfg_file),
        )
        assert code == 2
        assert f"unknown key {section}.{key}" in err
    cfg_file.write_text("{not json")
    code, _, err = run_cli(
        capsys, "boundaries", "--freq-ghz", "10", "--elements", "5",
        "--config", str(cfg_file),
    )
    assert code == 2


def test_invalid_values_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "boundaries", "--freq-ghz", "-1", "--elements", "4")
    assert code == 2 and "error" in err
    # fractional counts in a config file are rejected, not truncated
    for section, key, value in (
        ("angle_policy", "coarse_grid_points", 3.5),
        ("envelope_policy", "points_per_decade", 100.5),
        ("budget", "pilot_len", 63.5),
    ):
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({section: {key: value}}))
        code, _, err = run_cli(
            capsys, "boundaries", "--freq-ghz", "10", "--elements", "5", "--config", str(path)
        )
        assert code == 2 and key in err
    code, _, err = run_cli(
        capsys, "curve", "--metric", "linf", "--freq-ghz", "1", "--elements", "2",
        "--r-start", "5", "--r-stop", "1", "--r-points", "4",
    )
    assert code == 2
    code, _, err = run_cli(
        capsys, "curve", "--metric", "linf", "--freq-ghz", "1", "--elements", "2",
        "--r-start", "1", "--r-stop", "inf", "--r-points", "3",
    )
    assert code == 2 and "stop" in err
    code, _, err = run_cli(
        capsys, "curve", "--metric", "linf", "--freq-ghz", "1", "--elements", "2",
        "--r-start", "1", "--r-stop", "-5", "--r-points", "1",
    )
    assert code == 2 and "stop" in err
    code, _, err = run_cli(capsys, "se", "--freq-ghz", "nan", "--elements", "5", "--range-m", "1")
    assert code == 2 and "carrier_freq" in err
    # ranges whose square overflows would give NaN metrics: refused by name and value
    code, out, err = run_cli(
        capsys, "curve", "--metric", "l2", "--freq-ghz", "300", "--elements", "64",
        "--r-start", "1e150", "--r-stop", "1e160", "--r-points", "3",
    )
    assert code == 2 and "stop" in err and "1e+160" in err and not out
    code, _, err = run_cli(
        capsys, "se", "--freq-ghz", "28", "--elements", "4", "--range-m", "1e160",
        "--theta-deg", "3",
    )
    assert code == 2 and "range_m" in err and "1e+160" in err


@pytest.mark.parametrize(
    "content, message",
    [
        (None, "cannot read config file"),
        ("[1, 2]", "config file must contain a JSON object"),
        ('{"search": {}}', "unknown config section 'search'"),
        ('{"tolerances": 0.001}', "config section 'tolerances' must be an object"),
        ('{"tolerances": {"delta_inf": "0.001"}}', "tolerances.delta_inf must be a number"),
        ('{"budget": {"pilot_len": true}}', "budget.pilot_len must be a number"),
    ],
    ids=["unreadable", "not-an-object", "unknown-section", "section-not-an-object",
         "string-value", "bool-value"],
)
def test_malformed_config_file_exits_2(capsys, tmp_path, content, message):
    path = tmp_path / "settings.json"
    if content is not None:
        path.write_text(content)
    code, out, err = run_cli(
        capsys, "se", "--freq-ghz", "10", "--elements", "5", "--range-m", "1",
        "--config", str(path),
    )
    assert code == 2 and not out and message in err


def test_oversize_grids_exit_2_at_once(capsys):
    # a grid above MAX_GRID_POINTS is refused before anything is allocated
    for argv, name in (
        (["boundaries", "--freq-ghz", "28", "--elements", "4",
          "--points-per-decade", "1000000000000"], "points_per_decade"),
        (["curve", "--metric", "linf", "--freq-ghz", "28", "--elements", "4",
          "--r-start", "1", "--r-stop", "2", "--r-points", "1000000000000"], "points"),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out and err.startswith(f"error: {name} ")
        assert str(MAX_GRID_POINTS) in err


def test_oversize_arrays_and_angle_grids_exit_2_at_once(capsys):
    # an element count, an angle grid or a kernel row above its limit is
    # refused before anything of that size is allocated
    curve = ["curve", "--metric", "linf", "--freq-ghz", "28", "--elements", "4",
             "--r-start", "1", "--r-stop", "2", "--r-points", "3"]
    for argv, name, limit in (
        (["boundaries", "--freq-ghz", "28", "--elements", "100000000"],
         "n_elements", MAX_ELEMENTS),
        (["se", "--freq-ghz", "28", "--elements", "100000000", "--range-m", "3",
          "--theta-deg", "3"], "n_elements", MAX_ELEMENTS),
        ([*curve, "--coarse-angles", "1000000000000"], "coarse_grid_points", MAX_ANGLE_POINTS),
        (["boundaries", "--freq-ghz", "28", "--elements", "3000"], "n_elements", MAX_ROW_CELLS),
        (["se", "--freq-ghz", "28", "--elements", "1000000", "--range-m", "3"],
         "n_elements", MAX_ROW_CELLS),
        ([*curve, "--coarse-angles", "900000"], "n_elements", MAX_ROW_CELLS),
    ):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and not out and err.startswith(f"error: {name} ")
        assert str(limit) in err


def test_apertures_the_cubic_cannot_evaluate_exit_2(capsys):
    # D^2 underflows to 0 (spacing 1e-300) or overflows (spacing 1e200, a
    # 1e-291 Hz carrier): the cubic's coefficients are refused by name
    for array in (
        ["--freq-ghz", "28", "--spacing-m", "1e-300"],
        ["--freq-ghz", "28", "--spacing-m", "1e200"],
        ["--freq-ghz", "1e-300"],
    ):
        code, out, err = run_cli(capsys, "boundaries", "--elements", "4", *array)
        assert code == 2 and not out
        assert err.startswith("error: aperture ") and "delta_inf 0.001" in err


def test_underflowing_decibels_exit_2(capsys, tmp_path):
    # 10^(dB/10) underflows to 0: the flag or config key is named instead of
    # a zero SNR passing through (data) or a nameless refusal (pilot)
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({"budget": {"data_snr_db": -4000}}))
    for command in (["se", "--range-m", "0.5", "--json"], ["boundaries", *FAST]):
        for extra, name in (
            (["--data-snr-db", "-4000"], "--data-snr-db"),
            (["--pilot-snr-db", "-4000"], "--pilot-snr-db"),
            (["--config", str(path)], "budget.data_snr_db"),
        ):
            code, out, err = run_cli(
                capsys, command[0], "--freq-ghz", "10", "--elements", "5", *command[1:], *extra
            )
            assert code == 2 and not out and err.startswith(f"error: {name} ")
            assert "underflows" in err
    # a tiny ratio that is still positive passes
    code, _, _ = run_cli(capsys, "se", "--freq-ghz", "10", "--elements", "5", "--range-m", "0.5",
                         "--data-snr-db", "-3000")
    assert code == 0


def test_se_evaluates_eta_and_gain_once(capsys, monkeypatch):
    # the NMSE floor comes from the report's eta and gain, not a second pass
    calls = []

    def counting(name):
        real = getattr(link_mod, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("array_gain_efficiency", "channel_gain"):
        monkeypatch.setattr(link_mod, name, counting(name))
    for extra in ([], ["--theta-deg", "3"]):
        calls.clear()
        code, out, _ = run_cli(capsys, "se", "--freq-ghz", "28", "--elements", "16",
                               "--range-m", "0.2", "--json", *extra)
        assert code == 0
        assert sorted(calls) == ["array_gain_efficiency", "channel_gain"]
        doc = json.loads(out)
        pilot_energy = 64 * 1e4
        assert doc["nmse_lower_bound"] == (1.0 - doc["eta"]) + 1.0 / (pilot_energy * doc["gain"])


def test_overflowing_decibels_exit_2(capsys, tmp_path):
    # 10^(dB/10) overflows a float: the flag or config key is named
    path = tmp_path / "budget.json"
    path.write_text(json.dumps({"budget": {"pilot_snr_db": 4000}}))
    for extra, name in (
        (["--data-snr-db", "1e6"], "--data-snr-db"),
        (["--pilot-snr-db", "4000"], "--pilot-snr-db"),
        (["--config", str(path)], "budget.pilot_snr_db"),
    ):
        code, out, err = run_cli(
            capsys, "se", "--freq-ghz", "10", "--elements", "5", "--range-m", "0.5", *extra
        )
        assert code == 2 and not out and err.startswith(f"error: {name} ")


def test_bad_thread_count_exits_2(capsys, monkeypatch):
    # the worker count is checked once after parsing, so commands that never
    # reach the pool (a fixed angle, one element) reject it as well
    monkeypatch.setenv("NEARFIELD_THREADS", "junk")
    for argv in (
        ["curve", "--metric", "linf", "--freq-ghz", "28", "--elements", "4",
         "--r-start", "1", "--r-stop", "10", "--r-points", "2"],
        ["se", "--freq-ghz", "28", "--elements", "4", "--range-m", "3"],
        ["se", "--freq-ghz", "28", "--elements", "4", "--range-m", "3", "--theta-deg", "3"],
        ["se", "--freq-ghz", "28", "--elements", "1", "--range-m", "3"],
        ["boundaries", "--freq-ghz", "28", "--elements", "1"],
    ):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and "NEARFIELD_THREADS must be an integer" in err and not out


ARRAY_FLAGS = {
    "--freq-ghz": (float, None, True, "carrier frequency in GHz"),
    "--elements": (int, None, True, "number of array elements"),
    "--spacing-m": (float, None, False, "element spacing in meters (default: half wavelength)"),
}
BUDGET_FLAGS = {
    "--pilot-snr-db": (float, None, False, "pilot SNR in dB"),
    "--data-snr-db": (float, None, False, "data SNR in dB"),
    "--pilot-len": (int, None, False, "pilot sequence length"),
}
ANGLE_FLAG = {"--coarse-angles": (int, None, False, "coarse angle-grid size override")}
SCAN_FLAG = {"--points-per-decade": (int, None, False, "envelope scan density override")}
CONFIG_FLAG = {"--config": (None, None, False, "JSON file with default settings")}
JSON_FLAG = {"--json": (None, False, False, "emit a JSON document")}
# command -> option string -> (type, default, required, help)
COMMAND_FLAGS = {
    "boundaries": {
        **ARRAY_FLAGS,
        "--delta-inf": (float, None, False, "per-meter tolerance"),
        "--delta-2": (float, None, False, "dimensionless tolerance"),
        "--delta-se": (float, None, False, "SE tolerance in bits/s/Hz"),
        **BUDGET_FLAGS, **ANGLE_FLAG, **SCAN_FLAG, **CONFIG_FLAG, **JSON_FLAG,
    },
    "curve": {
        "--metric": (None, None, True, None),
        **ARRAY_FLAGS,
        "--r-start": (float, None, True, "grid start in meters"),
        "--r-stop": (float, None, True, "grid stop in meters"),
        "--r-points": (int, None, True, "number of grid points"),
        "--out": (None, "-", False, "output CSV path, - for stdout"),
        **BUDGET_FLAGS, **ANGLE_FLAG, **CONFIG_FLAG,
    },
    "se": {
        **ARRAY_FLAGS,
        "--range-m": (float, None, True, "range in meters"),
        "--theta-deg": (float, None, False, "look angle in degrees (default: worst case)"),
        **BUDGET_FLAGS, **CONFIG_FLAG, **JSON_FLAG,
    },
    "reproduce": {
        "--out-dir": (None, None, True, "directory for the CSV bundle"),
        "--curve-points": (int, None, False, "points per curve override"),
        **SCAN_FLAG, **ANGLE_FLAG,
    },
}


def test_each_command_keeps_its_flags():
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    assert list(subparsers.choices) == list(COMMAND_FLAGS)
    for command, parser in subparsers.choices.items():
        flags = {
            action.option_strings[0]: (action.type, action.default, action.required, action.help)
            for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)
        }
        assert flags == COMMAND_FLAGS[command], command


def test_usage_errors_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["boundaries", "--elements", "4"])  # missing --freq-ghz
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["reproduce", "bogus-preset", "--out-dir", "/tmp/x"])
    assert exc.value.code == 2
    # curve evaluates metrics on a given grid: it takes no tolerance or
    # envelope-search flags
    with pytest.raises(SystemExit) as exc:
        cli.main([
            "curve", "--metric", "linf", "--freq-ghz", "1", "--elements", "2",
            "--r-start", "1", "--r-stop", "2", "--r-points", "2", "--delta-inf", "1e-3",
        ])
    assert exc.value.code == 2


def test_solver_failure_exits_3(capsys):
    # a delta_se so small that the SE gain bound r_G overflows leaves the
    # search no finite horizon
    code, _, err = run_cli(
        capsys, "boundaries", "--freq-ghz", "10", "--elements", "2",
        "--delta-se", "1e-320", "--points-per-decade", "60",
    )
    assert code == 3
    assert "solver error" in err and "not a finite horizon" in err
    # a delta_inf so small that the small-phase radius, the end of the EPF
    # scan, overflows to inf
    code, _, err = run_cli(
        capsys, "boundaries", "--freq-ghz", "28", "--elements", "4", "--delta-inf", "1e-310",
    )
    assert code == 3
    assert "solver error" in err and "inf m is not a finite horizon" in err
    # a delta_2 whose certification search overflows r**2: the refusal is the
    # only stderr line, with no numpy overflow warning ahead of it
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run_cli(
            capsys, "boundaries", "--freq-ghz", "300", "--elements", "64", "--delta-2", "1e-200",
        )
    assert code == 3 and caught == []
    assert len(err.splitlines()) == 1 and err.startswith("solver error: delta_2 1e-200")
    # delta_se = 1e-12 used to fail the heuristic trailing-decade check;
    # r_G (4.06e6 m) now bounds the scan instead
    code, out, _ = run_cli(
        capsys, "boundaries", "--freq-ghz", "10", "--elements", "2",
        "--delta-se", "1e-12", "--points-per-decade", "60",
    )
    assert code == 0 and "opt_se" in out
    # degenerate geometry: at 10 GHz, half-wave spacing, element 1 sits on
    # the axis at 0.015 m
    code, _, err = run_cli(
        capsys, "se", "--freq-ghz", "10", "--elements", "5",
        "--range-m", "0.015", "--theta-deg", "0",
    )
    assert code == 3
    assert "solver error" in err and "element 1" in err


def test_huge_delta_se_leaves_opt_se_at_the_scan_start(capsys):
    # 2^delta_se - 1 overflows, so the SE gain bound is the aperture itself
    code, out, err = run_cli(
        capsys, "boundaries", "--freq-ghz", "28", "--elements", "4", "--delta-se", "2000",
        "--json", *FAST,
    )
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["boundaries"]["opt_se_m"] == 10 * doc["config"]["spacing_m"]


def test_overflowing_scan_ratio_exits_3(capsys, tmp_path):
    """An r_min of 1e-320 m puts the end of the EPF scan more decades away
    than a float ratio holds: the refusal names both ends."""
    cfg_file = tmp_path / "tiny.json"
    cfg_file.write_text(json.dumps({"envelope_policy": {"r_min": 1e-320}}))
    code, out, err = run_cli(
        capsys, "boundaries", "--freq-ghz", "28", "--elements", "4", "--config", str(cfg_file),
    )
    assert code == 3 and not out
    assert err.startswith("solver error: scan from 1e-320 m to ")
    assert err.rstrip().endswith(" m: the range ratio overflows")


def test_reproduce_bundle(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "reproduce", "fig3-se", "--out-dir", str(tmp_path),
        "--points-per-decade", "100", "--curve-points", "12", "--coarse-angles", "121",
    )
    assert code == 0
    bundle = tmp_path / "fig3-se"
    names = sorted(p.name for p in bundle.iterdir())
    assert "boundaries.csv" in names
    assert len([n for n in names if n.startswith("curve_")]) == 3
    assert "not certified" in out
    body = (bundle / "boundaries.csv").read_text().splitlines()
    assert len(body) == 4


def test_reproduce_refused_everywhere_exits_2(capsys, tmp_path):
    # every config fails on the scan grid: the bundle holds headers only,
    # each config is named on stderr, and the exit code is the first failure's
    code, out, err = run_cli(
        capsys, "reproduce", "fig3-se", "--out-dir", str(tmp_path),
        "--points-per-decade", "1000000000000",
    )
    assert code == 2
    assert out.splitlines() == [f"wrote 3 curve files and boundaries.csv to {tmp_path / 'fig3-se'}"]
    lines = err.splitlines()
    assert [line.split(":")[0] for line in lines[:3]] == ["1GHz-N2", "10GHz-N5", "300GHz-N10"]
    assert all("points_per_decade" in line for line in lines)
    assert lines[3].startswith("error: points_per_decade")
    bundle = tmp_path / "fig3-se"
    assert len(list(bundle.iterdir())) == 4
    assert all(len(path.read_text().splitlines()) == 1 for path in bundle.iterdir())


def test_reproduce_solver_failure_exits_3_and_writes_the_bundle(capsys, tmp_path, monkeypatch):
    real = sweep_mod.boundary_set

    def failing_boundary_set(cfg, *args, **kwargs):
        if cfg.n_elements == 5:
            raise HorizonExceededError("forced horizon failure")
        return real(cfg, *args, **kwargs)

    monkeypatch.setattr(sweep_mod, "boundary_set", failing_boundary_set)
    code, out, err = run_cli(
        capsys, "reproduce", "fig3-se", "--out-dir", str(tmp_path),
        "--points-per-decade", "100", "--curve-points", "12", "--coarse-angles", "121",
    )
    assert code == 3
    assert err.splitlines() == [
        "10GHz-N5: HorizonExceededError: forced horizon failure",
        "solver error: forced horizon failure",
    ]
    # the other configs keep their summary lines, radii and curves
    assert [line.split(" =")[0] for line in out.splitlines()[:2]] == [
        "opt_se(1GHz-N2)", "opt_se(300GHz-N10)",
    ]
    bundle = tmp_path / "fig3-se"
    rows = (bundle / "boundaries.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows[1:]] == ["1GHz-N2", "300GHz-N10"]
    assert len((bundle / "curve_10GHz-N5_se.csv").read_text().splitlines()) == 1
    for cid in ("1GHz-N2", "300GHz-N10"):
        assert len((bundle / f"curve_{cid}_se.csv").read_text().splitlines()) == 13


def test_readme_lists_every_config_key():
    # README table rows of the form "| `section.key` | `--flag` or - | `command`, ... |"
    rows = re.findall(r"^\| `(\w+)\.(\w+)` \| (?:`(--[\w-]+)`|-) \| (.+) \|$",
                      README.read_text(), re.M)
    assert [(section, key, flag or None) for section, key, flag, _ in rows] == [
        row[:2] + row[3:4] for row in cli._SETTINGS
    ]
    # the commands listed without "(key only)" are those that take the flag
    for _, _, flag, commands in rows:
        if flag:
            takes = [m.group(1) for m in re.finditer(r"`(\w+)`(?! \(key only\))", commands)]
            assert takes == [name for name, flags in COMMAND_FLAGS.items() if flag in flags]


@pytest.mark.filterwarnings("error")
def test_boundaries_at_a_tiny_delta_inf_warns_nothing(capsys):
    # the epf scan runs up to about 2.8e149 m, where the majorant's r**3
    # overflows; that term's limit, 0, is what the sum already uses
    code, out, err = run_cli(
        capsys, "boundaries", "--freq-ghz", "28", "--elements", "4", "--delta-inf", "1e-300"
    )
    assert code == 0 and err == ""
    assert out.splitlines()[3].split()[:2] == ["epf", "2.75199605558e+149"]


# se argv -> the pilot energy pilot_len * pilot_snr the refusal names
SE_REFUSED = {
    # G is the subnormal 1e-323, so the noise term 1/(pilot energy * G) overflows
    "subnormal_gain": ("--freq-ghz 1e160 --elements 2 --pilot-len 4 --range-m 1 --theta-deg 90",
                       "40000.0"),
    # a -3000 dB pilot: pilot energy * G is subnormal, so its inverse overflows
    "faint_pilot": ("--freq-ghz 300 --elements 4 --range-m 1e3 --theta-deg 30 "
                    "--pilot-snr-db -3000", "6.4e-299"),
    # farther out pilot energy * G underflows to 0 (was a division by zero, exit 3)
    "faint_pilot_far": ("--freq-ghz 300 --elements 4 --range-m 1e10 --theta-deg 30 "
                        "--pilot-snr-db -3000", "6.4e-299"),
    # G underflows to 0 (was refused without naming the position)
    "zero_gain": ("--freq-ghz 1e160 --elements 5 --range-m 300 --theta-deg 0", "640000.0"),
}


@pytest.mark.parametrize("argv, pilot_energy", SE_REFUSED.values(), ids=SE_REFUSED.keys())
def test_se_refuses_a_position_without_finite_numbers(capsys, argv, pilot_energy):
    code, out, err = run_cli(capsys, "se", *argv.split())
    flags = dict(zip(argv.split()[::2], argv.split()[1::2]))
    assert code == 2 and not out
    assert err.startswith(f"error: carrier_freq {float(flags['--freq-ghz']) * 1e9} Hz, range_m "
                          f"{float(flags['--range-m'])} and pilot energy {pilot_energy} give ")
    assert err.rstrip().endswith("must be finite and positive")


def test_se_reports_a_subnormal_gain_with_finite_numbers(capsys):
    code, out, err = run_cli(capsys, "se", "--freq-ghz", "300", "--elements", "4",
                             "--range-m", "1e152", "--theta-deg", "30", "--json")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert 0.0 < doc["gain"] < 2.3e-308  # subnormal
    assert all(math.isfinite(v) for v in doc.values() if isinstance(v, float))


# argv -> the flag's name, the aperture and the range the refusal names, for
# arrays whose distances overflow where a range meets them (r + D > MAX_RANGE_M)
OVERFLOWING_APERTURES = {
    "curve_linf": ("curve --metric linf --freq-ghz 28 --elements 4 --spacing-m 1e160 "
                   "--r-start 1 --r-stop 2 --r-points 3", "stop", "3e+160", "2.0"),
    "curve_l2": ("curve --metric l2 --freq-ghz 28 --elements 4 --spacing-m 1e200 "
                 "--r-start 1 --r-stop 2 --r-points 3", "stop", "3e+200", "2.0"),
    # the default spacing of a 1e-291 Hz carrier is 1.5e299 m
    "curve_se": ("curve --metric se --freq-ghz 1e-300 --elements 4 "
                 "--r-start 1 --r-stop 2 --r-points 3", "stop", "4.5e+299", "2.0"),
    "se_worst_case": ("se --freq-ghz 28 --elements 4 --spacing-m 1e200 --range-m 1",
                      "range_m", "3e+200", "1.0"),
    "se_fixed_angle": ("se --freq-ghz 28 --elements 4 --spacing-m 1e200 --range-m 1 "
                       "--theta-deg 30", "range_m", "3e+200", "1.0"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv, name, aperture, value", OVERFLOWING_APERTURES.values(),
    ids=OVERFLOWING_APERTURES.keys(),
)
def test_apertures_that_overflow_the_distances_exit_2(capsys, argv, name, aperture, value):
    # these wrote nan rows with exit 0, or warned and then refused a nan eta
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and not out
    assert err == (f"error: {name} must be at most {MAX_RANGE_M!r} less the aperture "
                   f"{aperture} m, got {value}\n")


def test_se_names_range_m_below_the_smallest_range(capsys):
    # the worst-case path named the library's batch argument, `ranges`
    for extra in ([], ["--theta-deg", "3"]):
        code, out, err = run_cli(capsys, "se", "--freq-ghz", "28", "--elements", "4",
                                 "--range-m", "1e-170", *extra)
        assert code == 2 and not out
        assert err == f"error: range_m must be at least {MIN_RANGE_M!r} m, got 1e-170\n"


# argv of each command on an array whose phase 2*k*D overflows: k = 2.1e161
# rad/m, D = 3e150 m
HUGE_PHASE = "--freq-ghz 1e160 --elements 4 --spacing-m 1e150"
OVERFLOWING_PHASES = {
    "curve_linf": f"curve --metric linf {HUGE_PHASE} --r-start 1 --r-stop 2 --r-points 3",
    "curve_se": f"curve --metric se {HUGE_PHASE} --r-start 1 --r-stop 2 --r-points 3",
    "se": f"se {HUGE_PHASE} --range-m 1",
    "boundaries": f"boundaries {HUGE_PHASE}",
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv", OVERFLOWING_PHASES.values(), ids=OVERFLOWING_PHASES.keys())
def test_arrays_whose_phase_overflows_exit_2(capsys, argv):
    # curve warned and wrote nan rows with exit 0, se warned and refused a
    # gain, boundaries exited 3 on an infinite scan end
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and not out
    assert err == ("error: carrier_freq 1e+169 Hz and spacing 1e+150 m "
                   "(aperture 2.9999999999999998e+150 m) overflow the phase 2*k*D\n")


@pytest.mark.filterwarnings("error")
def test_se_curve_at_tiny_ranges_warns_nothing(capsys):
    # G**2 overflows in the mismatched SNR, whose minimum then takes its limit
    code, out, err = run_cli(capsys, "curve", "--metric", "se", "--freq-ghz", "28", "--elements",
                             "4", "--r-start", "1e-100", "--r-stop", "1e-99", "--r-points", "2")
    assert code == 0 and err == ""
    values = [line.split(",")[5] for line in out.splitlines()[1:]]
    assert values == ["1.9999999999999234", "2.0000000000000053"]


# argv of SE queries whose loss is NaN in floats -> the inputs the refusal names
NAN_LOSSES = {
    # a 3000 dB data SNR overflows both SEs
    "curve": ("curve --metric se --freq-ghz 1e-9 --elements 3 --r-start 0.5 --r-stop 1 "
              "--r-points 2 --data-snr-db 3000", "1.0", "0.5", "1e+300"),
    "se_worst_case": ("se --freq-ghz 1e-9 --elements 3 --range-m 0.5 --data-snr-db 3000",
                      "1.0", "0.5", "1e+300"),
    "se_fixed_angle": ("se --freq-ghz 1e-9 --elements 3 --range-m 0.5 --data-snr-db 3000 "
                       "--theta-deg 30", "1.0", "0.5", "1e+300"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, freq_hz, range_m, data_snr", NAN_LOSSES.values(),
                         ids=NAN_LOSSES.keys())
def test_an_se_loss_that_is_not_finite_exits_2(capsys, argv, freq_hz, range_m, data_snr):
    # these warned, and curve and se wrote nan with exit 0
    code, out, err = run_cli(capsys, *argv.split())
    assert code == 2 and not out
    assert err == (f"error: carrier_freq {freq_hz} Hz, range_m {range_m}, pilot energy "
                   f"640000.0 and data_snr {data_snr} give SE loss nan, which must be finite\n")


@pytest.mark.filterwarnings("error")
def test_se_refuses_an_overflowing_gain_without_a_warning(capsys):
    # the gain (lambda/4pi)^2 / R^2 overflows: the worst-case search warned
    # three times ahead of this refusal
    code, out, err = run_cli(capsys, "se", "--freq-ghz", "1e-154", "--elements", "2",
                             "--range-m", "1e-3")
    assert code == 2 and not out
    assert err == ("error: carrier_freq 1e-145 Hz, range_m 0.001 and pilot energy 640000.0 "
                   "give gain inf and NMSE noise term 0.0; both must be finite and positive\n")


@pytest.mark.filterwarnings("error")
def test_an_l2_bound_beyond_the_largest_range_exits_3(capsys):
    # the scan started at l2_mismatch_bound, 2.8e162 m, and exited 2 naming `ranges`
    argv = ["boundaries", "--freq-ghz", "1", "--elements", "16", "--spacing-m", "0.5"]
    code, out, err = run_cli(capsys, *argv, "--delta-2", "1e-160")
    assert code == 3 and not out
    assert err == ("solver error: proven bound 2.807768094316623e+162 m puts the scan's first "
                   f"window beyond the largest range {MAX_RANGE_M!r} m\n")
    # at the default spacing the certification search refuses first, also with exit 3
    code, _, err = run_cli(capsys, *argv[:-2], "--delta-2", "1e-160")
    assert code == 3 and err == "solver error: delta_2 1e-160 needs ranges whose square overflows\n"


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_se_names_theta_deg_when_it_is_not_finite(capsys, value):
    code, out, err = run_cli(capsys, "se", "--freq-ghz", "28", "--elements", "4",
                             "--range-m", "1", "--theta-deg", value)
    assert code == 2 and not out
    assert err == f"error: theta_deg must be finite, got {float(value)}\n"
