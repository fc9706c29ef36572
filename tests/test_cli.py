"""End-to-end tests for the config-driven command line tool."""

import ast
import csv
import hashlib
import importlib
import itertools
import json
import math
import os
import pkgutil
import re
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pinchnet import analysis as an
from pinchnet import cli
from pinchnet import montecarlo as mc
from pinchnet.errors import ConfigError, NumericError
from pinchnet.geometry import SystemParams
from test_analysis import outage_lower_bound, outage_probability, outage_upper_bound


def _write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def _read_rows(out_dir):
    with open(out_dir / "results.csv", newline="") as handle:
        return list(csv.DictReader(handle))


# ---------------------------------------------------------------- loading

def test_minimal_config_gets_paper_defaults(tmp_path):
    cfg = cli.load_config(_write(tmp_path, "mode: analyze\n"))
    assert cfg.mode == "analyze"
    assert cfg.params.f_c == 28e9
    assert cfg.params.N_L == 3
    assert cfg.params.N_N == 2
    # -174 dBm/Hz over 100 MHz comes to -94 dBm
    assert cfg.params.sigma2 == pytest.approx(10 ** (-12.4), rel=1e-12)
    assert cfg.sweep is None


def test_dbm_strings_convert_once(tmp_path):
    cfg = cli.load_config(_write(tmp_path, (
        "mode: analyze\n"
        "params:\n"
        "  P: \"30 dBm\"\n"
        "  sigma2: \"-94 dBm\"\n")))
    assert cfg.params.P == pytest.approx(1.0, rel=1e-12)
    assert cfg.params.sigma2 == pytest.approx(10 ** (-12.4), rel=1e-12)


def test_lambda_alias(tmp_path):
    path = _write(tmp_path, "mode: analyze\nparams: {lambda: 2.0e-6}\n")
    assert cli.load_config(path).params.lam == 2.0e-6
    # an override under either spelling wins over the file's, and over
    # both spellings at once
    both = _write(tmp_path, "mode: analyze\nparams: {lambda: 2.0e-6, lam: 4.0e-6}\n",
                  name="both.yaml")
    for config in (path, both):
        for key in ("lam", "lambda"):
            cfg = cli.load_config(config, [f"params.{key}=3.0e-6"])
            assert cfg.params.lam == 3.0e-6


def test_bandwidth_sets_noise_floor(tmp_path):
    cfg = cli.load_config(_write(tmp_path, (
        "mode: analyze\n"
        "params: {bandwidth: 1.0e6}\n")))
    # 20 dB less bandwidth than the default floor
    assert cfg.params.sigma2 == pytest.approx(10 ** (-14.4), rel=1e-12)


def test_bandwidth_with_sigma2_conflicts(tmp_path):
    path = _write(tmp_path, (
        "mode: analyze\n"
        "params: {bandwidth: 1.0e8, sigma2: 1.0e-12}\n"))
    with pytest.raises(ConfigError, match="bandwidth"):
        cli.load_config(path)


def test_even_preset_count_rejected(tmp_path):
    path = _write(tmp_path, "mode: analyze\nparams: {Np: 10}\n")
    with pytest.raises(ConfigError, match="Np"):
        cli.load_config(path)


def test_waveguide_longer_than_cluster_rejected(tmp_path):
    path = _write(tmp_path, "mode: analyze\nparams: {L: 40.0, R: 20.0}\n")
    with pytest.raises(ConfigError, match="params"):
        cli.load_config(path)


def test_missing_mode_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        cli.load_config(_write(tmp_path, "params: {Np: 11}\n"))


def test_unknown_mode_rejected(tmp_path):
    with pytest.raises(ConfigError, match="mode"):
        cli.load_config(_write(tmp_path, "mode: plot\n"))


def test_unknown_param_rejected(tmp_path):
    path = _write(tmp_path, "mode: analyze\nparams: {Npp: 11}\n")
    with pytest.raises(ConfigError, match="Npp"):
        cli.load_config(path)
    # YAML keys need not be strings, and unknown keys of two types still
    # make one message
    path = _write(tmp_path, "mode: analyze\nparams: {1: 2, Npp: 11}\n", name="mixed.yaml")
    with pytest.raises(ConfigError, match="params.1: unknown key"):
        cli.load_config(path)


def test_users_per_cluster_is_not_a_parameter(tmp_path):
    # one user is served per cluster and block; nothing reads a user count
    path = _write(tmp_path, "mode: analyze\nparams: {Ku: 2}\n")
    with pytest.raises(ConfigError, match="Ku"):
        cli.load_config(path)


def test_unknown_top_level_key_rejected(tmp_path):
    with pytest.raises(ConfigError, match="modee"):
        cli.load_config(_write(tmp_path, "modee: analyze\n"))


def test_sweep_must_name_system_parameter(tmp_path):
    path = _write(tmp_path, (
        "mode: analyze\n"
        "sweep: {parameter: K, values: [50, 100]}\n"))
    with pytest.raises(ConfigError, match="sweep.parameter"):
        cli.load_config(path)


def test_sweep_values_validated_up_front(tmp_path):
    path = _write(tmp_path, (
        "mode: analyze\n"
        "sweep: {parameter: Np, values: [3, 4, 5]}\n"))
    with pytest.raises(ConfigError, match=r"sweep.values\[1\]"):
        cli.load_config(path)
    path = _write(tmp_path, (
        "mode: analyze\n"
        "sweep: {parameter: Rbar, values: [1, 2000]}\n"), name="rbar.yaml")
    with pytest.raises(ConfigError, match=r"sweep.values\[1\]: Rbar"):
        cli.load_config(path)
    # a point the simulator would refuse (R_sim = 5000 <= 2R) stops every
    # simulating mode; analysis alone runs it
    path = _write(tmp_path, (
        "mode: simulate\n"
        "sweep: {parameter: R, values: [20.0, 3000.0]}\n"), name="rsim.yaml")
    for mode in ("simulate", "compare", "rate"):
        with pytest.raises(ConfigError, match=r"sweep.values\[1\]: R_sim"):
            cli.load_config(path, [f"mode={mode}"])
    assert cli.load_config(path, ["mode=analyze"]).sweep.values == (20.0, 3000.0)


def test_overrides_apply_before_validation(tmp_path):
    path = _write(tmp_path, "mode: analyze\nparams: {Np: 11}\n")
    cfg = cli.load_config(path, ["params.Np=21", "mode=bounds",
                                 "params.P=30 dBm"])
    assert cfg.params.Np == 21
    assert cfg.mode == "bounds"
    assert cfg.params.P == pytest.approx(1.0, rel=1e-12)


def test_override_into_empty_section(tmp_path):
    # "sim:" with nothing under it is YAML null, which loads as an empty
    # section; an override into it fills it like any other
    path = _write(tmp_path, "mode: analyze\nparams:\nsim:\n")
    assert cli.load_config(path, ["sim.seed=3"]).sim.seed == 3
    assert cli.load_config(path, ["params.Np=3"]).params.Np == 3


def test_config_not_utf8_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.yaml"
    path.write_bytes(b"\xff\xfem\x00o\x00d\x00e\x00")
    assert cli.main([str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"config error: {path}: cannot read" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_override_requires_key_value(tmp_path):
    path = _write(tmp_path, "mode: analyze\n")
    with pytest.raises(ConfigError, match="--set"):
        cli.load_config(path, ["params.Np"])


# ---------------------------------------------------------------- running

def test_analyze_sweep_monotone_in_presets(tmp_path):
    path = _write(tmp_path, (
        "mode: analyze\n"
        "params: {Rbar: 2.0}\n"
        "sweep: {parameter: Np, values: [3, 5, 11, 21]}\n"))
    out = tmp_path / "out"
    assert cli.main([str(path), "--out", str(out)]) == 0
    rows = _read_rows(out)
    outages = [float(r["analytic_outage"]) for r in rows]
    assert [int(float(r["swept_value"])) for r in rows] == [3, 5, 11, 21]
    assert all(a >= b - 1e-15 for a, b in zip(outages, outages[1:]))
    assert all(r["sim_outage"] == "" for r in rows)
    assert all(r["error"] == "" for r in rows)


def test_bounds_mode_brackets_outage(tmp_path):
    path = _write(tmp_path, "mode: bounds\nparams: {Rbar: 2.0}\n")
    out = tmp_path / "out"
    assert cli.main([str(path), "--out", str(out)]) == 0
    (row,) = _read_rows(out)
    lower = float(row["lower_bound"])
    mid = float(row["analytic_outage"])
    upper = float(row["upper_bound"])
    assert lower <= mid + 1e-12
    assert mid <= upper + 1e-12


def test_simulate_same_seed_byte_identical(tmp_path):
    path = _write(tmp_path, (
        "mode: simulate\n"
        "sim: {n_realizations: 2000, seed: 7}\n"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main([str(path), "--out", str(out_a)]) == 0
    assert cli.main([str(path), "--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_worker_count_does_not_change_csv(tmp_path):
    path = _write(tmp_path, (
        "mode: simulate\n"
        "sim: {n_realizations: 2000, seed: 7}\n"))
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main([str(path), "--out", str(out_a)]) == 0
    assert cli.main([str(path), "--out", str(out_b), "--set",
                     "sim.workers=3"]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


@pytest.mark.parametrize("mode,parameter,values,draws", [
    ("compare", "P", '["0 dBm", "15 dBm", "30 dBm"]', 1),
    ("rate", "Rbar", "[0.5, 1.0, 2.0]", 1),
    ("rate", "Np", "[1, 3, 11]", 1),
    ("simulate", "H", "[2.0, 3.0, 5.0]", 1),
    ("simulate", "lam", "[1.0e-6, 2.0e-6, 4.0e-6]", 3),
], ids=["compare-P", "rate-Rbar", "rate-Np", "simulate-H", "simulate-lam"])
def test_sweep_draws_once_per_lam_group(tmp_path, monkeypatch, mode, parameter,
                                        values, draws):
    # consecutive points with one lam share a simulation, and points whose
    # draw keys match (they differ only in P, sigma2, f_c or Rbar) share
    # samples; every row still equals a fresh one-point draw reduced at its
    # own point
    path = _write(tmp_path, (
        f"mode: {mode}\n"
        "sim: {n_realizations: 600, seed: 19}\n"
        f"sweep: {{parameter: {parameter}, values: {values}}}\n"))
    calls = []
    simulate = cli._simulate

    def counted(group, simcfg):
        calls.append(group)
        return simulate(group, simcfg)

    monkeypatch.setattr(cli, "_simulate", counted)
    out = tmp_path / "out"
    assert cli.main([str(path), "--out", str(out)]) == 0
    assert len(calls) == draws
    cfg = cli.load_config(path)
    points = cli._points(cfg.params, cfg.sweep)
    # one member per distinct draw key
    assert sum(map(len, calls)) == len({mc._draw_key(p) for _, p in points})
    rows = json.loads((out / "report.json").read_text())["rows"]
    reduce, column = ((mc._rate, "sim_rate") if mode == "rate"
                      else (mc._outage, "sim_outage"))
    for row, (_, params) in zip(rows, points, strict=True):
        estimate, se = reduce(mc._simulate([params], cfg.sim)[0], params)
        assert float.hex(row[column]) == float.hex(estimate)
        assert float.hex(row["sim_std_error"]) == float.hex(se)
        assert row["wall_time_sim"] > 0.0
    if draws == 1:
        # the group's first row carries its simulation, the others a reduction
        assert rows[0]["wall_time_sim"] > max(row["wall_time_sim"] for row in rows[1:])


@pytest.mark.parametrize("mode,parameter,values,transforms", [
    ("bounds", "P", '["0 dBm", "15 dBm", "30 dBm"]', 3),
    ("analyze", "sigma2", "[1.0e-13, 1.0e-12, 1.0e-11]", 1),
    ("compare", "f_c", "[3.5e9, 28.0e9, 60.0e9]", 1),
    ("bounds", "Rbar", "[0.5, 1.0, 2.0]", 9),
    ("analyze", "Np", "[3, 5, 11]", 3),
], ids=["bounds-P", "analyze-sigma2", "compare-f_c", "bounds-Rbar", "analyze-Np"])
def test_sweep_transforms_once_per_key(tmp_path, monkeypatch, mode, parameter,
                                       values, transforms):
    # points that differ only in P, sigma2 or f_c reduce one transform per
    # spatial average (three in bounds mode, one otherwise); every row
    # still equals the average composed afresh at its own point
    path = _write(tmp_path, (
        f"mode: {mode}\n"
        "sim: {n_realizations: 600, seed: 19}\n"
        f"sweep: {{parameter: {parameter}, values: {values}}}\n"))
    calls = []
    transform = cli._transform

    def counted(rule, params, acfg):
        t0 = time.perf_counter()
        result = transform(rule, params, acfg)
        calls.append((params, time.perf_counter() - t0))
        return result

    monkeypatch.setattr(cli, "_transform", counted)
    out = tmp_path / "out"
    assert cli.main([str(path), "--out", str(out)]) == 0
    assert len(calls) == transforms
    cfg = cli.load_config(path)
    rows = json.loads((out / "report.json").read_text())["rows"]
    averages = {"analytic_outage": outage_probability}
    if mode == "bounds":
        averages.update(upper_bound=outage_upper_bound,
                        lower_bound=outage_lower_bound)
    for row, (_, params) in zip(rows, cli._points(cfg.params, cfg.sweep),
                                strict=True):
        for column, function in averages.items():
            assert float.hex(row[column]) == float.hex(function(params, cfg.analysis))
        assert row["wall_time_analysis"] > 0.0
        # a group's first row times its transforms, its other rows none
        assert row["wall_time_analysis"] >= sum(
            spent for at, spent in calls if at == params)


def test_compare_mode_flags_agreement(tmp_path):
    path = _write(tmp_path, (
        "mode: compare\n"
        "params: {Rbar: 3.0}\n"
        "sim: {n_realizations: 4000, seed: 11}\n"))
    out = tmp_path / "out"
    assert cli.main([str(path), "--out", str(out)]) == 0
    (row,) = _read_rows(out)
    assert row["agreement"] == "true"
    assert float(row["sim_std_error"]) >= 0.0


def test_rate_mode_runs_both_engines(tmp_path):
    path = _write(tmp_path, (
        "mode: rate\n"
        "sim: {n_realizations: 1500, seed: 3}\n"))
    out = tmp_path / "out"
    assert cli.main([str(path), "--out", str(out)]) == 0
    (row,) = _read_rows(out)
    analytic = float(row["analytic_rate"])
    simulated = float(row["sim_rate"])
    se = float(row["sim_std_error"])
    assert abs(analytic - simulated) <= 5.0 * se
    assert row["analytic_outage"] == ""


def test_report_echo_reproduces_csv(tmp_path):
    path = _write(tmp_path, (
        "mode: bounds\n"
        "params: {Rbar: 2.0, P: \"20 dBm\"}\n"
        "sweep: {parameter: Np, values: [3, 11]}\n"))
    out_a = tmp_path / "a"
    assert cli.main([str(path), "--out", str(out_a)]) == 0
    report = json.loads((out_a / "report.json").read_text())
    assert report["version"]
    assert report["seed"] == 12345
    assert set(report["config"]) == {"mode", "params", "analysis", "sim", "sweep"}

    echo_path = tmp_path / "echo.json"
    echo_path.write_text(json.dumps(report["config"]))
    out_b = tmp_path / "b"
    assert cli.main([str(echo_path), "--out", str(out_b)]) == 0
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()


def test_rate_of_one_realization_has_zero_std_error(tmp_path):
    # one sample has no spread to estimate: its standard error reads 0
    path = _write(tmp_path, "mode: rate\nsim: {n_realizations: 1, seed: 3}\n")
    assert cli.main([str(path), "--out", str(tmp_path)]) == 0
    (row,) = _read_rows(tmp_path)
    assert row["sim_std_error"] == "0"
    assert row["sim_rate"] != ""


def test_numpy_integer_params_run_and_report(tmp_path):
    # SystemParams keeps the int it checked, so report.json can echo it
    cfg = cli.ExperimentConfig(mode="analyze", params=SystemParams(Np=np.int64(3)),
                               analysis=an.AnalysisConfig(), sim=mc.SimConfig())
    assert cli.run(cfg, tmp_path) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["config"]["params"]["Np"] == 3


def test_report_rows_carry_wall_times(tmp_path):
    path = _write(tmp_path, "mode: analyze\n")
    out = tmp_path / "out"
    assert cli.main([str(path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    (row,) = report["rows"]
    assert row["wall_time_analysis"] > 0.0
    assert row["wall_time_sim"] is None
    with open(out / "results.csv") as handle:
        header = handle.readline().strip().split(",")
    assert "wall_time_analysis" not in header


def test_numeric_failure_marks_row_and_exit_status(tmp_path, monkeypatch):
    # the second point's outage average fails; its neighbours do not
    calls = {"n": 0}
    real = cli._average

    def flaky(transform, params, context):
        calls["n"] += 1
        if calls["n"] == 2:
            raise NumericError("synthetic instability")
        return real(transform, params, context)

    monkeypatch.setattr(cli, "_average", flaky)
    path = _write(tmp_path, (
        "mode: analyze\n"
        "params: {Rbar: 2.0}\n"
        "sweep: {parameter: Np, values: [3, 5, 11]}\n"))
    out = tmp_path / "out"
    assert cli.main([str(path), "--out", str(out)]) == 1
    rows = _read_rows(out)
    assert len(rows) == 3
    assert rows[0]["error"] == ""
    assert "synthetic instability" in rows[1]["error"]
    assert rows[1]["analytic_outage"] == ""
    assert rows[2]["error"] == ""


def test_failing_row_error_is_quoted_in_csv(tmp_path, monkeypatch):
    # an error cell holding the delimiter, the quote and a line break is
    # quoted, its quotes doubled
    def failing(transform, params, context):
        raise NumericError('a, "b"\nc')

    monkeypatch.setattr(cli, "_average", failing)
    path = _write(tmp_path, "mode: analyze\n")
    assert cli.main([str(path), "--out", str(tmp_path)]) == 1
    assert (tmp_path / "results.csv").read_bytes() == (
        b"swept_value,analytic_outage,sim_outage,sim_std_error,analytic_rate,"
        b"sim_rate,upper_bound,lower_bound,agreement,error\n"
        b',,,,,,,,,"NumericError: a, ""b""\nc"\n')


@pytest.mark.parametrize("mode,sweep", [
    ("analyze", ""),
    ("bounds", ""),
    ("bounds", 'sweep: {parameter: P, values: ["0 dBm", "20 dBm", "40 dBm"]}\n'),
], ids=["analyze", "bounds", "bounds-P"])
def test_numeric_failure_prints_no_numpy_warnings(tmp_path, capsys, mode, sweep):
    # at Rbar = 1023 (eps = 2^1023 - 1) omega = N eps d0^alpha leaves the
    # double range, and the coverage sum is NaN; each row's error line
    # says so, and numpy's overflow warnings on the way would only be
    # noise.
    # The P sweep shares one transform, yet every row fails on its own
    path = _write(tmp_path, f"mode: {mode}\nparams: {{Rbar: 1023}}\n{sweep}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([str(path), "--out", str(tmp_path)]) == 1
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    err = capsys.readouterr().err
    rows = _read_rows(tmp_path)
    assert len(rows) == (3 if sweep else 1)
    for row in rows:
        assert row["error"].startswith("NumericInstabilityError: outage probability")
        swept = None if not sweep else float(row["swept_value"])
        assert f"error at swept_value={swept!r}: NumericInstabilityError" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("mode", ["analyze", "bounds", "rate"])
def test_narrow_distance_span_fails_its_row(tmp_path, capsys, mode):
    # at H = 1e9 over R = 20 the serving distances span ln d0 by rounding
    # alone: each mode's row says so, both files are still written, and
    # numpy warns of nothing on the way
    path = _write(tmp_path, f"mode: {mode}\nparams: {{H: 1.0e9}}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([str(path), "--out", str(out)]) == 1
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert (out / "report.json").exists()
    [row] = _read_rows(out)
    assert row["error"].startswith("NumericError: serving distances span only ln d0")
    err = capsys.readouterr().err
    assert "error at swept_value=None: NumericError" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("mode,params,message", [
    ("analyze", "{R: 1.0e+160}", "NumericError: outage probability: squared serving distances"),
    ("analyze", "{H: 1.0e-300}", "NumericError: interference transform: H^alpha_N"),
    ("analyze", "{L: 1.0e-300}", None),
    ("analyze", "{L: 1.0e-310}", None),
    ("rate", "{H: 1.0e-160}", "NumericError: interference transform: H^alpha_N"),
    ("rate", "{H: 1.0e-102}", None),
], ids=["R-1e160", "H-1e-300", "L-1e-300", "L-1e-310", "rate-H-1e-160", "rate-H-1e-102"])
def test_extreme_geometry_prints_no_numpy_warnings(tmp_path, capsys, mode, params, message):
    # geometries the loader accepts: R^2 overflows the measure's areas, and
    # H^alpha the transform's node distances underflow, so each row fails
    # naming that quantity; at L = 1e-300 every preset sits at the center,
    # where the outage is the one-preset value and a ratio over rho near 0
    # overflows harmlessly, and at a subnormal L a panel starting a
    # subnormal distance off its preset has a width over its start that
    # overflows; at H = 1e-102 the rate's ratios z / (N H^alpha) pass the
    # double range and take their limit.  numpy warns of none of it
    path = _write(tmp_path, f"mode: {mode}\nparams: {params}\nsim: {{n_realizations: 300}}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        status = cli.main([str(path), "--out", str(out)])
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert "RuntimeWarning" not in capsys.readouterr().err
    assert (out / "report.json").exists()
    [row] = _read_rows(out)
    if message is not None:
        assert status == 1
        assert row["error"].startswith(message)
    elif mode == "rate":
        # a finite row; its value carries the transform's small-H error
        # (ROADMAP item 6), so it is not pinned here
        assert status == 0
        assert math.isfinite(float(row["analytic_rate"]))
    else:
        assert status == 0
        one_preset = outage_probability(SystemParams(Np=1), an.AnalysisConfig())
        assert float(row["analytic_outage"]) == pytest.approx(one_preset, rel=1e-8)


@pytest.mark.parametrize("lam", [None, 0.0], ids=["default-lam", "lam-0"])
@pytest.mark.parametrize("power", ["2970 dBm", "3080 dBm"])
def test_rate_at_extreme_power_writes_its_row(tmp_path, capsys, power, lam):
    # xi stays finite, so the loader takes both powers; but the trapezoid
    # grid's end ratio 40/xi over z_lo overflows at 2970 dBm, and 40/xi
    # itself at 3080 dBm: the row says so, and both files are written
    params = f'{{P: "{power}"' + ("" if lam is None else f", lambda: {lam}") + "}"
    path = _write(tmp_path, f"mode: rate\nparams: {params}\nsim: {{n_realizations: 300}}\n")
    out = tmp_path / "out"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([str(path), "--out", str(out)]) in (0, 1)
    assert [w.message for w in caught if issubclass(w.category, RuntimeWarning)] == []
    assert (out / "report.json").exists()
    [row] = _read_rows(out)
    if row["error"]:
        assert row["error"].startswith("NumericError: ")
    else:
        assert math.isfinite(float(row["analytic_rate"]))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(Np=st.integers(0, 25).map(lambda k: 2 * k + 1),
       R=st.floats(1.0, 1000.0),
       L_share=st.floats(0.01, 0.99),
       lam=st.floats(0.0, 1e-4),
       beta=st.floats(0.0, 0.1))
def test_bounds_bracket_outage_monotone_in_power(Np, R, L_share, lam, beta):
    # over the valid geometry, through the CLI's shared transforms: each
    # row's outage lies between its bounds, and it does not rise with P.
    # Interferers at beta = 0 are all LoS with alpha_L = 2, so their
    # interference diverges and every row fails
    diverges = lam > 0.0 and beta == 0.0
    config = {"mode": "bounds",
              "params": {"Np": Np, "R": R, "L": 2.0 * R * L_share,
                         "lam": lam, "beta": beta},
              "sweep": {"parameter": "P",
                        "values": [f"{dbm} dBm" for dbm in range(0, 41, 10)]}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        assert cli.main([str(path), "--out", tmp]) == (1 if diverges else 0)
        rows = json.loads((Path(tmp) / "report.json").read_text())["rows"]
    if diverges:
        assert len(rows) == 5
        assert all(row["error"].startswith("NumericError: interference diverges")
                   for row in rows)
        return
    outages = [row["analytic_outage"] for row in rows]
    for row in rows:
        assert row["lower_bound"] <= row["analytic_outage"] + 1e-9
        assert row["analytic_outage"] <= row["upper_bound"] + 1e-9
    assert all(b <= a + 1e-12 for a, b in zip(outages, outages[1:]))


def test_config_error_exit_code(tmp_path, capsys):
    path = _write(tmp_path, "mode: analyze\nparams: {Np: 10}\n")
    assert cli.main([str(path)]) == 2
    assert "Np" in capsys.readouterr().err
    # out-of-domain numbers stop at load time, before any row is computed:
    # 2^2000 - 1 overflows, and non-finite values are no parameters
    path = _write(tmp_path, "mode: analyze\n", name="plain.yaml")
    for spec, field in (("params.Rbar=2000", "Rbar"), ("params.sigma2=inf", "sigma2"),
                        ("params.lam=inf", "lam"), ("params.H=inf", "H"),
                        ("params.R=inf", "R"), ("params.P=nan", "P"),
                        ("params.beta=-0.01", "beta")):
        assert cli.main([str(path), "--set", spec, "--out", str(tmp_path)]) == 2
        assert f"params: {field} must be" in capsys.readouterr().err
    # so do a noise term that overflows and a run the simulator would refuse
    for specs, message in ((("params.sigma2=1e300", "params.P=1e-300"), "params: noise term"),
                           (("mode=rate", "sim.R_sim=40"), "sim: R_sim=40"),
                           (("mode=simulate", "sim.R_sim=1e200"), "sim: R_sim=1e+200"),
                           (("mode=simulate", "sim.R_sim=1.0e+9"),
                            "sim: R_sim=1000000000.0 puts lam pi R_sim^2 = 3.14159e+12"),
                           # past the float32 range of the interferer field
                           (("mode=simulate", "params.lam=1e-40"), "sim: lam=1e-40"),
                           (("mode=compare", "params.H=1e20"), "sim: lam=1e-06, H=1e+20"),
                           # H^2 past the double range, too
                           (("mode=rate", "params.H=1e200"), "sim: lam=1e-06, H=1e+200"),
                           (("mode=rate", "sweep.parameter=H", "sweep.values=[3, 1e20]"),
                            "sweep.values[1]: lam=1e-06, H=1e+20")):
        args = [arg for spec in specs for arg in ("--set", spec)]
        start = time.perf_counter()
        assert cli.main([str(path), *args, "--out", str(tmp_path)]) == 2
        # refused at once: a field of 3e12 arrivals per realization would
        # run for years
        assert time.perf_counter() - start < 5.0
        assert message in capsys.readouterr().err
    assert not (tmp_path / "results.csv").exists()


@pytest.mark.parametrize("mode", cli.MODES)
def test_pinned_distance_is_unknown_key(tmp_path, capsys, mode):
    # version 0.8.0 dropped sim.pinned_d0 (the conditional checks pin the
    # serving distance in the tests), so a file, a 0.7.x report.json echo
    # (which carries "pinned_d0": null) or an override naming it is refused
    # like any unknown key, before anything is written
    out = tmp_path / "out"
    echo = _write(tmp_path, json.dumps(
        {"mode": mode, "sim": {"n_realizations": 300, "pinned_d0": None}}), name="echo.json")
    plain = _write(tmp_path, f"mode: {mode}\nsim: {{n_realizations: 300}}\n")
    for args in ([str(echo)], [str(plain), "--set", "sim.pinned_d0=20.0"]):
        assert cli.main([*args, "--out", str(out)]) == 2
        assert "sim.pinned_d0: unknown key" in capsys.readouterr().err
        assert not out.exists()
    assert cli.main([str(plain), "--out", str(out)]) == 0


@pytest.mark.parametrize("config,specs,message", [
    ('mode: analyze\nparams: {P: "1.2.3 dBm"}\n', (),
     "params.P: malformed dBm value '1.2.3 dBm'"),
    ("mode: analyze\nparams: [1, 2]\n", (), "params: expected a mapping, got list"),
    ("mode: analyze\nsweep: {parameter: P, values: []}\n", (),
     "sweep.values: expected a non-empty list"),
    ("mode: analyze\n", (".=1",), "--set '.=1': empty key"),
    ("mode: analyze\n", ("params.P=[unclosed",),
     "params: P must be a finite number, got '[unclosed'"),
    ("mode: analyze\n", ("mode.x=1",), "--set 'mode.x=1': mode is not a section"),
    ("mode: [unclosed\n", (), "parse error"),
], ids=["malformed-dBm", "params-list", "empty-sweep", "empty-key", "unparsed-set",
        "set-into-value", "parse-error"])
def test_config_refusals_name_their_cause(tmp_path, capsys, config, specs, message):
    # each refusal stops at load time with its message and writes nothing;
    # an override that YAML cannot parse is kept as its text
    path = _write(tmp_path, config)
    out = tmp_path / "out"
    args = [arg for spec in specs for arg in ("--set", spec)]
    assert cli.main([str(path), *args, "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_out_naming_a_file_exits_before_running(tmp_path, capsys, monkeypatch):
    path = _write(tmp_path, "mode: analyze\n")
    taken = tmp_path / "taken"
    taken.write_text("kept")
    monkeypatch.setattr(cli, "run", lambda *args: pytest.fail("run was called"))
    assert cli.main([str(path), "--out", str(taken)]) == 2
    assert "--out" in capsys.readouterr().err
    assert taken.read_text() == "kept"


@pytest.mark.parametrize("config,spec,field", [
    ('mode: analyze\nparams: {P: "4000 dBm"}\n', None, "params.P"),
    ('mode: analyze\nparams: {sigma2: "4000 dBm"}\n', None, "params.sigma2"),
    ('mode: analyze\nsweep: {parameter: P, values: ["0 dBm", "4000 dBm"]}\n', None,
     "sweep.values[1]"),
    ("mode: analyze\n", "params.P=4000 dBm", "params.P"),
], ids=["P", "sigma2", "sweep-P", "set-P"])
def test_overflowing_dbm_is_config_error(tmp_path, capsys, config, spec, field):
    # 10^400 W is no float: the run stops at load time naming the field,
    # not in a traceback
    path = _write(tmp_path, config)
    out = tmp_path / "out"
    overrides = [] if spec is None else ["--set", spec]
    assert cli.main([str(path), *overrides, "--out", str(out)]) == 2
    assert f"{field}: '4000 dBm' overflows" in capsys.readouterr().err
    assert not (out / "results.csv").exists()


def test_readme_configs_load(tmp_path):
    # every yaml block of the README is a config the CLI accepts, so a
    # removed or renamed key cannot linger in the docs
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```yaml\n(.*?)^```$", readme, re.M | re.S)
    assert len(blocks) >= 2  # the compare example and the rate figure
    for i, block in enumerate(blocks):
        cli.load_config(_write(tmp_path, block, name=f"{i}.yaml"))


def test_json_run_loads_no_yaml_or_pool(tmp_path):
    # a JSON config at one worker needs neither the YAML parser nor a
    # process pool, and start-up does not pay to import them
    path = _write(tmp_path, json.dumps(
        {"mode": "simulate", "sim": {"n_realizations": 300, "workers": 1}}),
        name="config.json")
    code = ("import sys\n"
            "from pinchnet import cli\n"
            f"cli.run(cli.load_config({str(path)!r}), {str(tmp_path)!r})\n"
            "print(sorted(m for m in ('yaml', 'concurrent.futures',"
            " 'multiprocessing') if m in sys.modules))\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          check=True)
    assert done.stdout.strip() == "[]"
    assert (tmp_path / "results.csv").exists()


# every numeric config field, by section; the integer ones also refuse 3.0
_NUMBER_FIELDS = {
    "params": ("lam", "R", "L", "H", "beta", "alpha_L", "alpha_N", "f_c",
               "sigma2", "P", "Rbar", "bandwidth"),
    "sim": ("R_sim",),
}
_INTEGER_FIELDS = {
    "params": ("Np", "N_L", "N_N"),
    "sim": ("n_realizations", "seed", "workers"),
    "analysis": ("K", "gl_order_rate"),
}
_NO_NUMBERS = ("true", ".nan", ".inf", "-.inf")


def _bad_number_cases():
    cases = []
    for fields, bad in ((_NUMBER_FIELDS, _NO_NUMBERS),
                        (_INTEGER_FIELDS, (*_NO_NUMBERS, "3.0"))):
        for section, names in fields.items():
            for name, value in itertools.product(names, bad):
                cases.append(pytest.param(
                    "mode: analyze\n", f"{section}.{name}={value}", f"{section}: {name}",
                    id=name if value == "true" else f"{name}={value}"))
    for value in (*_NO_NUMBERS, "3.0"):
        cases.append(pytest.param(
            f"mode: analyze\nsweep: {{parameter: Np, values: [{value}, 3]}}\n",
            "mode=analyze", "sweep.values[0]: Np",
            id="sweep-Np" if value == "true" else f"sweep-Np={value}"))
    return cases + [
        # 10^400 is no float either, written as a float or as an integer
        pytest.param('mode: analyze\nparams: {bandwidth: "1e400"}\n', "mode=analyze",
                     "params: bandwidth", id="bandwidth=1e400"),
        pytest.param("mode: analyze\n", "params.R=1" + "0" * 400, "params: R",
                     id="R=10^400"),
        # two spellings of one field: neither may win silently
        pytest.param("mode: analyze\nparams: {lambda: 1.0e-6, lam: 5.0e-6}\n",
                     "mode=analyze", "params.lambda: conflicts with params.lam",
                     id="lambda-and-lam"),
    ]


@pytest.mark.parametrize("config,spec,field", _bad_number_cases())
def test_bool_is_no_number(tmp_path, capsys, config, spec, field):
    # YAML reads true as a bool, and a Python bool is an int: left alone it
    # would run as 1 and be echoed as true.  NaN and the infinities are no
    # parameter values either, nor is 3.0 an integer.  Analyze mode leaves the
    # sim fields to SimConfig alone, with no simulator check behind it.
    path = _write(tmp_path, config)
    out = tmp_path / "out"
    assert cli.main([str(path), "--set", spec, "--out", str(out)]) == 2
    assert field in capsys.readouterr().err
    assert not (out / "results.csv").exists()


# The three benchmark workloads at seed 6229: the README outage figure in
# compare mode, the README rate figure over Np, and a bounds sweep at
# Np = 51.  A change that moves any results.csv byte on purpose updates
# the digest here and says why.
_DBM_0_TO_30 = [f"{p} dBm" for p in range(0, 31)]
_WORKLOAD_DIGESTS = {
    "outage_figure": (
        {"mode": "compare",
         "sim": {"n_realizations": 10_000, "R_sim": 5000.0, "workers": 1,
                 "seed": 6229},
         "sweep": {"parameter": "P", "values": _DBM_0_TO_30[::5]}},
        "722230d64b02cdd63926fae2163602587c5f3883c00a4eb9e4e3fb29d8526bee"),
    "rate_figure": (
        {"mode": "rate",
         "params": {"lambda": 1.0e-5, "R": 100.0, "L": 100.0, "H": 4.0,
                    "alpha_N": 4.0, "beta": 0.01, "P": "30 dBm"},
         "sim": {"n_realizations": 4000, "R_sim": 3000.0, "workers": 1,
                 "seed": 6229},
         "sweep": {"parameter": "Np", "values": [1, 3, 11]}},
        "538fc560614fb67d4207a929ff803b9559f8e4e73682345dce7ea7d527e18a85"),
    "bounds_sweep": (
        {"mode": "bounds",
         "params": {"Np": 51},
         "sim": {"workers": 1, "seed": 6229},
         "sweep": {"parameter": "P", "values": _DBM_0_TO_30}},
        "41fa71bbb4882bf11ddf9b3091b33e26f5fcb7aab8eb8c33f47f6154c66c5612"),
}


def test_package_version_matches_pyproject():
    # report.json records __version__ and an install records pyproject's:
    # they must agree.  Python 3.10 has no tomllib, so the [project]
    # table's version line is read as text
    text = (Path(__file__).parents[1] / "pyproject.toml").read_text()
    project = text.split("\n[project]\n", 1)[1].split("\n[", 1)[0]
    versions = [line.split("=", 1)[1].strip().strip('"')
                for line in project.splitlines() if line.startswith("version =")]
    assert versions == [cli.__version__]


# the package and each of its modules
_MODULES = ["pinchnet", *(f"pinchnet.{info.name}" for info in pkgutil.iter_modules(
    [str(Path(cli.__file__).parent)]))]


@pytest.mark.parametrize("module", _MODULES)
def test_star_import_finds_every_public_name(module):
    # a name deleted from a module but left in its __all__ fails here
    namespace = {}
    exec(f"from {module} import *", namespace)
    exported = getattr(importlib.import_module(module), "__all__", None)
    assert exported is None or set(exported) <= set(namespace)


def _referenced_names(path: Path) -> set:
    """Every name the code of a source file refers to: bare names,
    attributes and imported names (strings, __all__ included, do not count)."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


@pytest.mark.parametrize("module", _MODULES)
def test_public_names_are_used_inside_the_package(module):
    # nothing in src/ exists only for the tests: every name a module
    # exports is referenced by another module of the package
    imported = importlib.import_module(module)
    own = Path(imported.__file__)
    used = set().union(*(_referenced_names(path)
                         for path in own.parent.glob("*.py") if path != own))
    assert sorted(set(getattr(imported, "__all__", [])) - used) == []


@pytest.mark.parametrize("workload", list(_WORKLOAD_DIGESTS))
def test_workload_csv_bytes_pinned(tmp_path, workload):
    config, digest = _WORKLOAD_DIGESTS[workload]
    path = _write(tmp_path, json.dumps(config), name="config.json")
    assert cli.main([str(path), "--out", str(tmp_path)]) == 0
    got = hashlib.sha256((tmp_path / "results.csv").read_bytes()).hexdigest()
    assert got == digest


@pytest.mark.parametrize("key,value", [
    pytest.param("analysis.gl_order_2d", "64", id="gl_order_2d"),
    pytest.param("analysis.gl_order_radial", "64", id="gl_order_radial"),
    pytest.param("analysis.rate_prefactor", "0.5", id="rate_prefactor"),
    pytest.param("analysis.tolerance", "1.0e-9", id="tolerance"),
    pytest.param("sim.batch_size", "625", id="batch_size"),
    pytest.param("bounds", "true", id="bounds"),
])
def test_removed_analysis_orders_rejected(tmp_path, capsys, key, value):
    # a removed key must stop the run rather than be ignored: the rule
    # orders (gl_order_rate is the order of every 1-D rule), the rate
    # prefactor and panel tolerance (now constants), the batch size (each
    # worker runs one span) and the bounds flag (mode: bounds)
    section, _, name = key.rpartition(".")
    entry = f"{section}: {{{name}: {value}}}" if section else f"{name}: {value}"
    path = _write(tmp_path, f"mode: analyze\n{entry}\n")
    assert cli.main([str(path)]) == 2
    assert f"{key}: unknown" in capsys.readouterr().err
    path = _write(tmp_path, "mode: analyze\n", name="plain.yaml")
    assert cli.main([str(path), "--set", f"{key}={value}"]) == 2
    assert f"{key}: unknown" in capsys.readouterr().err


def test_missing_file_exit_code(tmp_path, capsys):
    assert cli.main([str(tmp_path / "absent.yaml")]) == 2
    assert "no such config" in capsys.readouterr().err


def test_nine_significant_digit_cells():
    assert cli._format_cell(0.0012345678912345) == "0.00123456789"
    assert cli._format_cell(1.0) == "1"
    assert cli._format_cell(None) == ""
    assert cli._format_cell(True) == "true"
    assert cli._format_cell(21) == "21"


@pytest.mark.parametrize("target", [
    "cli.load_config", "cli.run", "analysis.ergodic_rate",
    "geometry.nearest_preset_offset", "numerics.integrate_semi_infinite",
    "numerics.gauss_legendre_rule"])
def test_benchmark_tracer_targets_exist(target):
    # perfbench/tracer.py times these names by wrapping them; a rename or
    # deletion here leaves its per-layer metrics reading 0 without failing
    module, name = target.split(".")
    assert callable(getattr(importlib.import_module(f"pinchnet.{module}"), name, None))
