"""Command-line front end: config-driven experiments with CSV/JSON output.

A single YAML (or JSON) document describes one experiment::

    mode: compare            # analyze | simulate | compare | bounds | rate
    params:
      lambda: 1.0e-6         # alias for lam
      P: "20 dBm"            # powers accept "x dBm" strings or plain watts
      bandwidth: 1.0e8       # Hz, only used to derive sigma2 when absent
    analysis: {K: 100}
    sim: {n_realizations: 100000, seed: 12345, workers: 1}
    sweep:
      parameter: P
      values: ["0 dBm", "10 dBm", "20 dBm", "30 dBm"]

Unit conversions happen exactly once, while loading; everything downstream
works in SI. Two files are written per run: results.csv with one row per
sweep point (deterministic content, so identical seeds give byte-identical
files), and report.json carrying the normalized config echo, wall times,
and the package version. Re-running the echoed config reproduces the CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import re
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (AnalysisConfig, _MEASURES, _average, _transform,
                       _transform_key, ergodic_rate)
from .errors import ConfigError, InvalidParameterError, NumericError
from .geometry import SystemParams, default_params
from .montecarlo import SimConfig, _check_run, _draw_key, _outage, _rate, _simulate

MODES = ("analyze", "simulate", "compare", "bounds", "rate")

_NOISE_DENSITY_DBM = -174.0        # thermal floor per Hz
_DEFAULT_BANDWIDTH = 1.0e8

_PARAM_ALIASES = {"lambda": "lam"}
_POWER_FIELDS = ("P", "sigma2")

_PARAM_FIELDS = {f.name for f in dataclasses.fields(SystemParams)}
_ANALYSIS_FIELDS = {f.name for f in dataclasses.fields(AnalysisConfig)}
_SIM_FIELDS = {f.name for f in dataclasses.fields(SimConfig)}

_DBM_PATTERN = re.compile(r"^\s*([-+]?[0-9.eE+-]+)\s*dBm\s*$")

# columns whose values never vary between identical-seed runs; wall times
# stay out of the CSV so the determinism contract holds at the byte level
CSV_COLUMNS = ("swept_value", "analytic_outage", "sim_outage",
               "sim_std_error", "analytic_rate", "sim_rate", "upper_bound",
               "lower_bound", "agreement", "error")


@dataclasses.dataclass
class ResultRow:
    swept_value: float | int | None = None
    analytic_outage: float | None = None
    sim_outage: float | None = None
    sim_std_error: float | None = None
    analytic_rate: float | None = None
    sim_rate: float | None = None
    upper_bound: float | None = None
    lower_bound: float | None = None
    agreement: bool | None = None
    wall_time_analysis: float | None = None
    wall_time_sim: float | None = None
    error: str | None = None


@dataclasses.dataclass(frozen=True)
class Sweep:
    parameter: str
    values: tuple


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    mode: str
    params: SystemParams
    analysis: AnalysisConfig
    sim: SimConfig
    sweep: Sweep | None = None


# ------------------------------------------------------------------ load

def _parse_power(field: str, raw) -> float:
    """Accept plain watts or an 'x dBm' string; convert once, here."""
    if isinstance(raw, bool):
        raise ConfigError(f"{field}: expected a power, got {raw!r}")
    if isinstance(raw, (int, float)):
        return float(raw)
    if isinstance(raw, str):
        match = _DBM_PATTERN.match(raw)
        if match:
            try:
                return 10.0 ** (float(match.group(1)) / 10.0) / 1000.0
            except ValueError:
                raise ConfigError(f"{field}: malformed dBm value {raw!r}") from None
            except OverflowError:
                raise ConfigError(f"{field}: {raw!r} overflows a float") from None
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(
                f"{field}: expected watts or 'x dBm', got {raw!r}") from None
    raise ConfigError(f"{field}: expected a number or 'x dBm' string, got {raw!r}")


def _noise_power(bandwidth: float) -> float:
    dbm = _NOISE_DENSITY_DBM + 10.0 * math.log10(bandwidth)
    return 10.0 ** (dbm / 10.0) / 1000.0


def _coerce_scalar(value):
    """Recover numbers that YAML 1.1 leaves as strings ('1e-6', '1.0e8')."""
    if isinstance(value, str):
        text = value.strip()
        for kind in (int, float):
            try:
                return kind(text)
            except ValueError:
                continue
    return value


def _require_mapping(tree, context: str) -> dict:
    if tree is None:
        return {}
    if not isinstance(tree, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(tree).__name__}")
    return tree


def _normalize_params(section) -> SystemParams:
    section = dict(_require_mapping(section, "params"))
    kwargs = {}
    for key, value in section.items():
        kwargs[_PARAM_ALIASES.get(key, key)] = value

    bandwidth = _coerce_scalar(kwargs.pop("bandwidth", None))
    if bandwidth is not None:
        if "sigma2" in kwargs:
            raise ConfigError(
                "params.bandwidth: conflicts with an explicit sigma2; give one")
        if isinstance(bandwidth, bool) or not isinstance(bandwidth, (int, float)) \
                or not bandwidth > 0:
            raise ConfigError(
                f"params.bandwidth: expected positive Hz, got {bandwidth!r}")

    unknown = set(kwargs) - _PARAM_FIELDS
    if unknown:
        raise ConfigError(f"params.{sorted(unknown)[0]}: unknown parameter")

    for field, value in list(kwargs.items()):
        if field in _POWER_FIELDS:
            kwargs[field] = _parse_power(f"params.{field}", value)
        else:
            kwargs[field] = _coerce_scalar(value)
    if "sigma2" not in kwargs:
        kwargs["sigma2"] = _noise_power(
            _DEFAULT_BANDWIDTH if bandwidth is None else float(bandwidth))

    try:
        return default_params(**kwargs)
    except InvalidParameterError as exc:
        raise ConfigError(f"params: {exc}") from exc


def _normalize_section(section, context: str, allowed: set, cls):
    section = _require_mapping(section, context)
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"{context}.{sorted(unknown)[0]}: unknown key")
    try:
        return cls(**{k: _coerce_scalar(v) for k, v in section.items()})
    except InvalidParameterError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _normalize_sweep(section, params: SystemParams) -> Sweep | None:
    if section is None:
        return None
    section = _require_mapping(section, "sweep")
    unknown = set(section) - {"parameter", "values"}
    if unknown:
        raise ConfigError(f"sweep.{sorted(unknown)[0]}: unknown key")
    name = section.get("parameter")
    if not isinstance(name, str):
        raise ConfigError(f"sweep.parameter: expected a field name, got {name!r}")
    name = _PARAM_ALIASES.get(name, name)
    if name not in _PARAM_FIELDS:
        raise ConfigError(f"sweep.parameter: {name!r} is not a system parameter")
    values = section.get("values")
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError("sweep.values: expected a non-empty list")
    normalized = []
    for i, value in enumerate(values):
        if name in _POWER_FIELDS:
            value = _parse_power(f"sweep.values[{i}]", value)
        else:
            value = _coerce_scalar(value)
        try:
            params.with_(**{name: value})
        except InvalidParameterError as exc:
            raise ConfigError(f"sweep.values[{i}]: {exc}") from exc
        normalized.append(value)
    return Sweep(name, tuple(normalized))


def _normalize(tree: dict) -> ExperimentConfig:
    tree = _require_mapping(tree, "config")
    unknown = set(tree) - {"mode", "params", "analysis", "sim", "sweep"}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown top-level key")

    mode = tree.get("mode")
    if mode is None:
        raise ConfigError("mode: required, one of " + "/".join(MODES))
    if mode not in MODES:
        raise ConfigError(f"mode: {mode!r} is not one of " + "/".join(MODES))

    params = _normalize_params(tree.get("params"))
    analysis = _normalize_section(
        tree.get("analysis"), "analysis", _ANALYSIS_FIELDS, AnalysisConfig)
    sim = _normalize_section(tree.get("sim"), "sim", _SIM_FIELDS, SimConfig)
    sweep = _normalize_sweep(tree.get("sweep"), params)
    if mode in ("compare", "rate") and sim.pinned_d0 is not None:
        raise ConfigError(f"sim.pinned_d0: {mode} mode averages over the serving "
                          "distance; only simulate mode pins it")
    if mode in ("simulate", "compare", "rate"):
        for i, (_, point) in enumerate(_points(params, sweep)):
            try:
                _check_run(point, sim)
            except InvalidParameterError as exc:
                # its messages open with the sim field at fault
                where = "" if sweep is None else f"sweep.values[{i}]: "
                raise ConfigError(f"{where}sim.{exc}") from exc
    return ExperimentConfig(mode=mode, params=params, analysis=analysis,
                            sim=sim, sweep=sweep)


def _apply_override(tree: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"--set {spec!r}: expected key=value")
    path, _, raw = spec.partition("=")
    keys = [k for k in path.strip().split(".") if k]
    if not keys:
        raise ConfigError(f"--set {spec!r}: empty key")
    import yaml
    try:
        value = yaml.safe_load(raw)
    except yaml.YAMLError:
        value = raw
    node = tree
    for key in keys[:-1]:
        child = node.setdefault(key, {})
        if not isinstance(child, dict):
            raise ConfigError(f"--set {spec!r}: {key} is not a section")
        node = child
    node[keys[-1]] = value


def load_config(path, overrides=()) -> ExperimentConfig:
    """Parse, override, and validate one experiment description."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: no such config file")
    text = path.read_text()
    try:
        # strict JSON first: YAML 1.1 misreads bare floats like 1e-06,
        # and report.json echoes must round-trip exactly
        tree = json.loads(text)
    except json.JSONDecodeError:
        import yaml  # here: a JSON config never loads the YAML parser
        try:
            tree = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(f"{path}: parse error: {exc}") from exc
    tree = _require_mapping(tree, str(path))
    for spec in overrides:
        _apply_override(tree, spec)
    return _normalize(tree)


# ------------------------------------------------------------------- run

def _points(params: SystemParams, sweep: Sweep | None) -> list:
    """(swept value, params) of every point a run evaluates."""
    if sweep is None:
        return [(None, params)]
    return [(value, params.with_(**{sweep.parameter: value}))
            for value in sweep.values]


def _compute_row(cfg: ExperimentConfig, params: SystemParams, swept_value,
                 samples, average) -> ResultRow:
    """One row; samples(params) gives the simulator's draw at params, and
    average(params, name) the spatial average of that name in
    analysis._MEASURES, as outage_probability and the bounds compute it."""
    row = ResultRow(swept_value=swept_value)
    mode = cfg.mode
    try:
        if mode in ("analyze", "compare", "bounds"):
            t0 = time.perf_counter()
            row.analytic_outage = average(params, "outage probability")
            if mode == "bounds":
                row.upper_bound = average(params, "outage upper bound")
                row.lower_bound = average(params, "outage lower bound")
            row.wall_time_analysis = time.perf_counter() - t0
        if mode in ("simulate", "compare"):
            t0 = time.perf_counter()
            row.sim_outage, row.sim_std_error = _outage(samples(params), params)
            row.wall_time_sim = time.perf_counter() - t0
        if mode == "compare":
            gap = abs(row.analytic_outage - row.sim_outage)
            row.agreement = bool(gap <= max(0.01, 3.0 * row.sim_std_error))
        if mode == "rate":
            t0 = time.perf_counter()
            row.analytic_rate = ergodic_rate(params, cfg.analysis)
            row.wall_time_analysis = time.perf_counter() - t0
            t0 = time.perf_counter()
            row.sim_rate, row.sim_std_error = _rate(samples(params), params)
            row.wall_time_sim = time.perf_counter() - t0
    except NumericError as exc:
        row.error = f"{type(exc).__name__}: {exc}"
    return row


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, float):
        return np.format_float_positional(
            value, precision=9, unique=False, fractional=False, trim="-")
    return str(value)


def _write_csv(rows, path: Path) -> None:
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        cells = []
        for column in CSV_COLUMNS:
            cell = _format_cell(getattr(row, column))
            if "," in cell or '"' in cell or "\n" in cell:
                cell = '"' + cell.replace('"', '""') + '"'
            cells.append(cell)
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n")


def _write_report(cfg: ExperimentConfig, rows, path: Path) -> None:
    payload = {
        "version": __version__,
        "seed": cfg.sim.seed,
        "config": dataclasses.asdict(cfg),
        "rows": [dataclasses.asdict(row) for row in rows],
    }
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run(cfg: ExperimentConfig, out_dir) -> int:
    """Evaluate every sweep point, write results.csv and report.json.

    Rows that hit a numeric failure carry the message in their error
    column; the files are still written and the exit status turns 1.
    Consecutive points with the same lam share one simulation: it draws
    once and keeps one sample set (2 * n_realizations floats) per distinct
    draw key in the group, and points whose draw keys match reduce the
    same samples.  The first row of such a group that simulates carries
    the whole group's simulation in its wall_time_sim.
    Likewise consecutive points whose transform keys match (every params
    field but P, sigma2 and f_c) reduce one analysis transform per spatial
    average, and the first row of such a group carries the transforms in
    its wall_time_analysis.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    group, drawn = {}, None

    def samples(params: SystemParams) -> np.ndarray:
        nonlocal drawn
        if drawn is None:
            # the whole lam group at once, on the group's first call
            drawn = dict(zip(group, _simulate(list(group.values()), cfg.sim)))
        return drawn[_draw_key(params)]

    transformed_key, transformed = None, {}

    def average(params: SystemParams, name: str) -> float:
        nonlocal transformed_key, transformed
        key = _transform_key(params)
        if key != transformed_key:
            # one key's transforms alive at a time
            transformed_key, transformed = key, {}
        if name not in transformed:
            rule = _MEASURES[name](params, cfg.analysis.gl_order_rate)
            transformed[name] = _transform(rule, params, cfg.analysis)
        return _average(transformed[name], params, name)

    rows = []
    for _, members in itertools.groupby(_points(cfg.params, cfg.sweep),
                                        key=lambda point: point[1].lam):
        members = list(members)
        # one lam group's samples alive at a time
        group, drawn = {_draw_key(params): params for _, params in members}, None
        rows += [_compute_row(cfg, params, value, samples, average)
                 for value, params in members]

    _write_csv(rows, out_dir / "results.csv")
    _write_report(cfg, rows, out_dir / "report.json")

    failures = [row for row in rows if row.error is not None]
    for row in failures:
        print(f"error at swept_value={row.swept_value!r}: {row.error}",
              file=sys.stderr)
    return 1 if failures else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pinchnet",
        description="Run a pinching-antenna outage/rate experiment from a "
                    "config file.")
    parser.add_argument("config", help="YAML or JSON experiment description")
    parser.add_argument("--set", dest="overrides", action="append",
                        default=[], metavar="KEY=VALUE",
                        help="override a config entry, dotted path "
                             "(e.g. --set params.Np=21)")
    parser.add_argument("--out", default=".",
                        help="output directory for results.csv / report.json")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, args.overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"--out: no output directory: {exc}", file=sys.stderr)
        return 2

    status = run(cfg, out_dir)
    print(f"wrote {out_dir / 'results.csv'} and {out_dir / 'report.json'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
