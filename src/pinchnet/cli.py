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
import contextlib
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
from .analysis import (AnalysisConfig, _average, _average_rule, _transform,
                       _transform_key, ergodic_rate)
from .errors import ConfigError, InvalidParameterError, NumericError, _finite, _positive
from .geometry import SystemParams
from .montecarlo import SimConfig, _check_run, _draw_key, _outage, _rate, _simulate

MODES = ("analyze", "simulate", "compare", "bounds", "rate")

_NOISE_DENSITY_DBM = -174.0        # thermal floor per Hz
_DEFAULT_BANDWIDTH = 1.0e8

_PARAM_ALIASES = {"lambda": "lam"}
_POWER_FIELDS = ("P", "sigma2")

_PARAM_FIELDS = {f.name for f in dataclasses.fields(SystemParams)}
_TOP_LEVEL = ("mode", "params", "analysis", "sim", "sweep")

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

def _parse_value(where: str, field: str, raw):
    """One params or sweep value, converted once: for P and sigma2 watts or
    an 'x dBm' string, and for every field a number YAML 1.1 leaves as a
    string ('1e-6', '1.0e8').  Anything else goes on to its field's check."""
    power = field in _POWER_FIELDS
    if isinstance(raw, str):
        match = _DBM_PATTERN.match(raw) if power else None
        if match:
            try:
                return 10.0 ** (float(match.group(1)) / 10.0) / 1000.0
            except ValueError:
                raise ConfigError(f"{where}: malformed dBm value {raw!r}") from None
            except OverflowError:
                raise ConfigError(f"{where}: {raw!r} overflows a float") from None
        for kind in (int, float):
            try:
                raw = kind(raw)
                break
            except ValueError:
                continue
    return float(_finite(raw, field)) if power else raw


def _noise_power(bandwidth: float) -> float:
    dbm = _NOISE_DENSITY_DBM + 10.0 * math.log10(bandwidth)
    return 10.0 ** (dbm / 10.0) / 1000.0


@contextlib.contextmanager
def _refusing(context: str):
    """Turn an InvalidParameterError inside into a ConfigError naming context."""
    try:
        yield
    except InvalidParameterError as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def _section(tree, context: str, allowed) -> dict:
    """A config mapping (None is empty) whose keys are all in allowed."""
    if tree is None:
        return {}
    if not isinstance(tree, dict):
        raise ConfigError(f"{context}: expected a mapping, got {type(tree).__name__}")
    unknown = set(tree) - set(allowed)
    if unknown:
        raise ConfigError(f"{context}.{sorted(unknown, key=str)[0]}: unknown key")
    return tree


def _normalize_params(section) -> SystemParams:
    section = _section(section, "params", {*_PARAM_FIELDS, *_PARAM_ALIASES, "bandwidth"})
    for key, other in (*_PARAM_ALIASES.items(), ("bandwidth", "sigma2")):
        if key in section and other in section:
            raise ConfigError(f"params.{key}: conflicts with params.{other}; give one")
    with _refusing("params"):
        kwargs = {_PARAM_ALIASES.get(key, key): _parse_value(f"params.{key}", key, value)
                  for key, value in section.items()}
        if "sigma2" not in kwargs:
            bandwidth = kwargs.pop("bandwidth", _DEFAULT_BANDWIDTH)
            kwargs["sigma2"] = _noise_power(_positive(bandwidth, "bandwidth"))
        return SystemParams(**kwargs)


def _normalize_section(section, context: str, cls):
    section = _section(section, context, {f.name for f in dataclasses.fields(cls)})
    with _refusing(context):
        return cls(**{key: _parse_value(f"{context}.{key}", key, value)
                      for key, value in section.items()})


def _normalize_sweep(section, params: SystemParams, sim) -> Sweep | None:
    """The sweep, each point built and checked once: by the simulator's
    checks too when sim is given."""
    if section is None:
        return None
    section = _section(section, "sweep", ("parameter", "values"))
    name = section.get("parameter")
    if not isinstance(name, str) or _PARAM_ALIASES.get(name, name) not in _PARAM_FIELDS:
        raise ConfigError(f"sweep.parameter: {name!r} is not a system parameter")
    name = _PARAM_ALIASES.get(name, name)
    values = section.get("values")
    if not isinstance(values, (list, tuple)) or not values:
        raise ConfigError("sweep.values: expected a non-empty list")
    parsed = []
    for i, value in enumerate(values):
        with _refusing(f"sweep.values[{i}]"):
            parsed.append(_parse_value(f"sweep.values[{i}]", name, value))
            point = params.with_(**{name: parsed[-1]})
            if sim is not None:
                _check_run(point, sim)
    return Sweep(name, tuple(parsed))


def _normalize(tree: dict) -> ExperimentConfig:
    tree = _section(tree, "config", _TOP_LEVEL)
    mode = tree.get("mode")
    if mode not in MODES:
        raise ConfigError(f"mode: expected one of {'/'.join(MODES)}, got {mode!r}")
    params = _normalize_params(tree.get("params"))
    analysis = _normalize_section(tree.get("analysis"), "analysis", AnalysisConfig)
    sim = _normalize_section(tree.get("sim"), "sim", SimConfig)
    simulated = sim if mode in ("simulate", "compare", "rate") else None
    sweep = _normalize_sweep(tree.get("sweep"), params, simulated)
    if sweep is None and simulated is not None:
        with _refusing("sim"):
            _check_run(params, sim)
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
    *sections, key = keys
    node = tree
    for section in sections:
        if node.get(section) is None:  # a section left empty in the file
            node[section] = {}
        node = node[section]
        if not isinstance(node, dict):
            raise ConfigError(f"--set {spec!r}: {section} is not a section")
    if sections == ["params"]:
        # one spelling per field, so the override wins over either
        for alias, canonical in _PARAM_ALIASES.items():
            if key in (alias, canonical):
                node.pop(alias, None)
                key = canonical
    node[key] = value


def load_config(path, overrides=()) -> ExperimentConfig:
    """Parse, override, and validate one experiment description."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"{path}: no such config file")
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: cannot read: {exc}") from exc
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
    tree = _section(tree, "config", _TOP_LEVEL)
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
            rule = _average_rule(name, params, cfg.analysis)
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
