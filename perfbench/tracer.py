"""Span recorder that wraps pinchnet's public functions from outside.

The benchmark does not change the program: it replaces each public
function, in its defining module and in every pinchnet module that
imported it by name (for example `pinchnet.cli`), with a wrapper that
records a span (name, start, end, parent span, run id) and a few counts.
Spans stay in memory and are written once, when the run ends.

A target whose module or name no longer exists is skipped and reported as
missing; its metrics then read zero calls, so a later change that deletes
a code path leaves the traced run working.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from collections import Counter, defaultdict


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


def _count_realizations(tracer, args, kwargs, result):
    params = _arg(args, kwargs, 0, "params")
    simcfg = _arg(args, kwargs, 1, "simcfg")
    n = simcfg.n_realizations
    tracer.count("montecarlo.realizations", n)
    # computed, not measured: the mean interferer count of the PPP disc
    tracer.count("montecarlo.expected_interferers",
                 n * params.lam * math.pi * simcfg.R_sim ** 2)


def _count_ppp_points(tracer, args, kwargs, result):
    tracer.count("geometry.ppp_points", len(result))


def _count_integrand_evals(tracer, args, kwargs):
    f = _arg(args, kwargs, 0, "f")

    def counted(eps):
        tracer.count("numerics.rate_integrand_evals", getattr(eps, "size", 1))
        return f(eps)

    if "f" in kwargs:
        return args, {**kwargs, "f": counted}
    return (counted,) + tuple(args[1:]), kwargs


# span name -> (defining module, function name, before hook, after hook)
TARGETS = {
    "cli.load_config": ("pinchnet.cli", "load_config", None, None),
    "cli.run": ("pinchnet.cli", "run", None, None),
    "analysis.outage_probability": (
        "pinchnet.analysis", "outage_probability", None, None),
    "analysis.outage_upper_bound": (
        "pinchnet.analysis", "outage_upper_bound", None, None),
    "analysis.outage_lower_bound": (
        "pinchnet.analysis", "outage_lower_bound", None, None),
    "analysis.ergodic_rate": ("pinchnet.analysis", "ergodic_rate", None, None),
    "montecarlo.estimate_outage": (
        "pinchnet.montecarlo", "estimate_outage", None, _count_realizations),
    "montecarlo.estimate_ergodic_rate": (
        "pinchnet.montecarlo", "estimate_ergodic_rate", None,
        _count_realizations),
    "geometry.ppp_disc_radii": (
        "pinchnet.geometry", "ppp_disc_radii", None, _count_ppp_points),
    "geometry.nearest_preset_offset": (
        "pinchnet.geometry", "nearest_preset_offset", None, None),
    "numerics.integrate_semi_infinite": (
        "pinchnet.numerics", "integrate_semi_infinite",
        _count_integrand_evals, None),
    "numerics.gauss_legendre_rule": (
        "pinchnet.numerics", "gauss_legendre_rule", None, None),
}


class Tracer:
    """Collects spans and counts of one run in memory."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans = []      # [name, start, end, parent index or -1, run id]
        self.counts = Counter()
        self.missing = []
        self._stack = []

    def count(self, name: str, amount) -> None:
        self.counts[name] += amount

    def wrap(self, name: str, fn, before=None, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.run_id]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever a pinchnet module binds it."""
        for name, (module_name, attr, before, after) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                self.missing.append(name)
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(name)
                continue
            wrapper = self.wrap(name, original, before, after)
            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "pinchnet" and not mod_name.startswith("pinchnet."):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as handle:
            json.dump({"run_id": self.run_id, "spans": self.spans,
                       "counts": dict(self.counts), "missing": self.missing},
                      handle)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# per-layer metric -> unit; "computed" marks a value derived from the
# model's parameters rather than observed in the run
LAYER_UNITS = {
    "montecarlo.sim_s": "s",
    "montecarlo.us_per_realization": "us",
    "montecarlo.ns_per_interferer": "ns",
    "geometry.ppp_points_per_call": "count",
    "geometry.ppp_disc_radii_s": "s",
    "geometry.nearest_preset_offset_s": "s",
    "analysis.outage_probability_calls": "count",
    "analysis.outage_probability_ms_per_call": "ms",
    "analysis.bounds_s": "s",
    "analysis.ergodic_rate_s": "s",
    "numerics.integrate_semi_infinite_s": "s",
    "numerics.rate_integrand_evals": "count",
    "numerics.gauss_legendre_rule_calls": "count",
    "cli.load_config_s": "s",
    "cli.run_self_s": "s",
}
COMPUTED = {"montecarlo.ns_per_interferer"}


def layer_metrics(trace: dict) -> dict:
    """Per-layer metric values of one written trace."""
    spans = trace["spans"]
    counts = trace["counts"]
    total = defaultdict(float)
    calls = Counter()
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += end - start
    run_self = sum((end - start - child_time[i]
                    for i, (name, start, end, _, _) in enumerate(spans)
                    if name == "cli.run"), 0.0)
    # the Np = 1 outage takes the radial bound internally; only bounds
    # asked for in their own right count as bounds
    bounds = sum((end - start for name, start, end, parent, _ in spans
                  if name in ("analysis.outage_upper_bound",
                              "analysis.outage_lower_bound")
                  and (parent < 0
                       or spans[parent][0] != "analysis.outage_probability")),
                 0.0)
    sim_s = (total["montecarlo.estimate_outage"]
             + total["montecarlo.estimate_ergodic_rate"])
    return {
        "montecarlo.sim_s": sim_s,
        "montecarlo.us_per_realization": 1e6 * _ratio(
            sim_s, counts.get("montecarlo.realizations", 0)),
        "montecarlo.ns_per_interferer": 1e9 * _ratio(
            sim_s, counts.get("montecarlo.expected_interferers", 0)),
        "geometry.ppp_points_per_call": _ratio(
            counts.get("geometry.ppp_points", 0),
            calls["geometry.ppp_disc_radii"]),
        "geometry.ppp_disc_radii_s": total["geometry.ppp_disc_radii"],
        "geometry.nearest_preset_offset_s":
            total["geometry.nearest_preset_offset"],
        "analysis.outage_probability_calls":
            calls["analysis.outage_probability"],
        "analysis.outage_probability_ms_per_call": 1e3 * _ratio(
            total["analysis.outage_probability"],
            calls["analysis.outage_probability"]),
        "analysis.bounds_s": bounds,
        "analysis.ergodic_rate_s": total["analysis.ergodic_rate"],
        "numerics.integrate_semi_infinite_s":
            total["numerics.integrate_semi_infinite"],
        "numerics.rate_integrand_evals":
            counts.get("numerics.rate_integrand_evals", 0),
        "numerics.gauss_legendre_rule_calls":
            calls["numerics.gauss_legendre_rule"],
        "cli.load_config_s": total["cli.load_config"],
        "cli.run_self_s": run_self,
    }
