"""Output checks of one workload run; each failed row counts against it.

- Analytic values match reference.json (recorded from the analytic
  engine) within 1e-5 absolute, the resolution bound of acceptance
  criterion 9.
- outage_figure: every row's agreement flag is true.
- rate_figure: analytic and simulated rate agree within 2 % or, where the
  simulation's own noise is wider, within 4 standard errors; the rate at
  Np=3 exceeds the rate at Np=1 on both engines.
- bounds_sweep: lower bound <= outage <= upper bound on every row.

The run-level check that results.csv is byte-identical between runs with
the same seed lives in run.py, which sees every run.
"""

from __future__ import annotations

import json
from pathlib import Path

REFERENCE_TOL = 1e-5
RATE_REL_TOL = 0.02
RATE_SE_TOL = 4.0

_ANALYTIC_FIELDS = ("analytic_outage", "upper_bound", "lower_bound",
                    "analytic_rate")


def load_reference() -> dict:
    return json.loads((Path(__file__).parent / "reference.json").read_text())


def row_failures(workload: str, rows: list, reference: list) -> list:
    """(row index, message) for every failed check."""
    failures = []
    for i, row in enumerate(rows):
        def fail(message):
            failures.append((i, f"{row['swept_value']!r}: {message}"))

        if row.get("error") is not None:
            fail(f"error {row['error']}")
            continue
        ref = reference[i]
        if row["swept_value"] != ref["swept_value"]:
            fail(f"swept value differs from reference {ref['swept_value']!r}")
            continue
        for field in _ANALYTIC_FIELDS:
            if field in ref and not abs(row[field] - ref[field]) <= REFERENCE_TOL:
                fail(f"{field} {row[field]!r} vs reference {ref[field]!r}")
        if workload == "outage_figure" and row["agreement"] is not True:
            fail("analytic and simulated outage disagree")
        if workload == "rate_figure":
            gap = abs(row["analytic_rate"] - row["sim_rate"])
            allowed = max(RATE_REL_TOL * row["analytic_rate"],
                          RATE_SE_TOL * row["sim_std_error"])
            if not gap <= allowed:
                fail(f"rate gap {gap:.4g} exceeds {allowed:.4g}")
            if row["swept_value"] == 3:
                single = [r for r in rows if r["swept_value"] == 1]
                if single and not (
                        row["analytic_rate"] > single[0]["analytic_rate"]
                        and row["sim_rate"] > single[0]["sim_rate"]):
                    fail("rate at Np=3 does not exceed rate at Np=1")
        if workload == "bounds_sweep" and not (
                row["lower_bound"] <= row["analytic_outage"]
                <= row["upper_bound"]):
            fail("outage outside its bounds")
    return failures
