"""pinchnet benchmark: the paper's figure runs, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py                # every workload, seed 1, untraced

Each measured run starts `pinchnet` (`load_config` + `run`) in a fresh
child process with BLAS and OpenMP pinned to one thread.  The load is a
closed loop with one client: the next run starts only after the previous
one has exited.  Within the --seconds window the harness first starts a
set-up-only run to byte-compile the package, then (with --trace 1) one
traced run, then rounds of one set-up-only probe and one untraced run
until the next round would not fit, at least two rounds.  Every run of a
window uses the same seed, so their results.csv files must be
byte-identical.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1.  Lines before it list
every metric with its unit and sample count and the environment.  Each
result is also appended, with the environment, to perfbench/.out/runs.jsonl
for compare.py.  The exit status is 1 when an output check fails and 2,
without a result line, when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import tracer
from workloads import WORKLOADS, config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {**tracer.LAYER_UNITS, "trace.overhead_s": "s"}

DEFAULT_SECONDS = 40
MIN_RUNS = 2
# every run of one invocation must end within this many seconds of its start
HARD_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark cannot run: no source tree, or a child crashed."""


def environment(root: Path) -> dict:
    """Everything about the machine that can move the numbers."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "threads": dict(THREAD_PINS),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def _spawn(work: Path, config_path: Path, index: int, deadline: float, *,
           setup_only: bool = False, trace: bool = False) -> dict:
    out_dir = work / f"run{index}"
    out_dir.mkdir()
    result_path = out_dir / "child.json"
    cmd = [sys.executable, str(HERE / "child.py"), str(config_path),
           str(out_dir), str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd += ["--trace", str(index)]
    env = {**os.environ, **THREAD_PINS, "PYTHONPATH": str(ROOT / "src")}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - start), check=False)
    except subprocess.TimeoutExpired:
        raise BenchError(f"run {index} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(f"run {index} exited with {proc.returncode}:\n"
                         f"{proc.stderr[-3000:]}")
    run = json.loads(result_path.read_text())
    if not Path(run["pinchnet_file"]).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"imported pinchnet from {run['pinchnet_file']}")
    run["out_dir"] = out_dir
    if not setup_only:
        run["wall_s"] = run["written_at"] - start
    return run


def summary(values: list, unit: str) -> dict:
    """Median, plus the highest percentile with ten samples beyond it."""
    n = len(values)
    out = {"value": statistics.median(values), "unit": unit, "n": n,
           "samples": values}
    if n > 10:
        pct = math.floor(100 * (n - 10) / n)
        rank = max(1, math.ceil(pct * n / 100))
        out["tail"] = {"percentile": pct, "value": sorted(values)[rank - 1]}
    return out


def _check_runs(workload: str, runs: list):
    """Rows attempted, rows failed and the failure messages of all runs."""
    reference = checks.load_reference()[workload]
    attempted = failed = 0
    messages = set()
    first_csv = None
    for run in runs:
        rows = json.loads((run["out_dir"] / "report.json").read_text())["rows"]
        bad = checks.row_failures(workload, rows, reference)
        csv = (run["out_dir"] / "results.csv").read_bytes()
        if first_csv is None:
            first_csv = csv
        elif csv != first_csv:
            bad += [(i, "results.csv differs between runs with one seed")
                    for i in range(len(rows))]
        attempted += len(rows)
        failed += len({i for i, _ in bad})
        messages.update(message for _, message in bad)
    return attempted, failed, sorted(messages)


def measure(workload: str, seed: int, seconds: float, trace: bool,
            toy: bool = False, work: Path | None = None) -> dict:
    """Run one workload for `seconds` and return its result record."""
    if not (ROOT / "src" / "pinchnet" / "cli.py").is_file():
        raise BenchError(f"no pinchnet source tree under {ROOT / 'src'}")
    start = time.monotonic()
    deadline = start + HARD_LIMIT_S
    window_end = start + seconds
    work = work or HERE / ".work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(config(workload, seed, toy)))

    index = itertools.count()

    def spawn(**kwargs):
        return _spawn(work, config_path, next(index), deadline, **kwargs)

    spawn(setup_only=True)  # byte-compiles the package, warms the page cache
    traced = spawn(trace=True) if trace else None
    probes, runs, rounds = [], [], []
    # the host's speed drifts over tens of seconds: spreading the set-up
    # probes over the window, like the runs, lets both medians see the
    # same mix of fast and slow phases
    while len(runs) < MIN_RUNS or time.monotonic() + max(rounds) <= window_end:
        t0 = time.monotonic()
        probes.append(spawn(setup_only=True))
        runs.append(spawn())
        rounds.append(time.monotonic() - t0)

    attempted, failed, failures = _check_runs(
        workload, runs + ([traced] if traced else []))
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "correct": failed == 0,
              "attempted": attempted, "failed": failed,
              "failed_share": failed / attempted, "failures": failures}
    walls = [r["wall_s"] for r in runs]
    if trace:
        trace_data = json.loads((traced["out_dir"] / "trace.json").read_text())
        values = tracer.layer_metrics(trace_data)
        values["trace.overhead_s"] = traced["wall_s"] - statistics.median(walls)
        record["missing_targets"] = trace_data["missing"]
        record["metrics"] = {name: {"value": values[name], "unit": unit, "n": 1}
                             for name, unit in PER_LAYER_UNITS.items()}
    else:
        samples = {
            "wall_s": walls,
            "setup_s": [r["setup_s"] for r in probes + runs],
            "peak_rss_mb": [r["peak_rss_mb"] for r in runs],
        }
        record["metrics"] = {name: summary(samples[name], unit)
                             for name, unit in END_TO_END_UNITS.items()}
    return record


def describe(record: dict) -> list:
    """Human-readable lines: every metric with its unit and sample count."""
    lines = [f"{record['workload']}  seed={record['seed']}  "
             f"trace={record['trace']}  seconds={record['seconds']}"]
    for name, metric in record["metrics"].items():
        text = (f"  {name:42s} {metric['value']:<14.6g} {metric['unit']:6s} "
                + (f"median of {metric['n']}" if metric["n"] > 1
                   else "one traced run"))
        tail = metric.get("tail")
        if tail:
            text += f", p{tail['percentile']} {tail['value']:.6g}"
        elif metric["n"] > 1:
            text += ", no percentile has 10 samples beyond it"
        if name in tracer.COMPUTED:
            text += " (computed)"
        lines.append(text)
    lines.append(f"  {'failed_share':42s} {record['failed_share']:<14.6g} "
                 f"{'share':6s} {record['failed']} of {record['attempted']} "
                 f"rows")
    lines += [f"  FAILED {message}" for message in record["failures"]]
    if record.get("missing_targets"):
        lines.append("  not traced (missing): "
                     + ", ".join(record["missing_targets"]))
    return lines


def result_line(records: list) -> dict:
    """The final JSON object; several workloads prefix their metric names."""
    prefix = len(records) > 1
    return {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (f"{r['workload']}.{name}" if prefix else name):
                {"value": m["value"], "unit": m["unit"]}
            for r in records for name, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    records = []
    try:
        for name in names:
            record = measure(name, args.seed, args.seconds, bool(args.trace))
            records.append(record)
            print("\n".join(describe(record)), flush=True)
        env = environment(ROOT)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print("environment: " + json.dumps(env, sort_keys=True))
    out = HERE / ".out"
    out.mkdir(exist_ok=True)
    with open(out / "runs.jsonl", "a") as handle:
        for record in records:
            handle.write(json.dumps({**record, "env": env}) + "\n")
    line = result_line(records)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
