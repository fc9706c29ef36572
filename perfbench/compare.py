"""Compare two sets of benchmark results, per workload and metric.

    python3 perfbench/compare.py BASE NEW

BASE and NEW each hold result records written by run.py: the JSON-lines
file perfbench/.out/runs.jsonl, or a JSON list such as baseline.json.
Records are grouped by workload and by traced or untraced run; each metric
is compared by its median over the records, which should come from
several seeds.  End-to-end metrics are judged against their bound in
BENCHMARK.json.  The comparison is refused (exit 2) when the records were
measured in different environments: thread pins, numpy, BLAS, core count,
Python or machine.  Exit 1 means some metric got worse beyond its bound.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# environment fields that must match; the commit and the source digest
# are what a comparison is about
COMPARED_ENV = ("threads", "numpy", "blas", "nproc", "python", "machine")


def load(path: str) -> list:
    text = Path(path).read_text()
    if path.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines() if line.strip()]
    return json.loads(text)


def _medians(records: list) -> dict:
    values = {}
    for r in records:
        for name, metric in r["metrics"].items():
            key = (r["workload"], r["trace"], name)
            values.setdefault(key, []).append(metric["value"])
    return {key: (statistics.median(v), len(v)) for key, v in values.items()}


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    envs = {json.dumps({k: r["env"].get(k) for k in COMPARED_ENV},
                       sort_keys=True) for r in base + new}
    if len(envs) > 1:
        print("refusing to compare results from different environments:",
              file=sys.stderr)
        for env in sorted(envs):
            print(f"  {env}", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    old, cur = _medians(base), _medians(new)
    worse = False
    print(f"{'workload':14s} {'metric':42s} {'base':>12s} {'new':>12s} "
          f"{'change':>8s}  verdict")
    for key in sorted(old.keys() & cur.keys()):
        workload, _, name = key
        (a, na), (b, nb) = old[key], cur[key]
        change = (b - a) / a if a else float("nan")
        verdict = f"n={na}/{nb}"
        if name in bounds:
            m = bounds[name]
            loss = change if m["better"] == "lower" else -change
            if loss > m["bound"]:
                verdict += f", WORSE beyond bound {m['bound']}"
                worse = True
            else:
                verdict += f", within bound {m['bound']}"
        print(f"{workload:14s} {name:42s} {a:12.6g} {b:12.6g} "
              f"{change:+8.1%}  {verdict}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
