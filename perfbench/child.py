"""One pinchnet run in a fresh process, the way a user starts the CLI.

    python3 child.py CONFIG OUT_DIR RESULT [--setup-only] [--trace RUN_ID]

PYTHONPATH must point at the checkout's `src/`.  The child times the
import of pinchnet plus `load_config` (set-up), calls `run`, and writes to
RESULT a JSON object with the set-up time, the monotonic clock reading
once the output files are written, the run's exit status and the peak
resident memory.  With --trace it wraps the public functions first and
writes the spans to OUT_DIR/trace.json.
"""

import argparse
import json
import resource
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("config")
    parser.add_argument("out_dir")
    parser.add_argument("result")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", type=int, metavar="RUN_ID")
    args = parser.parse_args()

    t0 = time.perf_counter()
    from pinchnet import cli

    tracer = None
    if args.trace is not None:
        from tracer import Tracer
        tracer = Tracer(args.trace)
        tracer.install()
    cfg = cli.load_config(args.config)
    result = {"setup_s": time.perf_counter() - t0,
              "pinchnet_file": cli.__file__}
    if not args.setup_only:
        result["status"] = cli.run(cfg, args.out_dir)
        result["written_at"] = time.monotonic()
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6)
    if tracer is not None:
        tracer.write(f"{args.out_dir}/trace.json")
    with open(args.result, "w") as handle:
        json.dump(result, handle)


if __name__ == "__main__":
    main()
