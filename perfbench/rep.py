"""One repetition: a fresh interpreter runs `facetrec run` once and times it.

    python3 perfbench/rep.py --config CFG --out DIR --result FILE [--spans FILE] [--check-lr]

`facetrec.cli` is imported before anything else, and the moment it is
done is reported as `imported_at` (time.perf_counter, a system-wide
monotonic clock on Linux), so the caller can time interpreter start plus
that import: setup_s. The run clock starts after it and stops when the
reports are written. With --spans the run is traced and the
method-property checks run; their time is subtracted from run_s. The
result is written to --result as JSON.
"""

import time

import facetrec.cli as cli

IMPORTED_AT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stdout  # noqa: E402


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", help="trace the run and write its spans here")
    p.add_argument("--check-lr", action="store_true", help="check every LR loss history")
    args = p.parse_args(argv)

    tracer = None
    if args.spans:
        import tracing

        tracer = tracing.install(check_lr_descent=args.check_lr)

    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    with open(os.devnull, "w", encoding="utf-8") as sink, redirect_stdout(sink):
        rc = cli.main(["run", "--config", args.config, "--out", args.out])
    t1 = time.perf_counter()
    cpu1 = cpu_seconds()

    result = {
        "rc": rc,
        "imported_at": IMPORTED_AT,
        "run_s": t1 - t0 - (tracer.paused_s if tracer else 0.0),
        "cpu_s": cpu1 - cpu0,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["problems"] = tracer.problems
        tracer.write_spans(args.spans)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
