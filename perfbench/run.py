"""The repository's benchmark: one command, four workloads.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout.  Every input is generated from
``--seed``; the program is driven only through the ``repro`` package
under ``src/``.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0``
the metrics are the end-to-end metrics of ``BENCHMARK.json``, measured
untraced; with ``--trace 1`` they are its per-layer metrics, taken from
spans around the benchmark's calls into each layer.  The line before it
carries the details: the environment stamp, the workload's own figures
under the names the workloads were specified with (``read_p99_ms``,
``write_ack_p50_ms``, ``build_dw_s``, ...), and the check results.

Workloads (``BENCHMARK.json`` lists the two gated ones and why each
exists; the two HTTP workloads are not among them because their
run-to-run spread on a noisy 2-core host exceeds the largest regression
bound allowed — they stay runnable, and every traced run measures their
layers):

* ``build`` — a ~1,000-movie synthetic TMDB database through extraction,
  initialisation, the RN and RO solves, DeepWalk, store save and index
  build;
* ``http-read`` — two closed-loop HTTP readers against two fronts over a
  replicated tier (primary + two followers);
* ``http-mixed`` — the same deployment with one closed-loop reader and
  one open-loop writer (a churn delta every 2 s, floored reads between);
* ``bulk-scan`` — two threads sending 64-query batches to a two-shard
  exact tier over 5x10^4 values.

Exit codes: 0 when every check passed, 1 when a check failed (the result
line still prints, with ``"correct": false``), 2 when the benchmark
cannot run here at all (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("build", "http-read", "http-mixed", "bulk-scan")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_workload(name: str, seed: int, seconds: float, workdir: Path, tracer):
    if name == "build":
        from build import build

        return build(seed, seconds, workdir, tracer)
    import serving

    return {
        "http-read": serving.http_read,
        "http-mixed": serving.http_mixed,
        "bulk-scan": serving.bulk_scan,
    }[name](seed, seconds, workdir, tracer)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no program under {ROOT / 'src' / 'repro'}; run it "
            "from the root of a checkout of the repository",
            file=sys.stderr,
        )
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    from harness import PeakRSS, Tracer, reap_survivors, stamp

    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    began = time.perf_counter()
    try:
        with PeakRSS() as rss:
            if args.trace:
                from layers import traced_run

                outcome = traced_run(
                    args.workload, args.seed, args.seconds, workdir,
                    run_workload,
                )
            else:
                outcome = run_workload(
                    args.workload, args.seed, args.seconds, workdir,
                    Tracer(False),
                )
                attempted = max(outcome.attempted, 1)
                outcome.metrics.update({
                    "setup_s": (outcome.setup_s, "s"),
                    "peak_rss_mb": (rss.megabytes, "MB"),
                    "ok_frac": (
                        (attempted - outcome.failed) / attempted, "fraction"
                    ),
                })
    finally:
        survivors = reap_survivors()
        shutil.rmtree(workdir, ignore_errors=True)
    if survivors:
        outcome.violations.append(
            f"{len(survivors)} forked processes outlived the workload "
            f"(pids {survivors}); killed"
        )
    correct = not outcome.violations
    detail = {
        "workload": args.workload,
        "stamp": stamp(ROOT, args.seed),
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - began,
        "peak_rss_processes": rss.processes,
        "violations": outcome.violations,
        **outcome.detail,
    }
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
