"""The CO benchmark: one workload, one seed, one JSON result line.

Usage (from the repository root)::

    python3 cobench/run.py --workload flat-lan --seed 1 --seconds 10 --trace 0

``--trace 0`` runs the workload with tracing off and reports the end-to-end
metrics, medians over the run's trials.  ``--trace 1`` runs the first
trial's inputs twice, once plain and once with spans around each layer's
functions, and reports the per-layer metrics (see ``layers.py``).  Every run checks its deliveries
with the linear checker in ``check.py`` after the clock stops; any order
violation makes the run fail (``correct`` is false, exit code 1).

The last line of standard output is the result object; the line before it
is a full report with the environment stamp, sample counts and the
correctness verdict.  Spans of a traced run are written to
``.cobench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics: name -> unit.
END_TO_END = {
    "deliveries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
    "copies_per_msg": "frames",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "delivered_share": "ratio",
}


def environment(seed: int) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


def end_to_end(runs, checks):
    """End-to-end metrics of one run: medians over its trials, except the
    delivered share (pooled) and the process's peak memory."""
    from workloads import latency_samples, median, percentile

    p50, p99, samples = [], [], 0
    for run in runs:
        lat = sorted(latency_samples(run))
        samples += len(lat)
        p50.append(percentile(lat, 0.50) * 1e3)
        p99.append(percentile(lat, 0.99) * 1e3)
    messages = sum(run.messages for run in runs)
    incomplete = sum(check.incomplete_messages for check in checks)
    return {
        "deliveries_per_s": median([r.deliveries / r.wall_s for r in runs]),
        "latency_p50_ms": median(p50),
        "latency_p99_ms": median(p99),
        "copies_per_msg": median([r.copies / max(1, r.messages) for r in runs]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": median([s for run in runs for s in run.setup_s]),
        "delivered_share": (messages - incomplete) / max(1, messages),
    }, samples


def deliveries_per_s(runs) -> float:
    return sum(run.deliveries for run in runs) / sum(run.wall_s for run in runs)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"cobench: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from check import check_run
    from workloads import TRIALS, WORKLOADS, run_workload

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"cobench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    report = {"workload": workload.name, "env": environment(args.seed),
              "trace": args.trace}
    if args.trace:
        from layers import LAYER_METRICS, layer_metrics
        from spans import SpanRecorder

        # One trial of the plain run's size, once plain and once traced.
        seconds = args.seconds / TRIALS
        plain = run_workload(workload, args.seed, seconds, setup_repeats=1, trials=1)
        tracer = SpanRecorder()
        runs = run_workload(workload, args.seed, seconds, tracer,
                            setup_repeats=1, trials=1)
        values = layer_metrics(tracer, runs, deliveries_per_s(plain))
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        span_file = os.path.join(ROOT, ".cobench_out", f"spans-{workload.name}.bin")
        tracer.dump(span_file)
        report["spans"] = {"count": len(tracer.start), "file": span_file}
        checks = [check_run(r.src, r.stamp, r.delivered) for r in plain]
    else:
        runs = run_workload(workload, args.seed, args.seconds)
        checks = []
    checks += [check_run(r.src, r.stamp, r.delivered) for r in runs]
    if not args.trace:
        values, samples = end_to_end(runs, checks)
        units = END_TO_END
        report["latency_samples"] = samples

    correct = all(c.order_ok for c in checks)
    report.update({
        "trials": [
            {"messages": r.messages, "deliveries": r.deliveries,
             "wall_s": r.wall_s, "quiesced": r.quiesced,
             "overruns": r.buffer_stats.get("overruns", 0),
             "rets": r.engine_counters.get("sent_rets", 0)}
            for r in runs
        ],
        "check": [c.as_dict() for c in checks],
    })
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.messages for r in runs),
        "failed": sum(c.incomplete_messages for c in checks[-len(runs):]),
        "metrics": {
            name: {"value": values[name], "unit": units[name]} for name in units
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
