"""Self-test of the benchmark's correctness check (``check.py``).

1. On one short run of each simulator workload, the linear check and the
   program's own oracle, ``repro.ordering.checker.verify_run``, must both
   accept the run and agree on every member's delivery count.
2. A planted duplicate and a planted causal inversion must both be
   rejected by the linear check.

Usage (from the repository root)::

    python3 cobench/selftest.py

Exits 0 when every case passes.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from check import check_run, dependencies  # noqa: E402
from workloads import WORKLOADS, run_workload  # noqa: E402

#: ``--seconds`` of each cross-checked run: short, since the oracle is
#: quadratic in the number of messages.
SHORT_SECONDS = 1.0
SEED = 7


def oracle_verdict(run) -> Tuple[bool, List[int]]:
    """``verify_run`` over the run's trace(s): (ok, deliveries per member)."""
    from repro.ordering.checker import verify_run

    cluster = run.cluster
    groups = getattr(cluster, "groups", None)
    if groups is None:
        report = verify_run(cluster.trace, cluster.n)
        return report.ok, report.deliveries
    # Each subgroup's trace holds its own submissions, bridge
    # re-injections included, under view-local indices.
    ok, deliveries = True, []
    for group in groups:
        report = verify_run(group.trace, group.n)
        ok = ok and report.ok
        deliveries.extend(report.deliveries)
    return ok, deliveries


def plant_duplicate(delivered: List[List[int]]) -> List[List[int]]:
    planted = [list(log) for log in delivered]
    log = planted[0]
    log.insert(len(log) // 2, log[len(log) // 3])
    return planted


def plant_inversion(
    src: List[int], stamp: List[int], delivered: List[List[int]],
) -> Optional[List[List[int]]]:
    """Move one message ahead of a message its sender had delivered before
    submitting it (from another source), keeping its own source's order."""
    n = len(delivered)
    deps = dependencies(src, stamp, delivered, n)
    by_source: List[List[int]] = [[] for _ in range(n)]
    for m, s in enumerate(src):
        by_source[s].append(m)
    log = delivered[0]
    pos = {m: p for p, m in enumerate(log)}
    for b in log:
        own = by_source[src[b]]
        rank = own.index(b)
        before = pos[own[rank - 1]] if rank else -1
        for k, count in deps[b]:
            if k == src[b] or count == 0:
                continue
            a = by_source[k][count - 1]
            if before < pos[a] < pos[b]:
                planted = [list(x) for x in delivered]
                moved = planted[0]
                moved.pop(pos[b])
                moved.insert(pos[a], b)
                return planted
    return None


def main() -> int:
    failures = 0

    def verdict(name: str, passed: bool, detail: str = "") -> None:
        nonlocal failures
        failures += not passed
        print(f"{'ok  ' if passed else 'FAIL'} {name} {detail}".rstrip())

    sample = None
    for w in WORKLOADS.values():
        if w.runtime != "sim":
            continue
        run = run_workload(w, SEED, SHORT_SECONDS, setup_repeats=1, trials=1,
                           keep_cluster=True)[0]
        mine = check_run(run.src, run.stamp, run.delivered)
        ok, deliveries = oracle_verdict(run)
        counts = [len(log) for log in run.delivered]
        verdict(
            f"{w.name}: linear check and verify_run agree",
            mine.ok and ok and counts == deliveries,
            f"({run.messages} messages; linear ok={mine.ok}, oracle ok={ok})",
        )
        if sample is None:
            sample = run

    duplicate = check_run(sample.src, sample.stamp, plant_duplicate(sample.delivered))
    verdict("planted duplicate rejected", duplicate.fifo_violations > 0
            and not duplicate.order_ok, str(duplicate.examples[:1]))
    inverted = plant_inversion(sample.src, sample.stamp, sample.delivered)
    verdict("causal inversion planted", inverted is not None)
    if inverted is not None:
        report = check_run(sample.src, sample.stamp, inverted)
        verdict("planted causal inversion rejected",
                report.causal_violations > 0 and report.fifo_violations == 0,
                str(report.examples[:1]))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
