"""Regression tests for the shared quiescence rule (docs/PROTOCOL.md §7).

``run_until_quiescent`` must not return while work is still scheduled
before ``max_time`` — a later submission, a fault, a bridge retransmit —
and it must decide from cluster state alone, so the choice of trace log
cannot change when a run stops.
"""

import pytest

from repro.core.cluster import build_cluster
from repro.core.config import ProtocolConfig
from repro.core.groups import HierarchicalCluster, build_hierarchical_cluster
from repro.sim.trace import FlightRecorder, TraceLog


def _flat_with_silence(trace=None):
    """n=4: one message now, a second one after 0.5 s of silence."""
    cluster = build_cluster(4, trace=trace)
    cluster.submit(0, "first")
    cluster.sim.schedule(0.5, cluster.submit, 1, "second")
    return cluster


def _delivered_data(cluster):
    return [[m.data for m in cluster.delivered(i)] for i in range(cluster.n)]


def test_flat_run_waits_for_a_submission_after_silence():
    cluster = _flat_with_silence()
    stop = cluster.run_until_quiescent(max_time=10.0)
    assert stop > 0.5
    for data in _delivered_data(cluster):
        assert sorted(data) == ["first", "second"]


def test_sharded_run_waits_for_paced_submissions():
    # n=16 in two groups of 8, each member submitting every 16 ms: the
    # structure is briefly quiet between submissions, which must not end
    # the run while the rest of the schedule is still pending.
    cluster = build_hierarchical_cluster(16, ProtocolConfig(group_size=8))
    assert isinstance(cluster, HierarchicalCluster)
    rounds = 20
    for r in range(rounds):
        for member in range(cluster.n):
            cluster.sim.schedule(
                0.016 * (r + 1), cluster.submit, member, (member, r)
            )
    cluster.run_until_quiescent(max_time=30.0)
    expected = sorted((m, r) for m in range(cluster.n) for r in range(rounds))
    for i in range(cluster.n):
        assert sorted(m.data for m in cluster.delivered(i)) == expected


def test_event_after_max_time_does_not_hold_the_run():
    cluster = _flat_with_silence()
    cluster.sim.schedule(20.0, cluster.submit, 2, "too late")
    stop = cluster.run_until_quiescent(max_time=5.0)
    assert 0.5 < stop < 5.0
    for data in _delivered_data(cluster):
        assert sorted(data) == ["first", "second"]


@pytest.mark.parametrize(
    "make_trace",
    [lambda: TraceLog(enabled=False), lambda: FlightRecorder(capacity=16)],
    ids=["disabled", "flight-recorder-16"],
)
def test_trace_log_choice_does_not_change_when_a_run_stops(make_trace):
    reference = _flat_with_silence()
    reference_stop = reference.run_until_quiescent(max_time=10.0)
    other = _flat_with_silence(trace=make_trace())
    assert other.run_until_quiescent(max_time=10.0) == reference_stop
    assert _delivered_data(other) == _delivered_data(reference)
    assert all(len(data) == 2 for data in _delivered_data(other))
