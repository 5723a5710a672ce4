"""Unit tests for the MC broadcast network."""

from dataclasses import dataclass

import pytest

from repro.net.loss import BernoulliLoss, ScriptedLoss
from repro.net.network import MCNetwork
from repro.net.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceLog


@dataclass(frozen=True)
class Pdu:
    src: int
    seq: int
    is_control: bool = False

    def wire_size(self) -> int:
        return 10


def build(n=3, delay=1.0, loss=None):
    sim = Simulator()
    trace = TraceLog()
    net = MCNetwork(sim, trace, Topology.uniform(n, delay), loss=loss)
    inboxes = [[] for _ in range(n)]
    for i in range(n):
        net.attach(i, inboxes[i].append)
    return sim, net, inboxes, trace


def test_broadcast_reaches_all_but_sender():
    sim, net, inboxes, _ = build()
    pdu = Pdu(0, 1)
    net.broadcast(0, pdu)
    sim.run()
    assert inboxes[0] == []
    assert inboxes[1] == [pdu]
    assert inboxes[2] == [pdu]


def test_delivery_honours_propagation_delay():
    sim, net, inboxes, _ = build(delay=2.5)
    arrival_times = []
    net._sinks[1] = lambda pdu: arrival_times.append(sim.now)
    net.broadcast(0, Pdu(0, 1))
    sim.run()
    assert arrival_times == [2.5]


def test_per_pair_fifo_order():
    sim, net, inboxes, _ = build()
    first, second = Pdu(0, 1), Pdu(0, 2)
    net.broadcast(0, first)
    net.broadcast(0, second)
    sim.run()
    assert inboxes[1] == [first, second]


def test_unicast_reaches_only_target():
    sim, net, inboxes, _ = build()
    net.unicast(0, 2, Pdu(0, 1))
    sim.run()
    assert inboxes[1] == []
    assert len(inboxes[2]) == 1


def test_unicast_records_trace_event():
    sim, net, _, trace = build()
    net.unicast(0, 2, Pdu(0, 7))
    sim.run()
    assert trace.count("unicast") == 1
    rec = trace.select(category="unicast")[0]
    assert rec.entity == 0
    assert rec.get("dst") == 2
    assert rec.get("kind") == "Pdu"
    assert rec.get("src") == 0
    assert rec.get("seq") == 7


def test_unicast_trace_matches_stats_count():
    sim, net, _, trace = build()
    net.unicast(0, 1, Pdu(0, 1))
    net.unicast(2, 1, Pdu(2, 1, is_control=True))
    sim.run()
    assert net.stats.unicasts == 2
    assert trace.count("unicast") == net.stats.unicasts


def test_unicast_to_self_rejected():
    _, net, _, _ = build()
    with pytest.raises(ValueError):
        net.unicast(0, 0, Pdu(0, 1))


def test_attach_validation():
    sim = Simulator()
    net = MCNetwork(sim, TraceLog(), Topology.uniform(2, 1.0))
    net.attach(0, lambda p: None)
    with pytest.raises(ValueError):
        net.attach(0, lambda p: None)  # duplicate
    with pytest.raises(ValueError):
        net.attach(5, lambda p: None)  # out of range


def test_loss_model_drops_copies():
    sim, net, inboxes, trace = build(loss=BernoulliLoss(1.0))
    net.broadcast(0, Pdu(0, 1))
    sim.run()
    assert inboxes[1] == [] and inboxes[2] == []
    assert net.stats.copies_dropped == 2
    assert trace.count("drop") == 2


def test_scripted_loss_targets_one_destination():
    loss = ScriptedLoss([(0, 1, 1)])
    sim, net, inboxes, _ = build(loss=loss)
    net.broadcast(0, Pdu(0, 1))
    sim.run()
    assert inboxes[1] == []
    assert len(inboxes[2]) == 1


def test_stats_accounting():
    sim, net, _, _ = build()
    net.broadcast(0, Pdu(0, 1))
    net.broadcast(1, Pdu(1, 1, is_control=True))
    sim.run()
    assert net.stats.broadcasts == 2
    assert net.stats.data_pdus == 1
    assert net.stats.control_pdus == 1
    assert net.stats.copies_sent == 4
    assert net.stats.copies_delivered == 4
    assert net.stats.bytes_sent == 40


def test_in_flight_counter():
    sim, net, _, _ = build()
    net.broadcast(0, Pdu(0, 1))
    assert net.in_flight == 2
    sim.run()
    assert net.in_flight == 0


def test_max_delay_exposed():
    _, net, _, _ = build(delay=0.25)
    assert net.max_delay == 0.25


def test_reliable_network_never_drops():
    sim = Simulator()
    net = MCNetwork(sim, TraceLog(), Topology.uniform(3, 1.0), loss=None)
    inbox = []
    net.attach(0, lambda p: None)
    net.attach(1, inbox.append)
    net.attach(2, lambda p: None)
    for k in range(50):
        net.broadcast(0, Pdu(0, k + 1))
    sim.run()
    assert len(inbox) == 50
    assert net.stats.copies_dropped == 0


def test_arrival_at_unattached_entity_raises():
    sim = Simulator()
    net = MCNetwork(sim, TraceLog(), Topology.uniform(2, 1.0))
    net.attach(0, lambda p: None)
    net.broadcast(0, Pdu(0, 1))
    with pytest.raises(RuntimeError):
        sim.run()
