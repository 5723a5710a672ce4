"""Which functions the traced run wraps, and the per-layer metrics.

Every wrapped call records a span (see :mod:`spans`).  A few wrappers also
count what passes through them, at the boundary where the work happens:
frames by PDU kind and repeated data frames at the media, the offer-to-pop
dwell of every receive buffer, and encoded frame sizes at the codec.

``LAYER_METRICS`` names every per-layer metric with its unit, which way is
better, and the end-to-end metric and workload it should move.
``BENCHMARK.json`` lists the same names.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Tuple

from spans import SpanRecorder, calls, mean_us, self_of, self_time_by_layer
from workloads import sum_counters

#: Frame census classes, in report order.
KINDS = ("data", "null", "heartbeat", "ret", "intergroup", "other")

#: name -> (unit, better, what it should move).
LAYER_METRICS: Dict[str, Tuple[str, str, str]] = {
    "sim.kernel.events_per_msg": ("count", "lower", "deliveries_per_s on flat-lan and sharded; absent on udp-loopback"),
    "sim.kernel.self_s": ("s", "lower", "deliveries_per_s on flat-lan and sharded; absent on udp-loopback"),
    "core.cluster.arrivals_per_msg": ("count", "lower", "deliveries_per_s on flat-lan"),
    "core.cluster.self_s": ("s", "lower", "deliveries_per_s on flat-lan"),
    "core.entity.on_pdu_data_us": ("us", "lower", "deliveries_per_s on flat-lan"),
    "core.entity.on_pdu_control_us": ("us", "lower", "deliveries_per_s on flat-lan"),
    "core.entity.on_tick_us": ("us", "lower", "deliveries_per_s on flat-lan; latency_p50_ms on udp-loopback"),
    "core.entity.submit_us": ("us", "lower", "deliveries_per_s on flat-lan; latency_p50_ms on udp-loopback"),
    "core.entity.self_s": ("s", "lower", "deliveries_per_s on flat-lan most; latency_p50_ms on udp-loopback"),
    "core.state.calls_per_msg": ("count", "lower", "deliveries_per_s on flat-lan; small on sharded"),
    "core.state.merge_us": ("us", "lower", "deliveries_per_s on flat-lan (16-entry vectors)"),
    "core.state.self_s": ("s", "lower", "deliveries_per_s on flat-lan; small on sharded (view 8)"),
    "core.logs.cpi_inserts_per_msg": ("count", "lower", "deliveries_per_s on flat-lossy"),
    "core.logs.cpi_scan_share": ("ratio", "lower", "deliveries_per_s on flat-lossy"),
    "core.logs.self_s": ("s", "lower", "deliveries_per_s on flat-lossy"),
    "core.retransmit.rets_per_msg": ("count", "lower", "latency_p99_ms on flat-lossy; about 0 on flat-lan"),
    "core.retransmit.resends_per_msg": ("count", "lower", "latency_p99_ms on flat-lossy; about 0 on flat-lan"),
    "core.retransmit.useful_resend_ratio": ("ratio", "higher", "latency_p99_ms on flat-lossy"),
    "core.retransmit.self_s": ("s", "lower", "latency_p99_ms on flat-lossy"),
    "core.groups.backbone_frames_per_msg": ("count", "lower", "latency_p50_ms and deliveries_per_s on sharded; 0 elsewhere"),
    "core.groups.backbone_resends": ("count", "lower", "latency_p50_ms on sharded; 0 elsewhere"),
    "core.groups.on_intergroup_us": ("us", "lower", "deliveries_per_s on sharded; 0 elsewhere"),
    "core.groups.self_s": ("s", "lower", "deliveries_per_s on sharded; 0 elsewhere"),
    **{
        f"net.network.copies_per_msg.{kind}": ("count", "lower", "copies_per_msg on every sim workload")
        for kind in KINDS
    },
    "net.network.bytes_per_msg": ("B", "lower", "copies_per_msg on every sim workload"),
    "net.network.self_s": ("s", "lower", "deliveries_per_s on every sim workload"),
    "net.buffers.offers_per_msg": ("count", "lower", "latency_p99_ms on sharded"),
    "net.buffers.overrun_ratio": ("ratio", "lower", "latency_p99_ms on sharded"),
    "net.buffers.wait_us": ("us", "lower", "latency_p99_ms on sharded"),
    "net.buffers.self_s": ("s", "lower", "latency_p99_ms on sharded"),
    "sim.trace.records_per_msg": ("count", "lower", "deliveries_per_s and peak_rss_mb on every sim workload"),
    "sim.trace.self_s": ("s", "lower", "deliveries_per_s and peak_rss_mb on every sim workload"),
    "core.codec.encode_us": ("us", "lower", "deliveries_per_s and latency_p50_ms on udp-loopback; 0 in the sim"),
    "core.codec.decode_us": ("us", "lower", "deliveries_per_s and latency_p50_ms on udp-loopback; 0 in the sim"),
    "core.codec.bytes_per_frame": ("B", "lower", "deliveries_per_s on udp-loopback; 0 in the sim"),
    "core.codec.calls_per_msg": ("count", "lower", "deliveries_per_s on udp-loopback; 0 in the sim"),
    "runtime.udp.datagrams_per_msg": ("count", "lower", "deliveries_per_s on udp-loopback"),
    "runtime.udp.broadcast_self_s": ("s", "lower", "deliveries_per_s on udp-loopback"),
    "runtime.udp.decode_errors": ("count", "lower", "delivered_share on udp-loopback"),
    "runtime.host.ticks_per_s": ("1/s", "lower", "latency_p50_ms on udp-loopback (timer-driven confirmation)"),
    "runtime.host.tick_us": ("us", "lower", "latency_p50_ms on udp-loopback"),
    **{
        f"census.{kind}_per_delivery": ("count", "lower", "copies_per_msg; frames per application delivery")
        for kind in KINDS
    },
    "census.control_share": ("ratio", "lower", "copies_per_msg on every workload"),
    "trace.unattributed_share": ("ratio", "lower", "none: timed-region share no wrapped layer covers"),
    "trace.overhead_ratio": ("ratio", "higher", "none: traced over untraced deliveries_per_s"),
}


def kind_of(pdu: Any) -> str:
    """Census class of a frame; a relay wrapper counts as what it carries."""
    inner = getattr(pdu, "frame", pdu)
    cls = type(inner).__name__
    if cls == "DataPdu":
        return "null" if inner.data is None else "data"
    if cls == "BatchPdu":
        return "data"
    return {
        "HeartbeatPdu": "heartbeat",
        "RetPdu": "ret",
        "InterGroupPdu": "intergroup",
    }.get(cls, "other")


def _resend_key(pdu: Any) -> Any:
    """Identity of a frame whose second transmission is a resend."""
    inner = getattr(pdu, "frame", pdu)
    cls = type(inner).__name__
    if cls == "DataPdu":
        return ("d", inner.cid, inner.src, inner.seq)
    if cls == "InterGroupPdu" and not inner.ack:
        return ("g", inner.origin_group, inner.gseq)
    return None


class Census:
    """Frame counts by kind, and repeats of frames already sent."""

    def __init__(self, tracer: SpanRecorder):
        self.tracer = tracer
        self._seen: set = set()

    def count(self, pdu: Any, copies: int) -> None:
        bump = self.tracer.bump
        bump("frames." + kind_of(pdu), copies)
        key = _resend_key(pdu)
        if key is None:
            return
        if key in self._seen:
            bump("resend_copies" if key[0] == "d" else "backbone_resends", copies)
        else:
            self._seen.add(key)


def _public_functions(cls: type) -> List[str]:
    skip = {"snapshot", "check_cache_consistency", "as_list"}
    return [
        name for name, value in vars(cls).items()
        if not name.startswith("_") and callable(value) and name not in skip
    ]


def instrument(tracer: SpanRecorder, clock: Callable[[], float]) -> None:
    """Wrap every traced boundary.  ``clock`` times receive-buffer dwell
    (the simulated clock in the simulator, wall time for UDP)."""
    from repro.core import cluster, entity, groups, logs, retransmit, state
    from repro.net import buffers, network
    from repro.runtime import host, udp
    from repro.sim import kernel, trace

    for cls, layer in (
        (state.KnowledgeState, "core.state"),
        (logs.CausalLog, "core.logs"),
        (logs.SendingLog, "core.logs"),
        (logs.ReceiptSublogs, "core.logs"),
        (logs.Log, "core.logs"),
        (retransmit.GapTracker, "core.retransmit"),
        (retransmit.RetransmitSuppressor, "core.retransmit"),
    ):
        for name in _public_functions(cls):
            tracer.wrap(cls, name, layer)

    tracer.wrap(kernel.Simulator, "run", "sim.kernel")
    tracer.wrap(kernel.Simulator, "schedule_at", "sim.kernel")
    tracer.wrap(trace.TraceLog, "record", "sim.trace")

    host_cls = cluster.EntityHost
    for name in ("on_arrival", "_complete", "_on_tick", "submit", "_on_deliver",
                 "_send", "_unicast"):
        tracer.wrap(host_cls, name, "core.cluster")
    for name in ("submit", "run_for", "run_until_quiescent"):
        tracer.wrap(cluster.Cluster, name, "core.cluster")
        tracer.wrap(groups.HierarchicalCluster, name, "core.groups")
    for name in ("on_intergroup", "_on_backbone", "_on_active_delivery",
                 "_forward", "_drain", "_send_ack", "_on_ret", "_check_bridge"):
        tracer.wrap(groups.GroupBridge, name, "core.groups")

    engine = entity.COEntity
    data_span = tracer.span("core.entity:on_pdu_data", engine.on_pdu)
    control_span = tracer.span("core.entity:on_pdu_control", engine.on_pdu)

    def on_pdu(self: Any, pdu: Any) -> None:
        if getattr(pdu, "is_control", False):
            control_span(self, pdu)
        else:
            data_span(self, pdu)

    tracer.patch(engine, "on_pdu", on_pdu)
    tracer.wrap(engine, "on_tick", "core.entity")
    tracer.wrap(engine, "submit", "core.entity")

    census = Census(tracer)
    mc = network.MCNetwork
    mc_broadcast = tracer.span("net.network:broadcast", mc.broadcast)
    mc_unicast = tracer.span("net.network:unicast", mc.unicast)

    def broadcast(self: Any, src: int, pdu: Any) -> None:
        mc_broadcast(self, src, pdu)
        census.count(pdu, self.n - 1)

    def unicast(self: Any, src: int, dst: int, pdu: Any) -> None:
        mc_unicast(self, src, dst, pdu)
        census.count(pdu, 1)

    tracer.patch(mc, "broadcast", broadcast)
    tracer.patch(mc, "unicast", unicast)
    tracer.wrap(mc, "_arrive", "net.network")

    rb = buffers.ReceiveBuffer
    queued: Dict[int, Deque[float]] = {}
    offer_span = tracer.span("net.buffers:offer", rb.offer)
    pop_span = tracer.span("net.buffers:pop", rb.pop)
    bump = tracer.bump

    def offer(self: Any, pdu: Any) -> bool:
        accepted = offer_span(self, pdu)
        if accepted:
            queued.setdefault(id(self), deque()).append(clock())
        return accepted

    def pop(self: Any) -> Any:
        pdu = pop_span(self)
        bump("buffer_wait_s", clock() - queued[id(self)].popleft())
        bump("buffer_pops")
        return pdu

    tracer.patch(rb, "offer", offer)
    tracer.patch(rb, "pop", pop)

    # The UDP transport imports the codec functions by name, so they are
    # wrapped where it looks them up.
    encode_span = tracer.span("core.codec:encode_pdu_view", udp.encode_pdu_view)

    def encode_pdu_view(pdu: Any) -> Any:
        view = encode_span(pdu)
        bump("encoded_bytes", len(view))
        return view

    tracer.patch(udp, "encode_pdu_view", encode_pdu_view)
    tracer.patch(udp, "decode_pdu_safe",
                 tracer.span("core.codec:decode_pdu_safe", udp.decode_pdu_safe))

    ut = udp.UdpTransport
    ut_broadcast = tracer.span("runtime.udp:broadcast", ut.broadcast)
    ut_unicast = tracer.span("runtime.udp:unicast", ut.unicast)

    def udp_broadcast(self: Any, src: int, pdu: Any) -> None:
        ut_broadcast(self, src, pdu)
        census.count(pdu, len(self.addresses) - 1)

    def udp_unicast(self: Any, src: int, dst: int, pdu: Any) -> None:
        ut_unicast(self, src, dst, pdu)
        census.count(pdu, 1)

    tracer.patch(ut, "broadcast", udp_broadcast)
    tracer.patch(ut, "unicast", udp_unicast)
    tracer.wrap(ut, "_on_datagram", "runtime.udp")

    ah = host.AsyncEntityHost
    for name in ("submit", "_on_deliver", "_send", "_unicast", "sample_gauges"):
        tracer.wrap(ah, name, "runtime.host")
    tracer.patch(ah, "_on_pdu", tracer.async_span("runtime.host:_on_pdu", ah._on_pdu))


class _Totals:
    """Counters of a traced pass summed over its trials."""

    def __init__(self, runs: List[Any]):
        self.runtime = runs[0].runtime
        self.messages = sum(r.messages for r in runs)
        self.deliveries = sum(r.deliveries for r in runs)
        self.wall_s = sum(r.wall_s for r in runs)
        for name in ("sim_events", "backbone_copies", "bytes_sent",
                     "datagrams_sent", "decode_errors"):
            setattr(self, name, sum(getattr(r, name) for r in runs))
        self.engine_counters = sum_counters([r.engine_counters for r in runs])
        self.buffer_stats = sum_counters([r.buffer_stats for r in runs])


def layer_metrics(
    tracer: SpanRecorder,
    runs: List[Any],
    untraced_deliveries_per_s: float,
) -> Dict[str, float]:
    """Every ``LAYER_METRICS`` entry for one traced pass."""
    run = _Totals(runs)
    summary = tracer.summarize()
    layers = self_time_by_layer(summary)
    counts = tracer.counts
    msgs = max(1, run.messages)
    deliveries = max(1, run.deliveries)
    engine = run.engine_counters
    buffer = run.buffer_stats
    frames = {kind: counts.get("frames." + kind, 0) for kind in KINDS}
    all_frames = sum(frames.values())
    resend_copies = counts.get("resend_copies", 0)
    codec_calls = calls(summary, "core.codec:")
    encodes = summary.get("core.codec:encode_pdu_view", {}).get("calls", 0)
    root = summary.get("bench:timed", {})
    m: Dict[str, float] = {
        "sim.kernel.events_per_msg": run.sim_events / msgs,
        "sim.kernel.self_s": layers.get("sim.kernel", 0.0),
        "core.cluster.arrivals_per_msg":
            summary.get("core.cluster:on_arrival", {}).get("calls", 0) / msgs,
        "core.cluster.self_s": layers.get("core.cluster", 0.0),
        "core.entity.on_pdu_data_us": mean_us(summary, "core.entity:on_pdu_data"),
        "core.entity.on_pdu_control_us": mean_us(summary, "core.entity:on_pdu_control"),
        "core.entity.on_tick_us": mean_us(summary, "core.entity:on_tick"),
        "core.entity.submit_us": mean_us(summary, "core.entity:submit"),
        "core.entity.self_s": layers.get("core.entity", 0.0),
        "core.state.calls_per_msg": calls(summary, "core.state:") / msgs,
        "core.state.merge_us": mean_us(
            summary, "core.state:merge_al", "core.state:merge_al_fold",
            "core.state:merge_pal"),
        "core.state.self_s": layers.get("core.state", 0.0),
        "core.logs.cpi_inserts_per_msg":
            summary.get("core.logs:insert", {}).get("calls", 0) / msgs,
        "core.logs.cpi_scan_share": engine.get("cpi_scan_inserts", 0) / max(
            1, engine.get("cpi_scan_inserts", 0) + engine.get("cpi_fast_appends", 0)),
        "core.logs.self_s": layers.get("core.logs", 0.0),
        "core.retransmit.rets_per_msg": engine.get("sent_rets", 0) / msgs,
        "core.retransmit.resends_per_msg": engine.get("retransmissions", 0) / msgs,
        "core.retransmit.useful_resend_ratio": (
            max(0.0, resend_copies - engine.get("duplicates", 0)) / resend_copies
            if resend_copies else 0.0),
        "core.retransmit.self_s": layers.get("core.retransmit", 0.0),
        "core.groups.backbone_frames_per_msg": run.backbone_copies / msgs,
        "core.groups.backbone_resends": counts.get("backbone_resends", 0),
        "core.groups.on_intergroup_us": mean_us(summary, "core.groups:on_intergroup"),
        "core.groups.self_s": layers.get("core.groups", 0.0),
        **{f"net.network.copies_per_msg.{k}": frames[k] / msgs for k in KINDS},
        "net.network.bytes_per_msg": run.bytes_sent / msgs,
        "net.network.self_s": layers.get("net.network", 0.0),
        "net.buffers.offers_per_msg": buffer.get("offered", 0) / msgs,
        "net.buffers.overrun_ratio":
            buffer.get("overruns", 0) / max(1, buffer.get("offered", 0)),
        "net.buffers.wait_us":
            counts.get("buffer_wait_s", 0.0) / max(1, counts.get("buffer_pops", 0)) * 1e6,
        "net.buffers.self_s": layers.get("net.buffers", 0.0),
        "sim.trace.records_per_msg":
            summary.get("sim.trace:record", {}).get("calls", 0) / msgs,
        "sim.trace.self_s": layers.get("sim.trace", 0.0),
        "core.codec.encode_us": mean_us(summary, "core.codec:encode_pdu_view"),
        "core.codec.decode_us": mean_us(summary, "core.codec:decode_pdu_safe"),
        "core.codec.bytes_per_frame":
            counts.get("encoded_bytes", 0) / encodes if encodes else 0.0,
        "core.codec.calls_per_msg": codec_calls / msgs,
        "runtime.udp.datagrams_per_msg": run.datagrams_sent / msgs,
        "runtime.udp.broadcast_self_s": self_of(summary, "runtime.udp:broadcast"),
        "runtime.udp.decode_errors": run.decode_errors,
        "runtime.host.ticks_per_s": (
            summary.get("core.entity:on_tick", {}).get("calls", 0) / run.wall_s
            if run.runtime == "udp" else 0.0),
        "runtime.host.tick_us": (
            mean_us(summary, "core.entity:on_tick") if run.runtime == "udp" else 0.0),
        **{f"census.{k}_per_delivery": frames[k] / deliveries for k in KINDS},
        "census.control_share": (
            (all_frames - frames["data"]) / all_frames if all_frames else 0.0),
        "trace.unattributed_share": (
            root.get("self_s", 0.0) / root["total_s"] if root.get("total_s") else 0.0),
        "trace.overhead_ratio": (
            run.deliveries / run.wall_s / untraced_deliveries_per_s
            if untraced_deliveries_per_s else 0.0),
    }
    if set(m) != set(LAYER_METRICS):
        raise RuntimeError(f"metric table mismatch: {set(m) ^ set(LAYER_METRICS)}")
    return m
