"""The benchmark's workloads and the code that runs them.

Simulator workloads are open loop: every member is an independent user
submitting on a Poisson schedule drawn from the seed, in simulated time, so
the generator is never late.  Each trial schedules one window of
submissions at a time and runs the cluster with ``run_for``; the last
window is left to ``run_until_quiescent``, the call a user makes to let a
run finish.  The loopback-UDP workload is closed loop: each member keeps a
fixed number of its own messages outstanding and submits the next one when
its own application delivers one of them.

A run is split into equal trials, each on a freshly built cluster with its
own sub-seed; the reported figures are medians over the trials.  Work per
run is fixed by the seed and ``--seconds``: each workload turns its run
length into an amount of simulated schedule (or a message count for UDP)
sized so one run takes about that long on a loaded 2-core machine.  A
faster program finishes the same work sooner.
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import math
import random
import socket
import statistics
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from spans import SpanRecorder

#: Builds (sim) or binds-and-starts (UDP) in a run's first trial; later
#: trials build once.  ``setup_s`` is the median over all of them.
SETUP_REPEATS = 7
#: Trials per run: medians over five fresh clusters ride out a slow moment
#: of a shared machine that one long trial would absorb whole.
TRIALS = 5
#: Application payload bytes per message.
PAYLOAD = 512


@dataclass(frozen=True)
class Workload:
    """One workload; BENCHMARK.json and README.md say why each exists."""

    name: str
    runtime: str            # "sim" or "udp"
    n: int
    #: sim: submissions per second per member (simulated time).
    rate: float = 0.0
    #: sim: simulated seconds of schedule per second of ``--seconds``.
    sim_per_second: float = 0.0
    loss: float = 0.0
    group_size: Optional[int] = None
    #: udp: messages per second of ``--seconds``, and per-member window.
    msgs_per_second: int = 0
    outstanding: int = 0


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload(
            "flat-lan",
            runtime="sim", n=16, rate=250.0, sim_per_second=0.1,
        ),
        Workload(
            "flat-lossy",
            runtime="sim", n=8, rate=500.0, sim_per_second=0.2, loss=0.05,
        ),
        Workload(
            "sharded",
            runtime="sim", n=64, rate=31.25, sim_per_second=0.025,
            group_size=8,
        ),
        Workload(
            "udp-loopback",
            runtime="udp", n=4, msgs_per_second=900, outstanding=1,
        ),
    )
}


@dataclass
class RunOutcome:
    """What one trial recorded, gathered after its clock stopped."""

    workload: str
    runtime: str
    members: int
    wall_s: float
    setup_s: List[float]
    #: Per message: submitting member, due time, sender's delivered count.
    src: List[int]
    due: List[float]
    stamp: List[int]
    #: Per member: delivered message ids and their delivery times.
    delivered: List[List[int]]
    delivered_at: List[List[float]]
    copies: int
    quiesced: bool
    engine_counters: Dict[str, int] = field(default_factory=dict)
    buffer_stats: Dict[str, int] = field(default_factory=dict)
    sim_events: int = 0
    backbone_copies: int = 0
    bytes_sent: int = 0
    datagrams_sent: int = 0
    decode_errors: int = 0
    #: The simulated cluster, kept only when asked for (checks that need
    #: its traces); otherwise it is released with the trial.
    cluster: Any = None

    @property
    def messages(self) -> int:
        return len(self.src)

    @property
    def deliveries(self) -> int:
        return sum(len(log) for log in self.delivered)


def _derived_rng(seed: int, name: str) -> random.Random:
    digest = hashlib.sha256(f"cobench:{seed}:{name}".encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def poisson_schedule(
    n: int, rate: float, duration: float, seed: int,
) -> Tuple[List[float], List[int]]:
    """Merged per-member Poisson arrivals in ``[0, duration)``: (times, srcs)."""
    arrivals: List[Tuple[float, int]] = []
    for i in range(n):
        rng = _derived_rng(seed, f"arrivals-{i}")
        t = rng.expovariate(rate)
        while t < duration:
            arrivals.append((t, i))
            t += rng.expovariate(rate)
    arrivals.sort()
    return [t for t, _ in arrivals], [i for _, i in arrivals]


def sum_counters(dicts: List[Dict[str, Any]]) -> Dict[str, int]:
    """Key-wise sum of numeric counters."""
    total: Dict[str, int] = {}
    for d in dicts:
        for key, value in d.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] = total.get(key, 0) + value
    return total


def _message_id(data: Any) -> int:
    """The benchmark's message id inside a delivered payload."""
    payload = getattr(data, "payload", data)  # unwrap a bridge envelope
    if isinstance(payload, (bytes, bytearray, memoryview)):
        return int(bytes(payload[:10]))
    return payload


def _collect(hosts: List[Any]) -> Tuple[List[List[int]], List[List[float]]]:
    ids, times = [], []
    for host in hosts:
        ids.append([_message_id(d.data) for d in host.delivered])
        times.append([d.delivered_at for d in host.delivered])
    return ids, times


def run_workload(
    w: Workload, seed: int, seconds: float,
    tracer: Optional[SpanRecorder] = None,
    setup_repeats: int = SETUP_REPEATS,
    trials: Optional[int] = None,
    keep_cluster: bool = False,
) -> List[RunOutcome]:
    """Run ``seconds`` worth of ``w`` as equal trials (``TRIALS`` unless
    given), one outcome each.  Pass a tracer to record spans meanwhile."""
    trials = trials or TRIALS
    current: List[Any] = [None]
    if tracer is not None:
        from layers import instrument
        clock = perf_counter if w.runtime == "udp" else lambda: current[0].sim.now
        instrument(tracer, clock)
    outcomes = []
    try:
        for t in range(trials):
            trial_seed = seed if t == 0 else _sub_seed(seed, t)
            repeats = setup_repeats if t == 0 else 1
            if w.runtime == "udp":
                quota = max(1, int(w.msgs_per_second * seconds / trials) // w.n)
                outcome = asyncio.run(
                    _udp_trial(w, trial_seed, quota, tracer, repeats))
            else:
                length = w.sim_per_second * seconds / trials
                outcome = _sim_trial(w, trial_seed, length, tracer, repeats,
                                     current, keep_cluster)
            outcomes.append(outcome)
    finally:
        if tracer is not None:
            tracer.restore()
    return outcomes


def _sub_seed(seed: int, trial: int) -> int:
    return _derived_rng(seed, f"trial-{trial}").getrandbits(32)


# ----------------------------------------------------------------------
# Simulator workloads
# ----------------------------------------------------------------------
#: Simulated seconds of submissions scheduled per ``run_for`` call.
WINDOW = 0.01
#: Simulated seconds ``run_until_quiescent`` may take after the last
#: window before the run counts what is still undelivered as failed.
DRAIN_LIMIT = 2.0


def _build_sim(w: Workload, seed: int) -> Any:
    from repro.core.cluster import build_cluster
    from repro.core.config import ProtocolConfig
    from repro.core.groups import build_hierarchical_cluster
    from repro.net.loss import BernoulliLoss
    from repro.sim.rng import RngRegistry

    rngs = RngRegistry(seed)
    loss = BernoulliLoss(w.loss, protect_control=False) if w.loss else None
    if w.group_size:
        config = ProtocolConfig(group_size=w.group_size)
        return build_hierarchical_cluster(w.n, config, rngs=rngs, loss=loss)
    return build_cluster(w.n, ProtocolConfig(), loss=loss, rngs=rngs)


def _sim_trial(
    w: Workload, seed: int, length: float,
    tracer: Optional[SpanRecorder], setup_repeats: int, current: List[Any],
    keep_cluster: bool,
) -> RunOutcome:
    due, src = poisson_schedule(w.n, w.rate, length, seed)
    total = len(due)
    stamp = [0] * total
    setups = []
    cluster = None
    for _ in range(setup_repeats):
        cluster = current[0] = None
        gc.collect()
        started = perf_counter()
        cluster = _build_sim(w, seed)
        setups.append(perf_counter() - started)
    current[0] = cluster
    sim = cluster.sim
    hosts = cluster.hosts

    def submit(k: int) -> None:
        i = src[k]
        stamp[k] = len(hosts[i].delivered)
        cluster.submit(i, k, PAYLOAD)

    if tracer is not None:
        submit = tracer.span("bench:submit", submit)
        root = tracer.open(tracer.name_id("bench:timed"))
    gc.collect()
    quiesced = True
    started = perf_counter()
    k = 0
    horizon = 0.0
    while k < total:
        horizon += WINDOW
        while k < total and due[k] < horizon:
            sim.schedule_at(due[k], submit, k)
            k += 1
        if k < total:
            cluster.run_for(horizon - sim.now)
    try:
        cluster.run_until_quiescent(max_time=sim.now + DRAIN_LIMIT)
    except TimeoutError:
        quiesced = False
    wall = perf_counter() - started
    if tracer is not None:
        tracer.close(root)

    ids, times = _collect(hosts)
    if w.group_size:
        net = cluster.network_stats()
        backbone = cluster.backbone.stats.copies_sent
    else:
        net = cluster.network.stats.snapshot()
        backbone = 0
    return RunOutcome(
        workload=w.name, runtime="sim", members=w.n, wall_s=wall,
        setup_s=setups, src=src, due=due, stamp=stamp,
        delivered=ids, delivered_at=times,
        copies=net["copies_sent"], quiesced=quiesced,
        engine_counters=sum_counters([h.engine.counters.snapshot() for h in hosts]),
        buffer_stats=sum_counters([h.buffer.stats.snapshot() for h in hosts]),
        sim_events=sim.events_executed,
        backbone_copies=backbone,
        bytes_sent=net["bytes_sent"],
        cluster=cluster if keep_cluster else None,
    )


# ----------------------------------------------------------------------
# Loopback UDP workload
# ----------------------------------------------------------------------
#: Wall seconds a UDP trial may wait for its last delivery.
UDP_TIMEOUT = 60.0


def _free_base_port(n: int, seed: int) -> int:
    """A base port with ``n`` consecutive free UDP ports on 127.0.0.1."""
    rng = _derived_rng(seed, "ports")
    for _ in range(64):
        base = rng.randrange(20000, 60000 - n)
        probes = []
        try:
            for i in range(n):
                s = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
                probes.append(s)
                s.bind(("127.0.0.1", base + i))
        except OSError:
            continue
        finally:
            for s in probes:
                s.close()
        return base
    raise RuntimeError("no free block of loopback UDP ports")


async def _udp_trial(
    w: Workload, seed: int, quota: int,
    tracer: Optional[SpanRecorder], setup_repeats: int,
) -> RunOutcome:
    from repro.runtime.udp import udp_cluster

    base_port = _free_base_port(w.n, seed)
    setups = []
    members: List[Any] = []
    for r in range(setup_repeats):
        gc.collect()
        started = perf_counter()
        members = await udp_cluster(w.n, base_port=base_port, seed=seed)
        setups.append(perf_counter() - started)
        if r + 1 < setup_repeats:
            for m in members:
                await m.stop()

    loop = asyncio.get_running_loop()
    filler = bytes(_derived_rng(seed, "payload").getrandbits(8)
                   for _ in range(PAYLOAD - 10))
    src: List[int] = []
    due: List[float] = []
    stamp: List[int] = []
    left = [quota] * w.n
    expected = quota * w.n * w.n
    seen = [0]
    done = asyncio.Event()

    def submit(i: int) -> None:
        k = len(src)
        src.append(i)
        due.append(loop.time())
        stamp.append(len(members[i].delivered))
        left[i] -= 1
        members[i].broadcast(b"%010d" % k + filler, PAYLOAD)

    if tracer is not None:
        submit = tracer.span("bench:submit", submit)

    def listener(i: int) -> Callable[[Any], None]:
        def on_delivery(msg: Any) -> None:
            seen[0] += 1
            if msg.src == i and left[i] > 0:
                submit(i)
            if seen[0] >= expected:
                done.set()
        return on_delivery

    for i, member in enumerate(members):
        member.host.add_delivery_listener(listener(i))
    gc.collect()
    root = tracer.open(tracer.name_id("bench:timed")) if tracer is not None else None
    started = perf_counter()
    for i in range(w.n):
        for _ in range(min(w.outstanding, quota)):
            submit(i)
    quiesced = True
    try:
        await asyncio.wait_for(done.wait(), timeout=UDP_TIMEOUT)
    except asyncio.TimeoutError:
        quiesced = False
    wall = perf_counter() - started
    if tracer is not None:
        tracer.close(root)
    for member in members:
        await member.stop()

    ids, times = _collect([m.host for m in members])
    transports = [m.transport.counters() for m in members]
    return RunOutcome(
        workload=w.name, runtime="udp", members=w.n, wall_s=wall,
        setup_s=setups, src=src, due=due, stamp=stamp,
        delivered=ids, delivered_at=times,
        copies=sum(t["datagrams_sent"] for t in transports), quiesced=quiesced,
        engine_counters=sum_counters([m.engine.counters.snapshot() for m in members]),
        buffer_stats=sum_counters([m.transport.inbox.stats.snapshot() for m in members]),
        datagrams_sent=sum(t["datagrams_sent"] for t in transports),
        decode_errors=sum(t["decode_errors"] for t in transports),
    )


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def latency_samples(run: RunOutcome) -> List[float]:
    """Submit-to-delivery delay in seconds, one per (message, member)."""
    due = run.due
    total = len(due)
    out = []
    for ids, times in zip(run.delivered, run.delivered_at):
        for d, at in zip(ids, times):
            if 0 <= d < total:
                out.append(at - due[d])
    return out


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list (0 < q <= 1)."""
    if not sorted_values:
        return 0.0
    rank = min(len(sorted_values), max(1, math.ceil(q * len(sorted_values))))
    return sorted_values[rank - 1]


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0
