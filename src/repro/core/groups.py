"""Hierarchical sharded clusters: bounded subgroups behind bridge relays.

The flat protocol's per-PDU cost is O(n): every entity carries n×n AL/PAL
knowledge and every DT-PDU hauls an n-entry ACK vector, so Tco climbs with
cluster size (BENCH_hotpath.json, Fig. 8).  This layer breaks that wall the
way Nédelec et al. (*Breaking the Scalability Barrier of Causal Broadcast*)
prescribe: partition membership into **bounded subgroups**, run the paper's
CO protocol *unchanged* inside each subgroup over a membership-view-local
:class:`~repro.core.state.KnowledgeState`, and exchange **constant-size**
(G-entry, with G = number of groups, not n-entry) control information
between groups through designated **bridge** entities.

Architecture (docs/PROTOCOL.md §18):

* ``partition_members`` splits the global roster ``0..n-1`` into G
  contiguous blocks of at most ``group_size`` members (and at least two,
  so every subgroup can run the protocol).
* Each subgroup is an ordinary :class:`~repro.core.cluster.Cluster` built
  over its own :class:`~repro.net.network.MCNetwork` and
  :class:`~repro.sim.trace.TraceLog`, with ``roster`` naming the global
  ids behind the view-local indices.
* A **backbone** ``MCNetwork`` with G endpoints (one per group) carries
  :class:`~repro.core.pdu.InterGroupPdu` frames between bridges.  Frames
  land on the *current* bridge member's normal receive path — buffer, CPU
  service, ``engine.on_pdu`` — so bridge work is charged like any other
  PDU, then the engine hands the frame to the bridge layer.
* Each group's :class:`GroupBridge` forwards locally-delivered original
  messages onto the backbone with a **group-level sequence number** and a
  G-entry **causal barrier** (how many envelopes of every group the bridge
  had processed when it forwarded), and re-injects remote messages into
  its subgroup as :class:`GroupEnvelope` submissions once the barrier is
  satisfied.  Cumulative per-stream acks plus a retransmit timer make the
  backbone reliable; the in-group protocol handles everything else.
* **Bridge failover** rides the existing detector/view-change machinery: a
  periodic check promotes the lowest-indexed live member once *its own
  engine* has suspected or evicted the crashed incumbent, then replays
  unforwarded local deliveries and undelivered re-injections so no
  inter-group sequence gap is orphaned.

Why this is causally safe (stable bridge): within-group CO delivery means
the origin bridge has delivered every causal predecessor of a message —
native or re-injected — before the message itself, so the barrier counts
cover its dependencies; a receiving bridge holds the envelope until its own
counts cover the barrier, and within-group CO then orders the re-injection
after those predecessors at every member.  Known limitation (documented,
not hidden): after a failover the replacement bridge forwards
not-yet-forwarded messages in *its* delivery order, so two messages
concurrent inside the origin group may swap order relative to the old
stream — convergence and gap-freedom still hold (the nemesis scenarios
assert them), but the strict cross-group causal-order guarantee is only
claimed for stable-bridge runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import ceil
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.cluster import Cluster, CpuModel, build_cluster, run_until_quiet
from repro.core.config import ProtocolConfig
from repro.core.entity import DeliveredMessage
from repro.core.errors import ConfigurationError
from repro.core.pdu import InterGroupPdu
from repro.net.loss import LossModel
from repro.net.network import MCNetwork
from repro.net.topology import Topology
from repro.sim.kernel import Simulator
from repro.sim.rng import RngRegistry
from repro.sim.timers import PeriodicTimer
from repro.sim.trace import TraceLog

__all__ = [
    "GroupEnvelope",
    "GroupBridge",
    "GroupPartition",
    "HierarchicalCluster",
    "build_hierarchical_cluster",
    "partition_members",
]

#: Retransmit at most this many backlog frames per peer per timer firing,
#: so a long-partitioned peer is caught up in bounded bursts.
RET_BURST = 64


def partition_members(n: int, group_size: int) -> Tuple[Tuple[int, ...], ...]:
    """Split ``0..n-1`` into contiguous balanced blocks of ≥ 2 members.

    ``G = min(ceil(n / group_size), n // 2)`` groups (never more than
    ``group_size`` members per group unless the ≥ 2 floor forces it for
    tiny clusters); the first ``n % G`` groups take the extra member.
    """
    if n < 2:
        raise ConfigurationError(f"a cluster needs at least 2 entities, got {n}")
    if group_size < 2:
        raise ConfigurationError(f"group_size must be >= 2, got {group_size}")
    G = max(1, min(ceil(n / group_size), n // 2))
    base, extra = divmod(n, G)
    blocks: List[Tuple[int, ...]] = []
    start = 0
    for k in range(G):
        size = base + (1 if k < extra else 0)
        blocks.append(tuple(range(start, start + size)))
        start += size
    return tuple(blocks)


@dataclass(frozen=True)
class GroupEnvelope:
    """A remote-group message re-injected into a subgroup by its bridge.

    The envelope travels as ordinary application data through the in-group
    CO protocol; :meth:`HierarchicalCluster.delivered` unwraps it back into
    the original sender's ``(src, seq)`` identity.  ``gseq`` ties the
    envelope to the origin group's backbone stream so a failed-over bridge
    can tell which held re-injections its successor still owes the group.
    """

    origin_group: int
    src: int   # global id of the original sender
    seq: int   # origin-local sequence number
    gseq: int  # position in the origin group's backbone stream
    payload: Any


class GroupPartition(LossModel):
    """Backbone loss model cutting directed group↔group links (nemesis)."""

    def __init__(self) -> None:
        self.blocked: Set[Tuple[int, int]] = set()
        #: Frames actually discarded while a split was in force — lets a
        #: nemesis scenario assert the fault bit before claiming recovery.
        self.partitioned_drops = 0

    def partition(self, a: int, b: int) -> None:
        """Block both directions between groups ``a`` and ``b``."""
        self.blocked.add((a, b))
        self.blocked.add((b, a))

    def heal(self) -> None:
        self.blocked.clear()

    def should_drop(self, src: int, dst: int, pdu: Any, rng: random.Random) -> bool:
        if (src, dst) in self.blocked:
            self.partitioned_drops += 1
            return True
        return False


class GroupBridge:
    """One group's relay endpoint on the inter-group backbone (§18).

    The bridge is deliberately *not* an entity of its own: it is a role
    played by whichever group member is currently ``active_local``, and all
    its state is reconstructible from member state (delivery logs) plus the
    idempotent backbone protocol — which is what makes failover sound.
    """

    def __init__(
        self,
        gid: int,
        partition: Sequence[Tuple[int, ...]],
        cluster: Cluster,
        backbone: MCNetwork,
        config: ProtocolConfig,
        sim: Simulator,
        cid: int,
    ):
        self.gid = gid
        self.partition = tuple(partition)
        self.G = len(partition)
        self.cluster = cluster
        self.backbone = backbone
        self.config = config
        self.sim = sim
        self.cid = cid
        self.roster = self.partition[gid]
        #: Local index of the member currently playing the bridge role.
        self.active_local = 0
        #: seen[j] — for j == gid: local-origin messages forwarded onto the
        #: backbone (the group-stream sequence counter); for j != gid:
        #: group-j envelopes re-injected locally.  ``tuple(seen)`` *is* the
        #: causal barrier stamped on outgoing frames: G integers, however
        #: large the global cluster is.
        self.seen: List[int] = [0] * self.G
        #: acked[j] — cumulative floor of *our* stream that group j has
        #: confirmed processing (drives retransmission and log pruning).
        self.acked: List[int] = [0] * self.G
        #: (global src, seq) -> gseq for every message ever forwarded; the
        #: dedup index a failed-over bridge consults before re-forwarding.
        self.forwarded: Dict[Tuple[int, int], int] = {}
        #: gseq -> frame, pruned below min(acked): the retransmit backlog.
        self.log: Dict[int, InterGroupPdu] = {}
        #: pending[o][gseq] — remote frames held until in-order + barrier.
        self.pending: List[Dict[int, InterGroupPdu]] = [
            {} for _ in range(self.G)
        ]
        #: reinjection_log[o][gseq] — envelopes submitted locally but not
        #: yet seen delivered at the active member; a successor re-submits
        #: the survivors so no inter-group sequence gap is orphaned.
        self.reinjection_log: List[Dict[int, GroupEnvelope]] = [
            {} for _ in range(self.G)
        ]
        self._ret_handle: Optional[Any] = None
        for local, host in enumerate(cluster.hosts):
            host.add_delivery_listener(self._make_listener(local))
        for engine in cluster.engines:
            engine.set_intergroup_handler(self.on_intergroup)
        backbone.attach(gid, self._on_backbone)
        interval = (
            config.bridge_tick_interval
            or config.suspect_timeout
            or config.tick_interval
        )
        self._failover_timer = PeriodicTimer(sim, interval, self._check_bridge)
        self._failover_timer.start()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def idle(self) -> bool:
        """Nothing held, nothing owed, everything forwarded is acked."""
        if any(self.pending[o] for o in range(self.G)):
            return False
        if any(self.reinjection_log[o] for o in range(self.G)):
            return False
        return all(
            self.acked[j] >= self.seen[self.gid]
            for j in range(self.G)
            if j != self.gid
        )

    def stop(self) -> None:
        self._failover_timer.stop()
        if self._ret_handle is not None:
            self._ret_handle.cancel()
            self._ret_handle = None

    # ------------------------------------------------------------------
    # Outbound: group delivery -> backbone
    # ------------------------------------------------------------------
    def _make_listener(self, local: int) -> Callable[[DeliveredMessage], None]:
        def on_delivery(msg: DeliveredMessage) -> None:
            if local != self.active_local:
                return
            self._on_active_delivery(msg)

        return on_delivery

    def _on_active_delivery(self, msg: DeliveredMessage) -> None:
        data = msg.data
        if isinstance(data, GroupEnvelope):
            # A re-injection completed its round trip through the in-group
            # protocol at the bridge member: the group owns it now.
            self.reinjection_log[data.origin_group].pop(data.gseq, None)
            return
        self._forward(self.roster[msg.src], msg.seq, data)

    def _forward(self, global_src: int, seq: int, payload: Any) -> None:
        key = (global_src, seq)
        if key in self.forwarded:
            return
        # Barrier first, then bump own stream: barrier[gid] = gseq - 1, so
        # a frame never waits on itself and same-stream order rides gseq.
        barrier = tuple(self.seen)
        self.seen[self.gid] += 1
        gseq = self.seen[self.gid]
        host = self.cluster.hosts[self.active_local]
        pdu = InterGroupPdu(
            cid=self.cid,
            origin_group=self.gid,
            sender_group=self.gid,
            src=global_src,
            seq=seq,
            gseq=gseq,
            barrier=barrier,
            buf=host.buffer.free_units,
            data=payload,
            data_size=0,
        )
        self.forwarded[key] = gseq
        self.log[gseq] = pdu
        self.backbone.broadcast(self.gid, pdu)
        self._arm_ret()

    # ------------------------------------------------------------------
    # Inbound: backbone -> group re-injection
    # ------------------------------------------------------------------
    def _on_backbone(self, pdu: Any) -> None:
        # Frames take the active member's normal receive path (buffer, CPU
        # service, engine dispatch) so bridge work is costed like any PDU;
        # a crashed incumbent drops them and retransmission recovers.
        self.cluster.hosts[self.active_local].on_arrival(pdu)

    def on_intergroup(self, pdu: InterGroupPdu) -> None:
        """Handler the group's engines invoke for backbone frames (§18)."""
        if pdu.ack:
            if pdu.origin_group == self.gid:
                peer = pdu.sender_group
                if pdu.gseq > self.acked[peer]:
                    self.acked[peer] = pdu.gseq
                    self._prune_log()
            return
        o = pdu.origin_group
        if o == self.gid:
            return  # a stale retransmit of our own stream
        if pdu.gseq <= self.seen[o]:
            self._send_ack(o)  # duplicate: refresh the sender's floor
            return
        self.pending[o][pdu.gseq] = pdu
        self._drain()

    def _drain(self) -> None:
        advanced: Set[int] = set()
        progress = True
        while progress:
            progress = False
            for o in range(self.G):
                if o == self.gid:
                    continue
                nxt = self.seen[o] + 1
                pdu = self.pending[o].get(nxt)
                if pdu is None:
                    continue
                # The inter-group causal barrier: hold the envelope until
                # this bridge has processed at least as much of every
                # group's stream as the origin had when it forwarded.
                # (barrier[gid] can never block: the origin cannot have
                # processed more of our stream than we forwarded.)
                if any(
                    self.seen[j] < pdu.barrier[j]
                    for j in range(self.G)
                    if j != o
                ):
                    continue
                del self.pending[o][nxt]
                self.seen[o] = pdu.gseq
                env = GroupEnvelope(o, pdu.src, pdu.seq, pdu.gseq, pdu.data)
                self.reinjection_log[o][pdu.gseq] = env
                # Re-injection is an application-level submission through
                # the SAP, not part of processing the backbone frame:
                # defer it one sim event so the submit (and its broadcast
                # fan-out) runs outside the frame's service window.  Same
                # sim instant, FIFO with earlier deferrals.
                self.sim.schedule(
                    0.0, self.cluster.hosts[self.active_local].submit, env
                )
                progress = True
                advanced.add(o)
        for o in advanced:
            self._send_ack(o)

    def _send_ack(self, origin: int) -> None:
        floor = self.seen[origin]
        if floor < 1:
            return
        ack = InterGroupPdu(
            cid=self.cid,
            origin_group=origin,
            sender_group=self.gid,
            src=0,
            seq=0,
            gseq=floor,
            barrier=(),
            buf=0,
            ack=True,
        )
        self.backbone.unicast(self.gid, origin, ack)

    # ------------------------------------------------------------------
    # Reliability: cumulative acks + bounded retransmission
    # ------------------------------------------------------------------
    def _prune_log(self) -> None:
        floors = [self.acked[j] for j in range(self.G) if j != self.gid]
        if not floors:
            return
        low = min(floors)
        for gseq in [g for g in self.log if g <= low]:
            del self.log[gseq]

    def _arm_ret(self) -> None:
        if self._ret_handle is not None:
            return
        self._ret_handle = self.sim.schedule(
            self.config.intergroup_ret_timeout, self._on_ret
        )

    def _on_ret(self) -> None:
        self._ret_handle = None
        if self._resend_unacked():
            self._arm_ret()

    def _resend_unacked(self) -> bool:
        outstanding = False
        for peer in range(self.G):
            if peer == self.gid:
                continue
            floor = self.acked[peer]
            if floor >= self.seen[self.gid]:
                continue
            outstanding = True
            burst = 0
            for gseq in range(floor + 1, self.seen[self.gid] + 1):
                frame = self.log.get(gseq)
                if frame is None:
                    continue
                self.backbone.unicast(self.gid, peer, frame)
                burst += 1
                if burst >= RET_BURST:
                    break
        return outstanding

    # ------------------------------------------------------------------
    # Failover (detector-driven)
    # ------------------------------------------------------------------
    def _check_bridge(self) -> None:
        if not self.cluster.hosts[self.active_local].crashed:
            return
        candidate = next(
            (
                i
                for i, h in enumerate(self.cluster.hosts)
                if not h.crashed
            ),
            None,
        )
        if candidate is None:
            return  # the whole group is down; nothing to promote
        engine = self.cluster.hosts[candidate].engine
        old = self.active_local
        # Promotion waits for the group's own failure-detection verdict:
        # the successor acts only once its engine has suspected or evicted
        # the incumbent, so the bridge role moves with the membership view
        # rather than ahead of it.
        suspected = getattr(engine, "suspected", set())
        evicted = getattr(engine, "evicted", set())
        if old not in suspected and old not in evicted:
            return
        self._activate(candidate)

    def _activate(self, new_local: int) -> None:
        old = self.active_local
        self.active_local = new_local
        host = self.cluster.hosts[new_local]
        self.cluster.trace.record(
            self.sim.now, "bridge_failover", new_local,
            group=self.gid, old=old,
        )
        delivered_envs: Set[Tuple[int, int]] = set()
        native: List[DeliveredMessage] = []
        for msg in host.delivered:
            if isinstance(msg.data, GroupEnvelope):
                delivered_envs.add((msg.data.origin_group, msg.data.gseq))
            else:
                native.append(msg)
        # (a) Ship local-origin deliveries the incumbent never forwarded —
        # the dedup index skips everything already on the stream.
        for msg in native:
            self._forward(self.roster[msg.src], msg.seq, msg.data)
        # (b) Settle the re-injection ledger against the successor's own
        # delivery log: entries it already delivered (while it was not the
        # active member, so its listener never popped them) are done;
        # survivors are re-submitted.  Duplicates are possible (the
        # incumbent's submission may still propagate) and are collapsed at
        # unwrap time.
        for o in range(self.G):
            if o == self.gid:
                continue
            for gseq in sorted(self.reinjection_log[o]):
                if (o, gseq) in delivered_envs:
                    del self.reinjection_log[o][gseq]
                else:
                    host.submit(self.reinjection_log[o][gseq])
        # (c) Nudge every peer immediately rather than waiting a timeout.
        if self._resend_unacked():
            self._arm_ret()


class HierarchicalCluster:
    """G subgroups + bridges + backbone behind the flat ``Cluster`` API.

    Duck-types the :class:`~repro.core.cluster.Cluster` surface the
    workloads, harness and nemesis layers consume — global entity indices
    in, global identities out — so everything built against flat clusters
    runs unchanged on a sharded one.
    """

    def __init__(
        self,
        sim: Simulator,
        config: ProtocolConfig,
        groups: Sequence[Cluster],
        bridges: Sequence[GroupBridge],
        backbone: MCNetwork,
        backbone_trace: TraceLog,
        partition: Sequence[Tuple[int, ...]],
    ):
        self.sim = sim
        self.config = config
        self.groups = list(groups)
        self.bridges = list(bridges)
        self.backbone = backbone
        self.backbone_trace = backbone_trace
        self.partition = tuple(partition)
        #: global id -> (group, view-local index)
        self.locator: Dict[int, Tuple[int, int]] = {}
        for k, members in enumerate(self.partition):
            for local, member in enumerate(members):
                self.locator[member] = (k, local)
        #: Hosts flattened in global-id order (blocks are contiguous).
        self.hosts = [
            group.hosts[local]
            for k, group in enumerate(self.groups)
            for local in range(len(self.partition[k]))
        ]

    # ------------------------------------------------------------------
    # Cluster API (global indices)
    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        return len(self.hosts)

    @property
    def engines(self) -> List[Any]:
        return [host.engine for host in self.hosts]

    def stop(self) -> None:
        for group in self.groups:
            group.stop()
        for bridge in self.bridges:
            bridge.stop()

    def submit(self, index: int, data: Any, size: int = 0) -> None:
        k, local = self.locator[index]
        self.groups[k].submit(local, data, size)

    def delivered(self, index: int) -> List[DeliveredMessage]:
        """Entity ``index``'s delivery sequence in *global* identities.

        Envelopes are unwrapped back to their origin; native deliveries get
        their view-local source mapped through the group roster.  Failover
        can double-submit an envelope, so repeats of one raw id collapse to
        the first occurrence.

        Sequence numbers are *application-level*: a bridge member's engine
        stream interleaves its own submissions with envelope re-injections,
        so its raw engine seqs are shifted relative to a flat run.  Each
        source's kept messages are renumbered 1, 2, … in stream order —
        per-source order is pinned at every entity (FIFO links + causal
        delivery), so the renumbering is identical cluster-wide and the
        ids line up with a flat run of the same workload.
        """
        k, local = self.locator[index]
        roster = self.partition[k]
        out: List[DeliveredMessage] = []
        seen: Set[Tuple[int, int, int]] = set()
        app_seq: Dict[int, int] = {}
        for msg in self.groups[k].hosts[local].delivered:
            if isinstance(msg.data, GroupEnvelope):
                env = msg.data
                key = (env.origin_group, env.src, env.seq)
                payload = env.payload
                src = env.src
            else:
                key = (k, roster[msg.src], msg.seq)
                payload = msg.data
                src = roster[msg.src]
            if key in seen:
                continue
            seen.add(key)
            app_seq[src] = app_seq.get(src, 0) + 1
            out.append(
                DeliveredMessage(
                    data=payload,
                    src=src,
                    seq=app_seq[src],
                    delivered_at=msg.delivered_at,
                )
            )
        return out

    def counters(self) -> List[Dict[str, Dict[str, int]]]:
        return [host.counters() for host in self.hosts]

    def crash(self, index: int) -> None:
        self.hosts[index].crash()

    def restart(self, index: int) -> Any:
        k, local = self.locator[index]
        return self.groups[k].restart(local)

    def pause(self, index: int) -> None:
        self.hosts[index].pause()

    def resume(self, index: int) -> None:
        self.hosts[index].resume()

    def set_cpu_scale(self, index: int, scale: float) -> None:
        if scale <= 0:
            raise ValueError(f"cpu scale must be positive, got {scale}")
        self.hosts[index].cpu_scale = scale

    def network_stats(self) -> Dict[str, int]:
        """Traffic counters summed over every group medium + the backbone."""
        total: Dict[str, int] = {}
        for net in [group.network for group in self.groups] + [self.backbone]:
            for key, value in net.stats.snapshot().items():
                total[key] = total.get(key, 0) + value
        return total

    # ------------------------------------------------------------------
    # Run helpers
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> float:
        return self.sim.run(until=self.sim.now + duration)

    def _quiet(self) -> bool:
        if self.backbone.in_flight:
            return False
        if any(not group._quiet() for group in self.groups):
            return False
        return all(bridge.idle for bridge in self.bridges)

    def run_until_quiescent(self, max_time: float = 60.0) -> float:
        """Run until every group is drained *and* the backbone settles.

        The structural check: every subgroup quiet (its own check), no
        backbone copies in flight, and every bridge idle (nothing pending,
        nothing owed, everything forwarded acked).  Quiescence holds when
        that check and :func:`~repro.core.cluster.run_until_quiet`'s
        pending-event check pass at two consecutive chunk boundaries.
        Note an isolated or fully-dead peer group keeps its senders'
        bridges non-idle forever: heal the partition (or restart a
        member) before draining.
        """
        cfg = self.config
        max_delay = max(
            [group.network.max_delay for group in self.groups]
            + [self.backbone.max_delay]
        )
        chunk = (
            max(
                cfg.deferred_interval,
                cfg.tick_interval,
                cfg.ret_timeout,
                cfg.intergroup_ret_timeout,
            )
            * 2
            + 2 * max_delay
            + 1e-6
        )
        if run_until_quiet(self.sim, self._quiet, chunk, max_time):
            return self.sim.now
        raise TimeoutError(
            f"hierarchical cluster did not quiesce within {max_time} "
            f"simulated seconds (an unreachable peer group pins its "
            f"senders' bridges non-idle — see docs/PROTOCOL.md §18)"
        )


def build_hierarchical_cluster(
    n: int,
    config: Optional[ProtocolConfig] = None,
    sim: Optional[Simulator] = None,
    rngs: Optional[RngRegistry] = None,
    buffer_capacity: int = 256,
    cpu: Optional[CpuModel] = None,
    delay: float = 200e-6,
    loss: Optional[LossModel] = None,
    backbone_delay: float = 1e-3,
    backbone_loss: Optional[LossModel] = None,
    gauge_every: int = 8,
):
    """Assemble a sharded cluster from ``config.group_size``-bounded groups.

    Returns a started :class:`HierarchicalCluster` — except when the
    partition degenerates to a single group, where the plain flat
    :class:`~repro.core.cluster.Cluster` over the identity roster is
    returned: one group *is* the flat protocol, and returning the real
    thing is what makes the single-group byte-identity conformance claim
    honest rather than a wrapper artifact.
    """
    config = config or ProtocolConfig(group_size=8)
    if not config.hierarchy_enabled:
        raise ConfigurationError(
            "build_hierarchical_cluster needs config.group_size set; "
            "use build_cluster for flat mode"
        )
    partition = partition_members(n, config.group_size)
    G = len(partition)
    sim = sim or Simulator()
    rngs = rngs or RngRegistry()
    cpu = cpu or CpuModel()
    if G == 1:
        return build_cluster(
            n,
            config.with_(group_size=None),
            topology=Topology.uniform(n, delay),
            sim=sim,
            loss=loss,
            rngs=rngs,
            buffer_capacity=buffer_capacity,
            cpu=cpu,
            gauge_every=gauge_every,
            roster=tuple(range(n)),
        )
    groups: List[Cluster] = []
    for k, members in enumerate(partition):
        size = len(members)
        # Each subgroup runs the engine *unchanged* over a view of its own
        # size: distinct cluster id (the CID demultiplex keeps any stray
        # cross-group traffic inert), hierarchy knob stripped (the group
        # itself is flat), roster naming the global ids behind the view.
        sub_config = config.with_(
            cluster_id=config.cluster_id + k, group_size=None
        )
        groups.append(
            build_cluster(
                size,
                sub_config,
                topology=Topology.uniform(size, delay),
                sim=sim,
                trace=TraceLog(),
                loss=loss,
                rngs=rngs,
                buffer_capacity=buffer_capacity,
                cpu=cpu,
                gauge_every=gauge_every,
                roster=members,
            )
        )
    backbone_trace = TraceLog()
    backbone = MCNetwork(
        sim,
        backbone_trace,
        Topology.uniform(G, backbone_delay),
        loss=backbone_loss,
        rngs=rngs,
    )
    bridges = [
        GroupBridge(
            k, partition, groups[k], backbone, config, sim,
            cid=config.cluster_id,
        )
        for k in range(G)
    ]
    return HierarchicalCluster(
        sim, config, groups, bridges, backbone, backbone_trace, partition
    )
