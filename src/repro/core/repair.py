"""Anti-entropy repair layer: digest scheduling and range planning.

The repair extension (docs/PROTOCOL.md §15) heals staleness the paper's
RET machinery handles poorly — long partitions, flapping links, sustained
loss storms — without falling back to the full `StatePdu` snapshot.  It
runs in three tiers:

1. **Digests** — every ``anti_entropy_interval`` an entity sends a
   :class:`~repro.core.pdu.DigestPdu` (receipt + delivered frontiers +
   view id) to one deterministically-rotated live peer.
2. **Range pulls** — the digest's target compares frontiers and requests
   exactly the missing ``[from, to)`` ranges per source with a
   :class:`~repro.core.pdu.RepairPullPdu`; gaps whose RET retries stay
   fruitless escalate to pulls too.
3. **Delta sync** — a serving side seeing a deficit of at least
   ``delta_sync_threshold`` PDUs answers with a bounded partial state
   transfer (up to 128 resident PDUs re-sent), the
   replacement for wholesale snapshots after a partition heals.

This module holds the *decisions* — when a digest is due, which peer gets
it, which ranges a frontier comparison yields, when a deficit counts as a
delta — as pure bookkeeping over plain values, so the unit tests drive it
without an engine.  The engine (:mod:`repro.core.entity`) owns the wire
actions and the stores the answers are served from.

Everything is deterministic: peer choice is a rotation over the sorted
live candidates, and all times come from the caller's clock, so nemesis
runs replay bit-for-bit from their seeds.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.config import ProtocolConfig

#: One pull request entry: (source, from_seq, to_seq) with to exclusive.
Range = Tuple[int, int, int]


class RepairManager:
    """Per-entity repair bookkeeping (tiers, rotation, rate limits)."""

    def __init__(self, owner: int, n: int, config: ProtocolConfig):
        self.owner = owner
        self.n = n
        self.config = config
        self._last_digest_at: float = -1e18
        #: The peer the last digest went to — the rotation cursor.  Storing
        #: the *peer* rather than a round counter keeps the rotation stable
        #: when the candidate set changes: a ``rounds % len`` cursor re-maps
        #: every position the moment a member is evicted or rejoins, which
        #: can starve a peer of digests for many rounds.
        self._last_target: Optional[int] = None
        #: Last time a delta sync was pushed toward each peer (rate limit:
        #: at most one burst per anti-entropy interval per target, so a
        #: straggler being pulled *and* pushed at once is not double-fed
        #: every round).
        self._last_delta_at: List[float] = [-1e18] * n

    @property
    def enabled(self) -> bool:
        return self.config.anti_entropy_interval is not None

    # ------------------------------------------------------------------
    # Tier 1: digest scheduling
    # ------------------------------------------------------------------
    def digest_target(self, now: float, candidates: Sequence[int]) -> Optional[int]:
        """The peer to digest with this interval, or ``None`` if not due.

        ``candidates`` is the set of peers worth comparing against — live
        (non-evicted) members other than the owner.  The choice rotates
        deterministically over the sorted candidates: the next target is the
        smallest candidate greater than the previous one, wrapping to the
        smallest overall.  Anchoring on the previous *peer* (not a round
        counter modulo the current size) keeps the cycle stable across
        membership changes, so every live peer is digested within
        ``len(candidates)`` intervals even when the set shrinks or grows
        mid-cycle.  Suspected members stay in the rotation because a digest
        is precisely how a healed-but-stale link is rediscovered.
        """
        interval = self.config.anti_entropy_interval
        if interval is None or not candidates:
            return None
        if now - self._last_digest_at < interval:
            return None
        self._last_digest_at = now
        ordered = sorted(candidates)
        target = ordered[0]
        if self._last_target is not None:
            for peer in ordered:
                if peer > self._last_target:
                    target = peer
                    break
        self._last_target = target
        return target

    # ------------------------------------------------------------------
    # Tier 2: range planning
    # ------------------------------------------------------------------
    def plan_ranges(
        self,
        local_req: Sequence[int],
        remote_ack: Sequence[int],
        skip: Sequence[int] = (),
    ) -> List[Range]:
        """Ranges the remote frontier proves this entity is missing.

        For every source ``j`` (except the owner and ``skip``) where the
        remote receipt frontier exceeds the local one, request
        ``[local_req[j], remote_ack[j])``.  Clamped to ``pull_max_ranges``
        entries, largest deficits first — the bounded pull repairs the
        worst holes now and leaves the tail to the next digest round.
        """
        skipset = set(skip)
        skipset.add(self.owner)
        deficits: List[Range] = []
        for j in range(self.n):
            if j in skipset:
                continue
            lo, hi = local_req[j], remote_ack[j]
            if hi > lo:
                deficits.append((j, lo, hi))
        deficits.sort(key=lambda r: (-(r[2] - r[1]), r[0]))
        limit = self.config.pull_max_ranges
        return sorted(deficits[:limit])

    def should_escalate(self, retries: int) -> bool:
        """Has a gap's RET retry count earned a tier-2 pull escalation?"""
        return self.enabled and retries > self.config.pull_after_retries

    # ------------------------------------------------------------------
    # Tier 3: delta sync
    # ------------------------------------------------------------------
    def deficit(
        self,
        remote_ack: Sequence[int],
        local_req: Sequence[int],
        skip: Sequence[int] = (),
    ) -> int:
        """PDUs the *remote* entity is missing relative to this one."""
        skipset = set(skip)
        return sum(
            local_req[j] - remote_ack[j]
            for j in range(self.n)
            if j not in skipset and local_req[j] > remote_ack[j]
        )

    def delta_due(self, peer: int, deficit: int, now: float) -> bool:
        """Should a delta burst be pushed to ``peer`` now?

        True when the deficit clears the threshold and no burst went to
        the peer within the last anti-entropy interval.  Pure check: the
        caller commits the rate-limit stamp with :meth:`mark_delta` *after*
        actually sending a non-empty burst.  (Marking on the answer burned
        the peer's interval even when every deficit PDU had already been
        pruned from the sending log and zero PDUs went out.)
        """
        interval = self.config.anti_entropy_interval
        if interval is None or deficit < self.config.delta_sync_threshold:
            return False
        return now - self._last_delta_at[peer] >= interval

    def mark_delta(self, peer: int, now: float) -> None:
        """Record that a non-empty delta burst was pushed to ``peer``."""
        self._last_delta_at[peer] = now

    def forget_peer(self, peer: int) -> None:
        """Reset per-peer rate-limit state at a view change.

        Called for members leaving *or* entering the view.  Without it a
        peer that is evicted and later rejoins inherits the delta-sync
        timestamp of its previous incarnation, and its first — most
        valuable — delta burst after re-admission is silently suppressed.
        """
        if 0 <= peer < self.n:
            self._last_delta_at[peer] = -1e18
