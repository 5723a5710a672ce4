"""Linear-time check of the CO service contract over one benchmark run.

Inputs are what the benchmark recorded plus what the program handed to its
applications:

* ``src[m]`` -- the member that submitted message ``m``;
* ``stamp[m]`` -- how many deliveries the sender's application had seen
  when it submitted ``m`` (a prefix length of the sender's own delivery
  sequence);
* ``delivered[j]`` -- member ``j``'s delivery sequence as message ids.

The checks, each one pass over the deliveries:

1. exactly once and per-source FIFO: at every member the messages of each
   source arrive in submission order, with none skipped or repeated;
2. causal order: every message the sender had delivered before submitting
   ``m`` is delivered before ``m`` at every member.  The sender's delivered
   prefix is summarised as per-source counts; only the sources whose count
   rose since the sender's previous submission are checked, because the
   previous submission's counts were already covered (delivered counts
   never fall and FIFO orders the two submissions);
3. completeness: every message reaches every member.

The cost is the total number of deliveries times the number of sources
that advance between two submissions of one sender, with no pairwise
comparison of messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence, Tuple


@dataclass
class CheckReport:
    """Verdict of :func:`check_run`: violation counts and a few examples."""

    messages: int
    members: int
    #: Deliveries that repeated a message or skipped ahead of a source's
    #: next message (duplicate or FIFO violation).
    fifo_violations: int = 0
    #: Deliveries that came before a message the sender had delivered.
    causal_violations: int = 0
    #: Deliveries of ids nobody submitted.
    unknown_deliveries: int = 0
    #: Messages not delivered exactly once at every member.
    incomplete_messages: int = 0
    examples: List[str] = field(default_factory=list)

    @property
    def order_ok(self) -> bool:
        """No FIFO, duplicate, causal or unknown-id violation."""
        return not (
            self.fifo_violations or self.causal_violations
            or self.unknown_deliveries
        )

    @property
    def ok(self) -> bool:
        return self.order_ok and not self.incomplete_messages

    def note(self, text: str) -> None:
        if len(self.examples) < 5:
            self.examples.append(text)

    def as_dict(self) -> Dict[str, object]:
        return {
            "messages": self.messages,
            "members": self.members,
            "fifo_violations": self.fifo_violations,
            "causal_violations": self.causal_violations,
            "unknown_deliveries": self.unknown_deliveries,
            "incomplete_messages": self.incomplete_messages,
            "examples": list(self.examples),
        }


def _per_source_index(src: Sequence[int], n: int) -> List[int]:
    """``rank[m]``: 1-based position of ``m`` among its source's messages."""
    counts = [0] * n
    rank = [0] * len(src)
    for m, s in enumerate(src):
        counts[s] += 1
        rank[m] = counts[s]
    return rank


def dependencies(
    src: Sequence[int],
    stamp: Sequence[int],
    delivered: Sequence[Sequence[int]],
    n: int,
) -> List[Tuple[Tuple[int, int], ...]]:
    """``deps[m]``: the ``(source, count)`` pairs that rose at the sender
    since its previous submission, read off the sender's delivered prefix
    of length ``stamp[m]``."""
    deps: List[Tuple[Tuple[int, int], ...]] = [()] * len(src)
    by_sender: List[List[int]] = [[] for _ in range(n)]
    for m, s in enumerate(src):
        by_sender[s].append(m)
    for s in range(n):
        log = delivered[s]
        counts = [0] * n
        changed: Dict[int, None] = {}
        pos = 0
        # A sender's submissions are in time order, so their stamps are
        # non-decreasing: one walk down its delivery sequence serves all.
        for m in sorted(by_sender[s], key=lambda k: stamp[k]):
            upto = min(stamp[m], len(log))
            while pos < upto:
                d = log[pos]
                if 0 <= d < len(src):
                    counts[src[d]] += 1
                    changed[src[d]] = None
                pos += 1
            deps[m] = tuple((k, counts[k]) for k in changed)
            changed = {}
    return deps


def check_run(
    src: Sequence[int],
    stamp: Sequence[int],
    delivered: Sequence[Sequence[int]],
) -> CheckReport:
    """Check exactly-once FIFO, causal order and completeness (see module)."""
    n = len(delivered)
    total = len(src)
    report = CheckReport(messages=total, members=n)
    rank = _per_source_index(src, n)
    deps = dependencies(src, stamp, delivered, n)
    per_source_total = [0] * n
    for s in src:
        per_source_total[s] += 1
    complete = [0] * total
    for j, log in enumerate(delivered):
        counts = [0] * n
        for d in log:
            if not 0 <= d < total:
                report.unknown_deliveries += 1
                report.note(f"member {j} delivered unknown id {d}")
                continue
            s = src[d]
            if rank[d] != counts[s] + 1:
                report.fifo_violations += 1
                report.note(
                    f"member {j} delivered message {d} (#{rank[d]} of "
                    f"source {s}) after #{counts[s]}"
                )
                continue
            for k, need in deps[d]:
                if counts[k] < need:
                    report.causal_violations += 1
                    report.note(
                        f"member {j} delivered message {d} with "
                        f"{counts[k]} of source {k}'s messages, sender "
                        f"had delivered {need}"
                    )
                    break
            counts[s] += 1
            complete[d] += 1
        for s in range(n):
            if counts[s] != per_source_total[s]:
                report.note(
                    f"member {j} delivered {counts[s]} of source {s}'s "
                    f"{per_source_total[s]} messages"
                )
    report.incomplete_messages = sum(1 for c in complete if c != n)
    return report
