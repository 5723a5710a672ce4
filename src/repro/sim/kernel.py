"""Discrete-event simulation kernel.

The kernel is intentionally small: a simulated clock and a binary heap of
pending events.  Two properties matter for the rest of the repository:

* **Determinism.**  Events scheduled for the same simulated time fire in the
  order they were scheduled (a monotonically increasing sequence number is
  part of the heap key).  Together with the seeded random streams in
  :mod:`repro.sim.rng`, a whole experiment is reproducible from its seed.
* **Cancelability.**  :meth:`Simulator.schedule` returns an
  :class:`EventHandle`; cancelled events stay in the heap but are skipped when
  popped, which is O(1) per cancellation.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, List, Optional


class SimulationError(RuntimeError):
    """Raised for kernel misuse, e.g. scheduling into the past."""


class EventHandle:
    """A cancelable reference to a scheduled event.

    Instances are returned by :meth:`Simulator.schedule` and
    :meth:`Simulator.schedule_at`.  They are true handles, not copies: calling
    :meth:`cancel` prevents the callback from firing even though the entry
    remains in the heap until popped.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled")

    def __init__(self, time: float, seq: int, callback: Callable[..., Any], args: tuple):
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True
        # Drop references so cancelled events do not pin large objects
        # (e.g. PDU payloads) in the heap until they are popped.
        self.callback = _noop
        self.args = ()

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled."""
        return not self.cancelled

    def __lt__(self, other: "EventHandle") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(t={self.time!r}, seq={self.seq}, {state})"


def _noop(*_args: Any) -> None:
    return None


class Simulator:
    """A deterministic discrete-event simulator.

    Typical use::

        sim = Simulator()
        sim.schedule(1.5, callback, arg1, arg2)
        sim.run()            # run until the event queue drains
        print(sim.now)       # simulated seconds elapsed

    The clock unit is arbitrary; the repository uses **seconds** throughout
    (propagation delays of e.g. ``200e-6`` model a LAN).
    """

    def __init__(self) -> None:
        self._now: float = 0.0
        self._heap: List[EventHandle] = []
        self._seq: int = 0
        self._events_executed: int = 0
        self._running: bool = False
        self._stopped: bool = False

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Number of events that have fired (diagnostics / tests)."""
        return self._events_executed

    @property
    def pending_events(self) -> int:
        """Number of events in the heap, including cancelled ones."""
        return len(self._heap)

    def due_events(self, until: float) -> Iterator[EventHandle]:
        """Live events scheduled at or before ``until``, in heap order.

        A linear scan of the heap, meant for checks at coarse boundaries
        (see :func:`repro.core.cluster.run_until_quiet`), not per event.
        """
        return (
            handle for handle in self._heap
            if not handle.cancelled and handle.time <= until
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` time units from now.

        ``delay`` must be non-negative; a zero delay fires after all events
        already scheduled for the current instant.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay!r})")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` for an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time!r}, already at t={self._now!r}"
            )
        self._seq += 1
        handle = EventHandle(time, self._seq, callback, args)
        heapq.heappush(self._heap, handle)
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.

        Returns ``True`` if an event ran, ``False`` if the queue is empty.
        """
        while self._heap:
            handle = heapq.heappop(self._heap)
            if handle.cancelled:
                continue
            self._now = handle.time
            self._events_executed += 1
            handle.callback(*handle.args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or stopped.

        ``until`` is an absolute simulated time; events scheduled exactly at
        ``until`` still run.  ``max_events`` guards against runaway protocols
        in tests.  Returns the simulated time at which the run ended.
        """
        if self._running:
            raise SimulationError("simulator is not re-entrant")
        self._running = True
        self._stopped = False
        executed = 0
        try:
            while self._heap and not self._stopped:
                head = self._heap[0]
                if head.cancelled:
                    heapq.heappop(self._heap)
                    continue
                if until is not None and head.time > until:
                    self._now = until
                    break
                if max_events is not None and executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events} (runaway protocol?)"
                    )
                heapq.heappop(self._heap)
                self._now = head.time
                self._events_executed += 1
                executed += 1
                head.callback(*head.args)
            else:
                if until is not None and not self._stopped and self._now < until:
                    self._now = until
        finally:
            self._running = False
        return self._now

    def stop(self) -> None:
        """Stop the current :meth:`run` after the in-flight event returns."""
        self._stopped = True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Simulator(now={self._now!r}, pending={len(self._heap)})"
