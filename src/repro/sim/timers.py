"""One-shot and periodic timers on top of the simulation kernel.

The CO protocol needs two recurring clocks per entity: the deferred
confirmation window (send a confirming PDU if nothing was sent for D time
units) and the retransmission-request timeout (re-issue a RET PDU while a gap
persists).  Both are expressed with :class:`Timer` / :class:`PeriodicTimer`
so that the protocol engine itself stays free of scheduling details.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from repro.sim.kernel import EventHandle, Simulator


class Timer:
    """A restartable one-shot timer.

    ``start()`` (re)arms the timer; if it was already armed the previous
    deadline is cancelled, so the timer behaves like a watchdog.
    """

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], Any]):
        if interval < 0:
            raise ValueError(f"interval must be non-negative, got {interval!r}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._handle: Optional[EventHandle] = None

    @property
    def armed(self) -> bool:
        """True while a deadline is pending."""
        return self._handle is not None and self._handle.pending

    def start(self, interval: Optional[float] = None) -> None:
        """Arm (or re-arm) the timer ``interval`` time units from now."""
        self.cancel()
        delay = self.interval if interval is None else interval
        self._handle = self._sim.schedule(delay, self._fire)

    def cancel(self) -> None:
        """Disarm the timer if armed.  Idempotent."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        self._handle = None
        self._callback()


class PeriodicTimer:
    """A timer that fires every ``interval`` time units until stopped.

    The next period is scheduled *before* the callback runs, so a callback
    that stops the timer takes effect immediately.
    """

    def __init__(self, sim: Simulator, interval: float, callback: Callable[[], Any]):
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval!r}")
        self._sim = sim
        self.interval = interval
        self._callback = callback
        self._handle: Optional[EventHandle] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Start firing; the first tick is one interval from now."""
        if self._running:
            return
        self._running = True
        self._handle = self._sim.schedule(self.interval, self._fire)

    def stop(self) -> None:
        """Stop firing.  Idempotent."""
        self._running = False
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def _fire(self) -> None:
        if not self._running:
            return
        self._handle = self._sim.schedule(self.interval, self._fire)
        self._callback()


def is_periodic(handle: EventHandle) -> bool:
    """True when ``handle`` is a :class:`PeriodicTimer`'s next firing."""
    return getattr(handle.callback, "__func__", None) is PeriodicTimer._fire
