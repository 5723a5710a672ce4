"""Span tracing for the benchmark's traced run.

The benchmark wraps calls into each layer's functions -- from its own
files, by replacing class and module attributes for the duration of one
traced pass -- and records one span per call: name, start, end and the
span that was open when it began (its parent).  Spans are kept in flat
arrays in memory and written out once the run ends.  A layer's self time
is the time its spans cover minus the time their child spans cover.

A span name is ``"<layer>:<function>"``; the layer is the module path
under ``repro`` (``core.entity``, ``net.buffers``, ...), or ``bench`` for
the benchmark's own code.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple


class SpanRecorder:
    """Flat in-memory span store with a stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Counters kept at the same boundaries as the spans.
        self.counts: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def bump(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # ------------------------------------------------------------------
    # Span primitives
    # ------------------------------------------------------------------
    def open(self, nid: int) -> int:
        idx = len(self.start)
        stack = self._stack
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so every call records one span called ``name``."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    def async_span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Like :meth:`span` for a coroutine function that never suspends
        (so its span closes before the loop runs anything else)."""
        nid = self.name_id(name)
        open_, close = self.open, self.close

        @functools.wraps(fn)
        async def wrapper(*args: Any, **kwargs: Any) -> Any:
            idx = open_(nid)
            try:
                return await fn(*args, **kwargs)
            finally:
                close(idx)

        return wrapper

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`restore`."""
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def wrap(self, owner: Any, attr: str, layer: str) -> None:
        """Record a span named ``layer:attr`` around ``owner.attr``."""
        self.patch(owner, attr, self.span(f"{layer}:{attr}", getattr(owner, attr)))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # ------------------------------------------------------------------
    # Analysis and output
    # ------------------------------------------------------------------
    def summarize(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, inclusive ``total_s`` and ``self_s``."""
        count = len(self.start)
        start, end, parent, name = self.start, self.end, self.parent, self.name
        child = array("d", bytes(8 * count))
        for i in range(count):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        width = len(self.names)
        calls = [0] * width
        total = [0.0] * width
        own = [0.0] * width
        for i in range(count):
            nid = name[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            total[nid] += dur
            own[nid] += dur - child[i]
        return {
            self.names[k]: {"calls": calls[k], "total_s": total[k], "self_s": own[k]}
            for k in range(width)
            if calls[k]
        }

    def dump(self, path: str) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        header = {
            "names": self.names,
            "spans": len(self.start),
            "arrays": ["name:i", "parent:i", "start:d", "end:d"],
        }
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(out)


def self_time_by_layer(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    out: Dict[str, float] = {}
    for name, row in summary.items():
        layer = name.split(":", 1)[0]
        out[layer] = out.get(layer, 0.0) + row["self_s"]
    return out


def mean_us(summary: Dict[str, Dict[str, float]], *names: str) -> float:
    """Mean inclusive duration in microseconds over the named spans."""
    calls = sum(summary.get(n, {}).get("calls", 0) for n in names)
    total = sum(summary.get(n, {}).get("total_s", 0.0) for n in names)
    return total / calls * 1e6 if calls else 0.0


def calls(summary: Dict[str, Dict[str, float]], prefix: str) -> int:
    return sum(
        int(row["calls"]) for name, row in summary.items()
        if name.startswith(prefix)
    )


def self_of(summary: Dict[str, Dict[str, float]], name: str) -> float:
    return summary.get(name, {}).get("self_s", 0.0)

