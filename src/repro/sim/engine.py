"""Discrete-event simulation core.

A minimal, dependency-free event calendar: events are ``(time, kind,
payload)`` triples ordered by time with FIFO tie-breaking (a
monotonically increasing sequence number). Cancellation is by handle
invalidation -- cancelled entries stay in the heap and are skipped on
pop, the standard lazy-deletion technique.
"""

from __future__ import annotations

import heapq
import itertools
import math
from typing import Any, List, Optional, Tuple

from repro.errors import SimulationError

_INF = math.inf


class EventHandle:
    """A scheduled event; :meth:`cancel` prevents it from firing."""

    __slots__ = ("time", "kind", "payload", "cancelled")

    def __init__(self, time: float, kind: str, payload: Any = None) -> None:
        self.time = time
        self.kind = kind
        self.payload = payload
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True

    def __repr__(self) -> str:
        return (
            f"EventHandle(time={self.time!r}, kind={self.kind!r}, "
            f"payload={self.payload!r}, cancelled={self.cancelled})"
        )


class EventScheduler:
    """Time-ordered event calendar with lazy cancellation.

    ``now`` is the current simulation time (the time of the last popped
    event); only :meth:`pop` advances it.
    """

    __slots__ = ("_heap", "_counter", "now")

    def __init__(self) -> None:
        self._heap: "List[Tuple[float, int, EventHandle]]" = []
        self._counter = itertools.count()
        self.now = 0.0

    def schedule_at(self, time: float, kind: str, payload: Any = None) -> EventHandle:
        """Schedule an event at absolute *time*: finite, not in the past."""
        # One chained comparison rejects the past, NaN and +-inf alike.
        if not self.now <= time < _INF:
            raise SimulationError(
                f"cannot schedule {kind!r} at {time:g}: event times must be "
                f"finite and not before the current time {self.now:g}"
            )
        handle = EventHandle(time, kind, payload)
        heapq.heappush(self._heap, (time, next(self._counter), handle))
        return handle

    def schedule_after(self, delay: float, kind: str, payload: Any = None) -> EventHandle:
        """Schedule an event *delay* seconds from now."""
        if not delay >= 0.0:
            raise SimulationError(f"delay must be non-negative, got {delay:g}")
        return self.schedule_at(self.now + delay, kind, payload)

    def pop(self) -> Optional[EventHandle]:
        """Advance to and return the next live event; ``None`` when empty."""
        heap = self._heap
        while heap:
            time, _, handle = heapq.heappop(heap)
            if handle.cancelled:
                continue
            self.now = time
            return handle
        return None

    def peek_time(self) -> Optional[float]:
        """Time of the next live event without advancing; ``None`` if empty."""
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
        return self._heap[0][0] if self._heap else None

    def __len__(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return sum(1 for _, _, h in self._heap if not h.cancelled)
