"""The simulated FIFO request queue (SQ).

Requests are served in FIFO order (Section III); the *system capacity*
is ``Q``: an arrival is lost when ``Q`` requests are already present
(waiting plus in service), matching the model's stable state ``q_Q``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional

from repro.errors import SimulationError


@dataclass
class Request:
    """One request's lifetime timestamps (``None`` = not yet)."""

    request_id: int
    arrival_time: float
    service_start_time: Optional[float]
    departure_time: Optional[float]

    __slots__ = (
        "request_id", "arrival_time", "service_start_time", "departure_time",
    )


class FIFORequestQueue:
    """FIFO queue with loss; holds requests not yet *completed*.

    ``occupancy`` counts waiting plus in-service requests (the model's
    ``q_i`` convention where the in-service request is included) and
    ``waiting_count`` the requests queued but not in service. Both are
    plain counters kept by the mutators: the simulator reads them on
    every event.
    """

    __slots__ = (
        "capacity", "_waiting", "_in_service", "_next_id", "n_accepted",
        "n_lost", "occupancy", "waiting_count",
    )

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise SimulationError(f"queue capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self._waiting: Deque[Request] = deque()
        self._in_service: Optional[Request] = None
        self._next_id = 0
        self.n_accepted = 0
        self.n_lost = 0
        self.occupancy = 0
        self.waiting_count = 0

    @property
    def in_service(self) -> Optional[Request]:
        return self._in_service

    def offer(self, arrival_time: float) -> Optional[Request]:
        """Admit an arrival, or drop it (returning ``None``) when full."""
        if self.occupancy >= self.capacity:
            self.n_lost += 1
            return None
        request = Request(self._next_id, arrival_time, None, None)
        self._next_id += 1
        self._waiting.append(request)
        self.n_accepted += 1
        self.occupancy += 1
        self.waiting_count += 1
        return request

    def start_service(self, time: float) -> Request:
        """Move the head-of-line request into service."""
        if self._in_service is not None:
            raise SimulationError("a request is already in service")
        if not self._waiting:
            raise SimulationError("cannot start service on an empty queue")
        request = self._waiting.popleft()
        self.waiting_count -= 1
        request.service_start_time = time
        self._in_service = request
        return request

    def complete_service(self, time: float) -> Request:
        """Finish the in-service request and return it."""
        if self._in_service is None:
            raise SimulationError("no request is in service")
        request = self._in_service
        request.departure_time = time
        self._in_service = None
        self.occupancy -= 1
        return request

    def pending_requests(self) -> "list[Request]":
        """Requests still in the system (in-service first, then FIFO)."""
        pending = []
        if self._in_service is not None:
            pending.append(self._in_service)
        pending.extend(self._waiting)
        return pending

    def requeue_in_service(self) -> Request:
        """Abort the in-service request back to the head of the line.

        Used by the ``"preempt"`` busy-powerdown semantics: the
        interrupted request keeps its arrival time and FIFO position.
        """
        if self._in_service is None:
            raise SimulationError("no request is in service")
        request = self._in_service
        request.service_start_time = None
        request.departure_time = None
        self._in_service = None
        self._waiting.appendleft(request)
        self.waiting_count += 1
        return request
