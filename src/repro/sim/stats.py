"""Time-weighted simulation statistics.

Tracks exactly the quantities of Section V:

- *average power* -- the time integral of instantaneous mode power plus
  all switching energies, divided by elapsed time;
- *average queue length* -- the time integral of the occupancy
  (in-service request included, matching ``C_sq``);
- *average waiting time* -- mean sojourn (arrival to departure) of
  completed requests, the quantity Table 1 relates to the queue length
  via Little's law;
- losses, PM invocations/commands, mode residency.

The collector is driven by explicit "the value changed at time t" calls;
between calls values are constant, so the integrals are exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import SimulationError


class StatsCollector:
    """Accumulates time-weighted and per-request statistics."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._start = start_time
        self._last_time = start_time
        self._power_now = 0.0
        self._queue_now = 0
        self._mode_now = ""
        self.energy = 0.0
        self.queue_time_integral = 0.0
        self.mode_residency: Dict[str, float] = {}
        self.waiting_times: List[float] = []
        self.n_completed = 0
        self.n_pm_invocations = 0
        self.n_pm_commands = 0
        self.n_switches = 0
        self._finalized_at: float = start_time

    def _advance(self, time: float) -> None:
        dt = time - self._last_time
        if dt > 0:
            self.energy += self._power_now * dt
            self.queue_time_integral += self._queue_now * dt
            mode = self._mode_now
            if mode:
                residency = self.mode_residency
                residency[mode] = residency.get(mode, 0.0) + dt
        elif time < self._last_time - 1e-12:
            raise SimulationError(
                f"stats time went backwards: {time:g} < {self._last_time:g}"
            )
        self._last_time = time

    def set_power(self, time: float, watts: float) -> None:
        self._advance(time)
        self._power_now = watts

    def set_queue_length(self, time: float, length: int) -> None:
        self._advance(time)
        self._queue_now = length

    def set_mode(self, time: float, mode: str) -> None:
        self._advance(time)
        self._mode_now = mode

    def add_switch_energy(self, joules: float) -> None:
        self.energy += joules
        self.n_switches += 1

    def record_departure(self, arrival_time: float, departure_time: float) -> None:
        self.waiting_times.append(departure_time - arrival_time)
        self.n_completed += 1

    def record_pm_invocation(self, issued_command: bool) -> None:
        self.n_pm_invocations += 1
        if issued_command:
            self.n_pm_commands += 1

    def finalize(self, end_time: float) -> None:
        """Close the last constant segment at *end_time*."""
        self._advance(end_time)
        self._finalized_at = end_time

    # -- summaries -------------------------------------------------------------

    @property
    def elapsed(self) -> float:
        return self._finalized_at - self._start

    def average_power(self) -> float:
        return self.energy / self.elapsed if self.elapsed > 0 else 0.0

    def average_queue_length(self) -> float:
        return self.queue_time_integral / self.elapsed if self.elapsed > 0 else 0.0

    def average_waiting_time(self) -> float:
        if not self.waiting_times:
            return 0.0
        return sum(self.waiting_times) / len(self.waiting_times)
