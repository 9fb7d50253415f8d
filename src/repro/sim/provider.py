"""The simulated service provider (SP).

A thin state holder around a :class:`~repro.dpm.service_provider.
ServiceProvider` description: current mode, an optional in-flight mode
switch, and an in-service flag. All event scheduling lives in the
:class:`~repro.sim.simulator.Simulator`; this class only answers state
questions and draws the random durations.

Timing semantics (matching the CTMDP model exactly):

- a commanded switch ``s -> s'`` takes an exponential time with mean
  ``1/chi[s, s']``; the server stays in mode ``s`` (drawing ``pow(s)``)
  until the switch completes, then pays ``ene(s, s')``;
- a self-switch is instantaneous and free (the paper's
  ``chi[s, s] = infinity``);
- service in an active mode takes an exponential time with mean
  ``1/mu``; because the exponential is memoryless, a mid-service mode
  change to another active mode simply re-draws the remaining service
  time at the new rate.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.dpm.service_provider import ServiceProvider
from repro.errors import SimulationError
from repro.sim.distributions import ExponentialService, ServiceDistribution


class SimulatedProvider:
    """Run-time SP state for one simulation.

    ``service_distribution`` defaults to the model's exponential
    assumption; swapping it (see :mod:`repro.sim.distributions`) keeps
    the mean ``1/mu`` but changes the variability -- used by the
    robustness ablation. Note that the mid-service re-draw on an
    active-to-active mode change is exact only for the exponential; with
    a single active mode (the paper's setup) the case never arises.
    """

    __slots__ = (
        "description", "mode", "switch_target", "is_serving",
        "service_distribution",
    )

    def __init__(
        self,
        description: ServiceProvider,
        initial_mode: str,
        service_distribution: Optional[ServiceDistribution] = None,
    ) -> None:
        self.description = description
        description.index_of(initial_mode)  # validates the name
        self.mode = initial_mode
        self.switch_target: Optional[str] = None
        self.is_serving = False
        self.service_distribution = (
            service_distribution
            if service_distribution is not None
            else ExponentialService()
        )

    def power_now(self) -> float:
        """Instantaneous power draw (mode power; the model charges the
        source mode's power during a switch)."""
        return self.description.power_rate(self.mode)

    def draw_switch_time(self, target: str, rng: np.random.Generator) -> float:
        """Exponential switch latency to *target* (0 for a self-switch)."""
        if target == self.mode:
            return 0.0
        return rng.exponential(self.description.switching_time(self.mode, target))

    def draw_service_time(self, rng: np.random.Generator) -> float:
        """Service duration at the current mode's mean ``1/mu``."""
        mu = self.description.service_rate(self.mode)
        if mu <= 0:
            raise SimulationError(f"mode {self.mode!r} cannot serve (mu = 0)")
        return self.service_distribution.sample(1.0 / mu, rng)

    def begin_switch(self, target: str) -> None:
        if target == self.mode:
            raise SimulationError("self-switches complete instantaneously")
        self.switch_target = target

    def cancel_switch(self) -> None:
        self.switch_target = None

    def finish_switch(self) -> float:
        """Complete the in-flight switch; returns the energy paid."""
        if self.switch_target is None:
            raise SimulationError("no switch in flight")
        energy = self.description.switching_energy(self.mode, self.switch_target)
        self.mode = self.switch_target
        self.switch_target = None
        return energy
