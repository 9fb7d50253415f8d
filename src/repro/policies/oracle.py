"""Clairvoyant break-even policy (an energy lower-bound reference).

Knows the exact arrival trace. At each idle start it compares the
upcoming idle period ``T`` against the classical break-even time

``T_be = (E_down + E_up) / (P_active - P_sleep)``

and sleeps only when ``T > T_be``; it also pre-wakes so the (mean)
wake-up switch completes roughly when the next request lands. This is
the standard oracle used in the DPM literature to bound what any online
policy (including the CTMDP-optimal one) can achieve on a given trace.
Not part of the paper's experiments -- provided as an extension
reference for the examples and ablation benches.
"""

from __future__ import annotations

from typing import Optional

from repro.dpm.service_provider import ServiceProvider
from repro.errors import InvalidPolicyError
from repro.policies.base import Decision, PowerManagementPolicy, SystemView
from repro.policies.helpers import command_if_needed
from repro.sim.workload import TraceArrivals


def break_even_time(
    provider: ServiceProvider, sleep_mode: str, active_mode: str
) -> float:
    """Idle duration above which sleeping saves energy.

    Uses mean switching energies and the active/sleep power gap; the
    denominator is guaranteed positive for any sensible device (sleep
    draws less than active).
    """
    power_gap = provider.power_rate(active_mode) - provider.power_rate(sleep_mode)
    if power_gap <= 0:
        raise InvalidPolicyError(
            f"sleep mode {sleep_mode!r} does not draw less power than "
            f"active mode {active_mode!r}"
        )
    round_trip_energy = provider.switching_energy(
        active_mode, sleep_mode
    ) + provider.switching_energy(sleep_mode, active_mode)
    return round_trip_energy / power_gap


class OracleIdlePolicy(PowerManagementPolicy):
    """Trace-clairvoyant sleep-or-stay decisions with pre-wake.

    Parameters
    ----------
    trace:
        The exact arrival trace the simulation will replay; must be the
        same object passed to the simulator as the workload.
    provider:
        SP description.
    sleep_mode, active_mode:
        Mode choices as in the other policies.
    """

    clairvoyant = True

    def __init__(
        self,
        trace: TraceArrivals,
        provider: ServiceProvider,
        sleep_mode: Optional[str] = None,
        active_mode: Optional[str] = None,
    ) -> None:
        self._trace = trace
        self.sleep_mode = (
            sleep_mode if sleep_mode is not None else provider.deepest_sleep_mode()
        )
        self.active_mode = (
            active_mode if active_mode is not None else provider.fastest_active_mode()
        )
        self._break_even = break_even_time(provider, self.sleep_mode, self.active_mode)
        self._wake_latency = provider.switching_time(self.sleep_mode, self.active_mode)

    @property
    def name(self) -> str:
        return "OracleIdlePolicy"

    def decide(self, view: SystemView) -> Decision:
        if view.occupancy > 0:
            heading = (
                view.switch_target if view.switch_target is not None else view.mode
            )
            if not view.provider.is_active(heading):
                return command_if_needed(view, self.active_mode)
            return command_if_needed(view, None)
        # Idle: consult the future.
        next_arrival = self._trace.peek_after(view.time)
        if next_arrival is None:
            # No more requests ever: sleep unconditionally.
            return command_if_needed(view, self.sleep_mode)
        idle_period = next_arrival - view.time
        heading = view.switch_target if view.switch_target is not None else view.mode
        if view.provider.is_active(heading):
            if idle_period > self._break_even:
                return command_if_needed(view, self.sleep_mode)
            return command_if_needed(view, None)
        # Already down (or going down): schedule the pre-wake so the mean
        # wake-up completes as the request arrives.
        prewake_in = idle_period - self._wake_latency
        # When the pre-wake timer fires, rounding can leave a remainder
        # below one ulp of the clock; re-requesting it would fire again
        # at the same instant forever. Wake within the epsilon instead.
        if prewake_in <= 1e-9 * max(1.0, abs(view.time)):
            return command_if_needed(view, self.active_mode)
        return command_if_needed(view, None, recheck_after=prewake_in)