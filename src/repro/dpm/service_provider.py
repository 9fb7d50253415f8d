"""The service provider (SP) model.

Section III models the SP as a stationary controllable CTMC described by
the quadruple ``(chi, mu(s), pow(s), ene(si, sj))``:

- ``chi`` -- the *switching speed* matrix; ``chi[i, j]`` is the rate of
  the exponentially-distributed mode switch ``si -> sj`` (the average
  switching time is ``1 / chi[i, j]``). The paper sets
  ``chi[i, i] = infinity`` (self-switches are instantaneous); we keep it
  implicit and expose :attr:`ServiceProvider.self_switch_rate`, a large
  finite rate, wherever the joint model needs a numeric value.
- ``mu(s)`` -- the service rate in mode ``s``; ``1/mu(s)`` is the mean
  time to serve one request. Modes with ``mu > 0`` are *active*, the
  rest *inactive* (Section III's ``S_active`` / ``S_inactive`` split).
- ``pow(s)`` -- the power-consumption rate of mode ``s``.
- ``ene(si, sj)`` -- the energy of the ``si -> sj`` switch.

Actions are destination modes: issuing command ``a`` in mode ``s``
starts an exponential switch with rate ``chi[s, a]`` (Example 4.1).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import InvalidModelError

#: Finite stand-in for the paper's infinite self-switch speed. The mean
#: self-switch dwell ``1/DEFAULT_SELF_SWITCH_RATE`` must be negligible
#: against every real time constant of the model (service times are
#: seconds; this is 0.1 ms).
DEFAULT_SELF_SWITCH_RATE = 1e4


class ServiceProvider:
    """A multi-mode server: the paper's SP quadruple.

    Parameters
    ----------
    modes:
        Unique mode names, e.g. ``("active", "waiting", "sleeping")``.
    switching_rates:
        ``S x S`` matrix of switching speeds ``chi``; off-diagonal
        entries must be positive (every commanded switch completes in
        finite expected time). The diagonal is ignored.
    service_rates:
        Per-mode ``mu``; non-negative, and at least one mode must be
        active (``mu > 0``) or no request could ever be served.
    power:
        Per-mode power rates ``pow`` (watts); non-negative.
    switching_energy:
        ``S x S`` matrix ``ene`` of per-switch energies (joules); the
        diagonal is ignored and self-switches cost nothing.
    self_switch_rate:
        Finite numeric stand-in for the instantaneous self-switch.
    """

    def __init__(
        self,
        modes: Sequence[str],
        switching_rates: np.ndarray,
        service_rates: Sequence[float],
        power: Sequence[float],
        switching_energy: np.ndarray,
        self_switch_rate: float = DEFAULT_SELF_SWITCH_RATE,
    ) -> None:
        self._modes: Tuple[str, ...] = tuple(modes)
        if len(set(self._modes)) != len(self._modes):
            raise InvalidModelError("mode names must be unique")
        s = len(self._modes)
        if s == 0:
            raise InvalidModelError("a service provider needs at least one mode")
        chi = np.asarray(switching_rates, dtype=float)
        if chi.shape != (s, s):
            raise InvalidModelError(
                f"switching_rates shape {chi.shape} does not match {s} modes"
            )
        off_diag = chi[~np.eye(s, dtype=bool)]
        if np.any(off_diag <= 0) or not np.all(np.isfinite(off_diag)):
            raise InvalidModelError(
                "all off-diagonal switching rates must be positive and finite"
            )
        mu = np.asarray(service_rates, dtype=float)
        if mu.shape != (s,):
            raise InvalidModelError(
                f"service_rates shape {mu.shape} does not match {s} modes"
            )
        if not np.all(np.isfinite(mu)):
            raise InvalidModelError("service rates must be finite")
        if np.any(mu < 0):
            raise InvalidModelError("service rates must be non-negative")
        if not np.any(mu > 0):
            raise InvalidModelError("at least one mode must be active (mu > 0)")
        p = np.asarray(power, dtype=float)
        if p.shape != (s,):
            raise InvalidModelError(f"power shape {p.shape} does not match {s} modes")
        if not np.all(np.isfinite(p)):
            raise InvalidModelError("power rates must be finite")
        if np.any(p < 0):
            raise InvalidModelError("power rates must be non-negative")
        ene = np.asarray(switching_energy, dtype=float)
        if ene.shape != (s, s):
            raise InvalidModelError(
                f"switching_energy shape {ene.shape} does not match {s} modes"
            )
        if not np.all(np.isfinite(ene[~np.eye(s, dtype=bool)])):
            raise InvalidModelError("switching energies must be finite")
        if np.any(ene[~np.eye(s, dtype=bool)] < 0):
            raise InvalidModelError("switching energies must be non-negative")
        if self_switch_rate <= 0 or not np.isfinite(self_switch_rate):
            raise InvalidModelError("self_switch_rate must be positive and finite")
        self._chi = chi.copy()
        np.fill_diagonal(self._chi, 0.0)
        self._mu = mu.copy()
        self._power = p.copy()
        self._ene = ene.copy()
        np.fill_diagonal(self._ene, 0.0)
        self._self_switch_rate = float(self_switch_rate)
        self._index: Dict[str, int] = {m: i for i, m in enumerate(self._modes)}
        # Per-mode Python floats: the simulator asks these on every event,
        # and a dict hit is far cheaper than name -> index -> numpy scalar.
        self._mu_of: Dict[str, float] = dict(zip(self._modes, self._mu.tolist()))
        self._power_of: Dict[str, float] = dict(
            zip(self._modes, self._power.tolist())
        )
        self._active_of: Dict[str, bool] = {
            m: mu > 0.0 for m, mu in self._mu_of.items()
        }
        chi_rows, ene_rows = self._chi.tolist(), self._ene.tolist()
        self._switch_time_of: Dict[Tuple[str, str], float] = {}
        self._switch_energy_of: Dict[Tuple[str, str], float] = {}
        for i, source in enumerate(self._modes):
            for j, dest in enumerate(self._modes):
                rate = self._self_switch_rate if i == j else chi_rows[i][j]
                self._switch_time_of[source, dest] = 1.0 / rate
                self._switch_energy_of[source, dest] = ene_rows[i][j]

    @classmethod
    def from_switching_times(
        cls,
        modes: Sequence[str],
        switching_times: np.ndarray,
        service_rates: Sequence[float],
        power: Sequence[float],
        switching_energy: np.ndarray,
        self_switch_rate: float = DEFAULT_SELF_SWITCH_RATE,
    ) -> "ServiceProvider":
        """Build from *average switching times* (the paper's Eqn. 4.1(a)).

        Times are ``1 / chi``; the diagonal of *switching_times* is
        ignored.
        """
        t = np.asarray(switching_times, dtype=float)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise InvalidModelError(f"switching_times must be square, got {t.shape}")
        off = t[~np.eye(t.shape[0], dtype=bool)]
        if np.any(off <= 0):
            raise InvalidModelError("all off-diagonal switching times must be positive")
        chi = np.zeros_like(t)
        mask = ~np.eye(t.shape[0], dtype=bool)
        chi[mask] = 1.0 / t[mask]
        return cls(
            modes, chi, service_rates, power, switching_energy, self_switch_rate
        )

    # -- accessors ---------------------------------------------------------

    @property
    def modes(self) -> Tuple[str, ...]:
        return self._modes

    @property
    def n_modes(self) -> int:
        return len(self._modes)

    @property
    def self_switch_rate(self) -> float:
        return self._self_switch_rate

    def _unknown_mode(self, *modes: str) -> InvalidModelError:
        """The error for the first of *modes* that names no mode."""
        bad = next(m for m in modes if m not in self._index)
        return InvalidModelError(f"unknown mode {bad!r}")

    def index_of(self, mode: str) -> int:
        try:
            return self._index[mode]
        except KeyError:
            raise self._unknown_mode(mode) from None

    def service_rate(self, mode: str) -> float:
        """``mu(s)``; zero for inactive modes."""
        try:
            return self._mu_of[mode]
        except KeyError:
            raise self._unknown_mode(mode) from None

    def power_rate(self, mode: str) -> float:
        """``pow(s)`` in watts."""
        try:
            return self._power_of[mode]
        except KeyError:
            raise self._unknown_mode(mode) from None

    def switching_rate(self, source: str, dest: str) -> float:
        """``chi[source, dest]``; the self-switch stand-in on the diagonal."""
        i, j = self.index_of(source), self.index_of(dest)
        return self._self_switch_rate if i == j else float(self._chi[i, j])

    def switching_time(self, source: str, dest: str) -> float:
        """Mean switch duration ``1 / chi``; ~0 for self-switches."""
        try:
            return self._switch_time_of[source, dest]
        except KeyError:
            raise self._unknown_mode(source, dest) from None

    def switching_energy(self, source: str, dest: str) -> float:
        """``ene(source, dest)``; zero on the diagonal."""
        try:
            return self._switch_energy_of[source, dest]
        except KeyError:
            raise self._unknown_mode(source, dest) from None

    def is_active(self, mode: str) -> bool:
        try:
            return self._active_of[mode]
        except KeyError:
            raise self._unknown_mode(mode) from None

    @property
    def active_modes(self) -> Tuple[str, ...]:
        """Modes with ``mu > 0`` (the paper's ``S_active``)."""
        return tuple(m for m in self._modes if self.is_active(m))

    @property
    def inactive_modes(self) -> Tuple[str, ...]:
        """Modes with ``mu = 0`` (the paper's ``S_inactive``)."""
        return tuple(m for m in self._modes if not self.is_active(m))

    def wakeup_time(self, mode: str) -> float:
        """Mean time to reach the quickest active mode; 0 if active.

        Used by the paper's constraint (2): at a full queue an inactive
        SP may not move to a mode with a *longer* wakeup time.
        """
        if self.is_active(mode):
            return 0.0
        return min(self.switching_time(mode, a) for a in self.active_modes)

    def service_time(self, mode: str) -> float:
        """Mean per-request service time ``1/mu``; inf for inactive modes.

        Used by constraint (3): in the full-queue transfer state an
        active SP may not move to an active mode with longer service
        time.
        """
        mu = self.service_rate(mode)
        return np.inf if mu == 0.0 else 1.0 / mu

    def deepest_sleep_mode(self) -> str:
        """The inactive mode with the lowest power (heuristics' target).

        Falls back to the lowest-power mode overall if every mode is
        active.
        """
        candidates = self.inactive_modes or self._modes
        return min(candidates, key=self.power_rate)

    def fastest_active_mode(self) -> str:
        """The active mode with the highest service rate."""
        return max(self.active_modes, key=self.service_rate)

    def rescaled(self, exponent: int) -> "ServiceProvider":
        """A copy with every *rate* multiplied by ``2**exponent``.

        Rates (``chi``, ``mu``, ``self_switch_rate``) and power rates
        (energy per time) carry a 1/time unit and get the factor;
        switching energies are pure costs and stay put. The exact
        power-of-two factor makes this the time-unit rescaling used by
        the admission remediation ladder: a model built from the
        rescaled provider is the original model in different units, and
        (given the canonical solver normalization) solves to
        bit-identical policies, biases and distributions.
        """
        factor = float(np.ldexp(1.0, exponent))
        return ServiceProvider(
            self._modes,
            np.ldexp(self._chi, exponent),
            np.ldexp(self._mu, exponent),
            np.ldexp(self._power, exponent),
            self._ene,
            self_switch_rate=self._self_switch_rate * factor,
        )

    def generator_matrix(self, action: str) -> np.ndarray:
        """SP-only generator ``G_SP(a)`` under the constant action *a*.

        Section III: ``s_{si, sj}(a) = delta(sj, a) * chi[si, sj]`` --
        only the transition toward the action's destination is enabled.
        The self-switch row (``si == a``) is all zeros: the SP simply
        stays (the instantaneous self-switch never shows up as a rate).
        """
        j = self.index_of(action)
        s = self.n_modes
        g = np.zeros((s, s))
        for i in range(s):
            if i != j:
                g[i, j] = self._chi[i, j]
        np.fill_diagonal(g, -g.sum(axis=1))
        return g

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"ServiceProvider(modes={self._modes!r})"
