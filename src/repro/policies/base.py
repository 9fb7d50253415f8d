"""The power-manager interface between policies and the simulator.

The PM "reads the system state and issues mode-switching commands to the
SP" (Section III). The simulator hands the policy a :class:`SystemView`
snapshot on every state change and receives a :class:`Decision` back:

- ``Decision.command`` -- a destination mode for the SP (``None`` means
  no command; during a *transfer* decision ``None`` means "stay and keep
  serving");
- ``Decision.recheck_after`` -- ask to be woken again after a delay *if
  nothing else changes first* (how timeout policies are expressed; the
  simulator drops stale timers automatically).

Events carried by ``SystemView.event``:

- ``"start"`` -- simulation begin (choose the initial stance);
- ``"arrival"`` -- a request was admitted (or lost, see
  ``view.arrival_lost``);
- ``"service_complete"`` -- a request departed; ``view.in_transfer`` is
  True: this is the paper's transfer-state decision point;
- ``"switch_complete"`` -- a commanded mode switch finished;
- ``"timer"`` -- a previously requested recheck fired with no
  intervening state change.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.dpm.service_provider import ServiceProvider


@dataclass
class SystemView:
    """Snapshot of the system handed to the policy.

    A slotted record the simulator fills positionally from its own
    fields, fresh for every invocation, and never reads back: a policy
    may keep a view (or a :func:`dataclasses.replace` copy of it), and
    nothing it does to one changes the simulation. Field order is the
    positional contract.

    Attributes
    ----------
    time:
        Current simulation time.
    event:
        What just happened (see module docstring).
    mode:
        The SP's current mode (the *source* mode while a switch is in
        flight).
    switch_target:
        Destination of an in-flight switch, else ``None``.
    in_transfer:
        True between a service completion and the completion of the
        switch the PM commanded there -- the paper's transfer state.
    occupancy:
        Requests in the system, in-service included (the model's
        ``q_i``).
    waiting_count:
        Requests waiting, in-service excluded.
    is_serving:
        True while a request is in service.
    capacity:
        The queue capacity ``Q``.
    arrival_lost:
        On an ``"arrival"`` event, whether the request was dropped.
    provider:
        The SP description (modes, rates, powers) for policy decisions.
    """

    time: float
    event: str
    mode: str
    switch_target: Optional[str]
    in_transfer: bool
    occupancy: int
    waiting_count: int
    is_serving: bool
    capacity: int
    arrival_lost: bool
    provider: ServiceProvider

    __slots__ = (
        "time", "event", "mode", "switch_target", "in_transfer", "occupancy",
        "waiting_count", "is_serving", "capacity", "arrival_lost", "provider",
    )

    @property
    def is_idle(self) -> bool:
        """No requests anywhere in the system."""
        return self.occupancy == 0


@dataclass(frozen=True)
class Decision:
    """The policy's answer to one invocation.

    Frozen, so one instance may answer many invocations: the shared
    plumbing returns :data:`NO_DECISION` or a memoized per-mode command
    rather than building a fresh decision each time.
    """

    command: Optional[str] = None
    recheck_after: Optional[float] = None


#: The no-op decision.
NO_DECISION = Decision()


class PowerManagementPolicy:
    """Base class for event-driven power managers."""

    #: Set by clairvoyant policies; the simulator then exposes lookahead.
    clairvoyant: bool = False

    def reset(self) -> None:
        """Clear internal state before a fresh simulation run."""

    def decide(self, view: SystemView) -> Decision:
        """React to a system state change; see the module docstring."""
        raise NotImplementedError

    @property
    def name(self) -> str:
        """Human-readable policy name for reports."""
        return type(self).__name__
