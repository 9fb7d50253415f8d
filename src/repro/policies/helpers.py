"""Shared policy plumbing.

:func:`command_if_needed` turns a *desired* SP trajectory into the
minimal command: issue nothing when the provider is already in (or
already switching to) the desired mode, except at transfer decision
points where an explicit "stay" is meaningful (it resolves the transfer
instantly). Keeping this in one place makes PM-command counts
comparable across policies.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.policies.base import NO_DECISION, Decision, SystemView


@lru_cache(maxsize=128)
def _command(mode: str) -> Decision:
    """The shared command-only decision for *mode* (bounded: far more
    entries than any provider has modes)."""
    return Decision(command=mode)


def command_if_needed(
    view: SystemView,
    desired: Optional[str],
    recheck_after: Optional[float] = None,
) -> Decision:
    """The minimal :class:`Decision` steering toward *desired*.

    Without a recheck the answer is :data:`NO_DECISION` or the memoized
    command for *desired* (decisions are frozen, so sharing is safe);
    only a timer request builds a fresh decision.
    """
    if desired is not None and not view.in_transfer:
        # Steering where the SP already heads needs no command. At a
        # transfer point an explicit command (even "stay") is the
        # decision; the simulator treats a missing command as "stay".
        target = view.switch_target
        if desired == (target if target is not None else view.mode):
            desired = None
    if recheck_after is not None:
        return Decision(command=desired, recheck_after=recheck_after)
    return NO_DECISION if desired is None else _command(desired)
