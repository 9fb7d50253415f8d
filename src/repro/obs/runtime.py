"""Ambient instrumentation context -- a true no-op by default.

The observability layer is threaded through *every* hot path (solver
sweeps, simulator events, parallel fan-outs), so it must cost nothing
when nobody asked for it. Instead of plumbing registry/tracer
parameters through every signature, instrumented code reads the
module-level :func:`active` context:

    ins = active()
    if ins.enabled:
        ins.metrics.counter("sim.events").inc()

Disabled (the default), ``active()`` returns the shared
:data:`DISABLED` singleton whose ``enabled`` is ``False`` -- the guard
is one C-level :meth:`contextvars.ContextVar.get` plus one attribute
check, measured at nanoseconds per event by
``benchmarks/test_bench_obs_overhead.py``. Hot loops hoist ``active()``
once and keep per-event work behind ``enabled`` / ``is not None``
checks.

:func:`instrument` activates a registry and/or tracer for a ``with``
block and restores the previous context on exit (re-entrant; nested
activations stack). The activation belongs to the current
:mod:`contextvars` context: asyncio tasks inherit it, and a thread sees
it only when started under :func:`run_in_thread_context`. Forked pool
workers inherit it through the process image; :mod:`repro.sim.parallel`
gives each worker a fresh registry under :func:`instrument` and merges
the snapshots back into the parent's context in input order.
"""

from __future__ import annotations

import contextvars
import functools
from contextlib import contextmanager
from typing import Callable, Iterator, Optional

from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer


class _NullSpan:
    """Shared do-nothing context manager for disabled tracing."""

    __slots__ = ("attrs",)

    def __init__(self) -> None:
        self.attrs: dict = {}

    def __enter__(self) -> "_NullSpan":
        self.attrs = {}
        return self

    def __exit__(self, *exc) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Instrumentation:
    """A (metrics, tracer) pair; ``enabled`` iff either is present."""

    __slots__ = ("metrics", "tracer", "enabled")

    def __init__(
        self,
        metrics: "Optional[MetricsRegistry]" = None,
        tracer: "Optional[Tracer]" = None,
    ) -> None:
        self.metrics = metrics
        self.tracer = tracer
        self.enabled = metrics is not None or tracer is not None

    def span(self, name: str, **attrs):
        """A tracer span when tracing is active, else a shared no-op."""
        if self.tracer is not None:
            return self.tracer.span(name, **attrs)
        return _NULL_SPAN


#: The permanent disabled context returned by :func:`active` by default.
DISABLED = Instrumentation()

_ACTIVE: "contextvars.ContextVar[Instrumentation]" = contextvars.ContextVar(
    "repro_obs_active", default=DISABLED
)
# Set, not just defaulted: ``get`` caches a value it finds in the
# context, but looks a defaulted variable up again on every call.
_ACTIVE.set(DISABLED)

#: The currently active instrumentation (never ``None``). A bound C
#: method rather than a Python function: the disabled guard is priced
#: per simulated event, and a Python-level call costs twice as much.
active: "Callable[[], Instrumentation]" = _ACTIVE.get


@contextmanager
def instrument(
    metrics: "Optional[MetricsRegistry]" = None,
    tracer: "Optional[Tracer]" = None,
) -> "Iterator[Instrumentation]":
    """Activate *metrics*/*tracer* for the block; restores on exit."""
    ins = Instrumentation(metrics=metrics, tracer=tracer)
    token = _ACTIVE.set(ins)
    try:
        yield ins
    finally:
        _ACTIVE.reset(token)


def run_in_thread_context(target: Callable[..., object]) -> Callable[..., object]:
    """*target* bound to a copy of the caller's context, for a new thread.

    A thread starts in an empty context, so without this it would see
    :data:`DISABLED` even when started inside :func:`instrument`.
    """
    return functools.partial(contextvars.copy_context().run, target)
