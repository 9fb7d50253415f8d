"""In-memory span tracing around calls into the program's public functions.

Spans are recorded only from the benchmark's own files: a traced run
temporarily replaces module attributes (functions, methods) with timing
wrappers and restores them on exit. Nothing under ``src/`` opens a span.
Each span has a name, start, end and parent; the spans of one run stay in
memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterator, List, Optional

from common import at_reference, median, speed_sample


class Tracer:
    """Records nested spans and per-layer counters in memory."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Dict[str, Any]]:
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
            "attrs": attrs,
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        except BaseException:
            record["attrs"]["error"] = True
            raise
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        on_call: Optional[Callable[[Dict[str, Any], tuple, dict, Any], None]] = None,
    ) -> Callable[..., Any]:
        """*fn* inside a span; ``on_call(record, args, kwargs, result)``
        runs after a successful call to attach counts."""

        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if on_call is not None:
                on_call(record, args, kwargs, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- summaries -----------------------------------------------------------

    @staticmethod
    def duration(record: Dict[str, Any]) -> float:
        return record["end"] - record["start"]

    def total(self, name: str) -> float:
        """Summed wall time of every span called *name*."""
        return sum(self.duration(s) for s in self.spans if s["name"] == name)

    def durations(self, name: str) -> List[float]:
        return [self.duration(s) for s in self.spans if s["name"] == name]

    def self_times(self) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += self.duration(s)
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += self.duration(s) - child_time[s["id"]]
        return dict(out)

    def root_time(self, since: float = float("-inf")) -> float:
        """Wall time covered by root spans that started after *since*."""
        return sum(
            self.duration(s)
            for s in self.spans
            if s["parent"] is None and s["start"] >= since
        )

    def to_document(self, origin: float) -> Dict[str, Any]:
        """Spans with times relative to *origin*, plus self times."""
        return {
            "spans": [
                {
                    **s,
                    "start": s["start"] - origin,
                    "end": s["end"] - origin,
                }
                for s in self.spans
            ],
            "self_s": self.self_times(),
            "counts": dict(self.counts),
        }


@contextlib.contextmanager
def patched(owner: Any, attr: str, replacement: Any) -> Iterator[None]:
    """Replace ``owner.attr`` for the duration of the block."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def install(
    stack: contextlib.ExitStack,
    tracer: Tracer,
    owner: Any,
    attr: str,
    name: str,
    on_call: Optional[Callable[..., None]] = None,
) -> None:
    """Wrap ``owner.attr`` in a span called *name* until *stack* closes."""
    original = getattr(owner, attr)
    stack.enter_context(patched(owner, attr, tracer.wrap(original, name, on_call)))


class OpTimer:
    """Times and counts the operations of an untraced run.

    Wraps one public function per workload (one simulation, one
    per-weight solve): two clock reads per call, no spans. A *paced*
    timer also takes a host-speed sample before each call, and one more
    at :meth:`close`, so that :meth:`at_reference` can put each operation
    on reference speed.
    """

    def __init__(self, paced: bool = False) -> None:
        self.paced = paced
        self.seconds: List[float] = []
        self.samples: List[float] = []
        self.sampling_s = 0.0
        self.attempted = 0
        self.failed = 0

    def _sample(self) -> None:
        started = time.perf_counter()
        self.samples.append(speed_sample())
        self.sampling_s += time.perf_counter() - started

    def wrap(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            self.attempted += 1
            if self.paced:
                self._sample()
            started = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.failed += 1
                raise
            self.seconds.append(time.perf_counter() - started)
            return result

        return timed

    def close(self) -> None:
        """Takes the sample after the last operation (paced timers)."""
        if self.paced:
            self._sample()

    def reference_seconds(self) -> List[float]:
        """Each operation's time at reference speed, with the mean of the
        samples just before and just after it (a closed paced timer)."""
        paired = [(a + b) / 2 for a, b in zip(self.samples, self.samples[1:])]
        return [at_reference(d, c) for d, c in zip(self.seconds, paired)]

    def at_reference(self, wall: float) -> float:
        """A job's *wall* time, measured around every call of this closed
        paced timer, at reference speed, and without the samples' own
        time. The time between operations goes at their median speed."""
        between = wall - self.sampling_s - sum(self.seconds)
        return sum(self.reference_seconds()) + at_reference(
            between, median(self.samples)
        )
