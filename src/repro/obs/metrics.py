"""Metric primitives and the mergeable :class:`MetricsRegistry`.

Four instrument kinds, chosen for the stack's needs:

- :class:`Counter` -- monotonically accumulating totals (events seen,
  PM commands issued, solver rounds);
- :class:`Gauge` -- last-written scalar (events/second of a run);
- :class:`Histogram` -- fixed-bucket distribution sketch with
  log-spaced bounds by default (queue occupancy, waiting times,
  decision latencies);
- :class:`Series` -- an append-only list of structured records (the
  per-iteration solver convergence trace).

**Deterministic merging** is the design center: the parallel engine
gives every worker its own registry and merges them back in input
order, and the merged result must be *bit-for-bit identical* to the
registry a serial run would have produced -- for any chunking. Integer
accumulation is associative already; floating-point accumulation is
not, so counters and histogram sums accumulate into exact Shewchuk
partial-sum arrays (the ``math.fsum`` representation). Exact sums are
associative and commutative, which makes ``merge`` order-insensitive
at the value level and chunking-insensitive bit-for-bit.

Wall-clock measurements can never merge deterministically; instruments
carrying them are created with ``profiling=True`` (or declare
``profiling_fields`` on a series) and are excluded by
``to_dict(deterministic_only=True)``, which is what identity tests and
the parallel-equals-serial contract compare.
"""

from __future__ import annotations

import bisect
import math
from typing import Any, Dict, Iterable, List, Mapping, Sequence, Tuple

from repro.errors import ReproError


class ObservabilityError(ReproError):
    """Misuse of the metrics/trace layer (type clash, bucket mismatch)."""


def _grow_partials(partials: "List[float]", x: float) -> None:
    """Add *x* into a Shewchuk exact partial-sum array, in place.

    The array represents the exact real sum of everything added so far;
    adding is therefore associative and commutative, which is what makes
    registry merges independent of worker chunking.
    """
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


class _ExactSum:
    """Exactly accumulated float sum (associative, mergeable)."""

    __slots__ = ("partials",)

    def __init__(self) -> None:
        self.partials: List[float] = []

    def add(self, x: float) -> None:
        _grow_partials(self.partials, float(x))

    def merge(self, other: "_ExactSum") -> None:
        for x in other.partials:
            _grow_partials(self.partials, x)

    @property
    def value(self) -> float:
        return math.fsum(self.partials)

    def canonical(self) -> "List[float]":
        """The exact sum as a canonical list of float terms.

        Greedy correctly-rounded expansion: the first term is the
        rounded total, the next the rounded remainder, and so on until
        the remainder is zero. Unlike the internal ``partials`` array
        (whose layout depends on insertion order), this depends only on
        the exact value -- so serialized snapshots compare equal
        whenever the exact sums are equal.
        """
        terms: List[float] = []
        parts = list(self.partials)
        while parts:
            total = math.fsum(parts)
            if total == 0.0:
                break
            terms.append(total)
            _grow_partials(parts, -total)
            parts = [p for p in parts if p != 0.0]
        return terms


def log_buckets(
    low: float = 1e-6, high: float = 1e4, per_decade: int = 2
) -> "Tuple[float, ...]":
    """Log-spaced histogram bucket bounds covering ``[low, high]``.

    Returns the finite upper bounds; observations above the last bound
    land in the overflow bucket, observations at or below ``low``'s
    first bound in the first bucket.
    """
    if not (low > 0 and high > low and per_decade >= 1):
        raise ObservabilityError(
            f"invalid bucket spec: low={low}, high={high}, per_decade={per_decade}"
        )
    n_decades = math.log10(high / low)
    n = int(round(n_decades * per_decade))
    return tuple(low * 10 ** (k / per_decade) for k in range(n + 1))


#: Default bounds: 1e-6 .. 1e4 at two buckets per decade -- wide enough
#: for seconds-scale latencies, queue occupancies, and waiting times.
DEFAULT_BUCKETS = log_buckets()


class Counter:
    """A monotone total. Float increments accumulate exactly."""

    kind = "counter"

    __slots__ = ("name", "profiling", "_int", "_float")

    def __init__(self, name: str, profiling: bool = False) -> None:
        self.name = name
        self.profiling = profiling
        self._int = 0
        self._float = _ExactSum()

    def inc(self, amount: "int | float" = 1) -> None:
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (inc({amount}))"
            )
        if isinstance(amount, int):
            self._int += amount
        else:
            self._float.add(amount)

    @property
    def value(self) -> "int | float":
        if self._float.partials:
            return self._int + self._float.value
        return self._int

    def merge(self, other: "Counter") -> None:
        self._int += other._int
        self._float.merge(other._float)

    def to_dict(self) -> "Dict[str, Any]":
        payload: Dict[str, Any] = {"type": self.kind, "value": self.value}
        canon = self._float.canonical()
        if canon:
            # Ship the exact-sum expansion so a cross-process merge
            # stays bit-for-bit identical to the serial accumulation
            # (the rounded "value" alone would re-round per chunk).
            payload["int"] = self._int
            payload["partials"] = canon
        return payload

    def merge_dict(self, payload: "Mapping[str, Any]") -> None:
        if "partials" in payload:
            self._int += payload["int"]
            for x in payload["partials"]:
                self._float.add(x)
        else:
            self.inc(payload["value"])


class Gauge:
    """A last-write-wins scalar. Merge takes the other's value if set."""

    kind = "gauge"

    __slots__ = ("name", "profiling", "_value", "_set")

    def __init__(self, name: str, profiling: bool = False) -> None:
        self.name = name
        self.profiling = profiling
        self._value = 0.0
        self._set = False

    def set(self, value: float) -> None:
        self._value = float(value)
        self._set = True

    @property
    def value(self) -> float:
        return self._value

    def merge(self, other: "Gauge") -> None:
        if other._set:
            self._value = other._value
            self._set = True

    def to_dict(self) -> "Dict[str, Any]":
        return {"type": self.kind, "value": self._value, "set": self._set}

    def merge_dict(self, payload: "Mapping[str, Any]") -> None:
        if payload.get("set", True):
            self.set(payload["value"])


class Histogram:
    """Fixed-bound bucket histogram with exact sum accumulation.

    ``bounds`` are the finite upper bounds (inclusive) of the first
    ``len(bounds)`` buckets; one overflow bucket catches everything
    larger. Log-spaced :data:`DEFAULT_BUCKETS` by default. Two
    histograms merge bucket-wise, which requires identical bounds.
    """

    kind = "histogram"

    __slots__ = ("name", "profiling", "bounds", "counts", "_sum", "count",
                 "min", "max")

    def __init__(
        self,
        name: str,
        bounds: "Sequence[float] | None" = None,
        profiling: bool = False,
    ) -> None:
        self.name = name
        self.profiling = profiling
        self.bounds: Tuple[float, ...] = (
            DEFAULT_BUCKETS if bounds is None else tuple(float(b) for b in bounds)
        )
        if list(self.bounds) != sorted(set(self.bounds)):
            raise ObservabilityError(
                f"histogram {name!r} bounds must be strictly increasing"
            )
        self.counts = [0] * (len(self.bounds) + 1)
        self._sum = _ExactSum()
        self.count = 0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[self._bucket(value)] += 1
        self._sum.add(value)
        self.count += 1
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_tally(self, tally: "Sequence[int]") -> None:
        """Observe ``tally[v]`` copies of each integer value ``v``.

        The bulk form of :meth:`observe` for integer-valued signals
        counted per run (queue occupancies): integer products are exact,
        so buckets, count, exact sum, min and max -- and hence the
        export -- equal those of observing every value one by one.
        """
        for value, times in enumerate(tally):
            if times:
                self.counts[self._bucket(value)] += times
                self._sum.add(float(value * times))
                self.count += times
                if value < self.min:
                    self.min = float(value)
                if value > self.max:
                    self.max = float(value)

    def _bucket(self, value: float) -> int:
        # bisect over a ~20-entry tuple; fine for per-event rates.
        return bisect.bisect_left(self.bounds, value)

    @property
    def sum(self) -> float:
        return self._sum.value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def merge(self, other: "Histogram") -> None:
        if other.bounds != self.bounds:
            raise ObservabilityError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        self.counts = [a + b for a, b in zip(self.counts, other.counts)]
        self._sum.merge(other._sum)
        self.count += other.count
        self.min = min(self.min, other.min)
        self.max = max(self.max, other.max)

    def to_dict(self) -> "Dict[str, Any]":
        payload: Dict[str, Any] = {
            "type": self.kind,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "sum": self.sum,
            "min": None if self.count == 0 else self.min,
            "max": None if self.count == 0 else self.max,
        }
        canon = self._sum.canonical()
        if canon:
            # Exact-sum expansion for bit-for-bit cross-process merging;
            # see Counter.to_dict.
            payload["sum_partials"] = canon
        return payload

    def merge_dict(self, payload: "Mapping[str, Any]") -> None:
        if tuple(payload["bounds"]) != self.bounds:
            raise ObservabilityError(
                f"cannot merge histogram {self.name!r}: bucket bounds differ"
            )
        self.counts = [a + b for a, b in zip(self.counts, payload["counts"])]
        if "sum_partials" in payload:
            for x in payload["sum_partials"]:
                self._sum.add(x)
        elif payload["count"]:
            self._sum.add(payload["sum"])
        self.count += payload["count"]
        if payload["count"]:
            self.min = min(self.min, payload["min"])
            self.max = max(self.max, payload["max"])


class Series:
    """Append-only structured records (e.g. per-iteration solver rows).

    ``profiling_fields`` names record keys that carry wall-clock values;
    they are stripped by the deterministic view so convergence traces
    can carry sweep timings without breaking the parallel-equals-serial
    identity.
    """

    kind = "series"

    __slots__ = ("name", "profiling", "profiling_fields", "records")

    def __init__(
        self,
        name: str,
        profiling: bool = False,
        profiling_fields: "Iterable[str]" = (),
    ) -> None:
        self.name = name
        self.profiling = profiling
        self.profiling_fields = tuple(profiling_fields)
        self.records: List[Dict[str, Any]] = []

    def append(self, **fields: Any) -> None:
        self.records.append(fields)

    def __len__(self) -> int:
        return len(self.records)

    def merge(self, other: "Series") -> None:
        self.records.extend(dict(r) for r in other.records)

    def to_dict(self, deterministic_only: bool = False) -> "Dict[str, Any]":
        if deterministic_only and self.profiling_fields:
            drop = set(self.profiling_fields)
            records = [
                {k: v for k, v in r.items() if k not in drop}
                for r in self.records
            ]
        else:
            records = [dict(r) for r in self.records]
        return {
            "type": self.kind,
            "profiling_fields": list(self.profiling_fields),
            "records": records,
        }

    def merge_dict(self, payload: "Mapping[str, Any]") -> None:
        self.records.extend(dict(r) for r in payload["records"])


_KINDS = {c.kind: c for c in (Counter, Gauge, Histogram, Series)}


class MetricsRegistry:
    """Name-indexed instruments with get-or-create access and merging.

    Not thread-safe by design: each worker owns one registry and the
    parent merges serially. Instruments are identified by name alone;
    re-requesting a name returns the existing instrument, and asking for
    a different kind under the same name is an error.
    """

    def __init__(self) -> None:
        self._instruments: "Dict[str, Any]" = {}

    def _get(self, cls, name: str, **kwargs):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = cls(name, **kwargs)
            self._instruments[name] = instrument
        elif not isinstance(instrument, cls):
            raise ObservabilityError(
                f"metric {name!r} already registered as {instrument.kind}, "
                f"requested {cls.kind}"
            )
        return instrument

    def counter(self, name: str, profiling: bool = False) -> Counter:
        return self._get(Counter, name, profiling=profiling)

    def gauge(self, name: str, profiling: bool = False) -> Gauge:
        return self._get(Gauge, name, profiling=profiling)

    def histogram(
        self,
        name: str,
        bounds: "Sequence[float] | None" = None,
        profiling: bool = False,
    ) -> Histogram:
        return self._get(Histogram, name, bounds=bounds, profiling=profiling)

    def series(
        self,
        name: str,
        profiling: bool = False,
        profiling_fields: "Iterable[str]" = (),
    ) -> Series:
        return self._get(
            Series, name, profiling=profiling, profiling_fields=profiling_fields
        )

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def get(self, name: str):
        """The instrument registered under *name*, or ``None``."""
        return self._instruments.get(name)

    def names(self) -> "List[str]":
        return sorted(self._instruments)

    # -- merging and serialization -------------------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold *other* into this registry (the parallel-join primitive)."""
        for name, instrument in other._instruments.items():
            mine = self._get(
                type(instrument),
                name,
                **_creation_kwargs(instrument),
            )
            mine.merge(instrument)

    def merge_dict(self, data: "Mapping[str, Mapping[str, Any]]") -> None:
        """Fold a serialized registry (``to_dict`` output) into this one.

        This is how worker registries cross the process boundary: the
        worker serializes, the parent merges in input order.
        """
        for name, payload in data.items():
            cls = _KINDS.get(payload.get("type"))
            if cls is None:
                raise ObservabilityError(
                    f"unknown metric type {payload.get('type')!r} for {name!r}"
                )
            kwargs: Dict[str, Any] = {"profiling": payload.get("profiling", False)}
            if cls is Histogram:
                kwargs["bounds"] = payload["bounds"]
            if cls is Series:
                kwargs["profiling_fields"] = payload.get("profiling_fields", ())
            self._get(cls, name, **kwargs).merge_dict(payload)

    def to_dict(self, deterministic_only: bool = False) -> "Dict[str, Any]":
        """Serializable snapshot, names sorted for stable output.

        ``deterministic_only`` drops instruments created with
        ``profiling=True`` and strips series ``profiling_fields`` --
        the view under which parallel and serial runs are identical.
        """
        out: Dict[str, Any] = {}
        for name in sorted(self._instruments):
            instrument = self._instruments[name]
            if deterministic_only and instrument.profiling:
                continue
            if isinstance(instrument, Series):
                payload = instrument.to_dict(deterministic_only=deterministic_only)
            else:
                payload = instrument.to_dict()
            if instrument.profiling:
                payload["profiling"] = True
            out[name] = payload
        return out


def _creation_kwargs(instrument) -> "Dict[str, Any]":
    kwargs: Dict[str, Any] = {"profiling": instrument.profiling}
    if isinstance(instrument, Histogram):
        kwargs["bounds"] = instrument.bounds
    if isinstance(instrument, Series):
        kwargs["profiling_fields"] = instrument.profiling_fields
    return kwargs
