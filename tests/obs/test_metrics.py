"""Tests for the metric primitives and registry merge semantics.

The central contract: a registry assembled by merging per-chunk
registries (in chunk order) is *bit-for-bit identical* to the registry
a single serial pass would have produced -- for any chunking. That is
what lets the parallel engine report the same metrics as a serial run.
"""

from __future__ import annotations

import json
import random

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    ObservabilityError,
    Series,
    log_buckets,
)


class TestCounter:
    def test_int_increments(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5
        assert isinstance(c.value, int)

    def test_float_increments_exact(self):
        c = Counter("c")
        for _ in range(10):
            c.inc(0.1)
        assert c.value == 1.0  # fsum is exact; naive sum would drift

    def test_negative_rejected(self):
        with pytest.raises(ObservabilityError):
            Counter("c").inc(-1)

    def test_merge_sums(self):
        a, b = Counter("c"), Counter("c")
        a.inc(2)
        a.inc(0.25)
        b.inc(3)
        b.inc(0.5)
        a.merge(b)
        assert a.value == 5.75


class TestGauge:
    def test_last_write_wins(self):
        g = Gauge("g")
        g.set(1.0)
        g.set(7.0)
        assert g.value == 7.0

    def test_merge_ignores_unset(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(3.0)
        a.merge(b)
        assert a.value == 3.0

    def test_merge_takes_set_value(self):
        a, b = Gauge("g"), Gauge("g")
        a.set(3.0)
        b.set(9.0)
        a.merge(b)
        assert a.value == 9.0


class TestHistogram:
    def test_default_bounds(self):
        assert Histogram("h").bounds == DEFAULT_BUCKETS

    def test_upper_bounds_inclusive(self):
        h = Histogram("h", bounds=(1.0, 2.0))
        h.observe(1.0)  # lands in the first bucket (<= 1.0)
        h.observe(1.5)
        h.observe(5.0)  # overflow
        assert h.counts == [1, 1, 1]
        assert h.count == 3
        assert h.min == 1.0
        assert h.max == 5.0

    def test_sum_and_mean(self):
        h = Histogram("h", bounds=(10.0,))
        for v in (0.1, 0.2, 0.3):
            h.observe(v)
        assert h.sum == pytest.approx(0.6)
        assert h.mean == pytest.approx(0.2)

    def test_non_increasing_bounds_rejected(self):
        with pytest.raises(ObservabilityError):
            Histogram("h", bounds=(2.0, 1.0))

    def test_merge_requires_identical_bounds(self):
        a = Histogram("h", bounds=(1.0, 2.0))
        b = Histogram("h", bounds=(1.0, 3.0))
        with pytest.raises(ObservabilityError):
            a.merge(b)

    def test_merge_bucketwise(self):
        a = Histogram("h", bounds=(1.0, 2.0))
        b = Histogram("h", bounds=(1.0, 2.0))
        a.observe(0.5)
        b.observe(1.5)
        b.observe(9.0)
        a.merge(b)
        assert a.counts == [1, 1, 1]
        assert a.count == 3

    def test_log_buckets_invalid(self):
        with pytest.raises(ObservabilityError):
            log_buckets(low=-1.0)


class TestSeries:
    def test_append_and_len(self):
        s = Series("s")
        s.append(iteration=1, residual=0.5)
        assert len(s) == 1
        assert s.records == [{"iteration": 1, "residual": 0.5}]

    def test_deterministic_view_strips_profiling_fields(self):
        s = Series("s", profiling_fields=("sweep_s",))
        s.append(iteration=1, sweep_s=0.01)
        full = s.to_dict()
        det = s.to_dict(deterministic_only=True)
        assert full["records"][0] == {"iteration": 1, "sweep_s": 0.01}
        assert det["records"][0] == {"iteration": 1}

    def test_merge_concatenates(self):
        a, b = Series("s"), Series("s")
        a.append(i=1)
        b.append(i=2)
        a.merge(b)
        assert [r["i"] for r in a.records] == [1, 2]


class TestRegistry:
    def test_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("c") is reg.counter("c")
        assert "c" in reg
        assert len(reg) == 1
        assert reg.get("missing") is None

    def test_kind_clash_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ObservabilityError):
            reg.gauge("x")

    def test_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]

    def test_deterministic_view_drops_profiling_instruments(self):
        reg = MetricsRegistry()
        reg.counter("keep").inc()
        reg.histogram("profile.drop", profiling=True).observe(0.5)
        full = reg.to_dict()
        det = reg.to_dict(deterministic_only=True)
        assert set(full) == {"keep", "profile.drop"}
        assert full["profile.drop"]["profiling"] is True
        assert set(det) == {"keep"}

    def test_merge_dict_unknown_type_rejected(self):
        with pytest.raises(ObservabilityError):
            MetricsRegistry().merge_dict({"x": {"type": "bogus"}})


def _populate(reg: MetricsRegistry, values) -> None:
    """One deterministic workload against a registry."""
    for v in values:
        reg.counter("events").inc()
        reg.counter("total").inc(v)
        reg.histogram("dist").observe(v)
        reg.series("trace", profiling_fields=("t_s",)).append(v=v, t_s=v / 7)
    reg.gauge("last").set(values[-1])


class TestMergeIdentity:
    """Chunked merge == serial, bit-for-bit, for any chunking."""

    @pytest.fixture(scope="class")
    def values(self):
        rng = random.Random(1999)
        # Adversarial magnitudes: naive float summation would round
        # differently depending on the accumulation order.
        return [rng.uniform(0, 1) * 10 ** rng.randint(-8, 8) for _ in range(400)]

    @pytest.fixture(scope="class")
    def serial(self, values):
        reg = MetricsRegistry()
        _populate(reg, values)
        return json.dumps(reg.to_dict(), sort_keys=True)

    @pytest.mark.parametrize("n_chunks", [1, 2, 3, 7, 400])
    def test_object_merge_identity(self, values, serial, n_chunks):
        parent = MetricsRegistry()
        size = -(-len(values) // n_chunks)
        for start in range(0, len(values), size):
            worker = MetricsRegistry()
            _populate(worker, values[start:start + size])
            parent.merge(worker)
        assert json.dumps(parent.to_dict(), sort_keys=True) == serial

    @pytest.mark.parametrize("n_chunks", [2, 5])
    def test_dict_merge_identity(self, values, serial, n_chunks):
        """The cross-process path (serialized snapshots) agrees too."""
        parent = MetricsRegistry()
        size = -(-len(values) // n_chunks)
        for start in range(0, len(values), size):
            worker = MetricsRegistry()
            _populate(worker, values[start:start + size])
            # Round-trip through JSON exactly as the pool does.
            parent.merge_dict(json.loads(json.dumps(worker.to_dict())))
        parent_json = json.dumps(parent.to_dict(), sort_keys=True)
        # Histogram sums cross the boundary as a single float (already
        # exact), so the serialized path agrees with serial exactly.
        assert parent_json == serial



class TestObserveTally:
    """A per-run integer tally folds in exactly like per-event observes."""

    BOUNDS = tuple(float(i) for i in range(65))

    @staticmethod
    def _export(reg: MetricsRegistry) -> str:
        return json.dumps(reg.to_dict(), sort_keys=True)

    @pytest.fixture(scope="class")
    def runs(self):
        rng = random.Random(2024)
        # Occupancy-like streams, some past the last finite bucket.
        return [
            [rng.choice([0, 0, 1, 2, 3, 5, 64, 70]) for _ in range(rng.randint(1, 300))]
            for _ in range(6)
        ]

    def _per_event(self, reg: MetricsRegistry, run) -> None:
        hist = reg.histogram("occ", bounds=self.BOUNDS)
        for value in run:
            hist.observe(value)

    def _tallied(self, reg: MetricsRegistry, run) -> None:
        tally = [0] * (max(run) + 1)
        for value in run:
            tally[value] += 1
        reg.histogram("occ", bounds=self.BOUNDS).observe_tally(tally)

    def test_export_identical_to_per_event(self, runs):
        for run in runs:
            a, b = MetricsRegistry(), MetricsRegistry()
            self._per_event(a, run)
            self._tallied(b, run)
            assert self._export(a) == self._export(b)

    def test_empty_tally_observes_nothing(self):
        hist = Histogram("occ", bounds=self.BOUNDS)
        hist.observe_tally([0, 0, 0])
        assert hist.count == 0 and hist.min == float("inf")

    @pytest.mark.parametrize("n_chunks", [1, 2, 3])
    def test_merged_tallies_equal_serial_per_event(self, runs, n_chunks):
        serial = MetricsRegistry()
        for run in runs:
            self._per_event(serial, run)
        parent = MetricsRegistry()
        size = -(-len(runs) // n_chunks)
        for start in range(0, len(runs), size):
            worker = MetricsRegistry()
            for run in runs[start:start + size]:
                self._tallied(worker, run)
            # Round-trip through JSON exactly as the process pool does.
            parent.merge_dict(json.loads(json.dumps(worker.to_dict())))
        assert self._export(parent) == self._export(serial)
