"""Tests for the discrete-event scheduler."""

from __future__ import annotations

import math

import pytest

from repro.errors import SimulationError
from repro.sim.engine import EventScheduler


class TestEventScheduler:
    def test_events_pop_in_time_order(self):
        sched = EventScheduler()
        sched.schedule_at(3.0, "c")
        sched.schedule_at(1.0, "a")
        sched.schedule_at(2.0, "b")
        assert [sched.pop().kind for _ in range(3)] == ["a", "b", "c"]

    def test_fifo_tie_breaking(self):
        sched = EventScheduler()
        sched.schedule_at(1.0, "first")
        sched.schedule_at(1.0, "second")
        assert sched.pop().kind == "first"
        assert sched.pop().kind == "second"

    def test_now_advances_with_pops(self):
        sched = EventScheduler()
        sched.schedule_at(5.0, "x")
        assert sched.now == 0.0
        sched.pop()
        assert sched.now == 5.0

    def test_schedule_after_uses_now(self):
        sched = EventScheduler()
        sched.schedule_at(2.0, "x")
        sched.pop()
        handle = sched.schedule_after(3.0, "y")
        assert handle.time == 5.0

    def test_cancelled_events_skipped(self):
        sched = EventScheduler()
        h = sched.schedule_at(1.0, "cancel-me")
        sched.schedule_at(2.0, "keep")
        h.cancel()
        assert sched.pop().kind == "keep"

    def test_pop_empty_returns_none(self):
        assert EventScheduler().pop() is None

    def test_cannot_schedule_in_past(self):
        sched = EventScheduler()
        sched.schedule_at(5.0, "x")
        sched.pop()
        with pytest.raises(SimulationError):
            sched.schedule_at(4.0, "late")
        with pytest.raises(SimulationError):
            sched.schedule_after(-1.0, "negative")

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_times_rejected(self, bad):
        sched = EventScheduler()
        with pytest.raises(SimulationError, match="finite"):
            sched.schedule_at(bad, "x")
        with pytest.raises(SimulationError):
            sched.schedule_after(bad, "x")
        assert len(sched) == 0

    def test_peek_time_skips_cancelled(self):
        sched = EventScheduler()
        h = sched.schedule_at(1.0, "gone")
        sched.schedule_at(2.0, "next")
        h.cancel()
        assert sched.peek_time() == 2.0

    def test_len_counts_live_events(self):
        sched = EventScheduler()
        h1 = sched.schedule_at(1.0, "a")
        sched.schedule_at(2.0, "b")
        assert len(sched) == 2
        h1.cancel()
        assert len(sched) == 1

    def test_payload_carried(self):
        sched = EventScheduler()
        sched.schedule_at(1.0, "x", payload={"k": 1})
        assert sched.pop().payload == {"k": 1}
