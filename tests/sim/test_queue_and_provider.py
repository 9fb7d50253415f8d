"""Tests for the simulated FIFO queue and provider state holders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.provider import SimulatedProvider
from repro.sim.queue_sim import FIFORequestQueue


class TestFIFORequestQueue:
    def test_offer_and_counts(self):
        q = FIFORequestQueue(capacity=2)
        assert q.occupancy == 0
        r1 = q.offer(1.0)
        assert r1 is not None and r1.arrival_time == 1.0
        assert q.occupancy == 1 and q.waiting_count == 1

    def test_loss_at_capacity(self):
        q = FIFORequestQueue(capacity=2)
        q.offer(0.0)
        q.offer(1.0)
        assert q.offer(2.0) is None
        assert q.n_lost == 1
        assert q.n_accepted == 2

    def test_in_service_counts_toward_occupancy(self):
        q = FIFORequestQueue(capacity=2)
        q.offer(0.0)
        q.start_service(0.5)
        assert q.waiting_count == 0
        assert q.occupancy == 1
        assert q.offer(1.0) is not None
        assert q.occupancy == q.capacity
        assert q.offer(2.0) is None

    def test_fifo_order(self):
        q = FIFORequestQueue(capacity=5)
        first = q.offer(0.0)
        q.offer(1.0)
        served = q.start_service(2.0)
        assert served is first

    def test_complete_service_timestamps(self):
        q = FIFORequestQueue(capacity=2)
        q.offer(0.0)
        q.start_service(1.0)
        done = q.complete_service(3.0)
        assert done.service_start_time == 1.0
        assert done.departure_time == 3.0
        assert q.occupancy == 0 and q.in_service is None

    def test_requeue_in_service_preserves_head(self):
        q = FIFORequestQueue(capacity=3)
        first = q.offer(0.0)
        q.offer(0.5)
        q.start_service(1.0)
        q.requeue_in_service()
        assert q.waiting_count == 2
        assert q.start_service(2.0) is first
        assert first.service_start_time == 2.0

    def test_error_paths(self):
        q = FIFORequestQueue(capacity=1)
        with pytest.raises(SimulationError):
            q.start_service(0.0)  # empty
        with pytest.raises(SimulationError):
            q.complete_service(0.0)  # nothing in service
        q.offer(0.0)
        q.start_service(0.0)
        with pytest.raises(SimulationError):
            q.start_service(0.0)  # already serving
        with pytest.raises(SimulationError):
            FIFORequestQueue(0)


class TestSimulatedProvider:
    def test_initial_state(self, paper_provider):
        sp = SimulatedProvider(paper_provider, "sleeping")
        assert sp.mode == "sleeping"
        assert sp.switch_target is None
        assert not paper_provider.is_active(sp.mode)
        assert sp.power_now() == pytest.approx(0.1)

    def test_switch_lifecycle(self, paper_provider):
        sp = SimulatedProvider(paper_provider, "sleeping")
        sp.begin_switch("active")
        assert sp.switch_target == "active"
        assert sp.mode == "sleeping"  # stays until completion
        energy = sp.finish_switch()
        assert energy == pytest.approx(11.0)
        assert sp.mode == "active" and sp.switch_target is None

    def test_cancel_switch(self, paper_provider):
        sp = SimulatedProvider(paper_provider, "active")
        sp.begin_switch("sleeping")
        sp.cancel_switch()
        assert sp.switch_target is None
        assert sp.mode == "active"

    def test_self_switch_rejected(self, paper_provider):
        sp = SimulatedProvider(paper_provider, "active")
        with pytest.raises(SimulationError):
            sp.begin_switch("active")
        assert sp.draw_switch_time("active", np.random.default_rng(0)) == 0.0

    def test_finish_without_switch_rejected(self, paper_provider):
        sp = SimulatedProvider(paper_provider, "active")
        with pytest.raises(SimulationError):
            sp.finish_switch()

    def test_service_draw_only_in_active(self, paper_provider):
        sp = SimulatedProvider(paper_provider, "waiting")
        with pytest.raises(SimulationError):
            sp.draw_service_time(np.random.default_rng(0))

    def test_draw_means(self, paper_provider):
        sp = SimulatedProvider(paper_provider, "active")
        rng = np.random.default_rng(0)
        services = [sp.draw_service_time(rng) for _ in range(4000)]
        assert np.mean(services) == pytest.approx(1.5, rel=0.05)
        switches = [sp.draw_switch_time("sleeping", rng) for _ in range(4000)]
        assert np.mean(switches) == pytest.approx(0.2, rel=0.05)

    def test_invalid_initial_mode(self, paper_provider):
        from repro.errors import InvalidModelError

        with pytest.raises(InvalidModelError):
            SimulatedProvider(paper_provider, "hibernate")
