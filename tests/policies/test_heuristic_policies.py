"""Tests for the N-policy, greedy, timeout, always-on and oracle PMs."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.errors import InvalidPolicyError
from repro.policies import (
    AlwaysOnPolicy,
    GreedyPolicy,
    MultiLevelTimeoutPolicy,
    NPolicy,
    OracleIdlePolicy,
    TimeoutPolicy,
)
from repro.policies.oracle import break_even_time
from repro.sim import simulate
from repro.sim.workload import TraceArrivals
from tests.policies.test_helpers_and_base import make_view


class TestNPolicy:
    def test_wakes_at_threshold(self, paper_provider):
        policy = NPolicy(3, paper_provider)
        below = make_view(paper_provider, mode="sleeping", occupancy=2)
        at = make_view(paper_provider, mode="sleeping", occupancy=3)
        assert policy.decide(below).command is None
        assert policy.decide(at).command == "active"

    def test_sleeps_at_empty_transfer(self, paper_provider):
        policy = NPolicy(3, paper_provider)
        view = make_view(
            paper_provider, mode="active", in_transfer=True, occupancy=0
        )
        assert policy.decide(view).command == "sleeping"

    def test_keeps_serving_at_busy_transfer(self, paper_provider):
        policy = NPolicy(3, paper_provider)
        view = make_view(
            paper_provider, mode="active", in_transfer=True, occupancy=2
        )
        assert policy.decide(view).command == "active"  # explicit stay

    def test_cancels_powerdown_when_threshold_reached(self, paper_provider):
        policy = NPolicy(1, paper_provider)
        view = make_view(
            paper_provider, mode="active", switch_target="sleeping", occupancy=1
        )
        assert policy.decide(view).command == "active"

    def test_validation(self, paper_provider):
        with pytest.raises(InvalidPolicyError):
            NPolicy(0, paper_provider)
        with pytest.raises(InvalidPolicyError):
            NPolicy(2, paper_provider, sleep_mode="active")
        with pytest.raises(InvalidPolicyError):
            NPolicy(2, paper_provider, active_mode="sleeping")

    def test_name(self, paper_provider):
        assert NPolicy(4, paper_provider).name == "NPolicy(N=4)"
        assert GreedyPolicy(paper_provider).name == "GreedyPolicy"

    def test_greedy_is_n1(self, paper_provider):
        assert GreedyPolicy(paper_provider).n == 1


class TestTimeoutPolicy:
    def test_requests_recheck_while_countdown_runs(self, paper_provider):
        policy = TimeoutPolicy(5.0, paper_provider)
        policy.reset()
        view = make_view(paper_provider, mode="active", occupancy=0)
        decision = policy.decide(view)
        assert decision.command is None
        assert decision.recheck_after == pytest.approx(5.0)

    def test_sleeps_when_timer_expires(self, paper_provider):
        import dataclasses

        policy = TimeoutPolicy(5.0, paper_provider)
        policy.reset()
        idle = make_view(paper_provider, mode="active", occupancy=0)
        policy.decide(idle)  # starts the countdown at t=1
        fired = dataclasses.replace(idle, time=6.0, event="timer")
        assert policy.decide(fired).command == "sleeping"

    def test_arrival_resets_countdown(self, paper_provider):
        import dataclasses

        policy = TimeoutPolicy(5.0, paper_provider)
        policy.reset()
        idle = make_view(paper_provider, mode="active", occupancy=0)
        policy.decide(idle)
        busy = dataclasses.replace(idle, time=3.0, occupancy=1, event="arrival")
        policy.decide(busy)
        idle_again = dataclasses.replace(idle, time=4.0)
        decision = policy.decide(idle_again)
        assert decision.recheck_after == pytest.approx(5.0)

    def test_wakes_on_arrival(self, paper_provider):
        policy = TimeoutPolicy(5.0, paper_provider)
        policy.reset()
        view = make_view(paper_provider, mode="sleeping", occupancy=1)
        assert policy.decide(view).command == "active"

    def test_zero_timeout_sleeps_immediately(self, paper_provider):
        policy = TimeoutPolicy(0.0, paper_provider)
        policy.reset()
        view = make_view(paper_provider, mode="active", occupancy=0)
        assert policy.decide(view).command == "sleeping"

    def test_validation(self, paper_provider):
        with pytest.raises(InvalidPolicyError):
            TimeoutPolicy(-1.0, paper_provider)


class TestMultiLevelTimeoutPolicy:
    @pytest.fixture
    def policy(self, paper_provider):
        p = MultiLevelTimeoutPolicy(
            stages=(("waiting", 2.0), ("sleeping", 8.0)), provider=paper_provider
        )
        p.reset()
        return p

    def test_cascades_through_stages(self, policy, paper_provider):
        import dataclasses

        idle = make_view(paper_provider, mode="active", occupancy=0)
        d0 = policy.decide(idle)  # t = 1, countdown starts
        assert d0.command is None and d0.recheck_after == pytest.approx(2.0)
        at_first = dataclasses.replace(idle, time=3.0, event="timer")
        d1 = policy.decide(at_first)
        assert d1.command == "waiting"
        assert d1.recheck_after == pytest.approx(8.0)
        at_second = dataclasses.replace(
            idle, time=11.0, mode="waiting", event="timer"
        )
        d2 = policy.decide(at_second)
        assert d2.command == "sleeping"
        assert d2.recheck_after is None

    def test_wakes_on_arrival(self, policy, paper_provider):
        view = make_view(paper_provider, mode="sleeping", occupancy=1)
        assert policy.decide(view).command == "active"

    def test_validation(self, paper_provider):
        with pytest.raises(InvalidPolicyError):
            MultiLevelTimeoutPolicy((), paper_provider)
        with pytest.raises(InvalidPolicyError):
            MultiLevelTimeoutPolicy((("active", 1.0),), paper_provider)
        with pytest.raises(InvalidPolicyError):
            MultiLevelTimeoutPolicy((("waiting", -1.0),), paper_provider)


class TestAlwaysOnPolicy:
    def test_drives_to_active(self, paper_provider):
        policy = AlwaysOnPolicy(paper_provider)
        view = make_view(paper_provider, mode="sleeping", occupancy=0)
        assert policy.decide(view).command == "active"

    def test_no_op_when_active(self, paper_provider):
        policy = AlwaysOnPolicy(paper_provider)
        view = make_view(paper_provider, mode="active", occupancy=0)
        assert policy.decide(view).command is None


class TestOracleIdlePolicy:
    def test_break_even_time_formula(self, paper_provider):
        # (ene(A->S) + ene(S->A)) / (P_active - P_sleep).
        expected = (0.5 + 11.0) / (40.0 - 0.1)
        assert break_even_time(paper_provider, "sleeping", "active") == pytest.approx(
            expected
        )

    def test_break_even_requires_power_gap(self, paper_provider):
        with pytest.raises(InvalidPolicyError):
            break_even_time(paper_provider, "active", "active")

    def test_sleeps_only_for_long_idle(self, paper_provider):
        trace = TraceArrivals([100.0])
        policy = OracleIdlePolicy(trace, paper_provider)
        long_idle = make_view(paper_provider, mode="active", occupancy=0)
        assert policy.decide(long_idle).command == "sleeping"

        soon = TraceArrivals([1.1])
        policy2 = OracleIdlePolicy(soon, paper_provider)
        short_idle = make_view(paper_provider, mode="active", occupancy=0)
        assert policy2.decide(short_idle).command is None

    def test_prewake_scheduling(self, paper_provider):
        trace = TraceArrivals([100.0])
        policy = OracleIdlePolicy(trace, paper_provider)
        asleep = make_view(paper_provider, mode="sleeping", occupancy=0)
        decision = policy.decide(asleep)
        assert decision.command is None
        # Pre-wake fires one mean wake latency (1.1 s) before t = 100.
        assert decision.recheck_after == pytest.approx(100.0 - 1.0 - 1.1)

    def test_prewake_timer_wakes_despite_rounding(self, paper_provider):
        # The pre-wake timer fires where idle - latency is a rounding
        # residue (1.3e-15 at t = 18.08, below one ulp of the clock): the
        # policy must wake, not re-request a timer at the same instant.
        wake = paper_provider.switching_time("sleeping", "active")
        now = 18.078346750391443
        trace = TraceArrivals([now + wake + 1.3322676295501878e-15])
        policy = OracleIdlePolicy(trace, paper_provider)
        fired = dataclasses.replace(
            make_view(paper_provider, mode="sleeping", occupancy=0),
            time=now, event="timer",
        )
        assert policy.decide(fired).command == "active"

    def test_simulated_trace_terminates(self, paper_model):
        rng = np.random.default_rng(7)
        times = np.cumsum(rng.exponential(1.0 / paper_model.requestor.rate, 300))
        trace = TraceArrivals(times)
        policy = OracleIdlePolicy(trace, paper_model.provider)
        calls = []
        inner = policy.decide

        def bounded(view):
            calls.append(view.event)
            assert len(calls) < 50 * len(times), "PM livelock"
            return inner(view)

        policy.decide = bounded
        result = simulate(
            paper_model.provider, paper_model.capacity, trace, policy,
            n_requests=len(times), seed=1,
        )
        assert result.n_completed + result.n_lost == len(times)

    def test_is_clairvoyant(self, paper_provider):
        policy = OracleIdlePolicy(TraceArrivals([1.0]), paper_provider)
        assert policy.clairvoyant
