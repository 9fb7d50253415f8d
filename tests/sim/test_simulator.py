"""Integration-level tests of the event-driven simulator."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.dpm.presets import paper_system
from repro.errors import SimulationError
from repro.policies import AlwaysOnPolicy, GreedyPolicy, NPolicy, TimeoutPolicy
from repro.policies.base import Decision, PowerManagementPolicy
from repro.queueing.mm1k import MM1KQueue
from repro.sim import PoissonProcess, TraceArrivals, simulate

LAM = 1.0 / 6.0
MU = 1.0 / 1.5


class RecordingPolicy(PowerManagementPolicy):
    """Stays active forever while recording every view it sees."""

    def __init__(self):
        self.views = []

    def reset(self):
        self.views = []

    def decide(self, view):
        self.views.append(view)
        if view.mode != "active" and view.switch_target != "active":
            return Decision(command="active")
        return Decision()


class NeverWakePolicy(PowerManagementPolicy):
    """Pathological: never issues any command."""

    def decide(self, view):
        return Decision()


@pytest.fixture
def provider(paper_provider):
    return paper_provider


class TestAlwaysOnAgainstMM1K:
    """With the server pinned active the simulation is an M/M/1/5 queue."""

    @pytest.fixture(scope="class")
    def result(self, paper_provider):
        return simulate(
            provider=paper_provider,
            capacity=5,
            workload=PoissonProcess(LAM),
            policy=AlwaysOnPolicy(paper_provider),
            n_requests=40_000,
            seed=3,
            initial_mode="active",
        )

    @pytest.fixture(scope="class")
    def reference(self):
        return MM1KQueue(LAM, MU, capacity=5)

    def test_queue_length(self, result, reference):
        assert result.average_queue_length == pytest.approx(
            reference.mean_number_in_system(), rel=0.03
        )

    def test_sojourn_time(self, result, reference):
        assert result.average_waiting_time == pytest.approx(
            reference.mean_sojourn_time(), rel=0.03
        )

    def test_loss_probability(self, result, reference):
        assert result.loss_probability == pytest.approx(
            reference.blocking_probability(), abs=0.002
        )

    def test_power_is_active_power(self, result):
        assert result.average_power == pytest.approx(40.0, rel=0.01)

    def test_bookkeeping_consistent(self, result):
        assert result.n_generated == 40_000
        assert result.n_accepted + result.n_lost == result.n_generated
        assert result.n_completed == result.n_accepted
        assert result.n_unserved == 0


class TestReproducibility:
    def test_same_seed_same_result(self, provider):
        runs = [
            simulate(
                provider,
                5,
                PoissonProcess(LAM),
                GreedyPolicy(provider),
                n_requests=2000,
                seed=11,
            )
            for _ in range(2)
        ]
        assert runs[0].average_power == runs[1].average_power
        assert runs[0].average_waiting_time == runs[1].average_waiting_time
        assert runs[0].n_lost == runs[1].n_lost

    def test_different_seed_differs(self, provider):
        a = simulate(
            provider, 5, PoissonProcess(LAM), GreedyPolicy(provider),
            n_requests=2000, seed=1,
        )
        b = simulate(
            provider, 5, PoissonProcess(LAM), GreedyPolicy(provider),
            n_requests=2000, seed=2,
        )
        assert a.average_power != b.average_power


class TestPolicyPlumbing:
    def test_views_report_transfer_at_completion(self, provider):
        policy = RecordingPolicy()
        simulate(
            provider, 5, PoissonProcess(LAM), policy, n_requests=200, seed=0
        )
        completions = [v for v in policy.views if v.event == "service_complete"]
        assert completions
        assert all(v.in_transfer for v in completions)

    def test_events_seen(self, provider):
        policy = RecordingPolicy()
        simulate(
            provider, 5, PoissonProcess(LAM), policy, n_requests=200, seed=0
        )
        kinds = {v.event for v in policy.views}
        assert {"start", "arrival", "service_complete", "switch_complete"} <= kinds

    def test_pm_is_asynchronous(self, provider):
        # PM invocations scale with events, not with wall-clock ticks:
        # roughly (arrival + completion + switch) per request.
        result = simulate(
            provider, 5, PoissonProcess(LAM), GreedyPolicy(provider),
            n_requests=1000, seed=4,
        )
        assert result.n_pm_invocations < 10 * 1000
        assert result.n_pm_commands <= result.n_pm_invocations

    def test_policy_must_return_decision(self, provider):
        class BadPolicy(PowerManagementPolicy):
            def decide(self, view):
                return "active"

        with pytest.raises(SimulationError, match="expected Decision"):
            simulate(
                provider, 5, PoissonProcess(LAM), BadPolicy(), n_requests=10, seed=0
            )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_recheck_rejected(self, provider, bad):
        # A NaN timer used to be scheduled and never fire: a timeout
        # policy then silently ran always-on.
        class BrokenTimeout(TimeoutPolicy):
            def decide(self, view):
                decision = super().decide(view)
                if decision.recheck_after is None:
                    return decision
                return Decision(decision.command, recheck_after=bad)

        with pytest.raises(SimulationError, match="recheck_after"):
            simulate(
                provider, 5, PoissonProcess(LAM), BrokenTimeout(1.0, provider),
                n_requests=500, seed=1,
            )


class TestDrainSemantics:
    def test_never_wake_leaves_unserved(self, provider):
        trace = TraceArrivals([1.0, 2.0, 3.0])
        result = simulate(
            provider, 5, trace, NeverWakePolicy(), n_requests=3, seed=0
        )
        assert result.n_completed == 0
        assert result.n_unserved == 3
        assert result.average_power == pytest.approx(0.1, rel=1e-6)

    def test_trace_exhaustion_ends_run(self, provider):
        trace = TraceArrivals([1.0, 2.0])
        result = simulate(
            provider, 5, trace, GreedyPolicy(provider), n_requests=100, seed=0
        )
        assert result.n_generated == 2
        assert result.n_completed == 2

    def test_final_powerdown_switch_counted(self, provider):
        trace = TraceArrivals([1.0])
        result = simulate(
            provider, 5, trace, GreedyPolicy(provider), n_requests=1, seed=0
        )
        # wake (sleeping->active) + sleep (active->sleeping) both complete.
        assert result.n_switches == 2


class TestBusyPowerdown:
    class SleepOnceWhileBusyPolicy(PowerManagementPolicy):
        """Wakes on arrival, asks to sleep mid-service exactly once."""

        def __init__(self):
            self.asked = 0

        def reset(self):
            self.asked = 0

        def decide(self, view):
            if view.is_serving and view.mode == "active" and self.asked == 0:
                self.asked += 1
                return Decision(command="sleeping")
            heading = view.switch_target or view.mode
            if view.occupancy > 0 and not view.provider.is_active(heading):
                return Decision(command="active")
            return Decision()

    # A burst guarantees some arrival lands mid-service (the PM only
    # observes is_serving on events, and service starts after the
    # decision at a switch completion or transfer).
    BURST = [1.0, 1.2, 1.4, 1.6, 1.8]

    def test_reject_mode_refuses(self, provider):
        policy = self.SleepOnceWhileBusyPolicy()
        result = simulate(
            provider, 5, TraceArrivals(self.BURST), policy, n_requests=5,
            seed=0, busy_powerdown="reject",
        )
        assert policy.asked == 1
        assert result.n_completed == result.n_accepted
        # The refused command never started a power-down switch: only the
        # initial wake-up switch completes.
        assert result.n_switches == 1

    def test_preempt_mode_aborts_service(self, provider):
        policy = self.SleepOnceWhileBusyPolicy()
        result = simulate(
            provider, 5, TraceArrivals(self.BURST), policy, n_requests=5,
            seed=0, busy_powerdown="preempt",
        )
        assert policy.asked == 1
        # The aborted request is re-queued and eventually completes
        # after the wake that follows the preemption.
        assert result.n_completed == result.n_accepted
        assert result.n_switches >= 3

    def test_invalid_mode_rejected(self, provider):
        with pytest.raises(SimulationError):
            simulate(
                provider, 5, TraceArrivals([1.0]), NeverWakePolicy(),
                n_requests=1, seed=0, busy_powerdown="maybe",
            )


class TestHeuristicOrdering:
    def test_timeout_zero_close_to_greedy(self, provider):
        greedy = simulate(
            provider, 5, PoissonProcess(LAM), GreedyPolicy(provider),
            n_requests=5000, seed=9,
        )
        t0 = simulate(
            provider, 5, PoissonProcess(LAM), TimeoutPolicy(0.0, provider),
            n_requests=5000, seed=9,
        )
        assert t0.average_power == pytest.approx(greedy.average_power, rel=0.02)

    def test_longer_timeout_burns_more_power(self, provider):
        results = [
            simulate(
                provider, 5, PoissonProcess(LAM), TimeoutPolicy(t, provider),
                n_requests=4000, seed=9,
            )
            for t in (0.5, 3.0, 12.0)
        ]
        powers = [r.average_power for r in results]
        assert powers == sorted(powers)

    def test_npolicy_power_decreases_with_n(self, provider):
        powers = []
        for n in (1, 3, 5):
            r = simulate(
                provider, 5, PoissonProcess(LAM), NPolicy(n, provider),
                n_requests=5000, seed=9,
            )
            powers.append(r.average_power)
        assert powers == sorted(powers, reverse=True)


class TestSimulateSpan:
    def test_one_span_per_run(self, provider):
        from repro.obs.runtime import instrument
        from repro.obs.trace import Tracer

        tracer = Tracer()
        with instrument(tracer=tracer):
            result = simulate(
                provider, 5, PoissonProcess(LAM), GreedyPolicy(provider),
                n_requests=200, seed=2,
            )
        spans = [r for r in tracer.records if r.name == "sim.simulate"]
        assert len(spans) == 1
        assert spans[0].duration is not None and spans[0].duration > 0
        assert spans[0].attrs["policy"] == "GreedyPolicy"
        assert spans[0].attrs["pm_invocations"] == result.n_pm_invocations

    def test_tracing_does_not_perturb_the_run(self, provider):
        from repro.obs.runtime import instrument
        from repro.obs.trace import Tracer

        def run():
            return simulate(
                provider, 5, PoissonProcess(LAM), GreedyPolicy(provider),
                n_requests=300, seed=5,
            )

        plain = run()
        with instrument(tracer=Tracer()):
            traced = run()
        assert traced == plain
