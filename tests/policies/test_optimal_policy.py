"""Tests for the CTMDP table-lookup, stochastic and adaptive policies."""

from __future__ import annotations

import pytest

from repro.ctmdp.policy_iteration import policy_iteration
from repro.dpm.adaptive import AdaptivePolicySolver
from repro.dpm.presets import paper_system
from repro.dpm.service_queue import stable, transfer
from repro.dpm.system import SystemState
from repro.errors import InvalidPolicyError
from repro.policies.optimal import (
    AdaptiveCTMDPPolicy,
    OptimalCTMDPPolicy,
    StochasticCTMDPPolicy,
    view_key,
)
from tests.policies.test_helpers_and_base import make_view


class TestViewKey:
    def test_stable_mapping(self, paper_provider):
        view = make_view(paper_provider, mode="sleeping", occupancy=3)
        assert view_key(view, 5) == SystemState("sleeping", stable(3)).key

    def test_transfer_mapping_uses_waiting_plus_one(self, paper_provider):
        view = make_view(paper_provider, mode="active", in_transfer=True, occupancy=2)
        # waiting_count = occupancy - 1 = 1 in the fixture helper.
        assert view_key(view, 5) == SystemState("active", transfer(2)).key

    def test_transfer_boundary_clamped(self, paper_provider):
        view = make_view(paper_provider, mode="active", in_transfer=True, occupancy=6)
        state = SystemState.from_key(view_key(view, 5))
        assert state.queue == transfer(5)


class TestOptimalCTMDPPolicy:
    @pytest.fixture(scope="class")
    def solved(self, paper_mdp):
        return policy_iteration(paper_mdp).policy

    def test_lookup_matches_table(self, solved, paper_model):
        policy = OptimalCTMDPPolicy(solved, paper_model.capacity)
        state = SystemState("sleeping", stable(5))
        assert policy.lookup(state) == solved.action(state)

    def test_decide_issues_table_action(self, solved, paper_model, paper_provider):
        policy = OptimalCTMDPPolicy(solved, paper_model.capacity)
        view = make_view(paper_provider, mode="sleeping", occupancy=5)
        desired = solved.action(SystemState("sleeping", stable(5)))
        decision = policy.decide(view)
        if desired == "sleeping":
            assert decision.command is None
        else:
            assert decision.command == desired

    def test_accepts_raw_mapping(self, paper_model, paper_provider):
        table = {SystemState("sleeping", stable(0)): "sleeping"}
        policy = OptimalCTMDPPolicy(table, paper_model.capacity)
        view = make_view(paper_provider, mode="sleeping", occupancy=0)
        assert policy.decide(view).command is None

    def test_empty_table_rejected(self, paper_model):
        with pytest.raises(InvalidPolicyError):
            OptimalCTMDPPolicy({}, paper_model.capacity)

    def test_label(self, solved, paper_model):
        assert (
            OptimalCTMDPPolicy(solved, 5, label="ctmdp(w=1)").name == "ctmdp(w=1)"
        )
        assert OptimalCTMDPPolicy(solved, 5).name == "OptimalCTMDPPolicy"


class TestStochasticCTMDPPolicy:
    @pytest.fixture(scope="class")
    def randomized(self, paper_mdp):
        from repro.ctmdp.linear_program import solve_constrained_lp

        return solve_constrained_lp(
            paper_mdp, "power", {"queue_length": 1.0}
        ).policy

    def test_reset_restores_stream(self, randomized, paper_provider):
        policy = StochasticCTMDPPolicy(randomized, 5, seed=3)
        view = make_view(paper_provider, mode="sleeping", occupancy=1)
        first = [policy.decide(view).command for _ in range(20)]
        policy.reset()
        second = [policy.decide(view).command for _ in range(20)]
        assert first == second

    def test_degenerate_states_deterministic(self, randomized, paper_provider):
        # A state whose distribution is a point mass always yields the
        # same command.
        policy = StochasticCTMDPPolicy(randomized, 5, seed=0)
        view = make_view(paper_provider, mode="waiting", occupancy=5)
        commands = {policy.decide(view).command for _ in range(50)}
        assert len(commands) == 1


class TestAdaptiveCTMDPPolicy:
    def test_tracks_rate_and_solves_lazily(self, paper_provider):
        solver = AdaptivePolicySolver(paper_system(), weight=1.0, band_width=0.3)
        policy = AdaptiveCTMDPPolicy(solver)
        policy.reset()
        view = make_view(paper_provider, mode="sleeping", occupancy=0)
        policy.decide(view)
        assert policy.n_solves == 1  # initial band

    def test_estimator_updates_on_arrivals(self, paper_provider):
        import dataclasses

        solver = AdaptivePolicySolver(paper_system(), weight=1.0, band_width=0.3)
        policy = AdaptiveCTMDPPolicy(solver)
        policy.reset()
        base = make_view(paper_provider, occupancy=1)
        for k in range(60):  # one arrival per second
            view = dataclasses.replace(base, time=float(k), event="arrival")
            policy.decide(view)
        assert policy.current_rate_estimate() == pytest.approx(1.0, rel=0.01)
