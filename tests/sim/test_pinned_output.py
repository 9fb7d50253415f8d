"""Exact pins of simulator output at fixed seeds.

Every scenario below was recorded once and stored in
``pinned_sim_output.json``: the full :class:`SimulationResult` with
floats as ``float.hex()`` (so equality is bit-for-bit), every count,
and ``mode_residency``. A change to the per-event core, the policy
lookup or the order of random draws shows up here as an exact
mismatch, not as a statistical drift the other tests would tolerate.

The scenarios cover the five Figure-5 policies at the sweep's end
rates, the preemptive busy-powerdown semantics, non-exponential
service, an MMPP workload, a timeline-recorded run and the other policy
families (the clairvoyant oracle has its own end-to-end test). One more
pin is the deterministic metrics export of an instrumented replication
batch, run serially and over two workers.

Re-recording is deliberate: ``python -m tests.sim.test_pinned_output``
prints the JSON for the current code.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro.dpm.adaptive import AdaptivePolicySolver
from repro.dpm.optimizer import optimize_constrained, optimize_weighted
from repro.dpm.presets import paper_system
from repro.experiments import setup
from repro.experiments.figure5 import heuristic_policies
from repro.policies import (
    AdaptiveCTMDPPolicy,
    AlwaysOnPolicy,
    NPolicy,
    OptimalCTMDPPolicy,
)
from repro.policies.optimal import StochasticCTMDPPolicy
from repro.policies.synchronous import SynchronousPolicyWrapper
from repro.policies.timeout import MultiLevelTimeoutPolicy
from repro.sim import (
    MMPPProcess,
    PiecewiseRateProcess,
    PoissonProcess,
    simulate,
)
from repro.sim.distributions import ErlangService, HyperexponentialService
from repro.sim.recorder import TimelineRecorder

PINS = pathlib.Path(__file__).with_name("pinned_sim_output.json")
SEED = 20000
N_REQUESTS = 1000

_FLOATS = (
    "elapsed",
    "average_power",
    "average_queue_length",
    "average_waiting_time",
)
_COUNTS = (
    "n_generated",
    "n_accepted",
    "n_lost",
    "n_completed",
    "n_unserved",
    "n_switches",
    "n_pm_invocations",
    "n_pm_commands",
)


def fingerprint(result) -> Dict[str, object]:
    """Every field of a SimulationResult, floats as exact hex strings."""
    record: Dict[str, object] = {
        "policy_name": result.policy_name,
        "seed": result.seed,
    }
    for name in _FLOATS:
        record[name] = float(getattr(result, name)).hex()
    for name in _COUNTS:
        record[name] = int(getattr(result, name))
    record["mode_residency"] = {
        mode: float(t).hex() for mode, t in sorted(result.mode_residency.items())
    }
    return record


def _timeline_digest(recorder: TimelineRecorder) -> str:
    """sha256 over the recorder's timeline, floats in exact hex."""

    def h(x):
        return None if x is None else float(x).hex()

    doc = {
        "events": [[h(t), kind] for t, kind in recorder.events],
        "queue": [[h(t), int(q)] for t, q in recorder.queue_steps],
        "requests": [
            [
                r.request_id,
                h(r.arrival_time),
                h(r.service_start_time),
                h(r.departure_time),
                r.lost,
            ]
            for r in recorder.requests
        ],
        "modes": [[s.mode, h(s.start), h(s.end)] for s in recorder.mode_segments],
    }
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _figure5(rate: float, policy_name: str):
    model = paper_system(arrival_rate=rate)
    if policy_name == "ctmdp-optimal":
        optimal = optimize_constrained(model, setup.QUEUE_LENGTH_BOUND)
        policy = StochasticCTMDPPolicy(optimal.policy, model.capacity, seed=SEED)
    else:
        policy = heuristic_policies(model)[policy_name]
    return setup.simulate_policy(model, policy, n_requests=N_REQUESTS, seed=SEED), {}


def _run(model, policy, workload=None, **kwargs):
    return simulate(
        provider=model.provider,
        capacity=model.capacity,
        workload=workload or PoissonProcess(model.requestor.rate),
        policy=policy,
        n_requests=N_REQUESTS,
        seed=SEED,
        **kwargs,
    )


def _preempt():
    ablated = paper_system(include_transfer_states=False)
    policy = OptimalCTMDPPolicy(
        optimize_weighted(ablated, 1.0).policy, ablated.capacity
    )
    return _run(ablated, policy, busy_powerdown="preempt"), {}


def _service(distribution):
    model = paper_system()
    policy = OptimalCTMDPPolicy(optimize_weighted(model, 1.0).policy, model.capacity)
    return _run(model, policy, service_distribution=distribution), {}


def _mmpp():
    model = paper_system()
    modulator = np.array([[-0.01, 0.01], [0.05, -0.05]])
    workload = MMPPProcess((0.05, 0.6), modulator)
    return _run(model, heuristic_policies(model)["timeout(1s)"], workload), {}


def _recorded():
    model = paper_system()
    recorder = TimelineRecorder()
    policy = OptimalCTMDPPolicy(optimize_weighted(model, 0.5).policy, model.capacity)
    result = _run(model, policy, recorder=recorder)
    return result, {"timeline_sha256": _timeline_digest(recorder)}


def _adaptive():
    model = paper_system(arrival_rate=(1 / 8 + 1 / 3) / 2)
    policy = AdaptiveCTMDPPolicy(AdaptivePolicySolver(model, 1.0, band_width=0.25))
    workload = PiecewiseRateProcess(((1500.0, 1 / 8), (1500.0, 1 / 3)))
    return _run(model, policy, workload), {}


def _heuristic(make_policy):
    model = paper_system(arrival_rate=1 / 5)
    return _run(model, make_policy(model)), {}


SCENARIOS: Dict[str, Callable[[], Tuple[object, Dict[str, str]]]] = {}
for _rate, _tag in ((1 / 8, "1/8"), (1 / 3, "1/3")):
    for _name in (
        "ctmdp-optimal",
        "greedy",
        "timeout(1s)",
        "timeout(1/lambda)",
        "timeout(0.5/lambda)",
    ):
        SCENARIOS[f"figure5 {_name} @{_tag}"] = (
            lambda r=_rate, n=_name: _figure5(r, n)
        )
SCENARIOS.update(
    {
        "preempt no-transfer ctmdp": _preempt,
        "erlang-4 service ctmdp": lambda: _service(ErlangService(4)),
        "h2 scv-4 service ctmdp": lambda: _service(HyperexponentialService(4.0)),
        "mmpp timeout(1s)": _mmpp,
        "recorder ctmdp(w=0.5)": _recorded,
        "adaptive piecewise": _adaptive,
        "always-on": lambda: _heuristic(lambda m: AlwaysOnPolicy(m.provider)),
        "npolicy(3)": lambda: _heuristic(lambda m: NPolicy(3, m.provider)),
        "multilevel timeout": lambda: _heuristic(
            lambda m: MultiLevelTimeoutPolicy(
                (("waiting", 0.5), ("sleeping", 2.0)), m.provider
            )
        ),
        "synchronous greedy": lambda: _heuristic(
            lambda m: SynchronousPolicyWrapper(
                heuristic_policies(m)["greedy"], 0.25
            )
        ),
    }
)


def instrumented_registry(n_jobs: int) -> str:
    """sha256 of the deterministic metrics export of four instrumented
    replications (greedy, the paper system), fanned out over *n_jobs*
    workers; merged worker registries must equal the serial one."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.runtime import instrument
    from repro.sim import run_replications

    model = paper_system()
    registry = MetricsRegistry()
    with instrument(metrics=registry):
        run_replications(
            model.provider,
            model.capacity,
            lambda: PoissonProcess(model.requestor.rate),
            lambda: heuristic_policies(model)["greedy"],
            n_requests=N_REQUESTS,
            n_replications=4,
            base_seed=SEED,
            n_jobs=n_jobs,
        )
    doc = registry.to_dict(deterministic_only=True)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def record(name: str) -> Dict[str, object]:
    if name == "instrumented registry":
        return {"sha256": instrumented_registry(n_jobs=1)}
    result, extra = SCENARIOS[name]()
    return {**fingerprint(result), **extra}


@pytest.fixture(scope="module")
def pins() -> Dict[str, Dict[str, object]]:
    return json.loads(PINS.read_text())


def test_pins_cover_every_scenario(pins):
    assert sorted(pins) == sorted([*SCENARIOS, "instrumented registry"])


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_simulation_matches_pin(name, pins):
    assert record(name) == pins[name]


def test_instrumented_registry_matches_pin(pins):
    want = pins["instrumented registry"]["sha256"]
    assert instrumented_registry(n_jobs=1) == want
    assert instrumented_registry(n_jobs=2) == want


if __name__ == "__main__":  # pragma: no cover - re-recording entry point
    names = [*SCENARIOS, "instrumented registry"]
    print(json.dumps({n: record(n) for n in names}, indent=1, sort_keys=True))
