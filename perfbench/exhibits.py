"""Workload ``exhibits``: the paper's Figure-5 exhibit, with Table 1's rows.

For each of the six input rates: ``paper_system``, ``optimize_constrained``
(the 23-state constrained LP), then five ``simulate`` runs on one seeded
Poisson stream -- the CTMDP-optimal randomized policy, greedy and three
timeouts. The CTMDP runs are Table 1's rows. ``repro.sim`` and
``repro.policies`` do more than 99 % of the work here.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Any, List

from repro.dpm.optimizer import optimize_constrained
from repro.dpm.presets import paper_system
from repro.dpm.system import PowerManagedSystemModel
from repro.experiments.figure5 import run_figure5
from repro.policies.base import PowerManagementPolicy
from repro.policies.optimal import OptimalCTMDPPolicy, StochasticCTMDPPolicy

from common import Run, close, digest, expected, median, percentile, repeat
from spans import OpTimer, Tracer, install, patched
import layers

# Module handles, looked up at call time so a traced run can wrap their
# functions (some names are shadowed by same-named package attributes).
optimizer_mod = importlib.import_module("repro.dpm.optimizer")
figure5_mod = importlib.import_module("repro.experiments.figure5")
setup_mod = importlib.import_module("repro.experiments.setup")

#: Requests per simulation. The paper simulates 50 000; 3 000 keeps one
#: exhibit near five seconds on a 2-core host while the statistics stay
#: inside the tolerances below for any seed.
N_REQUESTS = 3000
RATES = setup_mod.INPUT_RATES
QUEUE_LENGTH_BOUND = setup_mod.QUEUE_LENGTH_BOUND

#: Relative tolerance of simulated CTMDP-optimal power against the
#: analytic value: five standard deviations of the error over 60 seeds at
#: N_REQUESTS. The deviation is 0.025 to 0.027 at rates 1/8 to 1/4 and
#: 0.009 at rate 1/3; the tolerance takes the largest for every rate.
POWER_RTOL = 0.13
#: Same for the time-average queue length (standard deviation 0.022 to
#: 0.044, largest at rate 1/3).
QUEUE_RTOL = 0.22
#: The reference exhibit: a fixed seed and a shorter stream, run once per
#: untraced run and compared point by point with ``expected.json``. The
#: tolerances above allow for any seed; this catches a change to the
#: simulated statistics that stays inside them.
REFERENCE_SEED = 20_000
REFERENCE_REQUESTS = 1000
#: Table 1's Little's-law band: the paper reports errors within about
#: 5 %; the repository's Table-1 bench allows 8 % at reduced request
#: counts, and so does this check (4.4 standard deviations of 1.8 %).
LITTLE_BAND_PERCENT = 8.0


class TimedPolicy(PowerManagementPolicy):
    """Proxy that times every ``decide`` of the policy it wraps."""

    def __init__(self, inner: PowerManagementPolicy, kind: str, tracer: Tracer):
        self.inner = inner
        self.kind = kind
        self.tracer = tracer
        self.clairvoyant = inner.clairvoyant

    @property
    def name(self) -> str:
        return self.inner.name

    def reset(self) -> None:
        self.inner.reset()

    def decide(self, view):
        started = time.perf_counter()
        decision = self.inner.decide(view)
        counts = self.tracer.counts
        counts[f"policies.{self.kind}.s"] += time.perf_counter() - started
        counts[f"policies.{self.kind}.calls"] += 1
        return decision


def _policy_kind(policy: PowerManagementPolicy) -> str:
    ctmdp = isinstance(policy, (StochasticCTMDPPolicy, OptimalCTMDPPolicy))
    return "ctmdp" if ctmdp else "heuristic"


def _traced_simulate(tracer: Tracer, original):
    def simulate(*args: Any, **kwargs: Any):
        policy = kwargs["policy"]
        kwargs["policy"] = TimedPolicy(policy, _policy_kind(policy), tracer)
        with tracer.span("sim.simulate"):
            result = original(*args, **kwargs)
        tracer.counts["sim.requests"] += result.n_generated
        tracer.counts["sim.pm_invocations"] += result.n_pm_invocations
        return result

    return simulate


def _exhibit(seed: int, rates=RATES, n_requests: int = N_REQUESTS) -> List[Any]:
    return run_figure5(
        rates=rates, queue_length_bound=QUEUE_LENGTH_BOUND,
        n_requests=n_requests, seed=seed, n_jobs=1,
    )


def warm() -> None:
    """Set-up: one rate at 100 requests, so lazy imports and first-call
    costs land in ``setup_s``, not in the first timed rep."""
    _exhibit(0, rates=RATES[:1], n_requests=100)


def _stats(points: List[Any]) -> List[List[Any]]:
    return [
        [p.policy, p.input_rate, p.simulated_power, p.simulated_waiting_time,
         p.simulated_queue_length, p.loss_probability]
        for p in points
    ]


def _timed_job(seed: int, paced: bool = False):
    """One exhibit with every simulation and solve timed as an operation;
    *paced* takes host-speed samples around each simulation."""
    sims, solves = OpTimer(paced), OpTimer()
    with contextlib.ExitStack() as stack:
        stack.enter_context(patched(setup_mod, "simulate", sims.wrap(setup_mod.simulate)))
        stack.enter_context(patched(
            figure5_mod, "optimize_constrained", solves.wrap(optimize_constrained)
        ))
        started = time.perf_counter()
        points = _exhibit(seed)
        wall = time.perf_counter() - started
    sims.close()
    return wall, points, sims, solves


def _check_points(run: Run, points: List[Any]) -> int:
    """Checks one exhibit's numbers; returns how many points are wrong."""
    wrong = 0
    if not run.check("exhibits.points", len(points) == 5 * len(RATES), len(points)):
        return 5 * len(RATES)
    little = {}
    for p in points:
        if p.policy != "ctmdp-optimal":
            continue
        analytic = optimize_constrained(
            paper_system(arrival_rate=p.input_rate), QUEUE_LENGTH_BOUND
        ).metrics
        power_err = p.simulated_power / analytic.average_power - 1.0
        queue_err = p.simulated_queue_length / analytic.average_queue_length - 1.0
        little_err = (
            (p.input_rate * p.simulated_waiting_time - p.simulated_queue_length)
            / p.simulated_queue_length * 100.0
        )
        rate = f"1/{round(1 / p.input_rate)}"
        little[rate] = round(little_err, 3)
        ok = run.check(f"exhibits.power[{rate}]", abs(power_err) <= POWER_RTOL,
                       round(power_err, 5))
        ok &= run.check(f"exhibits.queue[{rate}]", abs(queue_err) <= QUEUE_RTOL,
                        round(queue_err, 5))
        ok &= run.check(f"exhibits.little[{rate}]",
                        abs(little_err) <= LITTLE_BAND_PERCENT, round(little_err, 3))
        wrong += not ok
    run.notes["table1_little_error_percent"] = little
    return wrong


def _check_reference(run: Run) -> None:
    """Runs the reference exhibit and compares every point's statistics
    with the recorded ones; a point that differs is a failed simulation."""
    want = expected("exhibits")
    got = _stats(_exhibit(want["seed"], n_requests=want["n_requests"]))
    run.notes["reference_stats_digest"] = digest(got)
    if not run.check("exhibits.reference.points", len(got) == len(want["points"]),
                     len(got)):
        run.ledger.add("simulate.reference", len(want["points"]), len(want["points"]))
        return
    wrong = 0
    for g, w in zip(got, want["points"]):
        ok = g[:2] == w[:2] and all(close(a, b) for a, b in zip(g[2:], w[2:]))
        wrong += not run.check(f"exhibits.reference[{g[0]}@{g[1]:.4f}]", ok, g)
    run.ledger.add("simulate.reference", len(got), wrong)


def _account(run: Run, sims: OpTimer, solves: OpTimer, wrong: int) -> None:
    run.ledger.add("simulate", sims.attempted, sims.failed + wrong)
    run.ledger.add("optimize_constrained", solves.attempted, solves.failed)


def _sizes(run: Run) -> None:
    run.sizes.update(n_requests=N_REQUESTS, rates=list(RATES), policies=5,
                     states=paper_system().n_states,
                     reference_seed=REFERENCE_SEED,
                     reference_requests=REFERENCE_REQUESTS)


def measure(run: Run) -> None:
    _sizes(run)
    reps = repeat(run, "exhibit", lambda: _timed_job(run.seed, paced=True))
    if not reps:
        return
    digests = {digest(_stats(points)) for _, points, _, _ in reps}
    run.check("exhibits.deterministic", len(digests) == 1, sorted(digests))
    run.notes["simulated_stats_digest"] = sorted(digests)[0]
    wrong = _check_points(run, reps[0][1])
    for _, _, sims, solves in reps:
        _account(run, sims, solves, wrong)
    run.timing("run_s", median([sims.at_reference(wall) for wall, _, sims, _ in reps]),
               median([wall - sims.sampling_s for wall, _, sims, _ in reps]), "s")
    _check_reference(run)
    timers = [sims for _, _, sims, _ in reps]
    run.timing("op_p50_ms",
               percentile([s * 1e3 for t in timers for s in t.reference_seconds()], 50),
               percentile([s * 1e3 for t in timers for s in t.seconds], 50), "ms")


def measure_traced(run: Run, tracer: Tracer) -> None:
    _sizes(run)
    untraced_wall, points, sims, solves = _timed_job(run.seed)
    _account(run, sims, solves, _check_points(run, points))
    with contextlib.ExitStack() as stack:
        install(stack, tracer, figure5_mod, "paper_system", "dpm.paper_system")
        install(stack, tracer, figure5_mod, "optimize_constrained",
                "dpm.optimize_constrained")
        install(stack, tracer, optimizer_mod, "evaluate_dpm_policy", "dpm.evaluate")
        install(stack, tracer, PowerManagedSystemModel, "build_ctmdp",
                "dpm.build_ctmdp", layers.count_model(tracer))
        stack.enter_context(patched(
            setup_mod, "simulate", _traced_simulate(tracer, setup_mod.simulate)
        ))
        started = time.perf_counter()
        traced_points = _exhibit(run.seed)
        traced_wall = time.perf_counter() - started
    run.check("exhibits.traced_identical",
              digest(_stats(traced_points)) == digest(_stats(points)))
    layers.finish(run, tracer, started, traced_wall, untraced_wall)
