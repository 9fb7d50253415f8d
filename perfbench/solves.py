"""Workloads ``sys-scale`` and ``sweep``: the solver layers, two ways.

``sys-scale`` is one cold weighted solve of the 100,003-state paper SYS
on the sparse tier: construction, SYS assembly, admission, policy
iteration and analytic evaluation. SYS assembly (``repro.dpm.system``)
and the sparse policy iteration do all the work.

``sweep`` is the Figure-3 weight sweep, ``sweep_weights`` over
``linspace(0, 2, 24)`` on the 803-state paper SYS with ``backend="auto"``
(which picks the dense tier at this size), warm-chained: many small
warm-started solves instead of one large cold one. Its slowest solve,
near w = 0.087, is about half the run.

Neither workload's inputs depend on the seed: both models are the
paper's, so their results are checked against values recorded when the
benchmark was written (``expected.json``).
"""

from __future__ import annotations

import contextlib
import importlib
import time
from typing import Any, Callable, Dict, List

import numpy as np

from repro.dpm.system import PowerManagedSystemModel

from common import Run, close, expected, median, percentile, policy_digest, repeat
from spans import OpTimer, Tracer, install, patched
import layers

# Module handles, looked up at call time so a traced run can wrap their
# functions (some names are shadowed by same-named package attributes).
pi_mod = importlib.import_module("repro.ctmdp.policy_iteration")
analysis_mod = importlib.import_module("repro.dpm.analysis")
optimizer_mod = importlib.import_module("repro.dpm.optimizer")
presets_mod = importlib.import_module("repro.dpm.presets")
admission_mod = importlib.import_module("repro.robust.admission")

#: paper_system(capacity=25000) has 100,003 states.
SCALE_CAPACITY = 25_000
SCALE_WEIGHT = 1.0
#: paper_system(capacity=200) has 803 states, below the dense limit.
SWEEP_CAPACITY = 200
SWEEP_WEIGHTS = tuple(float(w) for w in np.linspace(0.0, 2.0, 24))
# -- sys-scale ---------------------------------------------------------------


def _call(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
    return fn(*args, **kwargs)


def _scale_solve(capacity: int = SCALE_CAPACITY, step=_call):
    """The cold 10^5-state solve, through module attributes so a traced
    run can wrap each step; *step* makes each call."""
    model = step(presets_mod.paper_system, capacity=capacity)
    mdp = step(model.build_ctmdp, SCALE_WEIGHT, backend="sparse")
    step(admission_mod.admit_model, mdp, backend="sparse")
    result = step(pi_mod.policy_iteration, mdp, backend="sparse")
    metrics = step(analysis_mod.evaluate_dpm_policy, model, result.policy)
    return model, result, metrics


def _scale_summary(model, result, metrics) -> Dict[str, Any]:
    return {
        "states": model.n_states,
        "gain": float(result.gain),
        "policy_digest": policy_digest(result.policy.as_dict()),
        "average_power": metrics.average_power,
        "average_queue_length": metrics.average_queue_length,
    }


def _scale_rep(paced: bool = False):
    """One timed solve, summarised at once so no model outlives its rep;
    *paced* takes host-speed samples around each of its five steps."""
    steps = OpTimer(paced)
    wall, out = _timed(lambda: _scale_solve(
        step=lambda fn, *args, **kwargs: steps.wrap(fn)(*args, **kwargs)
    ))
    steps.close()
    return wall, _scale_summary(*out), steps


def _timed(job: Callable[[], Any]):
    started = time.perf_counter()
    out = job()
    return time.perf_counter() - started, out


def _check_scale(run: Run, out: Dict[str, Any]) -> bool:
    want = expected("sys-scale")
    got = out
    run.notes["sys_scale"] = got
    ok = run.check("sys-scale.states", got["states"] == want["states"], got["states"])
    ok &= run.check("sys-scale.policy_digest",
                    got["policy_digest"] == want["policy_digest"], got["policy_digest"])
    for key in ("gain", "average_power", "average_queue_length"):
        ok &= run.check(f"sys-scale.{key}", close(got[key], want[key]), got[key])
    return ok


def measure_scale(run: Run) -> None:
    run.sizes.update(capacity=SCALE_CAPACITY, weight=SCALE_WEIGHT, backend="sparse")
    reps = repeat(run, "solve", lambda: _scale_rep(paced=True))
    if not reps:
        return
    wrong = sum(not _check_scale(run, out) for _, out, _ in reps)
    run.ledger.add("solve", len(reps), wrong)
    reference = median([steps.at_reference(wall) for wall, _, steps in reps])
    wall = median([wall - steps.sampling_s for wall, _, steps in reps])
    run.timing("run_s", reference, wall, "s")
    run.timing("op_p50_ms", reference * 1e3, wall * 1e3, "ms")


def _install_solver_spans(stack: contextlib.ExitStack, tracer: Tracer) -> None:
    install(stack, tracer, presets_mod, "paper_system", "dpm.paper_system")
    install(stack, tracer, PowerManagedSystemModel, "build_ctmdp",
            "dpm.build_ctmdp", layers.count_model(tracer))
    install(stack, tracer, analysis_mod, "evaluate_dpm_policy", "dpm.evaluate")
    install(stack, tracer, optimizer_mod, "evaluate_dpm_policy", "dpm.evaluate")
    hook = layers.count_policy_iteration(tracer)
    install(stack, tracer, pi_mod, "policy_iteration", "ctmdp.policy_iteration", hook)
    install(stack, tracer, optimizer_mod, "policy_iteration",
            "ctmdp.policy_iteration", hook)


def measure_scale_traced(run: Run, tracer: Tracer) -> None:
    untraced_wall, out, _ = _scale_rep()
    run.ledger.add("solve", 1, not _check_scale(run, out))
    with contextlib.ExitStack() as stack:
        _install_solver_spans(stack, tracer)
        install(stack, tracer, admission_mod, "admit_model", "robust.admission")
        started = time.perf_counter()
        traced_wall, out = _timed(_scale_solve)
    run.ledger.add("solve", 1, not _check_scale(run, _scale_summary(*out)))
    layers.finish(run, tracer, started, traced_wall, untraced_wall)


# -- sweep -------------------------------------------------------------------


def _sweep(capacity: int = SWEEP_CAPACITY, weights=SWEEP_WEIGHTS) -> List[Any]:
    model = presets_mod.paper_system(capacity=capacity)
    return optimizer_mod.sweep_weights(model, weights, backend="auto")


def warm_scale() -> None:
    """Set-up: the same solve on the 2003-state SYS, so lazy imports and
    the numerical libraries' first-call costs (about a second on a fresh
    process) land in ``setup_s``, not in the first timed rep."""
    _scale_solve(capacity=500)


def warm_sweep() -> None:
    """Set-up: one solve at the sweep's size and a two-weight sweep."""
    optimizer_mod.optimize_weighted(
        presets_mod.paper_system(capacity=SWEEP_CAPACITY), 1.0, backend="auto"
    )
    _sweep(capacity=5, weights=SWEEP_WEIGHTS[:2])


def _sweep_rows(results: List[Any]) -> List[Dict[str, Any]]:
    return [
        {
            "weight": r.weight,
            "policy_digest": policy_digest(r.policy.as_dict()),
            "average_power": r.metrics.average_power,
            "average_queue_length": r.metrics.average_queue_length,
        }
        for r in results
    ]


def _check_sweep(run: Run, rows: List[Dict[str, Any]]) -> int:
    """Checks one sweep's rows; returns how many per-weight solves are wrong."""
    want = expected("sweep")
    if not run.check("sweep.weights", len(rows) == len(want), len(rows)):
        return len(want)
    wrong = 0
    for got, exp in zip(rows, want):
        # The weighted gain is power + w * queue, so matching both matches
        # it. The policy digest is only noted: warm starts and tie-breaks
        # pick among equally optimal actions in states that do not change
        # the result, and an equally optimal solver may pick differently.
        ok = (
            got["weight"] == exp["weight"]
            and close(got["average_power"], exp["average_power"])
            and close(got["average_queue_length"], exp["average_queue_length"])
        )
        wrong += not run.check(f"sweep.w={got['weight']:.4f}", ok, got)
    power = [r["average_power"] for r in rows]
    queue = [r["average_queue_length"] for r in rows]
    monotone = all(b >= a - 1e-9 for a, b in zip(power, power[1:])) and all(
        b <= a + 1e-9 for a, b in zip(queue, queue[1:])
    )
    run.check("sweep.frontier_monotone", monotone)
    run.notes["sweep_distinct_policies"] = len({r["policy_digest"] for r in rows})
    run.notes["sweep_policy_digests_as_recorded"] = sum(
        got["policy_digest"] == exp["policy_digest"] for got, exp in zip(rows, want)
    )
    return wrong


def _timed_sweep(paced: bool = False):
    """One timed sweep, summarised at once so no model outlives its rep;
    *paced* takes host-speed samples around each per-weight solve."""
    solves = OpTimer(paced)
    with patched(optimizer_mod, "optimize_weighted",
                 solves.wrap(optimizer_mod.optimize_weighted)):
        wall, results = _timed(_sweep)
    solves.close()
    return wall, _sweep_rows(results), solves


def measure_sweep(run: Run) -> None:
    run.sizes.update(capacity=SWEEP_CAPACITY, weights=len(SWEEP_WEIGHTS),
                     weight_range=[SWEEP_WEIGHTS[0], SWEEP_WEIGHTS[-1]],
                     backend="auto")
    reps = repeat(run, "sweep", lambda: _timed_sweep(paced=True))
    if not reps:
        return
    for _, rows, solves in reps:
        run.ledger.add("solve", solves.attempted, solves.failed + _check_sweep(run, rows))
    run.timing("run_s", median([solves.at_reference(wall) for wall, _, solves in reps]),
               median([wall - solves.sampling_s for wall, _, solves in reps]), "s")
    timers = [solves for _, _, solves in reps]
    run.timing("op_p50_ms",
               percentile([s * 1e3 for t in timers for s in t.reference_seconds()], 50),
               percentile([s * 1e3 for t in timers for s in t.seconds], 50), "ms")


def measure_sweep_traced(run: Run, tracer: Tracer) -> None:
    untraced_wall, rows, solves = _timed_sweep()
    run.ledger.add("solve", solves.attempted, solves.failed + _check_sweep(run, rows))
    with contextlib.ExitStack() as stack:
        _install_solver_spans(stack, tracer)
        install(stack, tracer, optimizer_mod, "optimize_weighted",
                "dpm.optimize_weighted")
        started = time.perf_counter()
        traced_wall, results = _timed(_sweep)
    run.ledger.add("solve", len(results), _check_sweep(run, _sweep_rows(results)))
    layers.finish(run, tracer, started, traced_wall, untraced_wall)

