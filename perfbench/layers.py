"""The per-layer metrics of a traced run, derived from spans and counts.

Every traced run reports every ``per_layer`` metric of ``BENCHMARK.json``;
a layer a workload does not reach reads 0 (the prediction "none
elsewhere"). Span names match the metric prefixes: ``sim.simulate``,
``dpm.paper_system``, ``dpm.build_ctmdp``, ``dpm.optimize_constrained``,
``dpm.evaluate``, ``robust.admission``, ``ctmdp.policy_iteration``,
``certify``, ``serve.solve`` and ``serve.artifact.{compile,save,load}``.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from common import Run, declared_metrics, median
from spans import Tracer

CERTIFY_CHECKS = ("bellman", "lp", "exact", "consensus")

#: Metrics that are the summed duration of every span of one name. The
#: rest are derived in :func:`finish` or read from ``Tracer.counts``,
#: which the workloads fill where the work is observed.
_SPAN_TOTALS = {
    "sim.simulate.s": "sim.simulate",
    "dpm.paper_system.s": "dpm.paper_system",
    "dpm.build_ctmdp.s": "dpm.build_ctmdp",
    "dpm.optimize_constrained.s": "dpm.optimize_constrained",
    "dpm.evaluate.s": "dpm.evaluate",
    "robust.admission.s": "robust.admission",
    "ctmdp.policy_iteration.s": "ctmdp.policy_iteration",
    "certify.s": "certify",
    "serve.solve.s": "serve.solve",
    "serve.artifact.compile.s": "serve.artifact.compile",
    "serve.artifact.save.s": "serve.artifact.save",
    "serve.artifact.load.s": "serve.artifact.load",
}


def _nnz(mdp: Any) -> int:
    generator = getattr(mdp, "generator", None)
    if generator is not None:  # SparseCTMDP: one CSR row per pair
        return int(generator.nnz)
    return int(sum(
        np.count_nonzero(mdp.data(s, a).rates) for s, a in mdp.state_action_pairs()
    ))


def count_model(tracer: Tracer):
    """``on_call`` hook for ``build_ctmdp``: size of the largest model."""

    def hook(record: Dict[str, Any], args: tuple, kwargs: dict, mdp: Any) -> None:
        if mdp.n_states > tracer.counts["dpm.states"]:
            tracer.counts["dpm.states"] = mdp.n_states
            tracer.counts["ctmdp.nnz"] = _nnz(mdp)

    return hook


def count_policy_iteration(tracer: Tracer):
    """``on_call`` hook for ``policy_iteration``: rounds and resolved tier."""
    from repro.ctmdp.backends import resolve_backend

    def hook(record: Dict[str, Any], args: tuple, kwargs: dict, result: Any) -> None:
        mdp = args[0] if args else kwargs["mdp"]
        tier = resolve_backend(mdp, kwargs.get("backend", "auto"))
        tracer.counts[f"ctmdp.backend.{tier}"] += 1
        tracer.counts["ctmdp.policy_iteration.rounds"] += result.iterations

    return hook


def finish(run: Run, tracer: Tracer, started: float, traced_wall: float,
           untraced_wall: float) -> None:
    """Reports every per-layer metric of a traced run.

    ``trace.coverage`` is the share of the traced job's wall time that
    root layer spans cover; ``trace.overhead`` is traced minus untraced
    wall time of the same job.
    """
    counts = tracer.counts
    values: Dict[str, float] = {
        metric: tracer.total(span) for metric, span in _SPAN_TOTALS.items()
    }
    policy_s = counts["policies.ctmdp.s"] + counts["policies.heuristic.s"]
    values["sim.self.s"] = values["sim.simulate.s"] - policy_s
    requests = counts["sim.requests"]
    values["sim.host_us_per_request"] = (
        values["sim.simulate.s"] / requests * 1e6 if requests else 0.0
    )
    for kind in ("ctmdp", "heuristic"):
        calls = counts[f"policies.{kind}.calls"]
        values[f"policies.{kind}.decide_us"] = (
            counts[f"policies.{kind}.s"] / calls * 1e6 if calls else 0.0
        )
    solves_ms = [d * 1e3 for d in tracer.durations("dpm.optimize_weighted")]
    if run.workload == "sweep" and solves_ms:
        values["ctmdp.sweep.solve_ms.p50"] = median(solves_ms)
        values["ctmdp.sweep.solve_ms.max"] = max(solves_ms)
    values["ctmdp.policy_iteration.failed"] = sum(
        1 for s in tracer.spans
        if s["name"] == "ctmdp.policy_iteration" and s["attrs"].get("error")
    )
    values["trace.coverage"] = tracer.root_time(since=started) / traced_wall
    values["trace.overhead"] = traced_wall - untraced_wall
    for name, unit in declared_metrics("per_layer"):
        value = values[name] if name in values else counts.get(name, 0.0)
        run.metric(name, value, unit)
