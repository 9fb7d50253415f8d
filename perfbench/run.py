#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload (``exhibits``, ``sys-scale``, ``sweep`` or ``serve``,
see ``perfbench/README.md``) from the root of a source checkout, using the
program under ``src/``. It checks the program's outputs, prints every
metric with its unit and, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0``
reports the end-to-end metrics, measured untraced, some of the times put
on the reference host's speed (see ``common.speed_sample``); ``--trace 1``
reports the per-layer metrics of a traced run, as measured. The exit code is 0 only when every
check passed and no operation failed.

Each run also writes ``.perfbench_out/<workload>-seed<N>-trace<T>.json``
with provenance, checks, notes and (traced) spans;

    python3 perfbench/run.py --compare A.json B.json

prints two such results side by side and refuses (exit 3) when their core
counts differ.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import sys
import time
import traceback
from pathlib import Path
from typing import List, Optional, Sequence

from common import (
    OUT, ROOT, SCRATCH, SETUP_PROBES, SRC, Run, declared_metrics, median,
    peak_rss_mb_self, probe_setup, provenance,
)
from spans import Tracer

#: workload -> (module, set-up warm-up, untraced and traced entry points).
#: Set-up is "process start to ready": imports plus the warm-up, which
#: runs the workload's code path once on a small input. ``serve`` has none:
#: its set-up is the server's cold start.
WORKLOADS = {
    "exhibits": ("exhibits", "warm", "measure", "measure_traced"),
    "sys-scale": ("solves", "warm_scale", "measure_scale", "measure_scale_traced"),
    "sweep": ("solves", "warm_sweep", "measure_sweep", "measure_sweep_traced"),
    "serve": ("serving", None, "measure", "measure_traced"),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="import the workload and report ready (set-up probe)")
    parser.add_argument("--compare", nargs=2, metavar="RESULT",
                        help="compare two result documents")
    return parser


def compare(paths: Sequence[str]) -> int:
    docs = [json.loads(Path(p).read_text()) for p in paths]
    cores = [d["provenance"]["nproc"] for d in docs]
    if cores[0] != cores[1]:
        print(f"error: refusing to compare results from {cores[0]} and "
              f"{cores[1]} cores", file=sys.stderr)
        return 3
    names = list(docs[0]["metrics"])
    print(f"{'metric':34s} {'A':>14s} {'B':>14s} {'B/A':>8s}")
    for name in names:
        a = docs[0]["metrics"][name]["value"]
        b = docs[1]["metrics"].get(name, {}).get("value")
        ratio = f"{b / a:8.3f}" if b is not None and a else "       -"
        print(f"{name:34s} {a:14.6g} {b if b is not None else float('nan'):14.6g} {ratio}"
              f" {docs[0]['metrics'][name]['unit']}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.compare:
        return compare(args.compare)
    if args.workload is None:
        print("error: --workload is required", file=sys.stderr)
        return 2
    module_name, warm, plain, traced = WORKLOADS[args.workload]
    module = importlib.import_module(module_name)
    if warm is not None:
        getattr(module, warm)()
    if args.probe:
        print("ready", flush=True)
        return 0
    return measure(args, module, plain, traced)


def measure(args: argparse.Namespace, module, plain: str, traced: str) -> int:
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    tracer = Tracer() if args.trace else None
    origin = time.perf_counter()
    SCRATCH.mkdir(exist_ok=True)
    try:
        if tracer is not None:
            getattr(module, traced)(run, tracer)
        else:
            if args.workload != "serve":  # serve's set-up is its cold start
                setups = [probe_setup(args.workload, args.seed)
                          for _ in range(SETUP_PROBES)]
                run.metric("setup_s", median(setups), "s")
            getattr(module, plain)(run)
            if args.workload != "serve":
                run.metric("peak_rss_mb", peak_rss_mb_self(), "MB")
    except Exception:  # reported as a failed run, never a bare traceback
        run.ledger.failure("run", traceback.format_exc())
    finally:
        with contextlib.suppress(OSError):
            SCRATCH.rmdir()  # workloads remove their own scratch directories
    ledger = run.ledger
    if tracer is None and ledger.attempted:
        run.metric("ok_rate", (ledger.attempted - ledger.failed) / ledger.attempted,
                   "ratio")
    kind = "per_layer" if tracer is not None else "end_to_end"
    expected_names = [name for name, _ in declared_metrics(kind)]
    missing = [n for n in expected_names if n not in run.metrics]
    run.check("metrics.complete", not missing, missing)

    doc = {
        "provenance": provenance(args.workload, args.seed, args.seconds,
                                 bool(args.trace), run.sizes),
        "metrics": {n: run.metrics[n] for n in expected_names if n in run.metrics},
        "checks_failed": [c for c in run.checks if not c["ok"]],
        "checks_passed": sum(c["ok"] for c in run.checks),
        "phases": {k: {"attempted": a, "failed": f}
                   for k, (a, f) in ledger.phases.items()},
        "errors": ledger.errors,
        "wall": run.wall,
        "notes": run.notes,
    }
    if tracer is not None:
        doc["trace"] = tracer.to_document(origin)
    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(doc, indent=1, default=repr) + "\n")

    for error in ledger.errors:
        print(error, file=sys.stderr)
    print("provenance " + json.dumps(doc["provenance"], default=repr))
    print("notes " + json.dumps(run.notes, default=repr))
    print("wall " + json.dumps(run.wall))
    for check in doc["checks_failed"]:
        print(f"CHECK FAILED {check['name']}: {check['detail']}")
    print(f"checks: {doc['checks_passed']} passed, {len(doc['checks_failed'])} failed; "
          f"operations: {ledger.attempted} attempted, {ledger.failed} failed")
    for name, metric in doc["metrics"].items():
        print(f"{name:34s} {metric['value']:.6g} {metric['unit']}")
    print(f"result written to {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": max(ledger.attempted, 1),
        "failed": ledger.failed,
        "metrics": doc["metrics"],
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
