"""Shared pieces of the benchmark: paths, provenance, set-up probes, the
repetition loop, failure accounting, digests and percentiles."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_PY = Path(__file__).resolve().parent / "run.py"
#: Scratch space (artifact directories, server logs); removed after a run.
SCRATCH = ROOT / ".perfbench_tmp"
#: One JSON document per run: provenance, metrics, checks and spans.
OUT = ROOT / ".perfbench_out"
#: Declares every metric's name and unit; the report follows its order.
BENCHMARK_JSON = ROOT / "BENCHMARK.json"
#: Results recorded when the benchmark was written, checked by every run.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Every timed job runs at least this often, even past ``--seconds``, so a
#: median always has more than one sample.
MIN_REPS = 2

#: Set-up is measured this many times per run, in fresh processes.
SETUP_PROBES = 3

#: Seconds :func:`speed_sample` takes on the reference host (a shared
#: 2-core Xeon virtual machine, at its median speed).
SPEED_REFERENCE_S = 0.0200


def _speed_kernel() -> None:
    """Fixed work that does not touch the program: interpreter loops, a
    dict, a sort and a small dense solve -- the kinds of work the
    workloads do."""
    import numpy as np

    total = 0
    for i in range(160_000):
        total += i * i % 7
    table: Dict[int, int] = {}
    for i in range(40_000):
        key = i & 1023
        table[key] = table.get(key, 0) + 1
    rng = np.random.default_rng(0)
    np.sort(rng.random(50_000))
    matrix = rng.random((80, 80)) + 80.0 * np.eye(80)
    np.linalg.solve(matrix, rng.random(80))


def speed_sample() -> float:
    """Seconds the host takes for :func:`_speed_kernel` now.

    A shared host runs the same code 10-50 % slower for seconds to
    minutes at a time. A timed unit of work times
    ``SPEED_REFERENCE_S / speed_sample()``, with the sample taken next to
    the unit, is the unit's time at the reference host's speed.
    ``perfbench/README.md`` says which end-to-end times are reported so.
    """
    started = time.perf_counter()
    _speed_kernel()
    return time.perf_counter() - started


def at_reference(seconds: float, sample: float) -> float:
    """*seconds* measured next to the speed *sample*, at reference speed."""
    return seconds * SPEED_REFERENCE_S / sample


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


def declared_metrics(kind: str) -> List[Tuple[str, str]]:
    """(name, unit) of every metric ``BENCHMARK.json`` declares under
    *kind* (``end_to_end`` or ``per_layer``), in its order."""
    declared = json.loads(BENCHMARK_JSON.read_text())[kind]
    return [(m["name"], m["unit"]) for m in declared]


#: Relative tolerance on recorded results: loose enough for a change of
#: summation order, far too tight for a change of behaviour.
RTOL = 1e-9


def close(a: float, b: float) -> bool:
    """*a* equals the recorded *b* within :data:`RTOL` (NaN equals NaN)."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=1e-12)


def expected(workload: str) -> Any:
    """The recorded results of *workload* from ``expected.json``."""
    return json.loads(EXPECTED_PATH.read_text())[workload]


def percentile(values: Sequence[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def digest(payload: Any) -> str:
    """Short SHA-256 of a JSON-serialisable payload (floats kept exact)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def policy_digest(assignment: Dict[Any, Any]) -> str:
    """Digest of a ``{state: action}`` table, independent of dict order."""
    return digest(sorted((repr(s), repr(a)) for s, a in assignment.items()))


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def provenance(workload: str, seed: int, seconds: int, trace: bool,
               sizes: Dict[str, Any]) -> Dict[str, Any]:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "src_digest": _src_digest(),
        "nproc": cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes,
    }


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter until the workload's
    modules are imported, its warm-up has run and it reports ready."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(RUN_PY), "--probe", "--workload", workload,
         "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True,
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
    finally:
        proc.stdout.close()
        proc.wait(timeout=60)
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe for {workload} failed: {line!r}")
    return elapsed


@dataclass
class Ledger:
    """Attempted and failed operations per phase, behind ``ok_rate``.

    A traceback, a typed error where a result was due, a wrong answer and
    a missing response all count as failures; a typed rejection of an
    invalid request is a correct answer.
    """

    phases: Dict[str, List[int]] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def add(self, phase: str, attempted: int, failed: int = 0) -> None:
        entry = self.phases.setdefault(phase, [0, 0])
        entry[0] += attempted
        entry[1] += failed

    def failure(self, phase: str, message: str) -> None:
        """One failed operation (e.g. a rep that raised) with its reason."""
        self.add(phase, 1, 1)
        self.errors.append(f"{phase}: {message}")

    @property
    def attempted(self) -> int:
        return sum(a for a, _ in self.phases.values())

    @property
    def failed(self) -> int:
        return sum(f for _, f in self.phases.values())


@dataclass
class Run:
    """What one invocation measures, checks and reports."""

    workload: str
    seed: int
    seconds: int
    trace: bool
    ledger: Ledger = field(default_factory=Ledger)
    metrics: Dict[str, Any] = field(default_factory=dict)
    checks: List[Dict[str, Any]] = field(default_factory=list)
    notes: Dict[str, Any] = field(default_factory=dict)
    sizes: Dict[str, Any] = field(default_factory=dict)
    #: Wall times as measured, of the metrics reported at reference speed.
    wall: Dict[str, float] = field(default_factory=dict)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def timing(self, name: str, reference: float, wall: float, unit: str) -> None:
        """A time metric reported at reference speed; the wall time as
        measured goes into the result file's ``wall`` entry."""
        self.metric(name, reference, unit)
        self.wall[name] = float(wall)

    def check(self, name: str, ok: bool, detail: Any = None) -> bool:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks) and self.ledger.failed == 0


def repeat(run: Run, phase: str, job: Callable[[], Any],
           samples: Optional[List[float]] = None) -> List[Any]:
    """Run *job* until ``run.seconds`` have passed and at least
    :data:`MIN_REPS` times; a rep that raises is a failed operation.

    Given a *samples* list, also fills it with one host-speed sample per
    result: the mean of the samples taken just before and just after the
    rep (:func:`speed_sample`).
    """
    results, before = [], []
    started = time.perf_counter()
    while len(results) < MIN_REPS or time.perf_counter() - started < run.seconds:
        gc.collect()  # the previous rep's garbage is not this rep's cost
        sample = speed_sample() if samples is not None else math.nan
        try:
            results.append(job())
            before.append(sample)
        except Exception:  # recorded and reported; the run carries on
            run.ledger.failure(phase, traceback.format_exc())
            if len(run.ledger.errors) > 3:
                break
    if samples is not None:
        after = before[1:] + [speed_sample()]
        samples.extend((a + b) / 2 for a, b in zip(before, after))
    return results


def peak_rss_mb_self() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def peak_rss_mb_of(pid: int) -> float:
    """Peak resident set (``VmHWM``) of a live process, read from /proc."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")
