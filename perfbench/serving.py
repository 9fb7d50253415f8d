"""Workload ``serve``: ``repro-dpm serve --port`` on the 2003-state SYS.

Three phases, each against a real server process:

(a) cold start on an empty artifact directory -- solve, admit, certify,
    persist -- until the endpoint accepts;
(b) warm restarts on the stored artifact: the server's bootstrap in this
    process (timed), then one server process until the endpoint accepts;
(c) decision traffic from this one process: open-loop Poisson traffic at
    three fixed rates over at most ``nproc`` connections, then a closed
    loop on one connection.

The traffic is mostly valid joint-state lookups, about 20 % transfer-state
queries and a small share of malformed lines. Every answer is compared
with ``load_artifact(...).action_for(mode, transfer, count)`` for the
artifact being served. The only workload that reaches ``repro.serve``,
``repro.certify`` and ``repro.robust.admission``; it bypasses the
simulator.
"""

from __future__ import annotations

import collections
import contextlib
import gc
import importlib
import json
import math
import os
import re
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.dpm.service_queue import TRANSFER
from repro.dpm.system import PowerManagedSystemModel
from repro.errors import ServeRequestError
from repro.serve import ArtifactStore, ServingRuntime
from repro.serve.artifact import load_artifact

from common import (
    SCRATCH, SRC, Run, at_reference, cpu_count, median, peak_rss_mb_of,
    percentile, repeat,
)
from spans import Tracer, install
import layers

# Module handles, looked up at call time so a traced run can wrap their
# functions (some names are shadowed by same-named package attributes).
certify_pkg = importlib.import_module("repro.certify")
optimizer_mod = importlib.import_module("repro.dpm.optimizer")
presets_mod = importlib.import_module("repro.dpm.presets")
server_mod = importlib.import_module("repro.serve.server")
supervisor_mod = importlib.import_module("repro.serve.supervisor")

CAPACITY = 500  # paper_system(capacity=500) has 2003 states
WEIGHT = 1.0
#: Fixed offered loads in decisions per second.
RATES = {"low": 1000.0, "mid": 2500.0, "high": 4000.0}
#: Share of ``--seconds`` each open-loop phase runs.
PHASE_SHARE = 0.25
#: Unmeasured traffic before the phases, at the mid rate, so the first
#: phase does not time the server's first requests after start.
WARMUP_S = 1.0
#: Closed-loop requests (one connection, each sent when the previous
#: answer arrived), in blocks before and after each open-loop phase. The
#: median over blocks of each block's median round trip is the end-to-end
#: ``op_p50_ms``. Open-loop medians on a shared 2-core host mostly time
#: how fast an idle process is woken (0.2-0.9 ms from run to run); the
#: closed-loop round trip times the decision path itself, and blocks
#: spread over the run keep a short host stall from moving it.
CLOSED_BLOCK = 2500
CLOSED_BLOCKS_PER_GAP = 2
CLOSED_BLOCKS = CLOSED_BLOCKS_PER_GAP * (len(RATES) + 1)
#: A closed-loop answer missing this long is a missing response.
RESPONSE_TIMEOUT_S = 10.0
#: Latency limit on p99 for ``max_rate_under_slo``.
SLO_P99_MS = 2.0
#: More requests than this still unanswered when the schedule ends
#: counts as a growing backlog.
BACKLOG_LIMIT = 10
TRANSFER_SHARE = 0.20
MALFORMED_SHARE = 0.02
#: Malformed lines and invalid lookups; each must get a typed error.
MALFORMED = (
    b"not json\n",
    b"[1, 2]\n",
    b'{"mode": 3}\n',
    b'{"mode": "active", "count": "x"}\n',
    b'{"op": "bogus"}\n',
    b'{"mode": "warp", "count": 1}\n',
    b'{"mode": "active", "count": -1}\n',
)
COLD_STARTS = 2
START_TIMEOUT_S = 120.0
DRAIN_S = 2.0

_READY = re.compile(rb"serving on (\S+):(\d+)")
_SOURCE = re.compile(rb"\(source: (\w+)\)")


class ServerProcess:
    """One ``repro-dpm serve --port 0`` process on *artifact_dir*."""

    def __init__(self, artifact_dir: str, log_path: str) -> None:
        self.artifact_dir = artifact_dir
        self.log_path = log_path
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self.source = ""
        self.ready_s = math.nan

    def start(self) -> float:
        """Launches the server; returns seconds until it accepts."""
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONUNBUFFERED="1")
        with open(self.log_path, "ab") as log:
            started = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve",
                 "--capacity", str(CAPACITY), "--weight", str(WEIGHT),
                 "--artifact-dir", self.artifact_dir, "--port", "0",
                 "--duration", "600"],
                stdout=subprocess.PIPE, stderr=log, env=env,
            )
        fd = self.proc.stdout.fileno()
        buffer = b""
        deadline = started + START_TIMEOUT_S
        while True:
            match = _READY.search(buffer)
            if match:
                self.ready_s = time.perf_counter() - started
                self.port = int(match.group(2))
                source = _SOURCE.search(buffer)
                self.source = source.group(1).decode() if source else ""
                return self.ready_s
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise RuntimeError("server did not become ready in time")
            readable, _, _ = select.select([fd], [], [], remaining)
            if readable:
                chunk = os.read(fd, 4096)
                if not chunk:
                    raise RuntimeError(
                        f"server exited before ready: {buffer.decode()!r}"
                    )
                buffer += chunk

    def peak_rss_mb(self) -> float:
        return peak_rss_mb_of(self.proc.pid)

    def stop(self) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stdout.close()


# -- the request mix ---------------------------------------------------------


def request_mix(artifact, rng: np.random.Generator, n: int
                ) -> List[Tuple[bytes, Optional[Tuple[str, bool, int]]]]:
    """*n* request lines, each with its lookup (``None`` when malformed)."""
    modes = sorted({s.mode for s in artifact.assignment()})
    transfer_modes = sorted(
        {s.mode for s in artifact.assignment() if s.queue.kind == TRANSFER}
    )
    kinds = rng.random(n)
    out = []
    for i in range(n):
        if kinds[i] < MALFORMED_SHARE:
            out.append((MALFORMED[i % len(MALFORMED)], None))
            continue
        transfer = bool(kinds[i] < MALFORMED_SHARE + TRANSFER_SHARE)
        mode = str(rng.choice(transfer_modes if transfer else modes))
        count = int(rng.integers(0, CAPACITY + 5))
        line = json.dumps({"mode": mode, "transfer": transfer, "count": count})
        out.append((line.encode() + b"\n", (mode, transfer, count)))
    return out


def expected_answer(artifact, lookup) -> Dict[str, Any]:
    """What a correct server answers; errors are compared by type."""
    if lookup is None:
        return {"error": "ServeRequestError"}
    try:
        action = artifact.action_for(*lookup)
    except ServeRequestError:
        return {"error": "ServeRequestError"}
    return {"action": action, "source": "fresh", "version": artifact.version}


def _normalise(raw: Optional[bytes]) -> Any:
    if raw is None:
        return None
    try:
        doc = json.loads(raw)
    except ValueError:
        return {"unparseable": raw[:80].decode("utf-8", "replace")}
    if isinstance(doc, dict) and isinstance(doc.get("error"), dict):
        return {"error": doc["error"].get("type")}
    return doc


# -- the open-loop load generator --------------------------------------------


def open_loop(port: int, lines: List[bytes], offsets: np.ndarray,
              connections: int) -> Dict[str, Any]:
    """Sends ``lines[i]`` when due at ``offsets[i]`` seconds, round-robin
    over *connections*, whatever is still outstanding (open loop).

    Returns per-request due, send and receive times and responses, and
    the backlog (sent but unanswered) when the schedule ended.
    """
    socks = [socket.create_connection(("127.0.0.1", port), timeout=10)
             for _ in range(connections)]
    # A full collection over the benchmark's live objects stalls the
    # generator for milliseconds; the phase allocates little, so collect
    # now and not during it.
    gc.collect()
    gc.disable()
    try:
        for s in socks:
            s.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        index = {s: c for c, s in enumerate(socks)}
        n = len(lines)
        due = (time.perf_counter() + 0.05 + offsets).tolist()
        sent_at = [math.nan] * n
        recv_at = [math.nan] * n
        responses: List[Optional[bytes]] = [None] * n
        pending = [collections.deque() for _ in socks]
        buffers = [b""] * connections
        i = answered = 0
        backlog_end = None
        deadline = due[-1] + DRAIN_S
        while answered < n:
            now = time.perf_counter()
            while i < n and due[i] <= now:
                c = i % connections
                socks[c].sendall(lines[i])
                now = sent_at[i] = time.perf_counter()
                pending[c].append(i)
                i += 1
            if i == n and backlog_end is None:
                backlog_end = n - answered
            if now >= deadline:
                break
            timeout = (due[i] if i < n else deadline) - now
            readable, _, _ = select.select(socks, [], [], max(timeout, 0.0))
            received = time.perf_counter()
            for s in readable:
                c = index[s]
                data = s.recv(1 << 16)
                if not data:
                    raise RuntimeError("server closed a connection")
                buffers[c] += data
                *complete, buffers[c] = buffers[c].split(b"\n")
                for raw in complete:
                    j = pending[c].popleft()
                    recv_at[j] = received
                    responses[j] = raw
                    answered += 1
    finally:
        gc.enable()
        for s in socks:
            s.close()
    return {
        "due": due, "sent": sent_at, "received": recv_at,
        "responses": responses, "sent_count": i,
        "backlog_end": n - answered if backlog_end is None else backlog_end,
        "deadline": deadline,
    }


def run_phase(port: int, artifact, rate: float, seconds: float, seed: int,
              phase: int, connections: int) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, phase])
    n = max(int(rate * seconds), 1)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    requests = request_mix(artifact, rng, n)
    traffic = open_loop(port, [line for line, _ in requests], offsets, connections)
    latency_ms, lag_ms = [], []
    ok = rejected = failed = 0
    for j, (_, lookup) in enumerate(requests):
        want = expected_answer(artifact, lookup)
        got = _normalise(traffic["responses"][j])
        if got == want:
            if "error" in want:
                rejected += 1
            else:
                ok += 1
            latency_ms.append((traffic["received"][j] - traffic["due"][j]) * 1e3)
        else:
            failed += 1  # wrong or missing: a miss at any latency limit
            latency_ms.append((traffic["deadline"] - traffic["due"][j]) * 1e3)
        if not math.isnan(traffic["sent"][j]):
            lag_ms.append((traffic["sent"][j] - traffic["due"][j]) * 1e3)
    p99 = percentile(latency_ms, 99)
    return {
        "rate": rate, "requests": requests, "sent": traffic["sent_count"],
        "ok": ok, "rejected": rejected, "failed": failed,
        "p50_ms": percentile(latency_ms, 50), "p99_ms": p99,
        "lag_p99_ms": percentile(lag_ms, 99) if lag_ms else math.nan,
        "backlog_end": traffic["backlog_end"],
        "meets_slo": p99 <= SLO_P99_MS and failed == 0
        and traffic["backlog_end"] <= BACKLOG_LIMIT,
    }


def closed_loop(port: int, lines: List[bytes]
                ) -> Tuple[List[float], List[Optional[bytes]]]:
    """Sends each line once the previous answer arrived; returns the
    round trips in seconds and the raw answers (``None`` when missing).

    The client spins on its socket for each answer instead of sleeping,
    so a round trip times the server's wake-up, parse, decision and
    answer, and not also this process's wake-up, which on a shared host
    varies more than the whole decision path.
    """
    rtt: List[float] = []
    responses: List[Optional[bytes]] = []
    with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        sock.setblocking(False)
        buffer = b""
        gc.collect()
        gc.disable()
        try:
            for line in lines:
                started = time.perf_counter()
                sock.sendall(line)
                deadline = started + RESPONSE_TIMEOUT_S
                while b"\n" not in buffer and time.perf_counter() < deadline:
                    try:
                        chunk = sock.recv(1 << 16)
                    except BlockingIOError:
                        continue
                    if not chunk:
                        raise RuntimeError("server closed a connection")
                    buffer += chunk
                rtt.append(time.perf_counter() - started)
                raw, newline, buffer = buffer.partition(b"\n")
                if not newline:  # no answer: it and every later one are missing
                    missing = len(lines) - len(responses)
                    responses += [None] * missing
                    rtt += [RESPONSE_TIMEOUT_S] * (missing - 1)
                    break
                responses.append(raw)
        finally:
            gc.enable()
    return rtt, responses


def run_closed_phase(port: int, artifact, n: int, seed: int, phase: int
                     ) -> Dict[str, Any]:
    rng = np.random.default_rng([seed, phase])
    requests = request_mix(artifact, rng, n)
    rtt, responses = closed_loop(port, [line for line, _ in requests])
    wants = [expected_answer(artifact, lookup) for _, lookup in requests]
    correct = [_normalise(raw) == want for raw, want in zip(responses, wants)]
    rtt_ms = [t * 1e3 for t in rtt]
    return {
        "requests": requests, "sent": n, "rtt_ms": rtt_ms,
        "ok": sum(c and "error" not in w for c, w in zip(correct, wants)),
        "rejected": sum(c and "error" in w for c, w in zip(correct, wants)),
        "failed": correct.count(False),
        "p50_ms": percentile(rtt_ms, 50), "p99_ms": percentile(rtt_ms, 99),
    }


def _merge_blocks(blocks: List[Dict[str, Any]]) -> Dict[str, Any]:
    rtt_ms = [t for b in blocks for t in b["rtt_ms"]]
    return {
        "requests": [r for b in blocks for r in b["requests"]],
        "sent": sum(b["sent"] for b in blocks),
        **{k: sum(b[k] for b in blocks) for k in ("ok", "rejected", "failed")},
        "p50_ms": percentile(rtt_ms, 50), "p99_ms": percentile(rtt_ms, 99),
        "block_p50_ms": [b["p50_ms"] for b in blocks],
    }


# -- the measured run ----------------------------------------------------------


class _Servers:
    """Every server process of a run, stopped on exit."""

    def __init__(self, scratch: str) -> None:
        self.scratch = scratch
        self.started: List[ServerProcess] = []
        self.peak_rss = 0.0

    def start(self, artifact_dir: str) -> ServerProcess:
        server = ServerProcess(artifact_dir, os.path.join(self.scratch, "server.log"))
        self.started.append(server)
        server.start()
        return server

    def stop(self, server: ServerProcess) -> None:
        if server.proc is not None and server.proc.poll() is None:
            self.peak_rss = max(self.peak_rss, server.peak_rss_mb())
        server.stop()

    def close(self) -> None:
        for server in self.started:
            server.stop()


def _server_phases(run: Run, scratch: str, cold_starts: int,
                   timed_restarts: bool) -> Dict[str, Any]:
    """Cold starts, warm restarts and the three traffic phases. With
    *timed_restarts* the in-process restart runs for ``--seconds``,
    otherwise once."""
    connections = min(cpu_count(), 2)
    out: Dict[str, Any] = {"cold": [], "restart": [], "phases": {}}
    servers = _Servers(scratch)
    try:
        artifact_dir = None
        for k in range(cold_starts):
            artifact_dir = os.path.join(scratch, f"cold{k}")
            server = servers.start(artifact_dir)
            ok = run.check(f"serve.cold_start[{k}].solved", server.source == "solved",
                           server.source)
            run.ledger.add("bootstrap", 1, not ok)
            out["cold"].append(server.ready_s)
            servers.stop(server)
        artifact = load_artifact(os.path.join(artifact_dir, ArtifactStore.FILENAME))
        # The first in-process bootstrap pays first-call costs; not timed.
        _bootstrap_in_process(artifact_dir, "stored")
        def restart() -> float:
            return _bootstrap_in_process(artifact_dir, "stored")[1]

        if timed_restarts:
            samples: List[float] = []
            out["restart"] = repeat(run, "restart", restart, samples)
            out["restart_reference"] = [
                at_reference(w, c) for w, c in zip(out["restart"], samples)
            ]
        else:
            out["restart"] = [restart()]
        run.ledger.add("restart", len(out["restart"]))
        server = servers.start(artifact_dir)
        ok = run.check("serve.restart.stored", server.source == "stored", server.source)
        run.ledger.add("restart", 1, not ok)
        out["restart_process_s"] = server.ready_s
        warmup = run_phase(server.port, artifact, RATES["mid"], WARMUP_S,
                           run.seed, len(RATES), connections)
        run.ledger.add("decide.warmup", len(warmup["requests"]), warmup["failed"])
        blocks: List[Dict[str, Any]] = []

        def closed_blocks() -> None:
            for _ in range(CLOSED_BLOCKS_PER_GAP):
                blocks.append(run_closed_phase(server.port, artifact, CLOSED_BLOCK,
                                               run.seed, 10 + len(blocks)))

        closed_blocks()
        for p, (name, rate) in enumerate(RATES.items()):
            result = run_phase(server.port, artifact, rate,
                               PHASE_SHARE * run.seconds, run.seed, p,
                               connections)
            run.ledger.add(f"decide.{name}", len(result["requests"]), result["failed"])
            run.check(f"serve.answers.{name}", result["failed"] == 0, result["failed"])
            out["phases"][name] = result
            closed_blocks()
        out["closed"] = _merge_blocks(blocks)
        run.ledger.add("decide.closed", out["closed"]["sent"], out["closed"]["failed"])
        run.check("serve.answers.closed", out["closed"]["failed"] == 0,
                  out["closed"]["failed"])
        servers.stop(server)
        out["peak_rss_mb"] = servers.peak_rss
    finally:
        servers.close()
    return out


def _sizes(run: Run) -> None:
    run.sizes.update(capacity=CAPACITY, states=4 * CAPACITY + 3, weight=WEIGHT,
                     rates=RATES,
                     phase_s=PHASE_SHARE * run.seconds,
                     warmup_s=WARMUP_S, closed_block=CLOSED_BLOCK,
                     closed_blocks=CLOSED_BLOCKS,
                     transfer_share=TRANSFER_SHARE, malformed_share=MALFORMED_SHARE,
                     connections=min(cpu_count(), 2), cold_starts=COLD_STARTS,
                     restart_s=run.seconds)


def measure(run: Run) -> None:
    _sizes(run)
    scratch = tempfile.mkdtemp(prefix="serve-", dir=SCRATCH)
    try:
        out = _server_phases(run, scratch, COLD_STARTS, True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    run.metric("setup_s", median(out["cold"]), "s")
    run.timing("run_s", median(out["restart_reference"]), median(out["restart"]), "s")
    run.metric("peak_rss_mb", out["peak_rss_mb"], "MB")
    run.metric("op_p50_ms", median(out["closed"]["block_p50_ms"]), "ms")
    run.notes["serve"] = _phase_notes(out)


def _phase_notes(out: Dict[str, Any]) -> Dict[str, Any]:
    phases = {**out["phases"], "closed": out["closed"]}
    return {
        "cold_start_s": out["cold"],
        "restart_s": out["restart"],
        **{
            name: {k: v for k, v in result.items() if k != "requests"}
            for name, result in phases.items()
        },
    }


# -- the traced run ------------------------------------------------------------


def _bootstrap_in_process(artifact_dir: str, expected: str
                          ) -> Tuple[ServingRuntime, float]:
    """``repro-dpm serve``'s bootstrap without the process around it:
    ``solved`` on an empty directory, ``stored`` on a stored artifact."""
    gc.collect()  # the previous bootstrap's garbage is not this one's cost
    started = time.perf_counter()
    model = presets_mod.paper_system(capacity=CAPACITY)
    runtime = ServingRuntime(model, WEIGHT, ArtifactStore(artifact_dir))
    source = runtime.bootstrap()
    wall = time.perf_counter() - started
    if runtime.bootstrap_source != expected or source != "fresh":
        raise RuntimeError(
            f"in-process bootstrap ended on {runtime.bootstrap_source}, "
            f"expected {expected}"
        )
    return runtime, wall


def _install_serve_spans(stack: contextlib.ExitStack, tracer: Tracer) -> None:
    install(stack, tracer, presets_mod, "paper_system", "dpm.paper_system")
    install(stack, tracer, supervisor_mod, "solve_rated", "serve.solve")
    install(stack, tracer, PowerManagedSystemModel, "build_ctmdp",
            "dpm.build_ctmdp", layers.count_model(tracer))
    install(stack, tracer, optimizer_mod, "policy_iteration",
            "ctmdp.policy_iteration", layers.count_policy_iteration(tracer))
    install(stack, tracer, optimizer_mod, "evaluate_dpm_policy", "dpm.evaluate")
    install(stack, tracer, supervisor_mod, "compile_artifact", "serve.artifact.compile")
    install(stack, tracer, supervisor_mod, "validate_artifact", "robust.admission")
    install(stack, tracer, server_mod, "validate_artifact", "robust.admission")
    install(stack, tracer, certify_pkg, "certify_artifact", "certify")
    for method in ("save", "save_certificate"):
        install(stack, tracer, ArtifactStore, method, "serve.artifact.save")
    for method in ("load", "load_certificate"):
        install(stack, tracer, ArtifactStore, method, "serve.artifact.load")


def _decide_us(runtime: ServingRuntime, requests) -> float:
    """Mean in-process ``ServingRuntime.decide`` time over the mix."""
    lookups = [lookup for _, lookup in requests if lookup is not None]
    started = time.perf_counter()
    for mode, transfer, count in lookups:
        try:
            runtime.decide(mode, transfer, count)
        except ServeRequestError:
            pass
    return (time.perf_counter() - started) / len(lookups) * 1e6


def measure_traced(run: Run, tracer: Tracer) -> None:
    _sizes(run)
    scratch = tempfile.mkdtemp(prefix="serve-", dir=SCRATCH)
    try:
        out = _server_phases(run, scratch, 1, False)
        # The first in-process bootstrap pays lazy imports and first-call
        # costs that neither timed one should carry.
        _bootstrap_in_process(os.path.join(scratch, "warm"), "solved")
        _, untraced_wall = _bootstrap_in_process(os.path.join(scratch, "plain"),
                                                 "solved")
        with contextlib.ExitStack() as stack:
            _install_serve_spans(stack, tracer)
            started = time.perf_counter()
            runtime, traced_wall = _bootstrap_in_process(
                os.path.join(scratch, "traced"), "solved"
            )
        run.ledger.add("bootstrap", 3)
        artifact = runtime.server.artifact
        model = runtime.base_model
        for check in layers.CERTIFY_CHECKS:
            t = time.perf_counter()
            certify_pkg.certify_artifact(artifact, model, checks=(check,))
            tracer.counts[f"certify.{check}.s"] = time.perf_counter() - t
        decide_us = _decide_us(runtime, out["closed"]["requests"])
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    counts = tracer.counts
    counts["serve.decide_us"] = decide_us
    counts["serve.protocol_us"] = out["closed"]["p50_ms"] * 1e3 - decide_us
    counts["serve.restart_process_s"] = out["restart_process_s"]
    counts["decide_closed_p50_ms"] = out["closed"]["p50_ms"]
    counts["decide_closed_p99_ms"] = out["closed"]["p99_ms"]
    best = 0.0
    for name, result in out["phases"].items():
        counts[f"decide_p50_ms.{name}"] = result["p50_ms"]
        counts[f"decide_p99_ms.{name}"] = result["p99_ms"]
        counts[f"loadgen.lag_p99_ms.{name}"] = result["lag_p99_ms"]
        counts[f"loadgen.sent.{name}"] = result["sent"]
        counts[f"loadgen.ok.{name}"] = result["ok"]
        counts[f"loadgen.rejected.{name}"] = result["rejected"]
        counts[f"loadgen.failed.{name}"] = result["failed"]
        counts[f"serve.backlog_end.{name}"] = result["backlog_end"]
        if result["meets_slo"]:
            best = max(best, result["rate"])
    counts["max_rate_under_slo"] = best
    run.notes["serve"] = _phase_notes(out)
    layers.finish(run, tracer, started, traced_wall, untraced_wall)
