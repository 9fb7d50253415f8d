"""The event-driven power-managed-system simulator (Section V).

Ties together the arrival process (SR), the FIFO queue (SQ), the
simulated provider (SP) and a power-management policy (PM). The PM is
invoked *asynchronously* -- only when the system state changes (arrival,
service completion, switch completion, or an expired policy timer) --
which is the paper's key practicality claim over per-time-slice
discrete-time managers; the simulator counts PM invocations so the
claim can be quantified.

Semantics (matching the CTMDP model; see :mod:`repro.sim.provider`):

- service runs whenever the mode is active, a request waits, and the
  system is not in a *transfer* (between a completion and the completion
  of the PM-commanded switch);
- a mid-flight switch can be re-targeted or cancelled by a newer
  command (memorylessness makes this exact);
- an active-to-active mode change mid-service re-draws the remaining
  service time at the new rate;
- a command that would power down a busy server is handled per
  ``busy_powerdown``: ``"reject"`` (default -- real devices refuse,
  matching the paper's constraint 1) or ``"preempt"`` (abort the
  in-flight service and re-queue the request at the head; used by the
  no-transfer-state ablation to exhibit [11]'s modeling error).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.dpm.service_provider import ServiceProvider
from repro.errors import SimulationError
from repro.obs.log import get_logger
from repro.obs.runtime import active as obs_active
from repro.policies.base import Decision, PowerManagementPolicy, SystemView
from repro.sim.distributions import ServiceDistribution
from repro.sim.engine import EventHandle, EventScheduler
from repro.sim.provider import SimulatedProvider
from repro.sim.queue_sim import FIFORequestQueue
from repro.sim.recorder import RequestRecord, TimelineRecorder
from repro.sim.rng import RandomStreams
from repro.sim.stats import StatsCollector
from repro.sim.workload import ArrivalProcess

ARRIVAL = "arrival"
SERVICE_COMPLETE = "service_complete"
SWITCH_COMPLETE = "switch_complete"
TIMER = "timer"
START = "start"

BUSY_POWERDOWN_MODES = ("reject", "preempt")

_INF = math.inf

logger = get_logger(__name__)

#: Queue-occupancy histogram buckets: occupancies are small integers,
#: so unit-width buckets up to 64 then the overflow bucket.
OCCUPANCY_BUCKETS = tuple(float(i) for i in range(65))


@dataclass(frozen=True)
class SimulationResult:
    """Aggregate outcome of one simulation run.

    ``average_waiting_time`` is the mean sojourn (arrival to departure)
    of completed requests -- the Table-1 quantity. ``n_unserved`` counts
    requests still in the system when the run was cut off (non-zero only
    if the policy never woke the server for them).
    """

    policy_name: str
    seed: int
    elapsed: float
    average_power: float
    average_queue_length: float
    average_waiting_time: float
    n_generated: int
    n_accepted: int
    n_lost: int
    n_completed: int
    n_unserved: int
    n_switches: int
    n_pm_invocations: int
    n_pm_commands: int
    mode_residency: "Dict[str, float]" = field(default_factory=dict)

    @property
    def loss_probability(self) -> float:
        return self.n_lost / self.n_generated if self.n_generated else 0.0

    @property
    def throughput(self) -> float:
        return self.n_completed / self.elapsed if self.elapsed > 0 else 0.0


class Simulator:
    """One simulation run of SR + SQ + SP + PM.

    Parameters
    ----------
    provider:
        The SP description (modes, rates, powers, energies).
    capacity:
        The system capacity ``Q`` (waiting + in service).
    workload:
        The arrival process.
    policy:
        The power manager.
    n_requests:
        Stop generating after this many arrivals; the run then drains
        (or is cut when no events remain).
    seed:
        Master seed; arrivals, service times and switch latencies use
        independent named substreams.
    initial_mode:
        SP mode at time zero; defaults to the deepest sleep mode.
    busy_powerdown:
        ``"reject"`` or ``"preempt"``; see the module docstring.
    """

    def __init__(
        self,
        provider: ServiceProvider,
        capacity: int,
        workload: ArrivalProcess,
        policy: PowerManagementPolicy,
        n_requests: int,
        seed: int = 0,
        initial_mode: Optional[str] = None,
        busy_powerdown: str = "reject",
        service_distribution: "ServiceDistribution | None" = None,
        recorder: "TimelineRecorder | None" = None,
    ) -> None:
        if n_requests < 1:
            raise SimulationError(f"n_requests must be >= 1, got {n_requests}")
        if busy_powerdown not in BUSY_POWERDOWN_MODES:
            raise SimulationError(
                f"busy_powerdown must be one of {BUSY_POWERDOWN_MODES}, "
                f"got {busy_powerdown!r}"
            )
        from repro.robust.admission import admit_inputs

        # Entry-level admission: the same input gate the SYS model runs,
        # minus the arrival-rate check (workloads may be trace-driven).
        admit_inputs(provider, None, capacity)
        self.provider_description = provider
        self.capacity = int(capacity)
        self.workload = workload
        self.policy = policy
        self.n_requests = int(n_requests)
        self.seed = int(seed)
        self.busy_powerdown = busy_powerdown
        self.initial_mode = (
            initial_mode if initial_mode is not None else provider.deepest_sleep_mode()
        )
        self.service_distribution = service_distribution
        self.recorder = recorder

    # -- run -----------------------------------------------------------------

    def run(self) -> SimulationResult:
        # Observability is resolved once per run: the per-event cost of
        # the disabled default is a single ``is not None`` check.
        ins = obs_active()
        with ins.span(
            "sim.simulate", policy=self.policy.name, n_requests=self.n_requests
        ) as span:
            result = self._run(ins.metrics)
            if ins.tracer is not None:
                span.attrs.update(
                    n_generated=result.n_generated,
                    pm_invocations=result.n_pm_invocations,
                )
        return result

    def _run(self, metrics) -> SimulationResult:
        self._metrics = metrics
        self._occ_tally: "Optional[List[int]]" = None
        self._lat_hist = None
        event_counts: "Optional[Dict[str, int]]" = None
        if metrics is not None:
            occ_hist = metrics.histogram(
                "sim.queue_occupancy", bounds=OCCUPANCY_BUCKETS
            )
            # Occupancies are integers in [0, Q]: tally them per run and
            # fold the tally into the histogram once at the end.
            self._occ_tally = [0] * (self.capacity + 1)
            self._lat_hist = metrics.histogram(
                "profile.sim.pm_decision_latency_s", profiling=True
            )
            event_counts = {}
            wall_start = time.perf_counter()
        self.streams = RandomStreams(self.seed)
        self._service_rng = self.streams.stream("service")
        self._switching_rng = self.streams.stream("switching")
        self.scheduler = EventScheduler()
        self.sp = SimulatedProvider(
            self.provider_description,
            self.initial_mode,
            service_distribution=self.service_distribution,
        )
        self._is_active = self.provider_description.is_active
        self.queue = FIFORequestQueue(self.capacity)
        self.stats = StatsCollector()
        self.stats.set_mode(0.0, self.sp.mode)
        self.stats.set_power(0.0, self.sp.power_now())
        if self.recorder is not None:
            self.recorder.record_mode(0.0, self.sp.mode)
            self.recorder.record_queue(0.0, 0)
        if self._occ_tally is not None:
            self._occ_tally[0] += 1
        self.in_transfer = False
        self.version = 0
        self.n_generated = 0
        self._service_event: Optional[EventHandle] = None
        self._switch_event: Optional[EventHandle] = None
        self.workload.reset(self.streams.stream("arrivals"))
        self.policy.reset()

        self._schedule_next_arrival()
        self._invoke_policy(START, False)
        self._maybe_start_service()

        scheduler, queue, sp, recorder = (
            self.scheduler, self.queue, self.sp, self.recorder
        )
        while True:
            event = scheduler.pop()
            if event is None:
                break
            kind = event.kind
            if recorder is not None:
                recorder.record_event(scheduler.now, kind)
            if event_counts is not None:
                event_counts[kind] = event_counts.get(kind, 0) + 1
            if kind == ARRIVAL:
                self._on_arrival()
            elif kind == SERVICE_COMPLETE:
                self._on_service_complete()
            elif kind == SWITCH_COMPLETE:
                self._on_switch_complete()
            elif kind == TIMER:
                if event.payload == self.version:
                    self._on_timer()
                # else stale: something changed since the policy asked
            else:  # pragma: no cover - defensive
                raise SimulationError(f"unknown event kind {kind!r}")
            # Drained: every generated request resolved and nothing in
            # flight. A final switch (e.g. the power-down commanded after
            # the last departure) may complete so its energy is counted.
            if (
                self.n_generated >= self.n_requests
                and queue.occupancy == 0
                and not sp.is_serving
                and sp.switch_target is None
            ):
                break

        end_time = scheduler.now
        self.stats.finalize(end_time)
        if recorder is not None:
            for request in queue.pending_requests():
                recorder.record_request(
                    RequestRecord(
                        request_id=request.request_id,
                        arrival_time=request.arrival_time,
                        service_start_time=request.service_start_time,
                        departure_time=None,
                        lost=False,
                    )
                )
            recorder.finalize(end_time)
        if metrics is not None:
            occ_hist.observe_tally(self._occ_tally)
            self._publish_metrics(event_counts, time.perf_counter() - wall_start)
        return SimulationResult(
            policy_name=self.policy.name,
            seed=self.seed,
            elapsed=self.stats.elapsed,
            average_power=self.stats.average_power(),
            average_queue_length=self.stats.average_queue_length(),
            average_waiting_time=self.stats.average_waiting_time(),
            n_generated=self.n_generated,
            n_accepted=queue.n_accepted,
            n_lost=queue.n_lost,
            n_completed=self.stats.n_completed,
            n_unserved=queue.occupancy,
            n_switches=self.stats.n_switches,
            n_pm_invocations=self.stats.n_pm_invocations,
            n_pm_commands=self.stats.n_pm_commands,
            mode_residency=dict(self.stats.mode_residency),
        )

    def _publish_metrics(
        self, event_counts: "Dict[str, int]", wall_s: float
    ) -> None:
        """Fold this run's aggregates into the active metrics registry.

        Everything here is either integer-counted or exactly summed, so
        registries merged from parallel workers reproduce the serial
        registry bit-for-bit (wall-clock instruments are flagged
        ``profiling`` and excluded from that contract).
        """
        m = self._metrics
        n_events = sum(event_counts.values())
        m.counter("sim.runs").inc()
        m.counter("sim.events").inc(n_events)
        for kind in sorted(event_counts):
            m.counter(f"sim.events.{kind}").inc(event_counts[kind])
        m.counter("sim.requests.generated").inc(self.n_generated)
        m.counter("sim.requests.accepted").inc(self.queue.n_accepted)
        m.counter("sim.requests.lost").inc(self.queue.n_lost)
        m.counter("sim.requests.completed").inc(self.stats.n_completed)
        m.counter("sim.switches").inc(self.stats.n_switches)
        m.counter("sim.pm.invocations").inc(self.stats.n_pm_invocations)
        m.counter("sim.pm.commands").inc(self.stats.n_pm_commands)
        m.counter("sim.time_simulated_s").inc(float(self.stats.elapsed))
        waiting = m.histogram("sim.waiting_time_s")
        for sojourn in self.stats.waiting_times:
            waiting.observe(sojourn)
        m.histogram("profile.sim.wall_s", profiling=True).observe(wall_s)
        if wall_s > 0:
            m.histogram("profile.sim.events_per_s", profiling=True).observe(
                n_events / wall_s
            )
        logger.debug(
            "simulation finished: %d events in %.3fs wall (%.0f events/s), "
            "%d requests, policy %s",
            n_events, wall_s, n_events / wall_s if wall_s > 0 else 0.0,
            self.n_generated, self.policy.name,
        )

    # -- event handlers ----------------------------------------------------------

    def _schedule_next_arrival(self) -> None:
        if self.n_generated >= self.n_requests:
            return
        t = self.workload.next_arrival(self.scheduler.now)
        if t is None:
            self.n_requests = self.n_generated  # trace exhausted
            return
        self.scheduler.schedule_at(t, ARRIVAL)

    def _on_arrival(self) -> None:
        now = self.scheduler.now
        self.n_generated += 1
        queue = self.queue
        lost = queue.offer(now) is None
        if not lost:
            occupancy = queue.occupancy
            self.stats.set_queue_length(now, occupancy)
            if self.recorder is not None:
                self.recorder.record_queue(now, occupancy)
            if self._occ_tally is not None:
                self._occ_tally[occupancy] += 1
        elif self.recorder is not None:
            self.recorder.record_request(
                RequestRecord(
                    request_id=-1,
                    arrival_time=now,
                    service_start_time=None,
                    departure_time=None,
                    lost=True,
                )
            )
        self._schedule_next_arrival()
        self._invoke_policy(ARRIVAL, lost)
        self._maybe_start_service()

    def _on_service_complete(self) -> None:
        now = self.scheduler.now
        self._service_event = None
        self.sp.is_serving = False
        queue = self.queue
        request = queue.complete_service(now)
        self.stats.record_departure(request.arrival_time, now)
        occupancy = queue.occupancy
        self.stats.set_queue_length(now, occupancy)
        if self._occ_tally is not None:
            self._occ_tally[occupancy] += 1
        if self.recorder is not None:
            self.recorder.record_queue(now, occupancy)
            self.recorder.record_request(
                RequestRecord(
                    request_id=request.request_id,
                    arrival_time=request.arrival_time,
                    service_start_time=request.service_start_time,
                    departure_time=now,
                    lost=False,
                )
            )
        self.in_transfer = True
        if self._invoke_policy(SERVICE_COMPLETE, False) is None:
            # No command at a transfer point means "stay" (the paper's
            # instantaneous self-switch).
            self.in_transfer = False
        self._maybe_start_service()

    def _on_switch_complete(self) -> None:
        now = self.scheduler.now
        self._switch_event = None
        sp = self.sp
        energy = sp.finish_switch()
        self.stats.set_mode(now, sp.mode)
        self.stats.set_power(now, sp.power_now())
        self.stats.add_switch_energy(energy)
        if self.recorder is not None:
            self.recorder.record_mode(now, sp.mode)
            self.recorder.record_switch_energy(now, energy)
        self.in_transfer = False
        if sp.is_serving:
            # Active-to-active change mid-service: re-draw the remaining
            # service time at the new rate (exact by memorylessness).
            assert self._service_event is not None
            self._service_event.cancel()
            delay = sp.draw_service_time(self._service_rng)
            self._service_event = self.scheduler.schedule_after(delay, SERVICE_COMPLETE)
        self._invoke_policy(SWITCH_COMPLETE, False)
        self._maybe_start_service()

    def _on_timer(self) -> None:
        self._invoke_policy(TIMER, False)
        self._maybe_start_service()

    # -- policy plumbing --------------------------------------------------------

    def _invoke_policy(self, event: str, arrival_lost: bool) -> Optional[str]:
        """Call the PM; apply its decision. Returns the command issued."""
        self.version += 1
        sp, queue = self.sp, self.queue
        # A fresh view per invocation, filled positionally (the field
        # order of SystemView); the simulator never reads it back.
        view = SystemView(
            self.scheduler.now,
            event,
            sp.mode,
            sp.switch_target,
            self.in_transfer,
            queue.occupancy,
            queue.waiting_count,
            sp.is_serving,
            self.capacity,
            arrival_lost,
            self.provider_description,
        )
        if self._lat_hist is None:
            decision = self.policy.decide(view)
        else:
            decide_start = time.perf_counter()
            decision = self.policy.decide(view)
            self._lat_hist.observe(time.perf_counter() - decide_start)
        if not isinstance(decision, Decision):
            raise SimulationError(
                f"policy {self.policy.name} returned {type(decision).__name__}, "
                "expected Decision"
            )
        command = decision.command
        issued = command is not None and self._apply_command(command)
        self.stats.record_pm_invocation(issued)
        recheck = decision.recheck_after
        if recheck is not None:
            # Written so NaN fails too: a NaN timer would never fire.
            if not 0.0 <= recheck < _INF:
                raise SimulationError(
                    f"recheck_after must be finite and >= 0, got {recheck!r}"
                )
            self.scheduler.schedule_after(recheck, TIMER, self.version)
        return command if issued else None

    def _apply_command(self, target: str) -> bool:
        """Retarget the SP toward *target*; returns True if it changed
        anything."""
        target_active = self._is_active(target)  # validates the name
        sp = self.sp
        if sp.switch_target is not None:
            if target == sp.switch_target:
                return False  # already heading there; keep the draw
            assert self._switch_event is not None
            self._switch_event.cancel()
            self._switch_event = None
            sp.cancel_switch()
        if target == sp.mode:
            # "Stay": also resolves a transfer instantly.
            self.in_transfer = False
            return True
        if sp.is_serving and not target_active:
            if self.busy_powerdown == "reject":
                return False  # the device refuses to power down mid-service
            self._preempt_service()
        sp.begin_switch(target)
        delay = sp.draw_switch_time(target, self._switching_rng)
        self._switch_event = self.scheduler.schedule_after(delay, SWITCH_COMPLETE)
        return True

    def _preempt_service(self) -> None:
        """Abort the in-flight service; the request returns to the head."""
        assert self._service_event is not None
        self._service_event.cancel()
        self._service_event = None
        self.sp.is_serving = False
        self.queue.requeue_in_service()

    def _maybe_start_service(self) -> None:
        sp = self.sp
        if self.in_transfer or sp.is_serving or self.queue.waiting_count == 0:
            return
        target = sp.switch_target
        if target is not None and not self._is_active(target):
            return  # heading down
        if not self._is_active(sp.mode):
            return
        self.queue.start_service(self.scheduler.now)
        sp.is_serving = True
        delay = sp.draw_service_time(self._service_rng)
        self._service_event = self.scheduler.schedule_after(delay, SERVICE_COMPLETE)


def simulate(
    provider: ServiceProvider,
    capacity: int,
    workload: ArrivalProcess,
    policy: PowerManagementPolicy,
    n_requests: int,
    seed: int = 0,
    initial_mode: Optional[str] = None,
    busy_powerdown: str = "reject",
    service_distribution: "ServiceDistribution | None" = None,
    recorder: "TimelineRecorder | None" = None,
) -> SimulationResult:
    """One-shot convenience wrapper around :class:`Simulator`."""
    return Simulator(
        provider=provider,
        capacity=capacity,
        workload=workload,
        policy=policy,
        n_requests=n_requests,
        seed=seed,
        initial_mode=initial_mode,
        busy_powerdown=busy_powerdown,
        service_distribution=service_distribution,
        recorder=recorder,
    ).run()
