"""The joint power-managed system (SYS) model of Section III.

The SYS is the composition of the SP and SQ processes over the state set

``X = S x Q_stable  U  S_active x Q_transfer``

(Section III): every SP mode pairs with every stable queue state, while
transfer states only pair with *active* modes (a transfer state begins
at a service completion, which only an active mode can produce).

Actions are destination SP modes. The transition mechanics are:

stable ``(s, q_i)`` under action ``a``:

- *arrival* ``-> (s, q_{i+1})`` at rate ``lambda`` (``i < Q``; at
  ``i = Q`` the arrival is lost -- no transition, tracked as a loss
  rate),
- *mode switch* ``-> (a, q_i)`` at rate ``chi[s, a]`` when ``a != s``,
  paying ``ene(s, a)``,
- *service completion* ``-> (s, q_{i -> i-1})`` at rate ``mu(s)`` when
  ``i >= 1`` and ``s`` is active;

transfer ``(s, q_{i -> i-1})`` under action ``a``:

- *switch completion* ``-> (a, q_{i-1})`` at rate ``chi[s, a]`` paying
  ``ene(s, a)`` -- the SQ leaves the transfer state exactly when the SP
  transition completes (the paper's concurrency constraint). For
  ``a == s`` the paper's rate is infinite (instantaneous self-switch);
  we use the provider's large finite ``self_switch_rate`` stand-in,
- *arrival* ``-> (s, q_{i+1 -> i})`` at rate ``lambda`` (``i < Q``; the
  paper leaves the ``i = Q`` boundary unspecified "for brevity" -- we
  drop such arrivals as lost, which keeps the generator conservative).

Action-validity constraints (Section III):

1. In a stable state an active SP may not switch to an inactive mode
   (service must not be interrupted).
2. In stable ``q_Q`` (full queue) an inactive SP may not move to an
   inactive mode with a longer wakeup time. We apply the strict form --
   the destination must be active or have *strictly shorter* wakeup
   time -- so that every admissible policy makes progress toward an
   active mode at a full queue, guaranteeing a unichain joint process
   (the paper's stated purpose for this constraint).
3. In transfer ``q_{Q -> Q-1}`` an active SP may not move to an active
   mode with a longer service time.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple

import numpy as np

from repro.ctmdp.model import CTMDP
from repro.dpm import cost as cost_channels
from repro.dpm.service_provider import ServiceProvider
from repro.dpm.service_queue import STABLE, TRANSFER, QueueState, stable, transfer
from repro.dpm.service_requestor import ServiceRequestor
from repro.errors import InvalidModelError


class _Assembly(NamedTuple):
    """Array form of the weight-independent SYS structure.

    Per pair: ``pair_state``, ``pair_action`` (provider mode index),
    ``base_power`` (``pow(s)``), ``delay`` (``C_sq``) and the ``extra``
    cost channels. Per off-diagonal entry, in (pair, destination)
    order: ``rows``, ``cols``, unscaled ``rates``, and the ``impulse``
    flag of switch entries, whose energies ``energy`` lists in order.
    """

    actions: "List[Tuple[str, ...]]"
    pair_state: np.ndarray
    pair_action: np.ndarray
    base_power: np.ndarray
    delay: np.ndarray
    extra: "Dict[str, np.ndarray]"
    rows: np.ndarray
    cols: np.ndarray
    rates: np.ndarray
    impulse: np.ndarray
    energy: np.ndarray


@dataclass(frozen=True, order=True)
class SystemState:
    """A joint SYS state ``x = (s, q)``."""

    mode: str
    queue: QueueState

    @property
    def key(self) -> "StateKey":
        """The flat ``(mode, queue kind, queue index)`` lookup key."""
        return (self.mode, self.queue.kind, self.queue.index)

    @classmethod
    def from_key(cls, key: "StateKey") -> "SystemState":
        """The joint state a :attr:`key` tuple names."""
        mode, kind, index = key
        return cls(mode, QueueState(kind, index))

    def __repr__(self) -> str:
        return f"({self.mode},{self.queue!r})"


#: A joint state as the flat ``(mode, queue kind, queue index)`` tuple
#: that every policy table (simulated or served) is keyed by.
StateKey = Tuple[str, str, int]


def state_key(mode: str, in_transfer: bool, count: int, capacity: int) -> StateKey:
    """The key of the modeled joint state an observation maps to.

    ``count`` is the occupancy in a stable state and the waiting count
    during a transfer, whose model index is ``waiting + 1`` (the state
    ``q_{i -> i-1}`` holds ``i - 1`` waiting requests). Both clamp at the
    capacity ``Q``: the physical queue can briefly hold ``Q`` waiting
    requests during a transfer (the model's unspecified boundary), which
    maps to the closest modeled state ``q_{Q -> Q-1}``.
    """
    if in_transfer:
        return (mode, TRANSFER, min(count + 1, capacity))
    return (mode, STABLE, min(count, capacity))


class PowerManagedSystemModel:
    """The SYS controllable Markov process and its CTMDP builder.

    Parameters
    ----------
    provider:
        The SP model.
    requestor:
        The SR model (supplies the arrival rate ``lambda``).
    capacity:
        Queue capacity ``Q``; requests arriving at a full queue are
        lost.
    include_transfer_states:
        ``True`` (default) builds the paper's model. ``False`` builds
        the ablation variant in the spirit of [11]: no transfer states,
        service completions go directly ``q_i -> q_{i-1}``, and
        constraint (1) is dropped (the SP may power down mid-service --
        exactly the inaccuracy the transfer states remove).
    rate_scale:
        Time-unit rescaling applied to every built CTMDP: transition
        and cost *rates* are multiplied by this factor, while pure
        costs (switching energies) and dimensionless observables (the
        extra-cost channels) stay in original units. Policies, biases
        and stationary distributions are invariant; solver gains come
        out multiplied by ``rate_scale``. The admission remediation
        ladder uses exact powers of two, for which the whole transform
        is exact on IEEE-754 floats -- dividing a gain by
        ``rate_scale`` recovers the original-unit value bit-for-bit.
    """

    #: Name of the extra-cost channel carrying the effective power rate.
    POWER = cost_channels.POWER
    #: Name of the extra-cost channel carrying the delay cost C_sq.
    QUEUE_LENGTH = cost_channels.QUEUE_LENGTH
    #: Name of the extra-cost channel carrying the request-loss rate.
    LOSS = cost_channels.LOSS

    #: Number of per-weight CTMDPs kept by :meth:`build_ctmdp`.
    CTMDP_CACHE_SIZE = 16

    def __init__(
        self,
        provider: ServiceProvider,
        requestor: ServiceRequestor,
        capacity: int,
        include_transfer_states: bool = True,
        rate_scale: float = 1.0,
    ) -> None:
        if capacity < 1:
            raise InvalidModelError(f"queue capacity must be >= 1, got {capacity}")
        if not (np.isfinite(rate_scale) and rate_scale > 0.0):
            raise InvalidModelError(
                f"rate_scale must be finite and positive, got {rate_scale!r}"
            )
        self.provider = provider
        self.requestor = requestor
        self.capacity = int(capacity)
        self.include_transfer_states = bool(include_transfer_states)
        self.rate_scale = float(rate_scale)
        # Entry-level admission: cheap input-domain checks shared with
        # every other entry point (lazy import -- repro.robust.admission
        # itself builds models through this class at deeper levels).
        from repro.robust.admission import admit_inputs

        admit_inputs(provider, requestor, self.capacity)
        self._states = self._enumerate_states()
        self._index = {x: i for i, x in enumerate(self._states)}
        # Weight-independent (state, action) structure -- transition-rate
        # and impulse vectors plus cost channels -- computed lazily once;
        # only the weighted cost rate differs between built CTMDPs.
        self._structure: "Tuple[_Assembly, np.ndarray, np.ndarray] | None" = None
        # Weight-independent sparse skeleton: a structural SparseCTMDP
        # (CSR pattern, rates, extra channels) plus the per-pair cost
        # decomposition; per-weight builds overlay costs onto it.
        self._sparse_skeleton: "tuple | None" = None
        # LRU of built CTMDPs, keyed per (weight, backend) pair -- a
        # dense and a sparse build of the same weight coexist. Each
        # cached model carries its own lowering, so workflows that
        # re-solve the same weight (frontier bisection, constrained
        # search) skip both the construction and the lowering.
        self._ctmdp_cache: "OrderedDict[Tuple[float, str], CTMDP]" = (
            OrderedDict()
        )

    # -- state space -----------------------------------------------------------

    def _enumerate_states(self) -> "List[SystemState]":
        # Queue states are immutable, so every mode shares one instance.
        stables = [stable(i) for i in range(self.capacity + 1)]
        states = [SystemState(mode, q) for mode in self.provider.modes for q in stables]
        if self.include_transfer_states:
            transfers = [transfer(i) for i in range(1, self.capacity + 1)]
            states.extend(
                SystemState(mode, q)
                for mode in self.provider.active_modes
                for q in transfers
            )
        return states

    @property
    def states(self) -> "List[SystemState]":
        """All joint states, stable block first."""
        return list(self._states)

    @property
    def n_states(self) -> int:
        return len(self._states)

    def index_of(self, state: SystemState) -> int:
        try:
            return self._index[state]
        except KeyError:
            raise InvalidModelError(f"unknown system state {state!r}") from None

    # -- action validity ---------------------------------------------------------

    def is_valid_action(self, state: SystemState, action: str) -> bool:
        """Apply the Section-III constraints (see module docstring)."""
        sp = self.provider
        if action not in sp.modes:
            return False
        s, q = state.mode, state.queue
        if q.is_stable:
            if (
                self.include_transfer_states
                and sp.is_active(s)
                and not sp.is_active(action)
            ):
                return False  # constraint (1): never interrupt service
            if q.index == self.capacity and not sp.is_active(s):
                # constraint (2), strict form: make progress toward active.
                if not sp.is_active(action) and not (
                    sp.wakeup_time(action) < sp.wakeup_time(s)
                ):
                    return False
            return True
        # transfer state: only reachable with s active
        if q.index == self.capacity and sp.is_active(action):
            # constraint (3): no slower active mode at a nearly full queue.
            if sp.service_time(action) > sp.service_time(s):
                return False
        return True

    def valid_actions(self, state: SystemState) -> "List[str]":
        """Valid destination modes, provider order."""
        actions = [a for a in self.provider.modes if self.is_valid_action(state, a)]
        if not actions:  # pragma: no cover - constraints always leave active modes
            raise InvalidModelError(f"state {state!r} has no valid action")
        return actions

    # -- transition mechanics ---------------------------------------------------

    def transition_rates(
        self, state: SystemState, action: str
    ) -> "Dict[SystemState, float]":
        """Outgoing rates of *state* under *action* (no validity check).

        Exposed separately from :meth:`build_ctmdp` so that structural
        tests can compare these mechanics against the paper's tensor
        construction block by block.
        """
        sp = self.provider
        lam = self.requestor.rate
        s, q = state.mode, state.queue
        rates: Dict[SystemState, float] = {}

        def add(dest: SystemState, rate: float) -> None:
            if rate > 0.0:
                rates[dest] = rates.get(dest, 0.0) + rate

        if q.is_stable:
            if q.index < self.capacity:
                add(SystemState(s, stable(q.index + 1)), lam)
            if action != s:
                add(SystemState(action, q), sp.switching_rate(s, action))
            mu = sp.service_rate(s)
            if mu > 0.0 and q.index >= 1:
                if self.include_transfer_states:
                    add(SystemState(s, transfer(q.index)), mu)
                else:
                    add(SystemState(s, stable(q.index - 1)), mu)
        else:
            add(
                SystemState(action, stable(q.index - 1)),
                sp.switching_rate(s, action),
            )
            if q.index < self.capacity:
                add(SystemState(s, transfer(q.index + 1)), lam)
        return rates

    def loss_rate(self, state: SystemState) -> float:
        """Rate at which arriving requests are lost in *state*."""
        if state.queue.index == self.capacity:
            return self.requestor.rate
        return 0.0

    def effective_power_rate(self, state: SystemState, action: str) -> float:
        """``C_pow(x, a) = pow(s) + sum_{s'} s_{s,s'}(a) ene(s, s')``.

        The switching-energy impulse is folded into an equivalent rate,
        exactly as in Section III.
        """
        sp = self.provider
        total = sp.power_rate(state.mode)
        if state.queue.is_stable:
            if action != state.mode:
                total += sp.switching_rate(state.mode, action) * sp.switching_energy(
                    state.mode, action
                )
        else:
            total += sp.switching_rate(state.mode, action) * sp.switching_energy(
                state.mode, action
            )
        return total

    def delay_cost(self, state: SystemState) -> float:
        """``C_sq(x)``: the number of waiting requests in *state*."""
        return float(state.queue.waiting_count)

    # -- CTMDP construction ------------------------------------------------------

    def _assemble(self) -> _Assembly:
        """Array assembly of the weight-independent SYS structure.

        States are (mode index, queue kind, queue index) arrays in
        :meth:`_enumerate_states` order; the ``(n, S)`` validity mask is
        broadcast from per-class verdicts; each transition family of the
        module docstring is one vectorized COO block, and one sort by
        (pair, destination) yields every array exactly as a per-pair
        rebuild from :meth:`valid_actions` and :meth:`transition_rates`
        would (``tests/dpm/test_system_assembly.py`` asserts it).

        Validity contract: :meth:`is_valid_action` is evaluated once per
        class -- (mode, queue kind, queue at capacity) -- on the class's
        first state, and the verdict holds for the whole class. The
        Section-III constraints depend on nothing else; a subclass
        overriding :meth:`is_valid_action` (the fuzzer's unconstrained
        models) must keep that contract.
        """
        sp = self.provider
        modes = sp.modes
        cap = self.capacity
        lam = float(self.requestor.rate)
        mu = np.array([sp.service_rate(m) for m in modes])
        # chi carries the self-switch stand-in on its diagonal.
        chi = np.array([[sp.switching_rate(s, a) for a in modes] for s in modes])
        ene = np.array([[sp.switching_energy(s, a) for a in modes] for s in modes])
        active = np.flatnonzero(mu > 0.0)
        n_stable = len(modes) * (cap + 1)
        mode = np.repeat(np.arange(len(modes)), cap + 1)
        index = np.tile(np.arange(cap + 1), len(modes))
        if self.include_transfer_states:
            mode = np.concatenate([mode, np.repeat(active, cap)])
            index = np.concatenate([index, np.tile(np.arange(1, cap + 1), len(active))])
        transfer = np.arange(len(mode)) >= n_stable
        # First transfer state of each active mode.
        transfer_base = np.zeros(len(modes), dtype=np.intp)
        transfer_base[active] = n_stable + cap * np.arange(len(active))

        _, first, klass = np.unique(
            (mode * 2 + transfer) * 2 + (index == cap),
            return_index=True, return_inverse=True,
        )
        valid = np.array([
            [self.is_valid_action(self._states[r], a) for a in modes]
            for r in first.tolist()
        ])
        has_action = valid.any(axis=1)
        if not has_action.all():  # pragma: no cover - active modes always remain
            empty = first[np.argmin(has_action)]
            raise InvalidModelError(
                f"state {self._states[empty]!r} has no valid action"
            )
        class_actions = [
            tuple(m for m, ok in zip(modes, row) if ok) for row in valid
        ]
        pair_state, act = np.nonzero(valid[klass])
        s, i, t = mode[pair_state], index[pair_state], transfer[pair_state]
        switching = s != act

        # Transition families: (where, destination, rate, switch impulse).
        families = (
            (~t & (i < cap), pair_state + 1, lam, False),  # arrival
            (~t & switching, act * (cap + 1) + i, chi[s, act], True),  # mode switch
            (~t & (mu[s] > 0.0) & (i >= 1),  # service completion
             transfer_base[s] + i - 1 if self.include_transfer_states
             else pair_state - 1, mu[s], False),
            (t, act * (cap + 1) + i - 1, chi[s, act], switching),  # switch completion
            (t & (i < cap), pair_state + 1, lam, False),  # arrival in transfer
        )
        pairs = np.arange(len(pair_state))
        blocks = [
            [np.broadcast_to(x, pairs.shape)[where] for x in (pairs, dest, rate, imp)]
            for where, dest, rate, imp in families
        ]
        rows, cols, rates, impulse = map(np.concatenate, zip(*blocks))
        order = np.lexsort((cols, rows))
        order = order[rates[order] > 0.0]
        rows, cols, rates, impulse = (x[order] for x in (rows, cols, rates, impulse))

        power = np.array([sp.power_rate(m) for m in modes])[s]
        delay = np.where(t, i - 1, i).astype(float)
        extra = {
            self.POWER: np.where(
                t | switching, power + chi[s, act] * ene[s, act], power
            ),
            self.QUEUE_LENGTH: delay,
            self.LOSS: np.where(i == cap, lam, 0.0),
        }
        return _Assembly(
            [class_actions[c] for c in klass.tolist()], pair_state, act,
            power, delay, extra, rows, cols, rates, impulse,
            ene[s[rows[impulse]], act[rows[impulse]]],
        )

    def _build_structure(self) -> "Tuple[_Assembly, np.ndarray, np.ndarray]":
        """The dense tier's weight-independent build data:
        :meth:`_assemble`'s arrays plus ``(pairs, n)`` transition-rate
        and switching-energy impulse blocks scattered from them. The
        blocks are write-protected: every dense CTMDP this model builds
        shares their rows (``CTMDP.add_action`` stores them by
        reference; ``generator_row`` copies before completing
        diagonals).
        """
        asm = self._assemble()
        rates = np.zeros((len(asm.pair_state), self.n_states))
        impulses = np.zeros_like(rates)
        rates[asm.rows, asm.cols] = asm.rates
        impulses[asm.rows[asm.impulse], asm.cols[asm.impulse]] = asm.energy
        rates.setflags(write=False)
        impulses.setflags(write=False)
        return asm, rates, impulses

    def _sparse_skeleton_parts(self) -> tuple:
        """The weight-independent half of the sparse build, cached.

        Returns ``(skeleton, base_power, delay, term_pairs, term_vals)``
        where ``skeleton`` is a structural :class:`SparseCTMDP` (CSR
        rates, pair indexing, extra channels; costs all zero -- never
        solved directly) and the remaining arrays decompose each pair's
        effective cost rate so a per-weight overlay can reproduce the
        single-pass construction bit-for-bit: ``base_power`` is
        ``scale * pow(s)``, ``delay`` the ``C_sq`` count, and
        ``(term_pairs, term_vals)`` the folded switching-energy terms
        ``scaled_rate * ene`` in destination-index order.
        """
        from repro.obs.runtime import active as obs_active

        ins = obs_active()
        counting = ins.enabled and ins.metrics is not None
        if self._sparse_skeleton is not None:
            if counting:
                ins.metrics.counter("solver.reuse.skeleton_hits").inc()
            return self._sparse_skeleton
        from repro.ctmdp.sparse import SparseCTMDP

        scale = self.rate_scale
        asm = self._assemble()
        rates = asm.rates * scale if scale != 1.0 else asm.rates
        skeleton = SparseCTMDP.from_coo(
            self._states, asm.actions, asm.rows, asm.cols, rates,
            np.zeros(len(asm.pair_state)), rate_scale=scale, extra=asm.extra,
        )
        self._sparse_skeleton = (
            skeleton,
            scale * asm.base_power,
            asm.delay,
            asm.rows[asm.impulse],
            rates[asm.impulse] * asm.energy,
        )
        if counting:
            ins.metrics.counter("solver.reuse.skeleton_builds").inc()
        return self._sparse_skeleton

    def _build_sparse_ctmdp(self, weight: float):
        """COO-direct sparse construction -- nothing of size
        ``O(pairs x states)`` is ever allocated, so SYS models with
        10^5+ states (large queue capacities) stay buildable.

        Split into the cached weight-independent skeleton
        (:meth:`_sparse_skeleton_parts`) plus a per-weight cost overlay:
        sibling models share every structural array, so a frontier sweep
        pays the array assembly once and each additional
        weight costs two O(pairs) vector ops.

        Numerically this mirrors :meth:`build_ctmdp`'s dense path entry
        for entry: the same scaled rates, and effective cost rates that
        fold the switching-energy impulses through the identical
        ``scale * power + (scale * weight) * queue + sum(rate * energy)``
        expression. The overlay replays that expression in the original
        order -- the base-plus-weight term first, then each energy term
        in destination-index order (``np.add.at`` accumulates in index
        order) -- so the overlaid costs match the single-pass build
        bit-for-bit.
        """
        skeleton, base_power, delay, term_pairs, term_vals = (
            self._sparse_skeleton_parts()
        )
        cost = base_power + (self.rate_scale * weight) * delay
        np.add.at(cost, term_pairs, term_vals)
        return skeleton.with_cost(cost)

    def build_ctmdp(self, weight: float = 0.0, backend: str = "dense") -> CTMDP:
        """Build the SYS CTMDP with cost ``C_pow + weight * C_sq``.

        The returned model also carries extra-cost channels ``"power"``,
        ``"queue_length"`` and ``"loss"`` for constrained optimization
        and post-hoc metric evaluation.

        ``backend="dense"`` (default) builds the dict-based
        :class:`CTMDP`; ``backend="sparse"`` builds a
        :class:`~repro.ctmdp.sparse.SparseCTMDP` directly from COO
        triples, never allocating per-pair dense rows -- the only way to
        build SYS models beyond ~10^4 states. ``backend="kron"`` is
        rejected with a typed error: the SYS transfer states (Section
        III) couple the mode and queue axes, so the joint generator has
        no tensor-sum structure to exploit.

        Built models are cached per (weight, backend) pair (a small
        LRU), so repeated calls with the same weight return the *same*
        model instance -- treat it as immutable, which
        :meth:`CTMDP.add_action` enforces for existing pairs anyway. The
        weight-independent transition structure is additionally shared
        across dense builds, so a frontier sweep pays the array
        assembly once.
        """
        if not np.isfinite(weight):
            raise InvalidModelError(f"performance weight must be finite, got {weight}")
        if weight < 0:
            raise InvalidModelError(f"performance weight must be >= 0, got {weight}")
        if backend in ("kron",):
            from repro.errors import SolverError

            raise SolverError(
                "SYS models have no Kronecker form: transfer states couple "
                "the service-provider and queue axes (build with "
                "backend='sparse' for large capacities instead)"
            )
        if backend not in ("dense", "sparse", "auto"):
            from repro.errors import SolverError

            raise SolverError(
                f"unknown build backend {backend!r}; choose 'dense', "
                "'sparse' or 'auto'"
            )
        if backend == "auto":
            from repro.ctmdp.backends import DENSE_STATE_LIMIT

            backend = "dense" if self.n_states <= DENSE_STATE_LIMIT else "sparse"
        key = (float(weight), backend)
        cached = self._ctmdp_cache.get(key)
        if cached is not None:
            self._ctmdp_cache.move_to_end(key)
            return cached
        if backend == "sparse":
            smdp = self._build_sparse_ctmdp(weight)
            self._ctmdp_cache[key] = smdp
            while len(self._ctmdp_cache) > self.CTMDP_CACHE_SIZE:
                self._ctmdp_cache.popitem(last=False)
            return smdp
        if self._structure is None:
            self._structure = self._build_structure()
        asm, rates, impulses = self._structure
        scale = self.rate_scale
        # Time rescaling: rates and cost *rates* get the factor; the
        # folded cost scale * power + (scale * weight) * queue equals
        # scale * (power + weight * queue) bit-for-bit when the factor
        # is a power of two. Impulse energies are pure costs (their
        # contribution scales through the rate vector they multiply),
        # and the extra channels stay in original observable units.
        # The scale == 1.0 path keeps the shared unscaled rate rows.
        if scale != 1.0:
            rates = rates * scale
            rates.setflags(write=False)
        cost = scale * asm.base_power + (scale * weight) * asm.delay
        extra = [
            dict(zip(asm.extra, values))
            for values in zip(*(ch.tolist() for ch in asm.extra.values()))
        ]
        mdp = CTMDP(self._states, rate_scale=scale)
        modes = self.provider.modes
        for p, (x, a) in enumerate(
            zip(asm.pair_state.tolist(), asm.pair_action.tolist())
        ):
            mdp.add_action(
                self._states[x],
                modes[a],
                rates=rates[p],
                cost_rate=cost[p],
                impulse_costs=impulses[p],
                extra_costs=extra[p],
            )
        mdp.validate()
        self._ctmdp_cache[key] = mdp
        while len(self._ctmdp_cache) > self.CTMDP_CACHE_SIZE:
            self._ctmdp_cache.popitem(last=False)
        return mdp

    def clear_caches(self) -> None:
        """Drop every derived cache: built CTMDPs, the dense structure,
        and the sparse skeleton. Subsequent builds pay the full
        construction cost -- what benchmarks use to measure a genuinely
        cold leg against the reuse layer."""
        self._structure = None
        self._sparse_skeleton = None
        self._ctmdp_cache = OrderedDict()

    def __getstate__(self) -> dict:
        """Pickle without the derived caches (rebuilt lazily on demand)."""
        state = self.__dict__.copy()
        state["_structure"] = None
        state["_sparse_skeleton"] = None
        state["_ctmdp_cache"] = OrderedDict()
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PowerManagedSystemModel(modes={self.provider.modes!r}, "
            f"capacity={self.capacity}, lambda={self.requestor.rate:g}, "
            f"transfer_states={self.include_transfer_states})"
        )
