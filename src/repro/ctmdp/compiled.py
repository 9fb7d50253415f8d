"""Dense compiled form of a CTMDP for vectorized solvers.

The dict-based :class:`repro.ctmdp.model.CTMDP` is the reference
representation -- explicit, validated, easy to inspect -- but its
per-state Python loops dominate solver time once models grow past a few
dozen states. :func:`compile_ctmdp` lowers a model *once* into stacked
NumPy arrays over all ``(state, action)`` pairs:

- ``generator``: the full generator rows (Eqn.-2.4 diagonals
  precomputed), one row per pair;
- ``cost``: the effective cost rates (impulse costs folded in, computed
  per pair exactly as :meth:`StateActionData.effective_cost_rate` does
  so the compiled solvers agree bit-for-bit with the reference path);
- ``extra``: one stacked vector per named auxiliary cost channel;
- a state-action index (pair -> owning state, pair -> action column,
  per-state pair slices) that turns per-state argmin sweeps into a
  handful of whole-array operations.

The compiled form is cached on the owning :class:`CTMDP` instance, so
workflows that re-solve the same model repeatedly (frontier bisection,
constrained-weight search, the adaptive online manager) pay the lowering
cost once. :meth:`PowerManagedSystemModel.build_ctmdp` additionally
LRU-caches built models per weight, making the cache effective across
whole optimization sweeps on one SYS.

All solver sweeps here reproduce the reference semantics exactly,
including the ``atol`` incumbent rule of policy improvement: an action
displaces the running best only when it beats it by more than ``atol``,
scanning actions in insertion order with the incumbent skipped.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Mapping, Sequence, Tuple

import numpy as np

from repro.ctmdp.model import CTMDP
from repro.ctmdp.policy import Policy
from repro.errors import InvalidModelError, InvalidPolicyError, SolverError
from repro.markov.generator import canonical_shift, stationary_distribution
from repro.robust.guardrails import solve_with_fallback

#: Number of ``[state, action]`` rows a diagnostic policy payload keeps.
POLICY_PAYLOAD_ROWS = 200


def action_counts(actions: Sequence[Sequence[Hashable]]) -> np.ndarray:
    """``(n,)`` number of actions of each state."""
    return np.fromiter(map(len, actions), dtype=np.intp, count=len(actions))


def check_reference_state(reference_state: int, n_states: int) -> None:
    """Typed error for a bias-pinning state outside ``[0, n_states)``."""
    if not 0 <= reference_state < n_states:
        raise InvalidPolicyError(
            f"reference state {reference_state} out of range"
        )


def incumbent_argmin(
    table: np.ndarray, incumbent: np.ndarray, atol: float
) -> np.ndarray:
    """The incumbent-rule argmin of every column of ``(k, n)`` *table*.

    Starting from each column's incumbent row, rows are scanned in
    order (the incumbent skipped) and one displaces the running best
    only when it is smaller by more than ``atol``; ``+inf`` entries
    (unavailable actions) never win. Shared by every tier's policy
    improvement sweep.
    """
    best_val = table[incumbent, np.arange(table.shape[1])]
    best = incumbent.copy()
    for a in range(table.shape[0]):
        row = table[a]
        better = (row < best_val - atol) & (incumbent != a)
        if np.any(better):
            best_val = np.where(better, row, best_val)
            best = np.where(better, a, best)
    return best


class PairIndexedCTMDP:
    """Shared state-action pair indexing and vectorized sweep machinery.

    Both the dense compiled lowering and the CSR sparse lowering
    (:class:`repro.ctmdp.sparse.SparseCTMDP`) stack all ``(state,
    action)`` pairs into flat arrays and run improvement sweeps as
    whole-array operations over a padded ``(n, max_actions)`` grid. The
    sweep semantics live here once so every backend reproduces the
    reference ``atol`` incumbent rule and strict first-wins greedy
    argmin identically.

    Subclasses set ``states`` and ``n_states``, call :meth:`_init_pairs`
    with the per-state action tuples, and populate ``cost``, ``extra``,
    ``rate_scale`` and their generator representation.

    **Solver-loop protocol.** Policy iteration, relative value iteration
    and discounted policy iteration are each written once
    (:mod:`repro.ctmdp.policy_iteration`, :mod:`~repro.ctmdp.value_iteration`,
    :mod:`~repro.ctmdp.discounted`) and drive every lowered tier --
    this class's two subclasses and
    :class:`~repro.ctmdp.kron.KroneckerCTMDP` -- through:
    ``initial_selection(policy)``; ``evaluator(reference_state, reuse)``
    returning ``solve(sel, warm=False, cost=None) -> (gain, bias,
    exact)``; ``improve_on(values, sel, atol, canonical=True)``;
    ``stationary(sel)``; ``uniformized_backup(lam)`` returning ``w ->
    (new w, greedy sel)``; ``discounted_evaluator(discount)`` returning
    ``solve(sel, warm=False) -> values``; ``selection_policy(mdp, sel)``
    and ``selection_payload(sel)``; plus ``max_exit_rate()``,
    ``canonical_shift``, ``rate_scale`` and ``n_states``.
    """

    states: Tuple[Hashable, ...]
    actions: Tuple[Tuple[Hashable, ...], ...]
    n_states: int
    n_pairs: int

    def _init_pairs(self, actions: Sequence[Sequence[Hashable]]) -> None:
        """Derive the pair index and the padded action grid, vectorized,
        from per-state action tuples (insertion order)."""
        self.actions = tuple(map(tuple, actions))
        n = self.n_states
        if len(self.actions) != n:
            raise InvalidModelError(
                f"{len(self.actions)} action tuples for {n} states"
            )
        counts = action_counts(self.actions)
        self.n_pairs = int(counts.sum())
        self.pair_state = np.repeat(np.arange(n, dtype=np.intp), counts)
        self.pair_offset = np.concatenate([[0], np.cumsum(counts)]).astype(np.intp)
        self.pair_col = np.arange(self.n_pairs, dtype=np.intp) - np.repeat(
            self.pair_offset[:-1], counts
        )
        self.max_actions = int(counts.max()) if n else 0
        # Dense (n, max_actions) pair-index grid, -1 where a state has
        # fewer actions; used to scatter per-pair values into a padded
        # matrix for column-wise argmin sweeps.
        pad = np.full((n, self.max_actions), -1, dtype=np.intp)
        pad[self.pair_state, self.pair_col] = np.arange(self.n_pairs)
        self.pad_index = pad
        self._dense_slot = self.pair_state * self.max_actions + self.pair_col
        self._state_range = np.arange(n)
        for array in (self.pair_state, self.pair_offset, self.pair_col, pad):
            array.setflags(write=False)

    # -- indexing ------------------------------------------------------------

    def policy_rows(self, assignment: Mapping[Hashable, Hashable]) -> np.ndarray:
        """Pair rows selected by a ``state -> action`` assignment.

        An assignment keyed by this model's states in state order (what
        :meth:`assignment_from_rows` and ``Policy.as_dict`` return) is
        read positionally, without hashing every state.
        """
        if len(assignment) == self.n_states and tuple(assignment) == self.states:
            chosen = list(assignment.values())
        else:
            chosen = [assignment[state] for state in self.states]
        cols = []
        for i, (acts, action) in enumerate(zip(self.actions, chosen)):
            try:
                cols.append(acts.index(action))
            except ValueError:
                raise InvalidPolicyError(
                    f"action {action!r} not available in state index {i}"
                ) from None
        return self.pair_offset[:-1] + np.asarray(cols, dtype=np.intp)

    def assignment_from_rows(self, sel: np.ndarray) -> "Dict[Hashable, Hashable]":
        """The ``state -> action`` mapping of a pair-row selection."""
        cols = self.pair_col[sel].tolist()
        return {
            state: self.actions[i][cols[i]] for i, state in enumerate(self.states)
        }

    # -- vectorized sweeps ---------------------------------------------------

    def scatter(self, pair_values: np.ndarray) -> np.ndarray:
        """Spread per-pair values into an ``(n, max_actions)`` matrix.

        Missing actions are padded with ``+inf`` so they never win an
        argmin sweep.
        """
        dense = np.full(self.n_states * self.max_actions, np.inf)
        dense[self._dense_slot] = pair_values
        return dense.reshape(self.n_states, self.max_actions)

    def improve(
        self, pair_values: np.ndarray, sel: np.ndarray, atol: float
    ) -> "tuple[np.ndarray, bool]":
        """One incumbent-rule improvement sweep over all states at once.

        Reproduces the reference loop exactly: starting from the
        incumbent's value, actions are scanned in insertion order
        (incumbent skipped) and one displaces the running best only when
        it is smaller by more than ``atol``.
        """
        best_col = incumbent_argmin(
            self.scatter(pair_values).T, self.pair_col[sel], atol
        )
        new_sel = self.pad_index[self._state_range, best_col]
        changed = bool(np.any(new_sel != sel))
        return new_sel, changed

    def greedy(self, pair_values: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
        """Strict first-wins argmin over actions, vectorized per state.

        Returns ``(best values, best columns)``; among exactly equal
        values the earliest action in insertion order wins, matching the
        reference value-iteration sweep.
        """
        dense = self.scatter(pair_values)
        best_val = np.full(self.n_states, np.inf)
        best_col = np.zeros(self.n_states, dtype=np.intp)
        for a in range(self.max_actions):
            column = dense[:, a]
            better = column < best_val
            if np.any(better):
                best_val = np.where(better, column, best_val)
                best_col = np.where(better, a, best_col)
        return best_val, best_col

    # -- solver-loop protocol ------------------------------------------------
    #
    # The shared policy-iteration, value-iteration and discounted loops
    # (repro.ctmdp.policy_iteration / value_iteration / discounted) drive
    # every lowered tier through these methods; KroneckerCTMDP implements
    # the same set over action-index selections. A *selection* here is
    # the array of chosen pair rows, one per state.

    def initial_selection(self, policy) -> np.ndarray:
        """Pair rows of *policy*, or the first-listed action per state."""
        if policy is None:
            return self.pair_offset[:-1].copy()
        return self.policy_rows(policy.as_dict())

    def improve_on(
        self, values: np.ndarray, sel: np.ndarray, atol: float,
        canonical: bool = True,
    ) -> "tuple[np.ndarray, bool]":
        """:meth:`improve` on the test quantities ``c + G values``.

        With ``canonical`` (policy iteration) the quantities and *atol*
        are in canonical units (:meth:`canonical`); otherwise in stored
        units (discounted policy iteration).
        """
        if canonical:
            g, c, _ = self.canonical()
        else:
            g, c = self.generator, self.cost
        test_values = g @ values
        test_values += c
        return self.improve(test_values, sel, atol)

    def uniformized_backup(self, lam: float):
        """``w -> (new w, greedy selection)``: one Bellman backup of the
        chain uniformized at rate *lam* (``P = I + G/lam``, per-step cost
        ``c/lam``), one matvec plus the first-wins :meth:`greedy`."""
        transition = self.uniformized_transition(lam)
        step_cost = self.cost / lam
        first_rows = self.pair_offset[:-1]

        def backup(w: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
            new_w, cols = self.greedy(step_cost + transition @ w)
            return new_w, first_rows + cols

        return backup

    def selection_policy(self, mdp, sel: np.ndarray) -> Policy:
        """The :class:`Policy` over *mdp* selecting pair rows *sel*."""
        return Policy._trusted(mdp, self.assignment_from_rows(sel))

    def selection_payload(self, sel: np.ndarray) -> "List[List[str]]":
        """The first :data:`POLICY_PAYLOAD_ROWS` ``[state, action]`` rows
        of *sel*, rendered for diagnostics (no full assignment dict)."""
        keep = min(POLICY_PAYLOAD_ROWS, self.n_states)
        cols = self.pair_col[sel[:keep]].tolist()
        return [
            [repr(self.states[i]), repr(self.actions[i][col])]
            for i, col in enumerate(cols)
        ]

    def _selected_cost(self, sel: np.ndarray, cost, shift: int) -> np.ndarray:
        """Canonical cost rates of *sel*, or of a per-state override."""
        if cost is None:
            cost = self.cost[sel]
        else:
            cost = np.asarray(cost, dtype=float)
            if cost.shape != (self.n_states,):
                raise InvalidPolicyError(
                    f"cost vector shape {cost.shape} != ({self.n_states},)"
                )
        return np.ldexp(cost, -shift)

    def _row_inf(self, shift: int) -> np.ndarray:
        """Per-pair ``max |a_ij|`` of the canonical generator (cached).

        ``max |a_ij|`` of any bordered evaluation system is the selected
        rows' maximum or the unit border entries, so the guardrail
        acceptance scale of a solve costs O(n) instead of an O(nnz) scan.
        Computed from the stored generator and shifted, which is exact.
        """
        if self._row_inf_cache is None:
            self._row_inf_cache = np.ldexp(self._stored_row_inf(), -shift)
        return self._row_inf_cache

    @property
    def canonical_shift(self) -> int:
        """Binary exponent normalizing :meth:`max_exit_rate` into [1, 2)."""
        return canonical_shift(self.max_exit_rate())

    def max_exit_rate(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError


class CompiledCTMDP(PairIndexedCTMDP):
    """One-shot dense lowering of a :class:`CTMDP`.

    Attributes
    ----------
    states:
        State labels, same order as the source model.
    actions:
        Per-state action-label tuples, insertion order.
    n_states, n_pairs:
        State and state-action-pair counts.
    pair_state:
        ``(P,)`` owning state index of each pair.
    pair_col:
        ``(P,)`` column of each pair within its state's action list.
    pair_offset:
        ``(n+1,)`` -- pairs of state ``i`` occupy rows
        ``pair_offset[i]:pair_offset[i+1]``.
    generator:
        ``(P, n)`` full generator rows (diagonal included), read-only.
    cost:
        ``(P,)`` effective cost rates, read-only.
    extra:
        ``{channel: (P,) rates}`` for every named extra-cost channel.
    max_actions:
        The largest per-state action count (the padded column count).
    """

    def __init__(self, mdp: CTMDP) -> None:
        n = mdp.n_states
        self.states: Tuple[Hashable, ...] = mdp.states
        self.n_states = n
        actions: List[Tuple[Hashable, ...]] = []
        rows: List[np.ndarray] = []
        costs: List[float] = []
        extra_names: set = set()
        for state in mdp.states:
            state_actions = tuple(mdp.actions(state))
            actions.append(state_actions)
            for action in state_actions:
                rows.append(mdp.generator_row(state, action))
                data = mdp.data(state, action)
                costs.append(data.effective_cost_rate())
                extra_names.update(data.extra_costs)
        self._init_pairs(actions)
        self.generator = np.vstack(rows) if rows else np.zeros((0, n))
        self.cost = np.asarray(costs, dtype=float)
        self.extra: Dict[str, np.ndarray] = {}
        for name in sorted(extra_names, key=repr):
            channel = np.zeros(self.n_pairs)
            for p, (state, action) in enumerate(mdp.state_action_pairs()):
                channel[p] = mdp.data(state, action).extra_costs.get(name, 0.0)
            channel.setflags(write=False)
            self.extra[name] = channel
        self.rate_scale = float(getattr(mdp, "rate_scale", 1.0))
        self._canonical = None
        self._sparse = None
        self._row_inf_cache = None
        self.generator.setflags(write=False)
        self.cost.setflags(write=False)

    # -- solver-loop protocol: dense evaluation -----------------------------

    def evaluator(self, reference_state: int, reuse: bool = True):
        """``solve(sel, warm=False, cost=None) -> (gain, bias, exact)``.

        Solves the bordered system ``c + G h = g 1``, ``h[ref] = 0`` of
        the policy selecting rows *sel* by dense LU under the guardrail
        ladder. The system is allocated once: only the ``G`` block and
        the ``-c`` right-hand side change between calls. It is assembled
        from the canonical (exponent-normalized) arrays, so extreme
        rate magnitudes never reach the factorization and power-of-two
        rescalings of the model solve bit-identically; the gain is
        mapped back by the exact inverse shift, the bias is
        scale-invariant. *cost* optionally overrides the per-state cost
        rates. Every solve is exact (*warm* and *reuse* are ignored).
        """
        n = self.n_states
        check_reference_state(reference_state, n)
        # Canonical rows are shifted per solve rather than taken from
        # canonical(): a one-off evaluate_policy call then never
        # allocates the (pairs, n) canonical copy. ldexp is exact, so
        # the bits are the same.
        shift = self.canonical_shift
        a = np.zeros((n + 1, n + 1))
        a[:n, n] = -1.0
        a[n, reference_state] = 1.0
        b = np.zeros(n + 1)
        row_inf = self._row_inf(shift)

        def solve(sel: np.ndarray, warm: bool = False, cost=None):
            np.ldexp(self.generator[sel], -shift, out=a[:n, :n])
            np.negative(self._selected_cost(sel, cost, shift), out=b[:n])
            solution = solve_with_fallback(
                a, b, what="policy evaluation system",
                context={"reference_state": reference_state},
                a_max=max(1.0, float(np.max(row_inf[sel]))),
            )
            return float(np.ldexp(solution[n], shift)), solution[:n], True

        return solve

    def discounted_evaluator(self, discount: float):
        """``solve(sel, warm=False) -> v`` of ``(a I - G) v = c``."""
        eye = discount * np.eye(self.n_states)

        def solve(sel: np.ndarray, warm: bool = False) -> np.ndarray:
            try:
                return np.linalg.solve(eye - self.generator[sel], self.cost[sel])
            except np.linalg.LinAlgError as exc:  # pragma: no cover - a>0 keeps this regular
                raise SolverError(
                    "discounted evaluation system is singular"
                ) from exc

        return solve

    def stationary(self, sel: np.ndarray) -> np.ndarray:
        """Stationary distribution of the policy selecting rows *sel*."""
        return stationary_distribution(self.generator[sel], validate=False)

    def uniformized_transition(self, lam: float) -> np.ndarray:
        """``(P, n)`` rows of ``P = I + G/lam``."""
        transition = self.generator / lam
        transition[np.arange(self.n_pairs), self.pair_state] += 1.0
        return transition

    def _stored_row_inf(self) -> np.ndarray:
        # max |x| as max(max x, -min x): no (pairs, n) temporary.
        return np.maximum(
            self.generator.max(axis=1), -self.generator.min(axis=1)
        )

    def max_exit_rate(self) -> float:
        """Largest total exit rate; equals ``CTMDP.max_exit_rate()``."""
        if self.n_pairs == 0:  # pragma: no cover - models have >= 1 pair
            return 0.0
        diagonal = self.generator[np.arange(self.n_pairs), self.pair_state]
        return max(0.0, float(np.max(-diagonal)))

    def canonical(self) -> "tuple[np.ndarray, np.ndarray, int]":
        """``(G, c, shift)`` with the generator and cost arrays rescaled
        into canonical units by the exact exponent shift ``2**-shift``.

        Solvers assemble their policy-evaluation systems from these
        arrays so that models differing only by a power-of-two time
        rescaling run through bit-identical float computations; the
        resulting gain is mapped back with ``ldexp(gain, +shift)``
        (also exact). Computed once and cached.
        """
        if self._canonical is None:
            shift = self.canonical_shift
            g = np.ldexp(self.generator, -shift)
            c = np.ldexp(self.cost, -shift)
            g.setflags(write=False)
            c.setflags(write=False)
            self._canonical = (g, c, shift)
        return self._canonical

    def sparse_entries(self) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """``(rows, cols, vals)`` of the nonzero generator entries in
        row-major order, computed once and cached.

        Generator rows have bounded out-degree, so whole-model scans
        (the admission gate's structural and numerical reductions) run
        over the ~nnz entries instead of the dense
        ``(n_pairs, n_states)`` array. NaN/inf compare unequal to zero
        and are therefore retained.
        """
        if self._sparse is None:
            flat = np.flatnonzero(self.generator != 0.0)
            rows = flat // max(self.n_states, 1)
            cols = flat - rows * self.n_states
            vals = self.generator.ravel()[flat]
            for array in (rows, cols, vals):
                array.setflags(write=False)
            self._sparse = (rows, cols, vals)
        return self._sparse


def compile_ctmdp(mdp: CTMDP) -> CompiledCTMDP:
    """The compiled form of *mdp*, cached on the instance.

    The first call lowers the model (O(pairs x states) work and memory);
    subsequent calls return the cached object. Models are immutable
    after construction by convention (``add_action`` refuses
    redefinition), and lowering a partially built model is a usage
    error guarded by ``validate``.
    """
    cached = getattr(mdp, "_compiled", None)
    if cached is None:
        mdp.validate()
        cached = CompiledCTMDP(mdp)
        mdp._compiled = cached
    return cached
