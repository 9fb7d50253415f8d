"""Bit-identity of the array-assembled SYS structure vs. a per-pair oracle.

:meth:`PowerManagedSystemModel._assemble` builds the sparse skeleton and
the dense structure from vectorized COO blocks. The oracle below rebuilds
both one ``(state, action)`` pair at a time from the public mechanics --
:meth:`valid_actions`, :meth:`transition_rates`,
:meth:`effective_power_rate`, :meth:`delay_cost`, :meth:`loss_rate` --
and every array must match exactly (``array_equal``, not ``allclose``):
CSR ``indptr``/``indices``/``data``, action tuples, the per-weight cost
overlay, the extra channels and the dense rate/impulse rows.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ctmdp.sparse import SparseCTMDP
from repro.dpm.presets import (
    disk_drive_provider,
    paper_service_provider,
    wireless_nic_provider,
)
from repro.dpm.service_requestor import ServiceRequestor
from repro.dpm.system import PowerManagedSystemModel
from repro.obs.metrics import MetricsRegistry
from repro.obs.runtime import instrument
from repro.robust.fuzz import build_from_spec, generate_spec, unconstrained_system

PROVIDERS = {
    "paper": (paper_service_provider, 1 / 6),
    "disk-drive": (disk_drive_provider, 0.5),
    "wireless-nic": (wireless_nic_provider, 2.0),
}
CAPACITIES = (1, 2, 5, 200)
#: The admission remediation ladder's exact power-of-two rescalings.
RATE_SCALES = (1.0, 2.0 ** -3, 2.0 ** 5)
WEIGHTS = (0.0, 0.37, 1.0, 6.5)


def _oracle_skeleton(model):
    """The sparse skeleton, built pair by pair from the public mechanics."""
    scale = model.rate_scale
    sp = model.provider
    index = {x: i for i, x in enumerate(model.states)}
    actions, rows, cols, vals = [], [], [], []
    base_power, delay, term_pairs, term_vals = [], [], [], []
    extra = {"power": [], "queue_length": [], "loss": []}
    pair = 0
    for state in model.states:
        acts = tuple(model.valid_actions(state))
        actions.append(acts)
        for action in acts:
            base_power.append(scale * sp.power_rate(state.mode))
            delay.append(model.delay_cost(state))
            entries = sorted(
                (index[dest], dest, rate)
                for dest, rate in model.transition_rates(state, action).items()
            )
            for j, dest, rate in entries:
                scaled = rate * scale if scale != 1.0 else rate
                rows.append(pair)
                cols.append(j)
                vals.append(scaled)
                if dest.mode != state.mode:
                    term_pairs.append(pair)
                    term_vals.append(
                        scaled * sp.switching_energy(state.mode, dest.mode)
                    )
            extra["power"].append(model.effective_power_rate(state, action))
            extra["queue_length"].append(model.delay_cost(state))
            extra["loss"].append(model.loss_rate(state))
            pair += 1
    skeleton = SparseCTMDP.from_coo(
        model.states, actions, np.asarray(rows, dtype=np.intp),
        np.asarray(cols, dtype=np.intp), np.asarray(vals, dtype=float),
        np.zeros(pair), rate_scale=scale,
        extra={name: np.asarray(ch) for name, ch in extra.items()},
    )
    return (skeleton, np.asarray(base_power), np.asarray(delay),
            np.asarray(term_pairs, dtype=np.intp), np.asarray(term_vals))


def _oracle_dense(model):
    """Per-pair dense rows: ``(state, action, rates, impulses, channels)``."""
    sp = model.provider
    n = model.n_states
    out = []
    for state in model.states:
        for action in model.valid_actions(state):
            rates, impulses = np.zeros(n), np.zeros(n)
            for dest, rate in model.transition_rates(state, action).items():
                j = model.index_of(dest)
                rates[j] += rate
                if dest.mode != state.mode:
                    impulses[j] = sp.switching_energy(state.mode, dest.mode)
            channels = (
                model.effective_power_rate(state, action),
                model.delay_cost(state),
                model.loss_rate(state),
            )
            out.append((state, action, rates, impulses, channels))
    return out


def _overlay(parts, scale, weight):
    _, base_power, delay, term_pairs, term_vals = parts
    cost = base_power + (scale * weight) * delay
    np.add.at(cost, term_pairs, term_vals)
    return cost


def _assert_same_skeleton(model):
    got = model._sparse_skeleton_parts()
    want = _oracle_skeleton(model)
    g, w = got[0], want[0]
    assert g.states == w.states
    assert g.actions == w.actions
    for name in ("indptr", "indices", "data"):
        a, b = getattr(g.generator, name), getattr(w.generator, name)
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), name
    assert sorted(g.extra) == sorted(w.extra)
    for name in w.extra:
        assert np.array_equal(g.extra[name], w.extra[name]), name
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    for weight in WEIGHTS:
        built = model.build_ctmdp(weight, backend="sparse")
        assert np.array_equal(
            built.cost, _overlay(want, model.rate_scale, weight)
        )


def _assert_same_dense(model):
    asm, rates, impulses = model._build_structure()
    oracle = _oracle_dense(model)
    labels = [
        (model.states[x], model.provider.modes[a])
        for x, a in zip(asm.pair_state, asm.pair_action)
    ]
    assert labels == [(s, a) for s, a, *_ in oracle]
    assert not rates.flags.writeable and not impulses.flags.writeable
    names = (model.POWER, model.QUEUE_LENGTH, model.LOSS)
    for p, (_, _, want_rates, want_impulses, channels) in enumerate(oracle):
        assert np.array_equal(rates[p], want_rates)
        assert np.array_equal(impulses[p], want_impulses)
        assert tuple(asm.extra[name][p] for name in names) == channels
    scale = model.rate_scale
    for weight in WEIGHTS[:2]:
        mdp = model.build_ctmdp(weight, backend="dense")
        for state, action, want_rates, want_impulses, channels in oracle:
            data = mdp.data(state, action)
            assert np.array_equal(data.rates, want_rates * scale)
            assert np.array_equal(data.impulse_costs, want_impulses)
            assert data.cost_rate == (
                scale * model.provider.power_rate(state.mode)
                + (scale * weight) * channels[1]
            )
            assert data.extra_costs == dict(zip(names, channels))


def _model(provider, rate, capacity, transfer=True, scale=1.0):
    factory, default_rate = PROVIDERS[provider]
    return PowerManagedSystemModel(
        factory(), ServiceRequestor(rate or default_rate), capacity,
        include_transfer_states=transfer, rate_scale=scale,
    )


@pytest.mark.parametrize("scale", RATE_SCALES, ids=["x1", "x2^-3", "x2^5"])
@pytest.mark.parametrize("transfer", (True, False), ids=["transfer", "no-transfer"])
@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("provider", sorted(PROVIDERS))
def test_skeleton_matches_per_pair_oracle(provider, capacity, transfer, scale):
    _assert_same_skeleton(_model(provider, None, capacity, transfer, scale))


@pytest.mark.parametrize("transfer", (True, False), ids=["transfer", "no-transfer"])
@pytest.mark.parametrize("capacity", CAPACITIES)
@pytest.mark.parametrize("provider", sorted(PROVIDERS))
def test_dense_structure_matches_per_pair_oracle(provider, capacity, transfer):
    _assert_same_dense(_model(provider, None, capacity, transfer))


def test_dense_structure_under_rate_scale():
    _assert_same_dense(_model("paper", None, 5, scale=2.0 ** -3))
    _assert_same_dense(_model("disk-drive", None, 5, scale=2.0 ** 5))


@pytest.mark.parametrize("capacity", (1, 2, 5))
@pytest.mark.parametrize("provider", sorted(PROVIDERS))
def test_unconstrained_models_keep_their_validity(provider, capacity):
    """Validity comes from the (overridden) ``is_valid_action``: the
    fuzzer's unconstrained subclass gets every mode in every state."""
    factory, rate = PROVIDERS[provider]
    model = unconstrained_system(factory(), ServiceRequestor(rate), capacity)
    skeleton = model._sparse_skeleton_parts()[0]
    assert all(acts == model.provider.modes for acts in skeleton.actions)
    _assert_same_skeleton(model)
    _assert_same_dense(model)


@pytest.mark.parametrize("kind,seed", [
    ("unconstrained", 3), ("unconstrained", 8), ("baseline", 12),
    ("capacity_one", 5), ("near_duplicate_actions", 7),
    ("paper_perturbed", 11),
])
def test_fuzz_models_match_oracle(kind, seed):
    model, is_sys = build_from_spec(generate_spec(kind, seed))
    assert is_sys
    _assert_same_skeleton(model)
    _assert_same_dense(model)


def test_skeleton_counters_fire_as_before():
    model = _model("paper", None, 5)
    registry = MetricsRegistry()
    with instrument(metrics=registry):
        model.build_ctmdp(0.0, backend="dense")
        for weight in WEIGHTS:
            model.build_ctmdp(weight, backend="sparse")
        model.build_ctmdp(WEIGHTS[0], backend="sparse")  # LRU hit
        model.clear_caches()
        model.build_ctmdp(WEIGHTS[0], backend="sparse")
    doc = registry.to_dict()
    assert doc["solver.reuse.skeleton_builds"]["value"] == 2
    assert doc["solver.reuse.skeleton_hits"]["value"] == len(WEIGHTS) - 1
