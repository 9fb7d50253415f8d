"""The CDF-row sampler draws exactly what ``Generator.choice`` draws.

:class:`~repro.policies.optimal.StochasticCTMDPPolicy` samples each
randomized decision as ``bisect_right(choice_cdf(p), rng.random())``.
Seeded simulations stay bit-identical to ``rng.choice(len(p), p=p)``
only if both pick the same index *and* leave the generator in the same
state, for every row a solved policy can produce.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.optimal import choice_cdf

#: Weights spanning 1e-12 .. 1 (log-uniform) so some actions are all
#: but impossible, as at the LP's binding state.
_weights = st.lists(
    st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0**e),
    min_size=2,
    max_size=6,
)


def _assert_same_draws(p: np.ndarray, seed: int, n_draws: int = 200) -> None:
    reference = np.random.default_rng(seed)
    sampler = np.random.default_rng(seed)
    cdf = choice_cdf(p)
    for _ in range(n_draws):
        want = int(reference.choice(len(p), p=p))
        assert bisect_right(cdf, sampler.random()) == want
    assert sampler.bit_generator.state == reference.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(weights=_weights, seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_cdf_row_matches_generator_choice(weights, seed):
    # Normalized rows sum to 1 up to rounding, as the policy's do.
    w = np.array(weights)
    _assert_same_draws(w / w.sum(), seed)


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=6),
    tiny=st.sampled_from([1e-12, 1e-9, 1e-6]),
    skew=st.floats(min_value=-4e-16, max_value=4e-16),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rows_off_unit_sum_and_tiny_mass(n, tiny, skew, seed):
    # One near-impossible action, the rest sharing the mass, and a total
    # a few ulps away from 1 in either direction.
    p = np.full(n, (1.0 - tiny) / (n - 1))
    p[seed % n] = tiny
    p[(seed + 1) % n] += skew
    _assert_same_draws(p, seed)


def test_both_generators_end_in_the_same_state_on_a_binding_row():
    # The Figure-5 LP randomizes between two actions in one state.
    _assert_same_draws(np.array([0.73, 0.27]), seed=20000, n_draws=10_000)
