"""Property tests for the chain: on random admissible chains the O(l)
zero-mode recursion must give the eigen-sum of the channel spectrum, and on
random chains within and past the precision guard the spectrum must keep
its sum rules and its mirror symmetry."""

import numpy as np
import pytest

from longwalk import chain

from closed_forms import zero_mode

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def admissible_chains(draw):
    # the chain protocol's alpha range below the nearest-neighbour regime;
    # past it the recursion is checked against the bordered solve in
    # tests/test_chain.py
    d = draw(st.sampled_from((1, 2, 3)))
    alpha = draw(st.floats(d / 2.0, d + 1.0))
    lmax = min(chain.max_admissible_l(d, alpha), 40)
    hypothesis.assume(lmax >= 2)
    return chain.build_effective_chain(d, alpha, 2 * draw(st.integers(1, lmax // 2)))


@hypothesis.settings(derandomize=True, database=None, max_examples=60, deadline=None)
@hypothesis.given(admissible_chains())
def test_q_recursion_matches_the_eigen_sum(ch):
    spec = chain.chain_spectrum(ch)
    l, t0 = ch.l, spec.endpoint_amplitudes
    eigen_sum = sum((t0[k] / t0[l] / spec.energies[k]) ** 2 for k in range(2 * l + 1) if k != l)
    # 6.7e-15 is the largest difference seen
    assert abs(ch.q**2 / eigen_sum - 1.0) <= 1e-9
    h = np.diag(ch.bonds, 1) + np.diag(ch.bonds, -1)
    assert np.max(np.abs(h @ zero_mode(ch))) <= 1e-14 * np.max(ch.bonds)


@st.composite
def chains_past_the_guard(draw):
    d = draw(st.sampled_from((1, 2, 3)))
    alpha = draw(st.floats(0.0, d + 1.5))
    return chain.build_effective_chain(d, alpha, 2 * draw(st.integers(1, 50)))


@hypothesis.settings(derandomize=True, database=None, max_examples=80, deadline=None)
@hypothesis.given(chains_past_the_guard())
def test_spectrum_sum_rules_and_mirror_symmetry(ch):
    # chain._diagonalise is the solver chain_spectrum runs once its guard passes
    e, t, _ = chain._diagonalise(ch)
    l = ch.l
    # the endpoint's weights over all modes: ||e_0||^2 = 1
    assert abs(np.sum(t**2) - 1.0) <= 1e-13
    # <e_0|H^2|e_0> = b_0^2 = 1; for a > 1 the top modes' tiny weights,
    # times E^2 up to a^(2l), are not resolved well enough for this
    if ch.alpha >= ch.d:
        assert abs(np.sum(t**2 * e**2) - ch.bonds[0] ** 2) <= 1e-13
    assert np.array_equal(e, -e[::-1])  # exactly, not to a tolerance
    assert e[l] == 0.0
