"""Property test for the chain's Q: on random admissible chains, the O(l)
zero-mode recursion must give the eigen-sum of the channel spectrum."""

import numpy as np
import pytest

from longwalk import chain

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")


@st.composite
def admissible_chains(draw):
    # the chain protocol's alpha range below the nearest-neighbour regime; past
    # it the eigen-sum drifts further (1.7e-9 at d=2 alpha=4 l=16, where the
    # recursion matches the bordered solve in tests/test_chain.py)
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
    # 1.8e-10 is the largest difference seen: the eigen-sum's error
    assert abs(ch.q**2 / eigen_sum - 1.0) <= 1e-9
    h = np.diag(ch.bonds, 1) + np.diag(ch.bonds, -1)
    assert np.max(np.abs(h @ chain.zero_mode(ch))) <= 1e-14 * np.max(ch.bonds)
