"""Property tests for the ring's fold of the exact problem: on random small
lattices, the folded modes must give the transfer amplitude of all N
unfolded channel modes."""

import numpy as np
import pytest

from longwalk import numkit, ring

from closed_forms import ring_sector

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

# largest side per d: the unfolded call solves two sectors of about N/2 modes
MAX_SIDE = {1: 64, 2: 16, 3: 8}


@st.composite
def lattices(draw):
    d = draw(st.sampled_from(sorted(MAX_SIDE)))
    L = 2 * draw(st.integers(1, MAX_SIDE[d] // 2))
    return d, L, draw(st.floats(0.5, 3.0)), draw(st.floats(0.02, 0.5))


@hypothesis.settings(derandomize=True, database=None, max_examples=40, deadline=None)
@hypothesis.given(lattices())
def test_fold_matches_the_unfolded_modes(lattice):
    d, L, alpha, g = lattice
    model = ring.ring_spectrum(d, L, alpha)
    flat, mult = ring._fold(d, L)
    assert mult.sum() == model.N
    if d < 3:
        assert ring._sector(d, L, flat) == ring_sector(d, L)
    # every channel mode, with couplings g/sqrt(N) and parities (-1)^(sum k_i)
    # taken from the mode indices, not from the model
    parities = (-1.0) ** np.indices((L,) * d).reshape(d, -1).sum(axis=0)
    mu, t = ring.ring_mu(model, g), model.transfer_time(g)
    full = numkit.endpoint_amplitude(-model.detunings, np.full(model.N, g / np.sqrt(model.N)),
                                     parities, -mu, t)
    folded = numkit.endpoint_amplitude(-model.detunings[flat], g * np.sqrt(mult / model.N),
                                       model.parities[flat], -mu, t)
    assert abs(abs(folded) ** 2 - abs(full) ** 2) <= 1e-12
    # the phase carries the eigenvalue roundoff, eps ||H||, over the time T:
    # up to 1.8e-11 at d=3 L=8, 1.4 times that scale
    scale = np.finfo(float).eps * model.detunings.max() * t
    assert abs(folded - full) <= 1e-12 + 4.0 * scale
