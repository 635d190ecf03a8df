"""Property tests for the ring's fold of its channel modes: on random small
lattices, the sums over the folded modes must equal the sums over all N
lattice modes, and the folded modes must give the transfer amplitude of
all N unfolded channel modes."""

import numpy as np
import pytest

from longwalk import numkit, ring, transfer

from closed_forms import ring_sector
from test_ring import complex_fft_spectrum, ring_channel

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
    flat, mult, parities = ring._fold(d, L)
    assert mult.sum() == model.N
    if d < 3:
        assert ring._sector(parities) == ring_sector(d, L)
    # every channel mode, with detunings from the complex FFT of the lattice
    # kernel, couplings g/sqrt(N) and parities (-1)^(sum k_i) taken from the
    # mode indices, not from the fold
    energies = complex_fft_spectrum(d, L, alpha)
    channel = ring_channel(d, L, alpha, g)
    full = numkit.endpoint_amplitude(
        energies - energies[0], np.full(model.N, g / np.sqrt(model.N)),
        (-1.0) ** np.indices((L,) * d).reshape(d, -1).sum(axis=0), channel.onsite, channel.T)
    folded = numkit.endpoint_amplitude(channel.energies, g * np.sqrt(mult / model.N),
                                       channel.parities, channel.onsite, channel.T)
    assert abs(abs(folded) ** 2 - abs(full) ** 2) <= 1e-12
    # the phase carries the eigenvalue roundoff, eps ||H||, over the time T:
    # up to 1.8e-11 at d=3 L=8, 1.4 times that scale
    scale = np.finfo(float).eps * model.detunings.max() * channel.T
    assert abs(folded - full) <= 1e-12 + 4.0 * scale


@st.composite
def small_lattices(draw):
    d = draw(st.integers(1, 3))
    L = 2 * draw(st.integers(1, {1: 32, 2: 8, 3: 4}[d]))
    return d, L, draw(st.floats(0.0, 3.0)), draw(st.floats(1e-3, 0.5))


@hypothesis.settings(derandomize=True, database=None, max_examples=60, deadline=None)
@hypothesis.given(small_lattices())
@hypothesis.example((1, 2, 1.0, 0.1))
@hypothesis.example((2, 2, 1.5, 0.1))
@hypothesis.example((3, 2, 0.5, 0.1))
def test_fold_gives_the_full_lattice_sums(lattice):
    d, L, alpha, g = lattice
    model = ring.ring_spectrum(d, L, alpha)
    flat, mult, _ = ring._fold(d, L)
    # the lattice trace sum_k E_k = J(0) = 0, over the folded modes
    energies = complex_fft_spectrum(d, L, alpha)
    e0 = energies[0]
    assert abs(np.sum(mult * (e0 - model.detunings[flat]))) <= 1e-12 * model.N * max(1.0, e0)
    # q2, mu and the perturbative infidelity as plain sums over k != 0
    delta = (e0 - energies)[1:]
    parities = (-1.0) ** np.indices((L,) * d).reshape(d, -1).sum(axis=0)[1:]
    channel = ring_channel(d, L, alpha, g)
    om, t = channel.omegas[0], channel.T
    full = {
        "q2": np.sum(1.0 / delta**2),
        "mu": om**2 * np.sum((1.0 - 3.0 * parities) / (2.0 * delta)),
        "perturbative": om**2 * np.sum((1.0 + parities * np.cos(delta * t)) / delta**2),
    }
    got = {
        "q2": ring.ring_spectral_summary(model).q2,
        "mu": -channel.onsite,
        "perturbative": transfer.perturbative_infidelity(channel),
    }
    # cos(Delta_k T) turns the spectrum's roundoff dDelta_k (a few ulp of the
    # band, tested in test_ring.py) into a perturbative error up to
    # Omega^2 T sum_k |dDelta_k| / Delta_k^2, which T can lift above 1e-12.
    # Each lattice mode k is represented by the folded mode of the sorted
    # tuple of its mirror images min(k_i, L - k_i)
    k = np.indices((L,) * d).reshape(d, -1)
    stand_in = np.ravel_multi_index(np.sort(np.minimum(k, L - k), axis=0), (L // 2 + 1,) * d)
    ddelta = model.detunings[stand_in][1:] - delta
    phase = om**2 * t * np.sum(np.abs(ddelta) / delta**2)
    for name, value in full.items():
        tol = 1e-12 * abs(value) + (phase if name == "perturbative" else 0.0)
        assert abs(got[name] - value) <= tol, name
