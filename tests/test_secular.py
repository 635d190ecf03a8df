"""The O(n^2) arrowhead solver (numkit.arrowhead_spectrum) and the kernel
that sends large parity sectors to it: against 40-digit mpmath on hard
arrowheads, against eigh_dense around the crossover and at large n, and
property tests of endpoint_amplitude on both sides of the crossover."""

import numpy as np
import pytest

from longwalk import numkit
from longwalk.errors import DomainError

import test_numkit

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

CROSSOVER = numkit._SECULAR_MIN_DIM


def dense_spectrum(onsite, poles, couplings):
    h = np.diag(np.concatenate([[onsite], poles]))
    h[0, 1:] = h[1:, 0] = couplings
    dec = numkit.eigh_dense(h)
    return dec.eigenvalues, dec.eigenvectors[0] ** 2


def spectral_sum(lam, w, t):
    return np.sum(w * np.exp(-1j * lam * t))


def scale_of(onsite, poles, couplings):
    return max(abs(onsite), np.max(np.abs(poles)), np.linalg.norm(couplings))


# (onsite, poles, couplings), n <= 12 each
HARD_ARROWHEADS = {
    "poles 1e-12 apart": (0.3, [1.0, 1.0 + 1e-12, 1.0 + 2e-12, -0.5, -0.5 * (1 + 1e-12), 2.0,
                                0.1, 3.0], [0.4, 0.3, 0.2, 0.5, 0.1, 0.2, 0.3, 0.05]),
    "exact ties": (0.0, [0.5, 0.5, 0.5, 1.0, 1.0, -1.0, 2.0, -0.25, -0.25, 0.75, 3.0],
                   [0.1, 0.2, 0.3, 0.4, 0.5, 0.1, 0.2, 0.3, 0.1, 0.2, 0.1]),
    "couplings 0 and 1e-10": (0.2, [-1.0, -0.3, 0.1, 0.4, 0.9, 1.5, 2.2],
                              [0.0, 1e-10, 0.5, 1e-10, 0.0, 0.3, 1e-10]),
    "onsite on a pole": (0.4, [-1.0, -0.3, 0.1, 0.4, 0.9, 1.5], [0.2, 0.1, 0.3, 0.25, 0.2, 0.1]),
    "onsite on a tied, weakly coupled pole": (0.4, [-1.0, 0.4, 0.4, 1.5], [0.2, 0.0, 1e-10, 0.1]),
}


class TestAgainstMpmath:
    @pytest.mark.parametrize("size", [1.0, 1e-200, 1e200])
    @pytest.mark.parametrize("case", sorted(HARD_ARROWHEADS))
    def test_hard_arrowheads(self, case, size):
        mp = pytest.importorskip("mpmath").mp
        onsite, poles, couplings = HARD_ARROWHEADS[case]
        onsite, poles, couplings = onsite * size, np.array(poles) * size, np.array(couplings) * size
        n = poles.shape[0] + 1
        with mp.workdps(40):
            h = mp.matrix(n, n)
            h[0, 0] = mp.mpf(onsite)
            for k in range(1, n):
                h[k, k] = mp.mpf(poles[k - 1])
                h[0, k] = h[k, 0] = mp.mpf(couplings[k - 1])
            values, vectors = mp.eigsy(h)
            exact = sorted((values[j], vectors[0, j] ** 2) for j in range(n))
            lam, w = numkit.arrowhead_spectrum(onsite, poles, couplings)
            scale = max(abs(onsite), np.max(np.abs(poles)), np.max(np.abs(couplings)))
            for j, (value, weight) in enumerate(exact):
                assert abs(lam[j] - value) <= 1e-15 * scale, (j, lam[j], value)
                # 1e-30: below what 40 digits resolve in a weight that is 0
                assert abs(w[j] - weight) <= 1e-10 * weight + 1e-30, (j, w[j], weight)


class TestAgainstEigh:
    @pytest.mark.parametrize("n", [CROSSOVER - 1, CROSSOVER + 1, 1025, 4096])
    def test_random_arrowhead(self, n):
        rng = np.random.default_rng(n)
        onsite, poles, couplings = 0.1, rng.standard_normal(n - 1), 0.1 * rng.standard_normal(n - 1)
        lam, w = numkit.arrowhead_spectrum(onsite, poles, couplings)
        lam_d, w_d = dense_spectrum(onsite, poles, couplings)
        scale = scale_of(onsite, poles, couplings)
        assert np.max(np.abs(lam - lam_d)) <= 1e-12 * scale
        assert np.max(np.abs(w - w_d)) <= 1e-12
        for t in (1.0, 20.0):
            assert abs(spectral_sum(lam, w, t) - spectral_sum(lam_d, w_d, t)) <= 1e-12


class TestArrowheadSpectrum:
    def test_no_poles(self):
        lam, w = numkit.arrowhead_spectrum(0.7, [], [])
        assert lam.tolist() == [0.7] and w.tolist() == [1.0]

    def test_two_level_closed_form(self):
        # [[a, z], [z, d]]: lambda = (a + d)/2 +- r, r = sqrt(((a - d)/2)^2 + z^2)
        a, d, z = 0.3, -0.2, 0.4
        r = np.hypot((a - d) / 2, z)
        lam, w = numkit.arrowhead_spectrum(a, [d], [z])
        np.testing.assert_allclose(lam, [(a + d) / 2 - r, (a + d) / 2 + r], rtol=0, atol=4e-16)
        np.testing.assert_allclose(w, [(r - (a - d) / 2) / (2 * r), (r + (a - d) / 2) / (2 * r)],
                                   rtol=1e-14)

    def test_zero_couplings_deflate_to_their_poles(self):
        lam, w = numkit.arrowhead_spectrum(0.0, [2.0, -1.0, 0.5], [0.0, 0.0, 0.0])
        assert lam.tolist() == [-1.0, 0.0, 0.5, 2.0]
        assert w.tolist() == [0.0, 1.0, 0.0, 0.0]

    @pytest.mark.parametrize("bad", [
        (np.nan, [0.0], [1.0]), (0.0, [np.inf], [1.0]), (0.0, [0.0], [np.nan]),
    ])
    def test_non_finite_input_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            numkit.arrowhead_spectrum(*bad)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DomainError):
            numkit.arrowhead_spectrum(0.0, [0.0, 1.0], [1.0])


@st.composite
def arrowheads(draw, n):
    """(onsite, poles, couplings) with n poles: spread, clustered (offsets
    from 1e-15 to 1e-8, so some merge and some do not), tied or graded
    (gaps from 1e-14 to 1) poles, couplings of one size or spread over
    twelve decades, a share of them zero, and the onsite energy on a pole
    or off them."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["spread", "clustered", "tied", "graded"]))
    if kind == "spread":
        poles = rng.standard_normal(n)
    elif kind == "clustered":
        centres = rng.standard_normal(3)[rng.integers(3, size=n)]
        poles = centres + 10.0 ** rng.integers(-15, -7, size=n) * rng.standard_normal(n)
    elif kind == "tied":
        poles = rng.choice(rng.standard_normal(max(n // 4, 1)), n)
    else:
        poles = np.cumsum(10.0 ** rng.uniform(-14, 0, n)) - 1.0
    couplings = 0.3 * rng.standard_normal(n)
    if draw(st.booleans()):
        couplings *= 10.0 ** rng.uniform(-12, 0, n)
    couplings[rng.random(n) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    onsite = poles[0] if draw(st.booleans()) else rng.standard_normal()
    return float(onsite), poles, couplings


@pytest.mark.parametrize("n", [1, 2, 9, CROSSOVER - 1, CROSSOVER + 1, 1025, 4096])
@hypothesis.settings(derandomize=True, database=None, max_examples=8, deadline=None)
@hypothesis.given(data=st.data())
def test_moment_identities(n, data):
    # sum_j v_j[0]^2 lambda_j^k = (H^k)_00 for k = 0, 1, 2
    onsite, poles, couplings = data.draw(arrowheads(n))
    lam, w = numkit.arrowhead_spectrum(onsite, poles, couplings)
    scale = scale_of(onsite, poles, couplings)
    assert lam.shape == w.shape == (poles.shape[0] + 1,)
    assert np.all(np.diff(lam) >= 0.0) and np.all(w >= 0.0)
    assert abs(w.sum() - 1.0) <= 1e-14
    assert abs(w @ lam - onsite) <= 1e-14 * scale
    assert abs(w @ lam**2 - onsite**2 - couplings @ couplings) <= 1e-14 * scale**2


@st.composite
def channels(draw, n):
    """endpoint_amplitude input with n modes, all, nine tenths or half of
    them even, so that the sectors fall on either side of the crossover."""
    onsite, energies, couplings = draw(arrowheads(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    odd_share = draw(st.sampled_from([0.0, 0.1, 0.5]))
    parities = np.where(rng.random(energies.shape[0]) < odd_share, -1.0, 1.0)
    return energies, couplings, parities, onsite, draw(st.sampled_from([0.0, 0.7, 25.0]))


@pytest.mark.parametrize("modes", [5, 60, CROSSOVER + 5, 2 * CROSSOVER + 40])
@hypothesis.settings(derandomize=True, database=None, max_examples=10, deadline=None)
@hypothesis.given(data=st.data())
def test_kernel_matches_the_full_matrix(modes, data):
    energies, couplings, parities, onsite, t = data.draw(channels(modes))
    amplitude = numkit.endpoint_amplitude(energies, couplings, parities, onsite, t)
    full = test_numkit.TestEndpointAmplitude.full_amplitude(energies, couplings, parities,
                                                            onsite, t)
    assert abs(amplitude - full) <= 1e-12
    assert abs(amplitude) <= 1.0 + 1e-12
    flipped = numkit.endpoint_amplitude(energies, couplings, -parities, onsite, t)
    assert abs(flipped + amplitude) <= 1e-14


class TestSectorDispatch:
    @pytest.mark.parametrize("modes, secular", [(CROSSOVER - 1, False), (CROSSOVER, True)])
    def test_sector_dimension_picks_the_solver(self, monkeypatch, modes, secular):
        # one even sector of dimension modes + 1; the odd one is the endpoint alone
        calls = []
        solve = numkit.arrowhead_spectrum
        monkeypatch.setattr(numkit, "arrowhead_spectrum",
                            lambda *args: calls.append(len(args[1])) or solve(*args))
        rng = np.random.default_rng(modes)
        numkit.endpoint_amplitude(rng.standard_normal(modes), np.full(modes, 0.05),
                                  np.ones(modes), 0.0, 1.0)
        assert calls == ([modes] if secular else [])

    @pytest.mark.parametrize("modes", [10, CROSSOVER + 10])
    def test_non_finite_input_rejected_on_both_paths(self, modes):
        e, c, p = np.linspace(-1, 1, modes), np.full(modes, 0.05), np.ones(modes)
        for bad in (dict(e=np.where(e > 0.5, np.nan, e)), dict(c=np.where(e > 0.5, np.inf, c)),
                    dict(onsite=np.nan), dict(t=np.inf)):
            args = {"e": e, "c": c, "onsite": 0.0, "t": 1.0, **bad}
            with pytest.raises(DomainError, match="non-finite"):
                numkit.endpoint_amplitude(args["e"], args["c"], p, args["onsite"], args["t"])

    def test_non_finite_amplitude_from_finite_input(self):
        # an eigenvalue near 1e308 times t = 10 overflows the phase
        with pytest.raises(ArithmeticError, match="non-finite endpoint amplitude"):
            numkit.endpoint_amplitude([1e308], [1.0], [1.0], 0.0, 10.0)
