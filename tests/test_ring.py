import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from longwalk import experiments, numkit, ring, transfer
from longwalk.errors import DomainError

import chebyshev_oracle
from closed_forms import ring_delta0, ring_sector
from site_oracle import evolve
from test_transfer import assert_grid_is_its_points


def dense_ring_fidelity(d: int, L: int, alpha: float, g: float) -> float:
    """Oracle: |<Y|psi(T)>|^2 from the lab-frame (N+2) site matrix (power-law
    channel, endpoint bonds g to site 0 and to the antipode, endpoint
    diagonal E_0 - mu, E_0 from complex_fft_spectrum), diagonalised densely."""
    channel = ring.ring_channel(d, L, alpha, g)
    n = L**d
    coords = np.indices((L,) * d).reshape(d, -1).T
    diff = np.abs(coords[:, None, :] - coords[None, :, :])
    diff = np.minimum(diff, L - diff)
    r2 = np.sum(diff**2, axis=-1).astype(float)
    h = np.zeros((n + 2, n + 2))
    mask = r2 > 0
    h[:n, :n][mask] = r2[mask] ** (-alpha / 2.0)
    site_y = int(np.ravel_multi_index((L // 2,) * d, (L,) * d))
    h[n, 0] = h[0, n] = g
    h[n + 1, site_y] = h[site_y, n + 1] = g
    e0 = complex_fft_spectrum(d, L, alpha)[0]
    h[n, n] = h[n + 1, n + 1] = e0 + channel.onsite
    psi0 = np.zeros(n + 2)
    psi0[n] = 1.0
    psi = evolve(np.linalg.eigh(h), psi0, channel.T)
    return float(abs(psi[n + 1]) ** 2)


def closed_form_spectrum_1d(L: int, alpha: float) -> np.ndarray:
    """Oracle: E_k = 2 sum_{j<L/2} cos(2 pi k j / L)/j^alpha + (-1)^k/(L/2)^alpha,
    the quoted d=1 form, summed directly (O(L^2))."""
    k = np.arange(L)[:, None]
    j = np.arange(1, L // 2)[None, :]
    e = 2.0 * np.sum(np.cos(2.0 * np.pi * k * j / L) / j**alpha, axis=1)
    return e + (-1.0) ** np.arange(L) / (L / 2.0) ** alpha


def complex_fft_spectrum(d: int, L: int, alpha: float) -> np.ndarray:
    """Reference: the full complex FFT of the min-image kernel |r|^-alpha,
    built from the lattice coordinates, on all L^d modes, flat and row-major."""
    r = np.indices((L,) * d)
    r2 = np.sum(np.minimum(r, L - r) ** 2, axis=0).astype(float)
    kernel = np.zeros(r2.shape)
    kernel[r2 > 0] = r2[r2 > 0] ** (-alpha / 2.0)
    return np.fft.fftn(kernel).real.ravel()


def folded_index(d: int, L: int) -> np.ndarray:
    """For every lattice mode k, the orthant index of its image
    k_i -> min(k_i, L - k_i)."""
    k = np.indices((L,) * d).reshape(d, -1)
    return np.ravel_multi_index(np.minimum(k, L - k), (L // 2 + 1,) * d)


class TestRingSpectrum:
    def test_L4_alpha1_hand_values(self):
        # E = [2.5, -0.5, -1.5, -0.5]; the orthant and the fold keep k = 0, 1, 2
        model = ring.ring_spectrum(1, 4, 1.0)
        np.testing.assert_allclose(model.detunings, [0, 3, 4], atol=1e-14)
        flat, mult, parities = ring._fold(1, 4)
        np.testing.assert_array_equal(flat, [0, 1, 2])
        np.testing.assert_array_equal(mult, [1, 2, 1])
        np.testing.assert_array_equal(parities, [1, -1, 1])

    def test_inversion_symmetry(self):
        # the orthant value at k stands in for the lattice mode L - k too
        for L, alpha in [(8, 0.5), (64, 1.3), (100, 2.0)]:
            model = ring.ring_spectrum(1, L, alpha)
            ref = complex_fft_spectrum(1, L, alpha)
            inverted = (ref[0] - ref)[L - np.arange(1, L // 2 + 1)]
            np.testing.assert_allclose(model.detunings[1:], inverted, rtol=1e-12, atol=1e-12)

    def test_traceless(self):
        # sum_k E_k = 0 over the lattice, so E_0 = sum_k mult_k Delta_k / N on the fold
        for d, L, alpha in [(1, 16, 0.7), (1, 128, 1.5), (2, 12, 1.0), (3, 6, 2.2)]:
            model = ring.ring_spectrum(d, L, alpha)
            flat, mult, _ = ring._fold(d, L)
            e0 = np.sum(mult * model.detunings[flat]) / model.N
            assert abs(e0 - complex_fft_spectrum(d, L, alpha)[0]) <= 1e-9  # max |J| = 1

    def test_closed_form_match(self):
        # transform path equals the quoted cosine-sum formula
        for L in (4, 6, 10, 16, 50, 128, 250, 512, 1024, 4100):
            for alpha in (0.5, 1.0, 1.5, 2.2):
                model = ring.ring_spectrum(1, L, alpha)
                closed = closed_form_spectrum_1d(L, alpha)
                np.testing.assert_allclose(model.detunings, closed[0] - closed[:L // 2 + 1],
                                           rtol=1e-9, atol=1e-9)

    @pytest.mark.parametrize("d, L", [(1, 4), (1, 100), (1, 1026), (1, 2**15), (1, 16378),
                                      (1, 16382), (1, 2**17),
                                      (2, 6), (2, 90), (2, 256), (3, 4), (3, 8)])
    def test_real_fft_matches_complex_fft(self, d, L):
        # every lattice mode, through the orthant index of its mirror image;
        # at d = 1 the factored transform's splits R x C: 128 x 256 at 2^15,
        # 38 x 431 (C prime) at 16378, 2 x 8191 at 16382 and 256 x 512 at 2^17
        fold = folded_index(d, L)
        for alpha in (0.5, 1.0, 1.5, 2.2):
            delta = ring.ring_spectrum(d, L, alpha).detunings[fold]
            refs = [complex_fft_spectrum(d, L, alpha)]
            if d == 1 and L <= 1026:
                refs.append(closed_form_spectrum_1d(L, alpha))
            for ref in refs:
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(delta - (ref[0] - ref))) <= 1e-13 * scale, (alpha, len(refs))

    def test_top_of_band_is_k0(self):
        for d, L, alpha in [(1, 64, 0.5), (1, 128, 2.0), (2, 16, 1.0), (2, 32, 3.5)]:
            model = ring.ring_spectrum(d, L, alpha)
            assert np.all(model.detunings[1:] > 0), (d, L, alpha)

    def test_d2_parities(self):
        # the fold keeps (0,0), (0,1), (0,2), (1,1), (1,2), (2,2) of the 3x3 orthant
        flat, mult, parities = ring._fold(2, 4)
        np.testing.assert_array_equal(flat, [0, 1, 2, 4, 5, 8])
        np.testing.assert_array_equal(parities, [1, -1, 1, 1, -1, 1])
        np.testing.assert_array_equal(mult, [1, 4, 2, 4, 4, 1])
        np.testing.assert_array_equal(ring._fold(1, 6)[2], (-1.0) ** np.arange(4))

    def test_d2_closed_form_modulo_boundary_terms(self):
        # the quoted 2D cosine-sum form drops the x,y = L/2 boundary terms;
        # the exact circulant keeps them, so compare at tolerance 4L/(L/2)^alpha
        for L, alpha in [(8, 1.0), (16, 1.5), (32, 0.6)]:
            model = ring.ring_spectrum(2, L, alpha)
            x = np.arange(1, L // 2)
            kx = np.arange(L)
            cos = np.cos(2 * np.pi * np.outer(kx, x) / L)  # (L, L/2-1)
            r2 = x[:, None] ** 2 + x[None, :] ** 2
            bulk = 4.0 * np.einsum("kx,xy,qy->kq", cos, r2 ** (-alpha / 2.0), cos)
            line = 2.0 * cos @ (x ** (-alpha))
            closed = bulk + line[:, None] + line[None, :]
            energies = complex_fft_spectrum(2, L, alpha)[0] - model.detunings
            half = L // 2 + 1
            err = np.max(np.abs(energies.reshape(half, half) - closed[:half, :half]))
            assert err <= 4.0 * L / (L / 2.0) ** alpha

    def test_d3_spectrum_and_summary_memory(self):
        # the largest array has L (L/2+1)^2 entries: 82 MiB peak measured,
        # against 528 MiB when the spectrum was built on all L^3 modes
        tracemalloc.start()
        try:
            ring.ring_spectral_summary(ring.ring_spectrum(3, 256, 1.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 160 * 2**20

    def test_input_validation(self):
        with pytest.raises(DomainError):
            ring.ring_spectrum(1, 5, 1.0)
        with pytest.raises(DomainError):
            ring.ring_spectrum(2, 1024, 1.0)
        with pytest.raises(DomainError, match="supports d in"):
            ring.ring_spectrum(4, 8, 1.0)


class TestRingSpectralSummaries:
    """The sweep-level table against the per-model path, and its memory."""

    @pytest.mark.parametrize("d, alphas, sizes", [
        # 2^12 and 2^13 on either side of numkit's crossover to the factored transform
        (1, (0.5, 1.2, 3.0, math.inf), (2, 4, 256, 1000, 2**12, 2**13, 2**15, 16378)),
        (2, (0.6, 1.0, 1.5), experiments.RING_2D_SIZES),  # 46, 90 and 182 are no powers of 2
        (3, (0.8, 2.5), (2, 6, 16, 24, 32)),
    ])
    def test_bit_identical_to_the_model_path(self, d, alphas, sizes):
        table = ring.ring_spectral_summaries(d, alphas, sizes)
        assert len(table) == len(alphas)
        for alpha, row in zip(alphas, table):
            ref = [ring.ring_spectral_summary(ring.ring_spectrum(d, L, alpha)) for L in sizes]
            # float.hex: equal bit for bit, not just ==
            assert ([[x.hex() for x in dataclasses.astuple(s)] for s in row]
                    == [[x.hex() for x in dataclasses.astuple(s)] for s in ref])

    @pytest.mark.parametrize("d, alphas, sizes", [
        (1, (1.0,), (64, 65)),
        (2, (1.0,), (32, 33)),
        (1, (0.5, 1.0), (256, ring.L_CAP[1] + 2)),
        (2, (1.0,), (32, ring.L_CAP[2] + 2)),
        (3, (1.0,), (8, ring.L_CAP[3] + 2)),
        (2, (1.0, math.nan), (32, 64)),
        (3, (-0.5,), (8,)),
    ])
    def test_every_size_is_validated_before_the_spectrum(self, monkeypatch, d, alphas, sizes):
        def no_fft(kernel):
            raise AssertionError("spectrum computed before every size was validated")

        monkeypatch.setattr(numkit, "real_dft_circulant", no_fft)
        with pytest.raises(DomainError) as table_error:
            ring.ring_spectral_summaries(d, alphas, sizes)
        monkeypatch.undo()
        for alpha, L in itertools.product(alphas, sizes):
            try:
                ring.ring_spectrum(d, L, alpha)
            except DomainError as exc:  # the first size ring_spectrum rejects
                assert str(table_error.value) == str(exc)
                break
        else:
            pytest.fail("ring_spectrum accepted every size")

    def test_one_workspace_per_table(self, monkeypatch):
        # every transform of a table runs in the buffers of the first one
        transform, works = numkit.real_dft_circulant, []

        def recording(half, work=None):
            works.append(work)
            return transform(half, work)

        monkeypatch.setattr(numkit, "real_dft_circulant", recording)
        for d, alphas, sizes in [(1, (0.5, 1.0), (256, 1024, 4096)),
                                 (2, (1.0,), experiments.RING_2D_SIZES)]:
            works.clear()
            ring.ring_spectral_summaries(d, alphas, sizes)
            assert len(works) == len(alphas) * len(sizes)
            first = works[0]
            assert all(w is not None and np.shares_memory(w[0], first[0])
                       and np.shares_memory(w[1], first[1]) for w in works)

    def test_empty_sizes_build_nothing(self, monkeypatch):
        def no_build(*args):
            raise AssertionError("kernel or workspace built for no size")

        monkeypatch.setattr(ring, "_coupling_kernel", no_build)
        monkeypatch.setattr(numkit, "dft_workspace", no_build)
        assert ring.ring_spectral_summaries(1, (0.5, 1.0, 2.0), []) == [[], [], []]
        assert ring.ring_spectral_summaries(2, (), []) == []

    @pytest.mark.parametrize("driver", ["fig_s2b", "fig_s2c", "fig_s3"])
    def test_sweep_memory(self, monkeypatch, driver):
        # 1.90 MiB for fig_s2b: at L = 2^17 the kernel and the factored
        # transform's two buffers (0.5 + 0.5 + 0.5 MiB) and the twiddle tables
        # of its ten sizes (0.26 MiB).  fig_s2c peaked at 0.76 MiB and fig_s3
        # at 0.31.  A full kernel kept beside a transform, a weight array per
        # size or a full twiddle table per size shows up here.  The twiddles
        # are cached per L, so the cache is cleared first: the peak is that
        # of a cold run whichever tests ran before.
        monkeypatch.delenv("LONGWALK_THREADS", raising=False)
        import numpy.fft  # noqa: F401  numpy loads it lazily, and its import is no sweep's memory
        numkit._plan.cache_clear()
        tracemalloc.start()
        try:
            getattr(experiments, driver)()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.6 * 2**20


class TestRingMu:
    """mu, the level-repulsion shift: the endpoints sit at -mu."""

    def test_hand_value_L4(self):
        for g in (0.1, 1.0):
            mu = -ring.ring_channel(1, 4, 1.0, g).onsite
            assert abs(mu - 13 * g**2 / 24) <= 1e-14 * max(1.0, g**2)

    def test_quadratic_in_g(self):
        mu = [-ring.ring_channel(1, 50, 1.2, g).onsite for g in (0.1, 0.2)]
        assert abs(mu[1] - 4 * mu[0]) <= 1e-15

    def test_near_nearest_neighbor_limit(self):
        assert np.isfinite(ring.ring_channel(1, 12, 50.0, 0.05).onsite)


class TestRingSpectralSummary:
    @pytest.mark.parametrize("d, L", [(1, 64), (2, 16), (3, 8)])
    def test_model_is_left_unchanged(self, d, L):
        # the summary reduces a copy: its reduction overwrites its argument
        model = ring.ring_spectrum(d, L, 1.3)
        before = model.detunings.copy()
        ring.ring_spectral_summary(model)
        assert [x.hex() for x in model.detunings] == [x.hex() for x in before]

    def test_L4_hand_values(self):
        s = ring.ring_spectral_summary(ring.ring_spectrum(1, 4, 1.0))
        assert s.delta0 == 3.0
        assert s.bandwidth == 4.0
        assert abs(s.q2 - (1 / 9 + 1 / 16 + 1 / 9)) <= 1e-15

    def test_alpha0_resonant_energy(self):
        # all-to-all: E_0 = L - 1 and E_k = -1, so every Delta_k (k != 0) is L
        for L in (8, 50, 256):
            model = ring.ring_spectrum(1, L, 0.0)
            flat, mult, _ = ring._fold(1, L)
            assert abs(np.sum(mult * model.detunings[flat]) / model.N - (L - 1)) <= 1e-9 * L
            np.testing.assert_allclose(model.detunings[1:], L, rtol=1e-9)
            s = ring.ring_spectral_summary(model)
            ref = complex_fft_spectrum(1, L, 0.0)
            assert abs(s.bandwidth - (ref.max() - ref.min())) <= 1e-12 * L

    @pytest.mark.parametrize("d, L, alpha", [(1, 100, 1.0), (1, 2000, 2.5), (2, 44, 1.0),
                                             (2, 20, 3.3), (3, 8, 1.0), (3, 20, 0.6)])
    def test_channel_sums_q2_on_the_fold(self, d, L, alpha):
        # the exact transfer's S sums mult_k / Delta_k^2 over the folded
        # modes; the summary, its oracle, sums 1 / Delta_k^2 over the orthant.
        # The two orders of summation met within 1 ulp on these sizes
        q2 = ring.ring_spectral_summary(ring.ring_spectrum(d, L, alpha)).q2
        for g in (0.02, np.array([0.01, 1.0])):
            channel = ring.ring_channel(d, L, alpha, g)
            np.testing.assert_allclose(channel.offres_weight, np.float_power(channel.rate, 2) * q2,
                                       rtol=4 * np.finfo(float).eps, atol=0)

    def test_summary_inequalities(self):
        for L, alpha in [(64, 0.8), (256, 1.6)]:
            model = ring.ring_spectrum(1, L, alpha)
            s = ring.ring_spectral_summary(model)
            assert s.delta0 <= s.bandwidth
            assert s.q2 >= (model.N - 1) / s.bandwidth**2


class TestFigS3GapTarget:
    """delta_0 = C p^(alpha-1) + D p^2 with p = 2 pi / L: above alpha = 3 the
    D p^2 term dominates, so fig_s3's gap target is -2 there, not 1 - alpha
    (a slope of -1.982 at alpha = 3.5 failed against -2.5)."""

    @pytest.mark.parametrize("alpha", [3.5, 4.0, 6.0, math.inf])
    def test_the_gap_falls_as_L_to_the_minus_two_above_alpha_three(self, alpha):
        (entry,) = experiments.fig_s3(alphas=(alpha,))["results"]
        assert entry["delta0_target"] == -2.0
        assert entry["delta0_ok"], entry["delta0_slope"]


class TestQ2Scaling:
    """The d=1 q2 exponent from the detunings alone, without the
    finite-size extrapolator: Delta_k ~ C_alpha (2 pi k / L)^(alpha-1) at
    small k for 1 < alpha < 3, so q2 ~ L^(2(alpha-1)) once the sum over k
    converges (alpha > 1.5)."""

    ALPHA = 2.2

    def test_fixed_k_detuning_matches_continuum_integral(self):
        # L^(alpha-1) Delta_k -> f(k) = 2 int_0^(1/2) u^-alpha (1 - cos 2 pi k u) du,
        # the continuum limit of the min-image sum: independent of L
        mpmath = pytest.importorskip("mpmath")
        a = self.ALPHA
        for k in (1, 2, 4):
            f = float(2 * mpmath.quad(
                lambda u: u ** (-a) * (1 - mpmath.cos(2 * mpmath.pi * k * u)),
                [0, mpmath.mpf(1) / (4 * k), 0.5],
            ))
            for L in (2**14, 2**17):
                scaled = L ** (a - 1) * ring.ring_spectrum(1, L, a).detunings[k]
                assert abs(scaled / f - 1.0) <= 2e-3, (k, L)

    @pytest.mark.parametrize("alpha", [1.2, 1.4, 1.8, 2.5, 3.5, 5.0, math.inf])
    def test_gap_matches_its_closed_form(self, alpha):
        # delta0 against closed_forms.ring_delta0 at figS3's sizes and at
        # 2^17, for alpha on both sides of 3/2 and of 3: within L^-2 (its
        # Euler-Maclaurin remainder, 0.2-0.43 L^-2 below alpha = 3) plus 8 eps
        # E_0 / delta0, what E_0 - E_1 loses to cancellation (E_0 <= 2
        # zeta(alpha)); at 2^17 and alpha >= 3.5 the latter is the larger
        mpmath = pytest.importorskip("mpmath")
        e0 = 2.0 if alpha == math.inf else 2.0 * float(mpmath.zeta(alpha))
        remainder = 0.0 if alpha == math.inf else 1.0
        for L in [2**e for e in experiments.FIGS3_L_EXPONENTS] + [2**17]:
            delta0 = ring.ring_spectral_summary(ring.ring_spectrum(1, L, alpha)).delta0
            exact = ring_delta0(alpha, L)
            bound = remainder / L**2 + 8.0 * np.finfo(float).eps * e0 / exact
            assert abs(delta0 / exact - 1.0) <= bound, (L, delta0, exact)

    def test_detuning_approaches_polylog_term_as_k_grows(self):
        a, L = self.ALPHA, 2**17
        c_alpha = -2.0 * math.gamma(1.0 - a) * math.sin(math.pi * a / 2.0)
        ks = np.array([1, 2, 4, 8, 16])
        ratio = ring.ring_spectrum(1, L, a).detunings[ks] / (c_alpha * (2 * np.pi * ks / L) ** (a - 1))
        assert np.all(np.diff(ratio) > 0)
        assert abs(ratio[-1] - 1.0) <= 0.01

    @pytest.mark.parametrize("alpha", [2.2, 2.6, 3.5])
    def test_two_point_q2_slope_matches_target(self, alpha):
        q2 = [ring.ring_spectral_summary(ring.ring_spectrum(1, L, alpha)).q2
              for L in (2**16, 2**17)]
        assert abs(np.log2(q2[1] / q2[0]) - experiments.ring_q2_target(1, alpha)[0]) <= 0.02

    @pytest.mark.parametrize("alpha, exponent", [
        (0.5, 0.0), (0.8, 0.6),   # 2 alpha - 1
        (1.0, 1.0), (1.4, 1.0),   # 1
        (1.5, 1.0), (2.2, 2.4),   # 2 (alpha - 1)
        (3.0, 4.0), (3.5, 4.0),   # 4
    ])
    def test_q2_target_branches(self, alpha, exponent):
        assert abs(experiments.ring_q2_target(1, alpha)[0] - exponent) <= 1e-12

    @pytest.mark.parametrize("alpha, exponent", [
        (0.6, -0.8), (1.5, 1.0),  # 2 alpha - 2
        (2.0, 2.0), (2.5, 2.0),   # d = 2
        (3.0, 2.0), (3.5, 3.0),   # 2 (alpha - 2)
        (4.0, 4.0), (4.5, 4.0),   # 4
    ])
    def test_q2_target_branches_d2(self, alpha, exponent):
        assert abs(experiments.ring_q2_target(2, alpha)[0] - exponent) <= 1e-12

    @pytest.mark.parametrize("alpha, slopes", [
        (2.5, (1.877, 1.912)), (3.5, (2.834, 2.883)), (4.5, (3.862, 3.908)),
    ])
    def test_two_point_q2_slopes_d2(self, alpha, slopes):
        # L = 128 -> 256 -> 512: the slopes climb towards 2 (alpha - 2) or 4,
        # and stay far from 2 alpha - 2, the branch for alpha < d
        q2 = [ring.ring_spectral_summary(ring.ring_spectrum(2, L, alpha)).q2
              for L in (128, 256, 512)]
        got = np.log2(np.array(q2[1:]) / np.array(q2[:-1]))
        np.testing.assert_allclose(got, slopes, atol=1e-3)
        target = experiments.ring_q2_target(2, alpha)[0]
        assert got[0] < got[1] < target
        assert (2 * alpha - 2) - got[1] >= 1.0


class TestGridIsItsPoints:
    """A g grid solved in one pass is its single transfers, bit for bit, on
    both solver paths: stacked eigh (one call per parity) and the joint
    secular loop (one call for every g's two sectors)."""

    @pytest.mark.parametrize("d, L, secular", [(1, 100, False), (1, 400, True), (2, 32, True)])
    def test_ring(self, monkeypatch, d, L, secular):
        grid = np.geomspace(*experiments.FIGS2A_G_RANGE)
        calls = []
        solve, eigh = numkit.arrowhead_spectra, np.linalg.eigh
        monkeypatch.setattr(numkit, "arrowhead_spectra", lambda onsite, sectors: calls.append(
            len(sectors)) or solve(onsite, sectors))
        monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
        out = ring.ring_exact_transfer(d, L, 1.0, grid)
        if secular:
            assert calls == [2 * grid.shape[0]]
        else:
            assert [shape[0] for shape in calls] == [grid.shape[0]] * 2
        assert_grid_is_its_points(out, lambda g: ring.ring_exact_transfer(d, L, 1.0, g))
        if d == 1:
            res = experiments.fig_s2a(L=L, g_grid=grid)
            assert np.array_equal(res["eps_exact"], out.infidelity_exact)
            assert np.array_equal(res["eps_perturbative"], out.infidelity_perturbative)


    @pytest.mark.parametrize("L, cap, whole, split", [
        # a channel's entries are both sectors': 27^2 + 26^2 = 1405 at L = 100,
        # seven channels to a stack at a cap of 102, one eigh call per parity
        pytest.param(100, 102, [25, 25], [7, 7] * 3 + [4, 4], id="eigh-100"),
        # 102^2 + 101^2 = 20605 at L = 400, four channels (eight sectors) at 300
        pytest.param(400, 300, [50], [8] * 6 + [2], id="secular-400")])
    def test_a_stack_holds_at_most_one_cap_matrix_of_entries(self, monkeypatch, L, cap, whole,
                                                              split):
        calls = []
        solve, eigh = numkit.arrowhead_spectra, np.linalg.eigh
        monkeypatch.setattr(numkit, "arrowhead_spectra", lambda onsite, sectors: calls.append(
            len(sectors)) or solve(onsite, sectors))
        monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(len(h)) or eigh(h))
        want = experiments.fig_s2a(L=L)
        assert calls == whole
        calls.clear()
        monkeypatch.setattr(numkit, "DENSE_DIM_CAP", cap)
        got = experiments.fig_s2a(L=L)
        assert calls == split
        assert got.keys() == want.keys()
        for key in want:
            assert np.array_equal(got[key], want[key]), key

    @pytest.mark.parametrize("L, cap, short, long", [
        # 0.19 MiB over 400 couplings and 0.80 MiB over 4000 measured; 1.0 and
        # 9.5 MiB when the per-g arrays were built for the whole grid
        pytest.param(100, 102, 400, 4000, id="eigh-100"),
        # 0.92 and 0.86 MiB over 10 and 300; 0.95 and 2.8 MiB whole-grid
        pytest.param(400, 300, 10, 300, id="secular-400")])
    def test_a_long_grid_holds_one_stack_at_a_time(self, monkeypatch, L, cap, short, long):
        # the channel, its couplings, the amplitude and the perturbative sum
        # are built per stack, so only the outcome's arrays over g grow
        monkeypatch.setattr(numkit, "DENSE_DIM_CAP", cap)
        peaks = []
        for count in (short, long):
            grid = np.geomspace(1e-3, 1e-2, count)
            tracemalloc.start()
            try:
                ring.ring_exact_transfer(1, L, 1.0, grid)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 2**20, peaks


class TestRingExactTransfer:
    @pytest.mark.parametrize("L", [100, 400])  # eigh and secular sizes
    def test_an_empty_grid_is_rejected_at_the_gate(self, monkeypatch, L):
        monkeypatch.setattr(numkit, "endpoint_amplitude",
                            lambda *args: pytest.fail("a solver was reached"))
        with pytest.raises(DomainError, match=r"got shape \(0,\)$"):
            ring.ring_exact_transfer(1, L, 1.0, [])
        with pytest.raises(DomainError, match=r"got shape \(0,\)$"):
            experiments.fig_s2a(L=L, g_grid=[])

    @pytest.mark.parametrize("alpha, s, exact", [(3.5, 0.0936, 0.197363),
                                                  (math.inf, 0.0876, 0.180072)])
    def test_envelope_is_no_bound_and_has_no_flags(self, alpha, s, exact):
        # 2S is the termwise ceiling of the leading order, and the exact
        # infidelity passes it where the phases line up, with delta0 >= 4 Omega
        # and S < 3/4 both true: so the ring reports no validity flags
        q2 = ring.ring_spectral_summary(ring.ring_spectrum(1, 100, alpha)).q2
        g = math.sqrt(s * 100 / (2.0 * q2))  # S = Omega^2 q2, Omega^2 = 2 g^2 / N
        out = ring.ring_exact_transfer(1, 100, alpha, g)
        assert out.bound_conditions_met is None
        assert out.infidelity_bound == pytest.approx(2.0 * s, rel=1e-14)
        assert out.infidelity_exact == pytest.approx(exact, abs=1e-6)
        assert out.infidelity_exact > 1.02 * out.infidelity_bound
        # not the library's roundoff: the site-basis oracle reads the same
        assert abs(1.0 - dense_ring_fidelity(1, 100, alpha, g) - out.infidelity_exact) <= 1e-11
        grid = ring.ring_exact_transfer(1, 100, alpha, [g, 2.0 * g])
        assert grid.bound_conditions_met is None

    def test_small_g_envelope_L4(self):
        out = ring.ring_exact_transfer(1, 4, 1.0, 1e-3)
        om = np.sqrt(2) * 1e-3 / 2.0
        assert out.infidelity_exact <= 2 * om**2 * 0.2847222222222222 + 1e-9

    def test_L100_alpha1_matches_perturbation(self):
        for g in np.geomspace(0.02, 2.0, 12):
            out = ring.ring_exact_transfer(1, 100, 1.0, g)
            if out.infidelity_exact <= 0.1:
                rel = abs(out.infidelity_exact - out.infidelity_perturbative)
                assert rel <= 0.2 * out.infidelity_exact, g

    def test_d2_small_lattice_matches_perturbation(self):
        for g in (0.05, 0.1, 0.3):
            out = ring.ring_exact_transfer(2, 6, 1.0, g)
            if out.infidelity_exact <= 0.1:
                rel = abs(out.infidelity_exact - out.infidelity_perturbative)
                assert rel <= 0.2 * out.infidelity_exact, g

    def test_perturbative_within_envelope(self):
        q2 = ring.ring_spectral_summary(ring.ring_spectrum(1, 64, 1.4)).q2
        for g in (0.01, 0.1, 0.5):
            channel = ring.ring_channel(1, 64, 1.4, g)
            eps = transfer.perturbative_infidelity(channel)
            om = np.sqrt(2.0) * g / 8.0
            assert transfer.small_g_envelope(channel) == pytest.approx(2 * om**2 * q2, rel=1e-15)
            assert 0.0 <= eps <= transfer.small_g_envelope(channel) + 1e-15

    # (1, 316) and (2, 32) are the sizes whose parity sectors lie on both
    # sides of numkit._SECULAR_MIN_DIM, (81, 80) and (82, 73): both go to
    # the secular solver
    @pytest.mark.parametrize("d, L", [(1, 4), (1, 100), (1, 102), (1, 316), (1, 1026), (2, 6),
                                      (2, 12), (2, 20), (2, 32), (3, 4), (3, 6), (3, 8)])
    def test_matches_dense_site_oracle(self, d, L):
        for alpha, g in [(1.0, 0.02), (0.7, 0.3), (1.6, 0.1)]:
            out = ring.ring_exact_transfer(d, L, alpha, g)
            assert abs(out.fidelity_exact - dense_ring_fidelity(d, L, alpha, g)) <= 1e-12, alpha

    @pytest.mark.parametrize("d, L", [(1, 100), (1, 102), (2, 12), (2, 14), (2, 44), (2, 250),
                                      (3, 8), (3, 68)])
    def test_folded_modes_cover_the_channel(self, d, L):
        # each folded mode stands in for mult channel modes: the multiplicities
        # add up to N, and the fold keeps only the sorted tuples k_1 <= ... <= k_d
        model = ring.ring_spectrum(d, L, 1.2)
        flat, mult, parities = ring._fold(d, L)
        assert mult.sum() == model.N
        half = L // 2 + 1
        assert flat.size == math.comb(half + d - 1, d)
        k = np.array(np.unravel_index(flat, (half,) * d))
        np.testing.assert_array_equal(parities, (-1.0) ** k.sum(axis=0))
        # the size check counts the larger sector from the fold's parities
        sector = ring._sector(parities)
        assert sector == 1 + max(np.sum(parities > 0), np.sum(parities < 0))
        if d < 3:
            assert sector == ring_sector(d, L)
        if L == 68:
            assert sector == 3895  # the largest d=3 sector within numkit.DENSE_DIM_CAP
        # each multiplicity is the mode's axis weight times its permutations
        assert np.all(mult % np.where((k == 0) | (k == L // 2), 1, 2).prod(axis=0) == 0)
        # every axis permutation of a mode has, up to roundoff, the energy of
        # the sorted tuple that stands in for it
        e = model.detunings.reshape((half,) * d)
        for perm in itertools.permutations(range(d)):
            assert np.max(np.abs(e - e.transpose(perm))) <= 1e-12 * np.max(np.abs(e))

    def test_size_caps(self):
        for d, cap in ring.L_CAP.items():
            with pytest.raises(DomainError, match="exceeds cap"):
                ring.ring_spectrum(d, cap + 2, 1.0)
        # after the fold, the larger parity sector passes numkit.DENSE_DIM_CAP
        # above L = 16378 (d=1), L = 250 (d=2) and L = 68 (d=3); the rejection
        # names the ring, d, L and the largest exact size
        for d, L, largest in [(1, 16380, 16378), (2, 252, 250), (1, 2**17 + 2, 16378),
                              (3, 70, 68), (3, 2**20, 68)]:
            for entry in (ring.ring_exact_transfer, ring.ring_channel):
                with pytest.raises(DomainError, match=f"^ring d={d} L={L}: .* L={largest}$"):
                    entry(d, L, 1.0, 0.1)
        # below those sizes nothing else limits the exact path; d=2 L=180
        # was past the limit before the swap fold
        for d, L in [(1, 2002), (2, 46), (2, 180), (3, 24)]:
            out = ring.ring_exact_transfer(d, L, 1.0, 0.01)
            assert 0.99 <= out.fidelity_exact <= 1.0 + 1e-12

    def test_size_rejection_comes_before_the_spectrum(self, monkeypatch):
        def no_fft(kernel):
            raise AssertionError("spectrum computed for a rejected size")

        monkeypatch.setattr(numkit, "real_dft_circulant", no_fft)
        with pytest.raises(DomainError, match="largest exact size"):
            ring.ring_exact_transfer(2, 252, 1.0, 0.1)

    def test_a_transfer_cannot_write_into_its_cached_fold(self):
        ring.ring_exact_transfer(2, 12, 1.0, 0.05)
        fold = ring._exact_fold(2, 12)
        for cached, built in zip(fold, ring._fold(2, 12)):
            np.testing.assert_array_equal(cached, built)
            assert not cached.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                cached[0] = 0.0
        # and a second transfer sees the same, unchanged fold
        ring.ring_exact_transfer(2, 12, 1.3, 0.05)
        assert all(a is b for a, b in zip(ring._exact_fold(2, 12), fold))

    def test_a_repeated_size_reuses_its_fold(self):
        fold = ring._exact_fold(1, 100)
        assert all(a is b for a, b in zip(ring._exact_fold(1, 100), fold))

    def test_an_inadmissible_size_leaves_the_fold_cache_alone(self):
        # from an empty cache, so that no eviction can hide an entry
        ring._exact_fold.cache_clear()
        ring._exact_fold(1, 100)
        before = ring._exact_fold.cache_info().currsize
        with pytest.raises(DomainError, match="largest exact size is L=68"):
            ring.ring_exact_transfer(3, 256, 1.0, 0.1)
        assert ring._exact_fold.cache_info().currsize == before

    def test_transfer_time_value(self):
        out = ring.ring_exact_transfer(1, 100, 1.0, 0.05)
        assert abs(out.T - np.pi * np.sqrt(100) / (np.sqrt(2) * 0.05)) <= 1e-9 * out.T


class TestChebyshevOracle:
    """The exact infidelity against the Chebyshev series of exp(-iHT)
    (chebyshev_oracle), to 1e-11 relative, at alpha = 1 and the g whose
    small-g envelope 2 S is 0.02: on the folded sectors at the three sector
    caps, beyond the dense oracle's reach, and on the full lattice, where
    the series takes only mu and T from the library and so checks the fold,
    numkit.endpoint_amplitude and the secular solver at once."""

    @pytest.mark.parametrize("d, L, lattice", [
        pytest.param(d, L, lattice, id=f"{'lattice' if lattice else 'folded'}-d{d}-L{L}")
        for d, L, lattice in [(1, 16378, False), (2, 250, False), (3, 68, False),
                              (1, 2000, True), (2, 44, True), (3, 20, True)]])
    def test_exact_infidelity_matches_the_series(self, d, L, lattice):
        q2 = ring.ring_spectral_summary(ring.ring_spectrum(d, L, 1.0)).q2
        g = math.sqrt(0.02 * L**d / (4.0 * q2))
        out = ring.ring_exact_transfer(d, L, 1.0, g)
        channel = ring.ring_channel(d, L, 1.0, g)
        onsite, t = float(channel.onsite), float(channel.T)
        if lattice:
            amplitude = chebyshev_oracle.lattice_amplitude(d, L, 1.0, g, onsite, t)
        else:
            amplitude = chebyshev_oracle.folded_amplitude(channel.energies, channel.omegas,
                                                          channel.parities, onsite, t)
        infidelity = 1.0 - abs(amplitude) ** 2
        assert abs(infidelity - out.infidelity_exact) <= 1e-11 * out.infidelity_exact
