import numpy as np
import pytest

from longwalk import ring
from longwalk.errors import DomainError


class TestRingSpectrum:
    def test_L4_alpha1_hand_values(self):
        model = ring.ring_spectrum(1, 4, 1.0)
        np.testing.assert_allclose(model.energies, [2.5, -0.5, -1.5, -0.5], atol=1e-14)
        np.testing.assert_allclose(model.detunings, [0, 3, 4, 3], atol=1e-14)

    def test_inversion_symmetry(self):
        for L, alpha in [(8, 0.5), (64, 1.3), (100, 2.0)]:
            model = ring.ring_spectrum(1, L, alpha)
            e = model.energies
            np.testing.assert_allclose(e[1:], e[1:][::-1], rtol=1e-12, atol=1e-12)

    def test_traceless(self):
        for L, alpha in [(16, 0.7), (128, 1.5)]:
            model = ring.ring_spectrum(1, L, alpha)
            scale = 1e-9 * model.N * 1.0  # max |J| = 1
            assert abs(model.energies.sum()) <= scale

    def test_closed_form_match(self):
        # transform path equals the quoted cosine-sum formula
        for L in (4, 6, 10, 16, 50, 128, 250, 512, 1024, 4100):
            for alpha in (0.5, 1.0, 1.5, 2.2):
                model = ring.ring_spectrum(1, L, alpha)
                closed = ring.ring_spectrum_1d_closed_form(L, alpha)
                np.testing.assert_allclose(model.energies, closed, rtol=1e-9, atol=1e-9)

    def test_top_of_band_is_k0(self):
        for d, L, alpha in [(1, 64, 0.5), (1, 128, 2.0), (2, 16, 1.0), (2, 32, 3.5)]:
            model = ring.ring_spectrum(d, L, alpha)
            assert np.all(model.detunings[1:] > 0), (d, L, alpha)

    def test_d2_parities(self):
        model = ring.ring_spectrum(2, 4, 1.0)
        k = np.arange(4)
        expect = ((-1.0) ** (k[:, None] + k[None, :])).ravel()
        np.testing.assert_array_equal(model.parities, expect)

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
            err = np.max(np.abs(model.energies.reshape(L, L) - closed))
            assert err <= 4.0 * L / (L / 2.0) ** alpha

    def test_input_validation(self):
        with pytest.raises(DomainError):
            ring.ring_spectrum(1, 5, 1.0)
        with pytest.raises(DomainError):
            ring.ring_spectrum(2, 1024, 1.0)
        with pytest.raises(DomainError):
            ring.ring_spectrum(3, 8, 1.0)


class TestRingMu:
    def test_hand_value_L4(self):
        model = ring.ring_spectrum(1, 4, 1.0)
        for g in (0.1, 1.0):
            mu = ring.ring_mu(model, g)
            assert abs(mu - 13 * g**2 / 24) <= 1e-14 * max(1.0, g**2)

    def test_quadratic_in_g(self):
        model = ring.ring_spectrum(1, 50, 1.2)
        assert abs(ring.ring_mu(model, 0.2) - 4 * ring.ring_mu(model, 0.1)) <= 1e-15

    def test_near_nearest_neighbor_limit(self):
        model = ring.ring_spectrum(1, 12, 50.0)
        assert np.isfinite(ring.ring_mu(model, 0.05))


class TestRingSpectralSummary:
    def test_L4_hand_values(self):
        s = ring.ring_spectral_summary(ring.ring_spectrum(1, 4, 1.0))
        assert s.delta0 == 3.0
        assert s.bandwidth == 4.0
        assert abs(s.q2 - (1 / 9 + 1 / 16 + 1 / 9)) <= 1e-15

    def test_alpha0_resonant_energy(self):
        for L in (8, 50, 256):
            model = ring.ring_spectrum(1, L, 0.0)
            assert abs(model.resonant_energy - (L - 1)) <= 1e-9 * L
            s = ring.ring_spectral_summary(model)
            assert abs(s.bandwidth - (model.energies.max() - model.energies.min())) == 0

    def test_summary_inequalities(self):
        for L, alpha in [(64, 0.8), (256, 1.6)]:
            model = ring.ring_spectrum(1, L, alpha)
            s = ring.ring_spectral_summary(model)
            assert s.delta0 <= s.bandwidth
            assert s.q2 >= (model.N - 1) / s.bandwidth**2


class TestRingExactTransfer:
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
        model = ring.ring_spectrum(1, 64, 1.4)
        s = ring.ring_spectral_summary(model)
        for g in (0.01, 0.1, 0.5):
            eps = ring.ring_perturbative_infidelity(model, g)
            om = model.omega(g)
            assert 0.0 <= eps <= 2 * om**2 * s.q2 + 1e-15

    def test_size_caps(self):
        with pytest.raises(DomainError):
            ring.ring_exact_transfer(1, 2002, 1.0, 0.1)
        with pytest.raises(DomainError):
            ring.ring_exact_transfer(2, 46, 1.0, 0.1)

    def test_transfer_time_value(self):
        out = ring.ring_exact_transfer(1, 100, 1.0, 0.05)
        assert abs(out.T - np.pi * np.sqrt(100) / (np.sqrt(2) * 0.05)) <= 1e-9 * out.T
