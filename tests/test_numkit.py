import numpy as np
import pytest

from longwalk import numkit
from longwalk.errors import DomainError


class TestEighTridiagonal:
    def test_three_site_uniform(self):
        dec = numkit.eigh_tridiagonal([0, 0, 0], [1, 1])
        np.testing.assert_allclose(dec.eigenvalues, [-np.sqrt(2), 0, np.sqrt(2)], atol=1e-14)

    def test_single_site(self):
        dec = numkit.eigh_tridiagonal([5.0], [])
        np.testing.assert_allclose(dec.eigenvalues, [5.0])
        np.testing.assert_allclose(dec.eigenvectors, [[1.0]])

    def test_parity_decomposable_chain(self):
        # bonds (1,2,2,1): even sector gives {0, +-3}, odd sector {+-1}
        dec = numkit.eigh_tridiagonal(np.zeros(5), [1, 2, 2, 1])
        np.testing.assert_allclose(dec.eigenvalues, [-3, -1, 0, 1, 3], atol=1e-13)

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            numkit.eigh_tridiagonal([0, 0, 0], [1])

    def test_nonfinite_rejected(self):
        with pytest.raises(DomainError):
            numkit.eigh_tridiagonal([0, np.nan, 0], [1, 1])

    def test_dense_dimension_cap(self):
        n = numkit.DENSE_DIM_CAP + 1
        with pytest.raises(DomainError, match="exceeds cap"):
            numkit.eigh_tridiagonal(np.zeros(n), np.ones(n - 1))

    def test_random_matrix_invariants(self):
        # reconstruction and orthonormality over 1000 random tridiagonals
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            d = rng.standard_normal(n)
            e = rng.standard_normal(max(n - 1, 0))
            dec = numkit.eigh_tridiagonal(d, e)
            h = np.diag(d)
            if n > 1:
                h += np.diag(e, 1) + np.diag(e, -1)
            v, w = dec.eigenvectors, dec.eigenvalues
            scale = max(1.0, np.max(np.abs(h)))
            assert np.max(np.abs(v @ np.diag(w) @ v.T - h)) <= 1e-12 * scale
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
            assert np.all(np.diff(w) >= -1e-15 * scale)


class TestEighDense:
    def test_two_site_hop(self):
        dec = numkit.eigh_dense([[0, 1], [1, 0]])
        np.testing.assert_allclose(dec.eigenvalues, [-1, 1], atol=1e-15)

    def test_already_diagonal(self):
        dec = numkit.eigh_dense(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1, 2, 3], atol=1e-15)

    def test_cross_solver_oracle(self):
        # both entry points against the closed form: bonds (1,2,2,1) split
        # into an even sector {0, +-3} and an odd sector {+-1}
        bonds = np.array([1.0, 2.0, 2.0, 1.0])
        h = np.diag(bonds, 1) + np.diag(bonds, -1)
        for dec in (numkit.eigh_dense(h), numkit.eigh_tridiagonal(np.zeros(5), bonds)):
            np.testing.assert_allclose(dec.eigenvalues, [-3, -1, 0, 1, 3], atol=1e-13)
            v = dec.eigenvectors
            np.testing.assert_allclose(h @ v, v * dec.eigenvalues, atol=1e-13)

    def test_asymmetric_rejected(self):
        with pytest.raises(DomainError):
            numkit.eigh_dense([[0, 1], [2, 0]])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="non-finite"):
            numkit.eigh_dense([[0.0, bad], [bad, 1.0]])

    def test_dimension_cap(self):
        with pytest.raises(DomainError):
            numkit.eigh_dense(np.zeros((4097, 4097)))

    def test_random_matrix_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            a = rng.standard_normal((n, n))
            h = a + a.T
            dec = numkit.eigh_dense(h)
            v, w = dec.eigenvectors, dec.eigenvalues
            scale = max(1.0, np.max(np.abs(h)))
            assert np.max(np.abs(v @ np.diag(w) @ v.T - h)) <= 1e-12 * scale
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12


class TestEvolve:
    def test_time_zero_identity(self):
        dec = numkit.eigh_dense([[0, 1], [1, 0]])
        psi0 = np.array([0.6, 0.8])
        np.testing.assert_allclose(numkit.evolve(dec, psi0, 0.0), psi0, atol=1e-15)

    def test_rabi_half_period(self):
        dec = numkit.eigh_dense([[0, 1], [1, 0]])
        psi = numkit.evolve(dec, np.array([1.0, 0.0]), np.pi / 2)
        np.testing.assert_allclose(psi, [0, -1j], atol=1e-14)

    def test_three_level_perfect_transfer(self):
        # W |X><col| + W |col><Y| transfers perfectly at T = pi/(sqrt(2) W)
        w = 0.37
        h = w * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        dec = numkit.eigh_dense(h)
        t = np.pi / (np.sqrt(2) * w)
        psi = numkit.evolve(dec, np.array([1.0, 0, 0]), t)
        assert abs(abs(psi[2]) ** 2 - 1.0) <= 1e-9

    def test_norm_conserved_long_times(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        h = a + a.T
        dec = numkit.eigh_dense(h)
        psi0 = rng.standard_normal(12)
        psi0 /= np.linalg.norm(psi0)
        hnorm = np.max(np.abs(dec.eigenvalues))
        for t in [0.0, 1.0, 1e3 / hnorm, 1e6 / hnorm]:
            psi = numkit.evolve(dec, psi0, t)
            assert abs(np.linalg.norm(psi) - 1.0) <= 1e-10

    def test_dimension_and_norm_checks(self):
        dec = numkit.eigh_dense([[0, 1], [1, 0]])
        with pytest.raises(DomainError):
            numkit.evolve(dec, np.array([1.0, 0, 0]), 1.0)
        with pytest.raises(DomainError):
            numkit.evolve(dec, np.array([1.0, 1.0]), 1.0)


class TestEndpointAmplitude:
    @staticmethod
    def full_amplitude(energies, couplings, parities, onsite, t):
        # oracle: the (n+2) matrix over (X, modes, Y), evolved densely
        n = len(energies)
        h = np.zeros((n + 2, n + 2))
        h[1:-1, 1:-1] = np.diag(energies)
        h[0, 1:-1] = h[1:-1, 0] = couplings
        h[-1, 1:-1] = h[1:-1, -1] = np.asarray(couplings) * parities
        h[0, 0] = h[-1, -1] = onsite
        psi0 = np.zeros(n + 2)
        psi0[0] = 1.0
        return numkit.evolve(numkit.eigh_dense(h), psi0, t)[-1]

    def test_random_channel_matches_full_matrix(self):
        rng = np.random.default_rng(5)
        for n in (1, 2, 9, 40):
            e = rng.standard_normal(n)
            c = 0.3 * rng.standard_normal(n)
            p = rng.choice([-1.0, 1.0], n)
            for t in (0.0, 0.7, 25.0):
                got = numkit.endpoint_amplitude(e, c, p, 0.2, t)
                assert abs(got - self.full_amplitude(e, c, p, 0.2, t)) <= 1e-12, (n, t)

    def test_three_level_closed_form(self):
        # one even mode: Y population [1 - cos(sqrt(2) W t)]^2 / 4
        w = 0.37
        for t in (0.0, 1.0, np.pi / (np.sqrt(2) * w)):
            got = numkit.endpoint_amplitude([0.0], [w], [1.0], 0.0, t)
            assert abs(got - (np.cos(np.sqrt(2) * w * t) - 1.0) / 2.0) <= 1e-14

    def test_input_checks(self):
        with pytest.raises(DomainError):
            numkit.endpoint_amplitude([0.0, 1.0], [0.1], [1.0], 0.0, 1.0)
        with pytest.raises(DomainError):
            numkit.endpoint_amplitude([0.0], [0.1], [0.5], 0.0, 1.0)

    def test_sector_dimension_cap(self):
        n = numkit.DENSE_DIM_CAP
        with pytest.raises(DomainError):
            numkit.endpoint_amplitude(np.zeros(n), np.ones(n), np.ones(n), 0.0, 1.0)


class TestRealDftCirculant:
    def test_nearest_neighbor_ring(self):
        np.testing.assert_allclose(
            numkit.real_dft_circulant([0, 1, 0, 1]), [2, 0, -2, 0], atol=1e-14
        )

    def test_power_law_row(self):
        # E_k = 2 cos(pi k / 2) + (-1)^k / 2
        np.testing.assert_allclose(
            numkit.real_dft_circulant([0, 1, 0.5, 1]), [2.5, -0.5, -1.5, -0.5], atol=1e-14
        )

    def test_trace_identity(self):
        rng = np.random.default_rng(5)
        for L in [4, 8, 64, 256]:
            half = rng.standard_normal(L // 2 - 1)
            row = np.concatenate([[0.0], half, [rng.standard_normal()], half[::-1]])
            e = numkit.real_dft_circulant(row)
            assert abs(e.sum() - L * row[0]) <= 1e-10 * max(1.0, np.max(np.abs(e)))

    def test_fft_matches_direct_summation(self):
        # exhaustive over every even L <= 1024 with random symmetric rows
        rng = np.random.default_rng(9)
        for L in range(4, 1026, 2):
            half = rng.standard_normal(L // 2 - 1)
            row = np.concatenate([[0.3], half, [1.0], half[::-1]])
            e = numkit.real_dft_circulant(row)
            k = np.arange(L)
            direct = np.cos(2 * np.pi * np.outer(k, k) / L) @ row
            scale = max(1.0, np.max(np.abs(direct)))
            assert np.max(np.abs(e - direct)) <= 1e-10 * scale

    def test_rejects_bad_rows(self):
        with pytest.raises(DomainError):
            numkit.real_dft_circulant([0, 1, 2])  # odd
        with pytest.raises(DomainError):
            numkit.real_dft_circulant([0, 1, 0, 2])  # asymmetric

    def test_d2_kernel(self):
        L = 6
        r = np.indices((L, L))
        kernel = np.cos(np.minimum(r[0], L - r[0]) + 2.0 * np.minimum(r[1], L - r[1]))
        np.testing.assert_allclose(numkit.real_dft_circulant(kernel),
                                   np.fft.fft2(kernel).real, rtol=0, atol=1e-13)
        broken = kernel.copy()
        broken[1, 2] += 1e-9  # breaks r -> L - r on both axes
        with pytest.raises(DomainError, match="axis 0"):
            numkit.real_dft_circulant(broken)
        broken[L - 1, 2] += 1e-9  # mends axis 0 only
        with pytest.raises(DomainError, match="axis 1"):
            numkit.real_dft_circulant(broken)
        with pytest.raises(DomainError):
            numkit.real_dft_circulant(np.zeros((6, 5)))  # odd along one axis


class TestLinearFit:
    def test_exact_line(self):
        fit = numkit.linear_fit([1, 2, 3], [4, 7, 10])
        assert abs(fit.slope - 3) <= 1e-12
        assert abs(fit.intercept - 1) <= 1e-12
        assert abs(fit.r_squared - 1) <= 1e-12

    def test_constant_y(self):
        fit = numkit.linear_fit([1, 2, 3], [0, 0, 0])
        assert fit.slope == 0
        assert fit.r_squared == 1.0

    def test_degenerate_x(self):
        with pytest.raises(DomainError):
            numkit.linear_fit([2, 2, 2], [1, 2, 3])


class TestPowerLawOffsetFit:
    def test_exact_model_recovery(self):
        x = np.linspace(0.5, 9.0, 12)
        y = 2.0 * x**0.5 + 1.0
        fit = numkit.powerlaw_offset_fit(x, y)
        assert abs(fit.amplitude - 2.0) <= 1e-6 * 2.0
        assert abs(fit.exponent - 0.5) <= 1e-6 * 0.5
        assert abs(fit.offset - 1.0) <= 1e-6
        assert fit.residual_sse <= 1e-10 * np.sum(y**2)

    def test_constant_data(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        fit = numkit.powerlaw_offset_fit(x, np.full(4, 7.0))
        assert abs(fit.amplitude) <= 1e-9
        assert abs(fit.offset - 7.0) <= 1e-9

    def test_negative_amplitude_recovery(self):
        x = np.geomspace(0.01, 1.0, 10)
        y = -0.5 * x**1.3 + 2.0
        fit = numkit.powerlaw_offset_fit(x, y)
        assert abs(fit.exponent - 1.3) <= 1e-5
        assert abs(fit.offset - 2.0) <= 1e-6

    def test_input_validation(self):
        with pytest.raises(DomainError):
            numkit.powerlaw_offset_fit([1, 2, 3], [1, 2, 3])
        with pytest.raises(DomainError):
            numkit.powerlaw_offset_fit([0, 1, 2, 3], [1, 2, 3, 4])
        with pytest.raises(DomainError):
            numkit.powerlaw_offset_fit([1, 1, 2, 3], [1, 2, 3, 4])
