import numpy as np
import pytest

from longwalk import numkit
from longwalk.errors import DomainError

from site_oracle import evolve


def tridiagonal(diagonal, offdiagonal):
    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(offdiagonal, dtype=float)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


class TestEighTridiagonal:
    """numpy's eigh on tridiagonals, the dense solve that
    tridiagonal_end_measure falls back to for the chain's site matrix:
    eigenvalues ascending, each paired with its orthonormal column."""

    def test_three_site_uniform(self):
        dec = np.linalg.eigh(tridiagonal([0, 0, 0], [1, 1]))
        np.testing.assert_allclose(dec.eigenvalues, [-np.sqrt(2), 0, np.sqrt(2)], atol=1e-14)

    def test_single_site(self):
        dec = np.linalg.eigh(tridiagonal([5.0], []))
        np.testing.assert_allclose(dec.eigenvalues, [5.0])
        np.testing.assert_allclose(dec.eigenvectors, [[1.0]])

    def test_parity_decomposable_chain(self):
        # bonds (1,2,2,1): even sector gives {0, +-3}, odd sector {+-1}
        dec = np.linalg.eigh(tridiagonal(np.zeros(5), [1, 2, 2, 1]))
        np.testing.assert_allclose(dec.eigenvalues, [-3, -1, 0, 1, 3], atol=1e-13)

    def test_random_matrix_invariants(self):
        # reconstruction and orthonormality over 1000 random tridiagonals
        rng = np.random.default_rng(7)
        for _ in range(1000):
            n = int(rng.integers(1, 65))
            h = tridiagonal(rng.standard_normal(n), rng.standard_normal(max(n - 1, 0)))
            dec = np.linalg.eigh(h)
            v, w = dec.eigenvectors, dec.eigenvalues
            scale = max(1.0, np.max(np.abs(h)))
            assert np.max(np.abs(v @ np.diag(w) @ v.T - h)) <= 1e-12 * scale
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12
            assert np.all(np.diff(w) >= -1e-15 * scale)


class TestTridiagonalEndMeasure:
    """tridiagonal_end_measure, the chain's site solve: dstevd in numpy's
    bundled OpenBLAS, bit for bit numpy's eigh of the dense matrix, which it
    runs where that library is missing."""

    @staticmethod
    def dense(rows):
        lam, v = np.linalg.eigh([tridiagonal(np.zeros(len(b) + 1), b) for b in rows])
        return lam, v[:, 0] * v[:, -1]

    def test_three_site_uniform(self):
        # v = (1, -+sqrt 2, 1)/2 at +-sqrt 2 and (1, 0, -1)/sqrt 2 at 0
        lam, w = numkit.tridiagonal_end_measure([[1.0, 1.0]])
        np.testing.assert_allclose(lam, [[-np.sqrt(2), 0, np.sqrt(2)]], atol=1e-15)
        np.testing.assert_allclose(w, [[0.25, -0.5, 0.25]], atol=1e-15)

    @pytest.mark.parametrize("fallback", [False, True], ids=["dstevd", "eigh"])
    def test_bit_for_bit_the_dense_eigh(self, fallback, monkeypatch):
        # dimensions on both sides of dstedc's switch to divide and conquer
        # (above 25), positive bonds spanning eight decades as the chain's do
        if fallback:
            monkeypatch.setattr(numkit, "_dstevd", lambda: None)
        rng = np.random.default_rng(11)
        for n in (2, 5, 25, 26, 51, 169):
            rows = 10.0 ** rng.uniform(-8, 0, size=(3, n - 1))
            got, want = numkit.tridiagonal_end_measure(rows), self.dense(rows)
            for a, b in zip(got, want):
                assert a.shape == (3, n) and a.tobytes() == b.tobytes(), n

    def test_a_failed_solve_raises(self, monkeypatch):
        monkeypatch.setattr(numkit, "_dstevd", lambda: lambda *args: 3)
        with pytest.raises(np.linalg.LinAlgError, match="info=3"):
            numkit.tridiagonal_end_measure([[1.0, 1.0]])

    def test_numpys_wheel_bundles_the_symbol(self):
        # numpy's wheels link scipy-openblas; there the fallback must not run
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
        if blas != "scipy-openblas":
            pytest.skip(f"numpy is built on {blas}, not on its wheel's OpenBLAS")
        assert numkit._dstevd() is not None


class TestZeroDiagonalTridiagonal:
    """zero_diagonal_eigenvalues and jacobi_endpoint_weights, the chain's
    parity-sector kernels, against numpy's eigh."""

    def test_parity_decomposable_chain(self):
        # bonds (1,2,2,1): even sector gives {0, +-3}, odd sector {+-1}
        e = numkit.zero_diagonal_eigenvalues([1, 2, 2, 1])
        np.testing.assert_allclose(e, [3, 1, 0, -1, -3], atol=1e-15)
        assert e[2] == 0.0

    def test_one_and_two_sites(self):
        assert numkit.zero_diagonal_eigenvalues([]).tolist() == [0.0]
        assert numkit.zero_diagonal_eigenvalues([3.0]).tolist() == [3.0, -3.0]
        assert numkit.jacobi_endpoint_weights([0.0], []).tolist() == [1.0]

    def test_random_against_eigh(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            n = int(rng.integers(1, 65))
            b = rng.uniform(0.1, 2.0, n - 1)
            dec = np.linalg.eigh(tridiagonal(np.zeros(n), b))
            lam = numkit.zero_diagonal_eigenvalues(b)
            assert np.array_equal(lam, -lam[::-1])
            np.testing.assert_allclose(lam, dec.eigenvalues[::-1], rtol=0, atol=1e-13)
            mu = numkit.zero_diagonal_eigenvalues(b[1:]) if n > 1 else np.empty(0)
            w = numkit.jacobi_endpoint_weights(lam, mu)
            # the weights that read 0 (a factor with no digit) are modes
            # localised away from site 0; here they add up to 5e-13
            assert abs(np.sum(w) - 1.0) <= 1e-12
            # eigh's vectors are off by up to ~eps ||H|| / gap (Davis-Kahan)
            gap = np.min(np.abs(lam[:, None] - lam) + np.diag(np.full(n, np.inf)), axis=1)
            tol = 1e-12 + 100 * np.finfo(float).eps * np.max(b, initial=0.0) / gap
            assert np.all(np.abs(w - dec.eigenvectors[0, ::-1] ** 2) <= tol)

    def test_factor_with_no_digit_gives_weight_zero(self):
        # lambda_1 = mu_0: w = (1 * 3/4, 0, 1/2 * 1/2)
        w = numkit.jacobi_endpoint_weights([2.0, 1.0, 0.0], [1.0, 0.5])
        assert w.tolist() == [0.75, 0.0, 0.25]

    def test_length_mismatch(self):
        with pytest.raises(DomainError):
            numkit.jacobi_endpoint_weights([1.0, -1.0], [0.0, 0.5])


class TestEighDense:
    """numpy's eigh on dense symmetric matrices, as endpoint_amplitude's
    small sectors and the site oracles call it."""

    def test_two_site_hop(self):
        dec = np.linalg.eigh([[0, 1], [1, 0]])
        np.testing.assert_allclose(dec.eigenvalues, [-1, 1], atol=1e-15)

    def test_already_diagonal(self):
        dec = np.linalg.eigh(np.diag([3.0, 1.0, 2.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1, 2, 3], atol=1e-15)

    def test_cross_solver_oracle(self):
        # against the closed form: bonds (1,2,2,1) split into an even sector
        # {0, +-3} and an odd sector {+-1}
        bonds = np.array([1.0, 2.0, 2.0, 1.0])
        h = np.diag(bonds, 1) + np.diag(bonds, -1)
        dec = np.linalg.eigh(h)
        np.testing.assert_allclose(dec.eigenvalues, [-3, -1, 0, 1, 3], atol=1e-13)
        v = dec.eigenvectors
        np.testing.assert_allclose(h @ v, v * dec.eigenvalues, atol=1e-13)

    def test_random_matrix_invariants(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            n = int(rng.integers(2, 65))
            a = rng.standard_normal((n, n))
            h = a + a.T
            dec = np.linalg.eigh(h)
            v, w = dec.eigenvectors, dec.eigenvalues
            scale = max(1.0, np.max(np.abs(h)))
            assert np.max(np.abs(v @ np.diag(w) @ v.T - h)) <= 1e-12 * scale
            assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-12


class TestEvolve:
    """spectral_amplitude as time evolution: <a|exp(-iHt)|b> is the sum over
    the measure (lambda_j, v_j[a] v_j[b]) of H's eigendecomposition."""

    @staticmethod
    def amplitude(dec, a, b, t):
        v = dec.eigenvectors
        return numkit.spectral_amplitude(dec.eigenvalues, v[a] * v[b], t)

    def test_time_zero_identity(self):
        rng = np.random.default_rng(2)
        h = rng.standard_normal((6, 6))
        dec = np.linalg.eigh(h + h.T)
        for a in range(6):
            for b in range(6):
                assert abs(self.amplitude(dec, a, b, 0.0) - (a == b)) <= 1e-14, (a, b)

    def test_rabi_half_period(self):
        dec = np.linalg.eigh([[0, 1], [1, 0]])
        assert abs(self.amplitude(dec, 0, 0, np.pi / 2)) <= 1e-14
        assert abs(self.amplitude(dec, 1, 0, np.pi / 2) + 1j) <= 1e-14

    def test_three_level_perfect_transfer(self):
        # W |X><col| + W |col><Y| transfers perfectly at T = pi/(sqrt(2) W)
        w = 0.37
        h = w * np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
        dec = np.linalg.eigh(h)
        t = np.pi / (np.sqrt(2) * w)
        assert abs(abs(self.amplitude(dec, 0, 2, t)) - 1.0) <= 1e-9

    def test_norm_conserved_long_times(self):
        # sum_b |<b|exp(-iHt)|a>|^2 = 1
        rng = np.random.default_rng(3)
        a = rng.standard_normal((12, 12))
        dec = np.linalg.eigh(a + a.T)
        hnorm = np.max(np.abs(dec.eigenvalues))
        for t in [0.0, 1.0, 1e3 / hnorm, 1e6 / hnorm]:
            norm = sum(abs(self.amplitude(dec, 4, b, t)) ** 2 for b in range(12))
            assert abs(norm - 1.0) <= 1e-10, t

    def test_phases_without_a_correct_digit_raise(self):
        # eigenvalues +-1: eps |t| is 0.22 at |t| = 1e15 and 22 at |t| = 1e17
        for t in (1e15, -1e15):
            numkit.spectral_amplitude([-1.0, 1.0], [0.5, 0.5], t)
            numkit.endpoint_amplitude([0.0], [1.0 / np.sqrt(2.0)], [1.0], 0.0, t)
        for t in (1e17, -1e17):
            with pytest.raises(ArithmeticError, match="no correct digit"):
                numkit.spectral_amplitude([-1.0, 1.0], [0.5, 0.5], t)
            with pytest.raises(ArithmeticError, match="no correct digit"):
                numkit.endpoint_amplitude([0.0], [1.0 / np.sqrt(2.0)], [1.0], 0.0, t)


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
        return evolve(np.linalg.eigh(h), psi0, t)[-1]

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
    """Half-axis kernels 0 <= r_i <= L/2 in, the orthant 0 <= k_i <= L/2 out."""

    def test_nearest_neighbor_ring(self):
        # the row [0, 1, 0, 1] of L = 4 has the spectrum [2, 0, -2, 0]
        np.testing.assert_allclose(numkit.real_dft_circulant([0, 1, 0]), [2, 0, -2], atol=1e-14)

    def test_power_law_row(self):
        # E_k = 2 cos(pi k / 2) + (-1)^k / 2
        np.testing.assert_allclose(
            numkit.real_dft_circulant([0, 1, 0.5]), [2.5, -0.5, -1.5], atol=1e-14
        )

    def test_trace_identity(self):
        # sum_k E_k = L row[0] over all L modes, weighted 1 at k = 0 and L/2
        # and 2 elsewhere over the half
        rng = np.random.default_rng(5)
        for L in [2, 4, 8, 64, 256]:
            half = rng.standard_normal(L // 2 + 1)
            e = numkit.real_dft_circulant(half)
            w = np.full(L // 2 + 1, 2.0)
            w[[0, -1]] = 1.0
            assert abs(w @ e - L * half[0]) <= 1e-10 * max(1.0, np.max(np.abs(e)))

    def test_fft_matches_direct_summation(self):
        # exhaustive over every even L <= 1024 with random symmetric rows, by
        # real_dft_circulant (the mirrored row's FFT at these L) and by the
        # factored _real_even_dft directly, so that every small R x C split,
        # L = 2p included, is checked too; its buffers hold L floats and L/2+2
        # complex entries, more than any split's layout needs
        rng = np.random.default_rng(9)
        for L in range(4, 1026, 2):
            half = rng.standard_normal(L // 2 - 1)
            row = np.concatenate([[0.3], half, [1.0], half[::-1]])
            k = np.arange(L // 2 + 1)
            direct = np.cos(2 * np.pi * np.outer(k, np.arange(L)) / L) @ row
            scale = max(1.0, np.max(np.abs(direct)))
            factored = numkit._real_even_dft(row[:L // 2 + 1], np.empty(L),
                                             np.empty(L // 2 + 2, dtype=complex))
            for e in (numkit.real_dft_circulant(row[:L // 2 + 1]), factored):
                assert np.max(np.abs(e - direct)) <= 1e-10 * scale, L

    def test_rejects_bad_rows(self):
        # a half-axis below length 2 is no even L >= 2
        with pytest.raises(DomainError):
            numkit.real_dft_circulant([0.0])
        with pytest.raises(DomainError):
            numkit.real_dft_circulant(0.0)

    def test_d2_kernel(self):
        L = 6
        r = np.indices((L, L))
        kernel = np.cos(np.minimum(r[0], L - r[0]) + 2.0 * np.minimum(r[1], L - r[1]))
        half = slice(0, L // 2 + 1)
        np.testing.assert_allclose(numkit.real_dft_circulant(kernel[half, half]),
                                   np.fft.fft2(kernel).real[half, half], rtol=0, atol=1e-13)
        with pytest.raises(DomainError):
            numkit.real_dft_circulant(np.zeros((4, 1)))  # below length 2 along one axis

    def test_workspace_is_bit_identical(self):
        # one workspace for every shape in turn, larger calls before smaller
        # ones, so a stale prefix left by a larger transform would show
        rng = np.random.default_rng(21)
        shapes = [(4, 6, 5), (65,), (5, 3), (2,), (4, 6, 5), (2,)]
        work = numkit.dft_workspace((4, 6, 5))
        for buf in work:
            buf.fill(np.nan)
        for shape in shapes:
            half = rng.standard_normal(shape)
            e = numkit.real_dft_circulant(half, work)
            assert e.shape == shape
            assert np.shares_memory(e, work[1])
            assert np.array_equal(e, numkit.real_dft_circulant(half))

    def test_workspace_serves_each_length(self):
        # at d = 1 the buffers follow each length's R x C split, which is not
        # monotone in L: 16382 = 2 x 8191 needs more than 16384 = 128 x 128
        rng = np.random.default_rng(8)
        halves = [rng.standard_normal(L // 2 + 1) for L in (16384, 16382, 256)]
        work = numkit.dft_workspace(*(half.shape for half in halves))
        for half in halves:
            e = numkit.real_dft_circulant(half, work)
            assert np.shares_memory(e, work[1])
            assert np.array_equal(e, numkit.real_dft_circulant(half))
        assert numkit.dft_workspace((8192,))[1].size > numkit.dft_workspace((8193,))[1].size

    def test_workspace_sizes(self):
        # the float buffer holds the largest mirrored axis, the complex one the
        # orthant; so at d = 1 below the crossover, the row and its L/2+1 modes
        floats, spectrum = numkit.dft_workspace((4, 6, 5))
        assert (floats.size, floats.dtype, spectrum.size, spectrum.dtype) == (
            max(6 * 6 * 5, 4 * 10 * 5, 4 * 6 * 8), np.float64, 4 * 6 * 5, np.complex128)
        floats, spectrum = numkit.dft_workspace((4096,))  # L = 8190
        assert (floats.size, spectrum.size) == (8190, 4096)

    def test_crossover_picks_the_path(self):
        # below L = 2^13 the mirrored row's one real FFT, from 2^13 on the
        # factored transform, each bit for bit
        rng = np.random.default_rng(13)
        assert numkit._FACTORED_MIN_L == 2**13
        for L in (8190, 8192, 8194):
            half = rng.standard_normal(L // 2 + 1)
            if L < 2**13:
                want = np.fft.rfft(np.concatenate([half, half[-2:0:-1]])).real
            else:
                want = numkit._real_even_dft(half, *numkit.dft_workspace(half.shape))
            assert np.array_equal(numkit.real_dft_circulant(half), want), L

    def test_one_workspace_across_the_crossover(self):
        # a table's lengths may straddle it, as fig_s2b's 2^8..2^17 do: one
        # workspace serves the mirrored 4096 and the factored 8192 and 2^17
        rng = np.random.default_rng(17)
        halves = [rng.standard_normal(L // 2 + 1) for L in (4096, 8192, 2**17)]
        work = numkit.dft_workspace(*(half.shape for half in halves))
        for buf in work:
            buf.fill(np.nan)
        for half in halves:
            e = numkit.real_dft_circulant(half, work)
            assert np.shares_memory(e, work[1])
            assert np.array_equal(e, numkit.real_dft_circulant(half))


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
