import numpy as np
import pytest

from longwalk import numkit, uniform
from longwalk.errors import DomainError, RegimeError


def full_model_fidelity(protocol, times) -> np.ndarray:
    """Oracle: |<Y|psi(t)>|^2 for each t, evolving |X> by expm_multiply under
    the explicit sparse N-site matrix (X = site 0 and Y = site N-1, each
    coupled to every middle site with strength w).  Skips without scipy,
    a test-only dependency."""
    sp = pytest.importorskip("scipy.sparse")
    spla = pytest.importorskip("scipy.sparse.linalg")
    n, w = protocol.N, protocol.w
    mids = np.arange(1, n - 1)
    rows = np.concatenate([np.zeros(n - 2, int), mids, mids, np.full(n - 2, n - 1)])
    cols = np.concatenate([mids, np.zeros(n - 2, int), np.full(n - 2, n - 1), mids])
    h = sp.csr_matrix((np.full(4 * (n - 2), w), (rows, cols)), shape=(n, n))
    psi0 = np.zeros(n, dtype=complex)
    psi0[0] = 1.0
    return np.array([abs(spla.expm_multiply(-1j * t * h, psi0)[-1]) ** 2
                     for t in np.atleast_1d(np.asarray(times, dtype=float))])


def envelope_margin(protocol) -> float:
    """max over coupled pairs of w * r^alpha in closed form: X sits at the
    origin and Y at (L-1, 0, ..., 0), so the farthest middle site is L-2 away
    at d = 1 and, at the far corner, sqrt(d) (L-1) away otherwise."""
    d, L = protocol.d, protocol.L
    r_max = L - 2.0 if d == 1 else np.sqrt(d * (L - 1.0) ** 2)
    return float(protocol.w * r_max**protocol.alpha)


def coordinate_envelope_margin(protocol) -> float:
    """Oracle: max over coupled pairs of w * r^alpha, from every site
    coordinate of the cube (X at the origin, Y at (L-1, 0, ..., 0))."""
    d, L = protocol.d, protocol.L
    axes = [np.arange(L)] * d
    coords = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    x = np.zeros(d)
    y = np.zeros(d)
    y[0] = L - 1
    mask = ~(np.all(coords == x, axis=1) | np.all(coords == y, axis=1))
    mids = coords[mask]
    r_from_x = np.sqrt(np.sum((mids - x) ** 2, axis=1))
    r_from_y = np.sqrt(np.sum((mids - y) ** 2, axis=1))
    r_max = max(r_from_x.max(), r_from_y.max())
    return float(protocol.w * r_max**protocol.alpha)


class TestBuildUniformProtocol:
    def test_d1_alpha0_L4(self):
        p = uniform.build_uniform_protocol(1, 0.0, 4)
        assert p.w == 1.0
        assert abs(p.W_eff - np.sqrt(2)) <= 1e-15
        assert abs(p.T - np.pi / 2) <= 1e-15

    def test_d2_alpha_half(self):
        p = uniform.build_uniform_protocol(2, 0.5, 10)
        assert abs(p.w - (10 * np.sqrt(2)) ** -0.5) <= 1e-15
        expect_t = (np.pi / np.sqrt(2)) * (10 * np.sqrt(2)) ** 0.5 / np.sqrt(98)
        assert abs(p.T - expect_t) <= 1e-15

    def test_invariants(self):
        for d, alpha, L in [(1, 0.2, 50), (2, 0.9, 12), (3, 1.4, 8)]:
            p = uniform.build_uniform_protocol(d, alpha, L)
            assert abs(p.W_eff * p.T - np.pi / np.sqrt(2)) <= 1e-12
            assert abs(p.w * (np.sqrt(d) * L) ** alpha - 1.0) <= 1e-12

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            uniform.build_uniform_protocol(1, 0.6, 4)

    def test_size_cap(self):
        # X, Y and at least one middle site: N = L^d >= 3 (and L >= 2)
        for d, L in [(1, 2), (1, 1), (2, 1), (3, 0), (2, -2)]:
            with pytest.raises(DomainError, match="N = L\\^d >= 3"):
                uniform.build_uniform_protocol(d, 0.0, L)
        assert uniform.build_uniform_protocol(2, 0.0, 2).N == 4
        # no upper cap: nothing materialises the N sites
        p = uniform.build_uniform_protocol(1, 0.0, 30000)
        assert uniform.simulate_uniform(p) >= 1 - 1e-9


class TestSimulateUniform:
    @pytest.mark.parametrize("d,alpha,L", [(1, 0.0, 4), (1, 0.3, 200), (2, 0.7, 20)])
    def test_perfect_transfer(self, d, alpha, L):
        p = uniform.build_uniform_protocol(d, alpha, L)
        assert uniform.simulate_uniform(p) >= 1 - 1e-9

    def test_half_time_population(self):
        p = uniform.build_uniform_protocol(1, 0.1, 30)
        f_half = full_model_fidelity(p, p.T / 2)[0]
        assert abs(f_half - 0.25) <= 1e-10

    def test_three_level_matches_full_model(self):
        p = uniform.build_uniform_protocol(1, 0.2, 100)
        times = np.linspace(0.0, 2 * p.T, 50)
        full = full_model_fidelity(p, times)
        reduced = uniform.three_level_fidelity(p, times)
        assert np.max(np.abs(full - reduced)) <= 1e-10

    @pytest.mark.parametrize("d,alpha,L", [(1, 0.0, 4), (1, 0.3, 200), (2, 0.7, 20), (3, 1.2, 6)])
    def test_matches_full_model(self, d, alpha, L):
        p = uniform.build_uniform_protocol(d, alpha, L)
        assert abs(uniform.simulate_uniform(p) - full_model_fidelity(p, p.T)[0]) <= 1e-12
        # the same one-mode kernel away from T, where the fidelity is not 1
        times = np.linspace(0.0, 2 * p.T, 7)
        kernel = [abs(numkit.endpoint_amplitude([0.0], [p.W_eff], [1.0], 0.0, t)) ** 2
                  for t in times]
        np.testing.assert_allclose(kernel, full_model_fidelity(p, times), rtol=0, atol=1e-12)

    def test_power_law_envelope(self):
        # w = (sqrt(d) L)^(-alpha) respects 1/r^alpha for every coupled pair
        for d, alpha, L in [(1, 0.3, 500), (2, 0.9, 40), (3, 1.2, 12)]:
            p = uniform.build_uniform_protocol(d, alpha, L)
            assert envelope_margin(p) <= 1 + 1e-12

    def test_envelope_margin_matches_coordinate_oracle(self):
        for d in (1, 2, 3):
            for L in range(3, 20):
                for alpha in (0.0, 0.3, 0.7, 1.2, 1.4):
                    if alpha < d / 2.0:
                        p = uniform.build_uniform_protocol(d, alpha, L)
                        assert envelope_margin(p) == coordinate_envelope_margin(p)


class TestUniformTimeScaling:
    def test_exact_exponent(self):
        series = uniform.uniform_time_scaling(1, 0.25, np.geomspace(1e8, 1e10, 6))
        assert abs(series.extrapolated_exponent - (-0.25)) <= 1e-6

    def test_d2_exponent(self):
        series = uniform.uniform_time_scaling(2, 0.9, np.geomspace(1e4, 1e5, 6))
        assert abs(series.extrapolated_exponent - (-0.1)) <= 1e-6

    def test_boundary_alpha(self):
        series = uniform.uniform_time_scaling(1, 0.5 - 1e-9, np.geomspace(1e8, 1e10, 5))
        assert abs(series.extrapolated_exponent) <= 1e-6

    def test_wrong_regime(self):
        with pytest.raises(RegimeError):
            uniform.uniform_time_scaling(1, 0.5, [10, 100])

    @pytest.mark.parametrize("alpha, message", [
        (np.nan, "alpha must be finite"), (np.inf, "alpha must be finite"),
        (-np.inf, "alpha must be finite"), (-0.1, "alpha must be >= 0")])
    def test_non_finite_or_negative_alpha_rejected(self, alpha, message):
        # checked as build_uniform_protocol checks it: not finite, then the
        # regime, then the sign
        with pytest.raises(DomainError, match=message):
            uniform.uniform_time_scaling(1, alpha, [10, 100])
        with pytest.raises(DomainError, match=message):
            uniform.build_uniform_protocol(1, alpha, 10)
