import numpy as np
import pytest

from longwalk import cli, experiments, numkit, ring, scaling
from longwalk.errors import DomainError, RegimeError


class TestLocalExponents:
    def test_exact_power_law(self):
        Ls = np.geomspace(10, 1e4, 12)
        local = scaling.local_exponents(Ls, Ls**1.5, window=4)
        assert np.max(np.abs(local[:, 1] - 1.5)) <= 1e-10

    def test_offset_model_slopes_increase(self):
        Ls = np.geomspace(10, 1e5, 14)
        slopes = scaling.local_exponents(Ls, Ls + 100.0, window=3)[:, 1]
        assert np.all(np.diff(slopes) > 0)
        assert slopes[-1] < 1.0

    def test_window_validation(self):
        Ls = np.geomspace(1, 100, 5)
        with pytest.raises(DomainError):
            scaling.local_exponents(Ls, Ls, window=2)
        with pytest.raises(DomainError):
            scaling.local_exponents(Ls, Ls, window=6)
        with pytest.raises(DomainError, match="sorted by increasing size"):
            scaling.local_exponents(Ls[::-1], Ls, window=3)

    def test_count(self):
        Ls = np.geomspace(1, 100, 9)
        assert scaling.local_exponents(Ls, Ls**2, window=4).shape[0] == 9 - 4 + 1

    @pytest.mark.parametrize("d, alphas, sizes, window", [
        (1, experiments.RING_1D_ALPHAS, [2**e for e in experiments.RING_1D_L_EXPONENTS],
         experiments.RING_1D_WINDOW),
        (2, experiments.RING_2D_ALPHAS, experiments.RING_2D_SIZES, experiments.RING_2D_WINDOW),
    ])
    def test_bit_identical_to_one_fit_per_window(self, d, alphas, sizes, window):
        # every figS2b and figS2c series: the rows of the one vectorised pass
        # equal, by float.hex, numkit.linear_fit on each window and the
        # geometric mean of its sizes
        ls = np.log(np.asarray(sizes, float))
        for summaries in ring.ring_spectral_summaries(d, alphas, sizes):
            q2 = [s.q2 for s in summaries]
            lv = np.log(q2)
            ref = [(np.exp(np.mean(ls[i:i + window])),
                    numkit.linear_fit(ls[i:i + window], lv[i:i + window]).slope)
                   for i in range(len(sizes) - window + 1)]
            local = scaling.local_exponents(sizes, q2, window)
            assert [[x.hex() for x in row] for row in local.tolist()] == \
                [[float(x).hex() for x in row] for row in ref]


# x^0.5 and x^1, x = 1/L: a power-law correction and its square
POWER_TERMS = ((0.5, 0), (1.0, 0))


class TestExtrapolateExponent:
    def test_exact_power_law(self):
        Ls = np.geomspace(10, 1e4, 10)
        local = scaling.local_exponents(Ls, 3.0 * Ls**0.8, window=3)
        assert abs(scaling.extrapolate_exponent(local, POWER_TERMS) - 0.8) <= 1e-6

    def test_known_asymptote_with_correction(self):
        Ls = np.geomspace(16, 2**17, 13)
        y = Ls**0.6 * (1.0 + 5.0 / Ls)
        local = scaling.local_exponents(Ls, y, window=3)
        assert abs(scaling.extrapolate_exponent(local, ((1.0, 0), (2.0, 0))) - 0.6) <= 0.01

    def test_invariant_under_value_rescaling(self):
        # scale-freeness of the estimator: rescaling the values changes the
        # local exponents by rounding only, and the linear fit passes that on
        # unamplified, also where its terms do not describe the series
        Ls = np.geomspace(16, 2**14, 11)
        for y in (3.0 * Ls**0.8, Ls**0.37 * (1 + 30.0 / Ls)):
            for c in (7.25, 1e3):
                l1 = scaling.local_exponents(Ls, y, window=3)
                l2 = scaling.local_exponents(Ls, c * y, window=3)
                e1 = scaling.extrapolate_exponent(l1, POWER_TERMS)
                e2 = scaling.extrapolate_exponent(l2, POWER_TERMS)
                assert abs(e1 - e2) <= 1e-10

    def test_needs_enough_exponents(self):
        # one more local exponent than the fit's parameters (terms and offset)
        Ls = np.geomspace(10, 100, 5)
        local = scaling.local_exponents(Ls, Ls, window=3)
        with pytest.raises(DomainError):
            scaling.extrapolate_exponent(local, POWER_TERMS)
        assert abs(scaling.extrapolate_exponent(local, ((1.0, 0),)) - 1.0) <= 1e-12


PINNED_Q2_GRIDS = {
    1: ([2**e for e in experiments.RING_1D_L_EXPONENTS], experiments.RING_1D_WINDOW),
    2: (list(experiments.RING_2D_SIZES), experiments.RING_2D_WINDOW),
}


class TestExtrapolateExponentSynthetic:
    """Known asymptotes on the ring's d=1 grid (L = 2^8..2^17, window 5)."""

    Ls = 2.0 ** np.arange(8, 18)

    def local(self, y):
        return scaling.local_exponents(self.Ls, y, window=5)

    @pytest.mark.parametrize("c, b, a1, a2", [(0.4, 0.3, 1.0, -2.0), (1.0, 0.25, 1.5, -2.0)])
    def test_two_corrections_of_opposite_sign(self, c, b, a1, a2):
        # L^c (1 + a1 L^-b + a2 L^-2b): the local exponents stay flat over
        # the small sizes, then climb toward c (the ring's alpha = 1.4 shape)
        local = self.local(self.Ls**c * (1.0 + a1 * self.Ls**-b + a2 * self.Ls ** (-2 * b)))
        assert abs(scaling.extrapolate_exponent(local, ((b, 0), (2 * b, 0))) - c) <= 0.005

    @pytest.mark.parametrize("d, alpha", [(1, 1.0), (2, 2.0)])
    @pytest.mark.parametrize("c, p", [(1.0, 2.0), (0.5, -1.0)])
    def test_log_correction_at_log_regime(self, d, alpha, c, p):
        # L^c / (ln L)^p: local exponent c - p / ln L, which the power-law
        # terms of the neighbouring regime cannot follow
        local = self.local(self.Ls**c / np.log(self.Ls) ** p)
        log = scaling.extrapolate_exponent(local, experiments.ring_q2_target(d, alpha)[1])
        assert abs(log - c) <= 0.005
        power = scaling.extrapolate_exponent(
            local, experiments.ring_q2_target(d, alpha + 0.2)[1])
        assert abs(power - c) > 0.04

    def test_form_taken_from_ring_q2_target(self):
        # the target table sets the terms; the q2 estimator fits the ones it names
        for d, (sizes, window) in PINNED_Q2_GRIDS.items():
            for alpha in (d - 0.2, d, d + 0.2):
                res = experiments.ring_q2_extrapolation(d, alpha, sizes, window)
                assert res["corrections"] == experiments.ring_q2_target(d, alpha)[1]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("regime", ["below d", "d", "d..3d/2", "3d/2", "3d/2..d+2",
                                        "d+2", "above d+2"])
    def test_every_regime_and_breakpoint(self, d, regime):
        # a synthetic q2 with the asymptote and the corrections that
        # ring_q2_target names
        alpha = {"below d": 0.7 * d, "d": d, "d..3d/2": 1.2 * d, "3d/2": 1.5 * d,
                 "3d/2..d+2": 1.25 * d + 1.0, "d+2": d + 2.0, "above d+2": d + 2.5}[regime]
        c, terms = experiments.ring_q2_target(d, alpha)
        L, ln = self.Ls, np.log(self.Ls)
        if terms[0][1] == 0:  # power laws: L^c (1 + sum_j a_j L^-b_j)
            y = L**c * (1.0 + sum(a * L**-b for a, (b, _) in zip((0.5, -0.3, 0.2), terms)))
            tol = 1e-3
        elif len(terms) == 1:  # alpha = d: L^c / ln^2 L
            y, tol = L**c / ln**2, 0.005
        else:  # alpha = 3d/2 and d+2: L^c ln L (1 + 0.5 / ln L)
            y, tol = L**c * (ln + 0.5), 0.005
        assert abs(scaling.extrapolate_exponent(self.local(y), terms) - c) <= tol


def expected_q2_terms(d, alpha):
    """The correction terms of each q2 regime, (b, 0) for x^b, x = 1/L, and
    (0, k) for 1/ln^k L, from the table in README.md ("Ring q2 exponents")."""
    def powers(b1, b2):
        b, b_prime = sorted((b1, b2))
        exps = sorted({round(e, 9) for e in (b, 2 * b, b_prime)})
        return [(e, 0) for e in exps]

    if alpha < d:
        return powers(d - alpha, 2 * (d - alpha))
    if alpha == d:
        return [(0, 1)]
    if alpha < 1.5 * d:
        return powers(3 * d - 2 * alpha, alpha - d)
    if alpha == 1.5 * d or alpha == d + 2:
        return [(0, 1), (0, 2)]
    if alpha < d + 2:
        return powers(2 * alpha - 3 * d, d + 2 - alpha)
    # the band's share of q2, x^(4-d), is x^2 at d = 2
    return sorted({*powers(alpha - d - 2, 2), (4 - d, 0)})


class TestRingQ2Target:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("side", [-0.1, 0.0, 0.1])
    @pytest.mark.parametrize("breakpoint", ["d", "3d/2", "d+2"])
    def test_terms_on_both_sides_of_each_breakpoint(self, d, side, breakpoint):
        alpha = {"d": d, "3d/2": 1.5 * d, "d+2": d + 2.0}[breakpoint] + side
        target, terms = experiments.ring_q2_target(d, alpha)
        want = expected_q2_terms(d, alpha)
        assert [k for _, k in terms] == [k for _, k in want]
        assert np.allclose([b for b, _ in terms], [b for b, _ in want], rtol=0, atol=1e-12)
        want_target = {"d": 2 * alpha - d if side < 0 else d,
                       "3d/2": d if side <= 0 else 2 * (alpha - d),
                       "d+2": 2 * (alpha - d) if side < 0 else 4.0}[breakpoint]
        assert abs(target - want_target) <= 1e-12

    @pytest.mark.parametrize("d, alpha, terms", [
        (1, 0.5, ((0.5, 0), (1.0, 0))),
        (1, 1.4, ((0.2, 0), (0.4, 0))),    # 2b = b': one x^0.4 column
        (1, 1.8, ((0.6, 0), (1.2, 0))),    # 2b = b'
        (2, 8 / 3, ((2 / 3, 0), (4 / 3, 0))),  # b = b'
        (1, float("inf"), ((2.0, 0), (3.0, 0), (4.0, 0))),  # nearest neighbour: x^inf = 0
        (2, 5.0, ((1.0, 0), (2.0, 0))),    # the band's x^(4-d) is the named x^2
        (3, 7.0, ((1.0, 0), (2.0, 0), (4.0, 0))),  # x^(4-d) = x^1 outranks x^2
    ])
    def test_duplicate_and_infinite_terms_dropped(self, d, alpha, terms):
        got = experiments.ring_q2_target(d, alpha)[1]
        assert [k for _, k in got] == [k for _, k in terms]
        assert np.allclose([b for b, _ in got], [b for b, _ in terms], rtol=0, atol=1e-12)


class TestRingQ2Extrapolation:
    @pytest.mark.parametrize("d, alpha", [(1, 3.0), (1, 1.5), (2, 3.0), (2, 3.5), (2, 4.0)])
    def test_off_grid_breakpoints(self, d, alpha):
        # the log corrections at alpha = 3d/2 and d+2 (d = 1 alpha = 3, d = 2
        # alpha = 3.5 and 4 missed the tolerance with a fitted power-law exponent)
        sizes, window = PINNED_Q2_GRIDS[d]
        res = experiments.ring_q2_extrapolation(d, alpha, sizes, window)
        assert res["error"] <= scaling.TOLERANCES["ring_extrapolation"], res["exponent"]

    def test_d3_above_d_plus_2(self):
        # alpha > d+2 at d = 3: the band's x^(4-d) = x^1 is the leading
        # correction; with only x^2 and x^4 named the exponent was 3.9685
        sizes = [16, 22, 32, 46, 64, 90, 128, 182, 256]
        res = experiments.ring_q2_extrapolation(3, 7.0, sizes, 3)
        assert res["error"] <= 0.01, res["exponent"]

    @pytest.mark.parametrize("d, alphas", [(1, experiments.RING_1D_ALPHAS),
                                           (2, experiments.RING_2D_ALPHAS)])
    def test_pinned_exponents_stable_under_q2_roundoff(self, d, alphas):
        # a relative change of up to 6e-16 in q2 (a different summation
        # order) moves each pinned exponent by at most 1e-10
        sizes, window = PINNED_Q2_GRIDS[d]
        rng = np.random.default_rng(2)
        table = ring.ring_spectral_summaries(d, alphas, sizes)
        pinned = (experiments.fig_s2b if d == 1 else experiments.fig_s2c)()["results"]
        for alpha, summaries, res in zip(alphas, table, pinned):
            q2 = np.array([s.q2 for s in summaries])
            terms = experiments.ring_q2_target(d, alpha)[1]
            for _ in range(20):
                jitter = 1.0 + rng.uniform(-6e-16, 6e-16, q2.shape)
                local = scaling.local_exponents(sizes, q2 * jitter, window)
                assert abs(scaling.extrapolate_exponent(local, terms) - res["exponent"]) <= 1e-10


class TestLrExponent:
    def test_uniform_regime(self):
        e = scaling.lr_exponent(1, 0.25)
        assert e.regime == "uniform"
        assert abs(e.time_exponent - (-0.25)) <= 1e-15

    def test_log_marker(self):
        e = scaling.lr_exponent(2, 2.0)
        assert e.regime == "log"

    def test_power_regime(self):
        e = scaling.lr_exponent(1, 1.7)
        assert e.regime == "power"
        assert abs(e.time_exponent - 0.7) <= 1e-15

    def test_nearest_neighbor_marker(self):
        e = scaling.lr_exponent(1, 2.5)
        assert e.regime == "nearest-neighbor"
        # alpha = inf keeps only nearest-neighbour bonds (the alpha=inf q2 sweeps)
        assert scaling.lr_exponent(1, np.inf).regime == "nearest-neighbor"

    @pytest.mark.parametrize("alpha", [np.nan, -np.inf, -1e-300])
    def test_nan_or_negative_alpha_rejected(self, alpha):
        with pytest.raises(DomainError, match="alpha must be >= 0"):
            scaling.lr_exponent(1, alpha)

    def test_continuity_at_breakpoints(self):
        for d in (1, 2, 3):
            below = scaling.lr_exponent(d, d / 2 - 1e-12)
            at = scaling.lr_exponent(d, d / 2)
            assert abs(below.time_exponent - at.time_exponent) <= 1e-11
            just_above_d = scaling.lr_exponent(d, d + 1e-12)
            assert abs(just_above_d.time_exponent) <= 1e-11
            assert scaling.lr_exponent(d, d).time_exponent == 0.0

    def test_piecewise_linear_in_alpha(self):
        d = 1
        for lo, hi in [(0.0, 0.5), (0.5, 1.0), (1.0 + 1e-9, 2.0 - 1e-9)]:
            a1, a2 = lo + 0.1 * (hi - lo), lo + 0.9 * (hi - lo)
            mid = 0.5 * (a1 + a2)
            e1 = scaling.lr_exponent(d, a1).time_exponent
            e2 = scaling.lr_exponent(d, a2).time_exponent
            em = scaling.lr_exponent(d, mid).time_exponent
            assert abs(em - 0.5 * (e1 + e2)) <= 1e-12


class TestQScalingSweep:
    def test_depths_past_the_guard_are_kept(self):
        # the precision guard stops alpha = 1.8's dense exact transfer at
        # l = 52; Q needs no spectrum, so the sweep keeps every depth
        series = scaling.q_scaling_sweep(1, 1.8, 4, 80)
        np.testing.assert_array_equal(series.sizes, [3.0 * 2**l - 2 for l in range(4, 81, 2)])
        assert np.all(np.isfinite(series.values)) and np.all(series.values > 0)
        assert series.metadata["warnings"] == []

    def test_depth_past_the_float_range_raises(self):
        with pytest.raises(DomainError, match="2 <= l <= 1022 for d=1, alpha=1.8"):
            scaling.q_scaling_sweep(1, 1.8, 1020, 1024)

    def test_sizes_are_transfer_distances(self):
        series = scaling.q_scaling_sweep(1, 1.0, 4, 8)
        np.testing.assert_array_equal(series.sizes, [46, 190, 766])

    def test_deterministic(self):
        s1 = scaling.q_scaling_sweep(1, 1.3, 4, 30)
        s2 = scaling.q_scaling_sweep(1, 1.3, 4, 30)
        assert np.array_equal(s1.points, s2.points)

    @pytest.mark.parametrize("alpha_minus_d", [-0.2, 0.0, 0.2])
    def test_pinned_fig2bcd_runs_no_eigensolver(self, monkeypatch, alpha_minus_d):
        # Q comes from the zero-mode recursion, so the sweep never diagonalises
        def no_eigensolver(matrix):
            raise AssertionError("Q needs no eigensolver")

        monkeypatch.setattr(np.linalg, "eigh", no_eigensolver)
        assert experiments.fig2bcd(1, alpha_minus_d)["saturation"]["passed"]


def ylog_of(res):
    """Whether the fig2bcd plot the CLI draws for ``res`` has a log y axis."""
    _, _, (_, plot), _ = cli._sweep_fig2bcd(res)
    return plot.ylog


class TestFig2bcdRegime:
    @pytest.mark.parametrize("d, alpha_minus_d", [(1, -0.6), (2, -1.2), (1, -1.5)])
    def test_below_half_d_is_a_regime_error(self, d, alpha_minus_d):
        # the chain covers alpha >= d/2; below it the uniform protocol applies,
        # and a negative alpha is reported the same way
        with pytest.raises(RegimeError, match="< d/2: the chain protocol covers alpha >= d/2"):
            experiments.fig2bcd(d, alpha_minus_d)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("alpha_minus_d", [1e-17, -1e-17])
    def test_alpha_minus_d_rounding_to_zero_is_the_log_regime(self, d, alpha_minus_d):
        # d + alpha_minus_d == d: the depths, panel, plot and verdict all follow
        # the log regime, not the sign of alpha_minus_d
        res = experiments.fig2bcd(d, alpha_minus_d)
        at_d = experiments.fig2bcd(d, 0.0)
        assert res["panel"] == "c"
        assert res["saturation"]["regime"] == "log"
        assert res["log_r2"] == at_d["log_r2"]
        assert res["saturation"]["passed"] is True
        assert ylog_of(res) is False

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("breakpoint", ["d/2", "d", "d+1"])
    @pytest.mark.parametrize("side", [-np.inf, np.inf])
    @pytest.mark.parametrize("axis", ["alpha", "alpha_minus_d"])
    def test_breakpoint_neighbours_agree(self, d, breakpoint, side, axis):
        # the neighbouring floats of each lr_exponent breakpoint, in alpha and
        # in alpha - d (whose neighbours of 0 round back onto alpha = d)
        alpha_bp = {"d/2": d / 2.0, "d": float(d), "d+1": d + 1.0}[breakpoint]
        if axis == "alpha":
            alpha_minus_d = np.nextafter(alpha_bp, side) - d
        else:
            alpha_minus_d = np.nextafter(alpha_bp - d, side)
        alpha = d + alpha_minus_d
        try:
            res = experiments.fig2bcd(d, alpha_minus_d)
        except RegimeError:
            assert alpha < d / 2.0
            return
        except DomainError:
            return
        regime = scaling.lr_exponent(d, alpha).regime
        assert res["regime"] == res["saturation"]["regime"] == regime
        assert res["panel"] == {"constant": "b", "log": "c"}.get(regime, "d")
        assert ylog_of(res) is (regime in ("power", "nearest-neighbor"))
        measured = {"constant": "convergence_ratio", "log": "log_r2"}.get(regime, "slope")
        assert measured in res

    def test_short_constant_grid_is_a_domain_error(self):
        # the convergence ratio compares Q with its value 8 depth steps back
        with pytest.raises(DomainError, match="needs 5 admissible depths; \\[8, 10\\] has 2"):
            experiments.fig2bcd(1, -0.2, l_max=10)
        assert "convergence_ratio" in experiments.fig2bcd(1, -0.2, l_max=16)
        # the log fit needs two depths
        with pytest.raises(DomainError, match="log fit .* needs 2 admissible depths; "
                                              "\\[8, 8\\] has 1"):
            experiments.fig2bcd(1, 0.0, l_min=8, l_max=8)
        assert "log_r2" in experiments.fig2bcd(1, 0.0, l_min=8, l_max=10)
        # the slope fit reads only L >= 2^13, the depths l >= 12
        with pytest.raises(DomainError, match="slope fit \\(L >= 2\\^13\\) needs 2 "
                                              "admissible depths; \\[4, 12\\] has 1"):
            experiments.fig2bcd(1, 0.5, l_max=12)
        assert "slope" in experiments.fig2bcd(1, 0.5, l_max=14)


class TestFig2bcdVerdict:
    """fig2bcd's verdict on a synthetic Q series, set by the statistic its
    regime reads."""

    def run(self, monkeypatch, alpha, sizes, q):
        series = scaling.ScalingSeries(points=np.column_stack([sizes, q]))
        monkeypatch.setattr(scaling, "q_scaling_sweep", lambda *args: series)
        return experiments.fig2bcd(1, alpha - 1.0)["saturation"]

    def test_power_regime_pass(self, monkeypatch):
        sizes = 2.0 ** np.arange(13, 21)
        rep = self.run(monkeypatch, 1.2, sizes, sizes**0.21)
        assert rep["measured"]["exponent"] == pytest.approx(0.21, abs=1e-12)
        assert rep["passed"] is True
        assert rep["regime"] == "power"
        assert rep["verdict"] == "pass"

    def test_power_regime_fail(self, monkeypatch):
        sizes = 2.0 ** np.arange(13, 21)
        rep = self.run(monkeypatch, 1.2, sizes, sizes**0.3)
        assert rep["passed"] is False
        assert rep["verdict"] == "fail"

    def test_log_regime(self, monkeypatch):
        # Q = ln L plus a residual orthogonal to 1 and ln L, scaled so that
        # the fit's R^2 is 0.9999
        x = np.log(2.0 ** np.arange(3, 11))
        residual = (x - x.mean()) ** 2
        residual -= residual.mean()
        sxx = np.sum((x - x.mean()) ** 2)
        q = x + np.sqrt(sxx * (1.0 / 0.9999 - 1.0) / np.sum(residual**2)) * residual
        rep = self.run(monkeypatch, 1.0, np.exp(x), q)
        assert rep["measured"]["log_r2"] == pytest.approx(0.9999, abs=1e-12)
        assert rep["passed"] is True
        assert rep["optimal_time_exponent"] == "log"
        assert rep["verdict"] == "T = O(log L)"

    def test_constant_regime(self, monkeypatch):
        q = [1.004, 1.003, 1.002, 1.001, 1.0]
        rep = self.run(monkeypatch, 0.7, 2.0 ** np.arange(5, 10), q)
        assert rep["measured"]["convergence_ratio"] == pytest.approx(0.004, abs=1e-12)
        assert rep["passed"] is True
        assert rep["verdict"] == "T = O(1): Q converged"

    def test_nearest_neighbor_regime_has_no_verdict(self):
        # alpha >= d+1: the slope is reported outside the sweeps' scope
        rep = experiments.fig2bcd(1, 1.5)["saturation"]
        assert rep["regime"] == "nearest-neighbor"
        assert rep["tolerance"] is None and rep["passed"] is None
        assert rep["verdict"] == "nearest-neighbor regime: outside sweep scope"
