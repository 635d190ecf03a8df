import numpy as np
import pytest

from longwalk import cli, experiments, numkit, scaling
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

    def test_count(self):
        Ls = np.geomspace(1, 100, 9)
        assert scaling.local_exponents(Ls, Ls**2, window=4).shape[0] == 9 - 4 + 1


class TestExtrapolateExponent:
    def test_exact_power_law(self):
        Ls = np.geomspace(10, 1e4, 10)
        local = scaling.local_exponents(Ls, 3.0 * Ls**0.8, window=3)
        assert abs(scaling.extrapolate_exponent(local, False)[0] - 0.8) <= 1e-6

    def test_known_asymptote_with_correction(self):
        Ls = np.geomspace(16, 2**17, 13)
        y = Ls**0.6 * (1.0 + 5.0 / Ls)
        local = scaling.local_exponents(Ls, y, window=3)
        assert abs(scaling.extrapolate_exponent(local, False)[0] - 0.6) <= 0.01

    def test_invariant_under_value_rescaling(self):
        # scale-freeness of the estimator: exact on identifiable fits; when
        # the profile valley in b is nearly flat (mis-specified corrections),
        # rounding of the rescaled inputs is amplified, so only a looser
        # bound is achievable there in float64
        Ls = np.geomspace(16, 2**14, 11)
        cases = [
            (3.0 * Ls**0.8, 1e-10),
            (Ls**0.37 * (1 + 30.0 / Ls), 1e-8),
        ]
        for y, tol in cases:
            for c in (7.25, 1e3):
                l1 = scaling.local_exponents(Ls, y, window=3)
                l2 = scaling.local_exponents(Ls, c * y, window=3)
                e1 = scaling.extrapolate_exponent(l1, False)[0]
                e2 = scaling.extrapolate_exponent(l2, False)[0]
                assert abs(e1 - e2) <= tol

    def test_needs_enough_exponents(self):
        Ls = np.geomspace(10, 100, 5)
        local = scaling.local_exponents(Ls, Ls, window=3)
        with pytest.raises(DomainError):
            scaling.extrapolate_exponent(local, False)


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
        x, y = 1.0 / local[:, 0], local[:, 1]
        # a single correction cannot follow the turn: b sits on its floor and
        # the offset lands above every local exponent
        one = numkit.powerlaw_offset_fit(x, y)
        assert one.exponent <= numkit.POWERLAW_B_RANGE[0] + 1e-6
        assert one.offset - c > 0.1
        assert abs(scaling.extrapolate_exponent(local, False)[0] - c) <= 0.005

    @pytest.mark.parametrize("d, alpha", [(1, 1.0), (2, 2.0)])
    @pytest.mark.parametrize("c, p", [(1.0, 2.0), (0.5, -1.0)])
    def test_log_correction_at_log_regime(self, d, alpha, c, p):
        # L^c / (ln L)^p: local exponent c - p / ln L, no power of 1/L fits it
        local = self.local(self.Ls**c / np.log(self.Ls) ** p)
        log = scaling.extrapolate_exponent(local, experiments.ring_q2_target(d, alpha)[1])[0]
        assert abs(log - c) <= 0.005
        power = scaling.extrapolate_exponent(
            local, experiments.ring_q2_target(d, alpha + 0.2)[1])[0]
        assert abs(power - c) > 0.04

    def test_form_taken_from_ring_q2_target(self):
        # the target table sets the form: a log at alpha = d, power laws on
        # either side of it; the q2 estimator fits the form it names
        grids = {1: ([2**e for e in experiments.RING_1D_L_EXPONENTS], experiments.RING_1D_WINDOW),
                 2: (list(experiments.RING_2D_SIZES), experiments.RING_2D_WINDOW)}
        for d, (sizes, window) in grids.items():
            forms = {a: experiments.ring_q2_target(d, a)[1] for a in (d - 0.2, d, d + 0.2)}
            assert forms == {d - 0.2: False, d: True, d + 0.2: False}
            for alpha, log in forms.items():
                res = experiments.ring_q2_extrapolation(d, alpha, sizes, window)
                assert (res["b"] is None) is log
        y = self.Ls**0.6 * (1.0 + 5.0 / self.Ls)
        assert abs(scaling.extrapolate_exponent(self.local(y), False)[0] - 0.6) <= 1e-3


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
        # the precision guard stops alpha = 1.8's spectrum at l = 52; Q needs
        # no spectrum, so the sweep keeps every depth
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

        monkeypatch.setattr(numkit, "eigh_dense", no_eigensolver)
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


class TestSaturationReport:
    def report(self, d, alpha, measured):
        return scaling.saturation_report(d, alpha, scaling.chain_regime(d, alpha), measured)

    def test_power_regime_pass(self):
        rep = self.report(1, 1.2, {"protocol": "chain", "exponent": 0.21})
        assert rep["passed"] is True
        assert rep["regime"] == "power"

    def test_power_regime_fail(self):
        rep = self.report(1, 1.2, {"protocol": "chain", "exponent": 0.3})
        assert rep["passed"] is False

    def test_log_regime(self):
        rep = self.report(1, 1.0, {"protocol": "chain", "log_r2": 0.9999})
        assert rep["passed"] is True
        assert rep["optimal_time_exponent"] == "log"

    def test_constant_regime(self):
        rep = self.report(1, 0.7, {"protocol": "chain", "convergence_ratio": 0.004})
        assert rep["passed"] is True
