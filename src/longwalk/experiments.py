"""Named desk-scale reproductions of the scaling experiments.

Each driver returns a plain dict of arrays and verdicts; the CLI writes
them to CSV/JSON/SVG and the acceptance suite asserts the verdicts.  Grid
points are independent and run serially by default; setting
LONGWALK_THREADS fans them out over a thread pool of that size (numpy
releases the GIL inside LAPACK/FFT).  Results are aggregated in grid order,
so output is identical for any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import chain as chain_mod
from . import numkit, ring, scaling, transfer, uniform
from .errors import RegimeError
from .scaling import TOLERANCES

# fig2a default grid: 36 log-spaced couplings up to g = 0.03, the range
# over which the leading-order formula tracks exact evolution pointwise to
# better than 20 percent (the dips of the oscillatory infidelity drift at
# higher order once g t_k^(0) is no longer small against the gaps).
FIG2A_G_RANGE = (1e-4, 0.03, 36)

# fig2bcd default depth grids per regime: guard-admissible and deep
# enough that the geometric transients have died off.
FIG2BCD_L_MAX = {"below": 80, "at": 64, "above": {0.2: 60, 0.5: 50, 0.8: 40}}

RING_1D_ALPHAS = (0.5, 0.8, 1.0, 1.2, 1.4, 1.6, 1.8, 2.2)
RING_1D_L_EXPONENTS = range(8, 18)
RING_1D_WINDOW = 5

# d=2 grid: octave anchors 32..256 plus half-octave midpoints so the
# extrapolation has >= 4 local exponents to fit.
RING_2D_ALPHAS = (0.6, 1.0, 1.5)
RING_2D_SIZES = (32, 46, 64, 90, 128, 182, 256)
RING_2D_WINDOW = 3

FIGS3_ALPHAS = (0.5, 1.0, 1.5)
FIGS3_L_EXPONENTS = range(8, 15)

FIGS2A_DEFAULTS = {"L": 100, "alpha": 1.0, "g_range": (0.02, 2.0, 25)}


def thread_count() -> int:
    """LONGWALK_THREADS, or 1 when unset: on small sweeps the pool measured
    slower than serial, because BLAS already uses the cores."""
    env = os.environ.get("LONGWALK_THREADS")
    return max(1, int(env)) if env else 1


def _map(fn, args_list):
    workers = min(thread_count(), max(1, len(args_list)))
    if workers == 1:
        return [fn(a) for a in args_list]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


def ring_q2_target(d: int, alpha: float) -> float:
    """Asymptotic exponent of q2 = sum_{k != 0} 1/Delta_k^2 for the ring (d = 1)
    and the torus (d = 2).

    Small-|k| detunings follow the polylog expansion of the power-law
    kernel, Delta_k ~ C p^(alpha-d) + O(p^2), p = 2 pi |k| / L (at d = 1,
    C = -2 Gamma(1-alpha) sin(pi alpha / 2)), so that:

    - alpha < d: every Delta_k scales as L^(d-alpha) across the band, so
      q2 ~ L^d * L^(2(alpha-d)) = L^(2 alpha - d);
    - d <= alpha < 3d/2: sum_k |k|^(-2(alpha-d)) diverges, the whole band
      contributes and q2 ~ L^d (at alpha = d with a 1/ln^2 L correction);
    - 3d/2 <= alpha < d+2: that sum converges, the smallest |k| dominate
      and q2 ~ L^(2(alpha-d));
    - alpha >= d+2: Delta_k ~ p^2, so q2 ~ L^4 (at alpha = d+2 with a log
      correction).
    """
    if alpha < d:
        return 2.0 * alpha - d
    if alpha < 1.5 * d:
        return float(d)
    if alpha < d + 2.0:
        return 2.0 * (alpha - d)
    return 4.0


def ring_time_target(d: int, alpha: float) -> float:
    """Transfer-time exponent T ~ sqrt(q2): half the q2 exponent (alpha - d
    for 3d/2 <= alpha < d+2, slower than linear from alpha = d+1 on)."""
    return ring_q2_target(d, alpha) / 2.0


def small_g_threshold(spectrum: chain_mod.ChannelSpectrum) -> float:
    """g* = 0.01 E_{l-1} / (sqrt(2) max_k t_k^(0)): below this every mode is
    driven far off resonance and the termwise envelope applies."""
    t_max = float(np.max(spectrum.endpoint_amplitudes))
    return 0.01 * chain_mod.min_gap(spectrum) / (np.sqrt(2.0) * t_max)


def _relative_deviation(eps_exact: np.ndarray, eps_pert: np.ndarray) -> dict:
    """Worst |exact - perturbative| / exact over the points with exact <= 0.1."""
    checked = eps_exact <= 0.1
    rel = np.abs(eps_exact - eps_pert)[checked] / eps_exact[checked]
    return {
        "max_relative_deviation": float(rel.max()) if checked.any() else 0.0,
        "relative_ok": bool(np.all(rel <= TOLERANCES["perturbative_relative"])),
    }


def fig2a(d: int = 1, delta: float = 0.2, l: int = 24, g_grid=None) -> dict:
    """Exact vs perturbative infidelity over a g sweep at alpha = d - delta."""
    alpha = d - delta
    ch = chain_mod.build_effective_chain(d, alpha, l)
    if g_grid is None:
        lo, hi, num = FIG2A_G_RANGE
        g_grid = np.geomspace(lo, hi, num)
    g_grid = np.asarray(g_grid, dtype=float)
    spec = chain_mod.chain_spectrum(ch)  # diagonalised once; attach_endpoints reuses it

    def point(g):
        model = transfer.attach_endpoints(ch, g)
        out = transfer.exact_transfer(model)
        return (
            out.infidelity_exact,
            out.infidelity_perturbative,
            transfer.small_g_envelope(model),
            out.infidelity_bound,
            out.bound_conditions_met[0] and out.bound_conditions_met[1],
        )

    rows = _map(point, list(g_grid))
    eps_exact, eps_pert, envelope, bound, cond = (np.array(col) for col in zip(*rows))
    g_star = small_g_threshold(spec)
    small = g_grid <= g_star
    return {
        "d": d,
        "alpha": alpha,
        "l": l,
        "g": g_grid,
        "eps_exact": eps_exact,
        "eps_perturbative": eps_pert,
        "envelope": envelope,
        "bound": bound,
        "bound_conditions": cond,
        "g_star": g_star,
        **_relative_deviation(eps_exact, eps_pert),
        "envelope_ok": bool(np.all(eps_exact[small] <= envelope[small] + 1e-6)),
    }


def fig2bcd(d: int = 1, alpha_minus_d: float = 0.2, l_min: int | None = None,
            l_max: int | None = None) -> dict:
    """Q scaling in one of the three regimes (converging, log, power)."""
    alpha = d + alpha_minus_d
    if alpha < d / 2.0:
        raise RegimeError(f"alpha={alpha} < d/2: the chain protocol covers alpha >= d/2")
    if alpha_minus_d < 0:
        l_min = 8 if l_min is None else l_min
        l_max = FIG2BCD_L_MAX["below"] if l_max is None else l_max
    elif alpha_minus_d == 0:
        l_min = 8 if l_min is None else l_min
        l_max = FIG2BCD_L_MAX["at"] if l_max is None else l_max
    else:
        l_min = 4 if l_min is None else l_min
        defaults = FIG2BCD_L_MAX["above"]
        l_max = defaults.get(round(alpha_minus_d, 3), 40) if l_max is None else l_max
    series = scaling.q_scaling_sweep(d, alpha, l_min, l_max)
    out = {
        "d": d,
        "alpha": alpha,
        "alpha_minus_d": alpha_minus_d,
        "series": series,
        "panel": "b" if alpha_minus_d < 0 else ("c" if alpha_minus_d == 0 else "d"),
    }
    q = series.values
    if alpha_minus_d < 0:
        # converges to a constant: compare the last depth against 8 steps back
        ratio = abs(q[-1] - q[-5]) / q[-1]
        out["convergence_ratio"] = float(ratio)
        out["measured"] = {"protocol": "chain", "convergence_ratio": float(ratio)}
    elif alpha_minus_d == 0:
        fit = scaling.fit_semilog(series)
        out["log_r2"] = fit.r_squared
        out["measured"] = {"protocol": "chain", "log_r2": fit.r_squared}
    else:
        fit = scaling.fit_loglog_slope(series, size_min=2.0 ** (scaling.CHAIN_SLOPE_FIT_MIN_L + 1))
        out["slope"] = fit.slope
        out["measured"] = {"protocol": "chain", "exponent": fit.slope}
    out["saturation"] = scaling.saturation_report(d, alpha, out["measured"])
    return out


def fig_s2a(L: int | None = None, alpha: float | None = None, g_grid=None) -> dict:
    """Ring d=1 exact vs leading-order infidelity over a g sweep."""
    L = FIGS2A_DEFAULTS["L"] if L is None else L
    alpha = FIGS2A_DEFAULTS["alpha"] if alpha is None else alpha
    if g_grid is None:
        lo, hi, num = FIGS2A_DEFAULTS["g_range"]
        g_grid = np.geomspace(lo, hi, num)
    g_grid = np.asarray(g_grid, dtype=float)

    def point(g):
        out = ring.ring_exact_transfer(1, L, alpha, g)
        return out.infidelity_exact, out.infidelity_perturbative

    eps_exact, eps_pert = (np.array(col) for col in zip(*_map(point, list(g_grid))))
    return {
        "L": L,
        "alpha": alpha,
        "g": g_grid,
        "eps_exact": eps_exact,
        "eps_perturbative": eps_pert,
        **_relative_deviation(eps_exact, eps_pert),
    }


def _ring_q2_series(d: int, alpha: float, sizes) -> scaling.ScalingSeries:
    def q2_of(L):
        model = ring.ring_spectrum(d, int(L), alpha)
        return ring.ring_spectral_summary(model).q2

    vals = _map(q2_of, list(sizes))
    return scaling.ScalingSeries(
        points=np.column_stack([np.asarray(sizes, float), np.asarray(vals)]),
        axis_mode="log-log",
        metadata={"protocol": "ring", "d": d, "alpha": alpha},
    )


def ring_q2_extrapolation(d: int, alpha: float, sizes, window: int) -> dict:
    series = scaling.local_exponents(_ring_q2_series(d, alpha, sizes), window)
    exponent = scaling.extrapolate_exponent(series)
    series = series.with_fit(extrapolated_exponent=exponent)
    target = ring_q2_target(d, alpha)
    return {
        "d": d,
        "alpha": alpha,
        "series": series,
        "exponent": exponent,
        "target": target,
        "error": abs(exponent - target),
        "passed": bool(abs(exponent - target) <= TOLERANCES["ring_extrapolation"]),
    }


def fig_s2b(alphas=RING_1D_ALPHAS, window: int = RING_1D_WINDOW) -> dict:
    """d=1 extrapolated q2 exponents across the alpha regimes."""
    sizes = [2**e for e in RING_1D_L_EXPONENTS]
    results = _map(lambda a: ring_q2_extrapolation(1, a, sizes, window), list(alphas))
    return {"alphas": list(alphas), "sizes": sizes, "window": window, "results": results}


def fig_s2c(alphas=RING_2D_ALPHAS, sizes=RING_2D_SIZES, window: int = RING_2D_WINDOW) -> dict:
    """d=2 extrapolated q2 exponents (target ring_q2_target(2, alpha))."""
    results = _map(lambda a: ring_q2_extrapolation(2, a, list(sizes), window), list(alphas))
    return {"alphas": list(alphas), "sizes": list(sizes), "window": window, "results": results}


def fig_s3(alphas=FIGS3_ALPHAS) -> dict:
    """Gap delta_0 and bandwidth W scaling for the d=1 ring."""
    sizes = [2**e for e in FIGS3_L_EXPONENTS]

    def one(alpha):
        summaries = [
            ring.ring_spectral_summary(ring.ring_spectrum(1, L, alpha)) for L in sizes
        ]
        d0 = np.array([s.delta0 for s in summaries])
        w = np.array([s.bandwidth for s in summaries])
        logL = np.log(np.asarray(sizes, float))
        d0_slope = numkit.linear_fit(logL, np.log(d0)).slope
        entry = {
            "alpha": alpha,
            "sizes": sizes,
            "delta0": d0,
            "bandwidth": w,
            "delta0_slope": d0_slope,
            "delta0_target": 1.0 - alpha,
            "delta0_ok": bool(abs(d0_slope - (1.0 - alpha)) <= TOLERANCES["spectral_slope"]),
        }
        if alpha == 1.0:
            # W = Theta(log L): a power-law slope is meaningless here
            fit = numkit.linear_fit(logL, w)
            entry["bandwidth_log_r2"] = fit.r_squared
            entry["bandwidth_ok"] = bool(fit.r_squared >= TOLERANCES["bandwidth_log_r2"])
        else:
            w_slope = numkit.linear_fit(logL, np.log(w)).slope
            entry["bandwidth_slope"] = w_slope
            entry["bandwidth_target"] = max(1.0 - alpha, 0.0)
            entry["bandwidth_ok"] = bool(
                abs(w_slope - max(1.0 - alpha, 0.0)) <= TOLERANCES["spectral_slope"]
            )
        return entry

    return {"alphas": list(alphas), "results": _map(one, list(alphas))}


def uniform_slope_check(d: int, alpha: float) -> dict:
    """Analytic log T / log L slope at sizes where the finite-N offset is
    below the 1e-6 tolerance (N >= 1e8; at N = 1e4 the -2 in sqrt(N-2)
    alone shifts the slope by ~1e-4)."""
    exps = np.linspace(8.0, 10.0, 6) / d
    grid = np.round(10.0**exps)
    series = uniform.uniform_time_scaling(d, alpha, grid)
    slope = series.extrapolated_exponent
    target = alpha - d / 2.0
    return {
        "d": d,
        "alpha": alpha,
        "slope": float(slope),
        "target": target,
        "passed": bool(abs(slope - target) <= 1e-6),
        "measured": {"protocol": "uniform", "exponent": float(slope), "tolerance": 1e-6},
    }
