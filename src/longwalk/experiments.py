"""Named desk-scale reproductions of the scaling experiments.

Each driver returns a plain dict of arrays and verdicts; the CLI writes
them to CSV/JSON/SVG and the acceptance suite asserts the verdicts.  Grid
points are independent and run serially by default; setting
LONGWALK_THREADS fans them out over a thread pool of that size (numpy
releases the GIL inside LAPACK/FFT).  The ring's scaling sweeps (figS2b,
figS2c, figS3) compute all their spectra in one serial pass first, so the
pool fans out only their per-alpha fits.  Results are aggregated in grid
order, so output is identical for any thread count.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import chain as chain_mod
from . import numkit, ring, scaling, transfer, uniform
from .errors import DomainError
from .scaling import TOLERANCES

# fig2a default grid: 36 log-spaced couplings up to g = 0.03, the range
# over which the leading-order formula tracks exact evolution pointwise to
# better than 20 percent (the dips of the oscillatory infidelity drift at
# higher order once g t_k^(0) is no longer small against the gaps).
FIG2A_G_RANGE = (1e-4, 0.03, 36)

# fig2bcd per chain regime: (panel, default l_min, default l_max keyed by
# round(alpha - d, 3), default l_max for any other alpha - d).  The depths are deep
# enough that the geometric transients have died off; l_max runs to chain.max_depth.
_FIG2BCD_POWER = ("d", 4, {0.2: 60, 0.5: 50, 0.8: 40}, 40)
FIG2BCD_REGIMES = {"constant": ("b", 8, {}, 80), "log": ("c", 8, {}, 64),
                   "power": _FIG2BCD_POWER, "nearest-neighbor": _FIG2BCD_POWER}

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

FIGS2A_G_RANGE = (0.02, 2.0, 25)


def thread_count() -> int:
    """LONGWALK_THREADS, or 1 when unset: on small sweeps the pool measured
    slower than serial, because BLAS already uses the cores."""
    env = os.environ.get("LONGWALK_THREADS")
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise DomainError(f"LONGWALK_THREADS must be an integer, got {env!r}") from None


def _map(fn, args_list):
    workers = min(thread_count(), max(1, len(args_list)))
    if workers == 1:
        return [fn(a) for a in args_list]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


def ring_q2_target(d: int, alpha: float) -> tuple[float, bool]:
    """Asymptotic exponent of q2 = sum_{k != 0} 1/Delta_k^2 for the ring (d = 1)
    and the torus (d = 2), and whether its finite-size correction is a log
    (at alpha = d), the form ``scaling.extrapolate_exponent`` fits.

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
        return 2.0 * alpha - d, False
    if alpha < 1.5 * d:
        return float(d), alpha == d
    if alpha < d + 2.0:
        return 2.0 * (alpha - d), False
    return 4.0, False


def small_g_threshold(spectrum: chain_mod.ChannelSpectrum) -> float:
    """g* = 0.01 E_{l-1} / (sqrt(2) max_k t_k^(0)): below this every mode is
    driven far off resonance and the termwise envelope applies."""
    t_max = float(np.max(spectrum.endpoint_amplitudes))
    return 0.01 * chain_mod.min_gap(spectrum) / (np.sqrt(2.0) * t_max)


def _relative_deviation(eps_exact: np.ndarray, eps_pert: np.ndarray) -> dict:
    """Worst |exact - perturbative| / exact over the points with 0 < exact <= 0.1;
    an exact infidelity that rounds to 0 or below is counted instead."""
    unresolved = eps_exact <= 0.0
    checked = (eps_exact <= 0.1) & ~unresolved
    rel = np.abs(eps_exact - eps_pert)[checked] / eps_exact[checked]
    return {
        "max_relative_deviation": float(rel.max()) if checked.any() else 0.0,
        "relative_ok": bool(np.all(rel <= TOLERANCES["perturbative_relative"])),
        "unresolved_exact_points": int(np.count_nonzero(unresolved)),
    }


def fig2a(d: int = 1, alpha_minus_d: float = -0.2, l: int = 24, g_grid=None) -> dict:
    """Exact vs perturbative infidelity over a g sweep at alpha = d + alpha_minus_d."""
    alpha = d + alpha_minus_d
    ch = chain_mod.build_effective_chain(d, alpha, l)
    g_grid = np.asarray(np.geomspace(*FIG2A_G_RANGE) if g_grid is None else g_grid, dtype=float)
    spec = chain_mod.chain_spectrum(ch)  # diagonalised once; attach_endpoints reuses it

    def point(g):
        channel = transfer.attach_endpoints(ch, g)
        out = transfer.exact_transfer(channel)
        return (
            out.infidelity_exact,
            out.infidelity_perturbative,
            transfer.small_g_envelope(channel),
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
    """Q scaling in the regime ``scaling.chain_regime(d, d + alpha_minus_d)``
    picks: converging (panel b), log (c) or power (d)."""
    alpha = d + alpha_minus_d
    target = scaling.chain_regime(d, alpha)
    panel, l_lo, l_hi_by_delta, l_hi = FIG2BCD_REGIMES[target.regime]
    l_min = l_lo if l_min is None else l_min
    l_max = l_hi_by_delta.get(round(alpha_minus_d, 3), l_hi) if l_max is None else l_max
    series = scaling.q_scaling_sweep(d, alpha, l_min, l_max)

    def admissible(what: str, needed: int, keep=slice(None)):
        sizes, q = series.sizes[keep], series.values[keep]
        if q.shape[0] < needed:
            raise DomainError(f"{what} needs {needed} admissible depths; "
                              f"[{l_min}, {l_max}] has {q.shape[0]}")
        return sizes, q

    if target.regime == "constant":
        # converges to a constant: compare the last depth against 8 steps back
        _, q = admissible("the convergence ratio (Q 8 depth steps back)", 5)
        key, value = "convergence_ratio", float(abs(q[-1] - q[-5]) / q[-1])
    elif target.regime == "log":
        sizes, q = admissible("the log fit (Q against ln L)", 2)
        key, value = "log_r2", numkit.linear_fit(np.log(sizes), q).r_squared
    else:
        l_fit = scaling.CHAIN_SLOPE_FIT_MIN_L + 1
        sizes, q = admissible(f"the slope fit (L >= 2^{l_fit})", 2, series.sizes >= 2.0**l_fit)
        key, value = "slope", numkit.linear_fit(np.log(sizes), np.log(q)).slope
    measured = {"protocol": "chain", "exponent" if key == "slope" else key: value}
    return {"d": d, "alpha": alpha, "alpha_minus_d": alpha_minus_d, "series": series,
            "regime": target.regime, "panel": panel, key: value,
            "saturation": scaling.saturation_report(d, alpha, target, measured)}


def fig_s2a(L: int = 100, alpha: float = 1.0, g_grid=None) -> dict:
    """Ring d=1 exact vs leading-order infidelity over a g sweep."""
    g_grid = np.asarray(np.geomspace(*FIGS2A_G_RANGE) if g_grid is None else g_grid, dtype=float)

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


def _q2_extrapolation(d: int, alpha: float, sizes, window: int, summaries) -> dict:
    target, log_correction = ring_q2_target(d, alpha)
    local = scaling.local_exponents(sizes, [s.q2 for s in summaries], window)
    exponent, fit = scaling.extrapolate_exponent(local, log_correction)
    return {
        "d": d,
        "alpha": alpha,
        "local_exponents": local,
        "exponent": exponent,
        "target": target,
        "error": abs(exponent - target),
        "passed": bool(abs(exponent - target) <= TOLERANCES["ring_extrapolation"]),
        # the power-law fit's diagnostics; None where the correction is a log
        "b": None if fit is None else fit.exponent,
        "sse": None if fit is None else fit.residual_sse,
        "b_on_bracket_edge": None if fit is None else fit.on_bracket_edge,
    }


def ring_q2_extrapolation(d: int, alpha: float, sizes, window: int) -> dict:
    summaries = ring.ring_spectral_summaries(d, [alpha], sizes)[0]
    return _q2_extrapolation(d, alpha, sizes, window, summaries)


def _q2_exponents(d: int, alphas, sizes, window: int) -> list[dict]:
    """ring_q2_extrapolation at each alpha: the spectra in one serial pass,
    then the fits on the pool."""
    table = ring.ring_spectral_summaries(d, alphas, sizes)
    return _map(lambda job: _q2_extrapolation(d, job[0], sizes, window, job[1]),
                list(zip(alphas, table)))


def fig_s2b(alphas=RING_1D_ALPHAS) -> dict:
    """d=1 extrapolated q2 exponents across the alpha regimes."""
    sizes = [2**e for e in RING_1D_L_EXPONENTS]
    results = _q2_exponents(1, alphas, sizes, RING_1D_WINDOW)
    return {"alphas": list(alphas), "sizes": sizes, "window": RING_1D_WINDOW, "results": results}


def fig_s2c(alphas=RING_2D_ALPHAS) -> dict:
    """d=2 extrapolated q2 exponents (target ring_q2_target(2, alpha)[0])."""
    sizes = list(RING_2D_SIZES)
    results = _q2_exponents(2, alphas, sizes, RING_2D_WINDOW)
    return {"alphas": list(alphas), "sizes": sizes, "window": RING_2D_WINDOW, "results": results}


def fig_s3(alphas=FIGS3_ALPHAS) -> dict:
    """Gap delta_0 and bandwidth W scaling for the d=1 ring."""
    sizes = [2**e for e in FIGS3_L_EXPONENTS]
    logL = np.log(np.asarray(sizes, float))

    def one(job):
        alpha, summaries = job
        d0 = np.array([s.delta0 for s in summaries])
        w = np.array([s.bandwidth for s in summaries])
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

    table = ring.ring_spectral_summaries(1, alphas, sizes)
    return {"alphas": list(alphas), "results": _map(one, list(zip(alphas, table)))}


def uniform_slope_check(d: int, alpha: float) -> dict:
    """Analytic log T / log L slope at sizes where the finite-N offset is
    below TOLERANCES["uniform_slope"] (N >= 1e8; at N = 1e4 the -2 in
    sqrt(N-2) alone shifts the slope by ~1e-4)."""
    exps = np.linspace(8.0, 10.0, 6) / d
    grid = np.round(10.0**exps)
    slope = numkit.linear_fit(np.log(grid), np.log(uniform.transfer_time(d, alpha, grid))).slope
    target = alpha - d / 2.0
    return {
        "d": d,
        "alpha": alpha,
        "slope": float(slope),
        "target": target,
        "passed": bool(abs(slope - target) <= TOLERANCES["uniform_slope"]),
    }
