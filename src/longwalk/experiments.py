"""Named desk-scale reproductions of the scaling experiments.

Each driver returns a plain dict of arrays and verdicts; the CLI writes
them to CSV/JSON/SVG and the acceptance suite asserts the verdicts.
fig2bcd judges the chain's Q scaling in its own regime branches, each with
its statistic, tolerance and verdict.  figS2b, figS2c and
``ring_q2_extrapolation`` share one q2 path (``_q2_sweep``).  fig2a and
figS2a hand their whole g grid, one channel per call, to
``transfer.exact_transfer`` (on ``transfer.chain_channel``, the chain's one
entry) and ``ring.ring_exact_transfer``; only a long
grid's channel is sliced into stacks (``transfer._stacked``), each point
bit for bit the single transfer at its g.  The ring's scaling sweeps
(figS2b, figS2c, figS3) compute all their spectra in one serial pass first.
figS2b and figS2c then fit each alpha serially, one small least-squares
solve on known correction terms.  figS3's per-alpha fits run serially by
default; setting LONGWALK_THREADS fans them out over a thread pool of that
size (numpy releases the GIL inside LAPACK), the pool's only use.  Results
are aggregated in alpha order, so output is identical for any thread count.
"""

from __future__ import annotations

import math
import os

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
    # imported here: a serial run does not pay for concurrent.futures
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, args_list))


# 1/ln L and 1/ln^2 L: the corrections at alpha = 3d/2 and alpha = d+2
_LOG_TERMS = ((0.0, 1), (0.0, 2))


def _power_terms(b1: float, b2: float) -> tuple[tuple[float, int], ...]:
    """x^b, x^(2b) and x^b' for {b <= b'} = {b1, b2}, x = 1/L, ascending.  Each
    exponent is rounded to 12 decimals, so that 2b = b' or b = b' leaves one
    term; an infinite one (alpha = inf) is dropped."""
    b = min(b1, b2)
    exponents = sorted({round(e, 12) for e in (b, 2.0 * b, max(b1, b2))})
    return tuple((e, 0) for e in exponents if math.isfinite(e))


def ring_q2_target(d: int, alpha: float) -> tuple[float, tuple[tuple[float, int], ...]]:
    """Asymptotic exponent of q2 = sum_{k != 0} 1/Delta_k^2 for the ring and
    the torus, and its finite-size corrections, the terms that
    ``scaling.extrapolate_exponent`` fits: (b, k) names L^(-b) / ln^k L.

    Small-|k| detunings follow the polylog expansion of the power-law
    kernel, Delta_k ~ C p^(alpha-d) + D p^2 + ..., p = 2 pi |k| / L (at
    d = 1, C = -2 Gamma(1-alpha) sin(pi alpha / 2)).  With x = 1/L:

    - alpha < d: every Delta_k scales as L^(d-alpha) across the band, so
      q2 ~ L^d * L^(2(alpha-d)) = L^(2 alpha - d).  The kernel's O(1)
      lattice part sits beside that growing sum in every Delta_k: x^(d-alpha)
      in Delta_k, and its square x^(2(d-alpha)) in 1/Delta_k^2.
    - alpha = d: Delta_k ~ 2 ln L across the band, q2 ~ L^d / (4 ln^2 L):
      1/ln L in the local exponents.
    - d < alpha < 3d/2: sum_k |k|^(-2(alpha-d)) diverges, the whole band
      contributes and q2 ~ L^d.  The small-k sum, L^(2(alpha-d)), against
      the band gives x^(3d-2 alpha); truncating the kernel at L/2 drops its
      tail, ~ L^(d-alpha), from every band Delta_k: x^(alpha-d).
    - alpha = 3d/2: q2 ~ L^d ln L: 1/ln L and 1/ln^2 L.
    - 3d/2 < alpha < d+2: that sum converges, the smallest |k| dominate and
      q2 ~ L^(2(alpha-d)).  The band against the small-k sum is now the
      correction, x^(2 alpha-3d), and the p^2 term of Delta_k against its
      leading one gives p^(d+2-alpha): x^(d+2-alpha).
    - alpha = d+2: Delta_k ~ p^2 ln(1/p): 1/ln L and 1/ln^2 L.
    - alpha > d+2: Delta_k ~ D p^2, so q2 ~ L^4, with C p^(alpha-d) against
      it, x^(alpha-d-2), the p^4 term, x^2, and the band's share of q2,
      L^d against L^4: x^(4-d), which at d = 2 is the x^2 already named.

    Each power-law pair {b <= b'} enters as x^b, x^(2b) and x^b' (the
    square of the leading correction in 1/Delta_k^2, see ``_power_terms``).
    """
    if alpha < d:
        return 2.0 * alpha - d, _power_terms(d - alpha, 2.0 * (d - alpha))
    if alpha == d:
        return float(d), ((0.0, 1),)
    if alpha < 1.5 * d:
        return float(d), _power_terms(3.0 * d - 2.0 * alpha, alpha - d)
    if alpha == 1.5 * d:
        return float(d), _LOG_TERMS
    if alpha < d + 2.0:
        return 2.0 * (alpha - d), _power_terms(2.0 * alpha - 3.0 * d, d + 2.0 - alpha)
    if alpha == d + 2.0:
        return 4.0, _LOG_TERMS
    return 4.0, tuple(sorted({*_power_terms(alpha - d - 2.0, 2.0), (4.0 - d, 0)}))


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
    """Exact vs perturbative infidelity over a g sweep at alpha = d + alpha_minus_d,
    in the chain's regime (alpha >= d/2, ``scaling.chain_regime``)."""
    alpha = d + alpha_minus_d
    channel = transfer.chain_channel(
        d, alpha, l, g=np.geomspace(*FIG2A_G_RANGE) if g_grid is None else g_grid)
    g_grid, out = channel.g, transfer.exact_transfer(channel)
    eps_exact, eps_pert = out.infidelity_exact, out.infidelity_perturbative
    envelope = transfer.small_g_envelope(channel)
    # the chain was diagonalised once, for the channel; this reuses it
    g_star = small_g_threshold(chain_mod.chain_spectrum(channel.chain))
    small = g_grid <= g_star
    return {
        "d": d,
        "alpha": alpha,
        "l": l,
        "g": g_grid,
        "eps_exact": eps_exact,
        "eps_perturbative": eps_pert,
        "envelope": envelope,
        "bound": out.infidelity_bound,
        "bound_conditions": out.bound_conditions_met[0] & out.bound_conditions_met[1],
        "g_star": g_star,
        **_relative_deviation(eps_exact, eps_pert),
        "envelope_ok": bool(np.all(eps_exact[small] <= envelope[small] + 1e-6)),
    }


def fig2bcd(d: int = 1, alpha_minus_d: float = 0.2, l_min: int | None = None,
            l_max: int | None = None) -> dict:
    """Q scaling in the regime ``scaling.chain_regime(d, d + alpha_minus_d)``
    picks: converging (panel b), log (c) or power (d), and its verdict, the
    ``saturation`` report.  Asymptotic Omega/Theta statements are not
    decidable at desk scale; the report states the finite-size check and the
    tolerance applied.  The nearest-neighbor regime (alpha >= d+1) reports
    its slope with no verdict: it is outside the sweeps' scope."""
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
        tolerance = TOLERANCES["chain_q_convergence"]
        passed, verdict = bool(value <= tolerance), "T = O(1): Q converged"
    elif target.regime == "log":
        sizes, q = admissible("the log fit (Q against ln L)", 2)
        key, value = "log_r2", numkit.linear_fit(np.log(sizes), q).r_squared
        tolerance = TOLERANCES["chain_log_r2"]
        passed, verdict = bool(value >= tolerance), "T = O(log L)"
    else:
        l_fit = scaling.CHAIN_SLOPE_FIT_MIN_L + 1
        sizes, q = admissible(f"the slope fit (L >= 2^{l_fit})", 2, series.sizes >= 2.0**l_fit)
        key, value = "slope", numkit.linear_fit(np.log(sizes), np.log(q)).slope
        if target.regime == "power":
            tolerance = TOLERANCES["chain_slope"]
            passed, verdict = bool(abs(value - target.time_exponent) <= tolerance), "pass"
        else:
            tolerance = passed = None
            verdict = "nearest-neighbor regime: outside sweep scope"
    saturation = {
        "d": d, "alpha": alpha, "protocol": "chain", "regime": target.regime,
        "optimal_time_exponent": "log" if target.regime == "log" else target.time_exponent,
        "measured": {"protocol": "chain", "exponent" if key == "slope" else key: value},
        "note": "finite-size trend check at stated tolerance; "
                "asymptotic statements are not decidable at desk scale",
        "tolerance": tolerance, "passed": passed, "verdict": "fail" if passed is False else verdict,
    }
    return {"d": d, "alpha": alpha, "alpha_minus_d": alpha_minus_d, "series": series,
            "regime": target.regime, "panel": panel, key: value, "saturation": saturation}


def fig_s2a(L: int = 100, alpha: float = 1.0, g_grid=None) -> dict:
    """Ring d=1 exact vs leading-order infidelity over a g sweep."""
    g_grid = np.asarray(np.geomspace(*FIGS2A_G_RANGE) if g_grid is None else g_grid, dtype=float)
    out = ring.ring_exact_transfer(1, L, alpha, g_grid)
    eps_exact, eps_pert = out.infidelity_exact, out.infidelity_perturbative
    return {
        "L": L,
        "alpha": alpha,
        "g": g_grid,
        "eps_exact": eps_exact,
        "eps_perturbative": eps_pert,
        **_relative_deviation(eps_exact, eps_pert),
    }


def _q2_sweep(d: int, alphas, sizes, window: int) -> dict:
    """The extrapolated q2 exponent at each alpha against ``ring_q2_target``:
    the spectra in one pass, then one small least-squares solve per alpha."""
    sizes, results = list(sizes), []
    for alpha, summaries in zip(alphas, ring.ring_spectral_summaries(d, alphas, sizes)):
        target, corrections = ring_q2_target(d, alpha)
        local = scaling.local_exponents(sizes, [s.q2 for s in summaries], window)
        exponent = scaling.extrapolate_exponent(local, corrections)
        error = abs(exponent - target)
        results.append({"d": d, "alpha": alpha, "local_exponents": local,
                        "corrections": corrections, "exponent": exponent, "target": target,
                        "error": error, "passed": bool(error <= TOLERANCES["ring_extrapolation"])})
    return {"alphas": list(alphas), "sizes": sizes, "window": window, "results": results}


def ring_q2_extrapolation(d: int, alpha: float, sizes, window: int) -> dict:
    """``_q2_sweep``'s result at one alpha."""
    return _q2_sweep(d, [alpha], sizes, window)["results"][0]


def fig_s2b(alphas=RING_1D_ALPHAS) -> dict:
    """d=1 extrapolated q2 exponents across the alpha regimes."""
    return _q2_sweep(1, alphas, [2**e for e in RING_1D_L_EXPONENTS], RING_1D_WINDOW)


def fig_s2c(alphas=RING_2D_ALPHAS) -> dict:
    """d=2 extrapolated q2 exponents (target ring_q2_target(2, alpha)[0])."""
    return _q2_sweep(2, alphas, RING_2D_SIZES, RING_2D_WINDOW)


def fig_s3(alphas=FIGS3_ALPHAS) -> dict:
    """Gap delta_0 and bandwidth W scaling for the d=1 ring.  delta_0 = Delta_1
    = C p^(alpha-1) + D p^2, p = 2 pi / L (``ring_q2_target``), so its slope
    in L is 1 - alpha below alpha = 3 and -2 above, where D p^2 dominates;
    near alpha = 3 (p^2 ln(1/p) at 3) the fit misses both at these sizes."""
    sizes = [2**e for e in FIGS3_L_EXPONENTS]
    logL = np.log(np.asarray(sizes, float))

    def one(job):
        alpha, summaries = job
        d0 = np.array([s.delta0 for s in summaries])
        w = np.array([s.bandwidth for s in summaries])
        d0_slope, target = numkit.linear_fit(logL, np.log(d0)).slope, max(1.0 - alpha, -2.0)
        entry = {
            "alpha": alpha,
            "sizes": sizes,
            "delta0": d0,
            "bandwidth": w,
            "delta0_slope": d0_slope,
            "delta0_target": target,
            "delta0_ok": bool(abs(d0_slope - target) <= TOLERANCES["spectral_slope"]),
        }
        if alpha == 1.0:
            # W = Theta(log L): a power-law slope is meaningless here
            fit = numkit.linear_fit(logL, w)
            entry["bandwidth_log_r2"] = fit.r_squared
            entry["bandwidth_ok"] = bool(fit.r_squared >= TOLERANCES["bandwidth_log_r2"])
        else:
            w_slope, w_target = numkit.linear_fit(logL, np.log(w)).slope, max(1.0 - alpha, 0.0)
            entry["bandwidth_slope"], entry["bandwidth_target"] = w_slope, w_target
            entry["bandwidth_ok"] = bool(abs(w_slope - w_target) <= TOLERANCES["spectral_slope"])
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
