"""Sweep harness: Q and q2 series, sliding-window local exponents,
finite-size extrapolation, and comparison against the free-particle
light-cone exponent table.

Sliding windows run over the geometric (power-of-two) size grids used by
the fast spectral paths, not over arithmetic intervals; that deviation is
recorded in each series' metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import chain as chain_mod
from . import numkit
from .errors import DomainError, RegimeError

# Acceptance-suite calibration constants: tolerance on
# fitted exponents, convergence ratios, and fit quality thresholds.
TOLERANCES = {
    "chain_slope": 0.03,        # log Q vs log L slope vs alpha - d
    "chain_q_convergence": 0.01,  # relative Q change per 8 depth steps, a > 1
    "chain_log_r2": 0.999,      # Q vs log L linearity at alpha = d
    "ring_extrapolation": 0.1,  # extrapolated q2 exponents vs table
    "spectral_slope": 0.05,     # delta0 / bandwidth log-log slopes
    "bandwidth_log_r2": 0.99,   # W vs log L fit at alpha = d
    "perturbative_relative": 0.2,  # exact vs leading-order agreement
    "ring_sqrtL_exponent": 0.05,  # T exponent vs 1/2 for the trapped-ion case
    "uniform_slope": 1e-6,      # analytic log T vs log L slope vs alpha - d/2
}

# Default fit window: drop depths below this before fitting chain slopes
# (transients die geometrically; see the sweep metadata).
CHAIN_SLOPE_FIT_MIN_L = 12


@dataclass(frozen=True)
class ScalingSeries:
    """(size, value) samples plus derived local/asymptotic exponents."""

    points: np.ndarray  # (n, 2): column 0 size L, column 1 value
    local_exponents: np.ndarray | None = None  # (m, 2): (window midpoint, slope)
    extrapolated_exponent: float | None = None
    metadata: dict = field(default_factory=dict)

    @property
    def sizes(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def values(self) -> np.ndarray:
        return self.points[:, 1]

    def with_fit(self, **kw) -> "ScalingSeries":
        return replace(self, **kw)


@dataclass(frozen=True)
class LRExponent:
    """Optimal transfer-time exponent and regime for given (d, alpha)."""

    regime: str  # "uniform" | "constant" | "log" | "power" | "nearest-neighbor"
    time_exponent: float  # exponent of L in the optimal T (0 for log regime)
    is_log: bool = False


def q_scaling_sweep(d: int, alpha: float, l_min: int, l_max: int) -> ScalingSeries:
    """Q(L) over an even-depth grid, from each chain's zero-mode recursion (no
    eigensolver); a depth past ``chain.max_depth`` raises DomainError."""
    chains = (chain_mod.build_effective_chain(d, alpha, l) for l in range(l_min, l_max + 1, 2))
    pts = [(float(ch.L), ch.q) for ch in chains]
    if not pts:
        raise DomainError(f"no depths in [{l_min}, {l_max}] for d={d}, alpha={alpha}")
    return ScalingSeries(
        points=np.array(pts),
        metadata={
            "protocol": "chain",
            "d": d,
            "alpha": alpha,
            "l_grid": [l_min, l_max, 2],
            # every depth is in the series; perfbench's tracer still reads this key
            "warnings": [],
            "window_convention": "geometric grid points (not arithmetic intervals)",
        },
    )


def local_exponents(series: ScalingSeries, window: int) -> ScalingSeries:
    """Slope of log value vs log size over each window of consecutive points;
    the midpoint is the geometric mean of the window sizes."""
    if window < 3:
        raise DomainError(f"window must be >= 3, got {window}")
    n = series.points.shape[0]
    if window > n:
        raise DomainError(f"window {window} exceeds series length {n}")
    ls = np.log(series.sizes)
    lv = np.log(series.values)
    if np.any(np.diff(ls) <= 0):
        raise DomainError("points must be sorted by increasing size")
    rows = []
    for i in range(n - window + 1):
        fit = numkit.linear_fit(ls[i : i + window], lv[i : i + window])
        rows.append((np.exp(np.mean(ls[i : i + window])), fit.slope))
    return series.with_fit(local_exponents=np.array(rows))


def extrapolate_exponent(series: ScalingSeries) -> tuple[float, numkit.PowerLawOffsetFit | None]:
    """Asymptotic exponent, and the power-law fit it is the offset of (None at
    a log regime): the offset c of a finite-size fit to the local exponents
    y(L_mid), with the correction form set by the regime.

    - At a log regime (``lr_exponent(d, alpha).is_log`` for the ``d`` and
      ``alpha`` in the series metadata) the corrections are logarithmic:
      y = c + p / ln L_mid, by least squares.
    - Everywhere else, and for a series without (d, alpha) metadata, two
      power-law corrections: y = c + a1 x^b + a2 x^(2b), x = 1 / L_mid,
      with b in ``numkit.POWERLAW_B_RANGE``.  The second term lets the
      local exponents turn over (two corrections of opposite sign), which a
      single correction can only follow by pinning b to its floor.

    Needs at least 5 local exponents (one more than the power-law fit's
    four parameters).
    """
    if series.local_exponents is None or series.local_exponents.shape[0] < 5:
        raise DomainError("need >= 5 local exponents; run local_exponents first")
    l_mid = series.local_exponents[:, 0]
    y = series.local_exponents[:, 1]
    meta = series.metadata
    if "d" in meta and "alpha" in meta and lr_exponent(meta["d"], meta["alpha"]).is_log:
        return numkit.linear_fit(1.0 / np.log(l_mid), y).intercept, None
    fit = numkit.powerlaw_offset_fit(1.0 / l_mid, y, corrections=2)
    return fit.offset, fit


def fit_loglog_slope(series: ScalingSeries, size_min: float = 0.0) -> numkit.FitResult:
    """Plain least-squares slope of log value vs log size, optionally
    restricted to sizes >= size_min."""
    mask = series.sizes >= size_min
    return numkit.linear_fit(np.log(series.sizes[mask]), np.log(series.values[mask]))


def fit_semilog(series: ScalingSeries) -> numkit.FitResult:
    """Least squares of value vs log size (the alpha = d channel is linear here)."""
    return numkit.linear_fit(np.log(series.sizes), series.values)


def lr_exponent(d: int, alpha: float) -> LRExponent:
    """Optimal transfer-time exponent table with breakpoints at d/2, d, d+1.

    alpha >= d+1 maps to the nearest-neighbor regime (linear light cone),
    outside the sweeps' scope.
    """
    if not alpha >= 0:  # NaN too; alpha = inf is the nearest-neighbor regime
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if alpha < d / 2.0:
        return LRExponent("uniform", alpha - d / 2.0)
    if alpha < d:
        return LRExponent("constant", 0.0)
    if alpha == d:
        return LRExponent("log", 0.0, is_log=True)
    if alpha < d + 1:
        return LRExponent("power", alpha - d)
    return LRExponent("nearest-neighbor", 1.0)


def chain_regime(d: int, alpha: float) -> LRExponent:
    """``lr_exponent`` for the chain protocol, which covers alpha >= d/2; checked
    first, so a negative alpha is the wrong protocol (RegimeError) too."""
    if alpha < d / 2.0:
        raise RegimeError(f"alpha={alpha} < d/2: the chain protocol covers alpha >= d/2")
    return lr_exponent(d, alpha)


def saturation_report(d: int, alpha: float, target: LRExponent, measured: dict) -> dict:
    """Pair a measured chain sweep verdict with its ``chain_regime(d, alpha)``.

    ``measured`` carries whichever of ``convergence_ratio`` (constant regime),
    ``log_r2`` (log) or ``exponent`` (power) the sweep produced.  Asymptotic
    Omega/Theta statements themselves are not decidable at desk scale; the
    report states the finite-size check and tolerance actually applied.
    """
    rep = {
        "d": d,
        "alpha": alpha,
        "protocol": "chain",
        "regime": target.regime,
        "optimal_time_exponent": "log" if target.is_log else target.time_exponent,
        "measured": measured,
        "note": (
            "finite-size trend check at stated tolerance; "
            "asymptotic statements are not decidable at desk scale"
        ),
    }
    if target.regime == "constant":
        ratio = measured["convergence_ratio"]
        rep["tolerance"] = TOLERANCES["chain_q_convergence"]
        rep["passed"] = bool(ratio <= rep["tolerance"])
        rep["verdict"] = "T = O(1): Q converged" if rep["passed"] else "fail"
    elif target.regime == "log":
        r2 = measured["log_r2"]
        rep["tolerance"] = TOLERANCES["chain_log_r2"]
        rep["passed"] = bool(r2 >= rep["tolerance"])
        rep["verdict"] = "T = O(log L)" if rep["passed"] else "fail"
    elif target.regime == "power":
        exp = measured["exponent"]
        rep["tolerance"] = TOLERANCES["chain_slope"]
        rep["passed"] = bool(abs(exp - target.time_exponent) <= rep["tolerance"])
        rep["verdict"] = "pass" if rep["passed"] else "fail"
    else:
        rep["tolerance"] = None
        rep["passed"] = None
        rep["verdict"] = "nearest-neighbor regime: outside sweep scope"
    return rep
