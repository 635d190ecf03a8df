"""Sweep harness: the Q series, sliding-window local exponents,
finite-size extrapolation, and comparison against the free-particle
light-cone exponent table.

Every fit takes plain (size, value) arrays, and the extrapolation takes
its correction form from the caller.  Sliding windows run over
consecutive points of the geometric (power-of-two) size grids used by the
fast spectral paths, not over arithmetic intervals in L.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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

# fig2bcd's slope fit reads only L >= 2^(CHAIN_SLOPE_FIT_MIN_L + 1), the depths
# l >= 12, where the geometric transients have died off.
CHAIN_SLOPE_FIT_MIN_L = 12


@dataclass(frozen=True)
class ScalingSeries:
    """(size, value) samples."""

    points: np.ndarray  # (n, 2): column 0 size L, column 1 value
    metadata: dict = field(default_factory=dict)

    @property
    def sizes(self) -> np.ndarray:
        return self.points[:, 0]

    @property
    def values(self) -> np.ndarray:
        return self.points[:, 1]


@dataclass(frozen=True)
class LRExponent:
    """Optimal transfer-time exponent and regime for given (d, alpha)."""

    regime: str  # "uniform" | "constant" | "log" | "power" | "nearest-neighbor"
    time_exponent: float  # exponent of L in the optimal T (0 for log regime)


def q_scaling_sweep(d: int, alpha: float, l_min: int, l_max: int) -> ScalingSeries:
    """Q(L) over an even-depth grid, from each chain's zero-mode recursion (no
    eigensolver); a depth past ``chain.max_depth`` raises DomainError."""
    chains = (chain_mod.build_effective_chain(d, alpha, l) for l in range(l_min, l_max + 1, 2))
    pts = [(float(ch.L), ch.q) for ch in chains]
    if not pts:
        raise DomainError(f"no depths in [{l_min}, {l_max}] for d={d}, alpha={alpha}")
    # every depth is in the series; perfbench's tracer still reads "warnings"
    return ScalingSeries(points=np.array(pts), metadata={"warnings": []})


def local_exponents(sizes, values, window: int) -> np.ndarray:
    """(window midpoint, slope) rows: the slope of log value vs log size over
    each window of consecutive points; the midpoint is the geometric mean of
    the window sizes."""
    if window < 3:
        raise DomainError(f"window must be >= 3, got {window}")
    ls = np.log(np.asarray(sizes, dtype=float))
    lv = np.log(np.asarray(values, dtype=float))
    n = ls.shape[0]
    if window > n:
        raise DomainError(f"window {window} exceeds series length {n}")
    if np.any(np.diff(ls) <= 0):
        raise DomainError("points must be sorted by increasing size")
    rows = []
    for i in range(n - window + 1):
        fit = numkit.linear_fit(ls[i : i + window], lv[i : i + window])
        rows.append((np.exp(np.mean(ls[i : i + window])), fit.slope))
    return np.array(rows)


def extrapolate_exponent(local: np.ndarray, log_correction: bool
                         ) -> tuple[float, numkit.PowerLawOffsetFit | None]:
    """Asymptotic exponent, and the power-law fit it is the offset of (None
    for a log correction): the offset c of a finite-size fit to the local
    exponents y(L_mid), the rows of ``local_exponents``.

    - ``log_correction``: y = c + p / ln L_mid, by least squares.
    - Otherwise two power-law corrections: y = c + a1 x^b + a2 x^(2b),
      x = 1 / L_mid, with b in ``numkit.POWERLAW_B_RANGE``.  The second
      term lets the local exponents turn over (two corrections of opposite
      sign), which a single correction can only follow by pinning b to its
      floor.

    Needs at least 5 local exponents (one more than the power-law fit's
    four parameters).
    """
    if local.shape[0] < 5:
        raise DomainError(f"need >= 5 local exponents, got {local.shape[0]}")
    l_mid, y = local[:, 0], local[:, 1]
    if log_correction:
        return numkit.linear_fit(1.0 / np.log(l_mid), y).intercept, None
    fit = numkit.powerlaw_offset_fit(1.0 / l_mid, y, corrections=2)
    return fit.offset, fit


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
        return LRExponent("log", 0.0)
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
        "optimal_time_exponent": "log" if target.regime == "log" else target.time_exponent,
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
