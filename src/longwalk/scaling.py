"""Sweep harness: the Q series, sliding-window local exponents,
finite-size extrapolation, and comparison against the free-particle
light-cone exponent table.

Every fit takes plain (size, value) arrays, and the extrapolation takes
its correction terms from the caller.  Sliding windows run over
consecutive points of the geometric (power-of-two) size grids used by the
fast spectral paths, not over arithmetic intervals in L.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import chain as chain_mod
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
    eigensolver); DomainError names a bad depth bound before any chain is built."""
    if np.isfinite(alpha):  # the builder names a NaN or infinite alpha
        lmax = chain_mod.max_depth(d, alpha)
        for name, l in (("l_min", l_min), ("l_max", l_max)):
            if not 2 <= l <= lmax or (name == "l_min" and l % 2 != 0):
                raise DomainError(f"{name}={l}: l must be even with 2 <= l <= {lmax} for "
                                  f"d={d}, alpha={alpha} (deeper chains leave the float range)")
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
    # numkit.linear_fit's means, centred sums and slope, every window at once
    # (one row each), bit for bit: each row reduces in the order a 1-d array does
    xs, ys = (np.lib.stride_tricks.sliding_window_view(v, window) for v in (ls, lv))
    xm, ym = xs.mean(axis=1), ys.mean(axis=1)
    dx = xs - xm[:, None]
    slope = np.sum(dx * (ys - ym[:, None]), axis=1) / np.sum(dx**2, axis=1)
    return np.column_stack([np.exp(xm), slope])


def extrapolate_exponent(local: np.ndarray, corrections) -> float:
    """Asymptotic exponent: the offset c of the least-squares fit
    y = c + sum_j a_j L_mid^(-b_j) / ln^(k_j) L_mid to the local exponents
    y(L_mid), the rows of ``local_exponents``, with one term for each
    (b_j, k_j) in ``corrections`` (``experiments.ring_q2_target`` names
    them for the ring's q2).  The terms are known, so the fit is linear.

    Needs one more local exponent than the fit has parameters.
    """
    if local.shape[0] < len(corrections) + 2:
        raise DomainError(f"{len(corrections)} correction(s) need >= {len(corrections) + 2} "
                          f"local exponents, got {local.shape[0]}")
    l_mid, y = local[:, 0], local[:, 1]
    basis = np.column_stack([l_mid**-b / np.log(l_mid) ** k for b, k in corrections]
                            + [np.ones_like(y)])
    return float(np.linalg.lstsq(basis, y, rcond=None)[0][-1])


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

