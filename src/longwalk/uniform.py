"""One-step protocol for alpha < d/2: X and Y joined through every middle
site with the single uniform strength (sqrt(d) L)^(-alpha).

The middle sites enter only through their uniform superposition, so the
N-site walk closes exactly onto a three-level system and transfers
perfectly at T = (pi/sqrt(2)) (sqrt(d) L)^alpha / sqrt(N-2).  The exact
fidelity is evaluated as one flat-band mode by numkit.endpoint_amplitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import DomainError, RegimeError


@dataclass(frozen=True)
class UniformProtocol:
    d: int
    alpha: float
    L: int
    N: int
    w: float  # uniform hop strength (sqrt(d) L)^(-alpha)
    W_eff: float  # three-level coupling w * sqrt(N-2)
    T: float  # (pi/sqrt(2)) / W_eff


def _check_alpha(d: int, alpha: float) -> None:
    """The one-step regime 0 <= alpha < d/2; a non-finite alpha is a domain
    error, checked first, as NaN would otherwise read as the other regime."""
    if not math.isfinite(alpha):
        raise DomainError(f"alpha must be finite, got {alpha}")
    if not alpha < d / 2.0:
        raise RegimeError(
            f"alpha={alpha} is not < d/2={d / 2.0}; use the tunneling protocol instead"
        )
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")


def build_uniform_protocol(d: int, alpha: float, L: int) -> UniformProtocol:
    if d not in (1, 2, 3):
        raise DomainError(f"d must be 1, 2 or 3, got {d}")
    _check_alpha(d, alpha)
    n = L**d
    if L < 2 or n < 3:
        raise DomainError(f"need L >= 2 and N = L^d >= 3 (X, Y and a middle site), got L={L}")
    w = (np.sqrt(d) * L) ** (-alpha)
    w_eff = w * np.sqrt(n - 2.0)
    return UniformProtocol(
        d=d, alpha=alpha, L=L, N=n, w=float(w), W_eff=float(w_eff),
        T=float((np.pi / np.sqrt(2.0)) / w_eff),
    )


def three_level_fidelity(protocol: UniformProtocol, times) -> np.ndarray:
    """Closed form for the reduced (X, col, Y) system:
    Y population [1 - cos(sqrt(2) W_eff t)]^2 / 4."""
    t = np.atleast_1d(np.asarray(times, dtype=float))
    return (1.0 - np.cos(np.sqrt(2.0) * protocol.W_eff * t)) ** 2 / 4.0


def simulate_uniform(protocol: UniformProtocol) -> float:
    """Fidelity |<Y|psi(T)>|^2 of the N-site evolution at T.

    The middle sites form a flat band at zero energy, and X and Y couple
    only to its uniform superposition, with strength W_eff: one
    even-parity channel mode.
    """
    amplitude = numkit.endpoint_amplitude([0.0], [protocol.W_eff], [1.0], 0.0, protocol.T)
    return float(abs(amplitude) ** 2)


def transfer_time(d: int, alpha: float, L) -> np.ndarray:
    """T(L) from the closed form, valid for any L (no simulation involved), so
    a scaling grid may reach any size."""
    _check_alpha(d, alpha)
    L = np.asarray(L, dtype=float)
    n = L**d
    return (np.pi / np.sqrt(2.0)) * (np.sqrt(d) * L) ** alpha / np.sqrt(n - 2.0)
