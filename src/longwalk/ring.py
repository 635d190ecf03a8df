"""Translation-invariant protocol with couplings exactly J_0 / r^alpha on a
periodic lattice of side L in d = 1, 2 or 3 dimensions (ring, torus).

The channel spectrum is circulant, the k = 0 mode sits at the top of the
band, and X/Y tunnel through it when their on-site energy is tuned to
E_0 - mu, where mu is the small compensation for the level repulsion of
the off-resonant modes.  Spectral summaries (gap delta_0, bandwidth W,
q2 = sum 1/Delta_k^2) drive the transfer-time scaling analysis.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import DomainError
from .transfer import TransferOutcome

# largest side length of the spectrum per dimension d
L_CAP = {1: 2**17, 2: 512, 3: 256}


@dataclass(frozen=True)
class RingModel:
    d: int
    L: int
    alpha: float
    N: int
    energies: np.ndarray  # flat, row-major over (k_1, ..., k_d): index sum_i k_i L^(d-i)
    detunings: np.ndarray  # Delta_k = E_0 - E_k, same layout
    parities: np.ndarray  # (-1)^(sum_i k_i), int8: an eighth of float64's memory

    def omega(self, g: float) -> float:
        return np.sqrt(2.0) * g / np.sqrt(self.N)

    def transfer_time(self, g: float) -> float:
        return np.pi / self.omega(g)


@dataclass(frozen=True)
class RingSpectralSummary:
    delta0: float  # min_{k != 0} Delta_k
    bandwidth: float  # max E - min E
    q2: float  # sum_{k != 0} 1 / Delta_k^2


def _validate(d: int, L: int, alpha: float) -> None:
    if not alpha >= 0:  # NaN too; alpha = inf is the nearest-neighbour ring
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if L % 2 != 0 or L < 2:
        raise DomainError(f"L must be even and >= 2, got {L}")
    if d not in L_CAP:
        raise DomainError(f"ring protocol supports d in {set(L_CAP)}, got {d}")


def _coupling_kernel(d: int, L: int, alpha: float) -> np.ndarray:
    """J(r) = |r|^-alpha at the minimum-image distance (0 at r = 0), built on
    the half-axes r_i <= L/2 and mirrored r_i -> L - r_i on every axis."""
    h2 = np.arange(L // 2 + 1, dtype=float) ** 2
    r2 = functools.reduce(np.add.outer, (h2,) * d)
    r2.flat[0] = 1.0
    kernel = np.power(r2, -alpha / 2.0, out=r2)  # in place: a copy measured slower at L=2^17
    kernel.flat[0] = 0.0
    for axis in range(d):
        # a basic slice: np.take with an index array measured slower on the sweeps
        mirror = kernel[(slice(None),) * axis + (slice(-2, 0, -1),)]
        kernel = np.concatenate([kernel, mirror], axis=axis)
    return kernel


def ring_spectrum(d: int, L: int, alpha: float) -> RingModel:
    """Exact circulant spectrum of the min-image power-law kernel."""
    _validate(d, L, alpha)
    if L > L_CAP[d]:
        raise DomainError(f"d={d} size {L} exceeds cap {L_CAP[d]}")
    energies = numkit.real_dft_circulant(_coupling_kernel(d, L, alpha)).ravel()
    p = np.ones(L, dtype=np.int8)
    p[1::2] = -1
    parities = functools.reduce(np.multiply.outer, (p,) * d).ravel()
    return RingModel(d=d, L=L, alpha=alpha, N=L**d, energies=energies,
                     detunings=energies[0] - energies, parities=parities)


def ring_mu(model: RingModel, g: float) -> float:
    """Level-repulsion compensation Omega^2 sum_{k != 0} [1 - 3(-1)^k]/(2 Delta_k),
    quoted in the frame where the resonant mode sits at zero energy."""
    if not 0 < g < math.inf:
        raise DomainError(f"g must be positive and finite, got {g}")
    om = model.omega(g)
    d = model.detunings[1:]
    p = model.parities[1:]
    with np.errstate(over="ignore"):  # reported below
        mu = float(om**2 * np.sum((1.0 - 3.0 * p) / (2.0 * d)))
    if not math.isfinite(mu):
        raise ArithmeticError(f"the level-repulsion shift mu overflows at g={g}")
    return mu


def ring_perturbative_infidelity(model: RingModel, g: float) -> float:
    """Omega^2 sum_{k != 0} [1 + (-1)^{sum k_i} cos(Delta_k T)] / Delta_k^2 at
    T = pi / Omega."""
    om = model.omega(g)
    t = np.pi / om
    d = model.detunings[1:]
    p = model.parities[1:]
    return float(om**2 * np.sum((1.0 + p * np.cos(d * t)) / d**2))


def ring_spectral_summary(model: RingModel) -> RingSpectralSummary:
    d = model.detunings[1:]
    return RingSpectralSummary(
        delta0=float(d.min()),
        bandwidth=float(model.energies.max() - model.energies.min()),
        q2=float(np.sum(1.0 / d**2)),
    )


def _fold(d: int, L: int) -> tuple[np.ndarray, np.ndarray]:
    """(flat indices, multiplicities) of the modes the endpoints see, each
    standing in for mult channel modes with endpoint overlap sqrt(mult/N).

    X (site 0) and Y (the antipode) see only the cosine combination of each
    k_i <-> L - k_i pair, and only the symmetric combination of the axis
    permutations, which keep energy, parity and overlaps.  So the sorted
    tuples k_1 <= ... <= k_d <= L/2 stand in: mult is the product of the axis
    weights (1 at k_i = 0 and L/2, 2 elsewhere) times the d!/prod(run!)
    distinct permutations (runs of equal adjacent entries).  Modes are merged
    by index, never by comparing energies.
    """
    ks = np.indices((L // 2 + 1,) * d).reshape(d, -1)
    ks = ks[:, np.all(ks[:-1] <= ks[1:], axis=0)]
    mult = np.where((ks == 0) | (ks == L // 2), 1.0, 2.0).prod(axis=0) * math.factorial(d)
    run = np.ones(ks.shape[1])
    for i in range(1, d):
        run = np.where(ks[i] == ks[i - 1], run + 1.0, 1.0)
        mult /= run
    return np.ravel_multi_index(ks, (L,) * d), mult


def _sector(d: int, L: int, flat: np.ndarray) -> int:
    """Dimension of the larger parity sector: one endpoint state plus its modes."""
    odd = np.sum(np.unravel_index(flat, (L,) * d), axis=0) % 2
    return 1 + int(np.bincount(odd, minlength=2).max())


def ring_exact_transfer(d: int, L: int, alpha: float, g: float) -> TransferOutcome:
    """Exact evolution of |X> for T = pi sqrt(N) / (sqrt(2) g), with the
    perturbative prediction and the small-g envelope 2 Omega^2 q2 attached.

    Uses numkit.endpoint_amplitude on the folded channel modes, in the frame
    where the k = 0 mode sits at zero energy (channel -Delta_k, endpoints
    -mu); the parity of Y at the antipode is (-1)^(sum k_i).  Parity sectors
    above dimension 170 (d = 1 L >= 676, d = 2 L >= 50, d = 3 L >= 22) are
    solved by the O(n^2) secular solver, smaller ones by dense eigh.  Sizes
    whose larger parity sector exceeds numkit.DENSE_DIM_CAP (L > 16378, 250
    and 68 at d = 1, 2 and 3) are rejected before the spectrum is computed.
    """
    _validate(d, L, alpha)
    cap = numkit.DENSE_DIM_CAP
    flat, mult = _fold(d, L) if L <= L_CAP[d] else (None, None)
    if flat is None or _sector(d, L, flat) > cap:
        # the sector grows with L, so bisection finds the largest exact size
        sizes = range(2, min(L, L_CAP[d]) + 1, 2)
        n = bisect.bisect_right(sizes, cap, key=lambda size: _sector(d, size, _fold(d, size)[0]))
        raise DomainError(
            f"ring d={d} L={L}: a parity sector of the exact solve would exceed "
            f"dimension {cap}; the largest exact size is L={sizes[n - 1]}"
        )
    model = ring_spectrum(d, L, alpha)
    mu = ring_mu(model, g)
    t = model.transfer_time(g)
    amplitude = numkit.endpoint_amplitude(
        -model.detunings[flat], g * np.sqrt(mult / model.N), model.parities[flat], -mu, t)
    fidelity = float(abs(amplitude) ** 2)
    summ = ring_spectral_summary(model)
    om = model.omega(g)
    conditions = (bool(summ.delta0 >= 4.0 * om), bool(om**2 * summ.q2 < 0.75))
    return TransferOutcome(
        T=t, g=g, L=L, fidelity_exact=fidelity, infidelity_exact=1.0 - fidelity,
        infidelity_perturbative=ring_perturbative_infidelity(model, g),
        infidelity_bound=2.0 * om**2 * summ.q2, bound_conditions_met=conditions,
    )
