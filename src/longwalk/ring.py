"""Translation-invariant protocol with couplings exactly J_0 / r^alpha on a
periodic lattice (d = 1 ring, d = 2 torus).

The channel spectrum is circulant, the k = 0 mode sits at the top of the
band, and X/Y tunnel through it when their on-site energy is tuned to
E_0 - mu, where mu is the small compensation for the level repulsion of
the off-resonant modes.  Spectral summaries (gap delta_0, bandwidth W,
q2 = sum 1/Delta_k^2) drive the transfer-time scaling analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import numkit
from .errors import DomainError
from .transfer import TransferOutcome

L_CAP_FFT_1D = 2**17
L_CAP_2D = 512


@dataclass(frozen=True)
class RingModel:
    d: int
    L: int
    alpha: float
    N: int
    energies: np.ndarray  # flat, index k (d=1) or kx*L + ky (d=2)
    detunings: np.ndarray  # Delta_k = E_0 - E_k, same layout
    parities: np.ndarray  # (-1)^(sum_i k_i)

    def omega(self, g: float) -> float:
        return np.sqrt(2.0) * g / np.sqrt(self.N)

    def transfer_time(self, g: float) -> float:
        return np.pi / self.omega(g)


@dataclass(frozen=True)
class RingSpectralSummary:
    delta0: float  # min_{k != 0} Delta_k
    bandwidth: float  # max E - min E
    q2: float  # sum_{k != 0} 1 / Delta_k^2


def _coupling_row_1d(L: int, alpha: float) -> np.ndarray:
    r = np.arange(L)
    dist = np.minimum(r, L - r).astype(float)
    row = np.zeros(L)
    row[1:] = dist[1:] ** (-alpha)
    return row


def _coupling_grid_2d(L: int, alpha: float) -> np.ndarray:
    x = np.arange(L)
    rx = np.minimum(x, L - x).astype(float)
    r2 = rx[:, None] ** 2 + rx[None, :] ** 2
    j = np.zeros((L, L))
    mask = r2 > 0
    j[mask] = r2[mask] ** (-alpha / 2.0)
    return j


def ring_spectrum(d: int, L: int, alpha: float) -> RingModel:
    """Exact circulant spectrum of the min-image power-law kernel."""
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if L % 2 != 0:
        raise DomainError(f"L must be even, got {L}")
    if d == 1:
        if L > L_CAP_FFT_1D:
            raise DomainError(f"d=1 size {L} exceeds cap {L_CAP_FFT_1D}")
        energies = numkit.real_dft_circulant(_coupling_row_1d(L, alpha))
        k = np.arange(L)
        parities = (-1.0) ** k
        n = L
    elif d == 2:
        if L > L_CAP_2D:
            raise DomainError(f"d=2 size {L} exceeds cap {L_CAP_2D}")
        energies = np.fft.fft2(_coupling_grid_2d(L, alpha)).real.ravel()
        k = np.arange(L)
        parities = ((-1.0) ** (k[:, None] + k[None, :])).ravel()
        n = L * L
    else:
        raise DomainError(f"ring protocol supports d in {{1, 2}}, got {d}")
    detunings = energies[0] - energies
    return RingModel(
        d=d, L=L, alpha=alpha, N=n,
        energies=energies, detunings=detunings, parities=parities,
    )


def ring_spectrum_1d_closed_form(L: int, alpha: float) -> np.ndarray:
    """E_k = 2 sum_{j<L/2} cos(2 pi k j / L)/j^alpha + (-1)^k/(L/2)^alpha,
    the quoted d=1 form; used as an oracle for the transform path."""
    k = np.arange(L)[:, None]
    j = np.arange(1, L // 2)[None, :]
    e = 2.0 * np.sum(np.cos(2.0 * np.pi * k * j / L) / j**alpha, axis=1)
    return e + (-1.0) ** np.arange(L) / (L / 2.0) ** alpha


def ring_mu(model: RingModel, g: float) -> float:
    """Level-repulsion compensation Omega^2 sum_{k != 0} [1 - 3(-1)^k]/(2 Delta_k),
    quoted in the frame where the resonant mode sits at zero energy."""
    if not g > 0:
        raise DomainError(f"g must be positive, got {g}")
    om = model.omega(g)
    d = model.detunings[1:]
    p = model.parities[1:]
    return float(om**2 * np.sum((1.0 - 3.0 * p) / (2.0 * d)))


def ring_perturbative_infidelity(model: RingModel, g: float) -> float:
    """Omega^2 sum_{k != 0} [1 + (-1)^{sum k_i} cos(Delta_k T)] / Delta_k^2 at
    T = pi / Omega."""
    om = model.omega(g)
    t = np.pi / om
    d = np.delete(model.detunings, 0)
    p = np.delete(model.parities, 0)
    return float(om**2 * np.sum((1.0 + p * np.cos(d * t)) / d**2))


def ring_spectral_summary(model: RingModel) -> RingSpectralSummary:
    d = np.delete(model.detunings, 0)
    return RingSpectralSummary(
        delta0=float(d.min()),
        bandwidth=float(model.energies.max() - model.energies.min()),
        q2=float(np.sum(1.0 / d**2)),
    )


def _folded_modes(model: RingModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(detunings, multiplicities, parities) of the modes k_i <= L/2 on every
    axis.  X (site 0) and Y (the antipode) see only the cosine combination
    of each k <-> L-k pair, so that combination stands in for the pair with
    endpoint overlap sqrt(mult/N): mult is 1 at k = 0 and L/2 and 2
    elsewhere, multiplied over the axes."""
    half = model.L // 2 + 1
    m = np.full(half, 2.0)
    m[0] = m[-1] = 1.0
    mult = m if model.d == 1 else np.outer(m, m)
    keep = (slice(0, half),) * model.d
    grid = (model.L,) * model.d
    return (model.detunings.reshape(grid)[keep].ravel(), mult.ravel(),
            model.parities.reshape(grid)[keep].ravel())


def ring_exact_transfer(d: int, L: int, alpha: float, g: float) -> TransferOutcome:
    """Exact evolution of |X> for T = pi sqrt(N) / (sqrt(2) g), with the
    perturbative prediction and the small-g envelope 2 Omega^2 q2 attached.

    Uses numkit.endpoint_amplitude on the folded channel modes, in the frame
    where the k = 0 mode sits at zero energy (channel -Delta_k, endpoints
    -mu); the parity of Y at the antipode is (-1)^(sum k_i).  The size limit
    is the sector dimension cap of numkit.eigh_dense.
    """
    model = ring_spectrum(d, L, alpha)
    mu = ring_mu(model, g)
    detunings, mult, parities = _folded_modes(model)
    t = model.transfer_time(g)
    amplitude = numkit.endpoint_amplitude(-detunings, g * np.sqrt(mult / model.N), parities, -mu, t)
    fidelity = float(abs(amplitude) ** 2)
    summ = ring_spectral_summary(model)
    om = model.omega(g)
    envelope = 2.0 * om**2 * summ.q2
    conditions = (bool(summ.delta0 >= 4.0 * om), bool(om**2 * summ.q2 < 0.75))
    return TransferOutcome(
        T=t,
        fidelity_exact=fidelity,
        infidelity_exact=1.0 - fidelity,
        infidelity_perturbative=ring_perturbative_infidelity(model, g),
        infidelity_bound=envelope,
        bound_conditions_met=conditions,
    )
