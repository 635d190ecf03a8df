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
DENSE_L_CAP_1D = 2000
DENSE_L_CAP_2D = 44


@dataclass(frozen=True)
class RingModel:
    d: int
    L: int
    alpha: float
    N: int
    energies: np.ndarray  # flat, index k (d=1) or kx*L + ky (d=2)
    detunings: np.ndarray  # Delta_k = E_0 - E_k, same layout
    parities: np.ndarray  # (-1)^(sum_i k_i)

    @property
    def resonant_energy(self) -> float:
        return float(self.energies[0])

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


def _dense_ring_hamiltonian(model: RingModel, g: float) -> tuple[np.ndarray, int, int]:
    """Lab-frame (N+2) matrix: power-law channel, endpoint bonds g, endpoint
    diagonal E_0 - mu so that X/Y are resonant with the k = 0 mode."""
    L, n = model.L, model.N
    if model.d == 1:
        row = _coupling_row_1d(L, model.alpha)
        i = np.arange(L)
        h = np.zeros((n + 2, n + 2))
        h[:n, :n] = row[(i[:, None] - i[None, :]) % L]
        site_x, site_y = 0, L // 2
    else:
        coords = np.indices((L, L)).reshape(2, -1).T
        diff = np.abs(coords[:, None, :] - coords[None, :, :])
        diff = np.minimum(diff, L - diff)
        r2 = np.sum(diff**2, axis=-1).astype(float)
        j = np.zeros_like(r2)
        mask = r2 > 0
        j[mask] = r2[mask] ** (-model.alpha / 2.0)
        h = np.zeros((n + 2, n + 2))
        h[:n, :n] = j
        site_x = 0
        site_y = (L // 2) * L + L // 2
    ix, iy = n, n + 1
    h[ix, site_x] = h[site_x, ix] = g
    h[iy, site_y] = h[site_y, iy] = g
    mu = ring_mu(model, g)
    h[ix, ix] = h[iy, iy] = model.resonant_energy - mu
    return h, ix, iy


def ring_exact_transfer(d: int, L: int, alpha: float, g: float) -> TransferOutcome:
    """Dense evolution of |X> for T = pi sqrt(N) / (sqrt(2) g), with the
    perturbative prediction and the small-g envelope 2 Omega^2 q2 attached."""
    if d == 1 and L > DENSE_L_CAP_1D:
        raise DomainError(f"dense d=1 path capped at L = {DENSE_L_CAP_1D}, got {L}")
    if d == 2 and L > DENSE_L_CAP_2D:
        raise DomainError(f"dense d=2 path capped at L = {DENSE_L_CAP_2D}, got {L}")
    model = ring_spectrum(d, L, alpha)
    h, ix, iy = _dense_ring_hamiltonian(model, g)
    dec = numkit.eigh_dense(h)
    psi0 = np.zeros(h.shape[0])
    psi0[ix] = 1.0
    t = model.transfer_time(g)
    psi = numkit.evolve(dec, psi0, t)
    fidelity = float(abs(psi[iy]) ** 2)
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
