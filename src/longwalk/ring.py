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


def _coupling_kernel(d: int, L: int, alpha: float) -> np.ndarray:
    """J(r) = |r|^-alpha at the minimum-image distance (0 at r = 0), built on
    r_i <= L/2 and mirrored r_i -> L - r_i on every axis."""
    h = np.arange(L // 2 + 1, dtype=float)
    if d == 1:
        half = h[1:] ** (-alpha)
        return np.concatenate([[0.0], half, half[-2::-1]])
    r2 = h[:, None] ** 2 + h[None, :] ** 2
    r2[0, 0] = 1.0
    block = r2 ** (-alpha / 2.0)
    block[0, 0] = 0.0
    block = np.concatenate([block, block[-2:0:-1]], axis=0)
    return np.concatenate([block, block[:, -2:0:-1]], axis=1)


def ring_spectrum(d: int, L: int, alpha: float) -> RingModel:
    """Exact circulant spectrum of the min-image power-law kernel."""
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if L % 2 != 0:
        raise DomainError(f"L must be even, got {L}")
    if d not in (1, 2):
        raise DomainError(f"ring protocol supports d in {{1, 2}}, got {d}")
    cap = L_CAP_FFT_1D if d == 1 else L_CAP_2D
    if L > cap:
        raise DomainError(f"d={d} size {L} exceeds cap {cap}")
    energies = numkit.real_dft_circulant(_coupling_kernel(d, L, alpha)).ravel()
    p = 1.0 - 2.0 * (np.arange(L) & 1)
    parities = p if d == 1 else np.outer(p, p).ravel()
    detunings = energies[0] - energies
    return RingModel(
        d=d, L=L, alpha=alpha, N=L**d,
        energies=energies, detunings=detunings, parities=parities,
    )


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


def _folded_modes(model: RingModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(detunings, multiplicities, parities) of the modes the endpoints see,
    each standing in for a group of modes with endpoint overlap sqrt(mult/N).

    X (site 0) and Y (the antipode) see only the cosine combination of each
    k <-> L-k pair, so the modes k_i <= L/2 stand in: mult is 1 at k = 0 and
    L/2 and 2 elsewhere, multiplied over the axes.  At d = 2 the swap
    (kx, ky) <-> (ky, kx) keeps both the parity and the overlap, so only the
    symmetric combination couples: the modes kx <= ky stand in, and mult
    doubles where kx < ky.  Both folds merge modes by index, never by
    comparing energies.
    """
    half = model.L // 2 + 1
    m = np.full(half, 2.0)
    m[0] = m[-1] = 1.0
    ks = (np.arange(half),) if model.d == 1 else np.triu_indices(half)
    mult = np.prod([m[k] for k in ks], axis=0) * np.where(ks[0] < ks[-1], 2.0, 1.0)
    flat = np.ravel_multi_index(ks, (model.L,) * model.d)
    return model.detunings[flat], mult, model.parities[flat]


def _largest_sector(d: int, L):
    """Dimension of the larger (even) parity sector of the folded exact problem
    (elementwise over an array of L): 1 + the folded modes with an even sum
    of k_i, where a of the values k_i <= L/2 are even and b are odd."""
    a, b = L // 4 + 1, (L // 2 + 1) // 2
    return 1 + (a if d == 1 else a * (a + 1) // 2 + b * (b + 1) // 2)


def ring_exact_transfer(d: int, L: int, alpha: float, g: float) -> TransferOutcome:
    """Exact evolution of |X> for T = pi sqrt(N) / (sqrt(2) g), with the
    perturbative prediction and the small-g envelope 2 Omega^2 q2 attached.

    Uses numkit.endpoint_amplitude on the folded channel modes, in the frame
    where the k = 0 mode sits at zero energy (channel -Delta_k, endpoints
    -mu); the parity of Y at the antipode is (-1)^(sum k_i).  Sizes whose
    larger parity sector exceeds numkit.DENSE_DIM_CAP (L > 16378 at d = 1,
    L > 250 at d = 2) are rejected before the spectrum is computed.
    """
    if d in (1, 2) and _largest_sector(d, L) > numkit.DENSE_DIM_CAP:
        sizes = np.arange(2, L_CAP_FFT_1D + 1, 2)
        largest = sizes[_largest_sector(d, sizes) <= numkit.DENSE_DIM_CAP].max()
        raise DomainError(
            f"ring d={d} L={L}: a parity sector of the exact solve would exceed "
            f"dimension {numkit.DENSE_DIM_CAP}; the largest exact size is L={largest}"
        )
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
        g=g,
        L=L,
        fidelity_exact=fidelity,
        infidelity_exact=1.0 - fidelity,
        infidelity_perturbative=ring_perturbative_infidelity(model, g),
        infidelity_bound=envelope,
        bound_conditions_met=conditions,
    )
