"""Translation-invariant protocol with couplings exactly J_0 / r^alpha on a
periodic lattice of side L in d = 1, 2 or 3 dimensions (ring, torus).

The channel spectrum is circulant, the k = 0 mode sits at the top of the
band, and X/Y tunnel through it when their on-site energy is tuned to
E_0 - mu, where mu is the small compensation for the level repulsion of
the off-resonant modes.  Spectral summaries (gap delta_0, bandwidth W,
q2 = sum 1/Delta_k^2) drive the transfer-time scaling analysis; the exact
transfer takes mu and S = Omega^2 q2 from the fold of modes it solves on.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np

from . import numkit, transfer
from .errors import DomainError

# largest side length of the spectrum per dimension d
L_CAP = {1: 2**17, 2: 512, 3: 256}


@dataclass(frozen=True)
class RingModel:
    d: int
    L: int
    alpha: float
    N: int  # L^d channel modes
    # Delta_k = E_0 - E_k >= 0 on the orthant 0 <= k_i <= L/2, flat, row-major:
    # index sum_i k_i (L/2+1)^(d-i)
    detunings: np.ndarray


@dataclass(frozen=True)
class RingSpectralSummary:
    delta0: float  # min_{k != 0} Delta_k
    bandwidth: float  # max E - min E = max Delta_k (E_0 is the top of the band)
    q2: float  # sum_{k != 0} 1 / Delta_k^2


def _validate(d: int, L: int, alpha: float) -> None:
    if not alpha >= 0:  # NaN too; alpha = inf is the nearest-neighbour ring
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if L % 2 != 0 or L < 2:
        raise DomainError(f"L must be even and >= 2, got {L}")
    if d not in L_CAP:
        raise DomainError(f"ring protocol supports d in {set(L_CAP)}, got {d}")


def _coupling_kernel(d: int, L: int, alpha: float) -> np.ndarray:
    """J(r) = |r|^-alpha (0 at r = 0) on the half-axes 0 <= r_i <= L/2."""
    h2 = np.arange(L // 2 + 1, dtype=float) ** 2
    r2 = functools.reduce(np.add.outer, (h2,) * d)
    r2.flat[0] = 1.0
    kernel = np.power(r2, -alpha / 2.0, out=r2)  # in place: a copy measured slower at L=2^17
    kernel.flat[0] = 0.0
    return kernel


def _validate_spectrum(d: int, L: int, alpha: float) -> None:
    _validate(d, L, alpha)
    if L > L_CAP[d]:
        raise DomainError(f"d={d} size {L} exceeds cap {L_CAP[d]}")


def _detunings(kernel: np.ndarray, work=None) -> np.ndarray:
    """Delta_k = E_0 - E_k on the orthant, shaped like the half-axis kernel: a
    new array, or with a dft_workspace the prefix of its float buffer."""
    energies = numkit.real_dft_circulant(kernel, work)
    out = None if work is None else work[0][:energies.size].reshape(energies.shape)
    return np.subtract(energies.flat[0], energies, out=out)


def ring_spectrum(d: int, L: int, alpha: float) -> RingModel:
    """Exact circulant spectrum of the min-image power-law kernel, on the orthant."""
    _validate_spectrum(d, L, alpha)
    detunings = _detunings(_coupling_kernel(d, L, alpha)).ravel()
    return RingModel(d=d, L=L, alpha=alpha, N=L**d, detunings=detunings)


def _summarize(detunings: np.ndarray, d: int) -> RingSpectralSummary:
    """(delta0, W, q2) from the detunings on the orthant, a C-contiguous array
    of shape (L/2+1,)*d, which it overwrites: delta0 and W are read first,
    then the array is squared, divided past k = 0 and halved in place into
    the q2 terms.

    The weight of mode k is 2^d halved once per axis with k_i in {0, L/2}, so
    2^d / Delta_k^2 halved on those faces is w_k / Delta_k^2 bit for bit (powers
    of two scale exactly) with no weight array."""
    delta0, bandwidth = float(detunings.ravel()[1:].min()), float(detunings.max())
    terms = np.square(detunings, out=detunings)
    rest = terms.ravel()[1:]  # a view; Delta_0 = 0, and its term is left out of the sum
    np.divide(2.0**d, rest, out=rest)
    for axis in range(d):
        for face in (0, -1):
            terms[(slice(None),) * axis + (face,)] *= 0.5
    return RingSpectralSummary(delta0=delta0, bandwidth=bandwidth, q2=float(np.sum(rest)))


def ring_spectral_summary(model: RingModel) -> RingSpectralSummary:
    # a copy: _summarize overwrites its argument, and the model keeps its detunings
    return _summarize(model.detunings.reshape((model.L // 2 + 1,) * model.d).copy(), model.d)


def ring_spectral_summaries(d: int, alphas, sizes) -> list[list[RingSpectralSummary]]:
    """ring_spectral_summary(ring_spectrum(d, L, alpha)) for every alpha (outer
    list) and L (inner list), bit for bit, with no RingModel.

    Each alpha's half-axis kernel is built once, at the largest L: J depends
    only on r, so its leading (L/2+1)^d block, a view, is the kernel of side L.
    Every transform runs in one numkit.dft_workspace sized for every L, and
    the detunings overwrite its float buffer, so no array is allocated per
    size.  At d = 1 the sizes may straddle numkit's crossover: below
    L = 2^13 each takes one real FFT of its mirrored row, from 2^13 on the
    factored transform, whose fixed cost pays off only there; its layout
    follows how L factors, so the largest L need not need the most, and its
    twiddles are cached per L.  Every size is validated before any spectrum
    is computed.
    """
    sizes = [int(L) for L in sizes]
    for alpha in alphas:
        for L in sizes:
            _validate_spectrum(d, L, alpha)
    if not sizes:
        return [[] for _ in alphas]
    largest = max(sizes)
    work = numkit.dft_workspace(*((L // 2 + 1,) * d for L in sizes))
    table = []
    for alpha in alphas:
        kernel = _coupling_kernel(d, largest, alpha)
        table.append([_summarize(_detunings(kernel[(slice(L // 2 + 1),) * d], work), d)
                      for L in sizes])
        # freed before the next alpha's kernel is built: both alive beside the
        # workspace would raise fig_s2b's tracemalloc peak from 1.9 to 2.3 MiB
        del kernel
    return table


def _fold(d: int, L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(flat indices, multiplicities, parities) of the modes the endpoints see,
    each standing in for mult channel modes with endpoint overlap sqrt(mult/N)
    and parity (-1)^(sum k_i) at Y.

    X (site 0) and Y (the antipode) see only the cosine combination of each
    k_i <-> L - k_i pair, and only the symmetric combination of the axis
    permutations, which keep energy, parity and overlaps.  So the sorted
    tuples k_1 <= ... <= k_d <= L/2 stand in: mult is the product of the axis
    weights (1 at k_i = 0 and L/2, 2 elsewhere) times the d!/prod(run!)
    distinct permutations (runs of equal adjacent entries).  Modes are merged
    by index (into RingModel's orthant), never by comparing energies.  The
    first kept mode is k = 0.
    """
    ks = np.indices((L // 2 + 1,) * d).reshape(d, -1)
    ks = ks[:, np.all(ks[:-1] <= ks[1:], axis=0)]
    mult = np.where((ks == 0) | (ks == L // 2), 1.0, 2.0).prod(axis=0) * math.factorial(d)
    run = np.ones(ks.shape[1])
    for i in range(1, d):
        run = np.where(ks[i] == ks[i - 1], run + 1.0, 1.0)
        mult /= run
    parities = 1.0 - 2.0 * (ks.sum(axis=0) % 2)
    return np.ravel_multi_index(ks, (L // 2 + 1,) * d), mult, parities


def _sector(parities: np.ndarray) -> int:
    """Dimension of the larger parity sector: one endpoint state plus its modes."""
    odd = int(np.count_nonzero(parities < 0))
    return 1 + max(odd, parities.size - odd)


@functools.lru_cache(maxsize=8)
def _exact_fold(d: int, L: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_fold(d, L), read-only and cached, for a size whose larger parity
    sector fits numkit.DENSE_DIM_CAP; DomainError otherwise.  The check runs
    inside the cache, which keeps nothing from a call that raises."""
    cap = numkit.DENSE_DIM_CAP
    fold = _fold(d, L) if L <= L_CAP[d] else None
    if fold is None or _sector(fold[2]) > cap:
        # the sector grows with L, so bisection finds the largest exact size
        sizes = range(2, min(L, L_CAP[d]) + 1, 2)
        n = bisect.bisect_right(sizes, cap, key=lambda size: _sector(_fold(d, size)[2]))
        raise DomainError(
            f"ring d={d} L={L}: a parity sector of the exact solve would exceed "
            f"dimension {cap}; the largest exact size is L={sizes[n - 1]}"
        )
    for array in fold:
        array.flags.writeable = False
    return fold


def _channel(model: RingModel, g, fold) -> transfer.EndpointChannel:
    """The ring's channel at a gated coupling g or over a grid of them: the
    folded modes in the frame where the k = 0 mode sits at zero energy
    (channel -Delta_k, endpoints at -mu, the level-repulsion shift
    sum_{k != 0} Omega_k^2 [1 - 3 p_k] / (2 Delta_k)), with rate
    Omega = sqrt(2) g / sqrt(N), profile sqrt(mult_k) and S = Omega^2 q2, with
    q2 = sum_{k != 0} mult_k / Delta_k^2 summed on the fold."""
    flat, mult, parities = fold
    om, delta = np.sqrt(2.0) * g / np.sqrt(model.N), model.detunings[flat]
    with np.errstate(over="ignore"):  # mu is reported below, S where it is read
        # float_power is C's pow, as ** on a float64 scalar: the square
        # om * om rounds some values the other way
        om2 = np.float_power(om, 2)
        mu = om2 * np.sum(mult[1:] * (1.0 - 3.0 * parities[1:]) / (2.0 * delta[1:]))
        s = om2 * np.sum(mult[1:] / np.square(delta[1:]))
    transfer._finite(mu, "level-repulsion shift mu", g)
    return transfer.EndpointChannel(
        energies=-delta, rate=om, profile=np.sqrt(mult), parities=parities, onsite=-mu,
        resonant=0, g=g, L=model.L, offres_weight=s)


def ring_exact_transfer(d: int, L: int, alpha: float, g) -> transfer.TransferOutcome:
    """Exact evolution of |X> for T = pi sqrt(N) / (sqrt(2) g), with the
    perturbative prediction and the small-g envelope 2 S = 2 Omega^2 q2 in
    infidelity_bound; at one coupling g, or over a grid of them with arrays
    over g in every per-g field.

    2 S is the termwise ceiling of the leading-order sum, not a bound: the
    exact infidelity differs from the leading order by a relative O(g) and
    exceeds 2 S where the phases line up (d = 1 L = 100 alpha = 3.5 at
    S = 0.0936: 0.1974 against 0.1872).  So the outcome makes no validity
    claim: bound_conditions_met is None.

    The spectrum, the fold (_exact_fold, cached per size) and the channel
    (_channel, over every g, S from the fold) are computed once; per stack of
    transfer._stacked, one numkit.endpoint_amplitude call on every g's
    sectors: joint secular solve above dimension 80 (d = 1 L >= 316, d = 2
    L >= 32, d = 3 L >= 16), dense eigh below.  Sizes whose larger parity
    sector exceeds numkit.DENSE_DIM_CAP (L > 16378, 250 and 68 at d = 1, 2
    and 3) are rejected before the spectrum is computed.
    """
    _validate(d, L, alpha)
    fold = _exact_fold(d, L)
    model = ring_spectrum(d, L, alpha)
    channel = _channel(model, transfer._couplings(g), fold)

    def solve(part):
        amplitude = numkit.endpoint_amplitude(part.energies, part.omegas / np.sqrt(2.0),
                                              part.parities, part.onsite, part.T)
        return transfer.outcome(part, amplitude, transfer.small_g_envelope(part))

    entries = sum((1 + np.count_nonzero(fold[2] == p)) ** 2 for p in (1.0, -1.0))  # both sectors
    return transfer._stacked(channel, entries, solve)
