"""Endpoint tunneling through a resonant channel mode.

Attaching X and Y with coupling g turns the resonant mode (the chain's zero
mode, the ring's k = 0 mode) into a bus; evolution for T = pi / Omega_res
swaps the endpoint populations up to the infidelity of the off-resonant
modes.  On one EndpointChannel record per protocol this module evaluates the
leading-order infidelity and the small-g envelope and assembles the outcome;
for the chain also the exact transfer (its tridiagonal site matrix's
spectral measure) with the precision guard that it alone needs, the
rigorous bound with its two validity flags, choose_g and the protocol's one
entry, chain_channel (regime, chain, guard before any spectrum, g, channel),
on which chain_transfer and fig2a run; the ring's envelope is no bound and
has no flags, and its entry is ring.ring_channel.  A channel holds one g or
a grid of them, Omega_k as a per-g rate times a per-mode profile; each per-g
quantity is a numpy float64 at one g and an array over a grid, computed
alike, so a grid point is that transfer bit for bit.  Only _couplings (the gate for g), outcome (the chain's flags) and
_stacked (the one stack loop, the one place that slices a channel) tell one g
from a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import chain as chain_mod
from . import numkit, scaling
from .errors import DomainError, PrecisionGuardError


@dataclass(frozen=True)
class EndpointChannel:
    """What the endpoints X and Y see: the channel modes in the frame where the
    resonant mode sits at zero energy.  X couples to mode k with Omega_k / sqrt(2),
    Y with p_k Omega_k / sqrt(2).  The per-g fields (g, rate, S, the ring's onsite)
    are numpy float64 at one g and arrays over a grid of G; no field is (G, modes)."""

    energies: np.ndarray  # E_k, E_resonant = 0
    rate: np.float64 | np.ndarray  # per g: chain sqrt(2) g, ring sqrt(2) g / sqrt(N)
    profile: np.ndarray  # per mode: chain t_k^(0), ring sqrt(mult_k); Omega_k = rate profile_k
    parities: np.ndarray  # p_k = +-1, relative to the resonant mode
    onsite: float | np.ndarray  # the endpoints' on-site energy
    resonant: int  # index of the resonant mode
    g: np.float64 | np.ndarray
    L: int  # chain: transfer distance; ring: side length
    offres_weight: np.float64 | np.ndarray  # S = sum_{k != res} Omega_k^2/E_k^2, from the protocol's closed form
    chain: chain_mod.EffectiveChain | None = None  # the chain's bonds, for its exact site solve

    @property
    def omegas(self) -> np.ndarray:  # Omega_k: (modes,) at one g, (G, modes) over a grid
        return np.multiply.outer(self.rate, self.profile)

    @cached_property
    def T(self) -> np.float64 | np.ndarray:
        """pi / Omega_res, computed once; ArithmeticError if it overflows
        (Omega_res underflows to 0 at a subnormal g)."""
        with np.errstate(divide="ignore", over="ignore"):  # checked by _finite
            return _finite(np.pi / (self.rate * self.profile[self.resonant]), "transfer time",
                           self.g)


@dataclass(frozen=True)
class TransferOutcome:
    """One transfer's results, or arrays of them over a g grid (L excepted)."""

    T: np.float64 | np.ndarray
    g: np.float64 | np.ndarray
    L: int  # chain: transfer distance; ring: side length
    fidelity_exact: np.float64 | np.ndarray
    infidelity_exact: np.float64 | np.ndarray
    infidelity_perturbative: np.float64 | np.ndarray
    infidelity_bound: np.float64 | np.ndarray  # chain: the bound 3S; ring: the envelope 2S
    # the chain's two validity flags of its bound; None for the ring, whose
    # envelope has none
    bound_conditions_met: tuple[bool, bool] | tuple[np.ndarray, np.ndarray] | None


def _couplings(g) -> np.float64 | np.ndarray:
    """One coupling g as a numpy float64, or a 1-d grid of them as an array;
    DomainError, naming the shape, for an empty or multi-dimensional grid,
    and unless every g is positive and finite."""
    grid = np.asarray(g, dtype=float)
    if grid.ndim > 1 or grid.size == 0:
        raise DomainError(f"coupling g must be one value or a non-empty 1-d grid, "
                          f"got shape {grid.shape}")
    ok = (0.0 < grid) & (grid < np.inf)  # NaN fails too
    if not ok.all():
        raise DomainError(f"coupling g must be positive and finite, got {grid[~ok][0]}")
    return grid[()]


def _stacked(channel: EndpointChannel, entries: int, solve) -> TransferOutcome:
    """solve(part)'s outcome over the channel's g, each g's solve taking `entries`
    matrix entries: solve(channel) where every g fits one stack of
    numkit.DENSE_DIM_CAP**2 entries, else one solve per stack of that many g (one
    at least) on the channel's per-g fields cut to it, joined field by field."""
    step = max(1, numkit.DENSE_DIM_CAP**2 // entries)
    if np.size(channel.g) <= step:
        return solve(channel)
    per_g = {k: getattr(channel, k) for k in ("g", "rate", "offres_weight", "onsite")}
    parts = [solve(replace(channel, **{k: v[i:i + step] for k, v in per_g.items() if np.ndim(v)}))
             for i in range(0, channel.g.shape[0], step)]
    return TransferOutcome(*map(_join, *(vars(part).values() for part in parts)))


def _join(first, *rest):
    """One outcome field over the stacks: arrays and flag pairs joined, L and None kept."""
    if isinstance(first, tuple):
        return tuple(map(np.concatenate, zip(first, *rest)))
    return np.concatenate((first, *rest)) if np.ndim(first) else first


def _finite(value, name: str, g):
    """value, or ArithmeticError naming the first g at which it is not finite."""
    ok = np.isfinite(value)
    if not ok.all():
        raise ArithmeticError(f"the {name} overflows at g={np.asarray(g)[~ok][0]}")
    return value


def attach_endpoints(chain: chain_mod.EffectiveChain, g) -> EndpointChannel:
    """The chain's channel at a coupling g or over a grid of them: its
    spectrum, whose zero mode k = l is the resonant one (l is even, so the
    parities (-1)^k are relative to it), with Omega_k = sqrt(2) g t_k^(0)
    (rate sqrt(2) g, profile t_k^(0)) and S = 2 (g t_l^(0) Q)^2."""
    g = _couplings(g)
    spectrum = chain_mod.chain_spectrum(chain)
    with np.errstate(over="ignore"):  # an overflow is reported where S is read
        # float_power is C's pow, as ** on a float64 scalar: the square x * x
        # rounds some values the other way
        s = 2.0 * np.float_power(g * spectrum.t_l_0 * chain.q, 2)
    return EndpointChannel(
        energies=spectrum.energies, rate=np.sqrt(2.0) * g, profile=spectrum.endpoint_amplitudes,
        parities=spectrum.parities, onsite=0.0, resonant=chain.l, g=g, L=chain.L,
        offres_weight=s, chain=chain)


def perturbative_infidelity(channel: EndpointChannel) -> np.float64 | np.ndarray:
    """Leading-order result sum_{k != res} Omega_k^2 [1 + p_k cos(E_k T)] / E_k^2
    evaluated at T = pi / Omega_res; ArithmeticError if Omega_k^2 overflows."""
    off = np.arange(channel.energies.shape[0]) != channel.resonant
    ek, om, par = channel.energies[off], channel.omegas[..., off], channel.parities[off]
    t = np.asarray(channel.T)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
        eps = np.sum(om**2 * (1.0 + par * np.cos(ek * t)) / ek**2, axis=-1)
    return _finite(eps, "perturbative infidelity", channel.g)


def small_g_envelope(channel: EndpointChannel) -> np.float64 | np.ndarray:
    """2 S: the termwise ceiling of the perturbative infidelity."""
    return _finite(2.0 * channel.offres_weight, "sum of Omega_k^2/E_k^2", channel.g)


def infidelity_rigorous_bound(channel: EndpointChannel) -> np.float64 | np.ndarray:
    """The chain's bound 3 S, valid when E_{l-2} >= 4 Omega_l and S < 3/4
    (outcome forms the two flags)."""
    return 3.0 * _finite(channel.offres_weight, "sum of Omega_k^2/E_k^2", channel.g)


def outcome(channel: EndpointChannel, amplitude, bound, gap=None) -> TransferOutcome:
    """The exact amplitude <Y|exp(-iHT)|X> on the channel as a fidelity, with
    its perturbative prediction and the protocol's bound.  Given the gap of a
    bound with validity conditions (the chain's E_{l-2}), also the bound's two
    flags, gap >= 4 Omega_res and S < 3/4: arrays over a grid, Python bools at
    one g.  Without one (the ring, whose 2S is an envelope that no condition
    makes a bound) the flags are None.

    The fidelity |A|^2 is C's hypot squared by C's pow, as Python's abs and
    ** took it at one g, so a grid point is bit for bit that transfer alone:
    numpy's abs and square of a complex array round differently."""
    amplitude = np.reshape(amplitude, np.shape(channel.g))  # at one g, a grid of one too
    fidelity = np.float_power(np.hypot(amplitude.real, amplitude.imag), 2)
    flags = None
    if gap is not None:
        flags = (gap >= 4.0 * (channel.rate * channel.profile[channel.resonant]),
                 channel.offres_weight < 0.75)
        if not np.ndim(channel.g):
            flags = tuple(map(bool, flags))
    return TransferOutcome(
        T=channel.T, g=channel.g, L=channel.L, fidelity_exact=fidelity,
        infidelity_exact=1.0 - fidelity,
        infidelity_perturbative=perturbative_infidelity(channel),
        infidelity_bound=bound, bound_conditions_met=flags)


# exact_transfer's site solve (dstedc, as in eigh) has the absolute error
# eps ||H||, which must stay 1000x below the smallest gap; the chain's
# spectrum, its error relative, needs no guard
GUARD_THRESHOLD = 1e-3


def _guard_ok(a: float, l: int) -> bool:
    # min(1, a)^l = min(1, a^l), which cannot overflow at max_depth
    return np.finfo(float).eps * max(1.0, a ** (l - 1)) <= GUARD_THRESHOLD * min(1.0, a) ** l


def max_admissible_l(d: int, alpha: float) -> int:
    """Largest even depth passing the precision guard (0 if even l=2 fails)."""
    a = 2.0 ** (d - alpha)
    depths = range(2, chain_mod.max_depth(d, alpha) + 1, 2)
    return max((l for l in depths if _guard_ok(a, l)), default=0)


def _check_guard(ch: chain_mod.EffectiveChain) -> None:
    """PrecisionGuardError, naming max_admissible_l, for a chain past the guard."""
    if not _guard_ok(ch.a, ch.l):
        raise PrecisionGuardError(f"depth l={ch.l} fails the precision guard for d={ch.d}, alpha="
                                  f"{ch.alpha} (a=2^{ch.d - ch.alpha:g}); maximal admissible l is "
                                  f"{max_admissible_l(ch.d, ch.alpha)}")


def exact_transfer(channel: EndpointChannel) -> TransferOutcome:
    """<Y| exp(-iHT) |X> from the spectral measure (lambda_j, v_j[X] v_j[Y]) of
    the chain's (2l+3)-site matrix over (X, 0..2l, Y) at each g, with the
    perturbative and bound fields.  The matrix is tridiagonal with zero
    diagonal, so each g passes only its bonds (g, the chain's finite bonds,
    g): one numkit.tridiagonal_end_measure call per stack of _stacked, on
    the stack's channel, which is bit for bit numpy's eigh of the dense
    matrix.  l <= 1022 keeps it below numkit.DENSE_DIM_CAP; past the guard,
    PrecisionGuardError."""
    ch = channel.chain
    _check_guard(ch)
    n = ch.bonds.shape[0] + 3

    def solve(part):
        g, times = np.atleast_1d(part.g), np.atleast_1d(part.T)
        bonds = np.empty((g.shape[0], n - 1))  # per g: g, the chain's bonds, g
        bonds[:, 1:-1] = ch.bonds
        bonds[:, 0] = bonds[:, -1] = g
        amplitude = numkit.spectral_amplitude(*numkit.tridiagonal_end_measure(bonds), times)
        return outcome(part, amplitude, infidelity_rigorous_bound(part),
                       channel.energies[channel.resonant - 2])

    return _stacked(channel, n * n, solve)


def choose_g(spectrum: chain_mod.ChannelSpectrum, epsilon_target: float) -> float:
    """Largest g for which the rigorous bound equals epsilon_target while the
    gap condition E_{l-2} >= 4 Omega_l stays satisfied."""
    if not 0.0 < epsilon_target < 0.75:
        raise DomainError(f"epsilon_target must lie in (0, 3/4), got {epsilon_target}")
    l = spectrum.zero_index
    tl = spectrum.t_l_0
    q = chain_mod.q_factor(spectrum).q
    g_bound = np.sqrt(epsilon_target / 6.0) / (tl * q)
    g_gap = spectrum.energies[l - 2] / (4.0 * np.sqrt(2.0) * tl)
    return float(min(g_bound, g_gap))


def chain_channel(d: int, alpha: float, l: int, epsilon: float = 0.01,
                  g=None) -> EndpointChannel:
    """The chain protocol's one entry: regime check, chain of depth l, guard
    (before any spectrum), then the channel at g, one value or a grid, or at
    the g that choose_g picks for target infidelity epsilon if g is None."""
    scaling.chain_regime(d, alpha)
    ch = chain_mod.build_effective_chain(d, alpha, l)
    _check_guard(ch)
    if g is None:
        g = choose_g(chain_mod.chain_spectrum(ch), epsilon)
    return attach_endpoints(ch, g)


def chain_transfer(d: int, alpha: float, l: int, epsilon: float = 0.01,
                   g: float | None = None) -> TransferOutcome:
    """The chain protocol end to end: exact transfer on chain_channel."""
    return exact_transfer(chain_channel(d, alpha, l, epsilon, g))
