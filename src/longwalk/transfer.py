"""Endpoint tunneling through a resonant channel mode.

Attaching X and Y with coupling g turns the resonant mode (the chain's zero
mode, the ring's k = 0 mode) into a bus; evolution for T = pi / Omega_res
swaps the endpoint populations up to the infidelity of the off-resonant
modes.  On one EndpointChannel record per protocol this module evaluates the
leading-order infidelity and the small-g envelope and assembles the outcome;
for the chain also the exact transfer (its site matrix's spectral measure),
the rigorous bound and choose_g.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chain as chain_mod
from . import numkit, scaling
from .errors import DomainError


@dataclass(frozen=True)
class EndpointChannel:
    """What the endpoints X and Y see: the channel modes in the frame where the
    resonant mode sits at zero energy.  X couples to mode k with
    Omega_k / sqrt(2), Y with p_k Omega_k / sqrt(2)."""

    energies: np.ndarray  # E_k, E_resonant = 0
    omegas: np.ndarray  # Omega_k, the Rabi couplings to the mode pairs
    parities: np.ndarray  # p_k = +-1, relative to the resonant mode
    onsite: float  # the endpoints' on-site energy
    resonant: int  # index of the resonant mode
    g: float
    L: int  # chain: transfer distance; ring: side length
    offres_weight: float  # S = sum_{k != res} Omega_k^2/E_k^2, from the protocol's closed form
    chain: chain_mod.EffectiveChain | None = None  # the chain's bonds, for its dense exact step

    @property
    def T(self) -> float:
        """pi / Omega_res; ArithmeticError if it overflows (Omega_res
        underflows to 0 at a subnormal g)."""
        with np.errstate(divide="ignore", over="ignore"):  # checked by _finite
            return _finite(np.pi / self.omegas[self.resonant], "transfer time", self)


@dataclass(frozen=True)
class TransferOutcome:
    T: float
    g: float
    L: int  # chain: transfer distance; ring: side length
    fidelity_exact: float
    infidelity_exact: float
    infidelity_perturbative: float
    infidelity_bound: float
    bound_conditions_met: tuple[bool, bool]


def attach_endpoints(chain: chain_mod.EffectiveChain, g: float) -> EndpointChannel:
    """The chain's channel: its spectrum, whose zero mode k = l is the resonant
    one (l is even, so the parities (-1)^k are relative to it), with
    Omega_k = sqrt(2) g t_k^(0) and S = 2 (g t_l^(0) Q)^2."""
    if not 0 < g < np.inf:
        raise DomainError(f"coupling g must be positive and finite, got {g}")
    spectrum = chain_mod.chain_spectrum(chain)
    with np.errstate(over="ignore"):  # an overflow is reported where S is read
        s = float(2.0 * np.float64(g * spectrum.t_l_0 * chain.q) ** 2)
    return EndpointChannel(
        energies=spectrum.energies, omegas=np.sqrt(2.0) * g * spectrum.endpoint_amplitudes,
        parities=spectrum.parities, onsite=0.0, resonant=chain.l, g=g, L=chain.L,
        offres_weight=s, chain=chain)


def _finite(value: float, name: str, channel: EndpointChannel) -> float:
    if not math.isfinite(value):
        raise ArithmeticError(f"the {name} overflows at g={channel.g}")
    return value


def perturbative_infidelity(channel: EndpointChannel) -> float:
    """Leading-order result sum_{k != res} Omega_k^2 [1 + p_k cos(E_k T)] / E_k^2
    evaluated at T = pi / Omega_res; ArithmeticError if Omega_k^2 overflows."""
    off = np.arange(channel.energies.shape[0]) != channel.resonant
    ek, om, par = channel.energies[off], channel.omegas[off], channel.parities[off]
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
        eps = float(np.sum(om**2 * (1.0 + par * np.cos(ek * channel.T)) / ek**2))
    return _finite(eps, "perturbative infidelity", channel)


def small_g_envelope(channel: EndpointChannel) -> float:
    """2 S: the termwise ceiling of the perturbative infidelity."""
    return _finite(2.0 * channel.offres_weight, "sum of Omega_k^2/E_k^2", channel)


def infidelity_rigorous_bound(channel: EndpointChannel) -> tuple[float, tuple[bool, bool]]:
    """The chain's bound 3 S, valid when E_{l-2} >= 4 Omega_l and S < 3/4."""
    s = _finite(channel.offres_weight, "sum of Omega_k^2/E_k^2", channel)
    l = channel.resonant
    gap_ok = bool(channel.energies[l - 2] >= 4.0 * channel.omegas[l])
    return 3.0 * s, (gap_ok, bool(s < 0.75))


def outcome(channel: EndpointChannel, fidelity: float, bound: float,
            conditions: tuple[bool, bool]) -> TransferOutcome:
    """An exact fidelity on the channel, with its perturbative prediction and
    the protocol's bound and validity flags."""
    return TransferOutcome(
        T=channel.T, g=channel.g, L=channel.L, fidelity_exact=fidelity,
        infidelity_exact=1.0 - fidelity, infidelity_perturbative=perturbative_infidelity(channel),
        infidelity_bound=bound, bound_conditions_met=conditions)


def exact_transfer(channel: EndpointChannel) -> TransferOutcome:
    """<Y| exp(-iHT) |X> from the dense eigendecomposition of the chain's
    (2l+3)-site matrix over (X, 0..2l, Y), as the spectral measure
    (lambda_j, v_j[X] v_j[Y]), with the perturbative and bound fields."""
    bonds = np.concatenate([[channel.g], channel.chain.bonds, [channel.g]])
    dec = numkit.eigh_dense(np.diag(bonds, 1) + np.diag(bonds, -1))
    v = dec.eigenvectors
    amplitude = numkit.spectral_amplitude(dec.eigenvalues, v[0] * v[-1], channel.T)
    return outcome(channel, float(abs(amplitude) ** 2), *infidelity_rigorous_bound(channel))


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


def chain_transfer(d: int, alpha: float, l: int, epsilon: float = 0.01,
                   g: float | None = None) -> TransferOutcome:
    """The chain protocol end to end: regime check, chain of depth l, the g
    that choose_g picks for target infidelity epsilon (unless g is given),
    exact transfer."""
    scaling.chain_regime(d, alpha)
    ch = chain_mod.build_effective_chain(d, alpha, l)
    if g is None:
        g = choose_g(chain_mod.chain_spectrum(ch), epsilon)
    return exact_transfer(attach_endpoints(ch, g))
