"""Endpoint tunneling through the channel's zero mode (alpha >= d/2).

Attaching X and Y with coupling g turns the zero mode into a resonant bus;
evolution for T = pi / Omega_l swaps the endpoint populations up to the
infidelity contributed by off-resonant modes.  This module evaluates that
infidelity three ways: exact evolution, leading-order perturbation theory,
and the rigorous 3 * sum Omega_k^2/E_k^2 bound with its validity flags.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chain as chain_mod
from . import numkit, scaling
from .errors import DomainError


@dataclass(frozen=True)
class TunnelingModel:
    spectrum: chain_mod.ChannelSpectrum
    g: float
    omegas: np.ndarray  # Omega_k = sqrt(2) g t_k^(0)
    T: float  # pi / Omega_l

    @property
    def zero_index(self) -> int:
        return self.spectrum.zero_index


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


def attach_endpoints(chain: chain_mod.EffectiveChain, g: float) -> TunnelingModel:
    if not 0 < g < np.inf:
        raise DomainError(f"coupling g must be positive and finite, got {g}")
    spectrum = chain_mod.chain_spectrum(chain)
    omegas = np.sqrt(2.0) * g * spectrum.endpoint_amplitudes
    return TunnelingModel(spectrum=spectrum, g=g, omegas=omegas, T=np.pi / omegas[chain.l])


def _finite(value: float, name: str, model: TunnelingModel) -> float:
    if not math.isfinite(value):
        raise ArithmeticError(f"the {name} overflows at g={model.g}")
    return value


def perturbative_infidelity(model: TunnelingModel) -> float:
    """Leading-order result sum_{k != l} Omega_k^2 [1 + (-1)^k cos(E_k T)] / E_k^2
    evaluated at T = pi / Omega_l; ArithmeticError if Omega_k^2 overflows."""
    spec = model.spectrum
    off = np.arange(spec.energies.shape[0]) != model.zero_index
    ek, om, par = spec.energies[off], model.omegas[off], spec.parities[off]
    with np.errstate(over="ignore", invalid="ignore"):  # checked by _finite
        eps = float(np.sum(om**2 * (1.0 + par * np.cos(ek * model.T)) / ek**2))
    return _finite(eps, "perturbative infidelity", model)


def _offres_weight(model: TunnelingModel) -> float:
    """sum_{k != l} Omega_k^2/E_k^2 = 2 (g t_l^(0) Q)^2, the sum that choose_g
    inverts; ArithmeticError if it overflows."""
    spec = model.spectrum
    with np.errstate(over="ignore"):  # checked by _finite
        s = float(2.0 * np.float64(model.g * spec.t_l_0 * spec.chain.q) ** 2)
    return _finite(s, "sum of Omega_k^2/E_k^2", model)


def infidelity_rigorous_bound(model: TunnelingModel) -> tuple[float, tuple[bool, bool]]:
    """3 sum_{k != l} Omega_k^2/E_k^2, valid when E_{l-2} >= 4 Omega_l and the
    sum of Omega_k^2/E_k^2 stays below 3/4."""
    s = _offres_weight(model)
    l = model.zero_index
    gap_ok = bool(model.spectrum.energies[l - 2] >= 4.0 * model.omegas[l])
    sum_ok = bool(s < 0.75)
    return 3.0 * s, (gap_ok, sum_ok)


def small_g_envelope(model: TunnelingModel) -> float:
    """2 sum_{k != l} Omega_k^2/E_k^2: the termwise ceiling of the
    perturbative infidelity."""
    return 2.0 * _offres_weight(model)


def exact_transfer(model: TunnelingModel) -> TransferOutcome:
    """Evolve |X> for T by dense eigendecomposition of the (2l+3)-site matrix
    over (X, 0..2l, Y) and fill in the perturbative and bound fields."""
    bonds = np.concatenate([[model.g], model.spectrum.chain.bonds, [model.g]])
    dec = numkit.eigh_dense(np.diag(bonds, 1) + np.diag(bonds, -1))
    psi0 = np.zeros(dec.dim)
    psi0[0] = 1.0
    psi = numkit.evolve(dec, psi0, model.T)
    fidelity = float(abs(psi[-1]) ** 2)
    bound, conditions = infidelity_rigorous_bound(model)
    return TransferOutcome(
        T=model.T,
        g=model.g,
        L=model.spectrum.chain.L,
        fidelity_exact=fidelity,
        infidelity_exact=1.0 - fidelity,
        infidelity_perturbative=perturbative_infidelity(model),
        infidelity_bound=bound,
        bound_conditions_met=conditions,
    )


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
