"""The effective 1D transfer channel: a palindromic geometric-hopping chain.

A depth-l channel has 2l+1 sites with zero on-site energies and bond
strengths a^min(j, 2l-1-j), a = 2^(d-alpha).  Its spectrum is symmetric
about zero with an exactly-zero "bus" mode in the middle; the quantity Q
built from endpoint amplitudes and gaps controls how slowly the endpoints
must be coupled, hence the transfer time.  Q needs no spectrum: the chain
is bipartite, so Q and the zero mode both come from O(l) recursions.  The
spectrum comes from the reflection-parity sectors, zero-diagonal
tridiagonals whose eigenvalues numkit takes by dqds to high relative
accuracy, with the endpoint weights from two interlacing spectra: no
eigenvector is computed.  Chains and their spectra go to the float range
(``max_depth``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numkit
from .errors import DomainError

@dataclass(frozen=True)
class EffectiveChain:
    d: int
    alpha: float
    l: int
    a: float
    bonds: np.ndarray  # length 2l, palindromic, bonds[0] = 1
    L: int  # transfer distance 2^(l+1) + 2^l - 2

    @cached_property
    def _eigensystem(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # the chain is immutable, so chain_spectrum diagonalises it only once;
        # holding arrays, not the ChannelSpectrum, keeps chains free of
        # reference cycles, so refcounting frees them as soon as they go
        return _diagonalise(self)

    @cached_property
    def q(self) -> float:
        """Q = sqrt(sum_{k != l} ((t_k0/t_l0)/E_k)^2), computed once per chain
        from the zero-mode recursion (``_q_from_zero_mode``), with no spectrum."""
        return _q_from_zero_mode(self.bonds.tolist())


@dataclass(frozen=True)
class ChannelSpectrum:
    """Channel spectrum, ordered from the top of the spectrum down.

    endpoint_amplitudes[k] = t_k^(0) >= 0 is eigenstate k's weight on site
    0; parity[k] = (-1)^k is its mirror eigenvalue, and the zero mode sits
    at k = l.
    """

    chain: EffectiveChain
    energies: np.ndarray  # descending, energies[l] = 0
    endpoint_amplitudes: np.ndarray  # length 2l+1
    parities: np.ndarray  # +1 / -1 per eigenstate

    @property
    def zero_index(self) -> int:
        return self.chain.l

    @property
    def t_l_0(self) -> float:
        return float(self.endpoint_amplitudes[self.chain.l])


@dataclass(frozen=True)
class QReport:
    q: float
    t_endpoint_zero_mode: float
    min_gap: float


def max_depth(d: int, alpha: float) -> int:
    """Largest even depth within the float range (0 if l=2 leaves it): l <= 1022
    keeps L = 3*2^l - 2 a finite float, and |d-alpha| (l-1) <= 1022 keeps every
    bond 2^((d-alpha) j), j < l, a normal float."""
    l = 1022 if alpha == d else min(1022, int(1022 / abs(d - alpha)) + 1)
    return l - l % 2


def build_effective_chain(d: int, alpha: float, l: int) -> EffectiveChain:
    """Bonds a^min(j, 2l-1-j) with a = 2^(d-alpha), at any even depth up to
    max_depth(d, alpha)."""
    if d not in (1, 2, 3):
        raise DomainError(f"d must be 1, 2 or 3, got {d}")
    if not 0 <= alpha < math.inf:  # NaN too; alpha = inf would cut every bond but the ends
        raise DomainError(f"alpha must be finite and >= 0, got {alpha}")
    lmax = max_depth(d, alpha)
    if l % 2 != 0 or not (2 <= l <= lmax):
        raise DomainError(f"l must be even with 2 <= l <= {lmax} for d={d}, alpha={alpha} "
                          f"(deeper chains leave the float range), got {l}")
    a = 2.0 ** (d - alpha)
    j = np.arange(2 * l)
    bonds = a ** np.minimum(j, 2 * l - 1 - j)
    return EffectiveChain(d=d, alpha=alpha, l=l, a=a, bonds=bonds, L=2 ** (l + 1) + 2**l - 2)


def _eps_gap(chain: EffectiveChain) -> float:
    return 1e-8 * max(1.0, chain.a ** (chain.l - 1))


def chain_spectrum(chain: EffectiveChain) -> ChannelSpectrum:
    """The channel eigensystem, computed on the first call for each chain and
    then returned from it (its arrays are read-only), at any depth."""
    return ChannelSpectrum(chain, *chain._eigensystem)


def _diagonalise(chain: EffectiveChain) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(energies, endpoint amplitudes, parities) of the channel, by
    reflection-parity folding.

    The chain commutes with site reflection, so it splits into an even
    sector (l+1 sites, last bond scaled by sqrt(2)) and an odd sector
    (l sites).  Solving the sectors separately keeps the left/right
    tunneling doublets -- which are degenerate to machine precision for
    a < 1 -- from mixing.  Sector eigenvalues strictly interlace, so
    interleaving them descending gives parity (-1)^k, and eigenstate k's
    endpoint amplitude is |v[0]| / sqrt(2) of its sector vector v.

    Each sector is a zero-diagonal tridiagonal, so its eigenvalues come
    from numkit.zero_diagonal_eigenvalues (dqds on its bidiagonal half) to
    high relative accuracy, however graded the bonds, and its endpoint
    weights |v[0]|^2 from those and the spectrum of the sector without its
    first site (numkit.jacobi_endpoint_weights): four values-only solves
    per chain, and no eigenvector.  Against 80-digit mpmath solves at and
    past the deepest chain the dense exact transfer admits, the energies are
    within 6.7e-16 relative and the zero mode's energy is exactly 0.0
    (tests/test_chain.py, TestSpectrumAccuracy).
    """
    l = chain.l
    b = chain.bonds
    n = 2 * l + 1
    energies = np.empty(n)
    endpoint = np.empty(n)
    even_bonds = np.concatenate([b[: l - 1], [np.sqrt(2.0) * b[l - 1]]])
    for start, e in ((0, even_bonds), (1, b[: l - 1])):
        lam = numkit.zero_diagonal_eigenvalues(e)
        mu = numkit.zero_diagonal_eigenvalues(e[1:]) if e.size else np.empty(0)
        energies[start::2] = lam
        endpoint[start::2] = np.sqrt(numkit.jacobi_endpoint_weights(lam, mu) / 2.0)
    scale = np.max(np.abs(energies))
    if np.any(np.diff(energies) > 1e-10 * scale):
        raise ArithmeticError("sector eigenvalues failed to interlace")
    if abs(energies[l]) > _eps_gap(chain):
        raise ArithmeticError(
            f"middle eigenvalue {energies[l]:.3e} is not zero within {_eps_gap(chain):.3e}"
        )
    parities = 1.0 - 2.0 * (np.arange(n) & 1)
    for array in (energies, endpoint, parities):
        array.flags.writeable = False
    return energies, endpoint, parities


def _zero_mode_evens(bonds: list[float]) -> list[float]:
    """Components v_0, v_2, ..., v_2l of the unit zero mode, v_0 > 0; its odd
    components vanish.  Row 2i+1 of H v = 0 gives v_{2i+2} = -(b_{2i}/b_{2i+1})
    v_{2i}, for any bonds (a = 1 included)."""
    v = [1.0]
    for i in range(0, len(bonds), 2):
        v.append(-v[-1] * bonds[i] / bonds[i + 1])
    norm = math.hypot(*v)
    return [x / norm for x in v]


def _q_from_zero_mode(bonds: list[float]) -> float:
    """Q = ||H^+ e_0|| / v_0 in O(l), with v the unit zero mode.

    H has zero diagonal, so sum_{k != l} (t_k^(0)/E_k)^2 = ||H^+ e_0||^2, and
    x = H^+ e_0 solves H x = r, r = e_0 - v_0 v, with x orthogonal to v.  r
    lives on the even sites, so x lives on the odd ones, and the even rows
    b_{2i-1} x_{2i-1} + b_{2i} x_{2i+1} = r_{2i} are back-substituted from
    the far end, row 2l first (row 0 then holds, as r is orthogonal to v).
    The loops run on Python floats: numpy scalar indexing measured 2.5x
    slower at l = 84.
    """
    v = _zero_mode_evens(bonds)
    v0, l = v[0], len(v) - 1
    x = -v0 * v[l] / bonds[2 * l - 1]
    xs = [x]
    for i in range(l - 1, 0, -1):
        x = (-v0 * v[i] - bonds[2 * i] * x) / bonds[2 * i - 1]
        xs.append(x)
    return math.hypot(*xs) / v0


def q_factor(spectrum: ChannelSpectrum) -> QReport:
    """Q = sqrt(sum_{k != l} ((t_k0/t_l0)/E_k)^2), off-resonant weight per gap,
    from the chain's zero-mode recursion; t_l^(0) and the gap E_{l-1} from
    the spectrum."""
    return QReport(
        q=spectrum.chain.q,
        t_endpoint_zero_mode=spectrum.t_l_0,
        min_gap=min_gap(spectrum),
    )


def min_gap(spectrum: ChannelSpectrum) -> float:
    """E_{l-1}, the smallest positive eigenvalue."""
    return float(spectrum.energies[spectrum.zero_index - 1])
