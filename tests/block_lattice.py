"""Explicit d-dimensional block lattice and its exact reduction to the chain.

Blocks j = 0..2l are hypercubes of side 2^min(j, 2l-j) placed staircase
fashion along the main diagonal, consecutive cubes sharing exactly one
corner.  Every site of block j couples to every site of block j+1 with the
uniform strength [sqrt(d) * (l_j + l_{j+1})]^(-alpha), which never exceeds
1/r^alpha for any coupled pair.  Restricted to uniform column states the
model closes exactly onto the effective chain; this module is the
brute-force oracle for that reduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from longwalk import chain as chain_mod
from longwalk import numkit
from longwalk.errors import DomainError

from site_oracle import evolve

SITE_CAP = 20000


@dataclass(frozen=True)
class BlockLattice:
    d: int
    alpha: float
    l: int
    sides: np.ndarray  # l_j = 2^min(j, 2l-j), j = 0..2l
    populations: np.ndarray  # N_j = l_j^d
    origins: np.ndarray  # scalar origin per block (same along every axis)
    coords: np.ndarray  # (n_sites, d) integer site coordinates
    block_of: np.ndarray  # block index per site
    couplings: np.ndarray  # uniform strength between blocks j and j+1
    L: int

    @property
    def n_sites(self) -> int:
        return self.coords.shape[0]

    def block_slice(self, j: int) -> slice:
        start = int(np.sum(self.populations[:j]))
        return slice(start, start + int(self.populations[j]))


def build_block_lattice(d: int, alpha: float, l: int) -> BlockLattice:
    if d not in (1, 2):
        raise DomainError(f"explicit lattices support d in {{1, 2}}, got {d}")
    if alpha < 0:
        raise DomainError(f"alpha must be >= 0, got {alpha}")
    if l % 2 != 0 or l < 2:
        raise DomainError(f"l must be even and >= 2, got {l}")
    j = np.arange(2 * l + 1)
    sides = 2 ** np.minimum(j, 2 * l - j)
    pops = sides**d
    total = int(np.sum(pops))
    if total > SITE_CAP:
        raise DomainError(f"site count {total} exceeds cap {SITE_CAP}")
    origins = np.concatenate([[0], np.cumsum(sides)[:-1]])
    coords = np.empty((total, d), dtype=int)
    block_of = np.empty(total, dtype=int)
    pos = 0
    for b, (o, s) in enumerate(zip(origins, sides)):
        axes = [np.arange(o, o + s)] * d
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        coords[pos : pos + grid.shape[0]] = grid
        block_of[pos : pos + grid.shape[0]] = b
        pos += grid.shape[0]
    couplings = (np.sqrt(d) * (sides[:-1] + sides[1:])) ** (-alpha)
    return BlockLattice(
        d=d,
        alpha=alpha,
        l=l,
        sides=sides,
        populations=pops,
        origins=origins,
        coords=coords,
        block_of=block_of,
        couplings=couplings.astype(float),
        L=int(np.sum(sides)),
    )


def full_hamiltonian(lattice: BlockLattice, g: float) -> np.ndarray:
    """Dense (n_sites + 2) matrix over the basis (X, sites..., Y).

    X couples with strength g to every site of block 0 and Y to every site
    of block 2l (both end blocks are single sites, so this equals the
    reduced endpoint coupling g exactly).
    """
    n = lattice.n_sites
    h = np.zeros((n + 2, n + 2))
    for j in range(2 * lattice.l):
        sa = lattice.block_slice(j)
        sb = lattice.block_slice(j + 1)
        h[1 + sa.start : 1 + sa.stop, 1 + sb.start : 1 + sb.stop] = lattice.couplings[j]
        h[1 + sb.start : 1 + sb.stop, 1 + sa.start : 1 + sa.stop] = lattice.couplings[j]
    first = lattice.block_slice(0)
    last = lattice.block_slice(2 * lattice.l)
    h[0, 1 + first.start : 1 + first.stop] = g
    h[1 + first.start : 1 + first.stop, 0] = g
    h[n + 1, 1 + last.start : 1 + last.stop] = g
    h[1 + last.start : 1 + last.stop, n + 1] = g
    return h


def normalization_constant(lattice: BlockLattice) -> float:
    """Overall bond scale (3 sqrt(d))^(-alpha) * 2^(d/2) factored out of the
    effective chain."""
    return (3.0 * np.sqrt(lattice.d)) ** (-lattice.alpha) * 2.0 ** (lattice.d / 2.0)


def effective_bonds(lattice: BlockLattice) -> np.ndarray:
    """Unnormalized chain bonds: coupling_j * sqrt(N_j N_{j+1})."""
    pops = lattice.populations.astype(float)
    return lattice.couplings * np.sqrt(pops[:-1] * pops[1:])


def reduce_to_chain(lattice: BlockLattice) -> tuple[chain_mod.EffectiveChain, float]:
    """Project onto uniform column states and return (chain, constant); the
    raw bonds divided by the constant reproduce a^min(j, 2l-1-j) exactly."""
    const = normalization_constant(lattice)
    raw = effective_bonds(lattice)
    ch = chain_mod.build_effective_chain(lattice.d, lattice.alpha, lattice.l)
    rel = np.max(np.abs(raw / const - ch.bonds) / ch.bonds)
    if rel > 1e-12:
        raise ArithmeticError(f"normalized bonds deviate from a^min(j,2l-1-j) by {rel:.2e}")
    return ch, const


def column_basis(lattice: BlockLattice) -> np.ndarray:
    """Orthonormal columns (X, |col 0>, ..., |col 2l>, Y) in the full basis."""
    n = lattice.n_sites
    m = 2 * lattice.l + 3
    p = np.zeros((n + 2, m))
    p[0, 0] = 1.0
    p[n + 1, m - 1] = 1.0
    for j in range(2 * lattice.l + 1):
        s = lattice.block_slice(j)
        p[1 + s.start : 1 + s.stop, 1 + j] = 1.0 / np.sqrt(float(lattice.populations[j]))
    return p


def verify_subspace_closure(
    lattice: BlockLattice, g: float = 0.05, hamiltonian: np.ndarray | None = None
) -> float:
    """max_j || (I - P) H |col j> || where P spans (X, columns, Y).

    Pass an explicit (possibly perturbed) Hamiltonian to check that the
    residual detects broken column symmetry.
    """
    h = full_hamiltonian(lattice, g) if hamiltonian is None else hamiltonian
    p = column_basis(lattice)
    resid = 0.0
    for col in range(1, 2 * lattice.l + 2):
        v = h @ p[:, col]
        leak = v - p @ (p.T @ v)
        resid = max(resid, float(np.linalg.norm(leak)))
    return resid


def reduced_hamiltonian(lattice: BlockLattice, g: float) -> np.ndarray:
    """(2l+3)-dimensional tunneling model with the unnormalized chain bonds."""
    m = 2 * lattice.l + 3
    h = np.zeros((m, m))
    raw = effective_bonds(lattice)
    for j in range(2 * lattice.l):
        h[1 + j, 2 + j] = h[2 + j, 1 + j] = raw[j]
    h[0, 1] = h[1, 0] = g * np.sqrt(float(lattice.populations[0]))
    h[m - 1, m - 2] = h[m - 2, m - 1] = g * np.sqrt(float(lattice.populations[-1]))
    return h


def transfer_time(lattice: BlockLattice, g: float) -> float:
    """T = pi / (sqrt(2) g t_l^(0)); the endpoint amplitude is scale-free, so
    normalized and raw chains give the same T."""
    ch, _ = reduce_to_chain(lattice)
    spec = chain_mod.chain_spectrum(ch)
    return np.pi / (np.sqrt(2.0) * g * spec.t_l_0)


def verify_reduction_dynamics(lattice: BlockLattice, g: float, t_grid=None) -> float:
    """Evolve |X> in the full lattice and in the reduced model; return the
    maximum fidelity deviation over the time grid (default: 50 points in
    [0, 2T])."""
    n = lattice.n_sites
    if n + 2 > numkit.DENSE_DIM_CAP:
        raise DomainError(f"full model dimension {n + 2} exceeds {numkit.DENSE_DIM_CAP}")
    if t_grid is None:
        t_grid = np.linspace(0.0, 2.0 * transfer_time(lattice, g), 50)
    dec_full = np.linalg.eigh(full_hamiltonian(lattice, g))
    dec_red = np.linalg.eigh(reduced_hamiltonian(lattice, g))
    psi_full = np.zeros(n + 2)
    psi_full[0] = 1.0
    psi_red = np.zeros(2 * lattice.l + 3)
    psi_red[0] = 1.0
    dev = 0.0
    for t in np.asarray(t_grid, dtype=float):
        ff = abs(evolve(dec_full, psi_full, t)[-1]) ** 2
        fr = abs(evolve(dec_red, psi_red, t)[-1]) ** 2
        dev = max(dev, abs(ff - fr))
    return dev
