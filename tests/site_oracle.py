"""Site-basis oracle for exact transfers: a state evolved by a dense
eigendecomposition, independently of the spectral measures that
numkit.spectral_amplitude evaluates."""

import numpy as np


def evolve(decomposition, initial, time: float) -> np.ndarray:
    """psi(t) = V exp(-i lambda t) V^T psi0 for a numkit.eigh_dense result."""
    v = decomposition.eigenvectors
    phases = np.exp(-1j * decomposition.eigenvalues * time)
    return v @ (phases * (v.T @ np.asarray(initial)))
