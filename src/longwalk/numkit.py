"""Numerical kernels: symmetric eigensolvers, spectral time evolution, the
endpoint-coupled-channel transfer amplitude, circulant spectra in d
dimensions (by real FFT at every even length), and least-squares fits.

Everything here is pure and deterministic.  Every eigensolve, tridiagonal
or dense, runs through numpy's LAPACK eigh, with an absolute-accuracy model
eps*||H||.  Only numpy is imported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DENSE_DIM_CAP = 4096


@dataclass(frozen=True)
class SymmetricEigenDecomposition:
    """Eigenvalues ascending; eigenvector column j pairs with eigenvalue j."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def dim(self) -> int:
        return self.eigenvalues.shape[0]


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float
    residual_sse: float


@dataclass(frozen=True)
class PowerLawOffsetFit:
    """Parameters of y = sum_j amplitudes[j-1] * x**(j*exponent) + offset,
    j = 1..len(amplitudes)."""

    amplitudes: tuple[float, ...]
    exponent: float
    offset: float
    residual_sse: float

    @property
    def amplitude(self) -> float:
        """Amplitude of the leading correction x**exponent."""
        return self.amplitudes[0]


def eigh_tridiagonal(diagonal, offdiagonal) -> SymmetricEigenDecomposition:
    """Full eigendecomposition of a real symmetric tridiagonal matrix.

    Builds the dense matrix and solves it with eigh_dense, so its symmetry
    check and DENSE_DIM_CAP apply.  On the strongly graded chain sectors at
    the precision guard's edge this is the more accurate solver: against a
    30-digit mpmath solve at d=3 alpha=1.5 l=28 and d=1 alpha=1.9 l=46, the
    chain's Q is off by <= 2.2e-16 and E_{l-2} by <= 6.5e-10 relative,
    where LAPACK's bisection + inverse iteration ('stebz') gave 4.6e-6 and
    9.3e-6 (tests/test_chain.py, TestGuardEdgeAccuracy).
    """
    d = np.asarray(diagonal, dtype=float)
    e = np.asarray(offdiagonal, dtype=float)
    if d.ndim != 1 or e.ndim != 1 or e.shape[0] != d.shape[0] - 1:
        raise DomainError(
            f"offdiagonal length must be len(diagonal)-1, got {e.shape[0]} vs {d.shape[0]}"
        )
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise DomainError("non-finite entries in tridiagonal input")
    h = np.diag(d)
    i = np.arange(e.shape[0])
    h[i, i + 1] = h[i + 1, i] = e
    return eigh_dense(h)


def eigh_dense(matrix) -> SymmetricEigenDecomposition:
    """Eigendecomposition of a dense real symmetric matrix (dim <= 4096)."""
    h = np.asarray(matrix, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise DomainError(f"matrix must be square, got shape {h.shape}")
    if h.shape[0] > DENSE_DIM_CAP:
        raise DomainError(f"dense dimension {h.shape[0]} exceeds cap {DENSE_DIM_CAP}")
    scale = max(1.0, np.max(np.abs(h)))
    if np.max(np.abs(h - h.T)) > 1e-12 * scale:
        raise DomainError("matrix is not symmetric to 1e-12 relative")
    w, v = np.linalg.eigh(h)
    return SymmetricEigenDecomposition(w, v)


def evolve(decomposition: SymmetricEigenDecomposition, initial, time: float) -> np.ndarray:
    """psi(t) = V exp(-i lambda t) V^T psi0, for a normalized initial vector."""
    psi0 = np.asarray(initial)
    if psi0.shape != (decomposition.dim,):
        raise DomainError(
            f"state dimension {psi0.shape} does not match decomposition dim {decomposition.dim}"
        )
    nrm = np.linalg.norm(psi0)
    if abs(nrm - 1.0) > 1e-12:
        raise DomainError(f"initial state norm {nrm!r} is not 1 within 1e-12")
    v = decomposition.eigenvectors
    phases = np.exp(-1j * decomposition.eigenvalues * time)
    return v @ (phases * (v.T @ psi0))


def endpoint_amplitude(energies, couplings, parities, onsite: float, time: float) -> complex:
    """<Y| exp(-iHt) |X> for two endpoints of on-site energy `onsite` coupled
    to channel modes of energies E_k: X couples to mode k with c_k, Y with
    p_k c_k (p_k = +-1).

    (|X> +- |Y>)/sqrt(2) couples only to the modes of parity +-1, with
    strength sqrt(2) c_k, so each sector is the arrowhead matrix
    [[onsite, sqrt(2) c], [sqrt(2) c, diag(E)]] and the amplitude is
    (A+ - A-)/2 with A = sum_j v_j[0]^2 exp(-i lambda_j t).
    """
    e = np.asarray(energies, dtype=float)
    c = np.asarray(couplings, dtype=float)
    p = np.asarray(parities, dtype=float)
    if not (e.ndim == 1 and e.shape == c.shape == p.shape):
        raise DomainError("energies, couplings and parities must be equal-length 1-d arrays")
    if not np.all(np.abs(p) == 1.0):
        raise DomainError("parities must be +1 or -1")
    sectors = []
    for sign in (1.0, -1.0):
        keep = p == sign
        h = np.diag(np.concatenate([[onsite], e[keep]]))
        h[0, 1:] = h[1:, 0] = np.sqrt(2.0) * c[keep]
        dec = eigh_dense(h)
        sectors.append(np.sum(dec.eigenvectors[0] ** 2 * np.exp(-1j * dec.eigenvalues * time)))
    return complex((sectors[0] - sectors[1]) / 2.0)


def real_dft_circulant(kernel) -> np.ndarray:
    """Spectrum E_k = sum_r kernel[r] cos(2 pi k.r / L) of a real d-dimensional
    circulant whose kernel is symmetric under r_i -> L - r_i on every axis.

    The spectrum is then real with E[..., L-k] = E[..., k], so it comes from
    a real FFT (O(L^d log L) at every even L) mirrored along the last axis;
    that mirror symmetry is exact.
    """
    j = np.asarray(kernel, dtype=float)
    if j.ndim == 0 or any(n % 2 for n in j.shape):
        raise DomainError(f"circulant lengths must be even, got shape {j.shape}")
    tol = 1e-12 * max(1.0, np.max(np.abs(j)))
    for axis in range(j.ndim):
        tail = j[(slice(None),) * axis + (slice(1, None),)]
        if np.max(np.abs(tail - np.flip(tail, axis))) > tol:
            raise DomainError(f"kernel is not symmetric on axis {axis}: j[r] != j[L-r]")
    half = np.fft.rfftn(j).real
    return np.concatenate([half, half[..., -2:0:-1]], axis=-1)


def linear_fit(x, y) -> FitResult:
    """Ordinary least squares y = slope*x + intercept."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < 2:
        raise DomainError("linear_fit needs two equal-length 1-d arrays, length >= 2")
    if np.max(x) == np.min(x):
        raise DomainError("degenerate x: all abscissae equal")
    xm, ym = x.mean(), y.mean()
    sxx = np.sum((x - xm) ** 2)
    slope = np.sum((x - xm) * (y - ym)) / sxx
    intercept = ym - slope * xm
    resid = y - slope * x - intercept
    sse = float(resid @ resid)
    sst = float(np.sum((y - ym) ** 2))
    r2 = 1.0 if sst <= 1e-300 else 1.0 - sse / sst
    return FitResult(float(slope), float(intercept), float(min(max(r2, 0.0), 1.0)), sse)


def _basis(x: np.ndarray, b, corrections: int) -> np.ndarray:
    """Design matrix [x^b, x^(2b), ..., x^(n b), 1], n = corrections; an
    array of b gives one matrix per b along a leading axis."""
    powers = np.asarray(b, dtype=float)[..., None, None] * np.arange(1, corrections + 1)
    cols = x[:, None] ** powers
    return np.concatenate([cols, np.ones(cols.shape[:-1] + (1,))], axis=-1)


def _profiled_fit(x: np.ndarray, y: np.ndarray, b: float, corrections: int):
    """For fixed b, solve the linear subproblem
    min ||y - sum_j a_j x^(j b) - c||^2; returns (sse, [a_1..a_n, c])."""
    basis = _basis(x, b, corrections)
    coef, *_ = np.linalg.lstsq(basis, y, rcond=None)
    r = y - basis @ coef
    return float(r @ r), coef


def _scan_sse(x: np.ndarray, y: np.ndarray, bs: np.ndarray, corrections: int) -> np.ndarray:
    """Residual of the same subproblem at every b in bs, in one batched QR
    (a lstsq call per scan point would double the cost of the fit)."""
    q = np.linalg.qr(_basis(x, bs, corrections))[0]
    r = y - (q @ (y @ q)[..., None])[..., 0]
    return (r * r).sum(axis=-1)


# exponent search bracket: every exponent appearing in the sweeps lies in (0, 2]
POWERLAW_B_RANGE = (0.01, 4.0)
# log-spaced scan of the bracket that locates the best valley before the
# golden-section refinement: with two corrections the profile in b can have
# more than one local minimum
_POWERLAW_B_SCAN = 48
# bracket width at termination; tighter than strictly needed so the
# exact-data recovery contract (1e-6 relative) and the rescaling-invariance
# contract (1e-10) hold with margin
_POWERLAW_B_TOL = 1e-11


def powerlaw_offset_fit(x, y, corrections: int = 1) -> PowerLawOffsetFit:
    """Fit y = sum_{j=1..corrections} a_j x^(j b) + c with (a_j, c) profiled out.

    b is found by a log-spaced scan of POWERLAW_B_RANGE, then golden-section
    search between the neighbours of the best scan point.  Needs at least
    corrections + 3 points (one more than the parameters).
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1 or x.shape[0] < corrections + 3:
        raise DomainError(
            f"powerlaw_offset_fit with {corrections} correction(s) needs "
            f">= {corrections + 3} points"
        )
    if np.any(x <= 0):
        raise DomainError("all x must be positive")
    if np.unique(x).shape[0] != x.shape[0]:
        raise DomainError("x values must be distinct")

    def sse(b):
        return _profiled_fit(x, y, b, corrections)[0]

    grid = np.geomspace(*POWERLAW_B_RANGE, _POWERLAW_B_SCAN)
    best = int(np.argmin(_scan_sse(x, y, grid, corrections)))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.shape[0] - 1)]
    gr = (np.sqrt(5.0) - 1.0) / 2.0
    c1 = hi - gr * (hi - lo)
    c2 = lo + gr * (hi - lo)
    f1, f2 = sse(c1), sse(c2)
    while hi - lo > _POWERLAW_B_TOL:
        if f1 < f2:
            hi, c2, f2 = c2, c1, f1
            c1 = hi - gr * (hi - lo)
            f1 = sse(c1)
        else:
            lo, c1, f1 = c1, c2, f2
            c2 = lo + gr * (hi - lo)
            f2 = sse(c2)
    b = 0.5 * (lo + hi)
    res, coef = _profiled_fit(x, y, b, corrections)
    return PowerLawOffsetFit(tuple(float(a) for a in coef[:-1]), float(b), float(coef[-1]), res)
