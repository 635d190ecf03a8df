"""Numerical kernels: symmetric eigensolvers, spectral time evolution, the
endpoint-coupled-channel transfer amplitude, circulant spectra in d
dimensions (by real FFT at every even length), and least-squares fits.

Everything here is pure and deterministic.  Tridiagonal and dense
eigensolves, and the parity sectors of endpoint_amplitude up to dimension
_SECULAR_MIN_DIM, run through numpy's LAPACK eigh, with an
absolute-accuracy model eps*||H||.  Larger sectors, arrowhead matrices, go
to arrowhead_spectrum, an O(n^2) secular-equation solver with the same
backward error.  Only numpy is imported.
"""

from __future__ import annotations

import math
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
    hmax = np.max(np.abs(h))  # NaN if any entry is
    if not np.isfinite(hmax):
        raise DomainError("non-finite entries in matrix")
    scale = max(1.0, hmax)
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
    (A+ - A-)/2 with A = sum_j v_j[0]^2 exp(-i lambda_j t).  A sector of
    dimension above _SECULAR_MIN_DIM is solved by arrowhead_spectrum in
    O(n^2), a smaller one by eigh_dense; either way its dimension is capped
    at DENSE_DIM_CAP.
    """
    e = np.asarray(energies, dtype=float)
    c = np.asarray(couplings, dtype=float)
    p = np.asarray(parities, dtype=float)
    if not (e.ndim == 1 and e.shape == c.shape == p.shape):
        raise DomainError("energies, couplings and parities must be equal-length 1-d arrays")
    if not np.all(np.abs(p) == 1.0):
        raise DomainError("parities must be +1 or -1")
    if not (np.all(np.isfinite(e)) and np.all(np.isfinite(c))
            and math.isfinite(onsite) and math.isfinite(time)):
        raise DomainError("non-finite energies, couplings, onsite energy or time")
    sectors = []
    for sign in (1.0, -1.0):
        keep = p == sign
        dim = 1 + int(np.count_nonzero(keep))
        if dim > DENSE_DIM_CAP:
            raise DomainError(f"dense dimension {dim} exceeds cap {DENSE_DIM_CAP}")
        z = np.sqrt(2.0) * c[keep]
        if dim > _SECULAR_MIN_DIM:
            lam, w = arrowhead_spectrum(onsite, e[keep], z)
        else:
            h = np.diag(np.concatenate([[onsite], e[keep]]))
            h[0, 1:] = h[1:, 0] = z
            dec = eigh_dense(h)
            lam, w = dec.eigenvalues, dec.eigenvectors[0] ** 2
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            sectors.append(np.sum(w * np.exp(-1j * lam * time)))
    amplitude = complex((sectors[0] - sectors[1]) / 2.0)
    if not np.isfinite(amplitude):
        raise ArithmeticError(f"non-finite endpoint amplitude {amplitude} from finite input")
    return amplitude


# Sectors above this dimension go to arrowhead_spectrum, smaller ones to
# eigh_dense: below it LAPACK's O(n^3) eigh beats the O(n^2) secular solver,
# whose numpy overhead per iteration does not shrink with n.
_SECULAR_MIN_DIM = 170
# roots per block of the secular iteration: a block holds (block, n) arrays
_SECULAR_BLOCK = 64
# random arrowheads with graded gaps, clusters and couplings down to 1e-15
# of the scale took at most 16 iterations
_SECULAR_MAX_ITER = 50


def arrowhead_spectrum(onsite: float, poles, couplings) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) of the arrowhead [[onsite, z^T], [z, diag(poles)]]
    and the weights v_j[0]^2 of their eigenvectors, in O(n^2) time and with
    no n x n array.

    Couplings |z_k| <= 8 eps max(|onsite|, |poles|, ||z||), at most
    8 eps ||H||, are deflated: their pole is an eigenvalue of weight 0.  So are poles within that distance of the next one, after a
    Givens rotation merges the pair's couplings into one.  The remaining
    poles d_1 < ... < d_m give m + 1 roots of the secular equation
    f(x) = x - onsite + sum_k z_k^2 / (d_k - x), one below d_1, one in each
    gap and one above d_m.  Each root is kept as its nearer pole plus an
    offset tau (the dlaed4 origin shift), so the distances (d_k - origin) -
    tau keep their relative accuracy, and is found by the middle way (Li
    1994): the poles left and right of the root are each modelled by one
    pole matched in value and slope, safeguarded by bisection.  Its weight
    is 1/f'(x) = 1 / (1 + sum_k z_k^2 / ((d_k - origin) - tau)^2), a sum of
    positive terms.
    """
    d = np.asarray(poles, dtype=float)
    z = np.asarray(couplings, dtype=float)
    if not (d.ndim == 1 and d.shape == z.shape):
        raise DomainError("poles and couplings must be equal-length 1-d arrays")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(z)) and math.isfinite(onsite)):
        raise DomainError("non-finite entries in arrowhead input")
    # scaling by the power of two 2^-e just above the largest entry is
    # exact, and keeps z^2 and the squared distances in range
    e = math.frexp(max(abs(onsite), np.max(np.abs(d), initial=0.0),
                       np.max(np.abs(z), initial=0.0)))[1]
    a, order = math.ldexp(onsite, -e), np.argsort(d, kind="stable")
    d, z = np.ldexp(d[order], -e), np.ldexp(z[order], -e)
    # max(|a|, |d_k|, ||z||) <= ||H||
    tol = 8.0 * np.finfo(float).eps * max(abs(a), np.max(np.abs(d), initial=0.0),
                                          float(np.linalg.norm(z)))
    keep = np.abs(z) > tol
    deflated = [d[~keep]]
    d, z2 = d[keep], z[keep] ** 2
    for i in np.flatnonzero(np.diff(d) <= tol):
        if d[i + 1] - d[i] <= tol:  # an earlier merge may have moved d[i + 1]
            r2 = z2[i] + z2[i + 1]
            gap = d[i + 1] - d[i]
            d[i], d[i + 1] = d[i] + z2[i] / r2 * gap, d[i] + z2[i + 1] / r2 * gap
            z2[i], z2[i + 1] = 0.0, r2
    deflated.append(d[z2 == 0.0])
    d, z2 = d[z2 > 0.0], z2[z2 > 0.0]
    lam, w = _secular_roots(a, d, z2)
    lam = np.ldexp(np.concatenate([lam, *deflated]), e)
    w = np.concatenate([w, np.zeros(lam.shape[0] - w.shape[0])])
    order = np.argsort(lam, kind="stable")
    return lam[order], w[order]


def _secular_roots(a: float, d: np.ndarray, z2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The m + 1 roots and weights of x - a + sum_k z2_k / (d_k - x) for sorted,
    distinct poles d with z2 > 0 (see arrowhead_spectrum)."""
    m = d.shape[0]
    if m == 0:
        return np.array([a]), np.array([1.0])
    eps = np.finfo(float).eps
    znorm = math.sqrt(float(np.sum(z2)))
    # root j lies between poles j - 1 and j; its origin starts at the left
    # pole (the only one for the last root), the first root's at pole 0.
    # left/right are the pole distances from the origin (0 on a missing side)
    # and (lo, hi) the bracket of tau.
    gaps = np.diff(d)
    origin = np.concatenate([d[:1], d])
    left = np.zeros(m + 1)
    right = np.concatenate([[0.0], gaps, [0.0]])
    lo = np.concatenate([[min(a - d[0], 0.0) - 2.0 * znorm], np.zeros(m)])
    hi = np.concatenate([[0.0], gaps, [max(a - d[-1], 0.0) + 2.0 * znorm]])
    tau = 0.5 * (lo + hi)
    side = np.zeros(m + 1, dtype=int)  # -1: below every pole, +1: above, 0: a gap
    side[0], side[-1] = -1, 1
    lam = np.empty(m + 1)
    w = np.empty(m + 1)
    ones, inv_z2 = np.ones(m), 1.0 / z2
    rows = min(_SECULAR_BLOCK, m + 1)
    terms_buf, left_buf = np.empty((rows, m)), np.empty((rows, m))
    active = np.arange(m + 1)
    for it in range(_SECULAR_MAX_ITER):
        converged = []
        for start in range(0, active.shape[0], _SECULAR_BLOCK):
            j = active[start:start + _SECULAR_BLOCK]
            t = tau[j]
            # f and f' at the root estimates.  The terms z2/delta are < 0 for
            # the poles left of the root and > 0 right of it, so their
            # negative parts give the left sums psi and dpsi; and
            # z2/delta^2 = (z2/delta)^2 / z2.
            terms, low = terms_buf[:j.shape[0]], left_buf[:j.shape[0]]
            np.subtract(d, origin[j, None], out=terms)
            terms -= t[:, None]
            np.divide(z2, terms, out=terms)
            np.minimum(terms, 0.0, out=low)
            total, psi = terms @ ones, low @ ones
            terms *= terms
            low *= low
            df, dpsi = 1.0 + terms @ inv_z2, low @ inv_z2
            shift = origin[j] - a
            f = shift + t + total
            if it == 0:
                # a root right of its gap's midpoint takes the right pole as origin
                flip = (side[j] == 0) & (f < 0.0)
                if np.any(flip):
                    jf = j[flip]
                    origin[jf] = d[jf]
                    left[jf], right[jf] = -right[jf], 0.0
                    lo[jf], hi[jf], t[flip] = left[jf], 0.0, 0.5 * left[jf]
                    shift = origin[j] - a
            lo[j] = np.where(f < 0.0, t, lo[j])
            hi[j] = np.where(f > 0.0, t, hi[j])
            err = eps * (8.0 * (total - 2.0 * psi + abs(shift) + abs(t)) + abs(t) * df)
            # the middle way: the left poles as psi + s/(left - x), the right
            # ones as phi + S/(right - x), each matched in value and slope at
            # tau; its root x = tau + eta solves qa eta^2 - qb eta + qc = 0.
            # The linear term joins the side away from the origin: modelled
            # by the origin's pole it would halve tau per step when that
            # pole's coupling is tiny.  Outside a gap it is kept exact
            # beside the one pole model.
            dl, dr = left[j] - t, right[j] - t
            near = np.where(side[j] < 0, dr, dl)
            dpsi += right[j] == 0.0
            qa = np.where(side[j] == 0, f - dpsi * dl - (df - dpsi) * dr, 1.0)
            qb = np.where(side[j] == 0, (dl + dr) * f - dl * dr * df, df * near - f)
            qc = np.where(side[j] == 0, dl * dr * f, -f * near)
            # eta_- solves the gaps and the first root, eta_+ the last one
            sgn = np.where(side[j] > 0, 1.0, -1.0)
            root = np.sqrt(np.abs(qb * qb - 4.0 * qa * qc))
            with np.errstate(divide="ignore", invalid="ignore"):  # qa or the denominator may be 0
                eta = np.where(sgn * qb >= 0.0, (qb + sgn * root) / (2.0 * qa),
                               2.0 * qc / (qb - sgn * root))
            # one step closes at most 40 bits of the distance to the origin's
            # pole: a root next to it is approached geometrically, and
            # z2/delta^2 cannot overflow.  A step that leaves the bracket
            # otherwise is replaced by bisection.
            new, lj, hj = t + eta, lo[j], hi[j]
            new = np.where((new * t <= 0.0) | (np.abs(new) < np.abs(t) * 2.0**-40),
                           t * 2.0**-40, new)
            new = np.where((new > lj) & (new < hj), new, 0.5 * (lj + hj))
            conv = ((np.abs(f) <= err) | (new == t)
                    | (hj - lj <= 4.0 * eps * np.maximum(abs(lj), abs(hj))))
            lam[j[conv]] = origin[j[conv]] + t[conv]
            w[j[conv]] = 1.0 / df[conv]
            tau[j] = np.where(conv, t, new)
            converged.append(conv)
        active = active[~np.concatenate(converged)]
        if active.shape[0] == 0:
            return lam, w
    raise ArithmeticError(
        f"secular equation: {active.shape[0]} of {m + 1} roots did not converge "
        f"in {_SECULAR_MAX_ITER} iterations")


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
