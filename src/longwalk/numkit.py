"""Numerical kernels: symmetric eigensolvers, the amplitude
sum_j w_j exp(-i lambda_j t) of a spectral measure (the step every exact
transfer ends in), the endpoint-coupled-channel transfer amplitude, spectra
of even circulants in d dimensions (by real FFT on the orthant), and
least-squares fits (the power-law offset fit finds its exponent by Brent's
bounded minimisation).

Everything here is pure and deterministic.  Dense eigensolves, and the
parity sectors of endpoint_amplitude up to dimension _SECULAR_MIN_DIM,
run through numpy's LAPACK eigh, with an absolute-accuracy model
eps*||H||.  Larger sectors, arrowhead matrices, go to arrowhead_spectrum,
an O(n^2) secular-equation solver with the same backward error.
Zero-diagonal tridiagonals (the chain's parity sectors) go to
zero_diagonal_eigenvalues, LAPACK's dqds on their bidiagonal half, with a
relative-accuracy model eps*|lambda|, and jacobi_endpoint_weights takes
their eigenvectors' first components from two interlacing spectra.  Only
numpy is imported.
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

    @property
    def on_bracket_edge(self) -> bool:
        """Whether the exponent lies within one scan step of either end of
        POWERLAW_B_RANGE, where the bracket, not the data, may have set it."""
        grid = _powerlaw_b_grid()
        return not grid[1] < self.exponent < grid[-2]


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


def zero_diagonal_eigenvalues(offdiag) -> np.ndarray:
    """Eigenvalues, descending, of the symmetric tridiagonal matrix with zero
    diagonal and off-diagonal `offdiag` (dimension len(offdiag) + 1), each to
    high relative accuracy.

    Ordered even sites first, the matrix is [[0, B], [B^T, 0]], so its
    eigenvalues are +- the singular values of B^T: the square upper
    bidiagonal with diagonal offdiag[0::2], one trailing 0 when the
    dimension is odd (the exact zero eigenvalue), and superdiagonal
    offdiag[1::2].  numpy's values-only SVD (gesdd) leaves an upper
    bidiagonal as it is and ends in LAPACK's dqds, which keeps the relative
    accuracy of every singular value (Demmel and Kahan 1990; Fernando and
    Parlett 1994).  Given as the lower bidiagonal B, the same entries pass
    through a bidiagonalisation first: at d=3 alpha=1.5 l=28 that put the
    chain's smallest energies 1.3e-10 off, against 4.4e-16.
    """
    b = np.asarray(offdiag, dtype=float)
    n = b.shape[0] + 1
    m = (n + 1) // 2
    half = np.zeros((m, m))
    flat = half.reshape(-1)
    flat[: (n // 2) * (m + 1) : m + 1] = b[0::2]
    flat[1 :: m + 1] = b[1::2]
    sigma = np.linalg.svd(half, compute_uv=False)
    return np.concatenate([sigma, -sigma[: n // 2][::-1]])


def jacobi_endpoint_weights(eigenvalues, minor_eigenvalues) -> np.ndarray:
    """Weights |v_j[0]|^2 of a Jacobi matrix's unit eigenvectors, from its
    eigenvalues lambda (descending, distinct) and those, mu, of the matrix
    without its first row and column (descending, interlacing lambda):
    w_j = prod_i (lambda_j - mu_i) / prod_{i != j} (lambda_j - lambda_i)
    (Hochstadt 1974; de Boor and Golub 1978).

    mu_i is paired with lambda_i for i < j and with lambda_{i+1} for i >= j,
    so each ratio lies in [0, 1] and the product cannot overflow.  A factor
    lambda_j - mu_i within 8 eps max(|lambda_j|, |mu_i|) of zero keeps no
    digit, and makes the weight 0; by interlacing, only lambda_j's
    neighbours mu_{j-1} and mu_j can come that close.  Roundoff negatives
    are clamped to 0.
    """
    lam = np.asarray(eigenvalues, dtype=float)
    mu = np.asarray(minor_eigenvalues, dtype=float)
    n = lam.shape[0]
    if not (lam.ndim == mu.ndim == 1 and mu.shape[0] == n - 1):
        raise DomainError("need n eigenvalues and the n - 1 of the minor as 1-d arrays")
    num = lam[:, None] - mu
    # lambda_j - lambda_k with k != j, in order: row j of the n x n
    # differences with its diagonal entry dropped, which is the pairing above
    den = (lam[:, None] - lam).reshape(-1)[1:].reshape(n - 1, n + 1)[:, :-1].reshape(n, n - 1)
    # the factors with the neighbours: num[j, j] = lambda_j - mu_j and
    # num[j + 1, j] = lambda_{j+1} - mu_j
    tol = 8.0 * np.finfo(float).eps
    lost = np.zeros(n, dtype=bool)
    lost[:-1] = np.abs(np.diagonal(num)) <= tol * np.maximum(np.abs(lam[:-1]), np.abs(mu))
    lost[1:] |= np.abs(np.diagonal(num, -1)) <= tol * np.maximum(np.abs(lam[1:]), np.abs(mu))
    with np.errstate(divide="ignore", invalid="ignore"):  # only in lost rows
        weights = np.prod(num / den, axis=1)
    weights[lost] = 0.0
    return np.maximum(weights, 0.0)


def spectral_amplitude(eigenvalues, weights, time: float) -> complex:
    """sum_j w_j exp(-i lambda_j t): the amplitude <a|exp(-iHt)|b> of the
    spectral measure with w_j = v_j[a] v_j[b].

    ArithmeticError if the sum is not finite, or if eps max|lambda| |t| >= 1:
    a rounded eigenvalue puts its phase off by up to that much, so at 1 no
    digit is left (in Python floats an overflow is inf, with no warning).
    """
    lam = np.asarray(eigenvalues, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        amplitude = complex(np.sum(weights * np.exp(-1j * lam * time)))
    if not np.isfinite(amplitude):
        raise ArithmeticError(f"non-finite endpoint amplitude {amplitude} from finite input")
    err = math.ulp(1.0) * float(np.max(np.abs(lam))) * abs(float(time))
    if err >= 1.0:
        raise ArithmeticError(
            f"the phases lambda*t keep no correct digit: eps*max|lambda|*|t| = {err:.3g}")
    return amplitude


def endpoint_amplitude(energies, couplings, parities, onsite: float, time: float) -> complex:
    """<Y| exp(-iHt) |X> for two endpoints of on-site energy `onsite` coupled
    to channel modes of energies E_k: X couples to mode k with c_k, Y with
    p_k c_k (p_k = +-1).

    (|X> +- |Y>)/sqrt(2) couples only to the modes of parity +-1, with
    strength sqrt(2) c_k, so each sector is the arrowhead matrix
    [[onsite, sqrt(2) c], [sqrt(2) c, diag(E)]] and the amplitude is
    (A+ - A-)/2 with A = spectral_amplitude(lambda, v[0]^2, t) of its sector.
    A sector of dimension above _SECULAR_MIN_DIM is solved by
    arrowhead_spectrum in O(n^2), a smaller one by eigh_dense, each of
    dimension <= DENSE_DIM_CAP.  ArithmeticError as in spectral_amplitude.
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
        sectors.append(spectral_amplitude(lam, w, time))
    return (sectors[0] - sectors[1]) / 2.0


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


def dft_workspace(shape) -> tuple[np.ndarray, np.ndarray]:
    """(float, complex) flat buffers for real_dft_circulant of half-axis
    kernels of this shape or any shape no larger on every axis: the float one
    holds an axis mirrored, max_i (2 h_i - 2) prod_{j != i} h_j entries, the
    complex one its transform, prod_i h_i entries."""
    size = math.prod(shape)
    mirrored = max(size // h * (2 * h - 2) for h in shape)
    return np.empty(mirrored), np.empty(size, dtype=complex)


def real_dft_circulant(half, work=None) -> np.ndarray:
    """Spectrum E_k = sum_r J(r) cos(2 pi k.r / L) of a real d-dimensional
    circulant of even side L whose kernel is even on every axis (so is E),
    from J on the half-axes 0 <= r_i <= L/2 to E on the orthant 0 <= k_i <= L/2:
    each axis in turn is mirrored to length L and transformed by a real FFT,
    keeping the real part (a DCT-I).

    Every axis writes into prefixes of one workspace, the (float, complex)
    pair of dft_workspace: the mirrored axis into the float buffer, its
    transform into the complex one.  Without a workspace the call allocates
    its own; with one, a sweep of transforms allocates no array per call, and
    the result is the real view of the complex buffer, valid until the
    workspace is used again.
    """
    e = np.asarray(half, dtype=float)
    if e.ndim == 0 or min(e.shape) < 2:
        raise DomainError(f"half-axis lengths must be >= 2, got shape {e.shape}")
    floats, spectrum = dft_workspace(e.shape) if work is None else work
    spectrum = spectrum[:e.size].reshape(e.shape)  # L/2+1 modes out of each L-point axis
    for axis in range(e.ndim):
        # a basic slice: np.take with an index array measured slower on the sweeps
        mirror = e[(slice(None),) * axis + (slice(-2, 0, -1),)]
        shape = e.shape[:axis] + (2 * e.shape[axis] - 2,) + e.shape[axis + 1:]
        mirrored = np.concatenate([e, mirror], axis=axis,
                                  out=floats[:math.prod(shape)].reshape(shape))
        e = np.fft.rfft(mirrored, axis=axis, out=spectrum).real
    return e


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
# log-spaced scan of the bracket that locates the best valley before Brent's
# refinement: with two corrections the profile in b can have more than one
# local minimum
_POWERLAW_B_SCAN = 48
# absolute part of Brent's tolerance in b; tighter than strictly needed so the
# exact-data recovery contract (1e-6 relative) and the rescaling-invariance
# contract (1e-10) hold with margin
_POWERLAW_B_TOL = 1e-11
# relative part of Brent's tolerance, below which SSE differences are roundoff
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


def _powerlaw_b_grid() -> np.ndarray:
    return np.geomspace(*POWERLAW_B_RANGE, _POWERLAW_B_SCAN)


def _brent_minimize(f, a: float, b: float, tol: float):
    """Brent's minimiser (Algorithms for Minimization without Derivatives, 1973,
    ch. 5) of f(t)[0] over [a, b]; returns (t, f(t)) at the best point found.

    Each step fits a parabola through the three best points and takes its
    vertex when that falls inside the bracket and moves less than half the
    step before last; otherwise it takes a golden-section step into the
    larger part of the bracket.  It stops once the best point lies within
    2 tol1 - (b - a)/2 of the bracket's middle, tol1 = sqrt(eps) |t| + tol/3.
    """
    c = 0.5 * (3.0 - math.sqrt(5.0))
    x = w = v = a + c * (b - a)
    best = f(x)
    fx = fw = fv = best[0]
    step = prev = 0.0
    while True:
        m = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(x) + tol / 3.0
        if abs(x - m) <= 2.0 * tol1 - 0.5 * (b - a):
            return x, best
        p = q = r = 0.0
        if abs(prev) > tol1:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            p, q = (-p, q) if q > 0.0 else (p, -q)
            r, prev = prev, step
        if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
            step = p / q
            if min(x + step - a, b - x - step) < 2.0 * tol1:
                step = math.copysign(tol1, m - x)
        else:
            prev = (b if x < m else a) - x
            step = c * prev
        u = x + (step if abs(step) >= tol1 else math.copysign(tol1, step))
        out = f(u)
        if out[0] <= fx:
            a, b = (a, x) if u < x else (x, b)
            v, fv, w, fw, x, fx, best = w, fw, x, fx, u, out[0], out
        else:
            a, b = (u, b) if u < x else (a, u)
            if out[0] <= fw or w == x:
                v, fv, w, fw = w, fw, u, out[0]
            elif out[0] <= fv or v == x or v == w:
                v, fv = u, out[0]


def powerlaw_offset_fit(x, y, corrections: int = 1) -> PowerLawOffsetFit:
    """Fit y = sum_{j=1..corrections} a_j x^(j b) + c with (a_j, c) profiled out.

    b is found by a log-spaced scan of POWERLAW_B_RANGE, then Brent's
    bounded minimisation between the neighbours of the best scan point.
    Needs at least corrections + 3 points (one more than the parameters).
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
    grid = _powerlaw_b_grid()
    best = int(np.argmin(_scan_sse(x, y, grid, corrections)))
    b, (res, coef) = _brent_minimize(
        lambda t: _profiled_fit(x, y, t, corrections),
        grid[max(best - 1, 0)], grid[min(best + 1, grid.shape[0] - 1)], _POWERLAW_B_TOL)
    return PowerLawOffsetFit(tuple(float(a) for a in coef[:-1]), float(b), float(coef[-1]), res)
