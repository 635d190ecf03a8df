"""Numerical kernels: the amplitude sum_j w_j exp(-i lambda_j t) of a
spectral measure (the step every exact transfer ends in), the
endpoint-coupled-channel transfer amplitude, eigenvalues of zero-diagonal
tridiagonals and their endpoint weights, spectra of even circulants in d
dimensions (by real FFTs on the orthant, factored four-step at d = 1 from
L = _FACTORED_MIN_L), and the ordinary least-squares line.

Everything here is pure and deterministic.  endpoint_amplitude picks one
solver per transfer from its larger parity sector: up to dimension
_SECULAR_MIN_DIM both sectors go to numpy's LAPACK eigh, with an
absolute-accuracy model eps*||H||; above it both go to arrowhead_spectra,
an O(n^2) secular-equation solver with the same backward error.  Its one
loop serves every sector, and each of its sweeps sums the secular function
and its derivatives at every unconverged root of every sector in row blocks
(_secular_sums, its only O(n^2) step), then steps all those roots at once
on whole vectors.  A call whose rows fit one block takes each pair of sums
in one product over whole rows; only a call over several blocks narrows
the left sums to a band of poles per block.
Zero-diagonal tridiagonals (the chain's parity sectors) go to
zero_diagonal_eigenvalues, LAPACK's dqds on their bidiagonal half, with a
relative-accuracy model eps*|lambda|, and jacobi_endpoint_weights takes
their eigenvectors' first components from two interlacing spectra.  The
chain's site matrix, a zero-diagonal tridiagonal too, goes to
tridiagonal_end_measure: LAPACK's dstevd through ctypes in the OpenBLAS that
numpy's wheel bundles, bit for bit numpy's eigh, which it runs where that
library is missing.  Besides numpy, only the standard library is imported.
"""

from __future__ import annotations

import ctypes  # imported by numpy already
import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

DENSE_DIM_CAP = 4096


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    r_squared: float


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


def tridiagonal_end_measure(bond_rows) -> tuple[np.ndarray, np.ndarray]:
    """The spectral measure (lambda_j, v_j[0] v_j[-1]) between the two end
    sites of each zero-diagonal tridiagonal whose off-diagonal is one row of
    bond_rows (G, n - 1): eigenvalues ascending and weights, each (G, n).

    Each row goes to LAPACK's dstevd (divide and conquer, dstedc) in the
    OpenBLAS that numpy's wheel bundles, with an absolute-accuracy model
    eps*||H||.  numpy's eigh (dsyevd) of the dense matrix gives the same
    bits: with zero sub-columns its tridiagonalisation returns the input and
    its back-transformation is the identity, its scaling decision is the
    same (the max-norms agree), and it calls dstedc on the same (d, e).  So
    where the library lacks the symbol (_dstevd is None), the dense stacked
    eigh serves instead.  LinAlgError if a solve does not converge.
    """
    rows = np.asarray(bond_rows, dtype=float)
    count, n = rows.shape[0], rows.shape[1] + 1
    dstevd = _dstevd()
    if dstevd is None:
        h = np.zeros((count, n * n))
        h[:, 1::n + 1] = h[:, n::n + 1] = rows
        lam, v = np.linalg.eigh(h.reshape(-1, n, n))
        return lam, v[:, 0] * v[:, -1]
    lam, weights = np.zeros((count, n)), np.empty((count, n))
    e, z = np.empty(n - 1), np.empty((n, n))  # z in column-major order: row j is v_j
    for i in range(count):
        e[:] = rows[i]  # dstevd overwrites its off-diagonal
        info = dstevd(102, b"V", n, lam[i].ctypes.data, e.ctypes.data, z.ctypes.data, n)
        if info:
            raise np.linalg.LinAlgError(f"dstevd failed with info={info} on a tridiagonal "
                                        f"of dimension {n}")
        np.multiply(z[:, 0], z[:, -1], out=weights[i])
    return lam, weights


@functools.cache
def _dstevd():
    """LAPACKE_dstevd (64-bit integers) from the OpenBLAS that numpy's wheel
    bundles (numpy.libs/ on Linux and Windows, numpy/.dylibs/ on macOS), the
    library numpy's eigh runs on; None where numpy has no such library (conda
    and distribution builds) or it lacks the symbol."""
    home = os.path.dirname(np.__file__)
    for folder in (os.path.join(home, os.pardir, "numpy.libs"), os.path.join(home, ".dylibs")):
        names = sorted(os.listdir(folder)) if os.path.isdir(folder) else []
        for name in names:
            if not name.startswith("libscipy_openblas64_"):
                continue
            try:
                solve = ctypes.CDLL(os.path.join(folder, name)).scipy_LAPACKE_dstevd64_
            except (OSError, AttributeError):
                continue
            # (layout: 102 is column-major, jobz, n, d, e, z, ldz) -> info
            solve.argtypes = (ctypes.c_int, ctypes.c_char, ctypes.c_int64, ctypes.c_void_p,
                              ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64)
            solve.restype = ctypes.c_int64
            return solve
    return None


def spectral_amplitude(eigenvalues, weights, time):
    """sum_j w_j exp(-i lambda_j t): the amplitude <a|exp(-iHt)|b> of the
    spectral measure with w_j = v_j[a] v_j[b].  Rows of eigenvalues and
    weights, (G, n), with G times give the G amplitudes as an array.

    ArithmeticError if a sum is not finite, or if eps max|lambda| |t| >= 1:
    a rounded eigenvalue puts its phase off by up to that much, so at 1 no
    digit is left (in Python floats an overflow is inf, with no warning).
    """
    lam, time = np.asarray(eigenvalues, dtype=float), np.asarray(time, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        amplitude = (weights * np.exp(-1j * lam * time[..., None])).sum(axis=-1)
    if not np.isfinite(amplitude).all():
        raise ArithmeticError(f"non-finite endpoint amplitude {amplitude} from finite input")
    err = (math.ulp(1.0) * np.abs(lam).max(axis=-1) * np.abs(time)).max()
    if err >= 1.0:
        raise ArithmeticError(
            f"the phases lambda*t keep no correct digit: eps*max|lambda|*|t| = {err:.3g}")
    return amplitude if amplitude.ndim else complex(amplitude)


def endpoint_amplitude(energies, couplings, parities, onsite, time):
    """<Y| exp(-iHt) |X> for two endpoints of on-site energy `onsite` coupled
    to channel modes of energies E_k: X couples to mode k with c_k, Y with
    p_k c_k (p_k = +-1).  Couplings of shape (G, n) with G on-site energies
    and times are G channels on the same modes, and give an array of G
    amplitudes.

    (|X> +- |Y>)/sqrt(2) couples only to the modes of parity +-1, with
    strength sqrt(2) c_k, so each sector is the arrowhead matrix
    [[onsite, sqrt(2) c], [sqrt(2) c, diag(E)]] and the amplitude is
    (A+ - A-)/2 with A = spectral_amplitude(lambda, v[0]^2, t) of its sector.
    All sectors go to one solver, picked by the larger parity: above
    _SECULAR_MIN_DIM they are solved together by arrowhead_spectra in
    O(n^2), otherwise by numpy's eigh, one stacked call per parity; each is
    of dimension <= DENSE_DIM_CAP.  A grid is solved whole as handed in, each
    point bit for bit the channel alone.  ArithmeticError as in spectral_amplitude.
    """
    e, c, p, onsite, time = (np.asarray(x, dtype=float)
                             for x in (energies, couplings, parities, onsite, time))
    grid = c.shape[:-1]
    if not (e.ndim == 1 and c.ndim in (1, 2) and c.shape[-1:] == e.shape == p.shape
            and onsite.shape == time.shape == grid):
        raise DomainError("energies, couplings and parities must be equal-length 1-d arrays "
                          "(couplings: or rows of them, one per on-site energy and time)")
    if not np.all(np.abs(p) == 1.0):
        raise DomainError("parities must be +1 or -1")
    if not all(np.isfinite(x).all() for x in (e, c, onsite, time)):
        raise DomainError("non-finite energies, couplings, onsite energy or time")
    sectors = [(e[p == sign], np.sqrt(2.0) * c[..., p == sign]) for sign in (1.0, -1.0)]
    dim = 1 + max(poles.shape[0] for poles, _ in sectors)
    if dim > DENSE_DIM_CAP:
        raise DomainError(f"dense dimension {dim} exceeds cap {DENSE_DIM_CAP}")
    if dim > _SECULAR_MIN_DIM:
        # one loop over the two sectors of every channel, + and - in turn
        rows = [(poles, z.reshape(onsite.size, poles.shape[0])) for poles, z in sectors]
        solved = arrowhead_spectra(np.repeat(onsite.ravel(), 2),
                                   [(poles, z[k]) for k in range(onsite.size) for poles, z in rows])
        spectra = [[np.concatenate(part).reshape(grid + (-1,)) for part in zip(*solved[sign::2])]
                   for sign in (0, 1)]
    else:
        spectra = []
        for poles, z in sectors:
            m = poles.shape[0]
            h = np.zeros(grid + (m + 1, m + 1))
            h[..., 0, 0] = onsite
            h.reshape(grid + (-1,))[..., m + 2::m + 2] = poles
            h[..., 0, 1:] = h[..., 1:, 0] = z
            lam, v = np.linalg.eigh(h)
            spectra.append((lam, v[..., 0, :] ** 2))
    plus, minus = (spectral_amplitude(lam, w, time) for lam, w in spectra)
    return (plus - minus) / 2.0


# A transfer whose larger sector is above this dimension goes to the joint
# secular solve, a smaller one to numpy's eigh.  With both of the ring's
# sectors in one loop and one-block sums, the two tie near dimension 75-80
# (about 0.75 ms a transfer); below, LAPACK's O(n^3) eigh wins, because the
# secular solver's numpy overhead per sweep does not shrink with n.
_SECULAR_MIN_DIM = 80
# entries per row block of _secular_sums: a block holds (rows, n) arrays of
# about this many floats
_SECULAR_BLOCK = 2**16
# random arrowheads with graded gaps, clusters and couplings down to 1e-15
# of the scale took at most 18 iterations
_SECULAR_MAX_ITER = 50


def arrowhead_spectra(onsite, sectors) -> list[tuple[np.ndarray, np.ndarray]]:
    """Eigenvalues (ascending) of the arrowhead [[onsite, z^T], [z, diag(poles)]]
    and the weights v_j[0]^2 of their eigenvectors, for each (poles,
    couplings) pair in `sectors`, in O(n^2) time and with no n x n array;
    `onsite` is one energy for all sectors or one per sector.
    Every sector's roots are found in one secular loop, so the loop's
    per-sweep cost is paid once for all of them; each result is bit for bit
    that of the sector alone.

    Deflation is relative to each pole.  A coupling |z_k| <= 8 eps |d_k -
    onsite| is dropped: its pole is an eigenvalue of weight 0.  So is a pole
    within 8 eps max(|d_i|, |d_{i+1}|) of the next one, after a Givens
    rotation merges the pair's couplings into one.  The remaining poles
    d_1 < ... < d_m give m + 1 roots of the secular equation
    f(x) = x - onsite + sum_k z_k^2 / (d_k - x), one below d_1, one in each
    gap and one above d_m.  Each root is kept as its nearer pole plus an
    offset tau (the dlaed4 origin shift), so the distances (d_k - origin) -
    tau keep their relative accuracy, and is found by the middle way (Li
    1994): the poles left and right of the root are each modelled by one
    pole matched in value and slope, safeguarded by bisection.  A root in a
    gap starts from the gap's midpoint.  With at most about 255 poles (one
    row block of the sums per sweep), its first step is the middle way's
    and the next two are Gragg's third-order steps where they apply;
    otherwise its first step is dlaed4's, the gap's two poles kept exact
    and the others the constant they sum to there.  An end root starts from
    16 probes of f across the bracket from the secular equation itself,
    r_1 <= |tau| <= r_all with r = (sqrt(s^2 + 4 z^2) - s) / 2 for the
    nearest pole's z^2 and for ||z||^2, s = onsite - d_1 for the first root
    and d_m - onsite for the last (see _secular_roots).  The weight of a
    root x is 1/f'(x) = 1 / (1 + sum_k z_k^2 / ((d_k - origin) - tau)^2), a
    sum of positive terms.
    """
    prepared = []
    for a, (poles, couplings) in zip(np.full(len(sectors), onsite).tolist(), sectors):
        d = np.asarray(poles, dtype=float)
        z = np.asarray(couplings, dtype=float)
        if not (d.ndim == 1 and d.shape == z.shape):
            raise DomainError("poles and couplings must be equal-length 1-d arrays")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(z)) and math.isfinite(a)):
            raise DomainError("non-finite entries in arrowhead input")
        prepared.append(_deflate(a, d, z))
    spectra = []
    for (e, _, _, _, deflated), (lam, w) in zip(
            prepared, _secular_roots([p[1:4] for p in prepared])):
        lam = np.ldexp(np.concatenate([lam, *deflated]), e)
        w = np.concatenate([w, np.zeros(lam.shape[0] - w.shape[0])])
        order = np.argsort(lam, kind="stable")
        spectra.append((lam[order], w[order]))
    return spectra


def _deflate(onsite: float, d: np.ndarray, z: np.ndarray):
    """(e, a, d, z2, deflated): the arrowhead scaled by 2^-e, its sorted
    poles d and squared couplings z2 left after deflation (see
    arrowhead_spectra), and the deflated poles, which are eigenvalues of
    weight 0."""
    # scaling by the power of two 2^-e just above the largest entry is
    # exact, and keeps z^2 and the squared distances in range
    e = math.frexp(max(abs(onsite), np.max(np.abs(d), initial=0.0),
                       np.max(np.abs(z), initial=0.0)))[1]
    a, order = math.ldexp(onsite, -e), np.argsort(d, kind="stable")
    d, z = np.ldexp(d[order], -e), np.ldexp(z[order], -e)
    tol = 8.0 * np.finfo(float).eps  # relative to each pole (see arrowhead_spectra)
    keep = np.abs(z) > tol * np.abs(d - a)
    deflated = [d[~keep]]
    d, z2 = d[keep], z[keep] ** 2
    for i in np.flatnonzero(np.diff(d) <= tol * np.maximum(np.abs(d[:-1]), np.abs(d[1:]))):
        # an earlier merge may have moved d[i + 1]
        if d[i + 1] - d[i] <= tol * max(abs(d[i]), abs(d[i + 1])):
            r2 = z2[i] + z2[i + 1]
            gap = d[i + 1] - d[i]
            d[i], d[i + 1] = d[i] + z2[i] / r2 * gap, d[i] + z2[i + 1] / r2 * gap
            z2[i], z2[i + 1] = 0.0, r2
    deflated.append(d[z2 == 0.0])
    return e, a, d[z2 > 0.0], z2[z2 > 0.0], deflated


def _end_bracket(s: float, znorm2: float) -> float:
    """Bound on the distance r of an end root from its pole.  For the first
    root x = d_1 - r, f(x) = 0 reads s + r = sum_k z2_k / (d_k - x) with
    s = a - d_1, and d_k - x >= r gives r^2 + s r <= ||z||^2, so
    r <= (sqrt(s^2 + 4 ||z||^2) - s) / 2; the last root mirrors it with
    s = d_m - a.  Widened by 4 eps, so that a root on the bound (one pole)
    stays inside."""
    h = math.hypot(s, 2.0 * math.sqrt(znorm2))
    r = 0.5 * (h - s) if s <= 0.0 else 2.0 * znorm2 / (h + s)
    return r * (1.0 + 4.0 * np.finfo(float).eps)


def _secular_sums(d: np.ndarray, z2: np.ndarray, roots: np.ndarray, origin: np.ndarray,
                  tau: np.ndarray, work: np.ndarray | None = None,
                  cubes: bool = False) -> np.ndarray:
    """Rows sum_k z2_k/delta_k, its part over the poles left of the root,
    sum_k z2_k/delta_k^2, its left part and, with `cubes`, sum_k
    z2_k/delta_k^3, delta_k = (d_k - origin) - tau, for the estimates
    origin + tau of the roots with these ascending indices (root j lies
    between poles j - 1 and j): the O(n^2) part of _secular_roots.

    Rows go in blocks of _secular_block_rows(m, n), through a flat `work`
    buffer of (3 with cubes, else 2) _secular_block_rows(m, n) m entries or
    more (allocated when None).  A left part takes the terms with
    1/delta < 0 (left of the root) over a band of poles, stored right after
    the block's 1/delta.  When the rows fit one block, the band is the whole
    row, so the two are one (2, n, m) stack and each sum with its left part
    is one product.  The band split is for calls that span several blocks,
    where the saved work outweighs the extra products: the poles below a
    block's first root are left of every row and those at or above its
    last root right of every row, so the band is the poles between.
    """
    m, n = d.shape[0], roots.shape[0]
    out = np.empty((5 if cubes else 4, n))
    rows = _secular_block_rows(m, n)
    if work is None:
        work = np.empty((3 if cubes else 2) * rows * m)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        size = (stop - start) * m
        first, last = (0, m) if rows == n else (int(roots[start]), int(roots[stop - 1]))
        # 1/delta and the band right after it, one prefix of the buffer
        head = work[:size + (stop - start) * (last - first)]
        inv, band = head[:size].reshape(stop - start, m), head[size:].reshape(stop - start, -1)
        np.subtract(d, origin[start:stop, None], out=inv)
        inv -= tau[start:stop, None]
        np.reciprocal(inv, out=inv)
        np.minimum(inv[:, first:last], 0.0, out=band)
        if cubes:
            cube = work[head.shape[0]:][:size].reshape(stop - start, m)
            out[4, start:stop] = np.multiply(np.square(inv, out=cube), inv, out=cube) @ z2
        for row in (0, 2):  # the sums of 1/delta, then of 1/delta^2
            if row:
                np.square(head, out=head)
            if rows == n:
                # one block: its band is the whole row, so each pair of sums
                # is one product of the (2, n, m) stack
                out[row:row + 2] = head.reshape(2, n, m) @ z2
            else:
                out[row, start:stop] = inv @ z2
                out[row + 1, start:stop] = inv[:, :first] @ z2[:first] + band @ z2[first:last]
    return out


def _secular_block_rows(m: int, n: int) -> int:
    """Rows per block of _secular_sums for m poles and n roots: a block holds
    (rows, m) arrays of about _SECULAR_BLOCK entries."""
    return min(n, max(1, _SECULAR_BLOCK // m))


def _secular_roots(sectors) -> list[tuple[np.ndarray, np.ndarray]]:
    """The m + 1 roots and weights of x - a + sum_k z2_k / (d_k - x) for each
    (a, d, z2) in `sectors`, with sorted, distinct poles d and z2 > 0 (see
    arrowhead_spectra).

    One loop serves every sector.  Each sweep evaluates the sums at all
    unconverged roots (_secular_sums, sector by sector, through one
    workspace) and then takes one step for each of them on whole vectors;
    converged roots leave the vectors.  The columns of the state stay
    grouped by sector and ascending within it, so every sector's sums see
    the columns they would alone.

    A root in a gap starts at the gap's midpoint.  An end root is stepped as
    a gap root whose outer pole lies 2^40 away, beyond every distance of the
    scaled problem, where the pole the middle way fits to it is the linear
    term.  Its first sweep evaluates f at 16 probes, log-spaced in the
    distance r from its pole between _end_bracket with the nearest pole's
    coupling alone (the other terms of the secular equation have the same
    sign there) and with all of them; its first step fits one pole to the
    sum at the two probes around the sign change, and only the one on the
    pole's side stays.

    In a sector whose sweep is one block of _secular_sums, the second and
    third step are third-order (Gragg) steps where they can be, and the
    first is the middle way's; other sectors take dlaed4's first step and
    then the middle way, as an extra pass for sum z2/delta^3 over many
    blocks costs more than the sweeps it saves.
    """
    eps = np.finfo(float).eps
    probes, far = 16, 2.0**40
    steps = np.arange(probes) / (probes - 1.0)
    # Per root, a column of the state: its origin, which starts at the left
    # pole (pole 0 for the first root), origin - a, the distances left/right
    # of the poles beside it from the origin, the bracket (lo, hi) of tau,
    # tau itself, 1 where the origin is the root's right pole, the root's
    # index j in its sector (it lies between poles j - 1 and j) and its
    # place in the output; for the first sweep only, 1 in a gap, the right
    # pole and its origin - a.  A sector with no pole has the root a of
    # weight 1 and no column.
    columns, groups, side, bound, starts, size, width, need = [], [], [], [], [], 0, 0, 0
    small = [d.shape[0] * (d.shape[0] + 1) <= _SECULAR_BLOCK for _, d, _ in sectors]
    for (a, d, z2), one in zip(sectors, small):
        m = d.shape[0]
        starts.append(size)
        if m > 0:
            znorm2 = float(np.sum(z2))
            col = np.zeros((13, m - 1 + 2 * probes))
            (origin, shift, left, right, lo, hi, t, right_origin, j, pos,
             gap_root, right_pole, right_shift) = col
            first, gap, last = (slice(0, probes), slice(probes, probes + m - 1),
                                slice(probes + m - 1, None))
            origin[first], origin[gap], origin[last] = d[0], d[:-1], d[-1]
            np.subtract(origin, a, out=shift)
            left[first], right[last] = -far, far
            right[gap] = hi[gap] = np.diff(d)
            np.multiply(right[gap], 0.5, out=t[gap])
            # the end roots' distances from their poles lie in [r_lo, r_hi]
            r_lo = np.array([_end_bracket(a - d[0], z2[0]), _end_bracket(d[-1] - a, z2[-1])])
            r_hi = np.array([_end_bracket(a - d[0], znorm2), _end_bracket(d[-1] - a, znorm2)])
            r = r_lo[:, None] * (r_hi / r_lo)[:, None] ** steps
            t[first], t[last], lo[first], hi[last] = -r[0], r[1], -r_hi[0], r_hi[1]
            right_origin[first] = gap_root[gap] = 1.0
            j[gap], j[last] = np.arange(1, m), m
            np.add(j, size, out=pos)
            right_pole[gap] = d[1:]
            np.subtract(right_pole, a, out=right_shift)
            columns.append(col)
            groups += [width + np.arange(probes), width + m - 1 + probes + np.arange(probes)]
            side += [1.0, -1.0]
            bound += [-r_hi[0], r_hi[1]]
            width += col.shape[1]
            need = max(need, (3 if one else 2) * _secular_block_rows(m, col.shape[1]) * m)
        size += m + 1
    starts.append(size)
    lam, w = np.empty(size), np.empty(size)
    for (a, d, _), s0 in zip(sectors, starts):
        if d.shape[0] == 0:
            lam[s0], w[s0] = a, 1.0
    spectra = [(lam[s0:s1], w[s0:s1]) for s0, s1 in zip(starts[:-1], starts[1:])]
    if not columns:
        return spectra
    state = np.concatenate(columns, axis=1)
    groups, side, rows = np.array(groups), np.array(side), np.arange(len(groups))
    # per end root: the pole (tau = 0), its probes and the far end of its bracket
    edges = np.concatenate([np.zeros((rows.shape[0], 1)), state[6, groups],
                            np.array(bound)[:, None]], axis=1)
    bounds = np.searchsorted(state[9], starts)
    work = np.empty(need)
    # qa, or the denominator of eta, may be 0, where eta is not used
    with np.errstate(divide="ignore", invalid="ignore"):  # and restores the buffer size
        # numpy's default buffer (8192 elements) takes the broadcast
        # subtractions of _secular_sums through a slower loop: with 256, one
        # sweep of all roots took 14-35% less time at n = 501 to 4096 (numpy 2.4)
        np.setbufsize(256)
        for it in range(_SECULAR_MAX_ITER):
            origin, shift, left, right, lo, hi, t, right_origin, j, pos = state[:10]
            cubes = 1 <= it < 3
            sums = np.full((5, state.shape[1]), np.nan) if cubes else np.empty((4, state.shape[1]))
            for (_, d, z2), one, b0, b1 in zip(sectors, small, bounds[:-1], bounds[1:]):
                if b1 > b0:
                    sums[:4 + (cubes and one), b0:b1] = _secular_sums(
                        d, z2, j[b0:b1], origin[b0:b1], t[b0:b1], work, cubes and one)
            total, psi, df, dpsi = sums[:4]
            df += 1.0
            f = shift + t
            f += total
            if it == 0:
                # a root right of its gap's midpoint takes the right pole as origin
                flip = (f < 0.0) & (state[10] > 0.0)
                origin[flip], shift[flip] = state[11, flip], state[12, flip]
                left[flip], right[flip], right_origin[flip] = -right[flip], 0.0, 1.0
                lo[flip], hi[flip], t[flip] = left[flip], 0.0, 0.5 * left[flip]
            np.copyto(lo, t, where=f < 0.0)
            np.copyto(hi, t, where=f > 0.0)
            abs_t = np.abs(t)
            err = eps * (8.0 * (total - 2.0 * psi + np.abs(shift) + abs_t) + abs_t * df)
            # Each new tau is tau + eta, eta the root of qa eta^2 - qb eta + qc
            # = 0 between the two poles.  f is modelled as
            # c + s/(left - x) + S/(right - x); with f and f' matched at tau,
            # qb and qc follow, and qa = c.
            dl, dr = left - t, right - t
            dldr = dl * dr
            qb = (dl + dr) * f - dldr * df
            qc = dldr * f
            # The middle way (Li 1994): the left poles as psi + s/(left - x),
            # the right ones as phi + S/(right - x), each matched in value and
            # slope at tau.  The linear term joins the side away from the
            # origin: modelled by the origin's pole it would halve tau per
            # step when that pole's coupling is tiny.
            dpsi += right_origin
            qa = f - dpsi * dl - (df - dpsi) * dr
            if cubes:
                # Gragg's step matches f''/2 = sum z2/delta^3 too,
                # c = f - f' (dl + dr) + f''/2 dl dr.  It needs s, S > 0, and is
                # taken where the linear term carries under a tenth of f'.
                d2f = sums[4]
                gragg = (df > 11.0) & (df > d2f * dl) & (df > d2f * dr)
                qa = np.where(gragg, f - df * (dl + dr) + d2f * dldr, qa)
            if it == 0:
                # Outside the small sectors, the first step from a gap's
                # midpoint is dlaed4's: its two poles kept exact, the rest the
                # constant c they sum to there.
                for (_, d, z2), one, b0 in zip(sectors, small, bounds[:-1]):
                    if not one:
                        gap = slice(b0 + probes, b0 + probes + d.shape[0] - 1)
                        zl, zr = z2[:-1], z2[1:]
                        c = f[gap] - zl / dl[gap] - zr / dr[gap]
                        qa[gap] = c
                        qb[gap] = c * (dl[gap] + dr[gap]) + zl + zr
                        qc[gap] = c * dldr[gap] + zl * dr[gap] + zr * dl[gap]
                # Of an end root's probes, the first `inside` lie between its
                # pole and the root (tau f < 0); the last of them stays, with
                # the probes around the root as bracket and, as model, the
                # linear term plus the sum fitted by one pole, A/(p - tau),
                # through the two probes (the first root's eta_-, and the
                # last root's eta_+ as eta_- of the negated quadratic).
                inside = np.count_nonzero(t[groups] * f[groups] < 0.0, axis=1)
                k = np.minimum(np.maximum(inside, 1), probes - 1)
                near, out = groups[rows, k - 1], groups[rows, k]
                p = (total[near] * t[near] - total[out] * t[out]) / (total[near] - total[out])
                qa[near] = side
                qb[near] = side * (p - t[near] - f[near] + total[near])
                qc[near] = -side * f[near] * (p - t[near])
                lo[near] = np.minimum(edges[rows, inside], edges[rows, inside + 1])
                hi[near] = np.maximum(edges[rows, inside], edges[rows, inside + 1])
            root = np.sqrt(np.abs(qb * qb - 4.0 * qa * qc))
            eta = np.where(qb <= 0.0, (qb - root) / (2.0 * qa), 2.0 * qc / (qb + root))
            # one step closes at most 40 bits of the distance to the origin's
            # pole: a root next to it is approached geometrically, and
            # z2/delta^2 cannot overflow.  A step that leaves the bracket
            # otherwise is replaced by bisection.
            new = t + eta
            new = np.where(new / t < 2.0**-40, t * 2.0**-40, new)
            new = np.where((new > lo) & (new < hi), new, 0.5 * (lo + hi))
            conv = ((np.abs(f) <= err) | (new == t)
                    | (hi - lo <= 4.0 * eps * np.maximum(-lo, hi)))
            keep = ~conv
            if it == 0:
                # the other probes leave; the kept one takes its step, as a
                # probe on a bound of _end_bracket lies 4 eps off the root
                keep[groups] = conv[groups] = False
                keep[near] = True
            if conv.any():
                done = pos[conv].astype(np.intp)
                lam[done] = origin[conv] + t[conv]
                w[done] = 1.0 / df[conv]
            t[:] = new
            if it == 0 or not keep.all():
                state = state[:10, keep]
                if state.shape[1] == 0:
                    return spectra
                bounds = np.searchsorted(state[9], starts)
    raise ArithmeticError(
        f"secular equation: {state.shape[1]} of {size} roots did not converge "
        f"in {_SECULAR_MAX_ITER} iterations")


# A d = 1 transform of length L at or above this goes to the four-step
# _real_even_dft, a shorter one to one real FFT of the mirrored row, whose
# fewer numpy calls win below it.  Mirrored against factored, with a
# workspace (medians of 400 interleaved calls, 2 vCPUs): 6.3 against 18.6 us
# at 2^8, 27.5 against 33.0 us at 2^12, then 57.8 against 45.4 us at 2^13
# and 111 against 72 us at 2^14.
_FACTORED_MIN_L = 2**13


def _factored(shape) -> bool:
    """Whether a half-axis kernel of this shape goes to _real_even_dft: at
    d = 1 from L = 2 h - 2 = _FACTORED_MIN_L on, where its layout differs too."""
    return len(shape) == 1 and 2 * shape[0] - 2 >= _FACTORED_MIN_L


def _split(L: int) -> tuple[int, int]:
    """L = R * C with R the largest even divisor of L not above sqrt(L)."""
    R = next((r for r in range(math.isqrt(L) // 2 * 2, 2, -2) if L % r == 0), 2)
    return R, L // R


@functools.lru_cache(maxsize=64)
def _plan(L: int) -> tuple[int, int, np.ndarray, np.ndarray, np.ndarray]:
    """(R, C, near, far, tail) of _real_even_dft at length L: its split and the
    conjugated twiddles w^(k1 r2), w = exp(2 pi i / L), on the rows
    0 <= k1 <= R/2 and columns 0 <= r2 <= C/2 of the cross transform.  With
    K = isqrt(R/2+1), the rows k1 = a + K b below K B (B = (R/2+1) // K) take
    near[a] far[b], near[a] = w^(a r2) and far[b] = w^(K b r2), and the fewer
    than K rows left their own (tail): under 3 sqrt(R/2+1) rows in all, 120 KiB
    at L = 2^17 against 0.5 MiB for every row.  Each exponent is reduced
    mod L in integers, to [-L/2, L/2), before it is scaled to an angle."""
    R, C = _split(L)
    rows, cols = R // 2 + 1, C // 2 + 1
    K = math.isqrt(rows)
    r2 = np.arange(cols)

    def table(k1):
        t = np.exp((2j * math.pi / L) * ((np.multiply.outer(k1, r2) + L // 2) % L - L // 2))
        t.flags.writeable = False  # shared by every call at this L
        return t

    return (R, C, table(np.arange(K)), table(K * np.arange(rows // K)),
            table(np.arange(rows // K * K, rows)))


def _real_even_dft(half: np.ndarray, floats: np.ndarray, spectrum: np.ndarray) -> np.ndarray:
    """E_k = sum_n x_n cos(2 pi k n / L), 0 <= k <= L/2, of the row x mirrored
    from `half` (x_n = x_{L-n}) by the four-step split L = R * C (Bailey, J.
    Supercomputing 4, 1990): with n = r1 C + r2 and k = k1 + R k2,
    E_k = sum_r2 w_C^(r2 k2) w_L^(r2 k1) sum_r1 x_{r1 C + r2} w_R^(r1 k1),
    w_M = exp(-2 pi i / M).  Column C - r2 of the R x C grid is column r2
    reversed, so only the columns r2 <= C/2 go through the R-point real FFTs,
    and each twiddled row is Hermitian in r2, so one length-C transform with
    real output finishes it.  numpy's hfft is that transform, but numpy
    2.4's hfft ignores out=, so the rows are conjugated in place, twiddled
    by conjugates and finished by irfft, whose exponent has the other sign.
    The grid and the finished rows share the float buffer; the cross
    transform and then the spectrum, in its float view, the complex one."""
    L = 2 * half.size - 2
    R, C, near, far, tail = _plan(L)
    rows, cols = R // 2 + 1, C // 2 + 1
    # rows r1 < R/2 of the grid are the half-axis itself, the others it read backwards
    grid = floats[:R * cols].reshape(R, cols)
    grid[:R // 2] = half[:L // 2].reshape(R // 2, C)[:, :cols]
    grid[R // 2:] = half[L // 2:0:-1].reshape(R // 2, C)[:, :cols]
    cross = np.fft.rfft(grid, axis=0, out=spectrum[:rows * cols].reshape(rows, cols))
    np.conjugate(cross, out=cross)
    split = rows - tail.shape[0]
    body, rest = cross[:split].reshape(-1, near.shape[0], cols), cross[split:]
    body *= near
    body *= far[:, None]
    rest *= tail
    done = np.fft.irfft(cross, n=C, axis=1, norm="forward", out=floats[:rows * C].reshape(rows, C))
    # E_{k1 + R k2} = done[k1, k2]; for k1 > R/2 read E_{L-k} = done[R - k1, C - 1 - k2]
    e = spectrum.view(float)[:L // 2 + 1]
    m = L // 2 // R
    out = e[:m * R].reshape(m, R)
    out[:, :rows] = done[:, :m].T
    out[:, rows:] = done[R // 2 - 1:0:-1, :C - 1 - m:-1].T
    e[m * R:] = done[:L // 2 + 1 - m * R, m]
    return e


def dft_workspace(*shapes) -> tuple[np.ndarray, np.ndarray]:
    """(float, complex) flat buffers for real_dft_circulant of half-axis
    kernels of any of these shapes.  On the per-axis path (d >= 2, and d = 1
    below _FACTORED_MIN_L) they serve any shape no larger on every axis too:
    the float one holds an axis mirrored, max_i (2 h_i - 2) prod_{j != i} h_j
    entries, the complex one its transform, prod_i h_i entries.  A d = 1
    length from _FACTORED_MIN_L on gets the layout of _real_even_dft, which a
    shorter length need not fit (L = 2p, p prime, splits as 2 x p): the float
    one holds the R x (C/2+1) grid or the (R/2+1) x C finished rows, the
    complex one the (R/2+1) x (C/2+1) cross transform or the L/2+1 floats of
    the spectrum.  So a table whose lengths straddle the crossover still
    runs in one workspace."""
    floats = spectra = 0
    for shape in shapes:
        if _factored(shape):
            R, C = _split(2 * shape[0] - 2)
            rows, cols = R // 2 + 1, C // 2 + 1
            need = max(R * cols, rows * C), max(rows * cols, (shape[0] + 1) // 2)
        else:
            size = math.prod(shape)
            need = max(size // h * (2 * h - 2) for h in shape), size
        floats, spectra = max(floats, need[0]), max(spectra, need[1])
    return np.empty(floats), np.empty(spectra, dtype=complex)


def real_dft_circulant(half, work=None) -> np.ndarray:
    """Spectrum E_k = sum_r J(r) cos(2 pi k.r / L) of a real d-dimensional
    circulant of even side L whose kernel is even on every axis (so is E),
    from J on the half-axes 0 <= r_i <= L/2 to E on the orthant 0 <= k_i <= L/2
    (a DCT-I of size L/2+1 per axis).  Each axis in turn is mirrored to
    length L and transformed by a real FFT, keeping the real part; at d = 1
    from L = _FACTORED_MIN_L (2^13) on it is _real_even_dft instead, the
    factored transform of the mirrored row, which is faster there, while
    below it the one FFT's fewer numpy calls win.

    Every step writes into prefixes of one workspace, the (float, complex)
    pair of dft_workspace.  Without a workspace the call allocates its own;
    with one, a sweep of transforms allocates no array per call, and the
    result is a view of the complex buffer (its real part, on the factored
    path its float view), valid until the workspace is used again.
    """
    e = np.asarray(half, dtype=float)
    if e.ndim == 0 or min(e.shape) < 2:
        raise DomainError(f"half-axis lengths must be >= 2, got shape {e.shape}")
    floats, spectrum = dft_workspace(e.shape) if work is None else work
    if _factored(e.shape):
        return _real_even_dft(e, floats, spectrum)
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
    return FitResult(float(slope), float(intercept), float(min(max(r2, 0.0), 1.0)))
