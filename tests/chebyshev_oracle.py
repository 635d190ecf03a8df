"""Chebyshev-series oracle for the ring's exact transfer, with numpy only and
no eigensolver (Tal-Ezer and Kosloff, J. Chem. Phys. 81, 3967 (1984); the
kernel polynomial method of Weisse, Wellein, Alvermann and Fehske, Rev. Mod.
Phys. 78, 275 (2006)).

With H = s Ht + b and the spectrum of Ht in [-1, 1],
exp(-iHt) = exp(-ibt) sum_n (2 - delta_n0) (-i)^n J_n(st) T_n(Ht), cut where
J_n(st) falls below eps, at about st + 12 (st)^(1/3) + 60 terms.  For real
symmetric H, <Y|f(H)|X> = (<+|f(H)|+> - <-|f(H)|->) / 2 with
|+-> = (|X> +- |Y>) / sqrt(2), and each diagonal moment <v|T_n(Ht)|v> takes
half a product, by mu_2n = 2 <v_n|v_n> - mu_0 and
mu_2n+1 = 2 <v_n+1|v_n> - mu_1 for v_n = T_n(Ht) |v>.
"""

import math

import numpy as np


def bessel_j(count: int, x: float) -> np.ndarray:
    """J_0(x) .. J_{count-1}(x), x > 0, by Miller's backward recurrence
    J_{n-1} = (2n/x) J_n - J_{n+1} from far above count, rescaled before it
    overflows and normalised by J_0 + 2 sum_k J_2k = 1."""
    top = count + 2 * int(x ** (1.0 / 3.0)) + 60
    j = np.zeros(top + 2)
    j[top] = 1e-300
    for n in range(top, 0, -1):
        j[n - 1] = (2.0 * n / x) * j[n] - j[n + 1]
        if abs(j[n - 1]) > 1e250:
            j[n - 1:] *= 1e-250
    return j[:count] / (j[0] + 2.0 * j[2::2].sum())


def _terms(st: float) -> int:
    return int(st + 12.0 * st ** (1.0 / 3.0) + 60.0)


def diagonal_amplitudes(apply, starts, lo: float, hi: float, t: float) -> np.ndarray:
    """<v|exp(-iHt)|v> for each row v of starts (unit vectors), for the real
    symmetric H that `apply` multiplies onto the rows of an array, with its
    spectrum in [lo, hi]."""
    s, b = (hi - lo) / 2.0, (hi + lo) / 2.0
    count = _terms(s * t)

    def scaled(v):
        return (apply(v) - b * v) / s

    prev, cur = starts, scaled(starts)  # v_0 and v_1
    mu = np.empty((count + 1, starts.shape[0]))
    mu[0], mu[1] = np.sum(prev * prev, axis=-1), np.sum(cur * prev, axis=-1)
    for n in range(1, (count + 1) // 2):
        mu[2 * n] = 2.0 * np.sum(cur * cur, axis=-1) - mu[0]
        prev, cur = cur, 2.0 * scaled(cur) - prev
        mu[2 * n + 1] = 2.0 * np.sum(cur * prev, axis=-1) - mu[1]
    weights = 2.0 * bessel_j(count, s * t) * np.array([1, -1j, -1, 1j])[np.arange(count) % 4]
    weights[0] /= 2.0
    return np.exp(-1j * b * t) * (weights @ mu[:count])


def folded_amplitude(energies, omegas, parities, onsite: float, t: float) -> complex:
    """The series on a folded channel, (A+ - A-) / 2 with A_p the endpoint
    entry of exp(-iHt) for the arrowhead [[onsite, Omega], [Omega, diag(E)]]
    over the modes of parity p: the two sectors, padded to one length with
    decoupled modes at E = 0, are the rows of one array."""
    sectors = [parities > 0, parities < 0]
    m = max(int(keep.sum()) for keep in sectors)
    poles, z = np.zeros((2, m)), np.zeros((2, m))
    for row, keep in enumerate(sectors):
        poles[row, :keep.sum()], z[row, :keep.sum()] = energies[keep], omegas[keep]

    def apply(v):
        out = np.empty_like(v)
        out[:, 0] = onsite * v[:, 0] + np.sum(z * v[:, 1:], axis=-1)
        out[:, 1:] = z * v[:, :1] + poles * v[:, 1:]
        return out

    starts = np.zeros((2, m + 1))
    starts[:, 0] = 1.0
    norm = np.sqrt(np.sum(z * z, axis=-1)).max()
    lo = min(onsite, energies.min(), 0.0) - norm
    hi = max(onsite, energies.max(), 0.0) + norm
    plus, minus = diagonal_amplitudes(apply, starts, lo, hi, t)
    return complex((plus - minus) / 2.0)


def lattice_amplitude(d: int, L: int, alpha: float, g: float, onsite: float,
                      t: float) -> complex:
    """The series on the full lab-frame lattice: the channel's L^d sites with
    couplings |r|^-alpha (min-image, 0 at r = 0), X bonded to site 0 and Y to
    the antipode with g, both at E_0 + onsite (E_0 the top of the band); each
    product one complex FFT pair of the channel."""
    shape, n = (L,) * d, L**d
    r = np.indices(shape)
    r2 = np.sum(np.minimum(r, L - r) ** 2, axis=0).astype(float)
    kernel = np.zeros(shape)
    kernel[r2 > 0] = r2[r2 > 0] ** (-alpha / 2.0)
    lam = np.fft.fftn(kernel).real
    a = lam.flat[0] + onsite
    anti = int(np.ravel_multi_index((L // 2,) * d, shape))
    axes = tuple(range(1, d + 1))

    def apply(v):
        out = np.empty_like(v)
        channel = v[:, :n].reshape((-1, *shape))
        out[:, :n] = np.fft.ifftn(lam * np.fft.fftn(channel, axes=axes), axes=axes).real.reshape(
            -1, n)
        out[:, 0] += g * v[:, n]
        out[:, anti] += g * v[:, n + 1]
        out[:, n] = a * v[:, n] + g * v[:, 0]
        out[:, n + 1] = a * v[:, n + 1] + g * v[:, anti]
        return out

    # |+-> = (|X> +- |Y>) / sqrt(2)
    starts = np.zeros((2, n + 2))
    starts[:, n] = 1.0 / math.sqrt(2.0)
    starts[:, n + 1] = [1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)]
    plus, minus = diagonal_amplitudes(apply, starts, min(lam.min(), a) - g,
                                      max(lam.max(), a) + g, t)
    return complex((plus - minus) / 2.0)
