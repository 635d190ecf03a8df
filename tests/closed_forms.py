"""Closed forms that serve the tests as oracles."""

import numpy as np

from longwalk.chain import _zero_mode_evens


def uniform_chain_analytic(l: int) -> list[tuple[float, float]]:
    """alpha = d closed form: (E_k, t_k^(0)/t_l^(0)) for k = 0..2l,
    E_k = 2 cos((k+1)pi/(2l+2)), ratio sin((k+1)pi/(2l+2))."""
    out = []
    for k in range(2 * l + 1):
        theta = (k + 1) * np.pi / (2 * l + 2)
        out.append((2.0 * np.cos(theta), np.sin(theta)))
    return out


def zero_mode_analytic(chain) -> np.ndarray:
    """Closed-form zero mode of a geometric chain with a != 1: amplitude
    (-a)^(-j) at site 2j for j = 0..l/2, zero on odd sites, mirror-extended;
    normalized so 1/t_l^(0) equals sqrt(a^-l + 2(1 - a^-l)/(1 - a^-2))."""
    a, l = chain.a, chain.l
    if a == 1.0:
        raise ValueError("the geometric closed form needs a != 1 (alpha != d)")
    n = 2 * l + 1
    radical = np.sqrt(a ** (-l) + 2.0 * (1.0 - a ** (-l)) / (1.0 - a ** (-2)))
    amps = np.zeros(n)
    for j in range(l // 2 + 1):
        amps[2 * j] = (-a) ** (-j) / radical
    for site in range(l + 1, n):
        amps[site] = amps[2 * l - site]
    return amps


def zero_mode(chain) -> np.ndarray:
    """The channel's unit zero mode on its 2l+1 sites, endpoint amplitude
    t_l^(0) = v_0 > 0: the even sites from the recursion that Q is built on,
    zero on the odd ones."""
    amps = np.zeros(2 * chain.l + 1)
    amps[::2] = _zero_mode_evens(chain.bonds.tolist())
    return amps


def ring_sector(d: int, L: int) -> int:
    """The larger (even) parity sector of the ring's folded exact problem at
    d = 1, 2: 1 + the folded modes with an even sum of k_i, where a of the
    values k_i <= L/2 are even and b are odd."""
    a, b = L // 4 + 1, (L // 2 + 1) // 2
    return 1 + (a if d == 1 else a * (a + 1) // 2 + b * (b + 1) // 2)


def ring_delta0(alpha: float, L: int) -> float:
    """The d = 1 ring's gap delta_0 = Delta_1 = sum_{r=1}^{L-1} m_r^-alpha
    (1 - cos 2 pi r / L), m_r = min(r, L - r), for alpha > 1: the sum over
    the whole half-line, 2 [zeta(alpha) - Re Li_alpha(e^{2 pi i / L})], less
    its tail past L/2 by Euler-Maclaurin, 2 I_alpha L^(1-alpha) with
    I_alpha = int_{1/2}^inf u^-alpha (1 - cos 2 pi u) du, which leaves a
    relative remainder of order L^-2.  At alpha = inf only the nearest
    neighbours couple, and delta_0 = 2 (1 - cos 2 pi / L) exactly."""
    import mpmath

    mp = mpmath.mp
    with mp.workdps(30):
        if alpha == np.inf:
            return float(2 * (1 - mpmath.cospi(mp.mpf(2) / L)))
        a = mp.mpf(alpha)
        # int_{1/2}^inf u^-a cos(2 pi u) du = Re (-2 pi i)^(a-1) Gamma(1 - a, -i pi)
        cos_part = ((-2j * mp.pi) ** (a - 1) * mpmath.gammainc(1 - a, -1j * mp.pi)).real
        tail = mp.mpf(2) ** (a - 1) / (a - 1) - cos_part
        whole = mpmath.zeta(a) - mpmath.polylog(a, mpmath.expjpi(mp.mpf(2) / L)).real
        return float(2 * whole - 2 * tail * mp.mpf(L) ** (1 - a))
