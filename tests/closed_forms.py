"""Closed forms that serve the tests as oracles."""

import numpy as np


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


def ring_sector(d: int, L: int) -> int:
    """The larger (even) parity sector of the ring's folded exact problem at
    d = 1, 2: 1 + the folded modes with an even sum of k_i, where a of the
    values k_i <= L/2 are even and b are odd."""
    a, b = L // 4 + 1, (L // 2 + 1) // 2
    return 1 + (a if d == 1 else a * (a + 1) // 2 + b * (b + 1) // 2)
