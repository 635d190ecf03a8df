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


def ring_sector(d: int, L: int) -> int:
    """The larger (even) parity sector of the ring's folded exact problem at
    d = 1, 2: 1 + the folded modes with an even sum of k_i, where a of the
    values k_i <= L/2 are even and b are odd."""
    a, b = L // 4 + 1, (L // 2 + 1) // 2
    return 1 + (a if d == 1 else a * (a + 1) // 2 + b * (b + 1) // 2)
