"""Minimal deterministic SVG line/scatter plots; no external renderer.

Output is plain text SVG with fixed formatting so identical inputs give
byte-identical files (timestamp comment optional).  A point that is not
finite, or not positive on a log axis, is left out, and the plot says how
many were.
"""

from __future__ import annotations

import numpy as np

_WIDTH, _HEIGHT = 640, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 70, 20, 30, 50
_COLORS = ["#c0392b", "#2980b9", "#27ae60", "#8e44ad", "#e67e22", "#16a085"]


def _ticks(lo: float, hi: float, log: bool):
    if log:
        lo_e = int(np.floor(np.log10(lo)))
        hi_e = int(np.ceil(np.log10(hi)))
        step = max(1, (hi_e - lo_e) // 6)
        return [10.0**e for e in range(lo_e, hi_e + 1, step)]
    span = hi - lo
    if span <= 0:
        return [lo]
    raw = span / 5.0
    mag = 10.0 ** np.floor(np.log10(raw))
    step = mag * min(s for s in (1, 2, 5, 10) if raw / mag <= s)
    first = np.ceil(lo / step) * step
    return list(np.arange(first, hi + 0.5 * step, step))


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _range(values: list[np.ndarray], log: bool) -> tuple[float, float]:
    v = np.concatenate([np.empty(0), *values])
    if not v.size:  # every point left out: draw an empty frame
        return (1.0, 10.0) if log else (0.0, 1.0)
    return float(v.min()), float(v.max())


class SvgPlot:
    def __init__(self, title: str, xlabel: str, ylabel: str,
                 xlog: bool = False, ylog: bool = False):
        self.title, self.xlabel, self.ylabel = title, xlabel, ylabel
        self.xlog, self.ylog = xlog, ylog
        self.series: list[tuple[str, np.ndarray, np.ndarray, str]] = []
        self.left_out = 0  # points add() could not draw; render() notes them

    def add(self, label: str, x, y, style: str = "line") -> None:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        keep = np.isfinite(x) & np.isfinite(y)
        if self.xlog:
            keep &= x > 0
        if self.ylog:
            keep &= y > 0
        self.left_out += int(np.count_nonzero(~keep))
        self.series.append((label, x[keep], y[keep], style))

    def _tx(self, x: np.ndarray, lo: float, hi: float) -> np.ndarray:
        if self.xlog:
            x, lo, hi = np.log10(x), np.log10(lo), np.log10(hi)
        w = _WIDTH - _MARGIN_L - _MARGIN_R
        return _MARGIN_L + (x - lo) / max(hi - lo, 1e-300) * w

    def _ty(self, y: np.ndarray, lo: float, hi: float) -> np.ndarray:
        if self.ylog:
            y, lo, hi = np.log10(y), np.log10(lo), np.log10(hi)
        h = _HEIGHT - _MARGIN_T - _MARGIN_B
        return _HEIGHT - _MARGIN_B - (y - lo) / max(hi - lo, 1e-300) * h

    def render(self, comment: str | None = None) -> str:
        xlo, xhi = _range([s[1] for s in self.series], self.xlog)
        ylo, yhi = _range([s[2] for s in self.series], self.ylog)
        if not self.ylog:
            pad = 0.05 * max(yhi - ylo, 1e-300)
            ylo, yhi = ylo - pad, yhi + pad
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
        ]
        if comment:
            out.append(f"<!-- {comment} -->")
        out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
        out.append(
            f'<text x="{_WIDTH // 2}" y="18" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{self.title}</text>'
        )
        # axes box
        x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
        x1, y1 = _WIDTH - _MARGIN_R, _MARGIN_T
        out.append(
            f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
            f'fill="none" stroke="black" stroke-width="1"/>'
        )
        if self.left_out:
            n = self.left_out
            out.append(
                f'<text x="{x0 + 8}" y="{y1 + 16}" font-family="sans-serif" '
                f'font-size="11">{n} point{"s" * (n != 1)} left out (not finite, or not '
                f'positive on a log axis)</text>'
            )
        for tv in _ticks(xlo, xhi, self.xlog):
            if not (xlo <= tv <= xhi):
                continue
            px = float(self._tx(np.array([tv]), xlo, xhi)[0])
            out.append(
                f'<line x1="{px:.1f}" y1="{y0}" x2="{px:.1f}" y2="{y0 + 5}" stroke="black"/>'
            )
            out.append(
                f'<text x="{px:.1f}" y="{y0 + 18}" text-anchor="middle" '
                f'font-family="sans-serif" font-size="11">{_fmt(tv)}</text>'
            )
        for tv in _ticks(ylo, yhi, self.ylog):
            if not (ylo <= tv <= yhi):
                continue
            py = float(self._ty(np.array([tv]), ylo, yhi)[0])
            out.append(
                f'<line x1="{x0 - 5}" y1="{py:.1f}" x2="{x0}" y2="{py:.1f}" stroke="black"/>'
            )
            out.append(
                f'<text x="{x0 - 8}" y="{py + 4:.1f}" text-anchor="end" '
                f'font-family="sans-serif" font-size="11">{_fmt(tv)}</text>'
            )
        out.append(
            f'<text x="{(x0 + x1) // 2}" y="{_HEIGHT - 10}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{self.xlabel}</text>'
        )
        out.append(
            f'<text x="16" y="{(y0 + y1) // 2}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12" '
            f'transform="rotate(-90 16 {(y0 + y1) // 2})">{self.ylabel}</text>'
        )
        for i, (label, x, y, style) in enumerate(self.series):
            color = _COLORS[i % len(_COLORS)]
            px = self._tx(x, xlo, xhi)
            py = self._ty(y, ylo, yhi)
            if style in ("line", "line+dots"):
                pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
                out.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
            if style in ("dots", "line+dots"):
                for a, b in zip(px, py):
                    out.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" fill="{color}"/>')
            ly = _MARGIN_T + 16 + 16 * i
            out.append(
                f'<line x1="{x1 - 130}" y1="{ly - 4}" x2="{x1 - 110}" y2="{ly - 4}" '
                f'stroke="{color}" stroke-width="2"/>'
            )
            out.append(
                f'<text x="{x1 - 105}" y="{ly}" font-family="sans-serif" '
                f'font-size="11">{label}</text>'
            )
        out.append("</svg>")
        return "\n".join(out) + "\n"
