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
        ticks = [10.0**e for e in range(lo_e, hi_e + 1, step)]
    elif hi <= lo:
        ticks = [lo]
    else:
        raw = (hi - lo) / 5.0
        mag = 10.0 ** np.floor(np.log10(raw))
        step = mag * min(s for s in (1, 2, 5, 10) if raw / mag <= s)
        # + 0.0: ceil of a small negative ratio is -0.0, which would read "-0"
        first = np.ceil(lo / step) * step + 0.0
        ticks = list(np.arange(first, hi + 0.5 * step, step))
    return [t for t in ticks if lo <= t <= hi]


def _fmt(v: float) -> str:
    return f"{v:.6g}"


def _range(values: list[np.ndarray], log: bool) -> tuple[float, float]:
    v = np.concatenate([np.empty(0), *values])
    if not v.size:  # every point left out: draw an empty frame
        return (1.0, 10.0) if log else (0.0, 1.0)
    return float(v.min()), float(v.max())


def _axis(v, lo: float, hi: float, log: bool, start: float, span: float):
    """Pixel positions of values v on an axis that maps lo..hi onto
    start..start + span (a negative span runs up the page)."""
    if log:
        v, lo, hi = np.log10(v), np.log10(lo), np.log10(hi)
    return start + (v - lo) / max(hi - lo, 1e-300) * span


def _text(x, y, body: str, size: int, anchor: str | None = None, extra: str = "") -> str:
    anchor = f' text-anchor="{anchor}"' if anchor else ""
    return (f'<text x="{x}" y="{y}"{anchor} font-family="sans-serif" '
            f'font-size="{size}"{extra}>{body}</text>')


def _line(x1, y1, x2, y2, stroke: str, extra: str = "") -> str:
    return f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" stroke="{stroke}"{extra}/>'


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

    def render(self, comment: str | None = None) -> str:
        xlo, xhi = _range([s[1] for s in self.series], self.xlog)
        ylo, yhi = _range([s[2] for s in self.series], self.ylog)
        if not self.ylog:
            pad = 0.05 * max(yhi - ylo, 1e-300)
            ylo, yhi = ylo - pad, yhi + pad
        # the axes box: x runs right from x0 to x1, y up from y0 to y1
        x0, y0 = _MARGIN_L, _HEIGHT - _MARGIN_B
        x1, y1 = _WIDTH - _MARGIN_R, _MARGIN_T
        out = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
            f'viewBox="0 0 {_WIDTH} {_HEIGHT}">'
        ]
        if comment:
            out.append(f"<!-- {comment} -->")
        out.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
        out.append(_text(_WIDTH // 2, 18, self.title, 14, "middle"))
        out.append(
            f'<rect x="{x0}" y="{y1}" width="{x1 - x0}" height="{y0 - y1}" '
            f'fill="none" stroke="black" stroke-width="1"/>'
        )
        if self.left_out:
            n = self.left_out
            out.append(_text(x0 + 8, y1 + 16, f'{n} point{"s" * (n != 1)} left out '
                             '(not finite, or not positive on a log axis)', 11))
        for tv in _ticks(xlo, xhi, self.xlog):
            px = f"{_axis(tv, xlo, xhi, self.xlog, x0, x1 - x0):.1f}"
            out.append(_line(px, y0, px, y0 + 5, "black"))
            out.append(_text(px, y0 + 18, _fmt(tv), 11, "middle"))
        for tv in _ticks(ylo, yhi, self.ylog):
            py = _axis(tv, ylo, yhi, self.ylog, y0, y1 - y0)
            out.append(_line(x0 - 5, f"{py:.1f}", x0, f"{py:.1f}", "black"))
            out.append(_text(x0 - 8, f"{py + 4:.1f}", _fmt(tv), 11, "end"))
        out.append(_text((x0 + x1) // 2, _HEIGHT - 10, self.xlabel, 12, "middle"))
        ym = (y0 + y1) // 2
        out.append(_text(16, ym, self.ylabel, 12, "middle", f' transform="rotate(-90 16 {ym})"'))
        for i, (label, x, y, style) in enumerate(self.series):
            color = _COLORS[i % len(_COLORS)]
            px = _axis(x, xlo, xhi, self.xlog, x0, x1 - x0)
            py = _axis(y, ylo, yhi, self.ylog, y0, y1 - y0)
            if style in ("line", "line+dots"):
                pts = " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(px, py))
                out.append(
                    f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>'
                )
            if style in ("dots", "line+dots"):
                for a, b in zip(px, py):
                    out.append(f'<circle cx="{a:.2f}" cy="{b:.2f}" r="2.5" fill="{color}"/>')
            ly = _MARGIN_T + 16 + 16 * i
            out.append(_line(x1 - 130, ly - 4, x1 - 110, ly - 4, color, ' stroke-width="2"'))
            out.append(_text(x1 - 105, ly, label, 11))
        out.append("</svg>")
        return "\n".join(out) + "\n"
