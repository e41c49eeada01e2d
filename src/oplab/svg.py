"""Tiny static SVG line charts, no dependencies, deterministic output."""

from __future__ import annotations

import math

_PALETTE = ("#1f6fb2", "#d2572a", "#3a8f4d", "#7b5aa6", "#b0373f", "#5b5b5b")
_WIDTH, _HEIGHT = 640, 420


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        if raw <= mult * mag:
            step = mult * mag
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-9 * step:
        out.append(round(t, 10))
        t += step
    return out


def _fmt(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return f"{v:g}"


def write_line_chart(path: str, series: list[tuple[str, list[float], list[float]]],
                     title: str = "", x_label: str = "", y_label: str = "") -> None:
    """Write a 640 x 420 line chart; series are (label, xs, ys) triples."""
    if not series:
        raise ValueError("need at least one series")
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        raise ValueError("series contain no finite points")
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all + [0.0]), max(ys_all)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad_l, pad_r, pad_t, pad_b = 62, 16, 34, 46
    pw, ph = _WIDTH - pad_l - pad_r, _HEIGHT - pad_t - pad_b

    def px(x: float) -> float:
        return pad_l + (x - x_lo) / (x_hi - x_lo) * pw

    def py(y: float) -> float:
        return pad_t + (1.0 - (y - y_lo) / (y_hi - y_lo)) * ph

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
             f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
             f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>']
    if title:
        parts.append(f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="14">{title}</text>')
    for t in _ticks(x_lo, x_hi):
        x = px(t)
        parts.append(f'<line x1="{x:.2f}" y1="{pad_t}" x2="{x:.2f}" '
                     f'y2="{pad_t + ph}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{x:.2f}" y="{pad_t + ph + 16}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        y = py(t)
        parts.append(f'<line x1="{pad_l}" y1="{y:.2f}" x2="{pad_l + pw}" '
                     f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>')
        parts.append(f'<text x="{pad_l - 6}" y="{y + 4:.2f}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">{_fmt(t)}</text>')
    parts.append(f'<rect x="{pad_l}" y="{pad_t}" width="{pw}" height="{ph}" '
                 f'fill="none" stroke="#444444" stroke-width="1"/>')
    if x_label:
        parts.append(f'<text x="{pad_l + pw / 2:.1f}" y="{_HEIGHT - 10}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{x_label}</text>')
    if y_label:
        parts.append(f'<text x="16" y="{pad_t + ph / 2:.1f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="12" '
                     f'transform="rotate(-90 16 {pad_t + ph / 2:.1f})">{y_label}</text>')
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys)
                       if math.isfinite(y))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        ly = pad_t + 14 + 16 * i
        parts.append(f'<line x1="{pad_l + 10}" y1="{ly - 4}" x2="{pad_l + 34}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{pad_l + 40}" y="{ly}" font-family="sans-serif" '
                     f'font-size="11">{label}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
