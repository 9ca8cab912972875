"""Minimal SVG 1.1 line/scatter plots with no plotting dependency.

Good enough for the figures this package emits: framed axes with nice
decimal ticks, light gridlines, a legend, line series and scatter series
(optionally colored per point).  Output is deterministic text: coordinates
are fixed to two decimals and nothing depends on run time or host.
Axes are linear; callers wanting a log view transform the data and label
the axis accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

__all__ = ["Series", "render", "save"]


def _escape(text: str) -> str:
    """XML character data: & first, so the entities added after stay intact."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


@dataclass
class Series:
    """One plotted data set.

    kind is "line" or "points"; point_colors, when given, overrides color
    per marker (used for the gap-map severity coloring).  label=None keeps
    the series out of the legend.
    """

    x: np.ndarray
    y: np.ndarray
    color: str
    label: str | None = None
    kind: str = "line"
    stroke_width: float = 1.5
    radius: float = 2.0
    dash: str | None = None
    point_colors: list[str] | None = field(default=None, repr=False)


def _nice_step(span: float) -> float:
    # the least 1, 2, 2.5, 5 or 10 times a power of ten that covers span / 6
    raw = span / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    return next((m * mag for m in (1.0, 2.0, 2.5, 5.0) if m * mag >= raw), 10.0 * mag)


def _ticks(lo: float, hi: float) -> list[float]:
    # lo < hi, as _data_range makes them; a tick within roundoff of zero is
    # 0.0, so no label reads -0
    step = _nice_step(hi - lo)
    first = math.ceil(lo / step) * step
    ticks = []
    t = first
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        t += step
    return ticks


def _data_range(series: list[Series]) -> tuple[float, float, float, float]:
    xs, ys = [], []
    for s in series:
        m = np.isfinite(s.x) & np.isfinite(s.y)
        if np.any(m):
            xs.append(s.x[m])
            ys.append(s.y[m])
    if not xs:
        raise ValueError("nothing finite to plot")
    x = np.concatenate(xs)
    y = np.concatenate(ys)
    x0, x1 = float(np.min(x)), float(np.max(x))
    y0, y1 = float(np.min(y)), float(np.max(y))
    if x1 == x0:
        x0, x1 = x0 - 1.0, x1 + 1.0
    if y1 == y0:
        y0, y1 = y0 - 1.0, y1 + 1.0
    pad_x, pad_y = 0.04 * (x1 - x0), 0.05 * (y1 - y0)
    return x0 - pad_x, x1 + pad_x, y0 - pad_y, y1 + pad_y


def render(series: list[Series], title: str, xlabel: str, ylabel: str) -> str:
    """Render the series list to a standalone 720 x 480 SVG document string."""
    if not series:
        raise ValueError("no series to plot")
    width, height = 720, 480
    x0, x1, y0, y1 = _data_range(series)
    ml, mr, mt, mb = 72, 24, 42, 54
    pw, ph = width - ml - mr, height - mt - mb

    def px(v: float | np.ndarray) -> float | np.ndarray:
        return ml + (v - x0) / (x1 - x0) * pw

    def py(v: float | np.ndarray) -> float | np.ndarray:
        return mt + (y1 - v) / (y1 - y0) * ph

    out: list[str] = []
    out.append('<?xml version="1.0" encoding="UTF-8"?>')
    out.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">'
    )
    out.append(f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>')

    # gridlines and ticks
    xticks, yticks = _ticks(x0, x1), _ticks(y0, y1)
    for t in xticks:
        X = px(t)
        out.append(
            f'<line x1="{X:.2f}" y1="{mt}" x2="{X:.2f}" y2="{mt + ph}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<line x1="{X:.2f}" y1="{mt + ph}" x2="{X:.2f}" y2="{mt + ph + 5}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{X:.2f}" y="{mt + ph + 18}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{t:.6g}</text>'
        )
    for t in yticks:
        Y = py(t)
        out.append(
            f'<line x1="{ml}" y1="{Y:.2f}" x2="{ml + pw}" y2="{Y:.2f}" '
            f'stroke="#dddddd" stroke-width="0.5"/>'
        )
        out.append(
            f'<line x1="{ml - 5}" y1="{Y:.2f}" x2="{ml}" y2="{Y:.2f}" '
            f'stroke="#000000" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{ml - 8}" y="{Y + 4:.2f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end">{t:.6g}</text>'
        )
    out.append(
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="#000000" stroke-width="1"/>'
    )

    # series, clipped to the frame
    out.append(f'<clipPath id="frame"><rect x="{ml}" y="{mt}" width="{pw}" height="{ph}"/></clipPath>')
    out.append('<g clip-path="url(#frame)">')
    for s in series:
        idx = np.nonzero(np.isfinite(s.x) & np.isfinite(s.y))[0]
        xs, ys = px(s.x[idx]).tolist(), py(s.y[idx]).tolist()
        if s.kind == "line":
            # break the polyline at nonfinite samples
            bounds = [0, *(np.nonzero(np.diff(idx) > 1)[0] + 1).tolist(), len(idx)]
            dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
            for a, b in zip(bounds, bounds[1:]):
                if b - a < 2:
                    continue
                pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs[a:b], ys[a:b]))
                out.append(
                    f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                    f'stroke-width="{s.stroke_width}"{dash}/>'
                )
        elif s.kind == "points":
            colors = ([s.point_colors[j] for j in idx.tolist()] if s.point_colors is not None
                      else [s.color] * len(idx))
            out += (f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{s.radius}" fill="{c}"/>'
                    for x, y, c in zip(xs, ys, colors))
        else:
            raise ValueError(f"unknown series kind {s.kind!r}")
    out.append("</g>")

    # labels and legend
    out.append(
        f'<text x="{width / 2:.2f}" y="24" font-size="14" font-family="sans-serif" '
        f'text-anchor="middle">{_escape(title)}</text>'
    )
    out.append(
        f'<text x="{ml + pw / 2:.2f}" y="{height - 12}" font-size="12" '
        f'font-family="sans-serif" text-anchor="middle">{_escape(xlabel)}</text>'
    )
    yc = mt + ph / 2
    out.append(
        f'<text x="18" y="{yc:.2f}" font-size="12" font-family="sans-serif" '
        f'text-anchor="middle" transform="rotate(-90 18 {yc:.2f})">{_escape(ylabel)}</text>'
    )
    labeled = [s for s in series if s.label]
    if labeled:
        lx, ly = ml + pw - 170, mt + 10
        out.append(
            f'<rect x="{lx - 8}" y="{ly - 4}" width="178" height="{16 * len(labeled) + 8}" '
            f'fill="#ffffff" fill-opacity="0.85" stroke="#bbbbbb" stroke-width="0.5"/>'
        )
        for row, s in enumerate(labeled):
            Y = ly + 16 * row + 8
            if s.kind == "line":
                out.append(
                    f'<line x1="{lx}" y1="{Y}" x2="{lx + 22}" y2="{Y}" '
                    f'stroke="{s.color}" stroke-width="{s.stroke_width}"/>'
                )
            else:
                out.append(f'<circle cx="{lx + 11}" cy="{Y}" r="{s.radius}" fill="{s.color}"/>')
            out.append(
                f'<text x="{lx + 28}" y="{Y + 4}" font-size="11" '
                f'font-family="sans-serif">{_escape(s.label)}</text>'
            )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save(path: str | Path, series: list[Series], **kwargs) -> Path:
    """Render and write one SVG file; kwargs pass through to render."""
    path = Path(path)
    path.write_text(render(series, **kwargs), encoding="utf-8")
    return path
