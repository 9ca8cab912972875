"""Minimal SVG 1.1 line/scatter plots with no plotting dependency.

Framed axes with nice decimal ticks, light gridlines, a legend, line series
and scatter series (optionally colored per point).  `render` turns a Figure
into text that depends on nothing else, computed coordinates fixed to two
decimals; `save` only writes that text, so a figure can be drawn before any
file is written.  Axes are linear; callers wanting a log view transform the
data and label the axis accordingly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import NamedTuple

import numpy as np

__all__ = ["Figure", "Series", "render", "save"]


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


class Figure(NamedTuple):
    """One figure: its series, drawn in order, its title and its axis labels."""

    series: list[Series]
    title: str
    xlabel: str
    ylabel: str


def _nice_step(span: float) -> float:
    # the least 1, 2, 2.5, 5 or 10 times a power of ten that covers span / 6
    raw = span / 6
    mag = 10.0 ** math.floor(math.log10(raw))
    return next((m * mag for m in (1.0, 2.0, 2.5, 5.0) if m * mag >= raw), 10.0 * mag)


def _ticks(lo: float, hi: float) -> list[float]:
    # lo < hi, as _data_range makes them; a tick within roundoff of zero is
    # 0.0, so no label reads -0
    step = _nice_step(hi - lo)
    ticks = []
    t = math.ceil(lo / step) * step
    while t <= hi + 1e-9 * step:
        ticks.append(0.0 if abs(t) < 1e-12 * step else t)
        if t + step == t:  # a span below roundoff, where t would never move
            break
        t += step
    return ticks


def _data_range(series: list[Series]) -> tuple[float, float, float, float]:
    finite = [np.isfinite(s.x) & np.isfinite(s.y) for s in series]
    if not any(map(np.any, finite)):
        raise ValueError("nothing finite to plot")
    bounds = []
    for v, pad in ((np.concatenate([s.x[m] for s, m in zip(series, finite)]), 0.04),
                   (np.concatenate([s.y[m] for s, m in zip(series, finite)]), 0.05)):
        lo, hi = float(np.min(v)), float(np.max(v))
        if hi == lo:
            lo, hi = lo - 1.0, hi + 1.0
        bounds += [lo - pad * (hi - lo), hi + pad * (hi - lo)]
    return tuple(bounds)


def _coord(v: float) -> str:
    # a computed position has two decimals; a layout constant is an int
    return f"{v:.2f}" if isinstance(v, float) else str(v)


def _line(x1: float, y1: float, x2: float, y2: float, stroke: str, width: float) -> str:
    return (f'<line x1="{_coord(x1)}" y1="{_coord(y1)}" x2="{_coord(x2)}" y2="{_coord(y2)}" '
            f'stroke="{stroke}" stroke-width="{width}"/>')


def _text(x: float, y: float, size: int, body: str, anchor: str = "", extra: str = "") -> str:
    anchor = anchor and f' text-anchor="{anchor}"'
    return (f'<text x="{_coord(x)}" y="{_coord(y)}" font-size="{size}" '
            f'font-family="sans-serif"{anchor}{extra}>{_escape(body)}</text>')


def render(figure: Figure) -> str:
    """Render the figure to a standalone 720 x 480 SVG document string."""
    if not figure.series:
        raise ValueError("no series to plot")
    width, height = 720, 480
    x0, x1, y0, y1 = _data_range(figure.series)
    ml, mr, mt, mb = 72, 24, 42, 54
    pw, ph = width - ml - mr, height - mt - mb

    def px(v: float | np.ndarray) -> float | np.ndarray:
        return ml + (v - x0) / (x1 - x0) * pw

    def py(v: float | np.ndarray) -> float | np.ndarray:
        return mt + (y1 - v) / (y1 - y0) * ph

    out: list[str] = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="#ffffff"/>',
    ]

    # gridlines, ticks and their labels
    for t in _ticks(x0, x1):
        X = px(t)
        out += [_line(X, mt, X, mt + ph, "#dddddd", 0.5),
                _line(X, mt + ph, X, mt + ph + 5, "#000000", 1),
                _text(X, mt + ph + 18, 11, f"{t:.6g}", "middle")]
    for t in _ticks(y0, y1):
        Y = py(t)
        out += [_line(ml, Y, ml + pw, Y, "#dddddd", 0.5),
                _line(ml - 5, Y, ml, Y, "#000000", 1),
                _text(ml - 8, Y + 4, 11, f"{t:.6g}", "end")]
    frame = f'x="{ml}" y="{mt}" width="{pw}" height="{ph}"'
    out.append(f'<rect {frame} fill="none" stroke="#000000" stroke-width="1"/>')

    # series, clipped to the frame
    out += [f'<clipPath id="frame"><rect {frame}/></clipPath>', '<g clip-path="url(#frame)">']
    for s in figure.series:
        idx = np.nonzero(np.isfinite(s.x) & np.isfinite(s.y))[0]
        xs, ys = px(s.x[idx]).tolist(), py(s.y[idx]).tolist()
        if s.kind == "line":
            # break the polyline at nonfinite samples
            bounds = [0, *(np.nonzero(np.diff(idx) > 1)[0] + 1).tolist(), len(idx)]
            dash = f' stroke-dasharray="{s.dash}"' if s.dash else ""
            for a, b in zip(bounds, bounds[1:]):
                if b - a > 1:  # a run of one point draws nothing
                    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs[a:b], ys[a:b]))
                    out.append(f'<polyline points="{pts}" fill="none" stroke="{s.color}" '
                               f'stroke-width="{s.stroke_width}"{dash}/>')
        elif s.kind == "points":
            colors = ([s.point_colors[j] for j in idx.tolist()] if s.point_colors is not None
                      else [s.color] * len(idx))
            out += (f'<circle cx="{x:.2f}" cy="{y:.2f}" r="{s.radius}" fill="{c}"/>'
                    for x, y, c in zip(xs, ys, colors))
        else:
            raise ValueError(f"unknown series kind {s.kind!r}")
    out.append("</g>")

    # labels and legend
    yc = mt + ph / 2
    out += [_text(width / 2, 24, 14, figure.title, "middle"),
            _text(ml + pw / 2, height - 12, 12, figure.xlabel, "middle"),
            _text(18, yc, 12, figure.ylabel, "middle", f' transform="rotate(-90 18 {yc:.2f})"')]
    labeled = [s for s in figure.series if s.label]
    if labeled:
        lx, ly = ml + pw - 170, mt + 10
        out.append(f'<rect x="{lx - 8}" y="{ly - 4}" width="178" height="{16 * len(labeled) + 8}" '
                   f'fill="#ffffff" fill-opacity="0.85" stroke="#bbbbbb" stroke-width="0.5"/>')
        for row, s in enumerate(labeled):
            Y = ly + 16 * row + 8
            out.append(_line(lx, Y, lx + 22, Y, s.color, s.stroke_width) if s.kind == "line"
                       else f'<circle cx="{lx + 11}" cy="{Y}" r="{s.radius}" fill="{s.color}"/>')
            out.append(_text(lx + 28, Y + 4, 11, s.label))
    out.append("</svg>")
    return "\n".join(out) + "\n"


def save(path: str | Path, svg: str) -> Path:
    """Write one rendered SVG document and return its path."""
    path = Path(path)
    path.write_text(svg, encoding="utf-8")
    return path
