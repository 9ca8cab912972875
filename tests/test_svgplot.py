"""Unit tests of the SVG writer: tick placement, data range, escaping and series drawing."""

import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from rabi_esqpt.svgplot import Figure, Series, _data_range, _escape, _nice_step, _ticks, render

ROOT = Path(__file__).resolve().parents[1]
SVG = "{http://www.w3.org/2000/svg}"


@pytest.mark.parametrize("lo, hi, step", [
    (0.0, 6.0, 1.0), (0.0, 12.0, 2.0), (0.0, 15.0, 2.5), (0.0, 30.0, 5.0),
    (-3e4, 9e4, 2e4), (1.0, 1.0 + 3e-7, 5e-8),
])
def test_step_is_one_two_two_and_a_half_or_five_times_a_power_of_ten(lo, hi, step):
    assert _nice_step(hi - lo) == pytest.approx(step, rel=1e-12)
    ticks = _ticks(lo, hi)
    assert np.diff(ticks) == pytest.approx(step, rel=1e-6)
    # every tick a multiple of the step, inside the span, none missed at either end
    assert all(abs(t / step - round(t / step)) < 1e-6 for t in ticks)
    assert lo - 1e-9 * step <= ticks[0] < lo + step
    assert hi - step < ticks[-1] <= hi + 1e-9 * step


def test_ordinary_spans_give_the_expected_ticks():
    assert _ticks(0.0, 6.0) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    assert _ticks(-0.25, 1.1) == [-0.25, 0.0, 0.25, 0.5, 0.75, 1.0]
    assert _ticks(-1.3, 0.4) == [-1.0, -0.5, 0.0]


def test_tick_within_roundoff_of_zero_is_zero():
    # -0.6 + 3 * 0.2 accumulates to -5.6e-17, which would label as such
    ticks = _ticks(-0.7, 0.5)
    assert len(ticks) == 6 and ticks[3] == 0.0
    assert math.copysign(1.0, ticks[3]) == 1.0
    assert [f"{t:.6g}" for t in ticks] == ["-0.6", "-0.4", "-0.2", "0", "0.2", "0.4"]


@pytest.mark.parametrize("at", [2.0, 1e10])
def test_ticks_end_on_a_one_ulp_span(at):
    # the tick step lies below half an ulp there, so t += step never moves t;
    # run apart, so that a loop that never ends fails here instead of hanging,
    # and with its address space capped, as such a loop grows its tick list
    code = (
        "import math, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        "from rabi_esqpt.svgplot import _ticks\n"
        f"at = {at!r}\n"
        "for lo, hi in ((at, math.nextafter(at, math.inf)), (math.nextafter(at, -math.inf), at)):\n"
        "    print(len(_ticks(lo, hi)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=30)
    assert run.returncode == 0, run.stderr
    counts = [int(n) for n in run.stdout.split()]
    assert len(counts) == 2 and all(1 <= n <= 7 for n in counts)


def test_data_range_pads_the_finite_points():
    s = Series(np.array([0.0, 10.0, np.nan]), np.array([-1.0, 1.0, 5.0]), color="#000000")
    assert _data_range([s]) == pytest.approx((-0.4, 10.4, -1.1, 1.1))


def test_data_range_widens_an_equal_span_by_one():
    s = Series(np.array([2.0, 2.0]), np.array([3.0, 3.0]), color="#000000")
    assert _data_range([s]) == pytest.approx((1.0 - 0.08, 3.0 + 0.08, 2.0 - 0.1, 4.0 + 0.1))


def test_data_range_of_nothing_finite():
    s = Series(np.array([np.nan, 1.0]), np.array([0.0, np.inf]), color="#000000")
    with pytest.raises(ValueError, match="nothing finite to plot"):
        _data_range([s])


def test_escape_replaces_the_ampersand_first():
    assert _escape("a<&>b") == "a&lt;&amp;&gt;b"


def _figure(*series: Series) -> Figure:
    return Figure(list(series), "title & <more>", "x", "y")


def _elements(svg: str, tag: str) -> list[ET.Element]:
    return list(ET.fromstring(svg.encode()).iter(SVG + tag))


def test_line_breaks_at_a_nonfinite_sample():
    x = np.arange(6.0)
    svg = render(_figure(Series(x, np.array([0.0, 1.0, np.nan, 3.0, 4.0, 5.0]),
                                color="#ff0000")))
    lines = _elements(svg, "polyline")
    assert [len(p.get("points").split()) for p in lines] == [2, 3]


def test_line_drops_a_run_of_one_point():
    x = np.arange(6.0)
    svg = render(_figure(Series(x, np.array([0.0, np.nan, 2.0, 3.0, np.nan, 5.0]),
                                color="#ff0000")))
    assert [len(p.get("points").split()) for p in _elements(svg, "polyline")] == [2]


def test_document_text_and_legend():
    svg = render(_figure(Series(np.arange(3.0), np.arange(3.0), color="#ff0000", label="a"),
                         Series(np.arange(3.0), np.ones(3), color="#0000ff", kind="points",
                                label="b"),
                         Series(np.arange(3.0), np.zeros(3), color="#00ff00")))
    texts = [t.text for t in _elements(svg, "text")]
    assert texts[-5:] == ["title & <more>", "x", "y", "a", "b"]
    assert all(t.get("font-family") == "sans-serif" for t in _elements(svg, "text"))
    assert len(_elements(svg, "circle")) == 3 + 1  # three points, one legend marker


def test_unknown_series_kind():
    with pytest.raises(ValueError, match="unknown series kind 'bars'"):
        render(_figure(Series(np.arange(3.0), np.arange(3.0), color="#000000", kind="bars")))


def test_no_series():
    with pytest.raises(ValueError, match="no series to plot"):
        render(_figure())
