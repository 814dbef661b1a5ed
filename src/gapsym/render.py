"""Deterministic SVG rendering of the gap lattice.

The drawing mirrors the grid diagrams used throughout: one unit cell per
gap, the diagonal from (0, alpha) to (beta, 0), the gap value at the bottom
of each cell and its Wilf number at the top, and toggleable shaded layers
for the triangles, the doubling rectangle, the symmetric sets and the
fundamental gaps.  Output bytes depend only on the inputs: integer
coordinates, fixed ordering, no timestamps.
"""

from __future__ import annotations

from .errors import InconsistentInput
from .fundamental import fundamental_gaps
from .semigroup import TwoGen
from .symmetry import (
    _row_major,
    _smaller_triangle,
    self_symmetric_gaps,
    triangle_r,
    triangle_u,
    wilf_grid,
)

LAYERS = ("grid", "diagonal", "values", "wilf", "triangles", "rectangle", "sg", "ssg", "fg")

DEFAULT_LAYERS = ("grid", "diagonal", "values", "wilf", "sg", "ssg", "fg", "rectangle")

_FILL = {
    "triangles": "#d0e8ff",
    "sg": "#f2c28c",
    "ssg": "#caa6d8",
    "fg": "#b8d8b8",
}

CELL = 40


def _cell_rects(T: TwoGen, cells, color, opacity):
    out = []
    for a, b in _row_major(cells):
        x = (a - 1) * CELL
        y = (T.alpha - b) * CELL
        out.append(
            f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
            f'fill="{color}" fill-opacity="{opacity}"/>'
        )
    return out


def render_svg(T: TwoGen, layers=DEFAULT_LAYERS) -> str:
    """SVG of the gap lattice with the named layers; unknown names raise
    InconsistentInput."""
    bad = [name for name in layers if name not in LAYERS]
    if bad:
        raise InconsistentInput(f"unknown layers {bad}; choose from {LAYERS}")
    layers = set(layers)
    width = T.beta * CELL
    height = T.alpha * CELL
    el = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect x="0" y="0" width="{width}" height="{height}" fill="white"/>',
    ]
    if "triangles" in layers or "sg" in layers:
        tu, tr = triangle_u(T), triangle_r(T)
    if "triangles" in layers:
        el += _cell_rects(T, tu, _FILL["triangles"], "60%")
        el += _cell_rects(T, tr, _FILL["triangles"], "60%")
    if "fg" in layers:
        cells = {T.cell_of(g) for g in fundamental_gaps(T.semigroup()).gaps}
        el += _cell_rects(T, cells, _FILL["fg"], "55%")
    if "sg" in layers:
        _, sg = _smaller_triangle(tu, tr)
        el += _cell_rects(T, sg, _FILL["sg"], "70%")
    if "ssg" in layers:
        el += _cell_rects(T, self_symmetric_gaps(T), _FILL["ssg"], "70%")
    if "grid" in layers:
        for i in range(T.beta + 1):
            el.append(f'<line x1="{i * CELL}" y1="0" x2="{i * CELL}" y2="{height}" stroke="#999" stroke-dasharray="3,3"/>')
        for j in range(T.alpha + 1):
            el.append(f'<line x1="0" y1="{j * CELL}" x2="{width}" y2="{j * CELL}" stroke="#999" stroke-dasharray="3,3"/>')
    if "rectangle" in layers:
        w = (T.beta // 2) * CELL
        y = (T.alpha - T.alpha // 2) * CELL
        el.append(
            f'<rect x="0" y="{y}" width="{w}" height="{height - y}" '
            f'fill="none" stroke="#cc0000" stroke-width="3"/>'
        )
    if "diagonal" in layers:
        el.append(f'<line x1="0" y1="0" x2="{width}" y2="{height}" stroke="black" stroke-width="2"/>')
    if "values" in layers or "wilf" in layers:
        for a, b, value, w in wilf_grid(T):
            x = (a - 1) * CELL
            y = (T.alpha - b) * CELL
            if "values" in layers:
                el.append(
                    f'<text x="{x + 3}" y="{y + CELL - 4}" font-size="12" '
                    f'font-family="monospace">{value}</text>'
                )
            if "wilf" in layers:
                el.append(
                    f'<text x="{x + CELL - 3}" y="{y + 12}" font-size="10" '
                    f'font-family="monospace" text-anchor="end">{w}</text>'
                )
    el.append("</svg>")
    return "\n".join(el) + "\n"
