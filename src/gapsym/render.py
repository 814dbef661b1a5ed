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
from .fundamental import fundamental_cells
from .semigroup import TwoGen
from .symmetry import (
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
    """One filled <rect> per cell, in the row-major order of `TwoGen.walk`."""
    top = T.alpha * CELL
    tail = f'" width="{CELL}" height="{CELL}" fill="{color}" fill-opacity="{opacity}"/>'
    # sorting (-b, a) puts b descending, then a ascending; y = (alpha - b) * CELL
    return [
        f'<rect x="{(a - 1) * CELL}" y="{top + nb * CELL}{tail}'
        for nb, a in sorted((-b, a) for a, b in cells)
    ]


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
        el += _cell_rects(T, fundamental_cells(T), _FILL["fg"], "55%")
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
        cells = wilf_grid(T)
        labels = []
        if "values" in layers:
            labels.append([
                f'<text x="{(a - 1) * CELL + 3}" y="{height - b * CELL + CELL - 4}" font-size="12" '
                f'font-family="monospace">{value}</text>'
                for a, b, value, _ in cells
            ])
        if "wilf" in layers:
            labels.append([
                f'<text x="{a * CELL - 3}" y="{height - b * CELL + 12}" font-size="10" '
                f'font-family="monospace" text-anchor="end">{w}</text>'
                for a, b, _, w in cells
            ])
        # one element per cell holding its labels, which the final join
        # separates by newlines as if each were an element of its own
        el += map("\n".join, zip(*labels))
    el.append("</svg>")
    return "\n".join(el) + "\n"
