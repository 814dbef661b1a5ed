"""Deterministic SVG rendering of the gap lattice.

The drawing mirrors the grid diagrams used throughout: one unit cell per
gap, the diagonal from (0, alpha) to (beta, 0), the gap value at the bottom
of each cell and its Wilf number at the top, and toggleable shaded layers
for the triangles, the doubling rectangle, the symmetric sets and the
fundamental gaps.  Output bytes depend only on the inputs: integer
coordinates, fixed ordering, no timestamps.

The per-cell elements are written one lattice row at a time: each label and
shaded cell is joined from its column's x prefix and its row's y text, each
built once per render, so no f-string runs per cell.  The labels read each
row's values and Wilf numbers as ranges (`wilf._wilf_rows`), and each shaded
layer reads its block's row intervals (`symmetry._rows_*`), so no cell set
is built or sorted.  Each grid line is joined from its coordinate's text and
fixed pieces, with no f-string per line.
"""

from __future__ import annotations

from itertools import chain, repeat

from .errors import InconsistentInput
from .semigroup import TwoGen
from .symmetry import _rows_fg, _rows_r, _rows_ssg, _rows_u, _sg_rows
from .wilf import _wilf_rows

LAYERS = ("grid", "diagonal", "values", "wilf", "triangles", "rectangle", "sg", "ssg", "fg")

DEFAULT_LAYERS = ("grid", "diagonal", "values", "wilf", "sg", "ssg", "fg", "rectangle")

_FILL = {
    "triangles": "#d0e8ff",
    "sg": "#f2c28c",
    "ssg": "#caa6d8",
    "fg": "#b8d8b8",
}

CELL = 40


def _cell_rects(T: TwoGen, rect_x, rows, color, opacity):
    """One filled <rect> per cell of the row intervals (b, first, last), in
    their order; rect_x holds the x prefix of each column a, built once per
    render."""
    tail = f'" width="{CELL}" height="{CELL}" fill="{color}" fill-opacity="{opacity}"/>'
    return chain.from_iterable(
        map(str.__add__, rect_x[first:last + 1], repeat(f"{(T.alpha - b) * CELL}{tail}"))
        for b, first, last in rows
    )


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
    if layers & _FILL.keys():
        # the shaded layers share the x prefixes, indexed by column a
        rect_x = [f'<rect x="{(a - 1) * CELL}" y="' for a in range(T.row_length(1) + 1)]
    if "triangles" in layers:
        el += _cell_rects(T, rect_x, _rows_u(T), _FILL["triangles"], "60%")
        el += _cell_rects(T, rect_x, _rows_r(T), _FILL["triangles"], "60%")
    if "fg" in layers:
        el += _cell_rects(T, rect_x, _rows_fg(T), _FILL["fg"], "55%")
    if "sg" in layers:
        el += _cell_rects(T, rect_x, _sg_rows(T)[1], _FILL["sg"], "70%")
    if "ssg" in layers:
        el += _cell_rects(T, rect_x, _rows_ssg(T), _FILL["ssg"], "70%")
    if "grid" in layers:
        dash = '" stroke="#999" stroke-dasharray="3,3"/>'
        xs = list(map(str, range(0, width + 1, CELL)))
        el += map("".join, zip(repeat('<line x1="'), xs, repeat('" y1="0" x2="'), xs, repeat(f'" y2="{height}{dash}')))
        ys = list(map(str, range(0, height + 1, CELL)))
        el += map("".join, zip(repeat('<line x1="0" y1="'), ys, repeat(f'" x2="{width}" y2="'), ys, repeat(dash)))
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
        # one element per cell, each label joined from its column's x prefix,
        # its row's y and font text, and its number; after a values label the
        # wilf prefix closes it and starts a line of its own
        columns = range(1, T.row_length(1) + 1)
        close = "</text>\n" if "values" in layers else ""
        vx = [f'<text x="{(a - 1) * CELL + 3}" y="' for a in columns]
        wx = [f'{close}<text x="{a * CELL - 3}" y="' for a in columns]
        for b, values, wilf in _wilf_rows(T):
            y = height - b * CELL
            pieces = []
            if "values" in layers:
                pieces += vx, repeat(f'{y + CELL - 4}" font-size="12" font-family="monospace">'), map(str, values)
            if "wilf" in layers:
                pieces += wx, repeat(f'{y + 12}" font-size="10" font-family="monospace" text-anchor="end">'), map(str, wilf)
            el += map("".join, zip(*pieces, repeat("</text>")))
    el.append("</svg>")
    return "\n".join(el) + "\n"
