from itertools import chain

from gapsym import TwoGen
from gapsym.fundamental import fundamental_cells
from gapsym.render import _FILL, CELL, DEFAULT_LAYERS, LAYERS, render_svg
from gapsym import make_semimodule
from gapsym.survey import coprime_pairs
from gapsym.symmetry import self_symmetric_gaps, triangle_r, triangle_u


def _reference_rects(T, cells, color, opacity):
    out = []
    for a, b in sorted(cells, key=lambda cell: (-cell[1], cell[0])):
        x = (a - 1) * CELL
        y = (T.alpha - b) * CELL
        out.append(
            f'<rect x="{x}" y="{y}" width="{CELL}" height="{CELL}" '
            f'fill="{color}" fill-opacity="{opacity}"/>'
        )
    return out


def _reference_svg(T, layers, grid):
    # render_svg written one element per cell, as it was before the per-layer
    # comprehensions; the output must not change by a byte.  grid holds
    # (a, b, value, W) for every gap cell, in walk order
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
        el += _reference_rects(T, tu, _FILL["triangles"], "60%")
        el += _reference_rects(T, tr, _FILL["triangles"], "60%")
    if "fg" in layers:
        el += _reference_rects(T, fundamental_cells(T), _FILL["fg"], "55%")
    if "sg" in layers:
        sg = tu if len(tu) <= len(tr) else tr
        el += _reference_rects(T, sg, _FILL["sg"], "70%")
    if "ssg" in layers:
        el += _reference_rects(T, self_symmetric_gaps(T), _FILL["ssg"], "70%")
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
        for a, b, value, w in grid:
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


_LAYER_SETS = [(name,) for name in LAYERS] + [DEFAULT_LAYERS, LAYERS, ("wilf", "values")]


def test_render_svg_matches_the_per_cell_reference():
    # the labels take each value from the walk and each W from the scanned
    # module [0, g], not from wilf_grid's closed form; <76, 85> and <80, 81>
    # are as large as the pairs perfbench's analyze workload draws
    for alpha, beta in chain(coprime_pairs(20), [(41, 45), (76, 85), (80, 81)]):
        T = TwoGen(alpha, beta)
        S = T.semigroup()
        grid = [(a, b, g, make_semimodule(S, [0, g]).wilf) for a, b, g in T.walk()]
        for layers in _LAYER_SETS:
            assert render_svg(T, layers) == _reference_svg(T, layers, grid), (alpha, beta, layers)
