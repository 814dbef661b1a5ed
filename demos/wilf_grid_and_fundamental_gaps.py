"""The Wilf-number grid of <8,13>, its sign structure, and how the symmetric
sets compare in size with the fundamental gaps.  Also writes the grid as a
deterministic SVG next to this script.

Run: python3 demos/wilf_grid_and_fundamental_gaps.py
"""

from pathlib import Path

from gapsym import (
    compare_counts,
    fundamental_gaps,
    make_semigroup,
    wilf_gap,
    wilf_grid,
)
from gapsym.render import render_svg

S = make_semigroup([8, 13])
T = S.two_gen()

# gap value and Wilf number per cell, printed row by row from the top
print("<8,13> grid (gap/Wilf):")
rows = {}
for a, b, value, w in wilf_grid(T):
    rows.setdefault(b, []).append(f"{value}/{w}")
for b in sorted(rows, reverse=True):
    print(f"  b={b}: " + "  ".join(rows[b]))

# Wilf number <= 0 happens exactly when the doubled gap is in the semigroup,
# i.e. inside the rectangle a <= 6, b <= 4.
neg = sorted(g for g in S.gaps if wilf_gap(S, g) <= 0)
print(f"\ngaps with nonpositive Wilf number: {neg}")
doubled = sorted(g for g in S.gaps if S.contains(2 * g))
assert neg == doubled

# Fundamental gaps need 2g and 3g in the semigroup; 25 doubles in but not
# triples, so nonpositive Wilf number does not imply fundamental.
fg = fundamental_gaps(S)
print(f"fundamental gaps ({len(fg)}): {list(fg)}")
print(f"gap 25: Wilf {wilf_gap(S, 25)}, 50 in semigroup: {S.contains(50)}, "
      f"75 in semigroup: {S.contains(75)}, fundamental: {25 in fg}")

cc = compare_counts(T)
print(f"|SG u SSG| = {cc.sg_ssg} <= |FG| = {cc.fg}: {cc.inequality_holds}")

out = Path(__file__).with_name("wilf_grid_8_13.svg")
out.write_text(render_svg(T))
print(f"\nwrote {out}")
