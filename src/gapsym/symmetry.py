"""Gap-triangle symmetry: the two side triangles, their reflections, the
zero-Wilf cells, borders, the five-block partition of the gap lattice, and
the reconstruction game that recovers every gap from the two symmetric sets.

Cell sets are plain frozensets of (a, b) pairs; no connectivity is assumed
or checked anywhere.  Each named set is built from its own rows or columns;
only the checks in `gap_partition` and `reconstruct_from_symmetric` build
the whole gap lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import Ambiguous, InconsistentInput, PartitionViolation
from .semigroup import NumericalSemigroup, TwoGen
from .semimodule import _gap_module
from .wilf import _wilf_number


def _row_major(cells):
    """Cells (a, b) sorted as `TwoGen.walk` yields them: b descending, then a
    ascending."""
    return sorted(cells, key=lambda p: (-p[1], p[0]))


def _lg_cells(T: TwoGen) -> frozenset:
    return frozenset((a, b) for a, b, _ in T.walk())


def _row_cells(T: TwoGen, rows) -> frozenset:
    """All gap cells of the given rows b."""
    return frozenset((a, b) for b in rows for a in range(1, T.row_length(b) + 1))


def _column_cells(T: TwoGen, columns) -> frozenset:
    """All gap cells of the given columns a."""
    return frozenset((a, b) for a in columns for b in range(1, T.column_height(a) + 1))


def triangle_u(T: TwoGen) -> frozenset:
    """Gap cells strictly above the horizontal midline b = floor(alpha/2)."""
    return _row_cells(T, range(T.alpha // 2 + 1, T.alpha))


def triangle_r(T: TwoGen) -> frozenset:
    """Gap cells strictly right of the vertical midline a = floor(beta/2).

    Columns past row_length(1) hold no gap, so the scan stops there.
    """
    return _column_cells(T, range(T.beta // 2 + 1, T.row_length(1) + 1))


def _smaller_side(t_u: int, t_r: int) -> str:
    """The side tag of the smaller triangle, given both sizes; ties go to T_u."""
    return "T_u" if t_u <= t_r else "T_r"


def _smaller_triangle(tu: frozenset, tr: frozenset):
    """(side, cells) of the smaller of two built triangles."""
    side = _smaller_side(len(tu), len(tr))
    return side, tu if side == "T_u" else tr


def supersymmetric_gaps(T: TwoGen):
    """The smaller of the two triangles, with its side tag.

    Ties go to the upper triangle; the tag records the choice.
    """
    return _smaller_triangle(triangle_u(T), triangle_r(T))


def self_symmetric_gaps(T: TwoGen) -> frozenset:
    """Cells on a half-line alpha = 2b or beta = 2a; exactly the zero-Wilf gaps."""
    row = (T.alpha // 2,) if T.alpha % 2 == 0 else ()
    column = (T.beta // 2,) if T.beta % 2 == 0 else ()
    return _row_cells(T, row) | _column_cells(T, column)


def reflect_alpha(T: TwoGen, cells) -> frozenset:
    """Pointwise reflection (a, b) -> (a, alpha - b)."""
    return frozenset((a, T.alpha - b) for a, b in cells)


def reflect_beta(T: TwoGen, cells) -> frozenset:
    """Pointwise reflection (a, b) -> (beta - a, b)."""
    return frozenset((T.beta - a, b) for a, b in cells)


def translate_tau(cells, step: int = 1) -> frozenset:
    """Pointwise horizontal translation (a, b) -> (a + step, b)."""
    return frozenset((a + step, b) for a, b in cells)


def right_border(T: TwoGen, cells) -> frozenset:
    """Cells whose right neighbor (a+1, b) leaves the gap lattice."""
    return frozenset((a, b) for a, b in cells if not T.in_lattice(a + 1, b))


def border_transport(T: TwoGen):
    """Both sides of the border identity linking the two triangles.

    With the upper triangle as the smaller side the translated reflection of
    its right border equals the reflected right border of the other triangle;
    when the right triangle is smaller, the right border of the zero-Wilf
    column joins the right-hand side.  Returns (side, lhs, rhs).
    """
    tu, tr = triangle_u(T), triangle_r(T)
    side, _ = _smaller_triangle(tu, tr)
    lhs = translate_tau(reflect_alpha(T, right_border(T, tu)))
    rhs = reflect_beta(T, right_border(T, tr))
    if side == "T_r":
        rhs |= right_border(T, self_symmetric_gaps(T))
    return side, lhs, rhs


@dataclass(frozen=True)
class GapPartition:
    """The five disjoint blocks covering every gap cell."""

    t_u: frozenset
    s_alpha_t_u: frozenset
    ssg: frozenset
    t_r: frozenset
    s_beta_t_r: frozenset

    def blocks(self):
        return (self.t_u, self.s_alpha_t_u, self.ssg, self.t_r, self.s_beta_t_r)

    def block_sizes(self):
        return tuple(len(b) for b in self.blocks())


def rectangle_cells(T: TwoGen) -> frozenset:
    """Cells with a <= floor(beta/2) and b <= floor(alpha/2): gaps g with 2g in the semigroup.

    Every such cell is a gap cell: a*alpha + b*beta <= alpha*beta, with
    equality only if alpha and beta are both even, which coprimality forbids.
    """
    return frozenset(
        (a, b) for a in range(1, T.beta // 2 + 1) for b in range(1, T.alpha // 2 + 1)
    )


def gap_partition(T: TwoGen) -> GapPartition:
    """Split the gap lattice into the five blocks and verify the split."""
    tu = triangle_u(T)
    tr = triangle_r(T)
    ssg = self_symmetric_gaps(T)
    part = GapPartition(tu, reflect_alpha(T, tu), ssg, tr, reflect_beta(T, tr))
    lg = _lg_cells(T)
    blocks = part.blocks()
    if frozenset().union(*blocks) != lg or sum(map(len, blocks)) != len(lg):
        raise PartitionViolation(f"blocks do not partition the gap lattice of {T!r}")
    rect = rectangle_cells(T)
    if part.s_alpha_t_u | part.ssg | part.s_beta_t_r != rect:
        raise PartitionViolation(f"reflected blocks do not tile the rectangle of {T!r}")
    return part


def cell_values(T: TwoGen, cells):
    """Sorted gap values of a cell set."""
    return sorted(T.lattice_to_gap(a, b) for a, b in cells)


def reconstruct_from_symmetric(alpha, beta, sg_cells, sg_side, ssg_cells):
    """Recover the full sorted gap set from the two symmetric cell sets.

    The game: reflect the smaller triangle into the rectangle, complement
    inside the rectangle to get the other triangle's reflection, reflect
    back, and take the union of the five blocks.  Input is untrusted; the
    result is validated against the gap-count identity.
    """
    T = TwoGen(alpha, beta)
    sg = frozenset(tuple(p) for p in sg_cells)
    ssg = frozenset(tuple(p) for p in ssg_cells)
    if sg_side not in ("T_u", "T_r"):
        raise InconsistentInput(f"unknown side tag {sg_side!r}")
    lg = _lg_cells(T)
    if not sg <= lg or not ssg <= lg:
        raise InconsistentInput("input cells outside the gap lattice")
    rect = rectangle_cells(T)
    if sg_side == "T_r":
        reflected = reflect_beta(T, sg)
        other = reflect_alpha
    else:
        reflected = reflect_alpha(T, sg)
        other = reflect_beta
    covered = reflected | ssg
    if not covered <= rect or len(reflected) + len(ssg) != len(covered):
        raise InconsistentInput("reflected cells do not tile inside the rectangle")
    complement = rect - covered
    blocks = (sg, reflected, ssg, complement, other(T, complement))
    result = frozenset().union(*blocks)
    total = sum(map(len, blocks))
    if total != T.genus:
        raise InconsistentInput(f"reconstruction yields {total} cells, expected {T.genus}")
    if total != len(result):
        raise InconsistentInput(f"reconstructed blocks overlap: {total} cells cover {len(result)}")
    if not result <= lg:
        raise InconsistentInput(
            f"reconstruction puts {len(result - lg)} of its cells off the gap lattice"
        )
    return cell_values(T, result)


def _corner_betas(alpha: int, top: int):
    """Every beta > alpha for which top is the value of one of the four block
    corners of <alpha, beta>; alpha >= 3.

    Each corner value is linear in beta (for each parity of beta at the
    corners (beta//2, 1) and (beta//2 + 1, 1)), so each equation has at most
    one solution:

    - (1, alpha//2):      value = ceil(alpha/2) * beta - alpha;
    - (1, alpha//2 + 1):  value = (ceil(alpha/2) - 1) * beta - alpha;
    - (beta//2, 1):       value = k(alpha-2) for beta = 2k,
                          k(alpha-2) + alpha - 1 for beta = 2k+1;
    - (beta//2 + 1, 1):   value = k(alpha-2) - alpha for beta = 2k,
                          k(alpha-2) - 1 for beta = 2k+1.
    """
    half = alpha - alpha // 2
    d = alpha - 2
    solutions = (
        (top + alpha, half, 1, 0),
        (top + alpha, half - 1, 1, 0),
        (top, d, 2, 0),
        (top - alpha + 1, d, 2, 1),
        (top + alpha, d, 2, 0),
        (top + 1, d, 2, 1),
    )
    betas = set()
    for num, den, scale, parity in solutions:
        k, r = divmod(num, den)
        beta = scale * k + parity
        if r == 0 and beta > alpha:
            betas.add(beta)
    return betas


def _candidate_pairs(top: int, max_beta: int):
    """Coprime pairs (alpha, beta) with beta <= max_beta that the bound of
    `infer_semigroup` allows for largest value top and that have top as a
    block corner value, in ascending order."""
    if top % 2 and top + 2 <= max_beta:
        yield 2, top + 2
    bound = 2 * top + 4
    alpha = 3
    while (alpha - 2) * (alpha - 1) <= bound:
        limit = min(max_beta, 2 + bound // (alpha - 2))
        for beta in sorted(_corner_betas(alpha, top)):
            if beta <= limit and gcd(alpha, beta) == 1:
                yield alpha, beta
        alpha += 1


def _block_counts(T: TwoGen):
    """(|T_u|, |T_r|, |SSG|), summed over the row lengths without building a cell."""
    half_b, half_a = T.alpha // 2, T.beta // 2
    rows = [T.row_length(b) for b in range(1, T.alpha)]
    t_u = sum(rows[half_b:])
    t_r = sum(max(0, n - half_a) for n in rows)
    ssg = rows[half_b - 1] if T.alpha % 2 == 0 else 0
    if T.beta % 2 == 0:
        ssg += T.column_height(half_a)
    return t_u, t_r, ssg


def _symmetric_count(T: TwoGen) -> int:
    """|SG| + |SSG|, which is |SG u SSG| since the blocks are disjoint (as
    `gap_partition` checks)."""
    t_u, t_r, ssg = _block_counts(T)
    return min(t_u, t_r) + ssg


def infer_semigroup(values, max_beta: int):
    """Search coprime pairs for the one whose symmetric gap values match.

    Returns (alpha, beta), or None when nothing matches; raises Ambiguous
    with all matches, in ascending (alpha, beta), when several pairs share
    the same symmetric values.  Only pairs with beta <= max_beta count.

    The search visits every pair that can match.  Let V be the largest
    target value.  Values fall as a or b grows, so the largest value of a
    nonempty block sits at its corner cell.  For alpha >= 3:

    - alpha even: the self-symmetric row holds (1, alpha/2), whose value is
      alpha*beta/2 - alpha;
    - beta even: the self-symmetric column holds (beta/2, 1), whose value is
      alpha*beta/2 - beta;
    - both odd: the self-symmetric set is empty, so a match needs a nonempty
      symmetric triangle.  Its corner is (1, (alpha+1)/2), of value
      alpha*beta/2 - beta/2 - alpha, or ((beta+1)/2, 1), of value
      alpha*beta/2 - alpha/2 - beta.

    In every case V >= alpha*beta/2 - alpha - beta, which is the same as
    (alpha-2)(beta-2) <= 2V+4.  For alpha = 2 every gap is self-symmetric,
    so V = beta - 2.  Hence every match has beta <= 4V: for V >= 3 the bound
    gives beta <= 2V+6 <= 4V; for V <= 2 it leaves only beta <= 10, where no
    match has beta > 4V; and for alpha = 2, beta = V+2 <= 4V.  A max_beta of
    4V, the CLI default, therefore misses nothing.

    A match also has V as the corner value of one of the blocks it can
    hold: the self-symmetric row (1, alpha//2) or column (beta//2, 1), T_u
    at (1, alpha//2 + 1) or T_r at (beta//2 + 1, 1).  Each corner equation
    is solved for beta (`_corner_betas`), so the candidates number at most
    six per alpha, O(sqrt V) in all.  Before any triangle is built, a
    candidate is dropped unless every target value is a gap and the
    symmetric sets hold as many cells as there are target values.
    """
    target = set(values)
    top = max(target, default=0)
    if top <= 0:
        return None
    matches = []
    for alpha, beta in _candidate_pairs(top, max_beta):
        T = TwoGen(alpha, beta)
        if any(T.cell_of(v) is None for v in target) or _symmetric_count(T) != len(target):
            continue
        _, sg = supersymmetric_gaps(T)
        vals = set(cell_values(T, sg)) | set(cell_values(T, self_symmetric_gaps(T)))
        if vals == target:
            matches.append((alpha, beta))
    if not matches:
        return None
    if len(matches) > 1:
        raise Ambiguous(f"{len(matches)} pairs match {sorted(target)}", matches)
    return matches[0]


@dataclass(frozen=True)
class CardinalityReport:
    """Printed-sum cardinalities next to direct cell counts."""

    ssg_formula: int
    ssg_direct: int
    t_u_formula: int
    t_u_direct: int
    t_r_formula: int
    t_r_direct: int
    sg_side: str
    agree: bool
    warnings: tuple


def card_formulas(T: TwoGen) -> CardinalityReport:
    """Evaluate the closed cardinality sums against the direct counts of
    `_block_counts`.

    The right-triangle sum clamps negative terms at zero; the upper-triangle
    sum is evaluated as printed, which undercounts for odd alpha, so `agree`
    is reported rather than asserted.
    """
    a, b = T.alpha, T.beta
    if a % 2 == 1 and b % 2 == 1:
        ssg_formula = 0
    elif a % 2 == 0:
        ssg_formula = (b - 1) // 2
    else:
        ssg_formula = (a - 1) // 2
    t_u_formula = sum(j * b // a for j in range(1, a // 2))
    h = a // 2 + 1 if a % 2 == 0 else a // 2
    t_r_formula = sum(max(0, j * b // a - b // 2) for j in range(h, a))
    t_u, t_r, ssg = _block_counts(T)
    warnings = []
    if t_u_formula != t_u:
        warnings.append(f"upper-triangle sum {t_u_formula} != direct count {t_u} (odd alpha)")
    if t_r_formula != t_r:
        warnings.append(f"right-triangle sum {t_r_formula} != direct count {t_r}")
    if ssg_formula != ssg:
        warnings.append(f"zero-Wilf count {ssg_formula} != direct count {ssg}")
    return CardinalityReport(
        ssg_formula=ssg_formula,
        ssg_direct=ssg,
        t_u_formula=t_u_formula,
        t_u_direct=t_u,
        t_r_formula=t_r_formula,
        t_r_direct=t_r,
        sg_side=_smaller_side(t_u, t_r),
        agree=not warnings,
        warnings=tuple(warnings),
    )


@dataclass(frozen=True)
class GapClass:
    """Gaps sharing the conductor of their [0, g] module."""

    conductor: int
    members: tuple
    pairs: tuple
    self_symmetric: int | None


def gap_conductor_partition(S: NumericalSemigroup):
    """Group gaps by the conductor of [0, g]; pair members of equal |W|.

    Within a class, two gaps of equal absolute Wilf number form a pair; a
    singleton class is its own representative, and for a two-generator base
    the lone unpaired member of an odd class (always Wilf number zero) is
    flagged the same way.
    """
    by_conductor = {}
    wilf = {}
    for g in S.gaps:
        d = _gap_module(S, g)
        by_conductor.setdefault(d.conductor, []).append(g)
        wilf[g] = d.wilf
    out = []
    for c in sorted(by_conductor):
        members = sorted(by_conductor[c])
        buckets = {}
        for g in members:
            buckets.setdefault(abs(wilf[g]), []).append(g)
        pairs = []
        unpaired = []
        for w in sorted(buckets):
            group = buckets[w]
            if len(group) == 2:
                pairs.append((min(group), max(group)))
            else:
                unpaired.extend(group)
        self_symmetric = None
        if len(members) == 1:
            self_symmetric = members[0]
        elif len(unpaired) == 1 and wilf[unpaired[0]] == 0:
            self_symmetric = unpaired[0]
        out.append(
            GapClass(
                conductor=c,
                members=tuple(members),
                pairs=tuple(pairs),
                self_symmetric=self_symmetric,
            )
        )
    return out


def wilf_grid(T: TwoGen):
    """All cells with gap value and Wilf number, row-major (b desc, a asc)."""
    return tuple((a, b, v, _wilf_number(T, a, b)) for a, b, v in T.walk())
