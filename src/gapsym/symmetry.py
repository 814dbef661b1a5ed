"""Gap-triangle symmetry: the two side triangles, their reflections, the
zero-Wilf cells, borders, the five-block partition of the gap lattice, and
the reconstruction game that recovers every gap from the two symmetric sets.

Cell sets are plain frozensets of (a, b) pairs; no connectivity is assumed
or checked anywhere.  Each named block is a union of row segments: its
`_rows_*` helper yields one non-empty interval (b, first, last) per row, b
descending as in `TwoGen.walk`, and its cell set and the writers read them.
`gap_partition` checks the five-block split on these intervals
(`_partition_rows`); only `reconstruct_from_symmetric`, whose input is
untrusted, builds the whole gap lattice as cells.
"""

from __future__ import annotations

from itertools import chain, count, repeat
from math import gcd
from typing import NamedTuple

from .errors import Ambiguous, InconsistentInput, PartitionViolation
from .semigroup import NumericalSemigroup, TwoGen
from .semimodule import _gap_rows
from .wilf import _wilf_rows


def _full_rows(T: TwoGen, rows):
    """The intervals of every gap cell of the rows b, in the given order."""
    return ((b, 1, T.row_length(b)) for b in rows)


def _rows_u(T: TwoGen):
    """T_u: the rows above the midline b = floor(alpha/2)."""
    return _full_rows(T, range(T.alpha - 1, T.alpha // 2, -1))


def _rows_r(T: TwoGen):
    """T_r: a from floor(beta/2) + 1 on, in the rows that reach it."""
    first = T.beta // 2 + 1
    return ((b, first, T.row_length(b)) for b in range(T.column_height(first), 0, -1))


def _rows_ssg(T: TwoGen):
    """SSG: the row alpha/2, or the column beta/2 one row at a time."""
    if T.alpha % 2 == 0:
        yield from _full_rows(T, (T.alpha // 2,))
    elif T.beta % 2 == 0:
        a = T.beta // 2
        yield from ((b, a, a) for b in range(T.column_height(a), 0, -1))


def _rows_fg(T: TwoGen):
    """FG (`fundamental.fundamental_cells`): for b <= floor(alpha/2), a up to
    floor(beta/2) when 3b <= alpha and up to floor(beta/3) otherwise."""
    half, third = T.beta // 2, T.beta // 3
    return ((b, 1, half if 3 * b <= T.alpha else third) for b in range(T.alpha // 2, 0, -1))


def _rows_rect(T: TwoGen):
    """The rectangle a <= floor(beta/2), b <= floor(alpha/2)."""
    half = T.beta // 2
    return ((b, 1, half) for b in range(T.alpha // 2, 0, -1))


def _walk_cells(rows):
    """The cells (a, b) of row intervals, in their order."""
    return ((a, b) for b, first, last in rows for a in range(first, last + 1))


def _size(rows):
    """The number of cells of row intervals."""
    return sum([last - first + 1 for _, first, last in rows])


def triangle_u(T: TwoGen) -> frozenset:
    """Gap cells strictly above the horizontal midline b = floor(alpha/2)."""
    return frozenset(_walk_cells(_rows_u(T)))


def triangle_r(T: TwoGen) -> frozenset:
    """Gap cells strictly right of the vertical midline a = floor(beta/2)."""
    return frozenset(_walk_cells(_rows_r(T)))


def _smaller_side(t_u: int, t_r: int) -> str:
    """The side tag of the smaller triangle, given both sizes; ties go to T_u."""
    return "T_u" if t_u <= t_r else "T_r"


def _sg_rows(T: TwoGen):
    """(side, row intervals) of the smaller triangle, sized by `_block_counts`."""
    t_u, t_r, _ = _block_counts(T.alpha, T.beta)
    side = _smaller_side(t_u, t_r)
    return side, _rows_u(T) if side == "T_u" else _rows_r(T)


def supersymmetric_gaps(T: TwoGen):
    """The smaller of the two triangles, with its side tag.

    Ties go to the upper triangle; the tag records the choice.  Only the
    smaller triangle is built, from `_sg_rows`.
    """
    side, rows = _sg_rows(T)
    return side, frozenset(_walk_cells(rows))


def self_symmetric_gaps(T: TwoGen) -> frozenset:
    """Cells on a half-line alpha = 2b or beta = 2a; exactly the zero-Wilf gaps."""
    return frozenset(_walk_cells(_rows_ssg(T)))


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
    side = _smaller_side(len(tu), len(tr))
    lhs = translate_tau(reflect_alpha(T, right_border(T, tu)))
    rhs = reflect_beta(T, right_border(T, tr))
    if side == "T_r":
        rhs |= right_border(T, self_symmetric_gaps(T))
    return side, lhs, rhs


class GapPartition(NamedTuple):
    """The five disjoint blocks covering every gap cell."""

    t_u: frozenset
    s_alpha_t_u: frozenset
    ssg: frozenset
    t_r: frozenset
    s_beta_t_r: frozenset

    def block_sizes(self):
        return tuple(map(len, self))


def rectangle_cells(T: TwoGen) -> frozenset:
    """Cells with a <= floor(beta/2) and b <= floor(alpha/2): gaps g with 2g in the semigroup.

    Every such cell is a gap cell: a*alpha + b*beta <= alpha*beta, with
    equality only if alpha and beta are both even, which coprimality forbids.
    """
    return frozenset(_walk_cells(_rows_rect(T)))


def _joined_rows(rows):
    """Row intervals sorted by (b, first), each joined to the one before when
    it starts one past that one's end in the same row; None when an interval
    is empty.  Two intervals that share a cell are never joined."""
    out = []
    for row in sorted(rows):
        b, first, last = row
        if last < first:
            return None
        if out and out[-1][0] == b and out[-1][2] + 1 == first:
            out[-1] = (b, out[-1][1], last)
        else:
            out.append(row)
    return out


def _partition_rows(T: TwoGen):
    """The row intervals of the five `GapPartition` blocks, in its field
    order, after checking that they split the gap lattice (`gap_partition`)."""
    alpha, beta = T.alpha, T.beta
    t_u, ssg, t_r = [*_rows_u(T)], [*_rows_ssg(T)], [*_rows_r(T)]
    s_alpha_t_u = [(alpha - b, first, last) for b, first, last in t_u]
    s_beta_t_r = [(b, beta - last, beta - first) for b, first, last in t_r]
    lattice = [*_full_rows(T, range(1, alpha))]
    if _joined_rows(t_u + s_alpha_t_u + ssg + t_r + s_beta_t_r) != lattice:
        raise PartitionViolation(f"blocks do not partition the gap lattice of {T!r}")
    if _joined_rows(s_alpha_t_u + ssg + s_beta_t_r) != sorted(_rows_rect(T)):
        raise PartitionViolation(f"reflected blocks do not tile the rectangle of {T!r}")
    return t_u, s_alpha_t_u, ssg, t_r, s_beta_t_r


def gap_partition(T: TwoGen) -> GapPartition:
    """Split the gap lattice into the five blocks and verify the split.

    The check runs on row intervals (`_partition_rows`), not cells.  Each
    block is the cells of its intervals (`_walk_cells`), and both
    reflections map an interval of a row to one interval: (a, b) -> (a,
    alpha - b) moves it to the row alpha - b, and (a, b) -> (beta - a, b)
    maps [first, last] to [beta - last, beta - first].  Non-empty intervals
    of one row are disjoint with one interval as their union exactly when,
    sorted, each starts one past the end of the one before, that is, when
    `_joined_rows` joins them all into one.  So the blocks, joined, equal
    the full rows (1, row_length(b)), one per row, exactly when they are
    disjoint and their union is the gap lattice, and the three reflected
    blocks equal the rectangle's rows (`_rows_rect`) exactly when their
    union is the rectangle; these are the two cell-set checks, at
    O(alpha log alpha) instead of O(genus) cost.  An empty interval fails
    the check too, so a block's interval lengths sum to its cell count, and
    `analyze` reads the block sizes from them.
    """
    return GapPartition(*(frozenset(_walk_cells(rows)) for rows in _partition_rows(T)))


def cell_values(T: TwoGen, cells):
    """Sorted gap values of a cell set.

    Raises OutOfTriangle, as `TwoGen.lattice_to_gap` does, when a cell is
    off the gap lattice: a < 1, b < 1 or a value <= 0.
    """
    p, x, y = T.product, T.alpha, T.beta
    values = sorted([p - a * x - b * y for a, b in cells if a >= 1 and b >= 1])
    if len(values) < len(cells) or values and values[0] <= 0:
        for a, b in cells:
            T.lattice_to_gap(a, b)  # raises at the first cell off the lattice
    return values


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
    lg = frozenset(_walk_cells(_full_rows(T, range(1, T.alpha))))
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


def _block_counts(alpha: int, beta: int):
    """(|T_u|, |T_r|, |SSG|) of the coprime pair <alpha, beta>, read off the
    gap lattice's rows from the two integers alone: no TwoGen and no cell is
    built.

    These are the direct counts.  Row b holds (alpha*beta - b*beta - 1) //
    alpha gap cells, `TwoGen.row_length`'s expression; T_u is the rows b >
    alpha//2 (`_rows_u`), and T_r the cells past beta//2 of each row longer
    than that (`_rows_r`).  SSG is the row alpha/2 when alpha is even, and
    the column beta/2, one cell in each row that reaches it, when beta is
    even (`_rows_ssg`).  The paper's closed sums for the same three counts
    are evaluated in `card_formulas` only, which holds them against these.
    """
    half = beta // 2
    # rows[b - 1] is row b's length: v runs over alpha*beta - b*beta - 1 for
    # b = 1 .. alpha - 1, and b = alpha would give -1
    rows = [v // alpha for v in range(alpha * beta - beta - 1, 0, -beta)]
    t_u = sum(rows[alpha // 2:])
    t_r = sum(r - half for r in rows if r > half)
    if alpha % 2 == 0:
        ssg = rows[alpha // 2 - 1]
    else:
        ssg = sum(r >= half for r in rows) if beta % 2 == 0 else 0
    return t_u, t_r, ssg


def _symmetric_count(alpha: int, beta: int) -> int:
    """|SG| + |SSG|, which is |SG u SSG| since the blocks are disjoint (as
    `gap_partition` checks).  Both are direct counts, read off the lattice
    rows by `_block_counts`, not the closed sums of `card_formulas`.

    For alpha >= 3 the count is at most |FG|, as the `uff` survey check
    verifies pair by pair.  The reflected blocks tile the rectangle of
    R = (alpha//2)(beta//2) cells, so |T_u| + |T_r| + |SSG| = R and the
    count is R - max(|T_u|, |T_r|).  The rectangle cells that are not
    fundamental are those with 3a > beta and 3b > alpha (`fundamental_cells`),
    so |FG| = R - PQ with P = beta//2 - beta//3 and Q = alpha//2 - alpha//3.
    The inequality is therefore max(|T_u|, |T_r|) >= PQ.

    Conjecture (not proved): min(|T_u|, |T_r|) >= PQ.  It holds on all
    26,949 coprime pairs with alpha >= 3 and beta <= 300.  Among them the
    inequality |SG u SSG| <= |FG| is an equality only at <4, 5>, where
    |T_u| = |T_r| = PQ = 1.
    """
    t_u, t_r, ssg = _block_counts(alpha, beta)
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
    six per alpha, O(sqrt V) in all.  A candidate is dropped unless its
    symmetric sets hold as many cells as there are target values, a direct
    count read off the lattice row lengths from alpha and beta alone
    (`_symmetric_count`), not a closed sum; so a dropped candidate builds no
    TwoGen and maps no value.  A candidate that passes builds its
    TwoGen, maps the target values to their cells once, and before any
    triangle is built it is dropped unless every target value is a gap.
    Gaps and cells correspond one to one, so a candidate matches exactly
    when its symmetric cells are those cells.
    """
    target = set(values)
    top = max(target, default=0)
    if top <= 0:
        return None
    matches = []
    for alpha, beta in _candidate_pairs(top, max_beta):
        if _symmetric_count(alpha, beta) != len(target):
            continue
        T = TwoGen(alpha, beta)
        cells = {T.cell_of(v) for v in target}
        if None in cells:
            continue
        _, sg = supersymmetric_gaps(T)
        if sg | self_symmetric_gaps(T) == cells:
            matches.append((alpha, beta))
    if not matches:
        return None
    if len(matches) > 1:
        raise Ambiguous(f"{len(matches)} pairs match {sorted(target)}", matches)
    return matches[0]


class CardinalityReport(NamedTuple):
    """Printed-sum cardinalities next to direct cell counts, and the
    corrected upper-triangle sum."""

    ssg_formula: int
    ssg_direct: int
    t_u_formula: int
    t_u_corrected: int
    t_u_direct: int
    t_r_formula: int
    t_r_direct: int
    sg_side: str
    agree: bool
    warnings: tuple


def card_formulas(T: TwoGen) -> CardinalityReport:
    """Evaluate the closed cardinality sums against the direct counts of
    `_block_counts`.

    This is the one place that evaluates the paper's floor(j*beta/alpha)
    sums.  The direct counts are read off the row lengths (alpha*beta -
    b*beta - 1)//alpha, so the `cardinality` survey check holds each sum
    against a count derived without it.

    The right-triangle sum clamps negative terms at zero; the upper-triangle
    sum is evaluated as printed, which undercounts for odd alpha, so `agree`
    is reported rather than asserted.  The corrected upper-triangle sum runs
    j up to ceil(alpha/2) - 1 instead of alpha//2 - 1: row b of T_u holds
    floor((alpha - b)*beta/alpha) cells for alpha//2 < b < alpha, that is
    floor(j*beta/alpha) with j = alpha - b, which runs from 1 to
    ceil(alpha/2) - 1.

    The printed SSG count and right-triangle sum equal the direct counts for
    every coprime pair.  With j = alpha - b, row b holds floor((j*beta -
    1)/alpha) = floor(j*beta/alpha) gap cells, as alpha does not divide
    j*beta for 0 < j < alpha.

    - SSG: at most one of alpha, beta is even.  For alpha even and beta =
      2k + 1 the half-line row j = alpha/2 holds floor(k + 1/2) = k =
      (beta - 1)//2 cells; beta even is the same on the column beta/2, of
      height (alpha - 1)//2; with both odd there is no half line.
    - T_r: row b holds max(0, floor(j*beta/alpha) - beta//2) cells of T_r,
      which is 0 whenever j <= alpha/2.  The printed sum runs j from
      alpha//2 + 1 (alpha even) or alpha//2 (alpha odd) to alpha - 1, so
      the terms it leaves out or adds are all such zeros.

    So only the printed upper-triangle sum files a warning.  The survey's
    `cardinality` check still files an SSG mismatch as a violation, and
    `t_r_formula` stays in the report beside `t_r_direct`.
    """
    a, b = T.alpha, T.beta
    if a % 2 == 1 and b % 2 == 1:
        ssg_formula = 0
    elif a % 2 == 0:
        ssg_formula = (b - 1) // 2
    else:
        ssg_formula = (a - 1) // 2
    t_u_formula = sum(j * b // a for j in range(1, a // 2))
    t_u_corrected = sum(j * b // a for j in range(1, (a + 1) // 2))
    h = a // 2 + 1 if a % 2 == 0 else a // 2
    t_r_formula = sum(max(0, j * b // a - b // 2) for j in range(h, a))
    t_u, t_r, ssg = _block_counts(a, b)
    warnings = []
    if t_u_formula != t_u:
        warnings.append(f"upper-triangle sum {t_u_formula} != direct count {t_u} (odd alpha)")
    return CardinalityReport(
        ssg_formula=ssg_formula,
        ssg_direct=ssg,
        t_u_formula=t_u_formula,
        t_u_corrected=t_u_corrected,
        t_u_direct=t_u,
        t_r_formula=t_r_formula,
        t_r_direct=t_r,
        sg_side=_smaller_side(t_u, t_r),
        agree=not warnings,
        warnings=tuple(warnings),
    )


class GapClass(NamedTuple):
    """Gaps sharing the conductor of their [0, g] module."""

    conductor: int
    members: tuple
    pairs: tuple
    self_symmetric: int | None


def gap_conductor_partition(S: NumericalSemigroup):
    """Group gaps by the conductor of [0, g]; pair members of equal |W|.

    W is the Wilf number of [0, g].  Each gap is filed with its W under its
    conductor and |W|; `S.gaps` is ascending, so every bucket is too.  Within
    a class, the two gaps of a bucket of two form a pair; a singleton class
    is its own representative, and for a two-generator base the lone unpaired
    member of an odd class (always Wilf number zero) is flagged the same way.
    """
    by_conductor = {}
    for g, c, w, _ in _gap_rows(S, S.gaps):
        by_conductor.setdefault(c, {}).setdefault(abs(w), []).append((g, w))
    out = []
    for c, buckets in sorted(by_conductor.items()):
        members = sorted(g for group in buckets.values() for g, _ in group)
        pairs, unpaired = [], []
        for _, group in sorted(buckets.items()):
            if len(group) == 2:
                (g, _), (h, _) = group
                pairs.append((g, h))
            else:
                unpaired.extend(group)
        self_symmetric = None
        if len(unpaired) == 1 and (len(members) == 1 or unpaired[0][1] == 0):
            self_symmetric = unpaired[0][0]
        out.append(GapClass(c, tuple(members), tuple(pairs), self_symmetric))
    return out


def _grid_cells(T: TwoGen):
    """The rows of `wilf_grid`, lazily: a flattening reader gets `zip`'s one
    reused tuple, not a tuple per cell."""
    return chain.from_iterable(
        zip(count(1), repeat(b), values, wilf) for b, values, wilf in _wilf_rows(T)
    )


def wilf_grid(T: TwoGen):
    """All cells with gap value and Wilf number, row-major (b desc, a asc)."""
    return tuple(_grid_cells(T))
