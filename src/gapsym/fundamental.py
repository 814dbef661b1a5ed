"""Fundamental gaps, divisor closure, and determinacy of a semigroup by a
subset of its gaps."""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .errors import NotASemigroup, XNotInGaps
from .semigroup import NumericalSemigroup, TwoGen
from .semimodule import _gap_rows
from .symmetry import _rows_fg, _symmetric_count, _walk_cells


def fundamental_gaps(S: NumericalSemigroup) -> tuple:
    """Gaps g with both 2g and 3g in the semigroup, ascending."""
    # 2g and 3g are positive, so each is a member exactly when it is no gap
    gaps = set(S.gaps)
    return tuple(g for g in S.gaps if 2 * g not in gaps and 3 * g not in gaps)


def fundamental_cells(T: TwoGen) -> set:
    """Cells of the fundamental gaps of <alpha, beta>, in closed form: the
    cells (a, b) with a <= beta // 2 and b <= alpha // 2, and 3a <= beta or
    3b <= alpha.

    Every integer n is x*alpha + y*beta for one x in [0, beta), and n lies
    in S exactly when y >= 0.  Let g be the value of the cell (a, b), so
    2g = (beta - 2a)*alpha + (alpha - 2b)*beta.  If 2a <= beta, x is
    beta - 2a and 2g is in S exactly when 2b <= alpha; otherwise x is
    2*beta - 2a and y = -2b < 0.  So 2g is in S exactly on the rectangle.
    On it, 3g = (beta - 3a)*alpha + (2*alpha - 3b)*beta.  If 3a <= beta,
    x is beta - 3a and y = 2*alpha - 3b >= alpha/2 > 0.  Otherwise
    beta < 3a <= 3*beta/2, so x is 2*beta - 3a and y = alpha - 3b, which is
    nonnegative exactly when 3b <= alpha.  So row b holds a <= beta // 2
    when 3b <= alpha and a <= beta // 3 otherwise (`symmetry._rows_fg`).
    `fundamental_gaps` stays the scan these cells are tested against.
    """
    return set(_walk_cells(_rows_fg(T)))


def _fundamental_count(T: TwoGen) -> int:
    """|FG| of <alpha, beta>: (beta//3)(alpha//2) + (beta//2)(alpha//3) -
    (beta//3)(alpha//3).

    Counts `fundamental_cells` by inclusion and exclusion.  Every cell of the
    rectangle a <= beta // 2, b <= alpha // 2 is a gap cell: a*alpha + b*beta
    <= alpha*beta, with equality only when alpha and beta are both even,
    which coprimality excludes.  The rectangle has beta//3 columns with
    3a <= beta and alpha//3 rows with 3b <= alpha.
    """
    a, b = T.alpha, T.beta
    return (b // 3) * (a // 2) + (b // 2) * (a // 3) - (b // 3) * (a // 3)


def divisor_closure(values) -> set:
    """All positive divisors of elements of the input set."""
    out = set()
    for x in values:
        for d in range(1, isqrt(x) + 1):
            if x % d == 0:
                out.add(d)
                out.add(x // d)
    return out


def semigroup_from_fg(fg) -> NumericalSemigroup:
    """Rebuild the semigroup whose fundamental gaps are the given set.

    The complement of the divisor closure must be additively closed.  With
    top the closure's maximum, S below is generated by the rest of [1, top]
    and every integer above top, so its gaps lie in the closure.  A closure
    element of S is a sum of members whose first two summands add up to a
    closure element or to a member; by induction S meets the closure, and
    its gaps differ from it, exactly when two members sum into the closure.
    """
    fg = set(fg)
    if not fg:
        return NumericalSemigroup([1])
    low = min(fg)
    if low <= 0:
        raise NotASemigroup(f"{low} is not positive, so it is no gap of a semigroup")
    closure = divisor_closure(fg)
    top = max(closure)
    members = [x for x in range(1, top + 1) if x not in closure]
    S = NumericalSemigroup(members + list(range(top + 1, 2 * top + 3)))
    if set(S.gaps) != closure:
        raise NotASemigroup(f"complement of {sorted(closure)} is not a semigroup")
    return S


def h_determines(S: NumericalSemigroup, values) -> bool:
    """Whether the semigroup is the inclusion-maximal one avoiding the set.

    Criterion: the set contains every fundamental gap.
    """
    xs = set(values)
    if not xs <= set(S.gaps):
        raise XNotInGaps(f"{sorted(xs - set(S.gaps))} are not gaps of {S!r}")
    return set(fundamental_gaps(S)) <= xs


class RedChecks(NamedTuple):
    """Three equivalent ways to say a gap doubles into the semigroup.

    An immutable tuple of the three flags, in field order; it compares equal
    to a plain tuple of the same values."""

    double_in_semigroup: bool
    in_rectangle: bool
    wilf_nonpositive: bool

    def all_agree(self) -> bool:
        return len(set(self)) == 1


def red_equivalence(T: TwoGen, g: int) -> RedChecks:
    """The three red predicates of the gap g.

    The cell lookup is the one membership test of g: it raises NotAGap off
    the gaps, so W is read straight off the `_gap_rows` row of [0, g].
    That 2g in S forces W <= 0 holds over any base; the proof is in
    `wilf.wilf_gap`.
    """
    S = T.semigroup()
    a, b = T.gap_to_lattice(g)
    return RedChecks(
        double_in_semigroup=S.contains(2 * g),
        in_rectangle=(1 <= a <= T.beta // 2 and 1 <= b <= T.alpha // 2),
        wilf_nonpositive=(next(_gap_rows(S, (g,)))[2] <= 0),
    )


class CountComparison(NamedTuple):
    """|SG u SSG| against |FG|, with the closed count of `_fundamental_count`
    for multiplicity 2."""

    sg_ssg: int
    fg: int
    inequality_holds: bool
    alpha2_fg_formula: int | None


def compare_counts(T: TwoGen) -> CountComparison:
    n_fg = len(fundamental_gaps(T.semigroup()))
    n_sym = _symmetric_count(T.alpha, T.beta)
    return CountComparison(
        sg_ssg=n_sym,
        fg=n_fg,
        inequality_holds=n_sym <= n_fg,
        alpha2_fg_formula=_fundamental_count(T) if T.alpha == 2 else None,
    )
