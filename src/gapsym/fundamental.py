"""Fundamental gaps, divisor closure, and determinacy of a semigroup by a
subset of its gaps."""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import NotASemigroup, XNotInGaps
from .semigroup import NumericalSemigroup, TwoGen
from .symmetry import _symmetric_count
from .wilf import wilf_gap


@dataclass(frozen=True)
class FundamentalGapSet:
    """Gaps g with both 2g and 3g in the semigroup."""

    gaps: tuple
    source: NumericalSemigroup


def fundamental_gaps(S: NumericalSemigroup) -> FundamentalGapSet:
    fg = tuple(g for g in S.gaps if S.contains(2 * g) and S.contains(3 * g))
    return FundamentalGapSet(gaps=fg, source=S)


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

    The complement of the divisor closure must be additively closed; sums of
    two members can only land back in the closure below its maximum, so
    checking up to twice that value settles closure.
    """
    fg = set(fg)
    if not fg:
        return NumericalSemigroup([1])
    closure = divisor_closure(fg)
    top = max(closure)
    members = [x for x in range(1, top + 1) if x not in closure]
    member_set = set(members)
    for i, x in enumerate(members):
        for y in members[i:]:
            s = x + y
            if s > top:
                break
            if s not in member_set:
                raise NotASemigroup(f"{x} + {y} = {s} falls into the divisor closure")
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
    return set(fundamental_gaps(S).gaps) <= xs


@dataclass(frozen=True)
class RedChecks:
    """Three equivalent ways to say a gap doubles into the semigroup."""

    double_in_semigroup: bool
    in_rectangle: bool
    wilf_nonpositive: bool

    def all_agree(self) -> bool:
        return self.double_in_semigroup == self.in_rectangle == self.wilf_nonpositive


def red_equivalence(T: TwoGen, g: int) -> RedChecks:
    a, b = T.gap_to_lattice(g).point  # raises NotAGap for 0, negatives and members
    S = T.semigroup()
    return RedChecks(
        double_in_semigroup=S.contains(2 * g),
        in_rectangle=(1 <= a <= T.beta // 2 and 1 <= b <= T.alpha // 2),
        wilf_nonpositive=(wilf_gap(S, g) <= 0),
    )


@dataclass(frozen=True)
class CountComparison:
    """|SG u SSG| against |FG|, with the closed count for multiplicity 2."""

    sg_ssg: int
    fg: int
    inequality_holds: bool
    alpha2_fg_formula: int | None


def compare_counts(T: TwoGen) -> CountComparison:
    fg = fundamental_gaps(T.semigroup())
    n_sym = _symmetric_count(T)
    formula = None
    if T.alpha == 2:
        b = T.beta
        formula = (b - 1) // 2 - (-(-(b - 3) // 6))
    return CountComparison(
        sg_ssg=n_sym,
        fg=len(fg.gaps),
        inequality_holds=n_sym <= len(fg.gaps),
        alpha2_fg_formula=formula,
    )
