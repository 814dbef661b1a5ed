"""Wilf numbers of semimodules and of single gaps.

The Wilf number of a semimodule is `GammaSemimodule.wilf`.  For a gap g of a
two-generator semigroup the Wilf number of the module generated by [0, g] has
a closed form in the lattice coordinates of g, with a branch chosen by which
of the two syzygy generators is smaller.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import NamedTuple

from .errors import NotAGap
from .semigroup import NumericalSemigroup, TwoGen
from .semimodule import _gap_flags, _gap_rows


class WilfReport(NamedTuple):
    """Wilf number together with the quantities it was assembled from."""

    w: int
    ed: int
    delta: int
    conductor: int
    min_branch: str


def wilf_gap(S: NumericalSemigroup, g: int) -> int:
    """Wilf number of the module [0, g], whose ed is 2; any base.

    If 2g is in S then W([0, g]) <= 0.  D = S u (g + S) contains S, so it
    misses finitely many naturals, and it is closed under addition: s + s'
    is in S, s + (g + s') in g + S, and (g + s) + (g + s') = 2g + s + s' in
    S.  So D is a numerical semigroup.  Below its conductor c(D) each member x
    pairs with c(D) - 1 - x, a gap, since their sum c(D) - 1 is a gap; so
    at most half of [0, c(D)) are members, and W = 2 delta - c(D) <= 0.
    The converse fails: over <4, 5, 6, 7>, [0, 1] has gaps 2 and 3, so
    W = 2*2 - 4 = 0, while 2 is a gap.
    """
    if S.contains(g) or g < 0:
        raise NotAGap(f"{g} is not a gap of {S!r}")
    return next(_gap_rows(S, (g,)))[2]


def _wilf_number(T: TwoGen, a: int, b: int) -> int:
    """Closed-form Wilf number 2ab - min(a*alpha, b*beta) of the cell (a, b),
    which is not checked to be a gap cell; `wilf_gap_formula` reads it."""
    if b * T.beta > a * T.alpha:
        return 2 * a * b - a * T.alpha
    return 2 * a * b - b * T.beta


def _wilf_rows(T: TwoGen):
    """Yield (b, values, wilf) for each row b of the gap lattice, b descending:
    the gap values and Wilf numbers of the cells (1, b) .. (n, b), n =
    `T.row_length(b)`, as ranges.

    `_wilf_number` takes the first branch exactly when a*alpha < b*beta.  As
    alpha does not divide b*beta for 0 < b < alpha, that is a <= b*beta //
    alpha, so with k = min(n, b*beta // alpha), W = a(2b - alpha) for a <= k
    and W = b(2a - beta) for a > k.  A row with alpha = 2b has step 0 there,
    which a range cannot take, and reads k zeros.
    """
    alpha, beta = T.alpha, T.beta
    for b in range(alpha - 1, 0, -1):
        n = T.row_length(b)
        k = min(n, b * beta // alpha)
        s = 2 * b - alpha
        first = range(s, s * (k + 1), s) if s else repeat(0, k)
        yield b, range(T.product - b * beta - alpha, 0, -alpha), chain(
            first, range(b * (2 * k + 2 - beta), b * (2 * n + 2 - beta), 2 * b)
        )


def wilf_gap_formula(T: TwoGen, a: int, b: int) -> WilfReport:
    """Closed form for the gap at cell (a, b) of a two-generator semigroup.

    The two syzygy generators of [0, g] are alpha*beta - b*beta and
    alpha*beta - a*alpha.  The larger, alpha*beta - min(a*alpha, b*beta),
    less alpha + beta - 1 is the conductor, (alpha-1)(beta-1) - min(a*alpha,
    b*beta).  W = 2ab - min(a*alpha, b*beta) (`_wilf_number`) holds the same
    minimum, so the conductor is T.conductor - (2ab - W).  The branch names
    the smaller syzygy generator: "beta_term", alpha*beta - b*beta, exactly
    when b*beta > a*alpha.
    """
    T.lattice_to_gap(a, b)  # raises OutOfTriangle off the gap lattice
    w = _wilf_number(T, a, b)
    conductor = T.conductor - (2 * a * b - w)
    return WilfReport(
        w=w,
        ed=2,
        delta=(w + conductor) // 2,
        conductor=conductor,
        min_branch="beta_term" if b * T.beta > a * T.alpha else "alpha_term",
    )


class ZeroWilfChecks(NamedTuple):
    """The five predicates that agree for gaps of two-generator semigroups.

    An immutable tuple of the five flags, in field order; it compares equal
    to a plain tuple of the same values."""

    wilf_zero: bool
    on_half_line: bool
    fixed_point: bool
    selfdual: bool
    symmetric: bool

    def all_agree(self) -> bool:
        return len(set(self)) == 1

    def all_true(self) -> bool:
        return all(self)


def zero_wilf_equivalences(T: TwoGen, g: int) -> ZeroWilfChecks:
    """Evaluate all five predicates for the module [0, g] independently: the
    half-line test reads the cell of g, W the `_gap_rows` row of [0, g], and
    the fixed point, selfdual and symmetric flags that row's three
    `_gap_flags` scans, in field order; no module is built."""
    a, b = T.gap_to_lattice(g)  # raises NotAGap off the gaps
    S = T.semigroup()
    _, _, w, *flags, _ = next(_gap_flags(S, _gap_rows(S, (g,))))
    return ZeroWilfChecks(w == 0, T.alpha == 2 * b or T.beta == 2 * a, *flags)


def zero_wilf_survey_general(S: NumericalSemigroup):
    """For every gap with Wilf number zero, report the three module predicates.

    Rows are (gap, wilf, fixed_point, selfdual, symmetric); used to probe how
    the two-generator equivalences fail for more generators.
    """
    zero = (row for row in _gap_rows(S, S.gaps) if row[2] == 0)
    return [(g, 0, *flags) for g, _, _, *flags, _ in _gap_flags(S, zero)]
