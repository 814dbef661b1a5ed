"""Wilf numbers of semimodules and of single gaps.

The Wilf number of a semimodule is `GammaSemimodule.wilf`.  For a gap g of a
two-generator semigroup the Wilf number of the module generated by [0, g] has
a closed form in the lattice coordinates of g, with a branch chosen by which
of the two syzygy generators is smaller.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NotAGap
from .semigroup import NumericalSemigroup, TwoGen
from .semimodule import _gap_module, is_fixed_point, is_selfdual, is_symmetric_sm


@dataclass(frozen=True)
class WilfReport:
    """Wilf number together with the quantities it was assembled from."""

    w: int
    ed: int
    delta: int
    conductor: int
    min_branch: str


def wilf_gap(S: NumericalSemigroup, g: int) -> int:
    """Wilf number of the module [0, g], whose ed is 2; any base."""
    if S.contains(g) or g < 0:
        raise NotAGap(f"{g} is not a gap of {S!r}")
    return _gap_module(S, g).wilf


def _wilf_number(T: TwoGen, a: int, b: int) -> int:
    """Closed-form Wilf number of the cell (a, b), which is not checked to be
    a gap cell: the branch of `wilf_gap_formula`, as a plain int."""
    if b * T.beta > a * T.alpha:
        return 2 * a * b - a * T.alpha
    return 2 * a * b - b * T.beta


def wilf_gap_formula(T: TwoGen, a: int, b: int) -> WilfReport:
    """Closed form for the gap at cell (a, b) of a two-generator semigroup.

    The two syzygy generators of [0, g] are h0 = alpha*beta - b*beta and
    h1 = alpha*beta - a*alpha; the smaller one selects the branch:
    -W = a*alpha - 2ab when h0 is smaller, -W = b*beta - 2ab otherwise.
    """
    T.lattice_to_gap(a, b)  # raises OutOfTriangle off the gap lattice
    h0 = T.product - b * T.beta
    h1 = T.product - a * T.alpha
    w = _wilf_number(T, a, b)
    if h0 < h1:
        branch = "beta_term"
        m = h1
    else:
        branch = "alpha_term"
        m = h0
    conductor = m - T.alpha - T.beta + 1
    return WilfReport(
        w=w,
        ed=2,
        delta=(w + conductor) // 2,
        conductor=conductor,
        min_branch=branch,
    )


@dataclass(frozen=True)
class ZeroWilfChecks:
    """The five predicates that agree for gaps of two-generator semigroups."""

    wilf_zero: bool
    on_half_line: bool
    fixed_point: bool
    selfdual: bool
    symmetric: bool

    def all_agree(self) -> bool:
        vals = (self.wilf_zero, self.on_half_line, self.fixed_point, self.selfdual, self.symmetric)
        return len(set(vals)) == 1

    def all_true(self) -> bool:
        return self.wilf_zero and self.on_half_line and self.fixed_point and self.selfdual and self.symmetric


def zero_wilf_equivalences(T: TwoGen, g: int) -> ZeroWilfChecks:
    """Evaluate all five predicates for the module [0, g] independently."""
    cell = T.gap_to_lattice(g)
    a, b = cell
    d = _gap_module(T.semigroup(), g, cell)
    return ZeroWilfChecks(
        wilf_zero=(d.wilf == 0),
        on_half_line=(T.alpha == 2 * b or T.beta == 2 * a),
        fixed_point=is_fixed_point(d),
        selfdual=is_selfdual(d),
        symmetric=is_symmetric_sm(d),
    )


def zero_wilf_survey_general(S: NumericalSemigroup):
    """For every gap with Wilf number zero, report the three module predicates.

    Rows are (gap, wilf, fixed_point, selfdual, symmetric); used to probe how
    the two-generator equivalences fail for more generators.
    """
    rows = []
    for g in S.gaps:
        d = _gap_module(S, g)
        if d.wilf != 0:
            continue
        rows.append((g, 0, is_fixed_point(d), is_selfdual(d), is_symmetric_sm(d)))
    return rows
