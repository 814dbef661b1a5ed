"""Exhaustive verification sweeps over all coprime generator pairs.

Each check replays one structural fact on one pair and yields unlabeled
`(kind, message)` findings, kind "violations" or "warnings"; `run_survey`
labels each with its pair and files it.  A check reads the pair's derived
objects through two callables, each built on its first successful call and
kept for the pair: `blocks()` gives the row intervals of the five blocks
that `symmetry._partition_rows` verified, and `scans()` gives the scan
table of `_gap_scans`, which maps the cell of every gap g to the conductor,
the Wilf number and the scanned predicates of the module [0, g], read in
one walk of the gap cells from the rows of `semimodule._gap_rows` and
`semimodule._gap_flags`, with no module built.  The survey is the one
reader of this cell-keyed table.  A failed build is not kept, so each check
that reads it builds it again and gets the same error.  A pair whose checks
never call one builds nothing for it.  The known printed-sum undercount for
the upper triangle at odd alpha is downgraded to a warning.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import GapsymError, InconsistentInput
from .fundamental import RedChecks, _fundamental_count, compare_counts
from .semigroup import NumericalSemigroup, TwoGen
from .semimodule import _gap_flags, _gap_rows
from .symmetry import (
    _partition_rows,
    _size,
    _smaller_side,
    _walk_cells,
    card_formulas,
    reconstruct_from_symmetric,
)
from .wilf import ZeroWilfChecks


class CheckResult(NamedTuple):
    """One check over a sweep: the pairs it saw and its labeled findings."""

    name: str
    pairs: int
    violations: list
    warnings: list


def coprime_pairs(max_beta: int):
    for beta in range(3, max_beta + 1):
        for alpha in range(2, beta):
            if gcd(alpha, beta) == 1:
                yield alpha, beta


def _gap_scans(T: TwoGen) -> dict:
    """Map the cell of each gap g of <alpha, beta>, in the order of
    `T.walk`, to the `semimodule._gap_flags` row of [0, g]."""
    S = T.semigroup()
    walk = list(T.walk())
    rows = _gap_flags(S, _gap_rows(S, [g for _, _, g in walk]))
    return {(a, b): row for (a, b, _), row in zip(walk, rows)}


def _check_partition(T, blocks, scans):
    # `_partition_rows` checks, on row intervals, that the blocks partition
    # the gap lattice and that the reflected blocks tile the rectangle, and
    # `_check_red` that each gap g lies in it exactly when 2g is in S
    if sum(map(_size, blocks())) != T.genus:
        yield "violations", "block sizes miss the genus"


def _check_reconstruct(T, blocks, scans):
    t_u, _, ssg, t_r, _ = blocks()
    side = _smaller_side(_size(t_u), _size(t_r))
    sg = _walk_cells(t_u if side == "T_u" else t_r)
    got = reconstruct_from_symmetric(T.alpha, T.beta, sg, side, _walk_cells(ssg))
    if got != list(T.semigroup().gaps):
        yield "violations", "reconstruction differs"


def _check_equifix(T, blocks, scans):
    # the flags agree exactly when each equals the next, so the record is
    # built only for a finding; likewise in `_check_red`
    alpha, beta = T.alpha, T.beta
    for (a, b), (g, _, w, fixed_point, selfdual, symmetric, _) in scans().items():
        wilf_zero = w == 0
        on_half_line = alpha == 2 * b or beta == 2 * a
        if not (wilf_zero == on_half_line == fixed_point == selfdual == symmetric):
            checks = ZeroWilfChecks(wilf_zero, on_half_line, fixed_point, selfdual, symmetric)
            yield "violations", f"gap {g}: {checks}"


def _check_red(T, blocks, scans):
    half_beta, half_alpha = T.beta // 2, T.alpha // 2
    for (a, b), (g, _, w, _, _, _, double) in scans().items():
        in_rectangle = a <= half_beta and b <= half_alpha
        wilf_nonpositive = w <= 0
        if not (double == in_rectangle == wilf_nonpositive):
            yield "violations", f"gap {g}: {RedChecks(double, in_rectangle, wilf_nonpositive)}"


def _check_uff(T, blocks, scans):
    cc = compare_counts(T)
    fg_count = _fundamental_count(T)
    if fg_count != cc.fg:
        yield "violations", f"|FG| formula {fg_count} != scan {cc.fg}"
    # alpha = 2 fails for every beta >= 5: all (beta-1)/2 gaps are self-symmetric,
    # so |SG u SSG| is the genus, while the gap 1 is not fundamental (3 is a gap)
    if T.alpha == 2 and T.beta > 3:
        yield "warnings", "excluded (alpha=2)"
        return
    if not cc.inequality_holds:
        yield "violations", f"|SG u SSG|={cc.sg_ssg} > |FG|={cc.fg}"


def _check_cardinality(T, blocks, scans):
    rep = card_formulas(T)
    if rep.ssg_formula != rep.ssg_direct:
        yield "violations", f"SSG formula {rep.ssg_formula} != {rep.ssg_direct}"
    if rep.t_u_corrected != rep.t_u_direct:
        yield "violations", f"corrected upper-triangle sum {rep.t_u_corrected} != {rep.t_u_direct}"
    for w in rep.warnings:
        yield "warnings", w


def _check_conductor_sym(T, blocks, scans):
    c = T.semigroup().conductor
    t_u, _, _, t_r, _ = blocks()
    row = scans().get
    # a cell off the gap lattice has no gap, so no row in the scan table: it
    # reads the default, whose None matches no expected conductor
    none = (None, None)
    for a, b in _walk_cells(t_u):
        expected = c - a * T.alpha
        if row((a, b), none)[1] != expected or row((a, T.alpha - b), none)[1] != expected:
            yield "violations", f"column {a} conductor mismatch"
    for a, b in _walk_cells(t_r):
        expected = c - b * T.beta
        if row((a, b), none)[1] != expected or row((T.beta - a, b), none)[1] != expected:
            yield "violations", f"row {b} conductor mismatch"


_CHECKS = {
    "partition": _check_partition,
    "reconstruct": _check_reconstruct,
    "equifix": _check_equifix,
    "red": _check_red,
    "uff": _check_uff,
    "cardinality": _check_cardinality,
    "conductor-sym": _check_conductor_sym,
}

CHECK_NAMES = tuple(_CHECKS)


def _kept(build, T):
    """A callable that returns build(T), built on its first successful call
    and kept; a build that raises keeps nothing."""
    kept = {}
    return lambda: kept[0] if kept else kept.setdefault(0, build(T))


def run_survey(max_beta: int, checks=("all",)):
    """Run the named checks over every coprime pair; returns CheckResults.

    Each finding is filed as `(alpha,beta) <message>`.  A library error
    raised by a check on a pair is recorded as that pair's violation and the
    sweep goes on; unknown check names raise InconsistentInput.
    """
    bad = [c for c in checks if c != "all" and c not in CHECK_NAMES]
    if bad:
        raise InconsistentInput(f"unknown checks {bad}; choose from {CHECK_NAMES + ('all',)}")
    names = list(CHECK_NAMES) if "all" in checks else [c for c in CHECK_NAMES if c in checks]
    # each check's findings by kind; every check sees every pair
    found = {name: {"violations": [], "warnings": []} for name in names}
    pairs = 0
    for alpha, beta in coprime_pairs(max_beta):
        pairs += 1
        T = NumericalSemigroup([alpha, beta]).two_gen()
        blocks = _kept(_partition_rows, T)
        scans = _kept(_gap_scans, T)
        label = f"({alpha},{beta}) "
        for name in names:
            filed = found[name]
            try:
                for kind, message in _CHECKS[name](T, blocks, scans):
                    filed[kind].append(label + message)
            except GapsymError as exc:
                filed["violations"].append(label + str(exc))
    return [CheckResult(name, pairs, **found[name]) for name in names]
