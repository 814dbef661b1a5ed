"""Exhaustive verification sweeps over all coprime generator pairs.

Each check replays one of the structural facts on every pair up to a bound
and records violations; the known printed-sum undercount for the upper
triangle at odd alpha is downgraded to a warning.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import gcd

from .fundamental import compare_counts, red_equivalence
from .semigroup import NumericalSemigroup
from .semimodule import make_semimodule
from .symmetry import (
    card_formulas,
    gap_partition,
    reconstruct_from_symmetric,
    rectangle_cells,
    self_symmetric_gaps,
    supersymmetric_gaps,
    triangle_r,
    triangle_u,
)
from .wilf import zero_wilf_equivalences

@dataclass
class CheckResult:
    name: str
    pairs: int = 0
    violations: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def coprime_pairs(max_beta: int):
    for beta in range(3, max_beta + 1):
        for alpha in range(2, beta):
            if gcd(alpha, beta) == 1:
                yield alpha, beta


def _check_partition(T, res):
    part = gap_partition(T)  # raises PartitionViolation on failure
    if sum(part.block_sizes()) != T.genus:
        res.violations.append(f"({T.alpha},{T.beta}) block sizes miss the genus")
    S = T.semigroup()
    rect = rectangle_cells(T)
    for a, b, g in T.walk():
        if S.contains(2 * g) != ((a, b) in rect):
            res.violations.append(f"({T.alpha},{T.beta}) gap {g} rectangle mismatch")


def _check_reconstruct(T, res):
    side, sg = supersymmetric_gaps(T)
    got = reconstruct_from_symmetric(T.alpha, T.beta, sg, side, self_symmetric_gaps(T))
    if got != list(T.semigroup().gaps):
        res.violations.append(f"({T.alpha},{T.beta}) reconstruction differs")


def _check_equifix(T, res):
    for _, _, g in T.walk():
        checks = zero_wilf_equivalences(T, g)
        if not checks.all_agree():
            res.violations.append(f"({T.alpha},{T.beta}) gap {g}: {checks}")


def _check_red(T, res):
    for _, _, g in T.walk():
        checks = red_equivalence(T, g)
        if not checks.all_agree():
            res.violations.append(f"({T.alpha},{T.beta}) gap {g}: {checks}")


def _check_uff(T, res):
    if T.alpha == 2 and T.beta > 3:
        res.warnings.append(f"({T.alpha},{T.beta}) excluded (alpha=2)")
        return
    cc = compare_counts(T)
    if not cc.inequality_holds:
        res.violations.append(f"({T.alpha},{T.beta}) |SG u SSG|={cc.sg_ssg} > |FG|={cc.fg}")


def _check_cardinality(T, res):
    rep = card_formulas(T)
    if rep.ssg_formula != rep.ssg_direct:
        res.violations.append(
            f"({T.alpha},{T.beta}) SSG formula {rep.ssg_formula} != {rep.ssg_direct}"
        )
    for w in rep.warnings:
        if not w.startswith("zero-Wilf"):
            res.warnings.append(f"({T.alpha},{T.beta}) {w}")


def _check_conductor_sym(T, res):
    S = T.semigroup()
    c = S.conductor

    def cond(g):
        return make_semimodule(S, [0, g]).conductor

    for a, b in triangle_u(T):
        g = T.value(a, b)
        expected = c - a * T.alpha
        if cond(g) != expected or cond(T.value(a, T.alpha - b)) != expected:
            res.violations.append(f"({T.alpha},{T.beta}) column {a} conductor mismatch")
    for a, b in triangle_r(T):
        g = T.value(a, b)
        expected = c - b * T.beta
        if cond(g) != expected or cond(T.value(T.beta - a, b)) != expected:
            res.violations.append(f"({T.alpha},{T.beta}) row {b} conductor mismatch")


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


def run_survey(max_beta: int, checks=("all",)):
    """Run the named checks over every coprime pair; returns CheckResults."""
    names = list(CHECK_NAMES) if "all" in checks else [c for c in CHECK_NAMES if c in checks]
    results = {name: CheckResult(name) for name in names}
    for alpha, beta in coprime_pairs(max_beta):
        S = NumericalSemigroup([alpha, beta])
        T = S.two_gen()
        for name in names:
            res = results[name]
            res.pairs += 1
            _CHECKS[name](T, res)
    return [results[name] for name in names]
