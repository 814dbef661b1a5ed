"""Independent reference arithmetic used to check gapsym's outputs.

Nothing here imports gapsym.  Every quantity is recomputed from its
definition with plain loops over bytearrays and sets, so a bug shared with
the program under test cannot hide behind a shared helper.
"""

from __future__ import annotations

from math import gcd, isqrt


def members(gens, n: int) -> bytearray:
    """member[x] == 1 iff 0 <= x < n is a nonnegative combination of gens."""
    member = bytearray(n)
    if n:
        member[0] = 1
    for g in sorted(set(gens)):
        for x in range(g, n):
            if member[x - g]:
                member[x] = 1
    return member


class Semigroup:
    """Membership table of <gens> up to the Schur bound, plus its gaps."""

    def __init__(self, gens):
        gens = sorted(set(gens))
        m, big = gens[0], gens[-1]
        # Schur: the conductor is at most (m - 1)(big - 1).
        self.n = (m - 1) * (big - 1) + big + 1
        self.member = members(gens, self.n)
        self.gaps = [x for x in range(self.n) if not self.member[x]]
        self.conductor = self.gaps[-1] + 1 if self.gaps else 0

    def contains(self, x: int) -> bool:
        if x < 0:
            return False
        return x >= self.conductor or bool(self.member[x])

    def minimal_generators(self):
        # x is minimal iff no smaller minimal generator g has x - g in S;
        # every member from conductor + multiplicity on is decomposable.
        m = next(x for x in range(1, self.n) if self.member[x])
        out = []
        for x in range(m, self.conductor + m):
            if self.contains(x) and not any(self.contains(x - g) for g in out):
                out.append(x)
        return out

    def fundamental_gaps(self):
        return [g for g in self.gaps if self.contains(2 * g) and self.contains(3 * g)]

    def module(self, gens):
        """(conductor, delta, member list below the conductor) of the
        normalized module generated by gens, scanned from membership."""
        base = min(gens)
        shifts = sorted(set(g - base for g in gens))
        inside = [any(self.contains(x - s) for s in shifts) for x in range(self.conductor + 1)]
        missing = [x for x, ok in enumerate(inside) if not ok]
        conductor = missing[-1] + 1 if missing else 0
        return conductor, sum(inside[:conductor]), inside[:conductor]


def two_gen_gaps(alpha: int, beta: int):
    """Gaps of <alpha, beta>: the x below (alpha-1)(beta-1) not of the form
    i*alpha + j*beta."""
    c = (alpha - 1) * (beta - 1)
    hit = bytearray(c)
    for i in range(0, c, alpha):
        for x in range(i, c, beta):
            hit[x] = 1
    return [x for x in range(c) if not hit[x]]


def value(alpha: int, beta: int, a: int, b: int) -> int:
    return alpha * beta - a * alpha - b * beta


def top_row(alpha: int, beta: int, a: int) -> int:
    """Largest b with (a, b) a gap cell; 0 when the column is empty."""
    return max(0, (alpha * beta - a * alpha - 1) // beta)


def cells(alpha: int, beta: int):
    """All gap cells (a, b) of <alpha, beta>."""
    return [
        (a, b)
        for a in range(1, beta)
        for b in range(1, top_row(alpha, beta, a) + 1)
    ]


def symmetric_sets(alpha: int, beta: int):
    """(side, sg cells, ssg cells, |T_u|, |T_r|) from the definitions: the
    smaller of the two side triangles (ties to the upper one) and the cells
    on the half-lines 2b = alpha or 2a = beta."""
    cs = cells(alpha, beta)
    tu = {p for p in cs if p[1] > alpha // 2}
    tr = {p for p in cs if p[0] > beta // 2}
    side, sg = ("T_u", tu) if len(tu) <= len(tr) else ("T_r", tr)
    ssg = {p for p in cs if 2 * p[1] == alpha or 2 * p[0] == beta}
    return side, sg, ssg, len(tu), len(tr)


def symmetric_values(alpha: int, beta: int) -> frozenset:
    _, sg, ssg, _, _ = symmetric_sets(alpha, beta)
    return frozenset(value(alpha, beta, a, b) for a, b in sg | ssg)


def coprime_pairs(max_beta: int):
    return [
        (alpha, beta)
        for beta in range(3, max_beta + 1)
        for alpha in range(2, beta)
        if gcd(alpha, beta) == 1
    ]


def staircase_chains(alpha: int, beta: int):
    """Every strict staircase chain of gap cells (columns increasing, rows
    decreasing), as value lists with a leading 0.  These are the lean sets
    of <alpha, beta> with at least two elements."""
    tops = [(a, top_row(alpha, beta, a)) for a in range(1, beta)]
    tops = [(a, t) for a, t in tops if t >= 1]
    out = []

    def extend(chain, start, last_row):
        for i in range(start, len(tops)):
            a, t = tops[i]
            for b in range(min(t, last_row - 1), 0, -1):
                chain.append(value(alpha, beta, a, b))
                out.append([0] + chain)
                extend(chain, i + 1, b)
                chain.pop()

    extend([], 0, alpha + 1)
    return out


def divisor_closure(values):
    out = set()
    for x in values:
        for d in range(1, isqrt(x) + 1):
            if x % d == 0:
                out.update((d, x // d))
    return sorted(out)
