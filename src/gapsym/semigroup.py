"""Numerical semigroups and the gap/lattice correspondence for two generators.

A numerical semigroup is stored with a sieved membership table (an int used
as a bitmask over [0, conductor + max generator]); membership queries beyond
the table fall back to the conductor rule.  All values are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import gcd

from .errors import EmptyInput, GcdNotOne, NotAGap, NotTwoGenerated, OutOfTriangle


class NumericalSemigroup:
    """Co-finite additive submonoid of the naturals, given by generators.

    The input generating set is reduced to the unique minimal system; gaps,
    conductor and Frobenius number are cached at construction.
    """

    __slots__ = ("generators", "conductor", "frobenius", "gaps", "_table", "_nbits", "_gapmask", "_twogen")

    def __init__(self, generators):
        gens = sorted(set(int(g) for g in generators))
        if not gens:
            raise EmptyInput("need at least one generator")
        if gens[0] <= 0:
            raise EmptyInput("generators must be positive")
        if reduce(gcd, gens) != 1:
            raise GcdNotOne(f"gcd of {gens} is not 1")

        m, big = gens[0], gens[-1]
        # Schur bound: Frobenius <= (m-1)(big-1) - 1, so conductor <= (m-1)(big-1).
        nbits = (m - 1) * (big - 1) + big + 2
        full = (1 << nbits) - 1
        # Close under each generator by doubling: after the shifts by g, 2g,
        # ..., 2^k g the table holds every multiple of g up to (2^(k+1)-1) g.
        table = 1
        for g in gens:
            step = g
            while step < nbits:
                table |= (table << step) & full
                step <<= 1

        gapmask = ~table & full
        self.conductor = gapmask.bit_length()
        self.frobenius = self.conductor - 1
        self.gaps = tuple(_bits(gapmask))
        self._nbits = nbits
        self._table = table
        self._gapmask = gapmask
        self._twogen = None
        self.generators = tuple(_peel(table & ~1, table, full))

    @classmethod
    def _from_sieve(cls, generators, conductor, gaps, table, nbits):
        # Trusted fast path for the genus-tree enumerator: fields are taken
        # as given, no re-sieving.
        self = cls.__new__(cls)
        self.generators = tuple(generators)
        self.conductor = conductor
        self.frobenius = conductor - 1
        self.gaps = tuple(gaps)
        self._table = table
        self._nbits = nbits
        self._gapmask = ~table & ((1 << nbits) - 1)
        self._twogen = None
        return self

    def contains(self, x: int) -> bool:
        """Whether x is a nonnegative integer combination of the generators."""
        if x < 0:
            return False
        if x >= self.conductor:
            return True
        return bool((self._table >> x) & 1)

    __contains__ = contains

    @property
    def genus(self) -> int:
        return len(self.gaps)

    @property
    def delta(self) -> int:
        """Number of semigroup elements below the conductor."""
        return self.conductor - len(self.gaps)

    @property
    def multiplicity(self) -> int:
        return self.generators[0]

    def member_mask(self, nbits: int) -> int:
        """Membership bitmask covering [0, nbits); extends the table by the
        conductor rule when nbits exceeds the sieve."""
        if nbits <= self._nbits:
            return self._table & ((1 << nbits) - 1)
        ext = ((1 << (nbits - self._nbits)) - 1) << self._nbits
        return self._table | ext

    def two_gen(self) -> "TwoGen":
        if len(self.generators) != 2:
            raise NotTwoGenerated(f"minimal generators are {self.generators}")
        if self._twogen is None:
            self._twogen = TwoGen(*self.generators)
            self._twogen._semigroup = self
        return self._twogen

    def __eq__(self, other):
        return isinstance(other, NumericalSemigroup) and self.gaps == other.gaps

    def __hash__(self):
        return hash(self.gaps)

    def __repr__(self):
        return f"NumericalSemigroup({list(self.generators)})"


def _bits(mask: int):
    """Positions of the set bits of a nonnegative mask, ascending."""
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _peel(mask: int, table: int, full: int):
    """Minimal generators of the members in mask, ascending, where table is
    the membership mask of the semigroup acting on them.

    The lowest member left is minimal; clearing its shifted copy of the
    semigroup, (table << h) & full, leaves only members that are not sums of
    a generator already taken and a semigroup element.
    """
    out = []
    while mask:
        h = (mask & -mask).bit_length() - 1
        out.append(h)
        mask &= ~((table << h) & full)
    return out


def make_semigroup(generators) -> NumericalSemigroup:
    """Build the numerical semigroup generated by the input values."""
    return NumericalSemigroup(generators)


@dataclass(frozen=True)
class LatticeGap:
    """A gap e of <alpha, beta> written e = alpha*beta - a*alpha - b*beta."""

    a: int
    b: int
    value: int

    @property
    def point(self):
        return (self.a, self.b)


class TwoGen:
    """Lattice-coordinate view of the semigroup <alpha, beta>.

    Gap cells are the points (a, b) with 1 <= a, 1 <= b and positive value
    alpha*beta - a*alpha - b*beta; the set of all such cells is in bijection
    with the gaps.
    """

    __slots__ = ("alpha", "beta", "_alpha_inv", "_semigroup")

    def __init__(self, alpha: int, beta: int):
        alpha, beta = int(alpha), int(beta)
        if alpha < 2 or beta <= alpha:
            raise GcdNotOne(f"need 2 <= alpha < beta, got ({alpha}, {beta})")
        if gcd(alpha, beta) != 1:
            raise GcdNotOne(f"{alpha} and {beta} are not coprime")
        self.alpha = alpha
        self.beta = beta
        self._alpha_inv = pow(alpha, -1, beta)
        self._semigroup = None

    @property
    def product(self) -> int:
        return self.alpha * self.beta

    @property
    def conductor(self) -> int:
        return (self.alpha - 1) * (self.beta - 1)

    @property
    def genus(self) -> int:
        return self.conductor // 2

    def semigroup(self) -> NumericalSemigroup:
        if self._semigroup is None:
            self._semigroup = NumericalSemigroup([self.alpha, self.beta])
        return self._semigroup

    def value(self, a: int, b: int) -> int:
        return self.product - a * self.alpha - b * self.beta

    def row_length(self, b: int) -> int:
        """Number of gap cells (1, b) .. (row_length(b), b) in row b, 1 <= b < alpha."""
        return (self.product - b * self.beta - 1) // self.alpha

    def column_height(self, a: int) -> int:
        """Number of gap cells (a, 1) .. (a, column_height(a)) in column a, 1 <= a < beta.

        Columns a > row_length(1) hold no gap and have height 0.
        """
        return (self.product - a * self.alpha - 1) // self.beta

    def in_lattice(self, a: int, b: int) -> bool:
        return a >= 1 and b >= 1 and self.value(a, b) > 0

    def lattice_to_gap(self, a: int, b: int) -> int:
        """Gap value of the cell (a, b)."""
        if not self.in_lattice(a, b):
            raise OutOfTriangle(f"({a}, {b}) has value {self.value(a, b)}")
        return self.value(a, b)

    def cell_of(self, g: int):
        """The unique cell (a, b) whose value is g, or None when g is not a gap."""
        if g > 0:
            a = (-g * self._alpha_inv) % self.beta
            if a != 0:
                b, r = divmod(self.product - a * self.alpha - g, self.beta)
                if r == 0 and b >= 1:
                    return a, b
        return None

    def gap_to_lattice(self, g: int) -> LatticeGap:
        """The unique cell (a, b) whose value is the gap g."""
        cell = self.cell_of(g)
        if cell is None:
            raise NotAGap(f"{g} is not a gap of <{self.alpha}, {self.beta}>")
        return LatticeGap(cell[0], cell[1], g)

    def walk(self):
        """Yield (a, b, value) for every gap cell, row-major from the top row
        (b descending, a ascending), without building a LatticeGap per cell."""
        alpha = self.alpha
        for b in range(alpha - 1, 0, -1):
            top = self.product - b * self.beta
            for a in range(1, self.row_length(b) + 1):
                yield a, b, top - a * alpha

    def lattice_gaps(self):
        """All gap cells, row-major from the top row (b descending, a ascending)."""
        return tuple(LatticeGap(a, b, v) for a, b, v in self.walk())

    def gap_values(self):
        return tuple(sorted(v for _, _, v in self.walk()))

    def __repr__(self):
        return f"TwoGen({self.alpha}, {self.beta})"


def gap_order_leq(e1, e2) -> bool:
    """Partial order on gaps: (a1, b1) <= (a2, b2) iff a1 <= a2 and b1 >= b2."""
    a1, b1 = e1.point if isinstance(e1, LatticeGap) else (e1[0], e1[1])
    a2, b2 = e2.point if isinstance(e2, LatticeGap) else (e2[0], e2[1])
    return a1 <= a2 and b1 >= b2
