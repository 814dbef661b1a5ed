"""Numerical semigroups and the gap/lattice correspondence for two generators.

A numerical semigroup, and every semimodule over it, is cofinite, and its
membership is stored as one unbounded int: bit x is set exactly when x is a
member, and every bit from the conductor up is set.  The int is therefore
negative, and its complement is the finite mask of the gaps.  All values are
immutable after construction.
"""

from __future__ import annotations

from math import gcd
from operator import index

from .errors import EmptyInput, GcdNotOne, NotAGap, NotTwoGenerated, OutOfTriangle


class NumericalSemigroup:
    """Co-finite additive submonoid of the naturals, given by generators.

    The input generating set is reduced to the unique minimal system; gaps,
    conductor and Frobenius number are cached at construction.
    """

    __slots__ = ("generators", "conductor", "frobenius", "gaps", "_table", "_twogen")

    def __init__(self, generators):
        gens = sorted(set(map(index, generators)))
        if not gens:
            raise EmptyInput("need at least one generator")
        if gens[0] <= 0:
            raise EmptyInput("generators must be positive")
        if gcd(*gens) != 1:
            raise GcdNotOne(f"gcd of {gens} is not 1")

        # Schur bound: conductor <= (m-1)(max-1), so every integer from this
        # width up is a member and only the bits below it need sieving.
        nbits = (gens[0] - 1) * (gens[-1] - 1)
        full = (1 << nbits) - 1
        # Close under each generator by doubling: after the shifts by g, 2g,
        # ..., 2^k g the table holds every multiple of g up to (2^(k+1)-1) g.
        table = 1
        for g in gens:
            step = g
            while step < nbits:
                table |= (table << step) & full
                step <<= 1

        self._set_gaps(full & ~table)
        self.generators = tuple(_bits(_minimal(self._table & ~1, gens)))

    @classmethod
    def _from_sieve(cls, generators, gapmask):
        # Trusted fast path for the genus-tree enumerator: the generators and
        # the finite gap mask are taken as given, no re-sieving.
        self = cls.__new__(cls)
        self._set_gaps(gapmask)
        self.generators = tuple(generators)
        return self

    def _set_gaps(self, gapmask):
        # the membership int is the complement of the finite gap mask
        self.conductor = gapmask.bit_length()
        self.frobenius = self.conductor - 1
        self.gaps = tuple(_bits(gapmask))
        self._table = ~gapmask
        self._twogen = None

    def contains(self, x: int) -> bool:
        """Whether x is a nonnegative integer combination of the generators."""
        return x >= 0 and (self._table >> x) & 1 == 1

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
        """Membership bitmask covering [0, nbits)."""
        return self._table & ((1 << nbits) - 1)

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
    """Positions of the set bits of a nonnegative mask, ascending.

    A membership int is negative and must not be passed: bin() of a negative
    int lists the bits of its absolute value.
    """
    return [i for i, c in enumerate(bin(mask)[:1:-1]) if c == "1"]


def _minimal(mask: int, gens) -> int:
    """The minimal members of mask, as a mask: those not of the form y + s
    with y in mask and s a nonzero element of <gens>.

    mask must be closed under adding <gens>.  Then a member x is y + s with
    s != 0 exactly when some x - g, g in gens, is a member: if x = y + s,
    write s = g + s' with s' in <gens>, and x - g = y + s' is a member;
    conversely x = (x - g) + g.  So the minimal members are mask &
    ~(mask << g) over every g in gens.  When every bit of mask from some N up
    is set, as in a membership int, no x >= N + g is minimal, so the result
    is a finite mask.
    """
    shifted = 0
    for g in gens:
        shifted |= mask << g
    return mask & ~shifted


def make_semigroup(generators) -> NumericalSemigroup:
    """Build the numerical semigroup generated by the input values."""
    return NumericalSemigroup(generators)


class TwoGen:
    """Lattice-coordinate view of the semigroup <alpha, beta>.

    Gap cells are the points (a, b) with 1 <= a, 1 <= b and positive value
    alpha*beta - a*alpha - b*beta; the set of all such cells is in bijection
    with the gaps.
    """

    __slots__ = ("alpha", "beta", "_alpha_inv", "_semigroup")

    # lattice_gaps, gap_values, gap_to_lattice and value stay methods under
    # these names, as does GammaSemimodule.lattice_points: perfbench/tracing.py
    # patches each of them through cls.__dict__[name].

    def __init__(self, alpha: int, beta: int):
        alpha, beta = index(alpha), index(beta)
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
            self._semigroup._twogen = self
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
        """Gap value of the cell (a, b); raises OutOfTriangle off the gap
        lattice (a < 1, b < 1 or a value <= 0)."""
        g = self.product - a * self.alpha - b * self.beta
        if a < 1 or b < 1 or g <= 0:
            raise OutOfTriangle(f"({a}, {b}) has value {g}")
        return g

    def cell_of(self, g: int):
        """The unique cell (a, b) whose value is g, or None when g is not a gap."""
        if g > 0:
            a = (-g * self._alpha_inv) % self.beta
            if a != 0:
                b, r = divmod(self.product - a * self.alpha - g, self.beta)
                if r == 0 and b >= 1:
                    return a, b
        return None

    def gap_to_lattice(self, g: int):
        """The unique cell (a, b) whose value is the gap g; raises NotAGap
        for 0, negatives and members."""
        cell = self.cell_of(g)
        if cell is None:
            raise NotAGap(f"{g} is not a gap of <{self.alpha}, {self.beta}>")
        return cell

    def walk(self):
        """Yield (a, b, value) for every gap cell, row-major from the top row
        (b descending, a ascending)."""
        alpha = self.alpha
        for b in range(alpha - 1, 0, -1):
            top = self.product - b * self.beta
            for a in range(1, self.row_length(b) + 1):
                yield a, b, top - a * alpha

    def lattice_gaps(self):
        """(a, b, value) of every gap cell, in the order of `walk`."""
        return tuple(self.walk())

    def gap_values(self):
        return tuple(sorted(v for _, _, v in self.walk()))

    def __repr__(self):
        return f"TwoGen({self.alpha}, {self.beta})"


def gap_order_leq(e1, e2) -> bool:
    """Partial order on gaps: (a1, b1) <= (a2, b2) iff a1 <= a2 and b1 >= b2.

    Cells and (a, b, value) triples compare by their first two entries."""
    return e1[0] <= e2[0] and e1[1] >= e2[1]
