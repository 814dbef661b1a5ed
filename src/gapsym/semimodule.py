"""Semimodules over a numerical semigroup.

A semimodule here is a subset D of the naturals with D + S contained in D,
stored normalized (0 is a member) through its unique minimal generating set,
which is a lean set: all pairwise differences of generators are gaps of the
base semigroup.  For a two-generator base the generators trace a staircase
path in the gap lattice whose opposite corners are the minimal generators of
the syzygy module; that correspondence drives the closed-form conductor and
delta computations, each of which is kept separate from the direct scans so
the two can be compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import EmptyInput, NotTwoGenerated, PrincipalModule
from .semigroup import NumericalSemigroup, _bits, _peel


class GammaSemimodule:
    """Normalized semimodule; its conductor and delta are computed once at
    construction, and `gap_list` is computed on read.

    `cells` are the lattice cells of the nonzero generators, in generator
    order, when the caller already has them; otherwise they are computed on
    first use.
    """

    __slots__ = ("base", "min_generators", "conductor", "delta", "_mask", "_cells", "_path")

    def __init__(self, base: NumericalSemigroup, min_generators, cells=None):
        self.base = base
        self.min_generators = tuple(min_generators)
        self._cells = cells
        self._path = None
        c = base.conductor
        full = (1 << c) - 1
        table = base.member_mask(c)
        mask = 0
        for g in self.min_generators:
            mask |= (table << g) & full
        self._mask = mask
        self.conductor = (~mask & full).bit_length()
        self.delta = (mask & ((1 << self.conductor) - 1)).bit_count()

    @property
    def gap_list(self):
        """Naturals missing from the module, ascending."""
        return tuple(_bits(~self._mask & ((1 << self.conductor) - 1)))

    @property
    def ed(self) -> int:
        """Embedding dimension: the number of minimal generators."""
        return len(self.min_generators)

    @property
    def wilf(self) -> int:
        """Wilf number ed * delta - conductor."""
        return self.ed * self.delta - self.conductor

    def member(self, x: int) -> bool:
        if x < 0:
            return False
        if x >= self.base.conductor:
            return True
        return bool((self._mask >> x) & 1)

    __contains__ = member

    @property
    def cells(self):
        """(a, b) cells of the nonzero generators (two-generator base only)."""
        if self._cells is None:
            T = self.base.two_gen()
            self._cells = tuple(T.gap_to_lattice(g) for g in self.min_generators if g != 0)
        return self._cells

    def lattice_points(self):
        """(a, b, value) of the nonzero generators (two-generator base only)."""
        gens = [g for g in self.min_generators if g != 0]
        return tuple((a, b, g) for (a, b), g in zip(self.cells, gens))

    def __eq__(self, other):
        return (
            isinstance(other, GammaSemimodule)
            and self.base == other.base
            and self.min_generators == other.min_generators
        )

    def __hash__(self):
        return hash((self.base, self.min_generators))

    def __repr__(self):
        return f"GammaSemimodule({self.base!r}, {list(self.min_generators)})"


def make_semimodule(S: NumericalSemigroup, generators) -> GammaSemimodule:
    """Normalize a generating set and reduce it to the minimal lean system."""
    if not generators:
        raise EmptyInput("need at least one generator")
    base = min(generators)
    # Normalized generators at or above the conductor lie in 0 + S, so the
    # kept 0 makes them redundant; the rest are peeled as one bitmask.
    n = max(S.conductor, 1)
    vmask = 0
    for g in generators:
        x = g - base
        if x < n:
            vmask |= 1 << x
    keep = _peel(vmask, S.member_mask(n), (1 << n) - 1)
    cells = None
    if len(S.generators) == 2 and len(keep) > 1:
        T = S.two_gen()
        # order by the gap partial order: 0 first, then column ascending
        # (the nonzero members of a lean set are gaps in distinct columns)
        rest = keep[1:]
        cells, rest = zip(*sorted(zip(map(T.cell_of, rest), rest)))
        keep = [0, *rest]
    return GammaSemimodule(S, keep, cells)


def _gap_module(S: NumericalSemigroup, g: int, cell=None) -> GammaSemimodule:
    """The module [0, g] of a gap g of S, built without `make_semimodule`.

    No normalization or peel is needed: 0 is the least generator, g is not
    in 0 + S because it is a gap, and 0 is not in g + S because g > 0, so
    (0, g) is already the minimal lean system, ascending.  With one nonzero
    generator there is no cell order to sort.  `cell` is g's lattice cell
    when the caller has it.  The caller guarantees that g is a gap.
    """
    return GammaSemimodule(S, (0, g), None if cell is None else (cell,))


def is_lean(S: NumericalSemigroup, values) -> bool:
    """Whether all pairwise absolute differences of the set are gaps of S."""
    vals = sorted(set(values))
    return all(not S.contains(y - x) for x, y in combinations(vals, 2))


def syzygy_generators(delta: GammaSemimodule):
    """Minimal generators of the union of pairwise intersections (G+g_i) n (G+g_j).

    The scan covers [0, c(S) + m(S) + max(D)), m(S) the multiplicity, and no
    minimal generator lies beyond it: for x >= max(D) + c(S) + m(S), x - m(S)
    - g >= c(S) for every generator g of D, so x - m(S) lies in every
    intersection and x = (x - m(S)) + m(S) is not minimal.  The width is
    tight: for <2, 3> and D = {0, 1} the generators are 3 and 4.
    """
    if delta.ed < 2:
        raise PrincipalModule("syzygies need at least two generators")
    S = delta.base
    nbits = S.conductor + S.multiplicity + max(delta.min_generators)
    table = S.member_mask(nbits)
    full = (1 << nbits) - 1
    shifted = [(table << g) & full for g in delta.min_generators]
    mask = 0
    for mi, mj in combinations(shifted, 2):
        mask |= mi & mj
    return _peel(mask, table, full)


def syzygy(delta: GammaSemimodule) -> GammaSemimodule:
    """The syzygy module, returned normalized."""
    return make_semimodule(delta.base, syzygy_generators(delta))


def dual_generators(delta: GammaSemimodule):
    """Minimal generators of {x : x + D is contained in the base semigroup}.

    For a two-generator base this is closed-form in the lattice coordinates
    of the lean set; otherwise it falls back to a direct scan.
    """
    if len(delta.base.generators) == 2 and delta.ed >= 2:
        a, b = delta.base.generators
        return sorted({x * a + y * b for x, y in _path(delta).se_turns})
    return _dual_generators_scan(delta)


def _dual_generators_scan(delta: GammaSemimodule):
    """Minimal generators of the dual by a direct scan of [0, c(S) + m(S)).

    Every x >= c(S) has x + D inside S, so for x >= c(S) + m(S) the dual
    holds x - m(S) and x = (x - m(S)) + m(S) is not minimal.  The width is
    tight: for <2, 3> and D = {0, 1} the generators are 2 and 3.
    """
    S = delta.base
    nbits = S.conductor + S.multiplicity
    table = S.member_mask(nbits + max(delta.min_generators))
    full = (1 << nbits) - 1
    mask = full
    for g in delta.min_generators:
        mask &= table >> g
    return _peel(mask, table, full)


def dual(delta: GammaSemimodule) -> GammaSemimodule:
    """The dual module, returned normalized."""
    return make_semimodule(delta.base, dual_generators(delta))


@dataclass(frozen=True)
class LeanCouple:
    """Staircase-path data of a semimodule over a two-generator base.

    es_turns are the lattice points of the nonzero minimal generators
    (corners turning from east to south along the path); se_turns are the
    opposite corners, whose values are the minimal syzygy generators.
    """

    es_turns: tuple
    se_turns: tuple
    h_values: tuple
    max_syzygy: int
    max_point: tuple


def lattice_path(delta: GammaSemimodule) -> LeanCouple:
    """Corner data of the lattice path; needs a two-generator base."""
    return _path(delta)


def _path(delta: GammaSemimodule) -> LeanCouple:
    # Built once per module and kept on it: the conductor and delta formulas
    # and the closed-form dual read the same corners.
    if delta._path is None:
        S = delta.base
        if len(S.generators) != 2:
            raise NotTwoGenerated(f"base has generators {S.generators}")
        if delta.ed < 2:
            raise PrincipalModule("a principal module has no syzygy path")
        T = S.two_gen()
        pts = delta.cells
        corners = [(0, pts[0][1])]
        corners += [(pts[i][0], pts[i + 1][1]) for i in range(len(pts) - 1)]
        corners.append((pts[-1][0], 0))
        hv = tuple(T.value(a, b) for a, b in corners)
        m = max(hv)
        delta._path = LeanCouple(
            es_turns=pts,
            se_turns=tuple(corners),
            h_values=hv,
            max_syzygy=m,
            max_point=corners[hv.index(m)],
        )
    return delta._path


def sm_conductor_formula(delta: GammaSemimodule) -> int:
    """Conductor from the largest syzygy generator: M - alpha - beta + 1."""
    S = delta.base
    if len(S.generators) != 2:
        raise NotTwoGenerated(f"base has generators {S.generators}")
    if delta.ed < 2:
        return S.conductor
    a, b = S.generators
    return _path(delta).max_syzygy - a - b + 1


def delta_formula(delta: GammaSemimodule) -> int:
    """Delta invariant from the staircase column widths and row heights."""
    S = delta.base
    if len(S.generators) != 2:
        raise NotTwoGenerated(f"base has generators {S.generators}")
    if delta.ed < 2:
        return S.delta
    pts = _path(delta).es_turns
    cols = [0] + [a for a, _ in pts]
    area = sum((cols[i + 1] - cols[i]) * pts[i][1] for i in range(len(pts)))
    return sm_conductor_formula(delta) - S.delta + area


def _is_translate(gens, delta: GammaSemimodule) -> bool:
    # gens are minimal generators, ascending (the output of _peel); a shift
    # keeps them minimal, so normalizing them is subtracting gens[0].
    return {x - gens[0] for x in gens} == set(delta.min_generators)


def is_fixed_point(delta: GammaSemimodule) -> bool:
    """Whether the normalized syzygy module has the same minimal generators.

    Compares {s - s0 : s in syzygy_generators(delta)}, s0 the least, with the
    generators as sets.  The scanned generators are minimal and stay minimal
    under the shift, so the left side is the generating set of the normalized
    syzygy module without building that module.
    """
    if delta.ed < 2:
        raise PrincipalModule("fixed points are defined via the syzygy module")
    return _is_translate(syzygy_generators(delta), delta)


def is_selfdual(delta: GammaSemimodule) -> bool:
    """Whether the dual is a translate of the module itself.

    Always evaluated through the direct dual scan so that it stays an
    independent cross-check of the closed-form dual generators.  As in
    `is_fixed_point`, the scanned generators shifted by their least one are
    compared with the generators as sets: a shift keeps them minimal, so the
    left side is the generating set of the normalized dual module.
    """
    return _is_translate(_dual_generators_scan(delta), delta)


def is_symmetric_sm(delta: GammaSemimodule) -> bool:
    """Whether x is a member iff conductor - 1 - x is not, below the conductor."""
    cd = delta.conductor
    if cd == 0:
        return True
    m = delta._mask & ((1 << cd) - 1)
    rev = int(f"{m:0{cd}b}"[::-1], 2)
    return m == ~rev & ((1 << cd) - 1)


@dataclass(frozen=True)
class PicardOrbit:
    """Iterates of normalize(syzygy(.)) until a repeat or the step cap."""

    states: tuple
    cycle_length: int | None


def picard_orbit(delta: GammaSemimodule, max_steps: int = 64) -> PicardOrbit:
    if delta.ed < 2:
        raise PrincipalModule("orbit iteration needs the syzygy module")
    states = [delta.min_generators]
    seen = {delta.min_generators: 0}
    cur = delta
    for _ in range(max_steps):
        if cur.ed < 2:
            return PicardOrbit(tuple(states), None)
        cur = syzygy(cur)
        key = cur.min_generators
        states.append(key)
        if key in seen:
            return PicardOrbit(tuple(states), len(states) - 1 - seen[key])
        seen[key] = len(states) - 1
    return PicardOrbit(tuple(states), None)
