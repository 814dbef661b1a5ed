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

from itertools import combinations
from typing import NamedTuple

from .errors import EmptyInput, NotTwoGenerated, PrincipalModule
from .semigroup import NumericalSemigroup, _bits, _minimal


class GammaSemimodule:
    """Normalized semimodule; its conductor, delta, `ed` (the number of
    minimal generators) and Wilf number `wilf` (ed * delta - conductor) are
    all set once, at construction, and `gap_list` is computed on read.

    `mask` is the membership int its builder already holds: bit x is set
    exactly when x is a member, so every bit from the conductor up is set
    and the int is negative.  The one builder, `make_semimodule`, guarantees
    that it is the module the minimal generators generate, the OR of the
    base's membership int shifted up by each.

    `cells` are the lattice cells of the nonzero generators, in generator
    order, worked out by the builder for a two-generator base (`()` for a
    principal module) and None for any other base.
    """

    __slots__ = ("base", "min_generators", "conductor", "delta", "ed", "wilf", "_mask", "_cells", "_path")

    def __init__(self, base: NumericalSemigroup, min_generators, mask: int, cells):
        self.base = base
        self.min_generators = tuple(min_generators)
        self._cells = cells
        self._path = None
        self._mask = mask
        gaps = ~mask
        self.conductor = gaps.bit_length()
        self.delta = self.conductor - gaps.bit_count()
        self.ed = len(self.min_generators)
        self.wilf = self.ed * self.delta - self.conductor

    @property
    def gap_list(self):
        """Naturals missing from the module, ascending."""
        return tuple(_bits(~self._mask))

    def member(self, x: int) -> bool:
        return x >= 0 and (self._mask >> x) & 1 == 1

    __contains__ = member

    @property
    def cells(self):
        """(a, b) cells of the nonzero generators (two-generator base only)."""
        if self._cells is None:
            raise NotTwoGenerated(f"minimal generators are {self.base.generators}")
        return self._cells

    def lattice_points(self):
        """(a, b, value) of the nonzero generators (two-generator base only)."""
        gens = [g for g in self.min_generators if g != 0]
        return tuple((a, b, g) for (a, b), g in zip(self.cells, gens))

    def __repr__(self):
        return f"GammaSemimodule({self.base!r}, {list(self.min_generators)})"


def make_semimodule(S: NumericalSemigroup, generators) -> GammaSemimodule:
    """Normalize a generating set and reduce it to the minimal lean system."""
    # read once (it may be a one-shot iterator) into a set: a repeat shifts once
    generators = {*generators}
    if not generators:
        raise EmptyInput("need at least one generator")
    base = min(generators)
    # Normalized generators at or above the conductor lie in 0 + S, so the
    # kept 0 makes them redundant and they are never shifted; 0 is kept even
    # when the conductor is 0.
    c = S.conductor
    table = S._table
    mask = table
    for g in generators:
        x = g - base
        if x < c:
            mask |= table << x
    keep = _bits(_minimal(mask, S.generators))
    cells = None
    if len(S.generators) == 2:
        T = S.two_gen()
        alpha, beta, inv = T.alpha, T.beta, T._alpha_inv
        product = alpha * beta
        # Every nonzero minimal generator g is a gap, as it is not in 0 + S,
        # so `cell_of`'s arithmetic cannot fail on it: its column a is
        # -g / alpha mod beta and its row (alpha*beta - a*alpha - g) / beta.
        # Order by the gap partial order: 0 first, then column ascending (the
        # nonzero members of a lean set are gaps in distinct columns).  A
        # principal module, [0], gets the empty cells.
        cols = sorted([(-g * inv % beta, g) for g in keep[1:]])
        cells = tuple([(a, (product - a * alpha - g) // beta) for a, g in cols])
        keep = [0, *[g for _, g in cols]]
    return GammaSemimodule(S, keep, mask, cells)


def _gap_rows(S: NumericalSemigroup, gaps):
    """Yield (g, conductor, wilf, mask) of [0, g] for each gap g, in the
    order given, with no module built; mask is the finite gap mask.

    x is a gap of [0, g] = S u (g + S) when x is a gap of S and x - g is
    negative or a gap of S, so with G the gap mask of S the module's is
    G & ((G << g) | (2^g - 1)).  Its bit length is the conductor, and the
    Wilf number 2 * delta - conductor is the conductor less twice its gap
    count.  The caller guarantees that each g is a gap.
    """
    G = ~S._table
    for g in gaps:
        mask = G & ((G << g) | ((1 << g) - 1))
        c = mask.bit_length()
        yield g, c, c - 2 * mask.bit_count(), mask


def _gap_flags(S: NumericalSemigroup, rows):
    """For each `_gap_rows` row of S, yield (g, conductor, wilf, fixed_point,
    selfdual, symmetric, double): `is_fixed_point`, `is_selfdual` and
    `is_symmetric_sm` of [0, g], each its predicate's scan on finite masks,
    and whether 2g is in S, that is in [0, g], read off the row's mask.

    `member` holds S below N = c(S) + g + m(S), m the multiplicity.  With
    generators 0 and g, `_syzygy_mask` scans S n (g + S), which is member &
    member << g below N, and `_dual_mask` scans S n (S - g), which is member
    & member >> g below N - g.  `_minimal` is exact inside each window, and
    no minimal generator lies past it: the syzygy module holds every x from
    c(S) + g up and the dual every x from c(S) up, so past its window x - m
    is in it too.  The generator mask that `_is_translate` compares with is
    1 | 1 << g.  Fixed point and selfdual stay two scans, each a check on
    the other, though `is_fixed_point` proves they agree for ed 2.

    `_is_symmetric_mask` needs the row's gap mask M reversed in its c bits,
    and each reversal is cut from one reversal R of S's gap mask G, in N =
    c(S) bits: bit i of R is bit N - 1 - i of G, and R < 2^N.  Bit i of M's
    reversal is bit c - 1 - i of M = G & X, X = (G << g) | (2^g - 1), so it
    is the AND of the reversals of G and X below c.  Bit c - 1 - i of G is
    bit N - c + i of R, so G below c reversed is R >> (N - c), which is
    below 2^c.  If c <= g, X is 1 on every bit below c, as 2^g - 1 is, so
    the reversal is R >> (N - c).  If c > g, bit c - 1 - i of X is 1 for i
    >= c - g, which (2^g - 1) << (c - g) sets, and otherwise bit c - 1 - i -
    g of G, bit N - c + g + i of R, which R >> (N - c + g) holds at i; that
    shift is below 2^(c - g), so the OR is below 2^c.
    """
    gens = S.generators
    table = S._table
    n = S.conductor
    width = n + gens[0]
    r = _reversed(~table)
    for g, c, w, mask in rows:
        member = table & ((1 << (width + g)) - 1)
        rev = r >> (n - c)
        if c > g:
            rev &= (r >> (n - c + g)) | (((1 << g) - 1) << (c - g))
        yield (
            g, c, w,
            _is_translate(_minimal(member & member << g, gens), 1 | 1 << g),
            _is_translate(_minimal(member & member >> g, gens), 1 | 1 << g),
            _is_symmetric_mask(mask, rev, c),
            not mask >> 2 * g & 1,
        )


def is_lean(S: NumericalSemigroup, values) -> bool:
    """Whether all pairwise absolute differences of the set are gaps of S."""
    vals = sorted(set(values))
    # every difference is positive, so it is a member exactly when it is no gap
    gaps = set(S.gaps)
    return all(y - x in gaps for x, y in combinations(vals, 2))


def syzygy_generators(delta: GammaSemimodule):
    """Minimal generators of the union of pairwise intersections (G+g_i) n (G+g_j),
    ascending."""
    return _bits(_syzygy_mask(delta))


def _syzygy_mask(delta: GammaSemimodule) -> int:
    """Minimal generators of the syzygy module, as a mask.

    The union of the pairwise intersections (S+g_i) n (S+g_j), i < j, is the
    union over j of (S+g_j) n (the union of S+g_i over i < j), so one running
    OR of the earlier shifts takes ed intersections instead of ed(ed-1)/2.
    The union is closed under S, so `_minimal` applies to it.
    """
    if delta.ed < 2:
        raise PrincipalModule("syzygies need at least two generators")
    S = delta.base
    table = S._table
    seen = mask = 0
    for g in delta.min_generators:
        shifted = table << g
        mask |= shifted & seen
        seen |= shifted
    return _minimal(mask, S.generators)


def syzygy(delta: GammaSemimodule) -> GammaSemimodule:
    """The syzygy module, returned normalized."""
    return make_semimodule(delta.base, syzygy_generators(delta))


def dual_generators(delta: GammaSemimodule):
    """Minimal generators of {x : x + D is contained in the base semigroup}.

    For a two-generator base this is closed-form in the lattice coordinates
    of the lean set, x*alpha + y*beta for each path corner (x, y), that is
    alpha*beta - h for each h-value; otherwise it falls back to a direct
    scan.  The corners lie in distinct columns 0 .. beta - 1, so no two
    share a value.
    """
    if len(delta.base.generators) == 2 and delta.ed >= 2:
        a, b = delta.base.generators
        product = a * b
        return sorted([product - h for h in _path(delta).h_values])
    return _bits(_dual_mask(delta))


def _dual_mask(delta: GammaSemimodule) -> int:
    """Minimal generators of the dual, as a mask.

    Bit x of S's membership int shifted down by g says whether x + g is in
    S.  The dual is closed under S, so `_minimal` applies to it.
    """
    S = delta.base
    mask = -1
    for g in delta.min_generators:
        mask &= S._table >> g
    return _minimal(mask, S.generators)


def dual(delta: GammaSemimodule) -> GammaSemimodule:
    """The dual module, returned normalized."""
    return make_semimodule(delta.base, dual_generators(delta))


class LeanCouple(NamedTuple):
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
    # and the closed-form dual read the same corners.  Corner i sits in the
    # column of cell i - 1 (column 0 for i = 0) and the row of cell i (row 0
    # past the last cell).
    if delta._path is None:
        T = delta.base.two_gen()
        if delta.ed < 2:
            raise PrincipalModule("a principal module has no syzygy path")
        pts = delta.cells
        alpha, beta = T.alpha, T.beta
        product = alpha * beta
        cols, rows = zip(*pts)
        corners = tuple(zip((0, *cols), (*rows, 0)))
        hv = tuple([product - a * alpha - b * beta for a, b in corners])
        m = max(hv)
        delta._path = LeanCouple(
            es_turns=pts,
            se_turns=corners,
            h_values=hv,
            max_syzygy=m,
            max_point=corners[hv.index(m)],
        )
    return delta._path


def sm_conductor_formula(delta: GammaSemimodule) -> int:
    """Conductor from the largest syzygy generator: M - alpha - beta + 1."""
    T = delta.base.two_gen()
    if delta.ed < 2:
        return delta.base.conductor
    return _path(delta).max_syzygy - T.alpha - T.beta + 1


def delta_formula(delta: GammaSemimodule) -> int:
    """Delta invariant from the staircase column widths and row heights.

    The conductor term is `sm_conductor_formula`'s, read off the same path:
    delta = (M - alpha - beta + 1) - delta(S) + the area under the
    staircase, which over the columns from corner i to corner i + 1 has the
    height of corner i's row.
    """
    S = delta.base
    T = S.two_gen()  # raises NotTwoGenerated for any other base
    if delta.ed < 2:
        return S.delta
    path = _path(delta)
    corners = path.se_turns
    area = sum([(c1 - c0) * b for (c0, b), (c1, _) in zip(corners, corners[1:])])
    return path.max_syzygy - T.alpha - T.beta + 1 - S.delta + area


def _is_translate(mins: int, genmask: int) -> bool:
    # mins holds minimal generators; a shift keeps them minimal, so they
    # generate a translate of the module with generator mask genmask exactly
    # when they are its generators shifted up by the least of them,
    # mins & -mins as a power of two.
    return mins == genmask * (mins & -mins)


def _generator_mask(delta: GammaSemimodule) -> int:
    # the minimal generators are distinct, so their powers of two sum to
    # their OR
    return sum([1 << g for g in delta.min_generators])


def _reversed(mask: int) -> int:
    """A nonnegative mask with its bit_length() bits in reverse order; the
    slice drops "0b" and reverses the digits, and 0 gives 0."""
    return int(bin(mask)[:1:-1], 2)


def _is_symmetric_mask(gaps: int, rev: int, c: int) -> bool:
    """Whether x below c is a gap exactly when c - 1 - x is not, for a gap
    mask of bit length c and rev, its c bits reversed.

    The mask is symmetric exactly when rev is gaps ^ (2^c - 1); as both lie
    in [0, 2^c), that is their sum being 2^c - 1, because a + b = 2^c - 1
    forces b = a ^ (2^c - 1).  c = 0 gives 0 + 0 == 0.
    """
    return gaps + rev == (1 << c) - 1


def is_fixed_point(delta: GammaSemimodule) -> bool:
    """Whether the normalized syzygy module has the same minimal generators.

    Compares the mask of the scanned syzygy generators (`_syzygy_mask`) with
    the mask of the generators shifted up by the least syzygy generator s0.
    The scanned generators are minimal and stay minimal under the shift by
    -s0, so they are the generators of the normalized syzygy module, which
    is never built.  A principal module has no syzygy: `_syzygy_mask` raises
    PrincipalModule.

    For d = [0, g] over any base S this agrees with `is_selfdual`.  The
    syzygy module is S n (g + S) and the dual is S n (S - g), and y is in
    g + (S n (S - g)) exactly when y - g and y are in S, that is when y is
    in S n (g + S).  So the syzygy module is the dual shifted up by g, its
    minimal generators are the dual's shifted up by g (`_syzygy_mask(d) ==
    _dual_mask(d) << g`), and one is a translate of d exactly when the other
    is.  With three generators the two can differ: over <4, 5, 6> the module
    {0, 2, 3} is selfdual but not a fixed point.
    """
    return _is_translate(_syzygy_mask(delta), _generator_mask(delta))


def is_selfdual(delta: GammaSemimodule) -> bool:
    """Whether the dual is a translate of the module itself.

    Always evaluated through the direct dual scan (`_dual_mask`) so that it
    stays an independent cross-check of the closed-form dual generators.  As
    in `is_fixed_point`, the mask of the scanned generators is compared with
    the mask of the generators shifted up by the least of them: a shift keeps
    them minimal, so they are the generators of the normalized dual module.
    A module with two generators is selfdual exactly when it is a fixed
    point; the proof is in `is_fixed_point`.

    Over a symmetric base S, one where x is in S exactly when F - x is not
    for every integer x, F = c(S) - 1, a module D is selfdual exactly when
    it is symmetric (`is_symmetric_sm`); every <alpha, beta> is symmetric.
    x is not in the dual S - D exactly when x + d is not in S for some d in
    D, that is when F - x - d is in S, so when F - x is in D + S = D.  The
    dual is therefore {x : F - x not in D}, and it is D + t exactly when, for
    every integer y, y is in D iff k - y is not, with k = F - t.  Then k is
    c(D) - 1: c(D) - 1 is not in D, so k - c(D) + 1 is, while every y from
    c(D) up is in D, so nothing below k - c(D) + 1 is; that makes k - c(D) +
    1 the least member, 0.  With k = c(D) - 1 the condition holds outright
    for y < 0 and y >= c(D), and below the conductor it is the symmetry of
    D.  So D is selfdual exactly when it is symmetric, and the translate is
    t = F - c(D) + 1.
    """
    return _is_translate(_dual_mask(delta), _generator_mask(delta))


def is_symmetric_sm(delta: GammaSemimodule) -> bool:
    """Whether x is a member iff conductor - 1 - x is not, below the conductor.

    The gap mask has exactly conductor bits, so `_is_symmetric_mask` applies.
    """
    return _is_symmetric_mask(~delta._mask, _reversed(~delta._mask), delta.conductor)


class PicardOrbit(NamedTuple):
    """Iterates of normalize(syzygy(.)) until a repeat or the step cap."""

    states: tuple
    cycle_length: int | None


# syzygy steps `picard_orbit` takes before it gives up on finding a repeat
PICARD_MAX_STEPS = 64


def picard_orbit(delta: GammaSemimodule) -> PicardOrbit:
    if delta.ed < 2:
        raise PrincipalModule("orbit iteration needs the syzygy module")
    states = [delta.min_generators]
    seen = {delta.min_generators: 0}
    cur = delta
    for _ in range(PICARD_MAX_STEPS):
        if cur.ed < 2:
            return PicardOrbit(tuple(states), None)
        cur = syzygy(cur)
        key = cur.min_generators
        states.append(key)
        if key in seen:
            return PicardOrbit(tuple(states), len(states) - 1 - seen[key])
        seen[key] = len(states) - 1
    return PicardOrbit(tuple(states), None)
