"""Brute-force reference implementations for differential testing.

Everything here recomputes results straight from definitions - pairwise
intersections, membership scans, exhaustive enumeration - and shares no
arithmetic with the closed-form code it is used to check.  Member sets are
represented as int bitmasks (bit x set iff x is a member) purely so that the
exhaustive sweeps finish at desk scale; the algorithms stay the dumb ones.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations

from .errors import Ambiguous, BoundTooSmall, EmptyInput, PrincipalModule
# _bits only lists the set bits of a mask.  The minimal-generator reductions
# (_greedy_minimal, and minimal_generators in _semigroup_tree) stay the
# oracle's own copies of what semigroup.py computes.
from .semigroup import NumericalSemigroup, TwoGen, _bits


def _greedy_minimal(table: int, mask: int, nbits: int):
    # Greedy removal: take the smallest member, delete its whole shifted
    # copy of the semigroup, repeat.  table is S.member_mask(nbits).
    full = (1 << nbits) - 1
    out = []
    while mask:
        h = (mask & -mask).bit_length() - 1
        out.append(h)
        mask &= ~((table << h) & full)
    return out


def brute_syzygy(S: NumericalSemigroup, generators, bound: int):
    """Union of pairwise intersections (S+g_i) n (S+g_j) over [0, bound].

    Returns (member mask, minimal generators); bit x of the mask is set iff
    x is a member.
    """
    gens = sorted(set(generators))
    if len(gens) < 2:
        raise PrincipalModule("need at least two generators")
    nbits = bound + 1
    table = S.member_mask(nbits)
    full = (1 << nbits) - 1
    shifted = {g: (table << g) & full for g in gens}
    members = 0
    for gi, gj in combinations(gens, 2):
        members |= shifted[gi] & shifted[gj]
    if members == 0:
        raise BoundTooSmall(f"no intersection members below {bound}")
    mingens = _greedy_minimal(table, members, nbits)
    if bound - max(mingens) < S.generators[0]:
        raise BoundTooSmall(
            f"generator {max(mingens)} is within {S.generators[0]} of bound {bound}"
        )
    return members, mingens


def brute_dual(S: NumericalSemigroup, generators, bound: int):
    """All x in [0, bound] with x + d in S for every member d of the module.

    Members d at or beyond c(S) impose nothing.  Returns (member mask,
    minimal generators); bit x of the mask is set iff x is a member.
    """
    gens = sorted(set(generators))
    c = S.conductor
    table = S.member_mask(c)
    dmask = 0
    for g in gens:
        dmask |= (table << g) & ((1 << c) - 1)
    nbits = bound + 1
    ext = S.member_mask(nbits + c + 1)
    members = (1 << nbits) - 1
    for d in _bits(dmask):
        members &= ext >> d
    return members, _greedy_minimal(S.member_mask(nbits), members, nbits)


def enumerate_lean_sets(T: TwoGen):
    """Yield every lean set of the two-generator semigroup as a value list.

    Lean sets are exactly the strict staircase chains in the gap lattice
    (columns increasing, rows decreasing); the nonzero entries come out in
    that chain order, after the leading 0.
    """
    top = {}
    for a in range(1, T.beta):
        t = (T.product - a * T.alpha - 1) // T.beta
        if t >= 1:
            top[a] = t
    cols = sorted(top)

    def extend(prefix, last_col, last_row):
        yield [0] + [T.value(a, b) for a, b in prefix]
        for a in cols:
            if a <= last_col or last_row <= 1:
                continue
            for b in range(min(top[a], last_row - 1), 0, -1):
                prefix.append((a, b))
                yield from extend(prefix, a, b)
                prefix.pop()

    yield from extend([], 0, T.alpha + 1)


@lru_cache(maxsize=8)
def _semigroup_tree(gmax: int):
    # Children of S: drop one minimal generator larger than the Frobenius
    # number; every semigroup of genus g is reached exactly once at depth g.
    nbits = 4 * gmax + 6
    full = (1 << nbits) - 1

    def minimal_generators(mask):
        nonzero = mask & ~1
        sums = 0
        for s in _bits(nonzero):
            sums |= (nonzero << s) & full
        return list(_bits(nonzero & ~sums))

    levels = [[(full, -1, (1,))]]
    for _ in range(gmax):
        nxt = []
        for mask, frob, gens in levels[-1]:
            for g in gens:
                if g > frob:
                    child = mask & ~(1 << g)
                    nxt.append((child, g, tuple(minimal_generators(child))))
        nxt.sort(key=lambda t: t[0])
        levels.append(nxt)

    out = []
    for level in levels:
        for mask, frob, gens in level:
            out.append(NumericalSemigroup._from_sieve(gens, full & ~mask))
    return tuple(out)


def enumerate_semigroups_by_genus(gmax: int):
    """All numerical semigroups with at most gmax gaps, genus-ascending."""
    return list(_semigroup_tree(gmax))


def brute_h_determines(values, gmax: int):
    """The unique inclusion-maximal semigroup avoiding the set, by enumeration.

    Every semigroup avoiding X has the whole divisor closure D(X) among its
    gaps, so none is found, and BoundTooSmall is raised, when gmax < |D(X)|.
    Only avoiders whose Frobenius number equals max(X) can be maximal: below
    that max(X) would not be a gap, and above it the avoider obtained by
    adjoining the Frobenius number strictly contains it.
    """
    xs = sorted(set(values))
    if not xs:
        raise EmptyInput("need a nonempty gap set")
    xmask = 0
    for x in xs:
        xmask |= 1 << x
    top = xs[-1]
    minimal = []
    for S in _semigroup_tree(gmax):
        if S.frobenius != top:
            continue
        members = S.member_mask(top + 1)
        if xmask & members:
            continue
        # every avoider kept has Frobenius number top as well, so its gaps
        # lie among S's exactly when S has no member below top that it lacks
        if any(members & ~kept.member_mask(top + 1) == 0 for kept in minimal):
            continue
        minimal.append(S)
    if not minimal:
        raise BoundTooSmall(f"no semigroup of genus <= {gmax} avoids {xs}")
    if len(minimal) > 1:
        raise Ambiguous(f"{len(minimal)} maximal semigroups avoid {xs}", minimal)
    return minimal[0]
