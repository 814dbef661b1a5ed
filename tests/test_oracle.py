from math import comb, gcd

import pytest

from gapsym import (
    Ambiguous,
    BoundTooSmall,
    EmptyInput,
    PrincipalModule,
    TwoGen,
    make_semigroup,
)
from gapsym.oracle import (
    brute_dual,
    brute_h_determines,
    brute_syzygy,
    enumerate_lean_sets,
    enumerate_semigroups_by_genus,
)
from gapsym.semigroup import _bits


def test_brute_syzygy():
    S = make_semigroup([5, 7])
    _, gens = brute_syzygy(S, [0, 9, 11, 8], 60)
    assert gens == [14, 15, 16, 18]

    _, gens = brute_syzygy(make_semigroup([4, 6, 13]), [0, 1], 80)
    assert gens == [13, 14]

    _, gens = brute_syzygy(make_semigroup([2, 3]), [0, 1], 20)
    assert gens == [3, 4]


def test_brute_syzygy_members_are_pairwise_intersections():
    S = make_semigroup([5, 7])
    members, _ = brute_syzygy(S, [0, 9], 40)
    expected = [x for x in range(41) if S.contains(x) and S.contains(x - 9)]
    assert list(_bits(members)) == expected


def test_brute_syzygy_errors():
    with pytest.raises(PrincipalModule):
        brute_syzygy(make_semigroup([5, 7]), [0], 60)
    with pytest.raises(BoundTooSmall):
        brute_syzygy(make_semigroup([5, 7]), [0, 9, 11, 8], 18)


def test_brute_dual():
    S = make_semigroup([5, 7])
    _, gens = brute_dual(S, [0, 1], 40)
    assert gens == [14, 20]

    members, gens = brute_dual(S, [0], S.conductor + 5)
    assert gens == [0]
    assert list(_bits(members)) == [x for x in range(S.conductor + 6) if S.contains(x)]

    _, gens = brute_dual(make_semigroup([7, 8]), [0, 12], 60)
    assert gens == [16, 28]


def test_enumerate_lean_sets_small():
    assert list(enumerate_lean_sets(TwoGen(2, 3))) == [[0], [0, 1]]
    assert len(list(enumerate_lean_sets(TwoGen(3, 5)))) == 7
    assert len(list(enumerate_lean_sets(TwoGen(5, 7)))) == 66


def test_enumerate_lean_sets_max_ed():
    sets = [s for s in enumerate_lean_sets(TwoGen(5, 7)) if len(s) <= 2]
    assert [0] in sets
    assert len(sets) == 1 + 12  # the whole semigroup plus one per gap


def test_enumerate_lean_sets_are_lean_and_counted_by_ballot():
    from gapsym import is_lean

    for a in range(2, 11):
        for b in range(a + 1, 11):
            if gcd(a, b) != 1:
                continue
            T = TwoGen(a, b)
            S = T.semigroup()
            seen = set()
            for vals in enumerate_lean_sets(T):
                assert vals[0] == 0
                assert is_lean(S, vals)
                seen.add(tuple(sorted(vals)))
            assert len(seen) == comb(a + b, a) // (a + b), (a, b)


def test_enumerate_semigroups_by_genus():
    sgs = enumerate_semigroups_by_genus(4)
    counts = {}
    for S in sgs:
        counts[S.genus] = counts.get(S.genus, 0) + 1
    assert counts == {0: 1, 1: 1, 2: 2, 3: 4, 4: 7}

    by_gaps = {S.gaps for S in sgs if S.genus == 2}
    assert by_gaps == {(1, 3), (1, 2)}
    gens = {S.gaps: S.generators for S in sgs if S.genus == 2}
    assert gens[(1, 3)] == (2, 5)
    assert gens[(1, 2)] == (3, 4, 5)

    # n_g for g = 0..16, as in Bras-Amoros, Semigroup Forum 76 (2008)
    by_genus = [0] * 17
    for S in enumerate_semigroups_by_genus(16):
        by_genus[S.genus] += 1
    assert by_genus == [1, 1, 2, 4, 7, 12, 23, 39, 67, 118, 204, 343, 592, 1001, 1693, 2857, 4806]


def test_enumerated_semigroups_match_fresh_construction():
    for S in enumerate_semigroups_by_genus(7):
        fresh = make_semigroup(S.generators)
        assert fresh.gaps == S.gaps
        assert fresh.conductor == S.conductor
        assert fresh.generators == S.generators
        assert fresh._table == S._table


def test_brute_h_determines():
    assert brute_h_determines({4, 7}, 6).generators == (3, 5)
    assert brute_h_determines({1}, 3).generators == (2, 3)
    with pytest.raises(Ambiguous) as exc:
        brute_h_determines({7}, 8)
    assert {S.generators for S in exc.value.matches} == {(2, 9), (3, 5), (4, 5, 6)}


def test_brute_h_determines_errors():
    with pytest.raises(EmptyInput):
        brute_h_determines(set(), 5)
    with pytest.raises(BoundTooSmall):
        brute_h_determines({4, 7}, 3)  # the divisor closure alone has 4 elements
