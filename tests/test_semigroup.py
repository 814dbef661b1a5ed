import pytest

from gapsym import (
    EmptyInput,
    GcdNotOne,
    NotAGap,
    OutOfTriangle,
    TwoGen,
    gap_order_leq,
    make_semigroup,
)


def test_make_semigroup_basic():
    S = make_semigroup([7, 8])
    assert S.generators == (7, 8)
    assert S.conductor == 42
    assert S.frobenius == 41
    assert S.genus == 21


def test_make_semigroup_gap_list():
    S = make_semigroup([4, 6, 13])
    assert S.gaps == (1, 2, 3, 5, 7, 9, 11, 15)
    assert S.conductor == 16


def test_make_semigroup_reduces_to_minimal_system():
    S = make_semigroup([8, 12, 6, 4, 13])
    assert S.generators == (4, 6, 13)
    assert S.gaps == (1, 2, 3, 5, 7, 9, 11, 15)


def test_make_semigroup_errors():
    with pytest.raises(GcdNotOne):
        make_semigroup([4, 6])
    with pytest.raises(EmptyInput):
        make_semigroup([])
    with pytest.raises(EmptyInput):
        make_semigroup([0, 3])


def test_naturals():
    N = make_semigroup([1])
    assert N.conductor == 0
    assert N.frobenius == -1
    assert N.gaps == ()
    assert N.generators == (1,)


def test_contains():
    S78 = make_semigroup([7, 8])
    assert S78.contains(0)
    assert not S78.contains(41)
    assert S78.contains(42)
    assert S78.contains(10**6)
    assert not S78.contains(-3)
    assert not make_semigroup([4, 6, 13]).contains(15)
    assert 15 in make_semigroup([7, 8])


def test_gaps_conductor_delta():
    S = make_semigroup([7, 8])
    assert S.conductor == 42 and S.delta == 21

    S = make_semigroup([5, 7])
    assert S.gaps == (1, 2, 3, 4, 6, 8, 9, 11, 13, 16, 18, 23)

    S = make_semigroup([10, 14, 27])
    assert S.conductor == 74


def test_two_gen_conductor_genus_small_sweep():
    from math import gcd

    for a in range(2, 41):
        for b in range(a + 1, 41):
            if gcd(a, b) != 1:
                continue
            S = make_semigroup([a, b])
            assert S.conductor == (a - 1) * (b - 1)
            assert S.genus == (a - 1) * (b - 1) // 2
            assert S.delta == S.genus


def test_gap_to_lattice():
    T = TwoGen(5, 7)
    assert T.gap_to_lattice(23) == (1, 1)
    assert T.gap_to_lattice(1) == (4, 2)
    assert TwoGen(8, 13).gap_to_lattice(25) == (5, 3)
    with pytest.raises(NotAGap):
        T.gap_to_lattice(5)
    with pytest.raises(NotAGap):
        T.gap_to_lattice(0)
    with pytest.raises(NotAGap):
        T.gap_to_lattice(100)


def test_lattice_to_gap():
    assert TwoGen(5, 7).lattice_to_gap(2, 2) == 11
    assert TwoGen(7, 8).lattice_to_gap(4, 3) == 4
    with pytest.raises(OutOfTriangle):
        TwoGen(7, 8).lattice_to_gap(6, 2)
    with pytest.raises(OutOfTriangle):
        TwoGen(7, 8).lattice_to_gap(0, 3)


def test_lattice_bijection_round_trip():
    from math import gcd

    for alpha in range(2, 41):
        for beta in range(alpha + 1, 41):
            if gcd(alpha, beta) != 1:
                continue
            T = TwoGen(alpha, beta)
            S = make_semigroup([alpha, beta])
            cells = T.lattice_gaps()
            assert len(cells) == T.genus
            values = sorted(v for _, _, v in cells)
            assert values == list(S.gaps)
            for a, b, v in cells:
                assert T.gap_to_lattice(v) == (a, b)
                assert T.lattice_to_gap(a, b) == v
            # the raising lookup on every integer around the gaps: it agrees
            # with cell_of on gaps and raises on non-gaps, negatives included
            gaps = set(S.gaps)
            for x in range(-2, S.conductor + beta + 1):
                if x in gaps:
                    cell = T.gap_to_lattice(x)
                    assert cell == T.cell_of(x)
                    assert T.value(*cell) == x
                else:
                    assert T.cell_of(x) is None
                    with pytest.raises(NotAGap) as info:
                        T.gap_to_lattice(x)
                    assert str(info.value) == f"{x} is not a gap of <{alpha}, {beta}>"


def test_walk_matches_lattice_gaps():
    # the walk is what lattice_gaps is built on, so it is also checked against
    # the cell definition: 1 <= a, 1 <= b, positive value, b descending then a
    from gapsym.survey import coprime_pairs

    for alpha, beta in coprime_pairs(40):
        T = TwoGen(alpha, beta)
        walk = list(T.walk())
        assert walk == list(T.lattice_gaps())
        cells = [
            (a, b, alpha * beta - a * alpha - b * beta)
            for b in range(alpha - 1, 0, -1)
            for a in range(1, beta)
            if alpha * beta - a * alpha - b * beta > 0
        ]
        assert walk == cells
        assert T.gap_values() == make_semigroup([alpha, beta]).gaps


def test_gap_order():
    T = TwoGen(5, 7)
    e9, e11 = T.gap_to_lattice(9), T.gap_to_lattice(11)
    assert gap_order_leq(e9, e11)
    assert not gap_order_leq(e11, e9)
    assert gap_order_leq(e9, e9)
    assert gap_order_leq((1, 3), (2, 2))


def test_two_gen_validation():
    with pytest.raises(GcdNotOne):
        TwoGen(4, 6)
    with pytest.raises(GcdNotOne):
        TwoGen(1, 5)
    with pytest.raises(GcdNotOne):
        TwoGen(7, 7)


def test_two_gen_from_semigroup():
    from gapsym import NotTwoGenerated

    S = make_semigroup([4, 6, 13])
    with pytest.raises(NotTwoGenerated):
        S.two_gen()
    T = make_semigroup([7, 8]).two_gen()
    assert (T.alpha, T.beta) == (7, 8)
    assert T.semigroup() is not None


def _reference_construction(generators):
    """(generators, conductor, gaps, table) by the quadratic sieve and the
    sum-set reduction that NumericalSemigroup used before the doubling
    sieve; kept here as the reference."""
    gens = sorted(set(generators))
    m, big = gens[0], gens[-1]
    nbits = (m - 1) * (big - 1) + big + 2
    table = 1
    for x in range(1, nbits):
        for g in gens:
            if x >= g and (table >> (x - g)) & 1:
                table |= 1 << x
                break
    full = (1 << nbits) - 1
    gapmask = ~table & full
    nonzero = table & ~1
    sums = 0
    for s in range(nbits):
        if (nonzero >> s) & 1:
            sums |= (nonzero << s) & full
    minimal = nonzero & ~sums
    return (
        tuple(x for x in range(nbits) if (minimal >> x) & 1),
        gapmask.bit_length(),
        tuple(x for x in range(nbits) if (gapmask >> x) & 1),
        table,
    )


def _construction_inputs():
    import random
    from functools import reduce
    from math import gcd

    from gapsym.oracle import enumerate_semigroups_by_genus
    from gapsym.survey import coprime_pairs

    yield [1]
    for S in enumerate_semigroups_by_genus(12):
        yield list(S.generators)
    for pair in sorted(coprime_pairs(60)):
        yield list(pair)
    rng = random.Random(20201)
    for k in (3, 4):
        n = 0
        while n < 300:
            gens = rng.sample(range(2, 41), k)
            if reduce(gcd, gens) == 1:
                n += 1
                yield gens


def test_construction_matches_reference_sieve():
    count = 0
    for gens in _construction_inputs():
        S = make_semigroup(gens)
        got = (S.generators, S.conductor, S.gaps, S._table)
        assert got == _reference_construction(gens), gens
        count += 1
    assert count > 2500


def test_bits_matches_naive_scan():
    import random

    from gapsym.semigroup import _bits

    rng = random.Random(7)
    masks = [
        0,
        1,
        (1 << 5000) | (1 << 3) | 1,
        (1 << 3000) - 1,
        rng.getrandbits(20000),
        rng.getrandbits(12000) << 4000,
    ]
    for mask in masks:
        assert _bits(mask) == [i for i in range(mask.bit_length()) if (mask >> i) & 1]
