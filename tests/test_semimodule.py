import random
from itertools import combinations

import pytest

from gapsym import (
    GammaSemimodule,
    NotTwoGenerated,
    PrincipalModule,
    delta_formula,
    dual,
    dual_generators,
    is_fixed_point,
    is_lean,
    is_selfdual,
    is_symmetric_sm,
    lattice_path,
    make_semigroup,
    make_semimodule,
    picard_orbit,
    sm_conductor_formula,
    syzygy,
    syzygy_generators,
)
from gapsym.oracle import brute_dual, enumerate_lean_sets
from gapsym.semimodule import _dual_generators_scan
from gapsym.survey import coprime_pairs

S57 = make_semigroup([5, 7])
S78 = make_semigroup([7, 8])
S58 = make_semigroup([5, 8])
S4613 = make_semigroup([4, 6, 13])


def test_make_semimodule_keeps_lean_input():
    d = make_semimodule(S57, [0, 9, 11, 8])
    assert d.min_generators == (0, 9, 11, 8)  # ordered along the staircase
    assert d.ed == 4


def test_make_semimodule_normalizes_and_minimalizes():
    d = make_semimodule(S78, [3, 3, 10])
    assert d.min_generators == (0,)


def test_make_semimodule_keeps_four_generators():
    # nothing is dropped; the staircase order puts 6 at column 2 first
    d = make_semimodule(S58, [0, 4, 6, 7])
    assert set(d.min_generators) == {0, 4, 6, 7}
    assert d.min_generators == (0, 6, 4, 7)
    assert d.ed == 4


def test_is_lean():
    assert is_lean(S57, {0, 9, 11, 8})
    assert not is_lean(S57, {0, 5})
    assert is_lean(S58, {0, 4, 6, 7})


def test_member_conductor_delta():
    d = make_semimodule(S57, [0, 9, 11, 8])
    assert d.gap_list == (1, 2, 3, 4, 6)
    assert d.conductor == 7
    assert d.delta == 2
    assert d.member(0) and d.member(8) and not d.member(6)
    assert d.member(1000)

    d0 = make_semimodule(S57, [0])
    assert d0.conductor == S57.conductor
    assert d0.delta == S57.delta

    d = make_semimodule(S58, [0, 4, 6, 7])
    assert d.conductor == 4
    assert d.delta == 1


def test_dual_generators_closed_form():
    assert dual_generators(make_semimodule(S57, [0, 1])) == [14, 20]
    assert dual_generators(make_semimodule(S57, [0])) == [0]
    d = make_semimodule(S78, [0, 12])
    assert dual_generators(d) == [16, 28]
    assert dual(d).min_generators == (0, 12)
    assert is_selfdual(d)


def test_dual_of_multi_generator_module():
    # four shifted staircase columns; scan result pinned by the brute oracle
    d = make_semimodule(S57, [0, 9, 11, 8])
    assert dual_generators(d) == [17, 19, 20, 21]


def test_syzygy_generators():
    assert syzygy_generators(make_semimodule(S57, [0, 9, 11, 8])) == [14, 15, 16, 18]
    # normalization subtracts 14; the staircase order is by column: 2@(1,4), 4@(2,3), 1@(4,2)
    assert syzygy(make_semimodule(S57, [0, 9, 11, 8])).min_generators == (0, 2, 4, 1)
    assert syzygy_generators(make_semimodule(S4613, [0, 11])) == [17, 19, 24]
    T = S78.two_gen()
    for g in S78.gaps:
        a, b = T.gap_to_lattice(g)
        expected = sorted({T.product - b * T.beta, T.product - a * T.alpha})
        assert syzygy_generators(make_semimodule(S78, [0, g])) == expected
    with pytest.raises(PrincipalModule):
        syzygy_generators(make_semimodule(S57, [0]))


def test_lattice_path():
    couple = lattice_path(make_semimodule(S57, [0, 9, 11, 8]))
    assert couple.se_turns == ((0, 3), (1, 2), (2, 1), (4, 0))
    assert couple.h_values == (14, 16, 18, 15)
    assert couple.max_syzygy == 18
    assert couple.max_point == (2, 1)
    assert couple.es_turns == ((1, 3), (2, 2), (4, 1))
    with pytest.raises(PrincipalModule):
        lattice_path(make_semimodule(S57, [0]))
    with pytest.raises(NotTwoGenerated):
        lattice_path(make_semimodule(S4613, [0, 11]))


def test_conductor_formula():
    assert sm_conductor_formula(make_semimodule(S57, [0, 9, 11, 8])) == 18 - 5 - 7 + 1 == 7
    d = make_semimodule(make_semigroup([8, 13]), [0, 25])
    assert lattice_path(d).h_values == (65, 64)
    assert sm_conductor_formula(d) == 65 - 8 - 13 + 1 == 45
    d = make_semimodule(S78, [0, 4])
    assert lattice_path(d).h_values == (32, 28)
    assert sm_conductor_formula(d) == 18
    assert sm_conductor_formula(make_semimodule(S78, [0])) == 42


def test_delta_formula():
    d = make_semimodule(S57, [0, 9, 11, 8])
    assert delta_formula(d) == 7 - 12 + (1 * 3 + 1 * 2 + 2 * 1) == 2
    d = make_semimodule(S78, [0, 5])
    assert d.conductor == 26
    assert delta_formula(d) == 26 - 21 + 10 == 15
    assert delta_formula(make_semimodule(S78, [0])) == S78.delta


def test_fixed_selfdual_symmetric():
    d = make_semimodule(S78, [0, 12])
    assert is_fixed_point(d) and is_selfdual(d) and is_symmetric_sm(d)

    d = make_semimodule(S58, [0, 4, 6, 7])
    assert 4 * d.delta - d.conductor == 0
    assert not is_fixed_point(d)

    d = make_semimodule(make_semigroup([10, 14, 27]), [0, 9])
    assert 2 * d.delta - d.conductor == 0
    assert not is_fixed_point(d)
    assert not is_symmetric_sm(d)

    with pytest.raises(PrincipalModule):
        is_fixed_point(make_semimodule(S57, [0]))


def test_whole_semigroup_is_selfdual_and_symmetric():
    d = make_semimodule(S78, [0])
    assert is_selfdual(d)
    assert is_symmetric_sm(d)  # <7,8> is a symmetric semigroup


def test_picard_orbit():
    orbit = picard_orbit(make_semimodule(S78, [0, 12]))
    assert orbit.cycle_length == 1
    assert orbit.states == ((0, 12), (0, 12))

    orbit = picard_orbit(make_semimodule(S4613, [0, 1]))
    assert orbit.states[1] == (0, 1)
    assert orbit.cycle_length == 1

    orbit = picard_orbit(make_semimodule(S4613, [0, 11]))
    assert orbit.states[1] == (0, 2, 7)
    assert orbit.states[1] != (0, 11)

    with pytest.raises(PrincipalModule):
        picard_orbit(make_semimodule(S57, [0]))


def test_module_over_naturals_edge():
    # [0,1] over <2,3> is all of the naturals: conductor 0, delta 0
    S23 = make_semigroup([2, 3])
    d = make_semimodule(S23, [0, 1])
    assert d.conductor == 0
    assert d.delta == 0
    assert d.gap_list == ()
    assert is_symmetric_sm(d)
    assert syzygy_generators(d) == [3, 4]
    assert sm_conductor_formula(d) == 0
    assert delta_formula(d) == 0


def _closed_forms(d):
    out = [d.lattice_points(), dual_generators(d), sm_conductor_formula(d), delta_formula(d)]
    if d.ed >= 2:
        out.append(lattice_path(d))
    return out


def test_cells_and_path_agree_with_direct_construction():
    # make_semimodule hands its cells to the module; a module built directly
    # computes them on first use.  Both must give the same closed forms, and
    # asking twice must not change them.
    for alpha, beta in coprime_pairs(9):
        S = make_semigroup([alpha, beta])
        for values in enumerate_lean_sets(S.two_gen()):
            made = make_semimodule(S, values)
            direct = GammaSemimodule(S, values)
            assert direct.min_generators == made.min_generators
            first = _closed_forms(made)
            assert _closed_forms(direct) == first
            assert _closed_forms(made) == first
            assert _closed_forms(direct) == first
            assert [(a, b) for a, b, _ in made.lattice_points()] == list(made.cells)
            assert [v for _, _, v in made.lattice_points()] == list(values[1:])


def test_three_generator_base_keeps_the_scan():
    d = make_semimodule(S4613, [0, 11])
    with pytest.raises(NotTwoGenerated):
        lattice_path(d)
    with pytest.raises(NotTwoGenerated):
        d.lattice_points()
    with pytest.raises(NotTwoGenerated):
        lattice_path(GammaSemimodule(S4613, [0, 11]))
    bound = S4613.conductor + 2 * 13 + 11
    assert dual_generators(d) == brute_dual(S4613, [0, 11], bound)[1]
    assert dual_generators(GammaSemimodule(S4613, [0, 11])) == dual_generators(d)


def _reference_min_generators(S, generators):
    """Reference minimalization: the quadratic scan over the normalized
    values, then the staircase order (with the cells) for a two-generator
    base."""
    base = min(generators)
    keep = []
    for x in sorted(set(g - base for g in generators)):
        if not any(S.contains(x - k) for k in keep):
            keep.append(x)
    if len(S.generators) == 2 and len(keep) > 1:
        cells, rest = zip(*sorted((S.two_gen().cell_of(g), g) for g in keep[1:]))
        return (0, *rest), cells
    return tuple(keep), None


def _table(S):
    return sum(1 << x for x in range(S.conductor) if S.contains(x))


_FLIP = str.maketrans("01", "10")


def _reference_scan(S, table, gens):
    """Eager reference scan: membership of gens + S below c(S) as a 0/1
    string indexed by x, and the conductor, delta, gaps and symmetry read
    from it."""
    c = S.conductor
    mask = 0
    for g in gens:
        mask |= (table << g) & ((1 << c) - 1)
    bits = format(mask, f"0{c}b")[::-1] if c else ""
    conductor = bits.rfind("0") + 1
    below = bits[:conductor]
    gaps = tuple(x for x, ch in enumerate(below) if ch == "0")
    symmetric = below == below[::-1].translate(_FLIP)
    return bits, conductor, below.count("1"), gaps, symmetric


def _check_against_reference(S, table, generators):
    """make_semimodule against the references; returns the module."""
    keep, cells = _reference_min_generators(S, generators)
    bits, conductor, delta, gaps, symmetric = _reference_scan(S, table, keep)
    d = make_semimodule(S, generators)
    assert d.min_generators == keep
    assert d._mask == int(bits[::-1] or "0", 2)
    assert (d.conductor, d.delta, d.gap_list) == (conductor, delta, gaps)
    assert is_symmetric_sm(d) == symmetric
    # member() reads the mask checked above; probe it where it switches
    # between the negative range, the mask and the all-members tail
    c, top = S.conductor, S.conductor + max(keep)
    for x in {-1, 0, c - 1, c, top}:
        assert d.member(x) == (0 <= x and (x >= c or bits[x] == "1"))
    if cells is not None:
        assert d.cells == cells
    return d


# the predicates as defined through the normalized module, built in full
def _fixed_point_by_module(d):
    return syzygy(d).min_generators == d.min_generators


def _selfdual_by_module(d):
    return make_semimodule(d.base, _dual_generators_scan(d)).min_generators == d.min_generators


def _check_predicates(modules):
    """is_fixed_point and is_selfdual against their module-building
    definitions; returns how many modules are fixed points and selfdual."""
    fixed = selfdual = 0
    for d in modules:
        got = is_selfdual(d)
        assert got == _selfdual_by_module(d), d
        selfdual += got
        if d.ed >= 2:
            got = is_fixed_point(d)
            assert got == _fixed_point_by_module(d), d
            fixed += got
    return fixed, selfdual


def test_make_semimodule_and_predicates_match_references_on_lean_sets():
    total = fixed = selfdual = 0
    for alpha, beta in coprime_pairs(12):
        S = make_semigroup([alpha, beta])
        table = _table(S)
        modules = [_check_against_reference(S, table, values)
                   for values in enumerate_lean_sets(S.two_gen())]
        f, s = _check_predicates(modules)
        total, fixed, selfdual = total + len(modules), fixed + f, selfdual + s
        for d in modules:
            assert d.wilf == d.ed * d.delta - d.conductor
    assert total == 103102
    # both predicates take both values on this range
    assert 0 < fixed < total and 0 < selfdual < total


def test_make_semimodule_matches_quadratic_scan_on_arbitrary_lists():
    # unsorted, duplicated, non-lean and negative generator lists
    rng = random.Random(20201103)
    bases = [S57, S78, S58, S4613, make_semigroup([3, 10]), make_semigroup([6, 9, 20])]
    for S in bases:
        top = S.conductor + 2 * S.generators[-1]
        table = _table(S)
        for _ in range(200):
            gens = [rng.randint(-20, top) for _ in range(rng.randint(1, 7))]
            gens += rng.sample(gens, rng.randint(0, len(gens)))
            rng.shuffle(gens)
            _check_against_reference(S, table, gens)
    for gens in ([0, 1], [0, 2, 7], [0, 11], [3, 5], [16, 0, 1, 1], [-4, -2, 9]):
        _check_against_reference(S4613, _table(S4613), gens)


def test_make_semimodule_over_the_naturals():
    # <1> has conductor 0: every generator other than the least is redundant
    S1 = make_semigroup([1])
    for gens in ([0], [0, 1], [5, 3, 9], [-2, 0, 7, -2]):
        _check_against_reference(S1, 0, gens)
        d = make_semimodule(S1, gens)
        assert (d.min_generators, d.conductor, d.delta, d.gap_list) == ((0,), 0, 0, ())


def _modules_4613():
    gaps = S4613.gaps
    for k in range(len(gaps) + 1):
        for extra in combinations(gaps, k):
            yield make_semimodule(S4613, [0, *extra])


def test_predicates_match_normalized_module_definitions_over_4613():
    modules = list(_modules_4613())
    fixed, selfdual = _check_predicates(modules)
    assert 0 < fixed < len(modules) and 0 < selfdual < len(modules)
