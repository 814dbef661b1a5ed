import random
from functools import reduce
from itertools import combinations
from operator import or_

import pytest

from gapsym import (
    EmptyInput,
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
from gapsym.oracle import brute_dual, enumerate_lean_sets, enumerate_semigroups_by_genus
from gapsym.semigroup import _bits, _minimal
from gapsym.semimodule import (
    PICARD_MAX_STEPS,
    _dual_mask,
    _syzygy_mask,
)
from gapsym.survey import coprime_pairs

S57 = make_semigroup([5, 7])
S78 = make_semigroup([7, 8])
S58 = make_semigroup([5, 8])
S4613 = make_semigroup([4, 6, 13])


def test_make_semimodule_keeps_lean_input():
    d = make_semimodule(S57, [0, 9, 11, 8])
    assert d.min_generators == (0, 9, 11, 8)  # ordered along the staircase
    assert d.ed == 4
    # a one-shot iterator: the least generator and the OR loop see the same
    # generators
    assert make_semimodule(S57, iter([0, 9, 11, 8])).min_generators == (0, 9, 11, 8)


def test_make_semimodule_needs_a_generator():
    with pytest.raises(EmptyInput, match="^need at least one generator$"):
        make_semimodule(make_semigroup([3, 5]), [])
    with pytest.raises(EmptyInput, match="^need at least one generator$"):
        make_semimodule(S57, iter([]))


class _ShiftCountingTable(int):
    """A membership int that counts the shifts taken of it."""

    shifts = 0

    def __lshift__(self, n):
        type(self).shifts += 1
        return int(self) << n


def test_make_semimodule_shifts_each_distinct_generator_once():
    S = make_semigroup([400, 401])
    S.two_gen()
    want = make_semimodule(S, [0, 7])
    S._table = _ShiftCountingTable(S._table)
    # 10^5 copies of 7 and three of a member past the conductor
    d = make_semimodule(S, [0, *[7] * 10**5, *[S.conductor + 3] * 3])
    assert (d.min_generators, d._mask, d.cells) == (want.min_generators, want._mask, want.cells)
    # one shift for 0 and one for 7; the member past the conductor takes none
    assert _ShiftCountingTable.shifts == 2


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
    # below 400 every difference is a gap of <400, 401>; 400 itself is not
    S = make_semigroup([400, 401])
    assert is_lean(S, range(400))
    assert not is_lean(S, range(401))
    # random sets, lean or not, against the pairwise definition
    rng = random.Random(19)
    counts = {True: 0, False: 0}
    for S in (S57, S78, S58, S4613):
        for _ in range(200):
            vals = [rng.randrange(-3, S.conductor + 6) for _ in range(rng.randrange(1, 6))]
            want = all(not S.contains(abs(y - x)) for x, y in combinations(set(vals), 2))
            assert is_lean(S, vals) == want, (S, vals)
            counts[want] += 1
    assert min(counts.values()) > 100, counts


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

    # three generators: selfdual without being a fixed point
    d = make_semimodule(make_semigroup([4, 5, 6]), [0, 2, 3])
    assert d.min_generators == (0, 2, 3)
    assert is_selfdual(d) and not is_fixed_point(d)

    with pytest.raises(PrincipalModule):
        is_fixed_point(make_semimodule(S57, [0]))


def test_two_generator_syzygy_is_the_dual_shifted_up():
    # [0, g] over any base: S n (g + S) = g + (S n (S - g)), so the module
    # is a fixed point exactly when it is selfdual; every gap up to genus 14
    gaps = 0
    for S in enumerate_semigroups_by_genus(14):
        for g in S.gaps:
            d = make_semimodule(S, [0, g])
            assert _syzygy_mask(d) == _dual_mask(d) << g, (S.generators, g)
            assert is_fixed_point(d) == is_selfdual(d), (S.generators, g)
            gaps += 1
    assert gaps == 51746


def _assert_selfdual_iff_symmetric(d):
    S = d.base
    selfdual = is_selfdual(d)
    assert selfdual == is_symmetric_sm(d), d
    if selfdual:
        # the translate the proof in is_selfdual names: c(S) - c(D)
        assert _bits(_dual_mask(d))[0] == S.conductor - d.conductor, d
    return selfdual


def test_selfdual_is_symmetric_over_symmetric_bases():
    # [0, g] over every symmetric semigroup up to genus 16 ...
    bases = gaps = selfdual = 0
    for S in enumerate_semigroups_by_genus(16):
        if 2 * S.genus != S.conductor:
            continue
        bases += 1
        for g in S.gaps:
            selfdual += _assert_selfdual_iff_symmetric(make_semimodule(S, [0, g]))
            gaps += 1
    assert (bases, gaps, selfdual) == (402, 5340, 531)
    # ... and every module of a lean set over <alpha, beta>, beta <= 9,
    # which is symmetric
    modules = selfdual = 0
    for alpha, beta in coprime_pairs(9):
        S = make_semigroup([alpha, beta])
        for values in enumerate_lean_sets(S.two_gen()):
            selfdual += _assert_selfdual_iff_symmetric(make_semimodule(S, values))
            modules += 1
    assert (modules, selfdual) == (3208, 270)


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


def test_large_ed_syzygies_and_orbit_cap():
    # the multiples of 7 up to 6993 reduce over <400, 401> to a lean set of
    # 229 generators, whose orbit finds no repeat within the step cap
    S = make_semigroup([400, 401])
    d = make_semimodule(S, list(range(0, 6994, 7)))
    assert d.ed == 229
    union = 0
    for gi, gj in combinations(d.min_generators, 2):
        union |= (S._table << gi) & (S._table << gj)
    assert syzygy_generators(d) == _bits(_minimal(union, S.generators))
    orbit = picard_orbit(d)
    assert len(orbit.states) == PICARD_MAX_STEPS + 1 == 65
    assert orbit.cycle_length is None


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


def test_cells_come_from_the_builder():
    # make_semimodule works out the cells of every module over a
    # two-generator base, () for the principal [0]; asking twice must not
    # change the closed forms.
    for alpha, beta in coprime_pairs(9):
        S = make_semigroup([alpha, beta])
        T = S.two_gen()
        for values in enumerate_lean_sets(T):
            made = make_semimodule(S, values)
            assert made.cells == tuple(T.gap_to_lattice(g) for g in values[1:])
            first = _closed_forms(made)
            assert _closed_forms(made) == first
            assert [(a, b) for a, b, _ in made.lattice_points()] == list(made.cells)
            assert [v for _, _, v in made.lattice_points()] == list(values[1:])


def test_three_generator_base_keeps_the_scan():
    d = make_semimodule(S4613, [0, 11])
    with pytest.raises(NotTwoGenerated):
        lattice_path(d)
    with pytest.raises(NotTwoGenerated):
        d.lattice_points()
    with pytest.raises(NotTwoGenerated):
        lattice_path(GammaSemimodule(S4613, [0, 11], d._mask, None))
    bound = S4613.conductor + 2 * 13 + 11
    assert dual_generators(d) == brute_dual(S4613, [0, 11], bound)[1]
    assert dual_generators(GammaSemimodule(S4613, [0, 11], d._mask, None)) == dual_generators(d)


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
    # the builder's mask is the module its minimal generators generate
    assert d._mask == reduce(or_, (S._table << g for g in d.min_generators))
    # the mask matches the reference below c(S) and is all members above
    low = (1 << len(bits)) - 1
    assert d._mask & low == int(bits[::-1] or "0", 2)
    assert d._mask | low == -1
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
    return make_semimodule(d.base, _bits(_dual_mask(d))).min_generators == d.min_generators


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


def test_make_semimodule_and_predicates_match_references_on_lean_sets(lean_sets_to_12):
    total = fixed = selfdual = 0
    for (alpha, beta), lean_sets in lean_sets_to_12.items():
        S = make_semigroup([alpha, beta])
        table = _table(S)
        modules = [_check_against_reference(S, table, values) for values in lean_sets]
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
    bases = [S57, S78, S58, S4613, make_semigroup([3, 10]), make_semigroup([6, 9, 20]),
             make_semigroup([7, 11, 13, 17])]
    for S in bases:
        top = S.conductor + 2 * S.generators[-1]
        table = _table(S)
        for _ in range(200):
            gens = [rng.randint(-20, top) for _ in range(rng.randint(1, 7))]
            gens += rng.sample(gens, rng.randint(0, len(gens)))
            rng.shuffle(gens)
            _check_against_reference(S, table, gens)
    for gens in ([0, 1], [0, 2, 7], [0, 11], [3, 5], [16, 0, 1, 1], [-4, -2, 9], [0, 100000]):
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
