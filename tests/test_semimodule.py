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
        e = T.gap_to_lattice(g)
        expected = sorted({T.product - e.b * T.beta, T.product - e.a * T.alpha})
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
            assert [(e.a, e.b) for e in made.lattice_points()] == list(made.cells)
            assert [e.value for e in made.lattice_points()] == list(values[1:])


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
