import pytest

from gapsym import (
    NotAGap,
    NotASemigroup,
    TwoGen,
    XNotInGaps,
    compare_counts,
    divisor_closure,
    fundamental_gaps,
    h_determines,
    make_semigroup,
    red_equivalence,
    semigroup_from_fg,
    zero_wilf_equivalences,
)
from gapsym.oracle import enumerate_semigroups_by_genus
from gapsym.survey import coprime_pairs

EXPECTED_FG_813 = sorted(
    [83, 75, 67, 59, 51, 43, 70, 62, 54, 46, 38, 30, 57, 49, 41, 33, 44, 36, 28, 20]
)


def test_fundamental_gaps_small():
    assert fundamental_gaps(make_semigroup([3, 5])).gaps == (4, 7)
    assert fundamental_gaps(make_semigroup([3, 7])).gaps == (5, 8, 11)


def test_fundamental_gaps_813():
    S = make_semigroup([8, 13])
    fg = fundamental_gaps(S)
    assert list(fg.gaps) == EXPECTED_FG_813
    assert len(fg.gaps) == 20
    assert 25 not in fg.gaps
    assert S.contains(2 * 25) and not S.contains(3 * 25)


def test_divisor_closure():
    assert divisor_closure({4, 7}) == {1, 2, 4, 7}
    assert divisor_closure(set()) == set()
    assert divisor_closure({12}) == {1, 2, 3, 4, 6, 12}


def test_semigroup_from_fg():
    assert semigroup_from_fg({4, 7}).generators == (3, 5)
    assert semigroup_from_fg({5, 8, 11}).generators == (3, 7)
    assert semigroup_from_fg({2}).generators == (3, 4, 5)
    assert semigroup_from_fg(set()).generators == (1,)
    with pytest.raises(NotASemigroup):
        semigroup_from_fg({5})  # complement of {1,5} is not closed: 2+3=5


def test_fg_round_trip():
    for S in enumerate_semigroups_by_genus(10):
        if S.frobenius > 60 or S.generators == (1,):
            continue
        assert semigroup_from_fg(set(fundamental_gaps(S).gaps)) == S
    for alpha, beta in coprime_pairs(10):
        S = make_semigroup([alpha, beta])
        if S.frobenius <= 60:
            assert semigroup_from_fg(set(fundamental_gaps(S).gaps)) == S


def test_h_determines():
    S35 = make_semigroup([3, 5])
    assert h_determines(S35, {4, 7})
    assert not h_determines(S35, {7})
    assert h_determines(S35, {1, 2, 4, 7})
    with pytest.raises(XNotInGaps):
        h_determines(S35, {3})


def test_red_equivalence():
    checks = red_equivalence(TwoGen(8, 13), 25)
    assert checks.all_agree() and checks.double_in_semigroup

    checks = red_equivalence(TwoGen(8, 13), 5)
    assert checks.all_agree() and not checks.double_in_semigroup

    checks = red_equivalence(TwoGen(7, 8), 4)
    assert checks.all_agree() and checks.wilf_nonpositive


def test_fg_forces_nonpositive_wilf():
    from gapsym import wilf_gap_formula

    for alpha, beta in coprime_pairs(40):
        T = TwoGen(alpha, beta)
        S = T.semigroup()
        for g in fundamental_gaps(S).gaps:
            a, b = T.gap_to_lattice(g)
            assert wilf_gap_formula(T, a, b).w <= 0


def test_sg_disjoint_from_fg_and_ssg_doubles():
    from gapsym import cell_values, self_symmetric_gaps, supersymmetric_gaps

    for alpha, beta in coprime_pairs(40):
        T = TwoGen(alpha, beta)
        S = T.semigroup()
        fg = set(fundamental_gaps(S).gaps)
        _, sg = supersymmetric_gaps(T)
        assert not (set(cell_values(T, sg)) & fg)
        for v in cell_values(T, self_symmetric_gaps(T)):
            assert S.contains(2 * v)
    # the self-symmetric set is not always inside the fundamental gaps
    S = make_semigroup([8, 13])
    assert 12 not in fundamental_gaps(S).gaps and not S.contains(36)


def test_compare_counts():
    cc = compare_counts(TwoGen(7, 8))
    assert (cc.sg_ssg, cc.fg, cc.inequality_holds) == (6, 10, True)

    cc = compare_counts(TwoGen(8, 13))
    assert (cc.sg_ssg, cc.fg, cc.inequality_holds) == (14, 20, True)

    cc = compare_counts(TwoGen(2, 5))
    assert (cc.sg_ssg, cc.fg, cc.inequality_holds) == (2, 1, False)
    assert cc.alpha2_fg_formula == 1


def test_count_inequality_sweep():
    for alpha, beta in coprime_pairs(40):
        cc = compare_counts(TwoGen(alpha, beta))
        if alpha > 2 or (alpha, beta) == (2, 3):
            assert cc.inequality_holds, (alpha, beta)


def test_alpha2_fg_formula():
    for beta in range(3, 42, 2):
        cc = compare_counts(TwoGen(2, beta))
        assert cc.fg == cc.alpha2_fg_formula, beta


@pytest.mark.parametrize("check", [red_equivalence, zero_wilf_equivalences])
@pytest.mark.parametrize("g", [5, 12, 0, -1])
def test_per_gap_checks_reject_non_gaps(check, g):
    # members (5, 12), 0 and negatives all fail the cell lookup itself
    with pytest.raises(NotAGap) as exc:
        check(TwoGen(5, 7), g)
    assert str(exc.value) == f"{g} is not a gap of <5, 7>"
