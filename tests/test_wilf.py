import pytest

from gapsym import (
    NotAGap,
    TwoGen,
    make_semigroup,
    make_semimodule,
    wilf_gap,
    wilf_gap_formula,
    zero_wilf_equivalences,
    zero_wilf_survey_general,
)


def test_wilf_semimodule():
    d = make_semimodule(make_semigroup([5, 8]), [0, 4, 6, 7])
    assert (d.ed, d.delta, d.conductor, d.wilf) == (4, 1, 4, 0)

    d = make_semimodule(make_semigroup([4, 6, 13]), [0, 15])
    assert d.wilf == -2

    d = make_semimodule(make_semigroup([7, 8]), [0])
    assert (d.ed, d.delta, d.conductor, d.wilf) == (1, 21, 42, -21)


def test_wilf_gap():
    assert wilf_gap(make_semigroup([4, 6, 13]), 11) == -2
    assert wilf_gap(make_semigroup([10, 14, 27]), 9) == 0
    assert wilf_gap(make_semigroup([7, 8]), 5) == 4
    with pytest.raises(NotAGap):
        wilf_gap(make_semigroup([7, 8]), 14)


def test_wilf_gap_formula_anchors():
    T = TwoGen(8, 13)
    r = wilf_gap_formula(T, 5, 3)
    assert r.w == -9 and r.min_branch == "alpha_term"
    assert wilf_gap_formula(T, 1, 4).w == 0
    assert wilf_gap_formula(T, 3, 6).w == 12


def test_wilf_gap_formula_report_fields():
    T = TwoGen(5, 7)
    r = wilf_gap_formula(T, 1, 1)  # gap 23
    assert r.ed == 2
    assert r.w == 2 * r.delta - r.conductor
    d = make_semimodule(T.semigroup(), [0, 23])
    assert (r.delta, r.conductor) == (d.delta, d.conductor)


def test_zero_wilf_equivalences():
    checks = zero_wilf_equivalences(TwoGen(7, 8), 12)
    assert checks.all_true() and checks.all_agree()

    checks = zero_wilf_equivalences(TwoGen(7, 8), 5)
    assert checks.all_agree() and not checks.wilf_zero

    assert zero_wilf_equivalences(TwoGen(8, 13), 44).all_true()

    with pytest.raises(NotAGap):
        zero_wilf_equivalences(TwoGen(7, 8), 7)


def test_zero_wilf_survey_general():
    rows = zero_wilf_survey_general(make_semigroup([10, 14, 27]))
    assert (9, 0, False, False, False) in rows

    rows = zero_wilf_survey_general(make_semigroup([10, 14, 29]))
    assert rows and all(fixed for _, _, fixed, _, _ in rows)

    rows = zero_wilf_survey_general(make_semigroup([2, 3]))
    assert rows == [(1, 0, True, True, True)]


def test_formula_matches_direct_small():
    S = make_semigroup([8, 13])
    T = S.two_gen()
    for g in S.gaps:
        a, b = T.gap_to_lattice(g)
        assert wilf_gap_formula(T, a, b).w == wilf_gap(S, g)
