import pytest

from gapsym import (
    NotAGap,
    TwoGen,
    make_semigroup,
    make_semimodule,
    wilf_gap,
    wilf_gap_formula,
    wilf_grid,
    zero_wilf_equivalences,
    zero_wilf_survey_general,
)
from gapsym.oracle import enumerate_semigroups_by_genus
from gapsym.semimodule import _gap_rows
from gapsym.survey import coprime_pairs
from gapsym.wilf import _wilf_number


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


def test_double_in_semigroup_forces_nonpositive_wilf_on_any_base():
    # the proof is in wilf_gap; every gap up to genus 14
    doubles = 0
    for S in enumerate_semigroups_by_genus(14):
        for g, _, w, _ in _gap_rows(S, S.gaps):
            if S.contains(2 * g):
                assert w <= 0, (S.generators, g)
                doubles += 1
    assert doubles == 28400
    # the converse fails: W([0, 1]) = 0 over <4, 5, 6, 7>, but 2 is a gap
    S = make_semigroup([4, 5, 6, 7])
    assert wilf_gap(S, 1) == 0 and not S.contains(2)


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


def test_wilf_grid_matches_the_walk_and_the_per_cell_formula():
    # wilf_grid reads each row's W as a range a(2b - alpha) for a <= k and
    # b(2a - beta) after, k = min(n, b*beta // alpha); check its edge rows:
    # alpha = 2b (step 0, every even alpha), k >= n (the second range empty)
    # and k < n.  k = 0 never occurs, since beta > alpha gives
    # b*beta // alpha >= b >= 1.
    edges = {"alpha = 2b": set(), "k >= n": set(), "k < n": set()}
    for alpha, beta in coprime_pairs(60):
        T = TwoGen(alpha, beta)
        want = tuple((a, b, v, _wilf_number(T, a, b)) for a, b, v in T.walk())
        assert wilf_grid(T) == want, (alpha, beta)
        for b in range(1, alpha):
            n, k = T.row_length(b), min(T.row_length(b), b * beta // alpha)
            assert k >= 1
            if alpha == 2 * b:
                edges["alpha = 2b"].add((alpha, beta))
            edges["k >= n" if k >= n else "k < n"].add((alpha, beta))
    assert {(2, 3), (4, 5), (8, 13), (58, 59)} <= edges["alpha = 2b"]
    assert {(2, 3), (3, 4), (7, 8)} <= edges["k >= n"]
    assert {(3, 5), (8, 13), (59, 60)} <= edges["k < n"]
