"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s`.  Every comparison is exact
integer equality; sweeps are exhaustive at their stated bounds.
"""

import contextlib
from itertools import combinations

from gapsym import (
    Ambiguous,
    TwoGen,
    card_formulas,
    cell_values,
    compare_counts,
    delta_formula,
    dual_generators,
    fundamental_gaps,
    gap_partition,
    h_determines,
    is_fixed_point,
    is_symmetric_sm,
    lattice_path,
    make_semigroup,
    make_semimodule,
    reconstruct_from_symmetric,
    self_symmetric_gaps,
    sm_conductor_formula,
    supersymmetric_gaps,
    syzygy,
    syzygy_generators,
    wilf_gap,
    wilf_gap_formula,
    wilf_grid,
    zero_wilf_survey_general,
)
from gapsym.cli import main as cli_main
from gapsym.oracle import (
    brute_dual,
    brute_h_determines,
    brute_syzygy,
    enumerate_semigroups_by_genus,
)
from gapsym.survey import coprime_pairs


@contextlib.contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d} FAIL  {desc}")
        raise
    print(f"ACCEPTANCE {num:2d} PASS  {desc}")


# (a, b) -> (gap value, Wilf number) for every cell of <8,13>
GRID_813 = {
    (1, 1): (83, -6), (2, 1): (75, -9), (3, 1): (67, -7), (4, 1): (59, -5),
    (5, 1): (51, -3), (6, 1): (43, -1), (7, 1): (35, 1), (8, 1): (27, 3),
    (9, 1): (19, 5), (10, 1): (11, 7), (11, 1): (3, 9),
    (1, 2): (70, -4), (2, 2): (62, -8), (3, 2): (54, -12), (4, 2): (46, -10),
    (5, 2): (38, -6), (6, 2): (30, -2), (7, 2): (22, 2), (8, 2): (14, 6),
    (9, 2): (6, 10),
    (1, 3): (57, -2), (2, 3): (49, -4), (3, 3): (41, -6), (4, 3): (33, -8),
    (5, 3): (25, -9), (6, 3): (17, -3), (7, 3): (9, 3), (8, 3): (1, 9),
    (1, 4): (44, 0), (2, 4): (36, 0), (3, 4): (28, 0), (4, 4): (20, 0),
    (5, 4): (12, 0), (6, 4): (4, 0),
    (1, 5): (31, 2), (2, 5): (23, 4), (3, 5): (15, 6), (4, 5): (7, 8),
    (1, 6): (18, 4), (2, 6): (10, 8), (3, 6): (2, 12),
    (1, 7): (5, 6),
}

FG_813 = sorted(
    [83, 75, 67, 59, 51, 43, 70, 62, 54, 46, 38, 30, 57, 49, 41, 33, 44, 36, 28, 20]
)

TABLE_4613 = [
    (1, [13, 14], (0, 1), 0),
    (2, [6, 8], (0, 2), 0),
    (3, [13, 16], (0, 3), 0),
    (5, [13, 18], (0, 5), 0),
    (7, [13, 20], (0, 7), 0),
    (9, [13, 22], (0, 9), 0),
    (11, [17, 19, 24], (0, 2, 7), -2),
    (15, [19, 21, 28], (0, 2, 9), -2),
]


def test_criterion_01_symmetric_sets_and_reconstruction_78():
    with criterion(1, "<7,8> symmetric sets, partition blocks, reconstruction"):
        T = TwoGen(7, 8)
        side, sg = supersymmetric_gaps(T)
        assert side == "T_r"
        assert cell_values(T, sg) == [5, 6, 13]
        ssg = self_symmetric_gaps(T)
        assert cell_values(T, ssg) == [4, 12, 20]
        assert gap_partition(T).block_sizes() == (6, 6, 3, 3, 3)
        got = reconstruct_from_symmetric(7, 8, sg, side, ssg)
        assert got == list(T.semigroup().gaps) and len(got) == 21


def test_criterion_02_wilf_grid_813():
    with criterion(2, "<8,13> Wilf grid: all 42 cells match the pinned values"):
        T = TwoGen(8, 13)
        S = T.semigroup()
        assert len(GRID_813) == 42 == T.genus
        grid = wilf_grid(T)
        assert {(a, b): (g, w) for a, b, g, w in grid} == GRID_813
        assert [(a, b) for a, b, _, _ in grid] == [(a, b) for a, b, _ in T.walk()]
        for (a, b), (g, w) in GRID_813.items():
            assert T.lattice_to_gap(a, b) == g
            assert wilf_gap_formula(T, a, b).w == w
            assert wilf_gap(S, g) == w
        for g, w in [(25, -9), (54, -12), (2, 12), (5, 6), (44, 0), (3, 9), (35, 1)]:
            assert wilf_gap(S, g) == w


def test_criterion_03_fundamental_gaps_813():
    with criterion(3, "<8,13> fundamental gaps: region of 20, gap 25 excluded, 14 <= 20"):
        S = make_semigroup([8, 13])
        fg = fundamental_gaps(S)
        assert list(fg) == FG_813 and len(fg) == 20
        assert 25 not in fg
        assert S.contains(2 * 25)
        assert wilf_gap(S, 25) <= 0
        cc = compare_counts(S.two_gen())
        assert cc.sg_ssg == 14 and cc.fg == 20 and cc.inequality_holds


def test_criterion_04_module_57():
    with criterion(4, "<5,7> [0,9,11,8]: syzygies, conductor and delta by both routes"):
        S = make_semigroup([5, 7])
        d = make_semimodule(S, [0, 9, 11, 8])
        assert sorted(lattice_path(d).h_values) == [14, 15, 16, 18]
        assert brute_syzygy(S, [0, 9, 11, 8], 60)[1] == [14, 15, 16, 18]
        assert sm_conductor_formula(d) == 7 == d.conductor
        assert delta_formula(d) == 2 == d.delta


def test_criterion_05_table_4613():
    with criterion(5, "<4,6,13>: all 8 rows (syzygies, normalizations, Wilf numbers)"):
        S = make_semigroup([4, 6, 13])
        assert S.gaps == (1, 2, 3, 5, 7, 9, 11, 15)
        for g, syz, normalized, w in TABLE_4613:
            d = make_semimodule(S, [0, g])
            assert syzygy_generators(d) == syz, g
            assert syzygy(d).min_generators == normalized, g
            assert 2 * d.delta - d.conductor == w, g


def test_criterion_06_zero_wilf_counterexamples():
    with criterion(6, "zero-Wilf counterexamples and the all-fixed-point family"):
        d = make_semimodule(make_semigroup([5, 8]), [0, 4, 6, 7])
        assert 4 * d.delta - d.conductor == 0
        assert not is_fixed_point(d)

        d = make_semimodule(make_semigroup([10, 14, 27]), [0, 9])
        assert 2 * d.delta - d.conductor == 0
        assert not is_fixed_point(d)
        assert not is_symmetric_sm(d)

        rows = zero_wilf_survey_general(make_semigroup([10, 14, 29]))
        assert rows and all(fixed for _, _, fixed, _, _ in rows)


def test_criterion_07_survey_exit_zero():
    with criterion(7, "survey --max-beta 40 --checks all exits 0 (no violations)"):
        assert cli_main(["survey", "--max-beta", "40", "--checks", "all"]) == 0


def test_criterion_08_differential_oracle_suite(lean_sets_to_12):
    with criterion(8, "all lean sets up to 12: closed forms match brute oracles"):
        for (alpha, beta), lean_sets in lean_sets_to_12.items():
            S = make_semigroup([alpha, beta])
            bound = S.conductor + max(beta, 12) + alpha * beta
            for values in lean_sets:
                if len(values) < 2:
                    continue
                d = make_semimodule(S, values)
                couple = lattice_path(d)
                assert sorted(couple.h_values) == brute_syzygy(S, values, bound)[1]
                assert sm_conductor_formula(d) == d.conductor
                assert delta_formula(d) == d.delta
                assert dual_generators(d) == brute_dual(S, values, bound)[1]


def test_criterion_09_small_fg_anchors():
    with criterion(9, "small fundamental-gap anchors and the multiplicity-2 count"):
        from gapsym import triangle_r, triangle_u

        assert fundamental_gaps(make_semigroup([3, 5])) == (4, 7)
        T = TwoGen(3, 5)
        assert (len(triangle_u(T)), len(triangle_r(T))) == (1, 1)
        assert fundamental_gaps(make_semigroup([3, 7])) == (5, 8, 11)
        T37 = TwoGen(3, 7)
        assert (len(triangle_u(T37)), len(triangle_r(T37))) == (2, 1)
        for beta in range(3, 42, 2):
            cc = compare_counts(TwoGen(2, beta))
            assert cc.fg == cc.alpha2_fg_formula == (beta - 1) // 2 - (-(-(beta - 3) // 6))


def test_criterion_10_cardinality_discrepancy_report():
    with criterion(10, "printed-sum discrepancy reported for <7,8>; direct counts exact to 60"):
        rep = card_formulas(TwoGen(7, 8))
        assert rep.t_u_direct == 6 and rep.t_u_formula == 3
        assert rep.agree is False
        assert rep.warnings
        for alpha, beta in coprime_pairs(60):
            T = TwoGen(alpha, beta)
            tu = tr = 0
            for b in range(1, alpha):
                for a in range(1, beta):
                    if alpha * beta - a * alpha - b * beta <= 0:
                        break
                    if b > alpha // 2:
                        tu += 1
                    if a > beta // 2:
                        tr += 1
            r = card_formulas(T)
            assert r.t_u_direct == tu and r.t_r_direct == tr
            assert r.ssg_formula == r.ssg_direct


def test_criterion_11_h_determinacy_agreement():
    with criterion(11, "determinacy criterion matches brute maximality, genus <= 8"):
        cache = {}

        def brute(xs):
            key = frozenset(xs)
            if key not in cache:
                try:
                    cache[key] = brute_h_determines(key, 15)
                except Ambiguous:
                    cache[key] = None
            return cache[key]

        for S in enumerate_semigroups_by_genus(8):
            gaps = S.gaps
            for r in range(len(gaps) + 1):
                for xs in combinations(gaps, r):
                    crit = h_determines(S, xs)
                    if not xs:
                        assert crit == (S.generators == (1,))
                        continue
                    assert crit == (brute(xs) == S), (S.generators, xs)
