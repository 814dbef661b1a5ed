import pytest

from gapsym import (
    Ambiguous,
    InconsistentInput,
    OutOfTriangle,
    PartitionViolation,
    TwoGen,
    border_transport,
    card_formulas,
    cell_values,
    compare_counts,
    gap_conductor_partition,
    gap_partition,
    infer_semigroup,
    make_semigroup,
    reconstruct_from_symmetric,
    rectangle_cells,
    reflect_alpha,
    reflect_beta,
    right_border,
    self_symmetric_gaps,
    supersymmetric_gaps,
    translate_tau,
    triangle_r,
    triangle_u,
)
from gapsym import symmetry
from gapsym.fundamental import fundamental_gaps
from gapsym.survey import coprime_pairs
from gapsym.symmetry import (
    _block_counts,
    _full_rows,
    _partition_rows,
    _rows_fg,
    _rows_r,
    _rows_ssg,
    _rows_u,
    _sg_rows,
    _walk_cells,
)

T78 = TwoGen(7, 8)


def test_triangles():
    assert cell_values(T78, triangle_u(T78)) == [1, 2, 3, 9, 10, 17]
    assert cell_values(T78, triangle_r(T78)) == [5, 6, 13]

    T25 = TwoGen(2, 5)
    assert triangle_u(T25) == frozenset() and triangle_r(T25) == frozenset()

    T813 = TwoGen(8, 13)
    assert len(triangle_u(T813)) == 8
    assert len(triangle_r(T813)) == 10


@pytest.mark.parametrize("cell, value", [((0, 3), 32), ((3, 0), 35), ((6, 2), -2), ((4, 4), -4), ((8, 0), 0)])
def test_cell_values_rejects_cells_off_the_lattice(cell, value):
    with pytest.raises(OutOfTriangle, match=rf"^\({cell[0]}, {cell[1]}\) has value {value}$"):
        cell_values(T78, {(1, 1), cell, (4, 3)})


def test_supersymmetric_side():
    side, sg = supersymmetric_gaps(T78)
    assert side == "T_r" and cell_values(T78, sg) == [5, 6, 13]

    side, _ = supersymmetric_gaps(TwoGen(8, 13))
    assert side == "T_u"

    T35 = TwoGen(3, 5)
    side, sg = supersymmetric_gaps(T35)
    assert side == "T_u" and cell_values(T35, sg) == [2]  # tie resolved upward


def test_self_symmetric():
    ssg = self_symmetric_gaps(T78)
    assert ssg == frozenset({(4, 3), (4, 2), (4, 1)})
    assert cell_values(T78, ssg) == [4, 12, 20]

    assert self_symmetric_gaps(TwoGen(3, 5)) == frozenset()

    T813 = TwoGen(8, 13)
    ssg = self_symmetric_gaps(T813)
    assert cell_values(T813, ssg) == [4, 12, 20, 28, 36, 44]
    assert all(b == 4 for _, b in ssg)


def test_reflections_and_translation():
    assert reflect_alpha(T78, {(1, 6)}) == frozenset({(1, 1)})
    s = reflect_beta(T78, triangle_r(T78))
    assert s == frozenset({(3, 1), (2, 1), (3, 2)})
    assert cell_values(T78, s) == [19, 27, 34]

    cells = frozenset({(2, 3), (5, 1)})
    assert translate_tau(translate_tau(cells, 1), -1) == cells
    assert reflect_alpha(T78, reflect_alpha(T78, cells)) == cells
    assert reflect_beta(T78, reflect_beta(T78, cells)) == cells


def test_right_border():
    rb = right_border(T78, triangle_u(T78))
    assert rb == frozenset({(3, 4), (2, 5), (1, 6)})
    assert right_border(T78, frozenset()) == frozenset()
    # every right-border cell of the upper triangle has the column-top shape
    for a, b in rb:
        j = T78.alpha - b
        assert a == j * T78.beta // T78.alpha


def test_border_transport_law():
    for alpha, beta in coprime_pairs(30):
        T = TwoGen(alpha, beta)
        side, lhs, rhs = border_transport(T)
        assert lhs == rhs, (alpha, beta, side)


def test_gap_partition():
    part = gap_partition(T78)
    assert part.block_sizes() == (6, 6, 3, 3, 3)
    # the smaller triangle is a field of the partition, and with SSG it
    # rebuilds every gap
    assert supersymmetric_gaps(T78) == ("T_r", part.t_r)
    assert reconstruct_from_symmetric(7, 8, part.t_r, "T_r", part.ssg) == list(T78.semigroup().gaps)

    part = gap_partition(TwoGen(2, 7))
    assert part.block_sizes() == (0, 0, 3, 0, 0)
    assert cell_values(TwoGen(2, 7), part.ssg) == [1, 3, 5]

    part = gap_partition(TwoGen(8, 13))
    assert part.block_sizes() == (8, 8, 6, 10, 10)
    assert supersymmetric_gaps(TwoGen(8, 13)) == ("T_u", part.t_u)
    assert sum(part.block_sizes()) == 42


def test_gap_partition_matches_the_cell_set_construction():
    # the interval check (`_partition_rows`) against the cell-set check it
    # replaced: each block built and reflected as cells, the union compared
    # with the whole gap lattice and the reflected union with the rectangle
    for alpha, beta in coprime_pairs(60):
        T = TwoGen(alpha, beta)
        tu, tr = triangle_u(T), triangle_r(T)
        want = (tu, reflect_alpha(T, tu), self_symmetric_gaps(T), tr, reflect_beta(T, tr))
        part = gap_partition(T)
        assert part == want, (alpha, beta)
        lattice = frozenset((a, b) for a, b, _ in T.walk())
        assert frozenset().union(*part) == lattice, (alpha, beta)
        sizes = tuple(sum(last - first + 1 for _, first, last in rows) for rows in _partition_rows(T))
        assert part.block_sizes() == sizes and sum(sizes) == T.genus, (alpha, beta)
        assert part.s_alpha_t_u | part.ssg | part.s_beta_t_r == rectangle_cells(T), (alpha, beta)


def _rows_r_one_column_late(T):
    first = T.beta // 2 + 2
    return ((b, first, T.row_length(b)) for b in range(T.column_height(first), 0, -1))


def _rows_u_one_row_short(T):
    return _full_rows(T, range(T.alpha - 1, T.alpha // 2 + 1, -1))


def _rows_ssg_one_cell_long(T, rows_of=_rows_ssg):
    return ((b, first, last + 1) for b, first, last in rows_of(T))


def _rows_ssg_one_cell_long_then_inverted(T, rows_of=_rows_ssg):
    # each row one cell past the lattice, then an interval of length -1:
    # joined, the row ends where the lattice does, and the lengths still
    # sum to the lattice's count, so only the empty interval gives it away
    for b, first, last in rows_of(T):
        yield b, first, last + 1
        yield b, last + 2, last


def _rows_rect_one_column_short(T):
    return ((b, 1, T.beta // 2 - 1) for b in range(T.alpha // 2, 0, -1))


LATTICE = r"blocks do not partition the gap lattice of TwoGen\(\d+, \d+\)"
RECTANGLE = r"reflected blocks do not tile the rectangle of TwoGen\(\d+, \d+\)"


@pytest.mark.parametrize("name, mutant, message", [
    ("_rows_r", _rows_r_one_column_late, LATTICE),
    ("_rows_u", _rows_u_one_row_short, LATTICE),
    ("_rows_ssg", _rows_ssg_one_cell_long, LATTICE),
    ("_rows_ssg", _rows_ssg_one_cell_long_then_inverted, LATTICE),
    ("_rows_rect", _rows_rect_one_column_short, RECTANGLE),
], ids=["rows_r_late", "rows_u_short", "rows_ssg_long", "rows_ssg_long_then_inverted",
        "rows_rect_short"])
def test_partition_check_catches_each_row_mutant(monkeypatch, name, mutant, message):
    # every pair the mutant changes raises, with the message of the check
    # it breaks; the pairs it leaves unchanged are skipped
    original = getattr(symmetry, name)
    changed = 0
    for alpha, beta in coprime_pairs(30):
        T = TwoGen(alpha, beta)
        if list(mutant(T)) == list(original(T)):
            continue
        changed += 1
        monkeypatch.setattr(symmetry, name, mutant)
        with pytest.raises(PartitionViolation, match=f"^{message}$"):
            gap_partition(T)
        monkeypatch.setattr(symmetry, name, original)
    assert changed >= 100


def test_rectangle_identity():
    for alpha, beta in coprime_pairs(40):
        T = TwoGen(alpha, beta)
        part = gap_partition(T)
        rect = rectangle_cells(T)
        assert part.s_alpha_t_u | part.ssg | part.s_beta_t_r == rect
        S = T.semigroup()
        for a, b in rect:
            assert S.contains(2 * T.value(a, b))


def test_cell_sets_match_lattice_definitions():
    # each set is built from its own rows or columns; compare it with its
    # definition filtered over the whole gap lattice
    for alpha, beta in coprime_pairs(40):
        T = TwoGen(alpha, beta)
        lg = [(a, b) for a, b, _ in T.lattice_gaps()]
        ha, hb = alpha // 2, beta // 2
        pair = (alpha, beta)
        assert triangle_u(T) == {(a, b) for a, b in lg if b > ha}, pair
        assert triangle_r(T) == {(a, b) for a, b in lg if a > hb}, pair
        assert self_symmetric_gaps(T) == {
            (a, b) for a, b in lg if alpha == 2 * b or beta == 2 * a
        }, pair
        assert rectangle_cells(T) == {(a, b) for a, b in lg if a <= hb and b <= ha}, pair
        for b in range(1, alpha):
            n = T.row_length(b)
            assert T.in_lattice(n, b) and not T.in_lattice(n + 1, b), (pair, b)
        for a in range(1, beta):
            h = T.column_height(a)
            assert (h == 0 or T.in_lattice(a, h)) and not T.in_lattice(a, h + 1), (pair, a)


def test_row_intervals_read_each_block_in_walk_order():
    # each block's row intervals (b, first, last), read in order, are its
    # cell set sorted as the walk yields cells (the fundamental cells as the
    # scan finds them), one non-empty interval per row and b descending; the
    # sizes are those `_block_counts` sums
    def walk_order(cells):
        return sorted(cells, key=lambda cell: (-cell[1], cell[0]))

    kinds = set()
    for alpha, beta in coprime_pairs(40):
        T = TwoGen(alpha, beta)
        pair = (alpha, beta)
        blocks = [
            (_rows_u, triangle_u(T)),
            (_rows_r, triangle_r(T)),
            (_rows_ssg, self_symmetric_gaps(T)),
            (_rows_fg, {T.cell_of(g) for g in fundamental_gaps(T.semigroup())}),
        ]
        for rows_of, cells in blocks:
            rows = list(rows_of(T))
            assert all(1 <= first <= last for _, first, last in rows), (pair, rows_of.__name__)
            rows_b = [b for b, _, _ in rows]
            assert rows_b == sorted(set(rows_b), reverse=True), (pair, rows_of.__name__)
            assert list(_walk_cells(rows)) == walk_order(cells), (pair, rows_of.__name__)
        # the smaller triangle, ties to T_u, chosen from the built triangles
        tu, tr = blocks[0][1], blocks[1][1]
        want_side, want = ("T_u", tu) if len(tu) <= len(tr) else ("T_r", tr)
        side, rows = _sg_rows(T)
        assert (side, list(_walk_cells(rows))) == (want_side, walk_order(want)), pair
        assert supersymmetric_gaps(T) == (want_side, want), pair
        assert _block_counts(alpha, beta) == tuple(len(cells) for _, cells in blocks[:3]), pair
        kinds |= {kind for kind, hit in (
            ("alpha 2", alpha == 2), ("alpha 3", alpha == 3),
            ("even alpha > 2", alpha % 2 == 0 and alpha > 2), ("even beta", beta % 2 == 0),
        ) if hit}
    assert kinds == {"alpha 2", "alpha 3", "even alpha > 2", "even beta"}


def test_reconstruct_78():
    side, sg = supersymmetric_gaps(T78)
    got = reconstruct_from_symmetric(7, 8, sg, side, self_symmetric_gaps(T78))
    assert got == [1, 2, 3, 4, 5, 6, 9, 10, 11, 12, 13, 17, 18, 19, 20, 25, 26, 27, 33, 34, 41]


def test_reconstruct_35_and_25():
    got = reconstruct_from_symmetric(3, 5, {(1, 2)}, "T_u", set())
    assert got == [1, 2, 4, 7]
    got = reconstruct_from_symmetric(2, 5, set(), "T_u", {(1, 1), (2, 1)})
    assert got == [1, 3]


def test_reconstruct_works_from_either_side_on_ties():
    T = TwoGen(3, 5)
    got = reconstruct_from_symmetric(3, 5, triangle_r(T), "T_r", set())
    assert got == [1, 2, 4, 7]


def test_reconstruct_validation():
    with pytest.raises(InconsistentInput):
        reconstruct_from_symmetric(7, 8, {(9, 9)}, "T_r", set())
    with pytest.raises(InconsistentInput):
        reconstruct_from_symmetric(7, 8, {(5, 1)}, "T_r", {(4, 1)})
    with pytest.raises(InconsistentInput):
        reconstruct_from_symmetric(7, 8, triangle_r(T78), "middle", set())


def test_reconstruct_round_trip_sweep():
    for alpha, beta in coprime_pairs(40):
        T = TwoGen(alpha, beta)
        side, sg = supersymmetric_gaps(T)
        got = reconstruct_from_symmetric(alpha, beta, sg, side, self_symmetric_gaps(T))
        assert got == list(T.semigroup().gaps), (alpha, beta)


def test_infer_semigroup():
    assert infer_semigroup({13, 6, 5, 4, 12, 20}, 20) == (7, 8)
    assert infer_semigroup(set(), 10) is None
    with pytest.raises(Ambiguous) as exc:
        infer_semigroup({2}, 10)
    assert exc.value.matches == [(3, 4), (3, 5), (3, 7)]


def _symmetric_values(alpha, beta):
    T = TwoGen(alpha, beta)
    _, sg = supersymmetric_gaps(T)
    return frozenset(cell_values(T, sg)) | frozenset(cell_values(T, self_symmetric_gaps(T)))


SYMMETRIC_VALUES = {p: _symmetric_values(*p) for p in sorted(coprime_pairs(60))}


def test_infer_semigroup_degenerate_targets():
    for target in ({0}, {-1}, set(), {-3, 0}):
        for cap in (1, 2, 3, 10):
            assert infer_semigroup(target, cap) is None


def test_infer_search_bound():
    for (alpha, beta), values in SYMMETRIC_VALUES.items():
        assert values, (alpha, beta)
        top = max(values)
        if alpha == 2:
            assert top == beta - 2, (alpha, beta)
        else:
            assert (alpha - 2) * (beta - 2) <= 2 * top + 4, (alpha, beta)
        assert beta <= 4 * top, (alpha, beta)


def _reference_infer(target, cap):
    """Every pair up to beta = 60 whose symmetric values equal the target."""
    found = [p for p, v in SYMMETRIC_VALUES.items() if p[1] <= cap and v == target]
    if not found:
        return None
    return found[0] if len(found) == 1 else found


def _infer_or_matches(target, cap):
    try:
        return infer_semigroup(target, cap)
    except Ambiguous as exc:
        return exc.matches


def test_infer_semigroup_matches_exhaustive_search():
    sources = sorted({v for v in SYMMETRIC_VALUES.values() if 4 * max(v) <= 60}, key=sorted)
    targets = set(sources)
    for values in sources:
        targets.update(values - {v} for v in values)
        targets.update(values | {v} for v in range(1, max(values)) if v not in values)
    for target in sorted(targets, key=sorted):
        for cap in (4 * max(target, default=0), 10, 20):
            assert _infer_or_matches(target, cap) == _reference_infer(target, cap), (
                sorted(target), cap)


def test_infer_semigroup_large_round_trips():
    for pair, top in (((9, 14), 49), ((31, 64), 928)):
        values = _symmetric_values(*pair)
        assert max(values) == top
        assert infer_semigroup(values, 4 * top) == pair


def _filtered_enumeration(top, cap):
    """Every pair the search bound allows, kept when top is a block corner
    value: the candidate list before the corner equations were solved."""
    from math import gcd

    out = [(2, top + 2)] if top % 2 and top + 2 <= cap else []
    bound = 2 * top + 4
    alpha = 3
    while (alpha - 2) * (alpha - 1) <= bound:
        for beta in range(alpha + 1, min(cap, 2 + bound // (alpha - 2)) + 1):
            if gcd(alpha, beta) == 1:
                T = TwoGen(alpha, beta)
                corners = (T.value(1, alpha // 2), T.value(1, alpha // 2 + 1),
                           T.value(beta // 2, 1), T.value(beta // 2 + 1, 1))
                if top in corners:
                    out.append((alpha, beta))
        alpha += 1
    return out


def test_candidate_pairs_match_filtered_enumeration():
    from gapsym.symmetry import _candidate_pairs

    for top in range(1, 400):
        for cap in (4 * top, 3 * top, 10, 20):
            assert list(_candidate_pairs(top, cap)) == _filtered_enumeration(top, cap), (top, cap)


def test_candidate_pairs_are_few():
    from math import isqrt

    from gapsym.symmetry import _candidate_pairs

    top = 10**6
    pairs = list(_candidate_pairs(top, 4 * top))
    assert pairs == sorted(set(pairs))
    assert len(pairs) <= 6 * isqrt(2 * top + 4)
    assert infer_semigroup({top}, 4 * top) is None


def test_infer_count_filter_drops_candidates_before_any_cell_is_mapped(monkeypatch):
    # the count filter changes only cost, so a work count pins it: no
    # candidate for {100000} holds exactly one symmetric cell, so none builds
    # a TwoGen, maps the value or builds a triangle; without the filter 23
    # candidates do all three
    calls = {"TwoGen": 0, "cell_of": 0, "supersymmetric_gaps": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(TwoGen, "__init__", counted("TwoGen", TwoGen.__init__))
    monkeypatch.setattr(TwoGen, "cell_of", counted("cell_of", TwoGen.cell_of))
    monkeypatch.setattr(symmetry, "supersymmetric_gaps",
                        counted("supersymmetric_gaps", symmetry.supersymmetric_gaps))
    assert infer_semigroup({100000}, 400000) is None
    assert calls == {"TwoGen": 0, "cell_of": 0, "supersymmetric_gaps": 0}

    # on <7, 8>'s values, only the candidates that pass the count filter
    # build a TwoGen
    values = {13, 6, 5, 4, 12, 20}
    candidates = list(symmetry._candidate_pairs(max(values), 20))
    passing = [p for p in candidates if symmetry._symmetric_count(*p) == len(values)]
    assert (7, 8) in passing and len(passing) < len(candidates)
    assert infer_semigroup(values, 20) == (7, 8)
    assert calls["TwoGen"] == len(passing)


def test_symmetric_count_matches_cells():
    from gapsym.symmetry import _symmetric_count

    for (alpha, beta), values in SYMMETRIC_VALUES.items():
        T = TwoGen(alpha, beta)
        assert _symmetric_count(alpha, beta) == len(values), (alpha, beta)
        _, sg = supersymmetric_gaps(T)
        assert compare_counts(T).sg_ssg == len(sg | self_symmetric_gaps(T)), (alpha, beta)


def test_card_formulas():
    rep = card_formulas(TwoGen(8, 13))
    assert rep.ssg_formula == rep.ssg_direct == 6
    assert rep.sg_side == "T_u"
    assert rep.t_u_formula == rep.t_u_direct == 8
    assert rep.t_r_formula == rep.t_r_direct == 10
    assert rep.agree

    rep = card_formulas(T78)
    assert rep.ssg_formula == 3
    assert rep.t_u_formula == 3 and rep.t_u_direct == 6
    assert not rep.agree and rep.warnings

    assert card_formulas(TwoGen(3, 5)).ssg_formula == 0


def test_card_direct_vs_brute_cells():
    # direct triangle counts against a from-scratch double loop; the only
    # warning left is the printed upper-triangle sum's, 678 of them to beta 60
    warned = 0
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
        rep = card_formulas(T)
        assert rep.t_u_direct == tu and rep.t_r_direct == tr
        assert rep.ssg_formula == rep.ssg_direct
        assert rep.t_r_formula == rep.t_r_direct
        assert len(rep.warnings) == (rep.t_u_formula != tu) == (not rep.agree)
        warned += len(rep.warnings)
    assert warned == 678


def test_corrected_upper_triangle_sum():
    # the printed sum stops at alpha//2 - 1 and undercounts at odd alpha;
    # running j up to ceil(alpha/2) - 1 counts T_u exactly
    pairs = list(coprime_pairs(60))
    assert len(pairs) == 1042
    for alpha, beta in pairs:
        T = TwoGen(alpha, beta)
        corrected = sum(j * beta // alpha for j in range(1, -(-alpha // 2)))
        assert corrected == _block_counts(alpha, beta)[0] == len(triangle_u(T)), (alpha, beta)
        assert card_formulas(T).t_u_corrected == corrected, (alpha, beta)


def test_gap_conductor_partition_78():
    classes = {c.conductor: c for c in gap_conductor_partition(make_semigroup([7, 8]))}
    c35 = classes[35]
    assert c35.members == (1, 9, 17, 25, 33, 41)
    assert set(c35.pairs) == {(1, 41), (9, 33), (17, 25)}
    assert c35.self_symmetric is None

    c18 = classes[18]
    assert c18.members == (4,)
    assert c18.self_symmetric == 4

    c34 = classes[34]
    assert c34.members == (6, 13, 20, 27, 34)
    assert c34.self_symmetric == 20  # the unpaired zero-Wilf member


def test_gap_conductor_partition_4613():
    classes = {c.conductor: c.members for c in gap_conductor_partition(make_semigroup([4, 6, 13]))}
    assert classes == {4: (1,), 6: (3,), 8: (5,), 10: (7, 11), 12: (2, 9, 15)}
    by_c = {c.conductor: c for c in gap_conductor_partition(make_semigroup([4, 6, 13]))}
    assert by_c[12].pairs == ((2, 9),)
    assert by_c[12].self_symmetric is None  # unpaired member has nonzero Wilf number
    assert by_c[10].pairs == ()


def test_gap_conductor_partition_23():
    classes = gap_conductor_partition(make_semigroup([2, 3]))
    assert len(classes) == 1
    assert classes[0].members == (1,)
    assert classes[0].self_symmetric == 1


def test_reflection_pair_consistency_sweep():
    # inside each class, every pair is an alpha- or beta-reflection pair and
    # an odd class leaves exactly one unpaired member, of Wilf number zero
    from gapsym import wilf_gap_formula

    for alpha, beta in coprime_pairs(40):
        T = TwoGen(alpha, beta)
        S = T.semigroup()
        for cls in gap_conductor_partition(S):
            paired = set()
            for g1, g2 in cls.pairs:
                a1, b1 = T.gap_to_lattice(g1)
                refl = {
                    T.value(a1, alpha - b1) if T.in_lattice(a1, alpha - b1) else None,
                    T.value(beta - a1, b1) if T.in_lattice(beta - a1, b1) else None,
                }
                assert g2 in refl, (alpha, beta, g1, g2)
                paired |= {g1, g2}
            left = [g for g in cls.members if g not in paired]
            if len(cls.members) % 2 == 1:
                assert len(left) == 1
                a, b = T.gap_to_lattice(left[0])
                assert wilf_gap_formula(T, a, b).w == 0
            else:
                assert not left
