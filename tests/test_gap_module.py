"""The module [0, g] of a gap: the per-gap checks, which read the row scan
`_gap_rows`/`_gap_flags` and build no module, against their definitions on
the module `make_semimodule(S, [0, g])`, and the rows and flags themselves
against that module and its predicates."""

import pytest

from gapsym import (
    GammaSemimodule,
    GapClass,
    NumericalSemigroup,
    RedChecks,
    ZeroWilfChecks,
    gap_conductor_partition,
    is_fixed_point,
    is_selfdual,
    is_symmetric_sm,
    make_semimodule,
    red_equivalence,
    rectangle_cells,
    survey,
    symmetry,
    syzygy,
    wilf,
    wilf_gap,
    zero_wilf_equivalences,
    zero_wilf_survey_general,
)
from gapsym.oracle import enumerate_semigroups_by_genus
from gapsym.semigroup import _bits
from gapsym.semimodule import _dual_mask, _gap_flags, _gap_rows
from gapsym.survey import _gap_scans, coprime_pairs, run_survey

BASES = ([4, 6, 13], [6, 9, 20], [10, 14, 27], [7, 11, 13, 17])


def _semigroups():
    """Every coprime pair with beta <= 30, then the four larger bases."""
    return [NumericalSemigroup(p) for p in coprime_pairs(30)] + [NumericalSemigroup(b) for b in BASES]


def _zero_wilf_by_definition(T, g, ref):
    a, b = T.cell_of(g)
    cd = ref.conductor
    gaps = set(ref.gap_list)
    return ZeroWilfChecks(
        wilf_zero=(ref.ed * ref.delta - ref.conductor == 0),
        on_half_line=(T.alpha == 2 * b or T.beta == 2 * a),
        fixed_point=(syzygy(ref).min_generators == ref.min_generators),
        selfdual=(make_semimodule(ref.base, _bits(_dual_mask(ref))).min_generators == ref.min_generators),
        # below the conductor, x is a member exactly when cd - 1 - x is not
        symmetric=({cd - 1 - x for x in gaps} == set(range(cd)) - gaps),
    )


def test_gap_module_and_per_gap_checks_match_make_semimodule():
    for S in _semigroups():
        T = S.two_gen() if len(S.generators) == 2 else None
        rect = rectangle_cells(T) if T is not None else None
        # the row the survey's scan table must hold for each gap cell
        want = {}
        for g in S.gaps:
            ref = make_semimodule(S, [0, g])
            assert wilf_gap(S, g) == ref.ed * ref.delta - ref.conductor
            if T is None:
                continue
            assert zero_wilf_equivalences(T, g) == _zero_wilf_by_definition(T, g, ref)
            assert red_equivalence(T, g) == RedChecks(
                double_in_semigroup=S.contains(2 * g),
                in_rectangle=(T.cell_of(g) in rect),
                wilf_nonpositive=(ref.ed * ref.delta - ref.conductor <= 0),
            )
            want[T.cell_of(g)] = (g, ref.conductor, ref.wilf, is_fixed_point(ref), is_selfdual(ref),
                                   is_symmetric_sm(ref), S.contains(2 * g))
        if T is not None:
            table = _gap_scans(T)
            assert table == want
            assert list(table) == [(a, b) for a, b, _ in T.walk()]


def _reference_gap_conductor_partition(S):
    # gap_conductor_partition written with a Wilf table beside the classes
    # and a second loop that buckets each class by |W|; the classes must not
    # change
    by_conductor = {}
    wilf = {}
    for g in S.gaps:
        d = make_semimodule(S, [0, g])
        by_conductor.setdefault(d.conductor, []).append(g)
        wilf[g] = d.wilf
    out = []
    for c in sorted(by_conductor):
        members = sorted(by_conductor[c])
        buckets = {}
        for g in members:
            buckets.setdefault(abs(wilf[g]), []).append(g)
        pairs = []
        unpaired = []
        for w in sorted(buckets):
            group = buckets[w]
            if len(group) == 2:
                pairs.append((min(group), max(group)))
            else:
                unpaired.extend(group)
        self_symmetric = None
        if len(members) == 1:
            self_symmetric = members[0]
        elif len(unpaired) == 1 and wilf[unpaired[0]] == 0:
            self_symmetric = unpaired[0]
        out.append(
            GapClass(
                conductor=c,
                members=tuple(members),
                pairs=tuple(pairs),
                self_symmetric=self_symmetric,
            )
        )
    return out


def _rows_from_make_semimodule(S, gaps):
    # `_gap_rows` read off modules built by make_semimodule
    for g in gaps:
        ref = make_semimodule(S, [0, g])
        yield g, ref.conductor, ref.wilf, ~ref._mask


def test_gap_classes_match_a_build_on_make_semimodule(monkeypatch):
    sgs = _semigroups() + [NumericalSemigroup([60, 67]), NumericalSemigroup([100, 113, 127])]
    direct = [(gap_conductor_partition(S), zero_wilf_survey_general(S)) for S in sgs]
    assert [classes for classes, _ in direct] == [_reference_gap_conductor_partition(S) for S in sgs]
    for mod in (symmetry, wilf):
        monkeypatch.setattr(mod, "_gap_rows", _rows_from_make_semimodule)
    assert direct == [(gap_conductor_partition(S), zero_wilf_survey_general(S)) for S in sgs]


def test_gap_rows_and_flags_match_the_module_predicates():
    # every coprime pair with beta <= 30, the larger bases and every
    # semigroup up to genus 14; gaps are fed in descending order, which the
    # rows must keep
    for S in _semigroups() + enumerate_semigroups_by_genus(14):
        got = list(_gap_flags(S, _gap_rows(S, S.gaps[::-1])))
        modules = [make_semimodule(S, [0, g]) for g in S.gaps[::-1]]
        want = [(g, d.conductor, d.wilf, is_fixed_point(d), is_selfdual(d),
                 is_symmetric_sm(d), S.contains(2 * g)) for g, d in zip(S.gaps[::-1], modules)]
        assert got == want, S
        # the mask of each row is the module's gap mask
        assert [mask for *_, mask in _gap_rows(S, S.gaps[::-1])] == [~d._mask for d in modules]


def test_gap_scans_build_no_module(monkeypatch):
    built = []
    init = GammaSemimodule.__init__

    def counted(self, base, min_generators, *args):
        built.append(tuple(min_generators))
        init(self, base, min_generators, *args)

    monkeypatch.setattr(GammaSemimodule, "__init__", counted)
    for gens in ([60, 67], [100, 113, 127], [7, 11, 13, 17]):
        S = NumericalSemigroup(gens)
        gap_conductor_partition(S)
        zero_wilf_survey_general(S)
        if len(gens) == 2:
            T = S.two_gen()
            _gap_scans(T)
            # the per-gap checks read the same rows
            for g in S.gaps:
                zero_wilf_equivalences(T, g)
                red_equivalence(T, g)
                wilf_gap(S, g)
    assert built == []
    # the count sees a build
    make_semimodule(S, [0, S.gaps[0]])
    assert built == [(0, S.gaps[0])]


def _survey_builds(monkeypatch, checks):
    """The pair of every scan table `run_survey(20, checks)` builds, in build
    order."""
    built = []

    def counted(T):
        built.append((T.alpha, T.beta))
        return _gap_scans(T)

    monkeypatch.setattr(survey, "_gap_scans", counted)
    results = run_survey(20, checks)
    assert all(not r.violations for r in results)
    return built


def test_survey_builds_each_gap_module_once(monkeypatch):
    # equifix, red and conductor-sym share one scan table per pair, which
    # reads [0, g] once per gap
    assert _survey_builds(monkeypatch, ("all",)) == list(coprime_pairs(20))


@pytest.mark.parametrize("check", ["partition", "reconstruct", "uff", "cardinality"])
def test_survey_checks_without_modules_build_none(monkeypatch, check):
    assert _survey_builds(monkeypatch, (check,)) == []


@pytest.mark.parametrize("check", ["equifix", "red", "conductor-sym"])
def test_survey_check_alone_builds_every_gap_module_once(monkeypatch, check):
    # the table holds every gap's row, so conductor-sym alone also scans the
    # self-symmetric cells' modules, which it never reads
    assert _survey_builds(monkeypatch, (check,)) == list(coprime_pairs(20))


def test_check_records_are_immutable_tuples_with_fixed_fields():
    zw = ZeroWilfChecks(symmetric=False, selfdual=False, fixed_point=True, on_half_line=False, wilf_zero=False)
    red = RedChecks(wilf_nonpositive=True, in_rectangle=False, double_in_semigroup=True)
    assert repr(zw) == (
        "ZeroWilfChecks(wilf_zero=False, on_half_line=False, fixed_point=True, selfdual=False, symmetric=False)"
    )
    assert repr(red) == "RedChecks(double_in_semigroup=True, in_rectangle=False, wilf_nonpositive=True)"
    for record in (zw, red):
        for name in (*type(record)._fields, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, True)
        assert not record.all_agree()
    # each field reads back by name, and a record equals the plain tuple of
    # its flags in field order
    flags = (False, False, True, False, False)
    assert (zw.wilf_zero, zw.on_half_line, zw.fixed_point, zw.selfdual, zw.symmetric) == zw == flags
    assert (red.double_in_semigroup, red.in_rectangle, red.wilf_nonpositive) == red == (True, False, True)
    assert ZeroWilfChecks(*[True] * 5).all_agree() and RedChecks(False, False, False).all_agree()
