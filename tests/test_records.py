"""The result records are NamedTuples: fixed fields, immutable, and a repr
of the `Name(field=value, ...)` form the CLI's text output relies on."""

import pytest

from gapsym import NumericalSemigroup, TwoGen
from gapsym.fundamental import compare_counts
from gapsym.semimodule import lattice_path, make_semimodule, picard_orbit
from gapsym.survey import run_survey
from gapsym.symmetry import card_formulas, gap_conductor_partition, gap_partition
from gapsym.wilf import wilf_gap_formula


def _module():
    return make_semimodule(NumericalSemigroup([5, 7]), [0, 9, 11, 8])


# (build, fields in order, pinned repr)
RECORDS = {
    "WilfReport": (
        lambda: wilf_gap_formula(TwoGen(5, 7), 1, 1),
        ("w", "ed", "delta", "conductor", "min_branch"),
        "WilfReport(w=-3, ed=2, delta=8, conductor=19, min_branch='beta_term')",
    ),
    "LeanCouple": (
        lambda: lattice_path(_module()),
        ("es_turns", "se_turns", "h_values", "max_syzygy", "max_point"),
        "LeanCouple(es_turns=((1, 3), (2, 2), (4, 1)), se_turns=((0, 3), (1, 2), (2, 1), (4, 0)), "
        "h_values=(14, 16, 18, 15), max_syzygy=18, max_point=(2, 1))",
    ),
    "PicardOrbit": (
        lambda: picard_orbit(_module()),
        ("states", "cycle_length"),
        "PicardOrbit(states=((0, 9, 11, 8), (0, 2, 4, 1), (0, 2, 4, 8), (0, 2, 11, 8), (0, 9, 11, 8)), "
        "cycle_length=4)",
    ),
    "GapPartition": (
        lambda: gap_partition(TwoGen(3, 5)),
        ("t_u", "s_alpha_t_u", "ssg", "t_r", "s_beta_t_r"),
        "GapPartition(t_u=frozenset({(1, 2)}), s_alpha_t_u=frozenset({(1, 1)}), ssg=frozenset(), "
        "t_r=frozenset({(3, 1)}), s_beta_t_r=frozenset({(2, 1)}))",
    ),
    "CardinalityReport": (
        lambda: card_formulas(TwoGen(7, 8)),
        ("ssg_formula", "ssg_direct", "t_u_formula", "t_u_corrected", "t_u_direct", "t_r_formula",
         "t_r_direct", "sg_side", "agree", "warnings"),
        "CardinalityReport(ssg_formula=3, ssg_direct=3, t_u_formula=3, t_u_corrected=6, t_u_direct=6, "
        "t_r_formula=3, t_r_direct=3, sg_side='T_r', agree=False, "
        "warnings=('upper-triangle sum 3 != direct count 6 (odd alpha)',))",
    ),
    "GapClass": (
        lambda: gap_conductor_partition(NumericalSemigroup([3, 5]))[0],
        ("conductor", "members", "pairs", "self_symmetric"),
        "GapClass(conductor=3, members=(1, 4), pairs=((1, 4),), self_symmetric=None)",
    ),
    "CountComparison": (
        lambda: compare_counts(TwoGen(2, 5)),
        ("sg_ssg", "fg", "inequality_holds", "alpha2_fg_formula"),
        "CountComparison(sg_ssg=2, fg=1, inequality_holds=False, alpha2_fg_formula=1)",
    ),
    "CheckResult": (
        lambda: run_survey(5, ["uff"])[0],
        ("name", "pairs", "violations", "warnings"),
        "CheckResult(name='uff', pairs=5, violations=[], warnings=['(2,5) excluded (alpha=2)'])",
    ),
}


@pytest.mark.parametrize("name", RECORDS)
def test_result_records_are_immutable_tuples_with_fixed_fields(name):
    build, fields, text = RECORDS[name]
    record = build()
    assert type(record).__name__ == name
    assert type(record)._fields == fields
    assert repr(record) == text
    for field in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # each field reads back by name, and a record equals and unpacks as the
    # plain tuple of its fields in order
    values = tuple(getattr(record, field) for field in fields)
    assert record == values
    assert [*record] == [*values]
    assert record._replace(**{fields[0]: None}) == (None, *values[1:])
