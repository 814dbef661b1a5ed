import contextlib
import errno
import io
import json
import operator
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from gapsym import InconsistentInput, TwoGen, fundamental, semimodule, survey, symmetry
from gapsym.cli import _json_text, main
from gapsym.render import LAYERS, render_svg
from gapsym.survey import CHECK_NAMES, coprime_pairs, run_survey


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_analyze_json(capsys):
    code, rep = run_json(capsys, ["analyze", "--alpha", "7", "--beta", "8"])
    assert code == 0
    assert rep["conductor"] == 42 and rep["genus"] == 21
    assert rep["sg"]["side"] == "T_r"
    assert rep["sg"]["values"] == [5, 6, 13]
    assert rep["ssg"]["values"] == [4, 12, 20]
    assert rep["partition"] == {
        "t_u": 6, "s_alpha_t_u": 6, "ssg": 3, "t_r": 3, "s_beta_t_r": 3,
    }
    assert rep["counts"] == {"sg_ssg": 6, "fg": 10}
    assert len(rep["lattice"]) == 21
    assert rep["lattice"][0] == {"a": 1, "b": 6, "value": 1, "wilf": 5}


def test_analyze_non_coprime_exits_2(capsys):
    assert main(["analyze", "--alpha", "4", "--beta", "6"]) == 2
    assert "coprime" in capsys.readouterr().err


def test_analyze_svg_deterministic(tmp_path):
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    assert main(["analyze", "--alpha", "8", "--beta", "13", "--format", "svg", "--out", str(p1)]) == 0
    assert main(["analyze", "--alpha", "8", "--beta", "13", "--format", "svg", "--out", str(p2)]) == 0
    data = p1.read_bytes()
    assert data == p2.read_bytes()
    text = data.decode()
    assert text.startswith("<svg")
    assert ">25<" in text and ">-9<" in text  # cell label and its Wilf number


def test_analyze_svg_layers(tmp_path):
    p = tmp_path / "bare.svg"
    assert main([
        "analyze", "--alpha", "7", "--beta", "8",
        "--format", "svg", "--layers", "grid,values", "--out", str(p),
    ]) == 0
    text = p.read_text()
    assert ">41<" in text and "fill-opacity" not in text


def test_analyze_json_deterministic(capsys):
    main(["analyze", "--alpha", "7", "--beta", "8"])
    first = capsys.readouterr().out
    main(["analyze", "--alpha", "7", "--beta", "8"])
    assert capsys.readouterr().out == first


# 2-, 3- and 4-generator bases for the per-generator-set JSON commands
JSON_GEN_SETS = [
    [2, 3], [3, 5], [5, 7], [7, 8], [2, 9], [4, 9], [6, 11], [8, 13], [10, 21],
    [3, 5, 7], [4, 6, 9], [6, 9, 10], [7, 9, 11], [9, 10, 11], [11, 13, 17], [12, 17, 19],
    [4, 5, 6, 7], [5, 6, 7, 8], [6, 7, 8, 9], [5, 8, 11, 14], [8, 10, 13, 17], [10, 11, 12, 13],
]


def test_json_output_is_the_stdlib_indent_2_text(tmp_path):
    # the stdlib round trip is the reference: the bytes of every JSON
    # command are those of json.dumps(report, indent=2)
    runs = [["analyze", "--alpha", str(a), "--beta", str(b)] for a, b in coprime_pairs(44)]
    for gens in JSON_GEN_SETS:
        g = ",".join(map(str, gens))
        runs += [["classes", "--gens", g], ["fundamental", "--gens", g]]
        # a principal module (its null fields) and [0, m - 1], m - 1 a gap
        runs += [["semimodule", "--gens", g, "--module", m] for m in ("0", f"0,{gens[0] - 1}")]
    outputs = {}
    for argv in runs:
        code, out, err = _in_process(argv)
        assert (code, err) == (0, ""), argv
        outputs[tuple(argv)] = out
    for a, b in coprime_pairs(15):
        rep = json.loads(outputs[("analyze", "--alpha", str(a), "--beta", str(b))])
        values = {"sg_values": rep["sg"]["values"], "ssg_values": rep["ssg"]["values"]}
        plain = _write(tmp_path, f"{a}_{b}.json", {"alpha": a, "beta": b, **values})
        bare = _write(tmp_path, f"{a}_{b}_bare.json", values)
        for argv in (["reconstruct", "--input", plain], ["reconstruct", "--input", bare, "--infer"]):
            code, out, _ = _in_process(argv)
            # pairs that share their symmetric values make --infer exit 4
            assert code in (0, 4), argv
            if code == 0:
                outputs[tuple(argv)] = out
    assert sum(argv[0] == "reconstruct" for argv in outputs) > 100
    for argv, out in outputs.items():
        assert out == json.dumps(json.loads(out), indent=2) + "\n", argv


_JSON_STR = st.text(st.characters() | st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfff'))
_JSON_LEAF = (
    st.none() | st.booleans() | st.integers() | st.integers(-(10**300), 10**300) | _JSON_STR
)
_JSON_VALUE = st.recursive(
    _JSON_LEAF,
    lambda inner: st.lists(inner, max_size=5) | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(_JSON_STR, inner, max_size=5),
    max_leaves=15,
)


@settings(max_examples=150, derandomize=True)
@given(_JSON_VALUE)
@example({"": [], "{}": {}, "()": (), "nested": [[], {}, ()]})
@example([None, True, False, {"none": None, "true": True, "false": False}])
@example({'"q\\\x00\t\x1f\u00e9\u20ac\U0001f600\ud800': ['"q\\\x00\t\x1f\u00e9\u20ac\U0001f600\ud800']})
@example([-(10**300), 10**300, -1, 0, 2**64, (1, (2, ()))])
# lists of records, which take the general path, and of int rows, which
# `_int_rows_text` writes when their lengths and value types allow, and leaves
# to the general path otherwise
@example({"lattice": [{"a": 1, "b": 6, "value": 1, "wilf": 5}, {"a": 2, "b": 6, "value": 0, "wilf": -3}]})
@example([({"a": -(10**300), "b": 10**300},), ({"a": 0, "b": 2**64}, {"a": -1, "b": 1})])
@example([[{"a": 1, "b": True}, {"a": 2, "b": False}], [{"a": True}, {"a": 1}], [{"a": 1}, {"a": None}]])
@example([{"%d": 1, '"%s%%': 2, "\u00e9\u20ac%": 3}, {"%d": 4, '"%s%%': 5, "\u00e9\u20ac%": 6}])
@example([[{"a": 1, "b": 2}, {"b": 3, "a": 4}], [{"a": 1}, {"a": 1, "b": 2}], [{"a": 1, "b": 2}, {"a": 1}]])
@example([[{}, {}], ({}, {"a": 1}), [{"a": 1}, {}], [{"a": 1}, ["a"]], [{"a": 1}, "a"]])
@example({"cells": [(1, 6), [2, 6]], "big": ((10**300,), [-(10**300)]), "nested": [[[1, 2]], [[3, 4]]]})
@example([[[1, 2], [3]], [[1, True], [2, 3]], [[1], [None]], [[], []], [[1], []], [(1, 2), {"a": 1}], [[1], "a"]])
# flat lists that start with an int, written by one template when every item
# is an int and by the general path otherwise
@example({"gaps": [1, 2, 10**300], "t": (-1, 0), "one": [7], "b": [1, True], "n": [0, None], "s": [1, "%d"]})
def test_json_text_matches_json_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, indent=2)


@pytest.mark.parametrize("obj", [
    1.5, {1, 2}, {1: "int key"}, [{"ok": [0.0]}], {"a": {True: 1}},
    [{"a": 1}, {"a": 1.5}], ({"a": 2.0},), [{1: 1}, {1: 2}], [(1, 2), [3, 1.5]], [1, 1.5],
])
def test_json_text_rejects_other_types(obj):
    with pytest.raises(TypeError):
        _json_text(obj)


def test_semimodule_json(capsys):
    code, rep = run_json(
        capsys, ["semimodule", "--gens", "5,7", "--module", "0,9,11,8"]
    )
    assert code == 0
    assert rep["lean"] is True
    assert rep["min_generators"] == [0, 9, 11, 8]
    assert rep["syzygy_generators"] == [14, 16, 18, 15]
    assert rep["conductor"] == 7 and rep["delta"] == 2 and rep["ed"] == 4
    assert rep["wilf"] == 4 * 2 - 7 == 1


def test_semimodule_table_row(capsys):
    code, rep = run_json(
        capsys, ["semimodule", "--gens", "4,6,13", "--module", "0,15"]
    )
    assert code == 0
    assert rep["wilf"] == -2
    assert rep["syzygy_generators"] == [19, 21, 28]


def test_semimodule_counterexample_flags(capsys):
    code, rep = run_json(
        capsys, ["semimodule", "--gens", "10,14,27", "--module", "0,9"]
    )
    assert code == 0
    assert rep["wilf"] == 0
    assert rep["fixed_point"] is False
    assert rep["symmetric"] is False


def test_semimodule_principal(capsys):
    code, rep = run_json(capsys, ["semimodule", "--gens", "7,8", "--module", "7,14"])
    assert code == 0
    assert rep["min_generators"] == [0]
    assert rep["syzygy_generators"] is None
    assert rep["fixed_point"] is None
    assert rep["orbit_cycle_length"] is None


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def test_reconstruct_with_pair(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {
        "alpha": 7, "beta": 8,
        "sg_values": [13, 6, 5], "sg_side": "T_r", "ssg_values": [4, 12, 20],
    })
    code, rep = run_json(capsys, ["reconstruct", "--input", path])
    assert code == 0
    assert rep["alpha"] == 7 and rep["beta"] == 8 and rep["inferred"] is False
    assert len(rep["gaps"]) == 21


def test_reconstruct_cells_without_side(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {
        "alpha": 7, "beta": 8,
        "sg_cells": [[5, 1], [6, 1], [5, 2]], "ssg_values": [4, 12, 20],
    })
    code, rep = run_json(capsys, ["reconstruct", "--input", path])
    assert code == 0
    assert rep["gaps"][-1] == 41


def test_reconstruct_infer(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {
        "sg_values": [13, 6, 5], "ssg_values": [4, 12, 20],
    })
    code, rep = run_json(
        capsys, ["reconstruct", "--input", path, "--infer", "--max-beta", "20"]
    )
    assert code == 0
    assert (rep["alpha"], rep["beta"], rep["inferred"]) == (7, 8, True)


def test_reconstruct_malformed_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    assert main(["reconstruct", "--input", str(bad)]) == 3

    path = _write(tmp_path, "keys.json", {"alpha": 7, "beta": 8, "sg_values": [], "ssg_values": [], "bogus": 1})
    assert main(["reconstruct", "--input", path]) == 3

    path = _write(tmp_path, "both.json", {
        "alpha": 7, "beta": 8,
        "sg_values": [5], "sg_cells": [[5, 2]], "ssg_values": [],
    })
    assert main(["reconstruct", "--input", path]) == 3
    capsys.readouterr()

    # inputs that json.load rejects with an error other than JSONDecodeError:
    # bytes that are not UTF-8, an integer past the int-string digit limit
    # (also under --infer) and nesting deeper than the recursion limit
    (tmp_path / "latin1.json").write_bytes(b'\xff\xfe{"alpha": 7}')
    big = "1" * 5000
    (tmp_path / "big.json").write_text(
        f'{{"alpha": 7, "beta": 8, "sg_values": [{big}], "ssg_values": []}}')
    (tmp_path / "big_infer.json").write_text(f'{{"sg_values": [{big}], "ssg_values": []}}')
    (tmp_path / "deep.json").write_text("[" * 100_000)
    for name, extra in [("latin1.json", []), ("big.json", []), ("big_infer.json", ["--infer"]),
                        ("deep.json", [])]:
        path = str(tmp_path / name)
        assert main(["reconstruct", "--input", path, *extra]) == 3, name
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot parse {path}: ") and err.count("\n") == 1, name


RECONSTRUCT_78 = {
    "alpha": 7, "beta": 8,
    "sg_values": [13, 6, 5], "sg_side": "T_r", "ssg_values": [4, 12, 20],
}


@pytest.mark.parametrize("key, value, message", [
    ("alpha", True, "alpha must be an integer"),
    ("beta", False, "beta must be an integer"),
    ("sg_cells", [[5, 1], [True, 1], [5, 2]], "sg_cells must be a list of [a, b] integer pairs"),
    ("ssg_cells", [[4, 1], [4, 2], [4, False]], "ssg_cells must be a list of [a, b] integer pairs"),
    ("sg_values", [13, True, 5], "sg_values must be a list of integers"),
    ("ssg_values", [4, 12, False], "ssg_values must be a list of integers"),
])
def test_reconstruct_rejects_booleans_exits_3(tmp_path, capsys, key, value, message):
    # JSON true/false load as bool, a subclass of int
    payload = dict(RECONSTRUCT_78)
    payload.pop(key.replace("_cells", "_values"), None)
    payload[key] = value
    assert main(["reconstruct", "--input", _write(tmp_path, "in.json", payload)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("payload, message", [
    # the blocks total the genus, 21, and do not overlap, but the reflected
    # complement puts (5, 3), (6, 3) and (7, 3) off the gap lattice of <7, 8>
    ({"alpha": 7, "beta": 8, "sg_cells": [[1, 5], [1, 6], [2, 5]], "sg_side": "T_u",
      "ssg_cells": [[4, 1], [4, 2], [4, 3]]},
     "reconstruction puts 3 of its cells off the gap lattice"),
    # the blocks total the genus, 3, but the complement {(2, 1)} of <3, 4>
    # is its own reflection
    ({"alpha": 3, "beta": 4, "sg_cells": [], "sg_side": "T_u", "ssg_cells": [[1, 1]]},
     "reconstructed blocks overlap: 3 cells cover 2"),
])
def test_reconstruct_names_the_failed_final_check(tmp_path, capsys, payload, message):
    assert main(["reconstruct", "--input", _write(tmp_path, "in.json", payload)]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("payload, flags, message", [
    ([RECONSTRUCT_78], [], "top-level JSON value must be an object"),
    ({**RECONSTRUCT_78, "sg_side": "T_x"}, [], 'sg_side must be "T_u" or "T_r"'),
    ({"sg_cells": [[1, 1]], "ssg_cells": []}, ["--infer"], "inference needs sg_values/ssg_values"),
    ({"sg_values": [], "ssg_values": []}, ["--infer"], "inference needs sg_values/ssg_values"),
    ({"alpha": 7, "beta": 8, "sg_cells": [[1, 1]], "ssg_values": []}, [],
     "cells match neither triangle; supply sg_side"),
], ids=["list", "sg_side", "cells_only", "empty_values", "neither_triangle"])
def test_reconstruct_input_errors_exit_3(tmp_path, capsys, payload, flags, message):
    assert main(["reconstruct", "--input", _write(tmp_path, "in.json", payload), *flags]) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("key, value", [("sg_values", [13, 6, 7]), ("ssg_values", [4, 12, 42])])
def test_reconstruct_non_gap_value_exits_3(tmp_path, capsys, key, value):
    # 7 is a generator of <7, 8> and 42 its conductor: neither is a gap
    payload = dict(RECONSTRUCT_78, **{key: value})
    assert main(["reconstruct", "--input", _write(tmp_path, "in.json", payload)]) == 3
    assert capsys.readouterr().err == f"error: {value[-1]} is not a gap of <7, 8>\n"


def test_reconstruct_missing_pair_without_infer_exits_3(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"sg_values": [13, 6, 5], "ssg_values": [4, 12, 20]})
    assert main(["reconstruct", "--input", path]) == 3
    capsys.readouterr()


def test_reconstruct_ambiguous_exits_4(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"sg_values": [2], "ssg_values": []})
    assert main(["reconstruct", "--input", path, "--infer", "--max-beta", "10"]) == 4
    capsys.readouterr()


def test_survey_small(capsys):
    assert main(["survey", "--max-beta", "12", "--checks", "partition,reconstruct"]) == 0
    out = capsys.readouterr().out
    assert "partition: pairs=" in out and "violations=0" in out


def test_survey_uff_flags_alpha_2(capsys):
    assert main(["survey", "--max-beta", "8", "--checks", "uff"]) == 0
    out = capsys.readouterr().out
    assert "excluded (alpha=2)" in out


def test_survey_unknown_check(capsys):
    assert main(["survey", "--max-beta", "8", "--checks", "nonsense"]) == 3
    capsys.readouterr()


def test_library_rejects_unknown_check_and_layer_names(capsys):
    # the CLI prints the library's message unchanged
    cases = [
        (lambda: run_survey(6, ["nope"]), ["survey", "--max-beta", "6", "--checks", "nope"],
         f"unknown checks ['nope']; choose from {CHECK_NAMES + ('all',)}"),
        (lambda: render_svg(TwoGen(3, 5), ["nope"]),
         ["analyze", "--alpha", "3", "--beta", "5", "--format", "svg", "--layers", "nope"],
         f"unknown layers ['nope']; choose from {LAYERS}"),
    ]
    for call, argv, message in cases:
        with pytest.raises(InconsistentInput) as exc:
            call()
        assert str(exc.value) == message
        assert main(argv) == 3
        assert capsys.readouterr().err == f"error: {message}\n"


def _drop_first_cell(rows_of):
    """A row-interval helper whose first interval, if any, starts one cell later."""
    def fake(T):
        rows = list(rows_of(T))
        if rows:
            b, first, last = rows[0]
            rows[0] = (b, first + 1, last)
        return rows
    return fake


# positions of the flags in a scan-table row (g, conductor, wilf, flags...)
FIXED_POINT, SELFDUAL, SYMMETRIC, DOUBLE = 3, 4, 5, 6


def _scans_with(i, flag):
    """The survey's scan table with field i of each row set to flag(field)."""
    # the original, read before a test patches survey._gap_scans with this
    scans = survey._gap_scans
    return lambda T: {cell: row[:i] + (flag(row[i]),) + row[i + 1:]
                      for cell, row in scans(T).items()}


@pytest.mark.parametrize(
    "check, owner, name, fake",
    [
        ("partition", symmetry, "_rows_u", _drop_first_cell(symmetry._rows_u)),
        ("reconstruct", symmetry, "_rows_u", _drop_first_cell(symmetry._rows_u)),
        # each scanned flag flipped in every row of the table
        pytest.param("equifix", survey, "_gap_scans", _scans_with(FIXED_POINT, operator.not_),
                     id="equifix-gapsym.survey-_gap_scans-fixed_point"),
        pytest.param("equifix", survey, "_gap_scans", _scans_with(SELFDUAL, operator.not_),
                     id="equifix-gapsym.survey-_gap_scans-selfdual"),
        pytest.param("equifix", survey, "_gap_scans", _scans_with(SYMMETRIC, operator.not_),
                     id="equifix-gapsym.survey-_gap_scans-symmetric"),
        pytest.param("red", survey, "_gap_scans", _scans_with(DOUBLE, operator.not_),
                     id="red-gapsym.survey-_gap_scans-double"),
        ("cardinality", survey, "card_formulas",
         lambda T: symmetry.card_formulas(T)._replace(t_u_corrected=-1)),
        ("uff", survey, "_fundamental_count", lambda T: -1),
    ],
)
def test_survey_violation_exits_1(monkeypatch, capsys, check, owner, name, fake):
    # partition and reconstruct fail by raising inside the library; the
    # error is that pair's violation and the sweep still covers every pair
    monkeypatch.setattr(owner, name, fake)
    assert main(["survey", "--max-beta", "8", "--checks", check]) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"{check}: pairs=14 ")
    assert "\n  VIOLATION (" in out


def _ssg_formula_off_by_one(T):
    rep = symmetry.card_formulas(T)
    return rep._replace(ssg_formula=rep.ssg_formula + 1)


@pytest.mark.parametrize(
    "check, owner, name, fake, message",
    [
        ("partition", survey, "_partition_rows",
         lambda T: ([], *symmetry._partition_rows(T)[1:]),
         r"block sizes miss the genus"),
        # the partition check reads the rectangle only through _partition_rows,
        # which raises when the reflected blocks miss a rectangle cell; the
        # fake rectangle lacks (1, 1)
        ("partition", symmetry, "_rows_rect",
         lambda T, rect=symmetry._rows_rect: [(b, first + (b == 1), last) for b, first, last in rect(T)],
         r"reflected blocks do not tile the rectangle of TwoGen\(\d+, \d+\)"),
        ("reconstruct", survey, "reconstruct_from_symmetric", lambda *args: [],
         r"reconstruction differs"),
        ("uff", survey, "compare_counts",
         lambda T: fundamental.compare_counts(T)._replace(inequality_holds=False),
         r"\|SG u SSG\|=\d+ > \|FG\|=\d+"),
        ("cardinality", survey, "card_formulas", _ssg_formula_off_by_one,
         r"SSG formula \d+ != \d+"),
    ],
    ids=["block_sizes", "rectangle", "reconstruction", "inequality", "ssg_formula"],
)
def test_survey_files_each_violation_message(monkeypatch, capsys, check, owner, name, fake,
                                             message):
    monkeypatch.setattr(owner, name, fake)
    assert main(["survey", "--max-beta", "8", "--checks", check]) == 1
    out = capsys.readouterr().out
    assert re.search(rf"\n  VIOLATION \(\d+,\d+\) {message}\n", out), out


def test_survey_text_counts_the_violations_it_cuts(monkeypatch, capsys):
    # text output lists the first 20 violations of a check and counts the rest
    findings = [("violations", f"finding {i}") for i in range(25)] + [("warnings", "w")]
    monkeypatch.setitem(survey._CHECKS, "partition", lambda T, blocks, modules: iter(findings))
    assert main(["survey", "--max-beta", "3", "--checks", "partition"]) == 1
    assert capsys.readouterr().out == "".join(
        ["partition: pairs=1 violations=25 warnings=1\n"]
        + [f"  VIOLATION (2,3) finding {i}\n" for i in range(20)]
        + ["  ... and 5 more violations\n", "  warning: (2,3) w\n"]
    )


def test_survey_lets_other_errors_propagate(monkeypatch):
    def broken(T):
        raise RuntimeError("broken")

    monkeypatch.setattr(symmetry, "_rows_u", broken)
    with pytest.raises(RuntimeError):
        run_survey(8, ["partition"])


def test_classes(capsys):
    code, rep = run_json(capsys, ["classes", "--gens", "7,8"])
    assert code == 0
    c35 = [c for c in rep["classes"] if c["conductor"] == 35][0]
    assert c35["members"] == [1, 9, 17, 25, 33, 41]
    assert sorted(map(tuple, c35["pairs"])) == [(1, 41), (9, 33), (17, 25)]

    code, rep = run_json(capsys, ["classes", "--gens", "2,3"])
    assert code == 0
    assert rep["classes"] == [
        {"conductor": 0, "members": [1], "pairs": [], "self_symmetric": 1}
    ]


def test_fundamental(capsys):
    code, rep = run_json(capsys, ["fundamental", "--gens", "3,5"])
    assert code == 0
    assert rep["fundamental_gaps"] == [4, 7]
    assert rep["divisor_closure"] == [1, 2, 4, 7]
    assert rep["counts"]["fg"] == 2


def test_gens_gcd_error_exit_2(capsys):
    assert main(["classes", "--gens", "4,6"]) == 2
    capsys.readouterr()


def test_semimodule_invalid_module_exit_3(capsys):
    assert main(["semimodule", "--gens", "7,8", "--module=-5,0"]) == 3
    capsys.readouterr()


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--alpha", "7"])
    assert exc.value.code == 2


def test_gens_not_integers_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["classes", "--gens", "4,x"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --gens: expected comma-separated integers, got '4,x'\n")


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv, code="import sys; from gapsym.cli import main; sys.exit(main(sys.argv[1:]))"):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # the result records are NamedTuples, so starting the CLI compiles no
    # dataclass methods and loads none of the modules `dataclasses` needs
    code, out, err = _fresh_process([], (
        "import sys; before = set(sys.modules); import gapsym.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    ))
    assert (code, err) == (0, "")
    loaded = out.split()
    assert "gapsym.cli" in loaded
    assert not {"dataclasses", "inspect"} & set(loaded)


def test_shared_parser_keeps_no_state_between_calls(tmp_path):
    # the values of <5,11>'s symmetric set: found at beta 11, so --max-beta
    # 10 finds nothing (exit 3) and the default cap finds the pair (exit 0)
    path = _write(tmp_path, "in.json", {"sg_values": [3, 4, 9, 14], "ssg_values": []})
    runs = [
        ["reconstruct", "--input", path, "--infer", "--max-beta", "ten"],
        ["reconstruct", "--input", path, "--infer", "--max-beta", "10"],
        ["reconstruct", "--input", path, "--infer"],
    ]
    results = [_in_process(argv) for argv in runs]
    assert [code for code, _, _ in results] == [2, 3, 0]
    assert results == [_fresh_process(argv) for argv in runs]


def test_sieve_limit_boundary():
    from gapsym.cli import MAX_SIEVE_BITS, _check_width
    from gapsym.errors import InconsistentInput

    assert MAX_SIEVE_BITS == 1 << 18
    _check_width([1, MAX_SIEVE_BITS - 2])  # width exactly at the limit
    _check_width([2, (MAX_SIEVE_BITS - 1) // 2])
    _check_width([0, 10**12])  # left to the constructor's own error
    with pytest.raises(InconsistentInput):
        _check_width([1, MAX_SIEVE_BITS - 1])
    with pytest.raises(InconsistentInput):
        _check_width([2, 131073])


def test_sieve_limit_exits_3(tmp_path, capsys):
    # Each input is just over the limit yet cheap to build and to report on,
    # so a missing check shows as a wrong exit code.
    over = str((1 << 18) - 1)  # width (1-1)(max-1) + max + 2 = 2^18 + 1
    argvs = [
        ["analyze", "--alpha", "2", "--beta", "131073"],
        ["analyze", "--alpha", "2", "--beta", "131073", "--format", "svg"],
        ["semimodule", "--gens", "1," + over, "--module", "0"],
        ["classes", "--gens", "1," + over],
        ["fundamental", "--gens", "1," + over],
        ["reconstruct", "--input", _write(tmp_path, "pair.json", {
            "alpha": 2, "beta": 131073, "sg_cells": [], "ssg_cells": [[1, 1]]})],
    ]
    for argv in argvs:
        assert main(argv) == 3, argv
        assert "limit" in capsys.readouterr().err, argv


def test_sieve_limit_applies_to_inferred_pair(tmp_path, capsys):
    # every gap of <2, 131073> is self-symmetric and no other pair has these
    # values; its sieve width is 2^18 + 3
    path = _write(tmp_path, "values.json", {
        "sg_values": [], "ssg_values": list(range(1, 131072, 2))})
    assert main(["reconstruct", "--input", path, "--infer"]) == 3
    assert "limit" in capsys.readouterr().err
    # a value at or above the limit is no gap of any pair within it
    path = _write(tmp_path, "top.json", {"sg_values": [1 << 18], "ssg_values": []})
    assert main(["reconstruct", "--input", path, "--infer"]) == 3
    assert "limit" in capsys.readouterr().err


def test_survey_bound_is_held_to_the_sieve_limit(capsys):
    from gapsym.cli import _check_width

    # <N-1, N> is the widest pair up to N: 512 is the largest bound that fits,
    # and 513 is rejected before any pair is swept
    _check_width([511, 512])
    assert main(["survey", "--max-beta", "513", "--checks", "uff"]) == 3
    assert capsys.readouterr() == (
        "", "error: generators 512..513 need a 262147-bit sieve; the limit is 262144\n")
    # a bound of 1 or less has no pair, so it still runs
    for bound in ("1", "0", "-5"):
        assert main(["survey", "--max-beta", bound, "--checks", "uff"]) == 0
        assert capsys.readouterr() == ("uff: pairs=0 violations=0 warnings=0\n", "")


SURVEY_10_ALL = """\
partition: pairs=22 violations=0 warnings=0
reconstruct: pairs=22 violations=0 warnings=0
equifix: pairs=22 violations=0 warnings=0
red: pairs=22 violations=0 warnings=0
uff: pairs=22 violations=0 warnings=3
  warning: (2,5) excluded (alpha=2)
  warning: (2,7) excluded (alpha=2)
  warning: (2,9) excluded (alpha=2)
cardinality: pairs=22 violations=0 warnings=13
  warning: (3,4) upper-triangle sum 0 != direct count 1 (odd alpha)
  warning: (3,5) upper-triangle sum 0 != direct count 1 (odd alpha)
  warning: (5,6) upper-triangle sum 1 != direct count 3 (odd alpha)
  warning: (3,7) upper-triangle sum 0 != direct count 2 (odd alpha)
  warning: (5,7) upper-triangle sum 1 != direct count 3 (odd alpha)
  warning: (3,8) upper-triangle sum 0 != direct count 2 (odd alpha)
  warning: (5,8) upper-triangle sum 1 != direct count 4 (odd alpha)
  warning: (7,8) upper-triangle sum 3 != direct count 6 (odd alpha)
  warning: (5,9) upper-triangle sum 1 != direct count 4 (odd alpha)
  warning: (7,9) upper-triangle sum 3 != direct count 6 (odd alpha)
  ... and 3 more warnings
conductor-sym: pairs=22 violations=0 warnings=0
"""


def test_survey_all_output_is_pinned(capsys):
    assert main(["survey", "--max-beta", "10", "--checks", "all"]) == 0
    assert capsys.readouterr().out == SURVEY_10_ALL


def test_survey_labels_each_violation_with_its_pair(monkeypatch, capsys):
    monkeypatch.setattr(survey, "_gap_scans", _scans_with(FIXED_POINT, lambda flag: True))
    assert main(["survey", "--max-beta", "5", "--checks", "equifix"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == (
        "  VIOLATION (3,4) gap 1: ZeroWilfChecks(wilf_zero=False, on_half_line=False, "
        "fixed_point=True, selfdual=False, symmetric=False)"
    )


def _every_command(tmp_path):
    path = _write(tmp_path, "in.json", RECONSTRUCT_78)
    runs = [["analyze", "--alpha", "7", "--beta", "8", "--format", f] for f in ("json", "text", "svg")]
    runs.append(["survey", "--max-beta", "8", "--format", "text"])
    for fmt in ("json", "text"):
        runs += [
            ["semimodule", "--gens", "5,7", "--module", "0,9,11,8", "--format", fmt],
            ["reconstruct", "--input", path, "--format", fmt],
            ["classes", "--gens", "7,8", "--format", fmt],
            ["fundamental", "--gens", "3,5", "--format", fmt],
        ]
    return runs


def test_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    for argv in _every_command(tmp_path):
        code = main(argv)
        expected = capsys.readouterr().out
        out = tmp_path / "out.txt"
        assert main(argv + ["--out", str(out)]) == code, argv
        assert capsys.readouterr().out == "", argv
        assert out.read_bytes() == expected.encode(), argv


def test_unwritable_out_exits_2(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    cases = [
        (["analyze", "--alpha", "3", "--beta", "5"], missing, errno.ENOENT),
        (["survey", "--max-beta", "5"], tmp_path, errno.EISDIR),
    ]
    for argv, path, err in cases:
        assert main(argv + ["--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: cannot write {path}: {os.strerror(err)}\n"


@pytest.mark.parametrize("pair, argv", [
    ({"alpha": 5}, ["--infer"]),
    ({"beta": 99}, ["--infer"]),
    ({"beta": 99}, []),
])
def test_reconstruct_rejects_a_lone_alpha_or_beta(tmp_path, capsys, pair, argv):
    payload = {"sg_values": [13, 6, 5], "ssg_values": [4, 12, 20], **pair}
    path = _write(tmp_path, "in.json", payload)
    assert main(["reconstruct", "--input", path, *argv]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: alpha and beta must be given together\n"


def test_reconstruct_max_beta_0_searches_nothing(tmp_path, capsys):
    path = _write(tmp_path, "in.json", {"sg_values": [13, 6, 5], "ssg_values": [4, 12, 20]})
    assert main(["reconstruct", "--input", path, "--infer", "--max-beta", "0"]) == 3
    assert capsys.readouterr().err == "error: no pair up to beta=0 matches [4, 5, 6, 12, 13, 20]\n"


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name in every gapsym module that holds it; returns the list
    the wrapper appends each call's arguments to."""
    fn = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("gapsym") and getattr(mod, name, None) is fn:
            monkeypatch.setattr(mod, name, counted)
    return calls


def test_survey_builds_each_pairs_triangles_once(monkeypatch):
    # the checks read the verified row intervals; no block is built as a
    # cell set
    counts = [_count_calls(monkeypatch, symmetry, name)
              for name in ("_rows_u", "_rows_r", "_partition_rows", "gap_partition")]
    run_survey(8)
    assert [len(calls) for calls in counts] == [14, 14, 14, 0]
    for calls in counts:
        calls.clear()
    run_survey(8, ["uff"])
    assert [len(calls) for calls in counts] == [0, 0, 0, 0]


@pytest.mark.parametrize("checks, reversals", [(["equifix"], 14), (["uff"], 0)])
def test_survey_reverses_one_gap_mask_per_pair(monkeypatch, checks, reversals):
    # the scan table cuts every [0, g] symmetry test from one reversal of
    # the pair's gap mask
    calls = _count_calls(monkeypatch, semimodule, "_reversed")
    run_survey(8, checks)
    assert len(calls) == reversals


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_analyze_computes_fundamental_gaps_once(monkeypatch, capsys, fmt):
    calls = _count_calls(monkeypatch, fundamental, "fundamental_gaps")
    assert main(["analyze", "--alpha", "7", "--beta", "8", "--format", fmt]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_analyze_checks_the_partition_once_on_row_intervals(monkeypatch, capsys):
    # analyze reads the block sizes and cells from the verified intervals;
    # no block is built as a cell set and no size is summed twice
    counts = {name: _count_calls(monkeypatch, symmetry, name)
              for name in ("_partition_rows", "gap_partition", "_block_counts")}
    assert main(["analyze", "--alpha", "60", "--beta", "67", "--format", "json"]) == 0
    capsys.readouterr()
    assert {name: len(calls) for name, calls in counts.items()} == {
        "_partition_rows": 1, "gap_partition": 0, "_block_counts": 0}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_fundamental_computes_fundamental_gaps_once(monkeypatch, capsys, fmt):
    calls = _count_calls(monkeypatch, fundamental, "fundamental_gaps")
    assert main(["fundamental", "--gens", "7,8", "--format", fmt]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_survey_rebuilds_a_failing_partition_for_each_reader(monkeypatch):
    # a pair whose partition builds is built once; a pair whose partition
    # fails keeps no error, so each of the three checks that read it builds
    # it again and files the same violation: 14 pairs plus 11 broken pairs
    # times 2 more readers
    monkeypatch.setattr(symmetry, "_rows_u", _drop_first_cell(symmetry._rows_u))
    calls = _count_calls(monkeypatch, symmetry, "_partition_rows")
    results = run_survey(8)
    assert len(calls) == 36
    broken = [(3, 4), (3, 5), (4, 5), (5, 6), (3, 7), (4, 7), (5, 7), (6, 7), (3, 8), (5, 8), (7, 8)]
    failed = [f"({a},{b}) blocks do not partition the gap lattice of TwoGen({a}, {b})" for a, b in broken]
    odd = [(3, 4, 0, 1), (3, 5, 0, 1), (5, 6, 1, 3), (3, 7, 0, 2), (5, 7, 1, 3), (3, 8, 0, 2), (5, 8, 1, 4),
           (7, 8, 3, 6)]
    undercounts = [f"({a},{b}) upper-triangle sum {s} != direct count {n} (odd alpha)" for a, b, s, n in odd]
    assert [(r.name, r.pairs, r.violations, r.warnings) for r in results] == [
        ("partition", 14, failed, []),
        ("reconstruct", 14, failed, []),
        ("equifix", 14, [], []),
        ("red", 14, [], []),
        ("uff", 14, [], ["(2,5) excluded (alpha=2)", "(2,7) excluded (alpha=2)"]),
        ("cardinality", 14, [], undercounts),
        ("conductor-sym", 14, failed, []),
    ]


def test_conductor_sym_files_off_lattice_cells_as_mismatches(monkeypatch):
    # a partition of <3,5> whose T_u holds (3, 1), mirrored to (3, 2) off the
    # lattice, and whose T_r holds (1, 3), itself off the lattice: both are
    # the usual mismatch violations, and the scan table holds no row for them
    real = symmetry._partition_rows

    def skewed(T):
        t_u, s_alpha_t_u, ssg, t_r, s_beta_t_r = real(T)
        if (T.alpha, T.beta) != (3, 5):
            return t_u, s_alpha_t_u, ssg, t_r, s_beta_t_r
        return t_u + [(1, 3, 3)], s_alpha_t_u, ssg, t_r + [(3, 1, 1)], s_beta_t_r

    monkeypatch.setattr(survey, "_partition_rows", skewed)
    (res,) = run_survey(7, ["conductor-sym"])
    assert res.violations == ["(3,5) column 3 conductor mismatch", "(3,5) row 3 conductor mismatch"]
    assert res.warnings == []
