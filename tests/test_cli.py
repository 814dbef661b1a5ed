import contextlib
import dataclasses
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gapsym import InconsistentInput, TwoGen, fundamental, survey, symmetry, wilf
from gapsym.cli import main
from gapsym.render import LAYERS, render_svg
from gapsym.survey import CHECK_NAMES, run_survey


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


def _drop_first_cell(triangle):
    return lambda T: triangle(T) - set(sorted(triangle(T))[:1])


@pytest.mark.parametrize(
    "check, owner, name, fake",
    [
        ("partition", symmetry, "triangle_u", _drop_first_cell(symmetry.triangle_u)),
        ("reconstruct", symmetry, "triangle_u", _drop_first_cell(symmetry.triangle_u)),
        ("equifix", wilf, "is_fixed_point", lambda d: True),
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


def test_survey_lets_other_errors_propagate(monkeypatch):
    def broken(T):
        raise RuntimeError("broken")

    monkeypatch.setattr(symmetry, "triangle_u", broken)
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


def _in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _fresh_process(argv):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from gapsym.cli import main; sys.exit(main(sys.argv[1:]))",
         *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    return proc.returncode, proc.stdout, proc.stderr


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
    monkeypatch.setattr(wilf, "is_fixed_point", lambda d: True)
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
    tu = _count_calls(monkeypatch, symmetry, "triangle_u")
    tr = _count_calls(monkeypatch, symmetry, "triangle_r")
    run_survey(8)
    assert (len(tu), len(tr)) == (14, 14)
    tu.clear()
    tr.clear()
    run_survey(8, ["uff"])
    assert (len(tu), len(tr)) == (0, 0)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_analyze_computes_fundamental_gaps_once(monkeypatch, capsys, fmt):
    calls = _count_calls(monkeypatch, fundamental, "fundamental_gaps")
    assert main(["analyze", "--alpha", "7", "--beta", "8", "--format", fmt]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_fundamental_computes_fundamental_gaps_once(monkeypatch, capsys, fmt):
    calls = _count_calls(monkeypatch, fundamental, "fundamental_gaps")
    assert main(["fundamental", "--gens", "7,8", "--format", fmt]) == 0
    capsys.readouterr()
    assert len(calls) == 1


def test_survey_builds_a_failing_partition_once(monkeypatch):
    # a pair whose partition fails keeps the error and raises it again to
    # each check that reads it; the findings are the ones filed when every
    # such check rebuilt the partition
    monkeypatch.setattr(symmetry, "triangle_u", _drop_first_cell(symmetry.triangle_u))
    calls = _count_calls(monkeypatch, symmetry, "gap_partition")
    results = run_survey(8)
    assert len(calls) == 14
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
    # the usual mismatch violations, and no module [0, g] is built for them
    real = symmetry.gap_partition

    def skewed(T):
        part = real(T)
        if (T.alpha, T.beta) != (3, 5):
            return part
        return dataclasses.replace(part, t_u=part.t_u | {(3, 1)}, t_r=part.t_r | {(1, 3)})

    monkeypatch.setattr(survey, "gap_partition", skewed)
    (res,) = run_survey(7, ["conductor-sym"])
    assert res.violations == ["(3,5) column 3 conductor mismatch", "(3,5) row 3 conductor mismatch"]
    assert res.warnings == []
