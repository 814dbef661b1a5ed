"""Tests of the benchmark itself (not part of the repository's tier-1 run).

    python3 -m pytest -q -p no:cacheprovider perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import reference
import run
import workloads
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
# a short traced prefix per workload keeps the traced tests quick
SHORT_TRACE = {"analyze": 20, "infer": 8, "survey": 3, "oracle": 300}


def _gapsym():
    if str(run.ROOT / "src") not in sys.path:
        sys.path.insert(0, str(run.ROOT / "src"))
    import gapsym
    import gapsym.cli  # noqa: F401

    return gapsym


def _main(capsys, *argv):
    assert run.main(list(argv)) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["run"], json.loads(lines[-1])


def _units(spec_key):
    return {m["name"]: m["unit"] for m in SPEC[spec_key]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_run_prints_every_end_to_end_metric(capsys, name):
    record, result = _main(capsys, "--workload", name, "--seed", "3", "--seconds", "0.05",
                           "--trace", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["failed_ratio"] == {"value": 0.0, "unit": "fraction"}
    assert record["machine"]["cores"] >= 1 and record["ops_run"] == result["attempted"]


@pytest.fixture(scope="module")
def traced_metrics():
    """Per-layer metrics of a short traced prefix of every workload."""
    out = {}
    for name, cls in WORKLOADS.items():
        w = cls()
        ops = w.generate(5)
        w.prepare(ops, _workdir(name))
        gapsym = _gapsym()
        state = w.warm(gapsym)
        metrics, attempted, failed = run.traced(w, gapsym, state, ops[: SHORT_TRACE[name]])
        assert failed == 0 and attempted == 3 * SHORT_TRACE[name]
        out[name] = {k: v for k, (v, _) in metrics.items()}
        out[name]["_units"] = {k: u for k, (_, u) in metrics.items()}
    yield out
    shutil.rmtree(run.OUT_DIR / "test-inputs", ignore_errors=True)


def _workdir(name):
    path = run.OUT_DIR / "test-inputs" / name
    path.mkdir(parents=True, exist_ok=True)
    return path


def test_traced_run_prints_every_per_layer_metric(traced_metrics):
    for metrics in traced_metrics.values():
        assert metrics["_units"] == _units("per_layer")


def test_traced_cli_run_prints_per_layer_metrics(capsys, monkeypatch):
    monkeypatch.setattr(workloads.Survey, "trace_ops", 3)
    record, result = _main(capsys, "--workload", "survey", "--seed", "2", "--seconds", "1",
                           "--trace", "1")
    assert result["correct"] and result["attempted"] == 9
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("per_layer")
    # three ops run each B of the band once, and each pair gets all 7 checks
    assert result["metrics"]["survey.pair_checks"]["value"] == 7 * sum(
        len(reference.coprime_pairs(b)) for b in workloads.Survey.BAND)
    assert (run.OUT_DIR / "spans-survey-seed2.tsv").is_file()


def test_predicted_zero_counts(traced_metrics):
    for name, m in traced_metrics.items():
        if name != "oracle":
            assert m["oracle.self_s"] == m["oracle.lean_sets"] == 0, name
            assert m["oracle.brute_syzygy.self_s"] == m["oracle.brute_dual.self_s"] == 0, name
        if name != "analyze":
            assert m["render.self_s"] == m["render.bytes"] == 0, name
        if name != "infer":
            assert m["symmetry.infer.pairs_tried"] == 0, name
    assert traced_metrics["infer"]["semigroup.construct.calls"] == 0
    assert traced_metrics["oracle"]["cli.bytes_out"] == 0
    # and the layers each workload is built on do show up
    assert traced_metrics["analyze"]["render.bytes"] > 0
    assert traced_metrics["oracle"]["oracle.lean_sets"] == SHORT_TRACE["oracle"]
    assert traced_metrics["infer"]["symmetry.infer.pairs_tried"] > 0
    assert traced_metrics["survey"]["survey.pair_checks"] > 0


def _op_output(name, pick):
    w = WORKLOADS[name]()
    ops = w.generate(7)
    w.prepare(ops, _workdir(name))
    gapsym = _gapsym()
    state = w.warm(gapsym)
    op = next(o for o in ops if pick(o))
    output = w.execute(gapsym, state, op)
    assert w.check(op, output)
    return w, op, output


def test_checker_rejects_a_dropped_gap():
    w, op, (rc, out, err) = _op_output(
        "analyze", lambda o: o["cmd"] == "analyze" and o["format"] == "json")
    rep = json.loads(out)
    rep["gaps"] = rep["gaps"][:-1]
    assert not run.safe_check(w, op, (rc, json.dumps(rep), err))
    rep = json.loads(out)
    rep["lattice"].pop()
    assert not run.safe_check(w, op, (rc, json.dumps(rep), err))
    assert not run.safe_check(w, op, (rc, out[: len(out) // 2], err))


def test_checker_rejects_a_dropped_svg_cell_value():
    w, op, (rc, out, err) = _op_output(
        "analyze", lambda o: o["cmd"] == "analyze" and o["format"] == "svg")
    lines = out.splitlines(keepends=True)
    i = next(i for i, line in enumerate(lines) if 'font-size="12"' in line)
    assert not run.safe_check(w, op, (rc, "".join(lines[:i] + lines[i + 1:]), err))


def test_checker_rejects_wrong_fundamental_gaps():
    w, op, (rc, out, err) = _op_output("analyze", lambda o: o["cmd"] == "fundamental")
    rep = json.loads(out)
    rep["fundamental_gaps"] = rep["fundamental_gaps"][1:]
    assert not run.safe_check(w, op, (rc, json.dumps(rep), err))


def test_checker_rejects_wrong_infer_outcomes():
    w, op, (rc, out, err) = _op_output("infer", lambda o: len(o["expect"]) == 1)
    rep = json.loads(out)
    rep["gaps"] = rep["gaps"][1:]
    assert not run.safe_check(w, op, (rc, json.dumps(rep), err))
    assert not run.safe_check(w, op, (3, "", err))
    w, op, (rc, out, err) = _op_output("infer", lambda o: len(o["expect"]) > 1)
    assert rc == 4
    assert not run.safe_check(w, op, (0, out, err))
    assert not run.safe_check(w, op, (rc, out, err.replace(str(tuple(op["source"])), "(99, 100)")))
    w, op, (rc, out, err) = _op_output("infer", lambda o: not o["expect"])
    assert rc == 3
    assert not run.safe_check(w, op, (0, out, err))


def test_checker_rejects_a_survey_violation_and_drift():
    w, op, (rc, out, err) = _op_output("survey", lambda o: True)
    assert not run.safe_check(w, op, (rc, out.replace("violations=0", "violations=1", 1), err))
    assert run.safe_check(w, op, (rc, out, err))
    assert not run.safe_check(w, op, (rc, out + "\n", err))


def test_checker_rejects_an_oracle_mismatch():
    w, op, output = _op_output("oracle", lambda o: True)
    bad = list(output)
    bad[-1] = bad[-1][:-1]
    assert not run.safe_check(w, op, tuple(bad))
    bad = list(output)
    bad[4] += 1
    assert not run.safe_check(w, op, tuple(bad))


class _Counting(workloads.Workload):
    """Ops that return their argument, except that the op "drift" returns a
    different output on every call after its first."""

    def __init__(self):
        self.calls = 0

    def execute(self, gapsym, state, op):
        self.calls += 1
        return op if op != "drift" or self.calls <= 2 else f"drift {self.calls}"

    def check(self, op, output):
        return output == op


class _Setup:
    gapsym = state = None

    def time_again(self):
        return 0.01


def test_a_repeat_that_differs_from_the_checked_output_fails():
    times, setup_times, calibration, attempted, failed = run.run_timed(
        _Counting(), _Setup(), ["same", "drift"], 0.0)
    assert attempted == 2 and failed == 0
    times, _, _, attempted, failed = run.run_timed(_Counting(), _Setup(), ["same", "drift"], 1e-4)
    assert attempted >= 4 and failed == attempted // 2 - 1
    assert all(len(t) >= 2 for t in times)


def test_end_to_end_timings_are_per_op_medians():
    m = run.end_to_end([[0.003, 0.001, 0.002], [0.004], [0.1, 0.02, 0.02]], [0.5, 0.2, 0.3])
    assert m["ops_per_s"] == (3 / (0.002 + 0.004 + 0.02), "1/s")
    assert m["op_ms_p50"] == (4.0, "ms") and m["op_ms_p90"] == (20.0, "ms")
    assert m["setup_s"] == (0.3, "s")


def test_calibration_scales_by_the_reference_speed(monkeypatch):
    readings = iter([2 * run.CAL_REFERENCE_S, 4 * run.CAL_REFERENCE_S])
    monkeypatch.setattr(run.Calibration, "sample", staticmethod(lambda: next(readings)))
    cal = run.Calibration()
    # a stretch between kernel readings of 2x and 4x the reference ran 3x slow
    assert cal.scale() == pytest.approx(1 / 3)
    assert run.calibration_kernel() == run.calibration_kernel() > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_come_from_the_seed_alone(name):
    a, b, c = (WORKLOADS[name]().generate(s) for s in (11, 11, 12))
    assert a == b and a != c


def test_exits_nonzero_without_the_program():
    bare = run.OUT_DIR / "test-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, *SPEC["command"][1:], "--workload", "oracle", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and proc.stdout == ""
