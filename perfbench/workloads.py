"""The benchmark's workloads: inputs from a seed, one op, one check.

Each workload makes its op list from `random.Random(seed)` alone, runs one op
against the gapsym package it is handed, and checks the op's output with the
independent arithmetic in `reference.py`.  CLI ops call `gapsym.cli.main` in
this process with stdout and stderr captured, so interpreter start-up is not
part of an op.  An op list is one round of a timed run, which repeats the
round until its time is up.  Every seed's op list holds the same mix of
kinds and input sizes, in a seeded order, so that the figures of different
seeds can be compared.
"""

from __future__ import annotations

import ast
import contextlib
import io
import json
import random
import re
import xml.etree.ElementTree as ET
from functools import reduce
from itertools import combinations
from math import gcd

import reference as R

ALL_LAYERS = "grid,diagonal,values,wilf,triangles,rectangle,sg,ssg,fg"


def run_cli(cli, argv):
    """(exit code, stdout, stderr) of one in-process `gapsym` command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _log_strata(rng, lo, hi, n):
    """n integers in [lo, hi], one drawn from each of n equal log-scale strata,
    so that every op list covers the whole size range, with sizes that differ
    little from one seed to the next."""
    return [round(lo * (hi / lo) ** ((i + rng.random()) / n)) for i in range(n)]


def _coprime_above(rng, alpha, hi):
    while True:
        beta = rng.randint(alpha + 1, hi)
        if gcd(alpha, beta) == 1:
            return beta


def _fg_of(gaps):
    gapset = set(gaps)
    return [g for g in gaps if 2 * g not in gapset and 3 * g not in gapset]


class Workload:
    """Interface shared by the workloads; see the module docstring."""

    name = ""
    # ops run by a traced run, from the start of the list (None: all of
    # them); fixed so that its counts repeat exactly
    trace_ops = None

    def generate(self, seed: int) -> list:
        raise NotImplementedError

    def prepare(self, ops, workdir) -> None:
        """Write whatever input files the ops read (not part of set-up time)."""

    def warm(self, gapsym):
        """Program state every op needs before the first timed op."""
        return None

    def execute(self, gapsym, state, op):
        raise NotImplementedError

    def check(self, op, output) -> bool:
        raise NotImplementedError

    def output_bytes(self, output) -> int:
        _, out, err = output
        return len(out) + len(err)


class Analyze(Workload):
    """One-object CLI requests: analyze (JSON and SVG), fundamental, classes,
    semimodule."""

    name = "analyze"
    trace_ops = 40
    # ops of each kind in the list: 48 + 48 + 24 + 16 + 24 = 160
    JSON, SVG, FUNDAMENTAL, CLASSES, SEMIMODULE = 48, 48, 24, 16, 24

    def generate(self, seed):
        rng = random.Random(seed)
        ops = []
        for alpha in _log_strata(rng, 10, 60, self.JSON):
            ops.append({"cmd": "analyze", "format": "json", "alpha": alpha,
                        "beta": _coprime_above(rng, alpha, alpha + alpha // 10 + 2)})
        for alpha in _log_strata(rng, 10, 80, self.SVG):
            ops.append({"cmd": "analyze", "format": "svg", "alpha": alpha,
                        "beta": _coprime_above(rng, alpha, alpha + alpha // 10 + 2)})
        for cmd, n in (("fundamental", self.FUNDAMENTAL), ("classes", self.CLASSES)):
            for i, m in enumerate(_log_strata(rng, 10, 110, n)):
                ops.append({"cmd": cmd, "gens": self._gens(rng, m, 3 + i % 2)})
        for alpha in _log_strata(rng, 5, 20, self.SEMIMODULE):
            ops.append(self._semimodule_op(rng, alpha))
        rng.shuffle(ops)
        return ops

    @staticmethod
    def _gens(rng, m, k):
        # k generators in [m, 2m) are always minimal; the largest stays near
        # m so that the sieve width, about m * max, varies little
        while True:
            gens = sorted({m, *rng.sample(range(m + 1, m + m // 4 + 4), k - 1)})
            if reduce(gcd, gens) == 1:
                return gens

    @staticmethod
    def _semimodule_op(rng, alpha):
        beta = _coprime_above(rng, alpha, 2 * alpha)
        cols = [a for a in range(1, beta) if R.top_row(alpha, beta, a) >= 1]
        k = rng.randint(1, 3)
        while True:
            picked = sorted(rng.sample(cols, k))
            rows, last = [], alpha
            for i, a in enumerate(picked):
                lo, hi = k - i, min(R.top_row(alpha, beta, a), last - 1)
                if lo > hi:
                    break
                last = rng.randint(lo, hi)
                rows.append(last)
            else:
                module = [0] + [R.value(alpha, beta, a, b) for a, b in zip(picked, rows)]
                rng.shuffle(module)
                return {"cmd": "semimodule", "gens": [alpha, beta], "module": module}

    def execute(self, gapsym, state, op):
        cmd = op["cmd"]
        if cmd == "analyze":
            argv = ["analyze", "--alpha", str(op["alpha"]), "--beta", str(op["beta"]),
                    "--format", op["format"]]
            if op["format"] == "svg":
                argv += ["--layers", ALL_LAYERS]
        else:
            argv = [cmd, "--gens", ",".join(map(str, op["gens"]))]
            if cmd == "semimodule":
                argv += ["--module", ",".join(map(str, op["module"]))]
        return run_cli(gapsym.cli, argv)

    def check(self, op, output):
        rc, out, _ = output
        if rc != 0:
            return False
        cmd = op["cmd"]
        if cmd == "analyze" and op["format"] == "svg":
            return _check_svg(op["alpha"], op["beta"], out)
        rep = json.loads(out)
        if cmd == "analyze":
            return _check_analyze(op["alpha"], op["beta"], rep)
        S = R.Semigroup(op["gens"])
        if rep["gens"] != S.minimal_generators():
            return False
        if cmd == "fundamental":
            fg = S.fundamental_gaps()
            return (rep["gaps"] == S.gaps and rep["fundamental_gaps"] == fg
                    and rep["divisor_closure"] == R.divisor_closure(fg)
                    and rep["counts"] == {"gaps": len(S.gaps), "fg": len(fg)})
        if cmd == "classes":
            return _check_classes(S, rep["classes"])
        return _check_semimodule(S, op["module"], rep)


def _check_analyze(alpha, beta, rep):
    gaps = R.two_gen_gaps(alpha, beta)
    side, sg, ssg, n_tu, n_tr = R.symmetric_sets(alpha, beta)
    lattice = rep["lattice"]
    zero_wilf = {(e["a"], e["b"]) for e in lattice if e["wilf"] == 0}
    fg = _fg_of(gaps)
    ok = (
        (rep["alpha"], rep["beta"]) == (alpha, beta)
        and rep["conductor"] == (alpha - 1) * (beta - 1)
        and rep["gaps"] == gaps
        and rep["genus"] == len(gaps)
        and len(lattice) == len(gaps)
        and all(e["value"] == R.value(alpha, beta, e["a"], e["b"]) for e in lattice)
        and sorted(e["value"] for e in lattice) == gaps
        and zero_wilf == ssg
        and rep["sg"]["side"] == side
        and {tuple(p) for p in rep["sg"]["cells"]} == sg
        and rep["sg"]["values"] == sorted(R.value(alpha, beta, a, b) for a, b in sg)
        and {tuple(p) for p in rep["ssg"]["cells"]} == ssg
        and rep["ssg"]["values"] == sorted(R.value(alpha, beta, a, b) for a, b in ssg)
        and list(rep["partition"].values()) == [n_tu, n_tu, len(ssg), n_tr, n_tr]
        and sum(rep["partition"].values()) == len(gaps)
        and rep["fg"] == fg
        and rep["counts"] == {"sg_ssg": len(sg | ssg), "fg": len(fg)}
    )
    if not ok:
        return False
    # Wilf number 2*delta - conductor of [0, g], scanned directly, at the two
    # ends of the row-major cell list
    S = R.Semigroup([alpha, beta])
    for e in (lattice[0], lattice[-1]):
        conductor, delta, _ = S.module([0, e["value"]])
        if e["wilf"] != 2 * delta - conductor:
            return False
    return True


def _check_svg(alpha, beta, text):
    gaps = R.two_gen_gaps(alpha, beta)
    _, sg, ssg, n_tu, n_tr = R.symmetric_sets(alpha, beta)
    rect = any(a <= beta // 2 and b <= alpha // 2 for a, b in R.cells(alpha, beta))
    counts = {"rect": 0, "line": 0, "text": 0}
    values = []
    size = None
    # streaming parse, so that the check adds little to the peak RSS
    for event, elem in ET.iterparse(io.BytesIO(text.encode()), events=("start", "end")):
        tag = elem.tag.rpartition("}")[2]
        if event == "start":
            if size is None:
                if tag != "svg":
                    return False
                size = (int(elem.get("width")), int(elem.get("height")))
            continue
        if tag in counts:
            counts[tag] += 1
        if tag == "text" and elem.get("font-size") == "12":
            values.append(int(elem.text))
        elem.clear()
    want = {
        "rect": 1 + n_tu + n_tr + len(_fg_of(gaps)) + len(sg) + len(ssg) + rect,
        "line": (alpha + 1) + (beta + 1) + 1,
        "text": 2 * len(gaps),
    }
    return size[0] * alpha == size[1] * beta and counts == want and sorted(values) == gaps


def _check_classes(S, classes):
    members = [g for c in classes for g in c["members"]]
    conductors = [c["conductor"] for c in classes]
    if sorted(members) != S.gaps or conductors != sorted(set(conductors)):
        return False
    for c in classes:
        inside = set(c["members"])
        if not all(set(p) <= inside for p in c["pairs"]):
            return False
        if c["self_symmetric"] is not None and c["self_symmetric"] not in inside:
            return False
    for c in (classes[0], classes[len(classes) // 2], classes[-1]):
        if S.module([0, c["members"][0]])[0] != c["conductor"]:
            return False
    return True


def _check_semimodule(S, module, rep):
    lean = all(not S.contains(abs(x - y)) for x, y in combinations(set(module), 2))
    conductor, delta, inside = S.module(module)
    base = min(module)
    ed = len(set(module))
    symmetric = all(inside[x] != inside[conductor - 1 - x] for x in range(conductor))
    return (
        rep["module"] == module
        and lean
        and rep["lean"] is True
        and sorted(rep["min_generators"]) == sorted({x - base for x in module})
        and rep["conductor"] == conductor
        and rep["delta"] == delta
        and rep["ed"] == ed
        and rep["wilf"] == ed * delta - conductor
        and rep["symmetric"] is symmetric
    )


class Infer(Workload):
    """`reconstruct --infer` on the symmetric-set values of seeded pairs.

    The source pairs are every pair whose largest symmetric value is at most
    MAX_VALUE (and at least a quarter of beta, so the default search reaches
    it); some value sets are shared by several pairs and must exit 4.  The op
    list holds every source once and NO_MATCH perturbed value sets that fit
    no pair and must exit 3.
    """

    name = "infer"
    MAX_VALUE = 7
    NO_MATCH = 6

    def generate(self, seed):
        rng = random.Random(seed)
        table = {p: R.symmetric_values(*p) for p in R.coprime_pairs(4 * self.MAX_VALUE)}

        def matches(values):
            bound = 4 * max(values)
            return [list(p) for p, v in table.items() if p[1] <= bound and v == values]

        sources = sorted(
            p for p, v in table.items() if v and max(v) <= self.MAX_VALUE and p[1] <= 4 * max(v)
        )
        no_match = {p: self._no_match(table[p], matches) for p in sources}
        perturbable = sorted((p for p in sources if no_match[p]), key=lambda p: (max(table[p]), p))
        step = len(perturbable) // self.NO_MATCH
        ops = []
        for alpha, beta in sources:
            _, sg, ssg, _, _ = R.symmetric_sets(alpha, beta)
            ops.append({
                "source": [alpha, beta],
                "sg_values": self._shuffled(rng, alpha, beta, sg),
                "ssg_values": self._shuffled(rng, alpha, beta, ssg),
                "expect": sorted(matches(table[(alpha, beta)])),
            })
        # perturbed value sets of evenly spaced sources, counted from the
        # largest value down; each keeps its largest value, so the search
        # bounds of every seed's list are the same
        for source in perturbable[::-step][: self.NO_MATCH]:
            values = list(rng.choice(no_match[source]))
            rng.shuffle(values)
            ops.append({"source": None, "sg_values": values, "ssg_values": [], "expect": []})
        rng.shuffle(ops)
        for i, op in enumerate(ops):
            op["file"] = f"infer-{i}.json"
        return ops

    @staticmethod
    def _no_match(values, matches):
        """Every set made by dropping one value other than the largest, or by
        adding one value below it, that matches no pair."""
        top = max(values)
        out = [values - {v} for v in values if v != top]
        out += [values | {v} for v in range(1, top) if v not in values]
        return [sorted(v) for v in out if not matches(v)]

    @staticmethod
    def _shuffled(rng, alpha, beta, cells):
        vals = [R.value(alpha, beta, a, b) for a, b in sorted(cells)]
        rng.shuffle(vals)
        return vals

    def prepare(self, ops, workdir):
        self.workdir = workdir
        for op in ops:
            data = {"sg_values": op["sg_values"], "ssg_values": op["ssg_values"]}
            (workdir / op["file"]).write_text(json.dumps(data))

    def execute(self, gapsym, state, op):
        path = str(self.workdir / op["file"])
        return run_cli(gapsym.cli, ["reconstruct", "--input", path, "--infer"])

    def check(self, op, output):
        rc, out, err = output
        expect = op["expect"]
        if not expect:
            return rc == 3 and out == ""
        if len(expect) > 1:
            found = re.search(r"\(matches: (\[.*\])\)\s*$", err)
            listed = sorted(map(list, ast.literal_eval(found.group(1)))) if found else None
            return rc == 4 and out == "" and listed == expect and op["source"] in listed
        alpha, beta = op["source"]
        return rc == 0 and json.loads(out) == {
            "alpha": alpha, "beta": beta, "inferred": True, "gaps": R.two_gen_gaps(alpha, beta),
        }


class Survey(Workload):
    """Repeated `survey --max-beta B --checks all`.  Each block runs every B
    of a narrow band once, in a seeded order, so that any seed gives sweeps of
    the same length."""

    name = "survey"
    trace_ops = 6
    BLOCKS = 2
    BAND = (9, 10, 11)
    CHECKS = ("partition", "reconstruct", "equifix", "red", "uff", "cardinality",
              "conductor-sym")
    HEADER = re.compile(r"^(\S+): pairs=(\d+) violations=(\d+) warnings=(\d+)$")

    def __init__(self):
        self.first_output = {}

    def generate(self, seed):
        rng = random.Random(seed)
        ops = []
        for _ in range(self.BLOCKS):
            band = list(self.BAND)
            rng.shuffle(band)
            ops += [{"max_beta": b} for b in band]
        return ops

    def execute(self, gapsym, state, op):
        return run_cli(gapsym.cli, ["survey", "--max-beta", str(op["max_beta"]), "--checks", "all"])

    def check(self, op, output):
        rc, out, _ = output
        max_beta = op["max_beta"]
        if self.first_output.setdefault(max_beta, out) != out or rc != 0:
            return False
        pairs = str(len(R.coprime_pairs(max_beta)))
        headers = [self.HEADER.match(line) for line in out.splitlines() if not line.startswith(" ")]
        return [h and (h[1], h[2], h[3]) for h in headers] == [
            (name, pairs, "0") for name in self.CHECKS
        ]


class Oracle(Workload):
    """The differential sweep of closed forms against the brute oracles.

    The pairs are a seeded sample of the coprime pairs up to MAX_BETA: the
    pair with the most lean sets, which holds over half of them, and then one
    pair drawn from each consecutive two in the ranking by lean-set count, so
    every sample has about the same size profile (6,728 to 7,322 lean sets
    for seeds 0 to 4).  One op is one lean set; the ops are every lean set of
    the sampled pairs, shuffled together.
    """

    name = "oracle"
    trace_ops = 1000
    MAX_BETA = 10

    def generate(self, seed):
        rng = random.Random(seed)
        chains = {p: R.staircase_chains(*p) for p in R.coprime_pairs(self.MAX_BETA)}
        ranked = sorted(chains, key=lambda p: (len(chains[p]), p), reverse=True)
        self.pairs = ranked[:1] + [rng.choice(ranked[i:i + 2]) for i in range(1, len(ranked), 2)]
        ops = [[a, b, values] for a, b in self.pairs for values in chains[(a, b)]]
        rng.shuffle(ops)
        return ops

    def warm(self, gapsym):
        # one semigroup per sampled pair, built once as the sweep does
        state = {}
        for alpha, beta in self.pairs:
            S = gapsym.make_semigroup([alpha, beta])
            state[(alpha, beta)] = (S, S.conductor + max(beta, 12) + alpha * beta)
        return state

    def execute(self, gapsym, state, op):
        alpha, beta, values = op
        S, bound = state[(alpha, beta)]
        d = gapsym.make_semimodule(S, values)
        return (
            sorted(gapsym.lattice_path(d).h_values),
            gapsym.brute_syzygy(S, values, bound)[1],
            gapsym.sm_conductor_formula(d), d.conductor,
            gapsym.delta_formula(d), d.delta,
            gapsym.dual_generators(d),
            gapsym.brute_dual(S, values, bound)[1],
        )

    def check(self, op, output):
        h_values, syzygies, cond, conductor, delta_f, delta, dual, brute = output
        return h_values == syzygies and cond == conductor and delta_f == delta and dual == brute

    def output_bytes(self, output):
        return 0


WORKLOADS = {w.name: w for w in (Analyze, Infer, Survey, Oracle)}
