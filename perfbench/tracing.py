"""Per-layer tracing of gapsym from the outside.

`Tracer.install_spans` wraps the public functions of each gapsym module
(the layers) and a few methods, and patches every module namespace that
holds a wrapped function, including the copies made by `from .x import y`,
so that calls between layers are caught.  Each call records a span (name,
start, end, parent, op) in flat arrays kept in memory; the spans are written
out when the run ends.  A span's self time is its duration minus the time
its child spans cover.  The two hottest leaves are only counted, not timed,
in a run of their own (`install_counters`).
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

LAYERS = ("semigroup", "symmetry", "wilf", "semimodule", "fundamental", "oracle",
          "survey", "render", "cli")

# span names that differ from "<layer>.<function>"
RENAMED = {
    "semimodule.make_semimodule": "semimodule.make",
    "symmetry.infer_semigroup": "symmetry.infer",
    "wilf.wilf_gap_formula": "wilf.formula",
    "wilf.zero_wilf_equivalences": "wilf.equivalences",
}

# (layer, class, method, span name) of the methods timed like functions
METHODS = (
    ("semigroup", "NumericalSemigroup", "__init__", "semigroup.construct"),
    ("semigroup", "TwoGen", "lattice_gaps", "semigroup.lattice_gaps"),
    ("semigroup", "TwoGen", "gap_values", "semigroup.gap_values"),
    ("semimodule", "GammaSemimodule", "lattice_points", "semimodule.lattice_points"),
)

# hot leaves: a call count only, no span
COUNTED = (
    ("semigroup", "TwoGen", "gap_to_lattice", "semigroup.gap_to_lattice"),
    ("semigroup", "TwoGen", "value", "semigroup.value"),
)


class Tracer:
    def __init__(self, package: str = "gapsym"):
        self.package = package
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.stack: list[int] = []
        self.current_op = -1
        self.counts: Counter = Counter()
        self.pair_keys: set = set()
        self.module_keys: set = set()
        self._undo: list = []

    # -- hooks: quantities read from a call's arguments or result ----------

    def _on_construct(self, args, result, exc):
        gens = args[1] if len(args) > 1 else ()
        if isinstance(gens, (list, tuple)) and gens:
            m, big = min(gens), max(gens)
            self.counts["schur_bits"] += (m - 1) * (big - 1)

    def _on_lattice_gaps(self, args, result, exc):
        T = args[0]
        self.pair_keys.add((self.current_op, T.alpha, T.beta))

    def _on_lattice_path(self, args, result, exc):
        d = args[0]
        self.module_keys.add((self.current_op, d.base.generators, d.min_generators))

    def _on_render(self, args, result, exc):
        if result is not None:
            self.counts["render_bytes"] += len(result)

    def _on_survey(self, args, result, exc):
        if result is not None:
            self.counts["pair_checks"] += sum(r.pairs for r in result)

    def _on_infer(self, args, result, exc):
        if result is not None:
            self.counts["infer_matches"] += 1
        elif exc is not None:
            self.counts["infer_matches"] += len(getattr(exc, "matches", ()))

    def _hooks(self):
        return {
            "semigroup.construct": self._on_construct,
            "semigroup.lattice_gaps": self._on_lattice_gaps,
            "semimodule.lattice_path": self._on_lattice_path,
            "render.render_svg": self._on_render,
            "survey.run_survey": self._on_survey,
            "symmetry.infer": self._on_infer,
        }

    # -- wrappers ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _span(self, name, fn, hook):
        nid = self._name_id(name)
        start, end, names, parents, ops, stack = (
            self.start, self.end, self.name, self.parent, self.op, self.stack)
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ops.append(tracer.current_op)
            end.append(0.0)
            stack.append(idx)
            result = exc = None
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                end[idx] = clock()
                stack.pop()
                if hook is not None:
                    hook(args, result, exc)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def _layers(self):
        return {layer: sys.modules[f"{self.package}.{layer}"] for layer in LAYERS}

    def install_spans(self) -> None:
        """Time every public function and the METHODS, as spans."""
        mods = self._layers()
        hooks = self._hooks()
        wrapped = {}
        for layer, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and not inspect.isgeneratorfunction(obj)):
                    name = RENAMED.get(f"{layer}.{attr}", f"{layer}.{attr}")
                    wrapped[obj] = self._span(name, obj, hooks.get(name))
        # the package and every layer re-export names with `from .x import y`
        for mod in (sys.modules[self.package], *mods.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(mod, attr, wrapped[obj])
        for layer, cls_name, meth, name in METHODS:
            cls = getattr(mods[layer], cls_name)
            self._patch(cls, meth, self._span(name, cls.__dict__[meth], hooks.get(name)))

    def install_counters(self) -> None:
        """Count calls of the COUNTED leaves; kept apart from the spans so that
        the counting does not add to any span's self time."""
        mods = self._layers()
        for layer, cls_name, meth, name in COUNTED:
            cls = getattr(mods[layer], cls_name)
            self._patch(cls, meth, self._counter(name, cls.__dict__[meth]))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, obj = self._undo.pop()
            setattr(owner, attr, obj)

    # -- results -----------------------------------------------------------

    def self_times(self):
        n = len(self.name)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        return [end[i] - start[i] - child[i] for i in range(n)]

    def metrics(self) -> dict:
        """Every per-layer metric, as {name: (value, unit)}."""
        selfs = self.self_times()
        calls, self_s, layer_s = Counter(), Counter(), Counter()
        pairs_tried = 0
        infer_id = self._ids.get("symmetry.infer", -2)
        super_id = self._ids.get("symmetry.supersymmetric_gaps", -2)
        for i, nid in enumerate(self.name):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += selfs[i]
            layer_s[name.partition(".")[0]] += selfs[i]
            p = self.parent[i]
            if nid == super_id and p >= 0 and self.name[p] == infer_id:
                pairs_tried += 1
        c = self.counts

        def ratio(num, den):
            return num / den if den else 0.0

        def layer_sum(table, layer):
            return sum(v for k, v in table.items() if k.startswith(layer + "."))

        out = {
            "semigroup.self_s": (layer_s["semigroup"], "s"),
            "semigroup.construct.calls": (calls["semigroup.construct"], "count"),
            "semigroup.construct.self_s": (self_s["semigroup.construct"], "s"),
            "semigroup.construct.schur_bits": (c["schur_bits"], "bits"),
            "semigroup.lattice_gaps.calls": (calls["semigroup.lattice_gaps"], "count"),
            "semigroup.lattice_gaps.self_s": (self_s["semigroup.lattice_gaps"], "s"),
            "semigroup.lattice_gaps.per_pair": (
                ratio(calls["semigroup.lattice_gaps"], len(self.pair_keys)), "calls/pair"),
            "semigroup.gap_to_lattice.calls": (c["semigroup.gap_to_lattice"], "count"),
            "semigroup.value.calls": (c["semigroup.value"], "count"),
            "symmetry.self_s": (layer_s["symmetry"], "s"),
            "symmetry.triangles.calls": (
                calls["symmetry.triangle_u"] + calls["symmetry.triangle_r"], "count"),
            "symmetry.gap_partition.self_s": (self_s["symmetry.gap_partition"], "s"),
            "symmetry.infer.self_s": (self_s["symmetry.infer"], "s"),
            "symmetry.infer.pairs_tried": (pairs_tried, "count"),
            "symmetry.infer.match_ratio": (
                ratio(c["infer_matches"], pairs_tried), "matches/pair"),
            "wilf.self_s": (layer_s["wilf"], "s"),
            "wilf.formula.calls": (calls["wilf.formula"], "count"),
            "wilf.equivalences.calls": (calls["wilf.equivalences"], "count"),
            "semimodule.self_s": (layer_s["semimodule"], "s"),
            "semimodule.make.calls": (calls["semimodule.make"], "count"),
            "semimodule.make.self_s": (self_s["semimodule.make"], "s"),
            "semimodule.lattice_path.calls": (calls["semimodule.lattice_path"], "count"),
            "semimodule.lattice_path.per_module": (
                ratio(calls["semimodule.lattice_path"], len(self.module_keys)), "calls/module"),
            "semimodule.dual.self_s": (
                self_s["semimodule.dual_generators"] + self_s["semimodule.dual"], "s"),
            "semimodule.predicates.self_s": (
                sum(self_s[f"semimodule.{p}"] for p in
                    ("is_lean", "is_fixed_point", "is_selfdual", "is_symmetric_sm")), "s"),
            "fundamental.calls": (layer_sum(calls, "fundamental"), "count"),
            "fundamental.self_s": (layer_s["fundamental"], "s"),
            "oracle.self_s": (layer_s["oracle"], "s"),
            "oracle.brute_syzygy.self_s": (self_s["oracle.brute_syzygy"], "s"),
            "oracle.brute_dual.self_s": (self_s["oracle.brute_dual"], "s"),
            "oracle.lean_sets": (calls["oracle.brute_syzygy"], "count"),
            "survey.self_s": (layer_s["survey"], "s"),
            "survey.pair_checks": (c["pair_checks"], "count"),
            "render.self_s": (layer_s["render"], "s"),
            "render.bytes": (c["render_bytes"], "bytes"),
            "cli.self_s": (layer_s["cli"], "s"),
        }
        return out

    def write_spans(self, path) -> None:
        """One tab-separated line per span; times in seconds from the first."""
        t0 = self.start[0] if len(self.start) else 0.0
        with open(path, "w") as fh:
            fh.write("span\tname\tstart_s\tend_s\tparent\top\n")
            for i, nid in enumerate(self.name):
                fh.write(f"{i}\t{self.names[nid]}\t{self.start[i] - t0:.9f}\t"
                         f"{self.end[i] - t0:.9f}\t{self.parent[i]}\t{self.op[i]}\n")
