"""Rules on the library source itself, checked by parsing it."""

import ast
import importlib
import inspect
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "gapsym"


def test_no_assert_statements_in_src():
    # python -O strips assert statements, so no runtime check may be one
    files = sorted(SRC.glob("*.py"))
    assert files, SRC
    found = [
        f"{path.name}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _module_level_names(tree):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id


def _reads(tree):
    """Names a module loads, reads as an attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def test_no_unreferenced_module_names_in_src():
    # a module-level function, class or assigned name that nothing in the
    # package loads, imports or reads as an attribute has no caller
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    assert trees, SRC
    used = {name for tree in trees.values() for name in _reads(tree)}
    unused = [
        f"{name}: {defined}"
        for name, tree in trees.items()
        for defined in _module_level_names(tree)
        if defined not in used and not (defined.startswith("__") and defined.endswith("__"))
    ]
    assert unused == []


def test_no_unused_imports_in_src():
    # a module-level import that its own module never loads is left over
    files = [path for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    assert files, SRC
    found = []
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, ast.Import):
                bound = [(alias.asname or alias.name).split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}: {name}" for name in bound if name not in loaded]
    assert found == []


def test_every_exported_name_is_read():
    # a name exported by the package that nothing in the package, the tests
    # or the demos reads has no caller
    init = SRC / "__init__.py"
    exported = [
        alias.name
        for node in ast.parse(init.read_text()).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert exported, init
    root = SRC.parents[1]
    files = [p for p in SRC.glob("*.py") if p != init]
    files += sorted((root / "tests").glob("*.py")) + sorted((root / "demos").glob("*.py"))
    used = {name for path in files for name in _reads(ast.parse(path.read_text()))}
    assert [name for name in exported if name not in used] == []


def test_no_float_constants_in_src():
    # the package computes with integers only
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Constant) and isinstance(node.value, float)
    ]
    assert found == []


def _class_members(tree):
    """(class, member) for each method, property, annotated field and
    `__slots__` entry declared in a class body."""
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield cls.name, node.name
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                yield cls.name, node.target.id
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__slots__" for t in node.targets
            ):
                for elt in ast.walk(node.value):
                    if isinstance(elt, ast.Constant) and isinstance(elt.value, str):
                        yield cls.name, elt.value


def test_every_class_member_is_read():
    # a method, property, field or slot that nothing in the package, the
    # tests or the demos reads as an attribute has no reader
    root = SRC.parents[1]
    files = sorted(SRC.glob("*.py")) + sorted((root / "tests").glob("*.py"))
    files += sorted((root / "demos").glob("*.py"))
    read = {
        node.attr
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{path.name}: {cls}.{member}"
        for path in sorted(SRC.glob("*.py"))
        for cls, member in _class_members(ast.parse(path.read_text()))
        if member not in read and not (member.startswith("__") and member.endswith("__"))
    ]
    assert unread == []


def _writes(func):
    """Whether a function refers to sys.stdout, sys.stderr or print, or calls
    open in a write mode (or a mode it does not spell out as a constant)."""
    for node in ast.walk(func):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "sys" and node.attr in ("stdout", "stderr")):
            return True
        if isinstance(node, ast.Name) and node.id == "print":
            return True
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "open":
            modes = node.args[1:2] + [k.value for k in node.keywords if k.arg == "mode"]
            for mode in modes:
                if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)):
                    return True
                if set(mode.value) & set("wax+"):
                    return True
    return False


def test_only_main_writes_in_cli():
    # every command returns its output; main alone writes it, to --out or stdout
    tree = ast.parse((SRC / "cli.py").read_text())
    writers = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name != "main" and _writes(node)
    ]
    assert writers == []


def test_only_output_writes_json():
    # JSON text has one writer, cli._output; no module calls or imports the
    # stdlib encoder (json.dump, json.dumps or JSONEncoder)
    encoders = {"dump", "dumps", "JSONEncoder"}
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if (isinstance(node, ast.Attribute) and node.attr in encoders)
        or (isinstance(node, ast.ImportFrom) and any(a.name in encoders for a in node.names))
    ]
    assert found == []


def test_member_mask_is_read_only_by_the_oracle():
    # membership is an unbounded int; only the brute scans cut it to a width
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name != "oracle.py"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "member_mask"
    ]
    assert found == []


def test_only_semigroup_and_semimodule_read_table():
    # membership storage belongs to semigroup.py, whose int semimodule.py
    # shifts into its modules; every other module reads the public fields
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py")) if path.name not in ("semigroup.py", "semimodule.py")
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr == "_table"
    ]
    assert found == []


def test_only_semimodule_builds_modules():
    # a module takes the membership int its builder holds, so the one
    # builder, make_semimodule, is the one caller of the constructor; each
    # call is named by its file and its top-level definition
    found = [
        (path.name, getattr(top, "name", None))
        for path in sorted(SRC.glob("*.py"))
        for top in ast.parse(path.read_text(), filename=str(path)).body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name)
             else getattr(node.func, "attr", None)) == "GammaSemimodule"
    ]
    assert found == [("semimodule.py", "make_semimodule")]


def test_no_dataclasses_import_in_src():
    # result records are NamedTuples: a dataclass compiles its methods at
    # import, and `dataclasses` loads `inspect`, `ast` and `dis` with it
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_no_contains_call_in_a_loop():
    # each S.contains shifts the whole membership int, so a loop of them
    # costs the conductor per step; a loop tests against a gap set instead
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
             ast.GeneratorExp)
    found = sorted({
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for loop in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(loop, loops)
        for node in ast.walk(loop)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "contains"
    })
    assert found == []


def test_perfbench_traced_methods_exist():
    # perfbench/tracing.py patches methods by name; tier-1 never imports it,
    # so a renamed or deleted method would only show in a traced benchmark run
    tracing = SRC.parents[1] / "perfbench" / "tracing.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(tracing.read_text()).body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name) and node.targets[0].id in ("METHODS", "COUNTED")
    }
    assert set(tables) == {"METHODS", "COUNTED"}, tracing
    missing = []
    for layer, cls, method, _ in tables["METHODS"] + tables["COUNTED"]:
        tree = ast.parse((SRC / f"{layer}.py").read_text())
        defined = {
            node.name
            for c in tree.body if isinstance(c, ast.ClassDef) and c.name == cls
            for node in c.body if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        if method not in defined:
            missing.append(f"{layer}.{cls}.{method}")
    assert missing == []


def _span_keys(key, loops):
    # the span name a subscript key spells out: a string, or each string an
    # f-string builds from the tuples its comprehensions run over
    if isinstance(key, ast.Constant):
        return [key.value]
    if isinstance(key, ast.JoinedStr):
        names = [""]
        for part in key.values:
            if isinstance(part, ast.Constant):
                names = [n + part.value for n in names]
            else:
                names = [n + v for n in names for v in loops[part.value.id]]
        return names
    return []


def test_perfbench_traced_functions_exist():
    # every span a per-layer metric or hook reads must be one the tracer
    # records: a METHODS span, or a public module-level function of its layer
    # that is no generator (install_spans wraps only those); a renamed or
    # privatized function would read 0 with no error
    tree = ast.parse((SRC.parents[1] / "perfbench" / "tracing.py").read_text())
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and len(node.targets) == 1
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("LAYERS", "RENAMED", "METHODS")
    }
    tracer = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "Tracer")
    funcs = {n.name: n for n in tracer.body if isinstance(n, ast.FunctionDef)}
    metrics = funcs["metrics"]
    loops = {
        node.target.id: ast.literal_eval(node.iter)
        for node in ast.walk(metrics)
        if isinstance(node, ast.comprehension) and isinstance(node.target, ast.Name)
        and isinstance(node.iter, ast.Tuple)
    }
    names = set()
    for node in ast.walk(metrics):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name)
                and node.value.id in ("calls", "self_s")):
            names.update(_span_keys(node.slice, loops))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and isinstance(node.func.value, ast.Attribute)
              and node.func.value.attr == "_ids"):
            names.add(ast.literal_eval(node.args[0]))
    hooks = next(n.value for n in ast.walk(funcs["_hooks"]) if isinstance(n, ast.Return))
    names.update(ast.literal_eval(k) for k in hooks.keys)
    # one name from each place the names are read
    assert {"semigroup.construct", "symmetry.supersymmetric_gaps", "render.render_svg",
            "semimodule.is_lean"} <= names

    original = {span: name for name, span in tables["RENAMED"].items()}
    methods = {span for *_, span in tables["METHODS"]}
    missing = []
    for span in sorted(names - methods):
        layer, _, func = original.get(span, span).partition(".")
        mod = importlib.import_module(f"gapsym.{layer}") if layer in tables["LAYERS"] else None
        fn = vars(mod).get(func) if mod else None
        if not (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                and not func.startswith("_") and not inspect.isgeneratorfunction(fn)):
            missing.append(span)
    assert missing == []
