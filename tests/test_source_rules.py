"""Rules on the library source itself, checked by parsing it."""

import ast
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
