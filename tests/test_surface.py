"""The package holds what its commands and scripts run, and what it exports.

A top-level name of ``src/tetrachain`` that no other statement in ``src/``
or ``scripts/`` reads, and that ``tetrachain.__all__`` does not export, is
code only the tests call: an oracle for a paper claim belongs in
``tests/paper_checks.py`` instead.  Likewise a field of a record (a
dataclass or a NamedTuple) in ``src/`` that no code in ``src/``,
``scripts/`` or ``perfbench/`` reads as an attribute is computed for the
tests alone.
"""

import ast
from pathlib import Path

import tetrachain

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "tetrachain").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))


def _bound(stmt) -> set:
    """Names a top-level statement defines: a function, a class or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _read(stmt) -> set:
    """Names a statement reads, as a bare name or as an attribute."""
    out = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def test_every_top_level_name_is_run_or_exported():
    statements = [
        (path, stmt, _read(stmt))
        for path in PACKAGE + SCRIPTS
        for stmt in ast.parse(path.read_text()).body
    ]
    unused = [
        f"{path.name}: {name}"
        for path, stmt, _ in statements
        if path in PACKAGE
        for name in _bound(stmt)
        if not name.startswith("__") and name not in tetrachain.__all__
        if not any(name in reads for _, other, reads in statements if other is not stmt)
    ]
    assert not unused, unused


def _is_dataclass(cls: ast.ClassDef) -> bool:
    """True for a record: @dataclass, @dataclass(...) or @dataclasses.dataclass(...),
    or a class based on NamedTuple or typing.NamedTuple."""

    def name(node):
        target = node.func if isinstance(node, ast.Call) else node
        return target.id if isinstance(target, ast.Name) else getattr(target, "attr", None)

    return "dataclass" in map(name, cls.decorator_list) or "NamedTuple" in map(name, cls.bases)


def _fields(cls: ast.ClassDef) -> list:
    """The annotated class-body names of a record, ClassVar excluded."""
    return [
        stmt.target.id
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
        if "ClassVar" not in ast.unparse(stmt.annotation)
    ]


def test_every_dataclass_field_is_read():
    # a keyword argument at construction is a write, not a read
    reads = {
        n.attr
        for path in PACKAGE + SCRIPTS + BENCH
        for n in ast.walk(ast.parse(path.read_text()))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    unread = [
        f"{path.name}: {cls.name}.{name}"
        for path in PACKAGE
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
        for name in _fields(cls)
        if name not in reads
    ]
    assert not unread, unread


def _defaulted(fn: ast.FunctionDef, method: bool) -> list:
    """(name, position) of each parameter with a default; position None for keyword-only.

    A method's position counts its arguments after self, as a call writes them.
    """
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    offset = 1 if method else 0
    out = [(a.arg, k - offset) for k, a in enumerate(positional) if k >= first]
    out += [(a.arg, None) for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    return out


def _sets(call: ast.Call, name: str, position) -> bool:
    """True if the call passes the parameter, by keyword, by position or through a splat."""
    if any(k.arg in (name, None) for k in call.keywords):
        return True
    if position is None:
        return False
    return len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_defaulted_parameter_is_set_somewhere():
    # a default that no call of the program overrides is a knob only the tests turn
    calls = {}
    for path in PACKAGE + SCRIPTS + BENCH:
        for n in ast.walk(ast.parse(path.read_text())):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(n)
    knobs = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text())
        methods = {
            fn
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef)
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef)
        }
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for name, position in _defaulted(fn, fn in methods):
                if not any(_sets(call, name, position) for call in calls.get(fn.name, [])):
                    knobs.append(f"{path.name}: {fn.name}({name})")
    assert not knobs, knobs
