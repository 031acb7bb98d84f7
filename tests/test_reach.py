"""Every function, class, method and constant of the library is reached by
what runs.

A top-level definition is reached when a command, an acceptance criterion or
the benchmark harness refers to it by name, directly or through definitions
that are reached themselves; a helper called only by another unreached
helper is unreached too.  A module-level constant (an assignment to names,
``_ROOT_TOL = 1e-12``) is a definition like a function, so a tolerance that
no reached code reads is unreached.  A method or property is reached only
through an attribute reference (``obj.name``) from reached code.  Python
calls dunder methods, and methods that override a base class's
(``_Parser.error`` for argparse), without naming them, so those count as
part of their class.  The roots are the other module-level statements of
``src/wflow`` than imports (the ``__main__`` entry points), every reference
in ``perfbench/*.py`` and every reference in ``tests/test_acceptance.py``.
References are AST names, attribute names and imported names, never string
contents: a config key spelled like a function does not keep the function.

The same walk checks that no module of ``src/wflow`` or ``tests`` imports a
name at top level that it never refers to, that every error class but the
base ``WflowError`` is raised by name somewhere in ``src/wflow``, and that
every defaulted parameter of a private function, or of a method of a private
class, is passed by some call in ``src/wflow``.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wflow"


def references(nodes) -> tuple[set[str], set[str]]:
    """Every name the nodes refer to, and the attribute names among them."""
    names, attrs = set(), set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
            elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                names.update(alias.name.rpartition(".")[2] for alias in sub.names)
    return names | attrs, attrs


def split_class(module, node: ast.ClassDef):
    """The class's methods reached only by name, and the rest of the class."""
    bases = getattr(module, node.name).__mro__[1:]
    methods, rest = [], [*node.decorator_list, *node.bases, *node.keywords]
    for stmt in node.body:
        named = (isinstance(stmt, ast.FunctionDef)
                 and not (stmt.name.startswith("__") and stmt.name.endswith("__"))
                 and not any(stmt.name in vars(base) for base in bases))
        (methods if named else rest).append(stmt)
    return methods, rest


def test_every_library_definition_is_reached():
    # name -> (label, references) of each definition reached through it
    by_name: dict[str, list] = {}
    by_attr: dict[str, list] = {}
    todo = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, ast.ClassDef):
                module = importlib.import_module(f"wflow.{path.stem}")
                methods, rest = split_class(module, stmt)
                label = f"{path.stem}.{stmt.name}"
                by_name.setdefault(stmt.name, []).append((label, references(rest)))
                for meth in methods:
                    by_attr.setdefault(meth.name, []).append(
                        (f"{label}.{meth.name}", references([meth])))
            elif isinstance(stmt, ast.FunctionDef):
                by_name.setdefault(stmt.name, []).append(
                    (f"{path.stem}.{stmt.name}", references([stmt])))
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    for sub in ast.walk(target):
                        if isinstance(sub, ast.Name):
                            by_name.setdefault(sub.id, []).append(
                                (f"{path.stem}.{sub.id}",
                                 references([stmt.value])))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                todo.append(references([stmt]))
    for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        todo.append(references([ast.parse(path.read_text())]))

    reached: set[str] = set()
    while todo:
        names, attrs = todo.pop()
        for table, keys in ((by_name, names), (by_attr, attrs)):
            for key in keys & table.keys():
                for label, refs in table[key]:
                    if label not in reached:
                        reached.add(label)
                        todo.append(refs)

    defined = {label for table in (by_name, by_attr)
               for entries in table.values() for label, _ in entries}
    unreached = sorted(defined - reached)
    assert not unreached, f"defined but never reached: {', '.join(unreached)}"


def test_every_top_level_import_is_used():
    unused = []
    for path in [*sorted(SRC.glob("*.py")), *sorted(ROOT.glob("tests/*.py"))]:
        body = ast.parse(path.read_text()).body
        imports = [stmt for stmt in body
                   if isinstance(stmt, (ast.Import, ast.ImportFrom))
                   and getattr(stmt, "module", None) != "__future__"]
        used = {sub.id for stmt in body if stmt not in imports
                for sub in ast.walk(stmt) if isinstance(sub, ast.Name)}
        for stmt in imports:
            for alias in stmt.names:
                bound = alias.asname or alias.name.partition(".")[0]
                if bound not in used:
                    unused.append(f"{path.relative_to(ROOT)}: {bound}")
    assert not unused, f"imported but never used: {', '.join(unused)}"


def test_every_error_class_is_raised():
    # WflowError is the base that callers catch; each other class must be
    # raised by name, so an error type that nothing raises cannot linger
    classes = {stmt.name for stmt in ast.parse((SRC / "errors.py").read_text()).body
               if isinstance(stmt, ast.ClassDef)} - {"WflowError"}
    raised = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    assert classes <= raised, f"never raised: {', '.join(sorted(classes - raised))}"


def _passes(call: ast.Call, index: int | None, arg: str, shift: int) -> bool:
    """Whether ``call`` passes parameter ``arg``, at ``index`` among the
    positional parameters (None: keyword-only), ``shift`` of which are
    bound before the call (``self``)."""
    if any(kw.arg in (arg, None) for kw in call.keywords):
        return True
    return index is not None and (
        len(call.args) > index - shift
        or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_private_default_is_passed():
    # a default that no call in the library overrides is a constant in
    # disguise, or an internal switch nothing throws
    defs, calls = [], []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        calls += [node for node in ast.walk(tree) if isinstance(node, ast.Call)]
        for stmt in tree.body:
            if isinstance(stmt, ast.FunctionDef) and stmt.name.startswith("_"):
                defs.append((f"{path.stem}.{stmt.name}", stmt.name, stmt, 0))
            elif isinstance(stmt, ast.ClassDef) and stmt.name.startswith("_"):
                for meth in stmt.body:
                    if isinstance(meth, ast.FunctionDef):
                        static = any(getattr(d, "id", None) == "staticmethod"
                                     for d in meth.decorator_list)
                        called = stmt.name if meth.name == "__init__" else meth.name
                        defs.append((f"{path.stem}.{stmt.name}.{meth.name}",
                                     called, meth, 0 if static else 1))
    unpassed = []
    for label, called, fn, shift in defs:
        positional = [*fn.args.posonlyargs, *fn.args.args]
        first = len(positional) - len(fn.args.defaults)
        defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
        defaulted += [(None, a.arg) for a, d in zip(fn.args.kwonlyargs,
                                                    fn.args.kw_defaults)
                      if d is not None]
        sites = [call for call in calls
                 if getattr(call.func, "id", getattr(call.func, "attr", None))
                 == called]
        unpassed += [f"{label}({arg})" for index, arg in defaulted
                     if not any(_passes(call, index, arg, shift)
                                for call in sites)]
    assert not unpassed, f"defaults no call passes: {', '.join(unpassed)}"
