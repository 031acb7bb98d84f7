"""Every top-level function and class of the library is reached by what runs.

A definition is reached when a command, an acceptance criterion or the
benchmark harness refers to it by name, directly or through definitions that
are reached themselves; a helper called only by another unreached helper is
unreached too.  The roots are the module-level statements of ``src/wflow``
other than imports (the ``__main__`` entry points, constant tables), every
reference in ``perfbench/*.py`` and every reference in
``tests/test_acceptance.py``.  References are AST names, attribute names and
imported names, never string contents: a config key spelled like a function
does not keep the function.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "wflow"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)


def referenced_names(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, (ast.Import, ast.ImportFrom)):
            names.update(alias.name.rpartition(".")[2] for alias in sub.names)
    return names


def test_every_library_definition_is_reached():
    defs: dict[str, list[tuple[str, ast.AST]]] = {}
    roots: set[str] = set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if isinstance(stmt, DEFINITIONS):
                defs.setdefault(stmt.name, []).append((path.stem, stmt))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= referenced_names(stmt)
    for path in [*sorted((ROOT / "perfbench").glob("*.py")),
                 ROOT / "tests" / "test_acceptance.py"]:
        roots |= referenced_names(ast.parse(path.read_text()))

    reached: set[str] = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in reached:
            continue
        reached.add(name)
        for _, node in defs[name]:
            todo.extend(n for n in referenced_names(node) if n in defs)

    unreached = sorted(f"{module}.{name}" for name, entries in defs.items()
                       if name not in reached for module, _ in entries)
    assert not unreached, f"defined but never reached: {', '.join(unreached)}"
