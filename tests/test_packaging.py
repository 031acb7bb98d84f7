"""The package's declared dependencies against the imports of its source."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def declared_dependencies() -> set[str]:
    """Top-level import names of ``[project] dependencies``."""
    with open(ROOT / "pyproject.toml", "rb") as fh:
        deps = tomllib.load(fh)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group().lower().replace("-", "_")
            for d in deps}


def imported_top_level_names() -> dict[str, str]:
    """Each absolute top-level module name that ``src/wflow`` imports, at
    module or function level, with the first file that imports it."""
    found = {}
    for path in sorted((SRC / "wflow").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                found.setdefault(name.partition(".")[0], path.name)
    return found


def test_every_third_party_import_is_a_declared_dependency():
    imported = imported_top_level_names()
    assert {"numpy", "orjson", "__future__"} <= set(imported)
    third_party = {name: where for name, where in imported.items()
                   if name not in sys.stdlib_module_names and name != "wflow"}
    undeclared = {name: where for name, where in third_party.items()
                  if name not in declared_dependencies()}
    assert not undeclared, f"imported but not in dependencies: {undeclared}"


def test_importing_the_cli_loads_no_orjson():
    # orjson is imported by the first CSV or JSONL artifact a command writes,
    # so the import of the front door does not pay for it
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, wflow.cli; print('orjson' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
