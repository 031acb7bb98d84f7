"""The benchmark harness's hooks into the program still hold.

``perfbench/`` times the program through names it looks up in wflow: the
set-up probe calls the config and problem API in a fresh interpreter, and
``run.py`` wraps module functions by name to trace them.  A rename in
``src/wflow`` breaks the benchmark without failing any other test; these
tests fail instead.  They read and run ``perfbench/`` but never change it.
"""

import ast
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def perfbench_module(name: str):
    """``perfbench/<name>.py``, imported as ``perfbench_<name>``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_setup_probe_runs_on_a_workload_input(tmp_path):
    workloads = perfbench_module("workloads")
    config = workloads.write_inputs(workloads.WORKLOADS["fp-readme"], 0,
                                    tmp_path)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "setup_probe.py"), str(config)],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    split = json.loads(proc.stdout.splitlines()[-1])
    assert set(split) == {"cli.import_s", "cli.load_config_s",
                          "convex.validate_s", "density.to_quantiles_s"}


def test_traced_names_resolve():
    # the targets are tuples (module, "name", ...) whose module is imported
    # with ``from wflow import ...``
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    modules = {alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.module == "wflow"
               for alias in node.names}
    targets = [(node.elts[0].id, node.elts[1].value)
               for node in ast.walk(tree)
               if isinstance(node, ast.Tuple) and len(node.elts) >= 2
               and isinstance(node.elts[0], ast.Name)
               and node.elts[0].id in modules
               and isinstance(node.elts[1], ast.Constant)
               and isinstance(node.elts[1].value, str)]
    assert targets
    for module, name in targets:
        assert callable(getattr(importlib.import_module(f"wflow.{module}"),
                                name, None)), f"{module}.{name}"
