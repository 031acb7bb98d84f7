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


def _run_targets(namespace: dict) -> list:
    """``run.py``'s trace targets, the list ``Bench`` assigns to
    ``self.targets``, built over the modules in ``namespace``."""
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    value = next(node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Assign)
                 and any(isinstance(t, ast.Attribute) and t.attr == "targets"
                         for t in node.targets))
    return eval(compile(ast.Expression(value), "run.py", "eval"), namespace)


def test_every_workload_config_loads(tmp_path):
    # no workload config carries a key that its preset does not read
    from wflow import cli

    workloads = perfbench_module("workloads")
    for name, wl in workloads.WORKLOADS.items():
        (tmp_path / name).mkdir()
        cfg = cli.load_config(workloads.write_inputs(wl, 0, tmp_path / name))
        assert cfg.label == wl.config["preset"]


def test_traced_run_records_each_solved_step_and_rasterization(tmp_path):
    # run.py times the scheme through the module bindings it wraps: a run
    # that bypassed them would empty the per-layer table without an error.
    # This run reaches its fixed point, after which no step is solved.
    from wflow import cli, diagnostics, jko, refsolve

    spans = perfbench_module("spans")
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({
        "preset": "fokker-planck", "domain_a": -1.0, "domain_b": 1.0,
        "potential": {"kind": "quadratic", "kappa": 1.0, "center": 0.0},
        "n": 32, "m": 32, "h": 0.05, "T": 10.0,
        "rho0": {"profile": "cosine", "amplitude": 0.3, "frequency": 0.5}}))
    cfg = cli.load_config(config)
    traj = jko.run_scheme(cfg.problem(), cfg.initial_density(), cfg.T)
    solved = len({id(rho) for rho in traj.densities[1:]})
    assert solved < len(traj.diagnostics)
    tracer = spans.Tracer()
    targets = _run_targets({"cli": cli, "diagnostics": diagnostics,
                            "jko": jko, "refsolve": refsolve})
    with tracer.patched(targets):
        assert cli.main(["run", "--config", str(config),
                         "--out", str(tmp_path / "out")]) == 0
    names = [s.name for s in tracer.spans]
    assert names.count("jko.run_scheme") == 1
    steps = [s for s in tracer.spans if s.name == "jko.step"]
    assert [s.count for s in steps] == \
        [d.iterations for d in traj.diagnostics[:solved]]
    assert names.count("density.rasterize") == solved


def test_verify_reads_the_artifacts_of_a_fixed_point_run(tmp_path):
    # seed-0 fp-readme reaches its fixed point about halfway, so most of the
    # steps after it reach the writer as their time alone; the benchmark's
    # check reads the final state off the end of trajectory.csv
    from wflow import cli

    workloads = perfbench_module("workloads")
    wl = workloads.WORKLOADS["fp-readme"]
    config = workloads.write_inputs(wl, 0, tmp_path)
    out = tmp_path / "out"
    assert cli.main([wl.command, "--config", str(config),
                     "--out", str(out)]) == 0
    rundir, = out.iterdir()
    rows = (rundir / "trajectory.csv").read_text().splitlines()
    cfg = cli.load_config(config)
    assert len(rows) == 1 + (round(cfg.T / cfg.h) + 1) * cfg.n
    verdict = workloads.verify(wl, config, out)
    assert verdict.ok, verdict
