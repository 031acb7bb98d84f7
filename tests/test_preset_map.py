"""The preset map: every preset, potential and initial profile on one grid.

Each cell runs one config the way ``wflow run`` does: it parses and checks
the config, runs the scheme and audits the trajectory with the ledger.  Every
cell exits 0 with the ledger passing unless ``FAILING`` names it, with the
ledger flag that fails, the step and reason Newton stopped at, or a config
error.  A fix removes cells from ``FAILING``; a change that makes any other
cell fail, or a pinned cell fail in another way, fails this test.

The finite-difference reference solves every valid cell as ``wflow
crosscheck`` builds it, on the same grid with the step ``h``.  It fails only
in the cells ``REFERENCE_FAILING`` names, with the message it stops with.  On
every other cell where the scheme also finishes, the final L1 gap between the
two stays within crosscheck's default threshold of 1e-2.
"""

import itertools
import json

import pytest

from wflow import diagnostics, refsolve
from wflow.cli import load_config
from wflow.errors import WflowError
from wflow.jko import run_scheme

PRESETS = {
    "fokker-planck": {"preset": "fokker-planck"},
    "porous-medium m=1.5": {"preset": "porous-medium", "exponent_m": 1.5},
    "porous-medium m=2": {"preset": "porous-medium", "exponent_m": 2.0},
    "porous-medium m=4": {"preset": "porous-medium", "exponent_m": 4.0},
    "fast-diffusion m=0.5": {"preset": "fast-diffusion", "exponent_m": 0.5},
    "fast-diffusion m=0.8": {"preset": "fast-diffusion", "exponent_m": 0.8},
    "p-laplacian p=1.7": {"preset": "p-laplacian", "exponent_p": 1.7},
    "p-laplacian p=2.5": {"preset": "p-laplacian", "exponent_p": 2.5},
    "p-laplacian p=3": {"preset": "p-laplacian", "exponent_p": 3.0},
    "p-laplacian p=4": {"preset": "p-laplacian", "exponent_p": 4.0},
    "doubly-degenerate p=3 n=1": {"preset": "doubly-degenerate",
                                  "exponent_p": 3.0, "exponent_n": 1.0},
    "doubly-degenerate p=1.5 n=1": {"preset": "doubly-degenerate",
                                    "exponent_p": 1.5, "exponent_n": 1.0},
}
POTENTIALS = {
    "no V": None,
    "x^2/2": {"kind": "quadratic", "kappa": 1.0, "center": 0.0},
    "15(x-1/2)^2": {"kind": "quadratic", "kappa": 30.0, "center": 0.5},
}
PROFILES = {
    "cosine": {"profile": "cosine", "amplitude": 0.5},
    "gaussian": {"profile": "gaussian", "width": 0.1, "floor": 0.01},
    "uniform": {"profile": "uniform"},
}
GRID = {"domain_a": 0.0, "domain_b": 1.0, "n": 128, "m": 128, "h": 1e-2,
        "T": 0.5}

CP = "comparison-principle"
# The comparison-principle cells with a potential fail a flag that caps later
# maxima at the initial one, which a confining V rightly raises; the two
# porous-medium cells without V have end nodes that leave the walls at step
# 1; the p = 4 cell cycles at the kink of |v|^(4/3) at v = 0; and p = 1.5,
# n = 1 lies outside the doubly-degenerate window.
FAILING = {
    **{(preset, potential, profile): CP
       for preset in PRESETS if preset != "doubly-degenerate p=1.5 n=1"
       for potential, profile in (("x^2/2", "uniform"),
                                  ("15(x-1/2)^2", "uniform"),
                                  ("15(x-1/2)^2", "cosine"))
       if (preset, potential, profile) != ("porous-medium m=4",
                                           "15(x-1/2)^2", "cosine")},
    ("porous-medium m=2", "no V", "gaussian"): CP,
    ("porous-medium m=4", "no V", "gaussian"): CP,
    ("p-laplacian p=4", "x^2/2", "gaussian"):
        "step 37: newton_max_iter reached",
    **{("doubly-degenerate p=1.5 n=1", potential, profile): "config error"
       for potential in POTENTIALS for profile in PROFILES},
}

STEEP = "15(x-1/2)^2"
# Newton stops on 18 cells with "negative iterates clamped", 16 of them with
# the steep potential; for p = 1.7 the flux |s|^(p-2) s has unbounded slope
# at s = 0, so Newton's model is poor wherever F'(rho) + V is flat
CLAMPED = "(negative iterates clamped)"
REFERENCE_FAILING = {
    ("porous-medium m=2", STEEP, "cosine"): f"Newton stalled at step 4 {CLAMPED}",
    ("porous-medium m=2", STEEP, "gaussian"): f"Newton stalled at step 2 {CLAMPED}",
    ("porous-medium m=2", STEEP, "uniform"): f"Newton stalled at step 3 {CLAMPED}",
    ("porous-medium m=4", "no V", "gaussian"):
        f"Newton stalled at step 1 {CLAMPED}",
    ("porous-medium m=4", "x^2/2", "gaussian"):
        f"Newton stalled at step 1 {CLAMPED}",
    ("porous-medium m=4", STEEP, "cosine"): f"Newton stalled at step 2 {CLAMPED}",
    ("porous-medium m=4", STEEP, "gaussian"): f"Newton stalled at step 1 {CLAMPED}",
    ("porous-medium m=4", STEEP, "uniform"): f"Newton stalled at step 1 {CLAMPED}",
    ("p-laplacian p=1.7", "no V", "cosine"):
        "Newton ran out of iterations at step 3",
    ("p-laplacian p=1.7", "no V", "gaussian"): "Newton stalled at step 1",
    ("p-laplacian p=1.7", "x^2/2", "cosine"): "Newton stalled at step 8",
    ("p-laplacian p=1.7", "x^2/2", "gaussian"): "Newton stalled at step 14",
    ("p-laplacian p=1.7", "x^2/2", "uniform"): "Newton stalled at step 11",
    ("p-laplacian p=1.7", STEEP, "cosine"): "Newton stalled at step 3",
    ("p-laplacian p=1.7", STEEP, "gaussian"): "Newton stalled at step 6",
    ("p-laplacian p=1.7", STEEP, "uniform"): "Newton stalled at step 4",
    ("p-laplacian p=2.5", STEEP, "gaussian"): f"Newton stalled at step 3 {CLAMPED}",
    ("p-laplacian p=3", STEEP, "cosine"): f"Newton stalled at step 3 {CLAMPED}",
    ("p-laplacian p=3", STEEP, "gaussian"): f"Newton stalled at step 2 {CLAMPED}",
    ("p-laplacian p=3", STEEP, "uniform"): f"Newton stalled at step 3 {CLAMPED}",
    ("p-laplacian p=4", STEEP, "cosine"): f"Newton stalled at step 2 {CLAMPED}",
    ("p-laplacian p=4", STEEP, "gaussian"): f"Newton stalled at step 1 {CLAMPED}",
    ("p-laplacian p=4", STEEP, "uniform"): f"Newton stalled at step 2 {CLAMPED}",
    ("doubly-degenerate p=3 n=1", STEEP, "cosine"):
        f"Newton stalled at step 3 {CLAMPED}",
    ("doubly-degenerate p=3 n=1", STEEP, "gaussian"):
        f"Newton stalled at step 2 {CLAMPED}",
    ("doubly-degenerate p=3 n=1", STEEP, "uniform"):
        f"Newton stalled at step 3 {CLAMPED}",
}


def run(path):
    """What ``wflow run`` makes of one config: ``ok``, ``config error``, the
    failing ledger flags, or the step and reason Newton stopped; with the
    parsed config (None on a config error) and the scheme's trajectory
    (None unless the scheme finished)."""
    try:
        cfg = load_config(path)
        problem = cfg.problem()
    except WflowError:
        return "config error", None, None
    try:
        traj = run_scheme(problem, cfg.rho0, cfg.T)
    except WflowError as exc:
        step = str(exc).split(" failed: ")[0]
        return f"{step}: {str(exc).rsplit(': ', 1)[1]}", cfg, None
    led = diagnostics.ledger(problem, traj)
    return ",".join(f.name for f in led.flags if not f.passed) or "ok", cfg, traj


@pytest.fixture(scope="module")
def preset_map(tmp_path_factory):
    """``run`` of every cell, run once for both tests."""
    path = tmp_path_factory.mktemp("preset-map") / "cfg.json"
    got = {}
    for cell in itertools.product(PRESETS, POTENTIALS, PROFILES):
        preset, potential, profile = cell
        raw = {**PRESETS[preset], **GRID, "rho0": PROFILES[profile]}
        if POTENTIALS[potential] is not None:
            raw["potential"] = POTENTIALS[potential]
        path.write_text(json.dumps(raw))
        got[cell] = run(path)
    return got


def test_preset_map_fails_only_in_its_pinned_cells(preset_map):
    assert len(FAILING) == 9 + 35
    failing = {cell: out for cell, (out, _, _) in preset_map.items()
               if out != "ok"}
    assert failing == FAILING
    assert len(preset_map) - len(failing) == 64


def test_reference_fails_only_in_its_pinned_cells(preset_map):
    failing, gaps = {}, {}
    for cell, (_, cfg, traj) in preset_map.items():
        if cfg is None:
            continue
        try:
            fd = refsolve.fd_solve(cfg.cost, cfg.energy, cfg.potential,
                                   cfg.domain, cfg.rho0, cfg.T,
                                   refsolve.FdConfig(n=cfg.n, dt=cfg.h))
        except WflowError as exc:
            failing[cell] = str(exc)
            continue
        if traj is not None:
            gaps[cell] = diagnostics.compare(traj, fd).l1_final
    assert failing == REFERENCE_FAILING
    assert len(gaps) == 72
    assert {cell: gap for cell, gap in gaps.items() if not gap <= 1e-2} == {}
