"""The preset map: every preset, potential and initial profile on one grid.

Each cell runs one config the way ``wflow run`` does: it parses and checks
the config, runs the scheme and audits the trajectory with the ledger.  Every
cell exits 0 with the ledger passing unless ``FAILING`` names it, with the
ledger flag that fails, the step and reason Newton stopped at, or a config
error.  A fix removes cells from ``FAILING``; a change that makes any other
cell fail, or a pinned cell fail in another way, fails this test.
"""

import itertools
import json

from wflow import diagnostics
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


def outcome(path) -> str:
    """What ``wflow run`` makes of one config: ``ok``, ``config error``, the
    failing ledger flags, or the step and reason Newton stopped."""
    try:
        cfg = load_config(path)
        problem = cfg.problem()
    except WflowError:
        return "config error"
    try:
        traj = run_scheme(problem, cfg.initial_density(), cfg.T)
    except WflowError as exc:
        step = str(exc).split(" failed: ")[0]
        return f"{step}: {str(exc).rsplit(': ', 1)[1]}"
    led = diagnostics.ledger(problem, traj)
    return ",".join(f.name for f in led.flags if not f.passed) or "ok"


def test_preset_map_fails_only_in_its_pinned_cells(tmp_path):
    assert len(FAILING) == 9 + 35
    got = {}
    for cell in itertools.product(PRESETS, POTENTIALS, PROFILES):
        preset, potential, profile = cell
        raw = {**PRESETS[preset], **GRID, "rho0": PROFILES[profile]}
        if POTENTIALS[potential] is not None:
            raw["potential"] = POTENTIALS[potential]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        got[cell] = outcome(path)
    failing = {cell: out for cell, out in got.items() if out != "ok"}
    assert failing == FAILING
    assert len(got) - len(failing) == 64
