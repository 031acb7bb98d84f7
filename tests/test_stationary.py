"""Runs driven to, or near, their stationary state.

Each preset runs on [0, 1] from 1 + cos(pi x)/2, with no potential and with
V = x^2/2, for 500 steps of h = 1e-2 on m = n = 64 cells.  Every run must
finish with the ledger passing.  A run that reaches the bit-exact fixed point
(a step that returns the nodes it started from) must stay there: every later
snapshot is the same object and every later step takes 0 iterations.  The
runs named in ``REACHES_FIXED_POINT`` must reach it; the others may.

The configs are a fixed list, not Hypothesis draws: a derandomized
Hypothesis test draws literals from every loaded module, so what it tests
would depend on which files the suite collects.
"""

import json

import pytest

from wflow import diagnostics
from wflow.cli import load_config
from wflow.jko import run_scheme

PRESETS = {
    "fokker-planck": {"preset": "fokker-planck"},
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
}
POTENTIALS = {
    "no V": None,
    "x^2/2": {"kind": "quadratic", "kappa": 1.0, "center": 0.0},
}
GRID = {"domain_a": 0.0, "domain_b": 1.0, "n": 64, "m": 64, "h": 1e-2,
        "T": 5.0,
        "rho0": {"profile": "cosine", "amplitude": 0.5, "frequency": 0.5}}
# the slowest, fast-diffusion m = 0.5 without V, reaches it at step 369 of
# 500; the p-laplacian runs with p >= 2.5 and the doubly-degenerate ones
# keep taking Newton iterations to the end
REACHES_FIXED_POINT = {
    (preset, potential) for potential in POTENTIALS
    for preset in ("fokker-planck", "porous-medium m=2", "porous-medium m=4",
                   "fast-diffusion m=0.5", "fast-diffusion m=0.8",
                   "p-laplacian p=1.7")}


@pytest.mark.parametrize("potential", POTENTIALS)
@pytest.mark.parametrize("preset", PRESETS)
def test_run_settles_with_the_ledger_passing(tmp_path, preset, potential):
    raw = {**PRESETS[preset], **GRID}
    if POTENTIALS[potential] is not None:
        raw["potential"] = POTENTIALS[potential]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    problem = cfg.problem()
    traj = run_scheme(problem, cfg.rho0, cfg.T)
    assert len(traj.densities) == 501
    assert diagnostics.ledger(problem, traj).all_pass

    snaps = traj.densities
    settled = next((k for k in range(2, len(snaps))
                    if snaps[k] is snaps[k - 1]), None)
    if (preset, potential) in REACHES_FIXED_POINT:
        assert settled is not None
    if settled is not None:
        assert all(rho is snaps[settled] for rho in snaps[settled:])
        assert all(d.iterations == 0 for d in traj.diagnostics[settled - 1:])
