import contextlib
import io
import dataclasses
import errno
import json
import math
import os
import signal
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wflow import cli, diagnostics, jko, refsolve
from wflow.cli import (
    CONFIG_KEYS,
    MAX_DOMAIN,
    MAX_EXPONENT,
    MAX_GRID,
    MAX_NEWTON_ITER,
    MAX_POTENTIAL,
    MAX_WORK,
    cmd_crosscheck,
    cmd_oracle,
    cmd_run,
    cmd_study,
    config_hash,
    load_config,
    diagnostics_to_jsonl,
    main,
    trajectory_to_csv,
)
from wflow.convex import PotentialSpec
from wflow.density import (Domain, GridDensity, csv_rows, density_to_csv,
                           float_cells, normalize)
from wflow.errors import ConvergenceError, ParameterError, SchemeAbortError
from wflow.jko import SchemeTrajectory, run_scheme


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps the processes it starts, and closes the descriptors
    it opens: run forks one child and crosscheck two, each with two pipes."""
    fds = Path("/proc/self/fd")
    before = len(os.listdir(fds)) if fds.is_dir() else None
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if before is not None:
        assert len(os.listdir(fds)) == before


@pytest.fixture
def outroot(tmp_path, monkeypatch):
    """The default output root, ``out`` in the working directory."""
    monkeypatch.chdir(tmp_path)
    return tmp_path / "out"


def write_config(tmp_path, name="cfg.json", **overrides):
    cfg = {
        "preset": "fokker-planck",
        "potential": {"kind": "zero"},
        "domain_a": 0.0,
        "domain_b": 1.0,
        "n": 64,
        "m": 64,
        "h": 1e-2,
        "T": 0.05,
        "rho0": {"profile": "cosine", "amplitude": 0.4},
    }
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def test_load_config_presets(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path)
    assert cfg.cost.q == 2.0
    assert cfg.n == 64
    assert cfg.label == "fokker-planck"


MALFORMED_CONFIGS = {
    "n-null": json.dumps({"preset": "fokker-planck", "n": None}),
    "tabulated-without-table": json.dumps(
        {"preset": "fokker-planck", "potential": {"kind": "tabulated"}}),
    "cost-term-not-a-pair": json.dumps(
        {"cost_terms": [1], "energy_terms": [{"kind": "entropy"}]}),
    "energy-term-not-an-object": json.dumps(
        {"cost_terms": [[1.0, 2.0]], "energy_terms": [1]}),
    "not-json": "{\"preset\": ",
    "not-an-object": json.dumps(["preset", "fokker-planck"]),
}


@pytest.mark.parametrize("text", MALFORMED_CONFIGS.values(),
                         ids=MALFORMED_CONFIGS.keys())
def test_load_config_malformed_raises_parameter_error(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ParameterError, match="malformed config"):
        load_config(path)


@pytest.mark.parametrize("command", ["run", "study", "crosscheck"])
@pytest.mark.parametrize("text", MALFORMED_CONFIGS.values(),
                         ids=MALFORMED_CONFIGS.keys())
def test_malformed_config_exits_1(tmp_path, outroot, capsys, text, command):
    path = tmp_path / "bad.json"
    path.write_text(text)
    argv = [command, "--config", str(path)]
    if command == "study":
        argv += ["--values", "0.05,0.025,0.0125,0.00625"]
    assert main(argv) == 1  # an uncaught exception would fail the test here
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


# valid JSON whose values the config check must reject: preset parameters on
# the boundary of their window, and initial data the scheme cannot start from.
# Each case names a fragment of the message it must fail with, so that no
# earlier, unrelated check can reject it in its place.
REJECTED_CONFIGS = {
    "p-laplacian-p-3/2": ({"preset": "p-laplacian", "exponent_p": 1.5},
                          "p = 1.5 gives m = 0.0 < 1/q"),
    "p-laplacian-p-1": ({"preset": "p-laplacian", "exponent_p": 1.0},
                        "p-laplacian preset needs p >= (1 + sqrt 5)/2"),
    "porous-medium-m-1": ({"preset": "porous-medium", "exponent_m": 1.0},
                          "porous-medium preset needs m > 1"),
    "porous-medium-without-m": ({"preset": "porous-medium"},
                                "porous-medium preset needs m > 1"),
    "doubly-degenerate-p-1": ({"preset": "doubly-degenerate",
                               "exponent_p": 1.0, "exponent_n": 1.0},
                              "doubly-degenerate preset needs p > 1"),
    "doubly-degenerate-m-0": ({"preset": "doubly-degenerate",
                               "exponent_p": 3.0, "exponent_n": -0.5},
                              "doubly-degenerate preset needs n >= 1/(p(p-1))"),
    "doubly-degenerate-without-n": ({"preset": "doubly-degenerate",
                                     "exponent_p": 3.0},
                                    "doubly-degenerate preset needs n and p"),
    "zero-cell-without-floor": ({"rho0": "zero-cell.csv"},
                                "initial density has zero cells"),
    # a rho0 file on 32 cells for a grid of n = 64
    "rho0-file-on-another-grid": ({"rho0": "32-cells.csv"},
                                  "initial density file does not match the "
                                  "configured grid"),
    "floor-delta-0": ({"floor_delta": 0},
                      "floor_delta must be > 0 with a finite floored mass, "
                      "got 0.0"),
    # a floor whose floored mass overflows: the run wrote config.json, then
    # exited 2 on a mass of 0 (after an overflow warning) or on inf values
    "floor-delta-huge": ({"floor_delta": 1e308},
                         "floor_delta must be > 0 with a finite floored mass, "
                         "got 1e+308"),
    "floor-delta-inf": ({"floor_delta": float("inf")},
                        "floor_delta must be > 0 with a finite floored mass, "
                        "got inf"),
    # T = 0.001 is under half of h = 0.01 and of every step size study tries
    "horizon-under-half-step": ({"T": 0.001}, "horizon T = 0.001 with step"),
    "unknown-key": ({"bogus_key": 1}, "unknown config key(s): bogus_key"),
    "retired-solver-key": ({"fista_max_iter": 100000},
                           "unknown config key(s): fista_max_iter"),
    # the output root is the --out option alone
    "retired-output-dir-key": ({"output_dir": "elsewhere"},
                               "unknown config key(s): output_dir"),
    # misspelled nested keys: each run used the key's default
    "profile-key-misspelled": ({"rho0": {"profile": "gaussian",
                                         "widht": 0.05}},
                               "unknown gaussian profile key(s): widht"),
    "potential-key-misspelled": ({"potential": {"kind": "quadratic",
                                                "kapa": 5}},
                                 "unknown potential key(s): kapa"),
    "profile-name-key-misspelled": ({"rho0": {"profle": "cosine"}},
                                    "unknown uniform profile key(s): profle"),
    "energy-term-key-misspelled": (
        {"preset": None, "cost_terms": [[0.5, 2.0]],
         "energy_terms": [{"kind": "power", "exponent": 2, "coef": 3}]},
        "unknown energy term key(s): coef"),
    # a negative cap never stops Newton; a NaN or negative tolerance made
    # every step fail as a solver error
    "newton-max-iter-negative": ({"newton_max_iter": -1},
                                 "newton_max_iter must be >= 0"),
    # Newton that cycles on round-off runs to the cap, so a cap over
    # MAX_NEWTON_ITER let one config grind for days
    "newton-max-iter-over-cap": ({"newton_max_iter": 10**9},
                                 "newton_max_iter 1000000000 is over the cap"),
    "solver-tol-nan": ({"solver_tol": float("nan")},
                       "solver tolerance must be finite and > 0, got nan"),
    "solver-tol-negative": ({"solver_tol": -1.0},
                            "solver tolerance must be finite and > 0, got -1"),
    # grid sizes are integral JSON numbers in [1, MAX_GRID]: a bool, string
    # or fraction must not be coerced, nor a size numpy cannot allocate tried
    "n-bool": ({"n": True}, "n must be an integer, got True"),
    "n-string": ({"n": "64"}, "n must be an integer, got '64'"),
    "n-fraction": ({"n": 64.9}, "n must be an integer, got 64.9"),
    "n-zero": ({"n": 0}, "n must be an integer in [1, 65536], got 0"),
    "n-over-cap": ({"n": MAX_GRID + 1},
                   "n must be an integer in [1, 65536], got 65537"),
    "m-bool": ({"m": True}, "m must be an integer, got True"),
    "m-fraction": ({"m": 64.9}, "m must be an integer, got 64.9"),
    "m-huge": ({"m": 1e11}, "m must be an integer in [1, 65536]"),
    # the other numeric keys are JSON numbers too, and newton_max_iter an
    # integral one: no bool, string or fraction is coerced
    "newton-max-iter-fraction": ({"newton_max_iter": 2.7},
                                 "newton_max_iter must be an integer, got 2.7"),
    "newton-max-iter-bool": ({"newton_max_iter": True},
                             "newton_max_iter must be an integer, got True"),
    "newton-max-iter-string": ({"newton_max_iter": "40"},
                               "newton_max_iter must be an integer, got '40'"),
    "T-string": ({"T": "0.02"}, "T must be a number, got '0.02'"),
    "h-bool": ({"h": True}, "h must be a number, got True"),
    "solver-tol-string": ({"solver_tol": "1e-9"},
                          "solver_tol must be a number, got '1e-9'"),
    "domain-b-bool": ({"domain_b": True},
                      "domain_b must be a number, got True"),
    # an integer literal too large for a float
    "T-int-over-float-range": ({"T": 10**400},
                               "OverflowError: int too large to convert"),
    # 4001 to 32001 snapshots of 65536 cells, at every step size tried: a
    # held trajectory of (steps + 1) * n values, over MAX_WORK + MAX_GRID
    "held-trajectory-over-cap": ({"n": MAX_GRID, "T": 200.0},
                                 "n = 65536 ask for"),
    # 1200 to 9600 steps of 65536 nodes, at every step size tried: solver
    # work over MAX_WORK
    "solver-work-over-cap": ({"m": MAX_GRID, "T": 60.0}, "m = 65536 ask for"),
    # nested numbers follow the same rule: no bool or string is coerced
    "potential-kappa-bool": ({"potential": {"kind": "quadratic",
                                            "kappa": True}},
                             "potential kappa must be a number, got True"),
    "potential-table-string": ({"potential": {"kind": "tabulated",
                                              "x": [0.0, "1.0"],
                                              "v": [0.0, 1.0]}},
                               "potential x must be a number, got '1.0'"),
    "potential-table-lengths-differ": (
        {"potential": {"kind": "tabulated", "x": [0.0, 0.5, 1.0],
                       "v": [0.0, 1.0]}},
        "tabulated potential needs matching x/v samples"),
    "potential-table-nodes-not-increasing": (
        {"potential": {"kind": "tabulated", "x": [0.0, 0.5, 0.5],
                       "v": [0.0, 0.0, 1.0]}},
        "tabulated potential nodes must increase"),
    "profile-amplitude-string": ({"rho0": {"profile": "cosine",
                                           "amplitude": "0.3"}},
                                 "amplitude must be a number, got '0.3'"),
    # an amplitude of 1 or more starts from a density with a zero or a
    # negative cell
    "profile-amplitude-one": ({"rho0": {"profile": "cosine",
                                        "amplitude": 1.0}},
                              "cosine profile needs amplitude in [0, 1)"),
    # a cosine frequency whose 2*pi*frequency is not finite: cos warned of
    # an invalid value and the run exited 1 on a density that was not
    # finite, naming no field
    "profile-frequency-huge": ({"rho0": {"profile": "cosine",
                                         "frequency": 1e308}},
                               "needs a frequency with 2*pi*frequency "
                               "finite, got 1e+308"),
    "profile-frequency-inf": ({"rho0": {"profile": "cosine",
                                        "frequency": float("inf")}},
                              "2*pi*frequency finite, got inf"),
    "profile-frequency-nan": ({"rho0": {"profile": "cosine",
                                        "frequency": float("nan")}},
                              "2*pi*frequency finite, got nan"),
    # a gaussian floor below 0 or not finite: the same generic message
    "profile-floor-negative": ({"rho0": {"profile": "gaussian",
                                         "floor": -1.0}},
                               "gaussian profile needs a finite floor >= 0, "
                               "got -1.0"),
    "profile-floor-nan": ({"rho0": {"profile": "gaussian",
                                    "floor": float("nan")}},
                          "finite floor >= 0, got nan"),
    "profile-floor-inf": ({"rho0": {"profile": "gaussian",
                                    "floor": float("inf")}},
                          "finite floor >= 0, got inf"),
    "profile-unknown": ({"rho0": {"profile": "triangle"}},
                        "unknown initial profile 'triangle'"),
    "profile-width-bool": ({"rho0": {"profile": "gaussian", "width": True}},
                           "width must be a number, got True"),
    # a gaussian width <= 0 or not finite: width 0 ran as a uniform start
    # when no cell centre sat on the centre and exited 1 on a NaN when one
    # did, and a negative width ran as its absolute value
    "profile-width-zero": ({"rho0": {"profile": "gaussian", "width": 0.0,
                                     "center": 0.02}},
                           "got width 0.0 and center 0.02"),
    "profile-width-zero-on-a-cell-centre": (
        {"rho0": {"profile": "gaussian", "width": 0.0, "center": 0.5 / 64}},
        "got width 0.0 and center 0.0078125"),
    "profile-width-negative": ({"rho0": {"profile": "gaussian",
                                         "width": -0.1}},
                               "got width -0.1 and center 0.5"),
    "profile-width-nan": ({"rho0": {"profile": "gaussian",
                                    "width": float("nan")}},
                          "got width nan and center 0.5"),
    "profile-width-inf": ({"rho0": {"profile": "gaussian",
                                    "width": float("inf")}},
                          "got width inf and center 0.5"),
    # a gaussian centre that is not finite: every exponential was 0, and the
    # run started from the uniform floor without a word
    "profile-center-inf": ({"rho0": {"profile": "gaussian", "width": 0.1,
                                     "center": float("inf")}},
                           "got width 0.1 and center inf"),
    "profile-center-nan": ({"rho0": {"profile": "gaussian", "width": 0.1,
                                     "center": float("nan")}},
                           "got width 0.1 and center nan"),
    # a finite centre so far from the domain that the profile is flat on the
    # grid: the run started from the uniform floor (and 1e300 overflowed)
    "profile-center-far": ({"rho0": {"profile": "gaussian", "width": 0.1,
                                     "center": 2.0}},
                           "the bump at center 2.0 with width 0.1 is lost"),
    "profile-center-huge": ({"rho0": {"profile": "gaussian", "width": 0.1,
                                      "center": 1e300}},
                            "the bump at center 1e+300 with width 0.1 is "
                            "lost"),
    "cost-terms-strings": ({"preset": None, "cost_terms": [["1", "2"]],
                            "energy_terms": [{"kind": "entropy"}]},
                           "cost_terms coefficient must be a number"),
    "energy-coeff-string": ({"preset": None, "cost_terms": [[0.5, 2.0]],
                             "energy_terms": [{"kind": "entropy",
                                               "coeff": "1"}]},
                            "energy_terms coeff must be a number, got '1'"),
    "energy-entropy-coeff-zero": ({"preset": None, "cost_terms": [[0.5, 2.0]],
                                   "energy_terms": [{"kind": "entropy",
                                                     "coeff": 0.0}]},
                                  "entropy coefficient must be > 0"),
    "energy-power-coeff-negative": (
        {"preset": None, "cost_terms": [[0.5, 2.0]],
         "energy_terms": [{"kind": "power", "coeff": -1.0, "exponent": 2.0}]},
        "power coefficient must be > 0"),
    "energy-term-unknown-kind": ({"preset": None, "cost_terms": [[0.5, 2.0]],
                                  "energy_terms": [{"kind": "logarithm"}]},
                                 "unknown energy term"),
    "explicit-without-energy-terms": ({"preset": None,
                                       "cost_terms": [[0.5, 2.0]]},
                                      "explicit configs need energy_terms"),
    "exponent-bool": ({"preset": "doubly-degenerate", "exponent_p": 3.0,
                       "exponent_n": True},
                      "exponent_n must be a number, got True"),
    # energy exponents over MAX_EXPONENT: x^m overflows, and the solver
    # used to exit 2 (porous medium) or 0 with overflow warnings (doubly
    # degenerate, in the reference's flux)
    "preset-exponent-over-cap": ({"preset": "porous-medium",
                                  "exponent_m": 1e300, "n": 16, "m": 16,
                                  "h": 0.02, "T": 0.04},
                                 "energy exponent 1e+300 is over the cap"),
    "preset-derived-exponent-over-cap": (
        {"preset": "doubly-degenerate", "exponent_p": 3.0,
         "exponent_n": 2**63, "rho0": "uniform"},
        "energy exponent 9.223372036854776e+18 is over the cap"),
    "energy-terms-exponent-over-cap": (
        {"preset": None, "cost_terms": [[0.5, 2.0]],
         "energy_terms": [{"kind": "power", "exponent": 1e300}]},
        "energy exponent 1e+300 is over the cap"),
    # a domain beyond MAX_DOMAIN: the profile, the potential and the step
    # Hessian overflow, and the solver used to exit 2
    "domain-over-cap": ({"domain_b": 1e300, "rho0": {"profile": "gaussian"},
                         "potential": {"kind": "quadratic"}},
                        "reaches beyond the cap of 1000000.0"),
    # a potential over MAX_POTENTIAL on the domain: the run used to write
    # every artifact and exit 2 from the ledger (kappa), or exit 2 with "not
    # a descent direction" (center)
    "potential-kappa-over-cap": ({"potential": {"kind": "quadratic",
                                                "kappa": 1e300},
                                  "n": 16, "m": 16, "h": 0.02, "T": 0.04},
                                 "potential reaches 5e+299 on the domain"),
    "potential-center-over-cap": ({"potential": {"kind": "quadratic",
                                                 "kappa": 1.0,
                                                 "center": 1e200},
                                   "n": 16, "m": 16, "h": 0.02, "T": 0.04},
                                  "potential reaches inf on the domain"),
    "potential-table-over-cap": ({"potential": {"kind": "tabulated",
                                                "x": [0.0, 1.0],
                                                "v": [0.0, 1e300]}},
                                 "potential reaches 1e+300 on the domain"),
    "potential-kappa-nan": ({"potential": {"kind": "quadratic",
                                           "kappa": float("nan")}},
                            "quadratic potential needs finite kappa >= 0"),
    # keys the config's preset, explicit terms or kind do not read: each run
    # ran without a word, the key ignored
    "cost-terms-with-a-preset": ({"cost_terms": [[0.5, 2.0]]},
                                 "config key(s) that do not apply to the "
                                 "fokker-planck preset: cost_terms"),
    "energy-terms-with-a-preset": ({"energy_terms": [{"kind": "entropy"}]},
                                   "do not apply to the fokker-planck "
                                   "preset: energy_terms"),
    "exponent-the-preset-does-not-read": ({"exponent_m": 3},
                                          "do not apply to the fokker-planck "
                                          "preset: exponent_m"),
    "exponents-porous-medium-does-not-read": (
        {"preset": "porous-medium", "exponent_m": 2.0, "exponent_p": 3.0,
         "exponent_n": 1.0},
        "do not apply to the porous-medium preset: exponent_p, exponent_n"),
    "exponent-with-explicit-terms": (
        {"preset": None, "cost_terms": [[0.5, 2.0]],
         "energy_terms": [{"kind": "entropy"}], "exponent_m": 2.0},
        "do not apply to explicit cost_terms and energy_terms: exponent_m"),
    "zero-potential-with-kappa": ({"potential": {"kind": "zero",
                                                 "kappa": 5.0}},
                                  "unknown potential key(s): kappa "
                                  "(potential kind 'zero' takes kind)"),
    # a potential without a kind is the zero one
    "kindless-potential-with-kappa": ({"potential": {"kappa": 5.0}},
                                      "unknown potential key(s): kappa"),
    "quadratic-potential-with-a-table": (
        {"potential": {"kind": "quadratic", "x": [0.0, 1.0],
                       "v": [0.0, 1.0]}},
        "unknown potential key(s): v, x (potential kind 'quadratic' takes "
        "kind, kappa, center)"),
    "tabulated-potential-with-kappa": (
        {"potential": {"kind": "tabulated", "x": [0.0, 1.0], "v": [0.0, 1.0],
                       "kappa": 1.0, "center": 0.5}},
        "unknown potential key(s): center, kappa (potential kind 'tabulated' "
        "takes kind, x, v)"),
    "entropy-term-with-an-exponent": (
        {"preset": None, "cost_terms": [[0.5, 2.0]],
         "energy_terms": [{"kind": "entropy", "exponent": 7}]},
        "unknown energy term key(s): exponent (energy term kind 'entropy' "
        "takes kind, coeff)"),
    "potential-kind-unknown": ({"potential": {"kind": "cubic"}},
                               "unrecognized potential description "
                               "{'kind': 'cubic'}"),
    "potential-kind-not-a-string": ({"potential": {"kind": 2}},
                                    "unrecognized potential description "
                                    "{'kind': 2}"),
    "energy-term-kind-not-a-string": (
        {"preset": None, "cost_terms": [[0.5, 2.0]],
         "energy_terms": [{"kind": 1}]},
        "unknown energy term {'kind': 1}"),
    # an infinite parameter (JSON's 1e400 reads as inf): each run wrote
    # config.json, trajectory.csv and diagnostics.jsonl after RuntimeWarnings,
    # then exited 2 with "the Newton system is not finite"
    "cost-coefficient-inf": ({"preset": None,
                              "cost_terms": [[float("inf"), 2.0]],
                              "energy_terms": [{"kind": "entropy"}]},
                             "cost coefficient must be > 0 and finite, "
                             "got inf"),
    "cost-exponent-inf": ({"preset": None,
                           "cost_terms": [[0.5, float("inf")]],
                           "energy_terms": [{"kind": "entropy"}]},
                          "cost exponent must be > 1 and finite, got inf"),
    "energy-entropy-coeff-inf": (
        {"preset": None, "cost_terms": [[0.5, 2.0]],
         "energy_terms": [{"kind": "entropy", "coeff": float("inf")}]},
        "entropy coefficient must be > 0 and finite, got inf"),
    "energy-power-coeff-inf": (
        {"preset": None, "cost_terms": [[0.5, 2.0]],
         "energy_terms": [{"kind": "power", "coeff": float("inf"),
                           "exponent": 2.0}]},
        "power coefficient must be > 0 and finite, got inf"),
}


# the rho0 files named by REJECTED_CONFIGS, as cell values on [0, 1]
RHO0_FILES = {
    "zero-cell.csv": np.where(np.arange(64) == 10, 0.0, 1.0),
    "32-cells.csv": np.ones(32),
}


@pytest.mark.parametrize("command", ["run", "study", "crosscheck"])
@pytest.mark.parametrize("overrides,message", REJECTED_CONFIGS.values(),
                         ids=REJECTED_CONFIGS.keys())
def test_rejected_config_exits_1_before_writing(tmp_path, outroot, capsys,
                                                overrides, message, command):
    name = overrides.get("rho0")
    if isinstance(name, str) and name in RHO0_FILES:
        path = tmp_path / name
        path.write_text(density_to_csv(
            normalize(RHO0_FILES[name], Domain(0.0, 1.0))[0]))
        overrides = {**overrides, "rho0": {"csv": str(path)}}
    path = write_config(tmp_path, **overrides)
    argv = [command, "--config", str(path)]
    if command == "study":
        argv += ["--values", "0.05,0.025,0.0125,0.00625"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err, err
    assert "Traceback" not in err
    for key in set(overrides) - CONFIG_KEYS:
        assert key in err
    assert not outroot.exists()


@pytest.mark.parametrize("n,center", [(64, 1.2), (2, 0.5), (1, 0.5)])
def test_gaussian_profile_off_the_domain_or_on_a_coarse_grid_loads(
        tmp_path, n, center):
    # only a bump lost below the floor in every cell is flat; a centre just
    # outside the domain, or a grid of one cell or two symmetric ones, is not
    path = write_config(tmp_path, n=n, m=64, rho0={
        "profile": "gaussian", "width": 0.1, "center": center})
    assert load_config(path).rho0.n == n


@pytest.mark.parametrize("frequency", [-2.8e307, 2.8e307])
def test_cosine_profile_with_the_largest_frequency_loads(tmp_path,
                                                         frequency):
    # 2*pi*frequency is finite up to about 2.86e307, and cos of a huge
    # finite argument is a number (the suite turns warnings into errors)
    path = write_config(tmp_path, rho0={"profile": "cosine",
                                        "frequency": frequency})
    assert load_config(path).rho0.strictly_positive


@pytest.mark.parametrize("key", ["n", "m"])
def test_grid_size_error_names_key_and_range(tmp_path, key):
    path = write_config(tmp_path, **{key: 1e11})
    with pytest.raises(ParameterError,
                       match=rf"{key} must be an integer in \[1, {MAX_GRID}\]"):
        load_config(path)


def test_exponent_and_domain_caps_accept_their_bounds(tmp_path):
    cfg = load_config(write_config(tmp_path, preset="porous-medium",
                                   exponent_m=MAX_EXPONENT,
                                   domain_a=-MAX_DOMAIN, domain_b=MAX_DOMAIN))
    assert cfg.energy.terms[0][2] == MAX_EXPONENT
    assert (cfg.domain.a, cfg.domain.b) == (-MAX_DOMAIN, MAX_DOMAIN)
    with pytest.raises(ParameterError, match="energy exponent .* over the cap"):
        load_config(write_config(tmp_path, preset="porous-medium",
                                 exponent_m=2.0 * MAX_EXPONENT))
    with pytest.raises(ParameterError, match="beyond the cap"):
        load_config(write_config(tmp_path, domain_a=-2.0 * MAX_DOMAIN))


def test_newton_cap_accepts_its_bound(tmp_path):
    cfg = load_config(write_config(tmp_path, newton_max_iter=MAX_NEWTON_ITER))
    assert cfg.newton_max_iter == MAX_NEWTON_ITER
    assert cfg.problem().newton_max_iter == MAX_NEWTON_ITER
    with pytest.raises(ParameterError, match="newton_max_iter .* over the cap"):
        load_config(write_config(tmp_path, newton_max_iter=MAX_NEWTON_ITER + 1))


def test_potential_cap_accepts_its_bound(tmp_path):
    # kappa (x - c)^2 / 2 peaks at the wall farthest from c; a table at its
    # largest value
    for potential in ({"kind": "quadratic", "kappa": 2.0 * MAX_POTENTIAL,
                       "center": 0.0},
                      {"kind": "tabulated", "x": [0.0, 1.0],
                       "v": [0.0, MAX_POTENTIAL]}):
        load_config(write_config(tmp_path, potential=potential))
        over = dict(potential)
        if "kappa" in over:
            over["center"] = -1e-9
        else:
            over["v"] = [0.0, 2.0 * MAX_POTENTIAL]
        with pytest.raises(ParameterError, match="potential reaches .* over "
                                                 "the cap"):
            load_config(write_config(tmp_path, potential=over))


def test_potential_cap_reads_v_on_the_domain_only(tmp_path):
    # the table climbs to 1e12 at x = -10 but is 0 on all of [0, 1], the
    # domain: the cap reads V there, not the table's largest entry
    cfg = load_config(write_config(tmp_path, potential={
        "kind": "tabulated", "x": [-10.0, 0.0, 1.0], "v": [1e12, 0.0, 0.0]}))
    assert cfg.potential.value((cfg.domain.a, cfg.domain.b)).tolist() == [
        0.0, 0.0]


@pytest.mark.parametrize("potential", [None, "zero", {}, {"kind": "zero"}],
                         ids=["null", "zero", "empty", "kind-zero"])
def test_zero_potential_configs_parse_to_the_flat_quadratic(tmp_path,
                                                            potential):
    cfg = load_config(write_config(tmp_path, potential=potential))
    assert cfg.potential == PotentialSpec.quadratic(kappa=0.0)


def test_grid_sizes_accept_integral_numbers_up_to_the_cap(tmp_path):
    cfg = load_config(write_config(tmp_path, n=64.0, m=MAX_GRID))
    assert (cfg.n, cfg.m) == (64, MAX_GRID)
    assert type(cfg.n) is int


def test_work_cap_on_n_names_the_numbers(tmp_path):
    # 1024 steps of 65536 density cells are exactly MAX_WORK, and hold
    # 1025 * 65536 trajectory values; m stays small, under the cap
    cfg = load_config(write_config(tmp_path, n=MAX_GRID, m=64, h=0.5,
                                   T=512.0))
    assert 1024 * MAX_GRID == MAX_WORK
    cfg.problem()
    with pytest.raises(ParameterError, match=rf"n = {MAX_GRID} ask for 1025 "
                       rf"steps of {MAX_GRID} cells, {MAX_WORK + MAX_GRID}"
                       rf" in all, over the work cap of {MAX_WORK}"):
        cfg.problem(h=512.0 / 1025)


def test_solver_work_cap_names_the_numbers(tmp_path):
    # 1024 steps of 65536 nodes are exactly MAX_WORK
    cfg = load_config(write_config(tmp_path, m=MAX_GRID, h=0.5, T=512.0))
    assert 1024 * MAX_GRID == MAX_WORK
    cfg.problem()
    with pytest.raises(ParameterError, match=rf"m = {MAX_GRID} ask for 1025 "
                       rf"steps of {MAX_GRID} cells, {MAX_WORK + MAX_GRID}"
                       rf" in all, over the work cap of {MAX_WORK}"):
        cfg.problem(h=512.0 / 1025)


@pytest.mark.parametrize("command", ["run", "crosscheck"])
def test_density_grid_work_cap_exits_1_before_writing(tmp_path, outroot,
                                                      capsys, command):
    # 5000 steps of 64 mass cells pass the cap; 5000 steps of 16384 density
    # cells, held by every command and solved by crosscheck's reference, do
    # not
    path = write_config(tmp_path, n=16384, m=64, T=50.0)
    assert main([command, "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert (f"n = 16384 ask for 5000 steps of 16384 cells, 81920000 in "
            f"all, over the work cap of {MAX_WORK}") in err
    assert not outroot.exists()


def test_unknown_config_key_is_named(tmp_path):
    path = write_config(tmp_path, bogus_key=1, another=2, force=True)
    with pytest.raises(ParameterError, match="another, bogus_key, force"):
        load_config(path)


@pytest.mark.parametrize("overrides,check", [
    ({"preset": None, "cost_terms": [[0.5, 2.0]],
      "energy_terms": [{"kind": "power", "exponent": 0.3}]},
     "energy-power-range (m = 0.3 < 1/q = 0.5)"),
    ({"potential": {"kind": "tabulated", "x": [0.25, 0.75], "v": [1.0, 0.0]}},
     "potential-convexity (table end x = 0.25 "),
], ids=["power-below-1-over-q", "table-end-concave-kink"])
def test_coupled_assumption_failure_exits_1(tmp_path, outroot, capsys,
                                            overrides, check):
    path = write_config(tmp_path, **overrides)
    assert main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and check in err
    assert not outroot.exists()


@pytest.mark.parametrize("overrides,window", [
    ({"preset": "p-laplacian", "exponent_p": 1.6}, "sqrt 5"),
    ({"preset": "doubly-degenerate", "exponent_p": 3.0, "exponent_n": 0.1},
     r"n >= 1/\(p\(p-1\)\)"),
])
def test_preset_below_its_window_names_it(tmp_path, overrides, window):
    # accepted by the preset window before, then refused by the
    # energy-power-range check with no word on which parameters would pass
    path = write_config(tmp_path, **overrides)
    with pytest.raises(ParameterError, match=window):
        load_config(path)


def test_config_accepts_every_key_it_reads(tmp_path):
    path = write_config(tmp_path, exponent_m=None, exponent_p=None,
                        exponent_n=None, cost_terms=None, energy_terms=None,
                        floor_delta=1e-3, solver_tol=1e-8, newton_max_iter=40)
    cfg = load_config(path)
    assert (cfg.tol, cfg.newton_max_iter) == (1e-8, 40)


def test_crosscheck_small_grid_exits_1_before_running(tmp_path, outroot,
                                                      capsys):
    path = write_config(tmp_path, n=8, m=8)
    assert main(["crosscheck", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "config error" in err and "n >= 16" in err
    assert not outroot.exists()


@pytest.mark.parametrize("values", [
    "-0.005,0.04,0.02,0.01", "0.04,0.02,0.01,-0.005", "0.04,0.02,0.01,0",
    "0.2,0.1,0.05,0.025",  # T = 0.05 is under half of h = 0.2
    "0.02,0.019,0.01,0.005",  # not geometrically spaced
    "0.04,0.02,0.01"])  # a rate fit needs at least 4
def test_study_checks_every_step_size_before_running(tmp_path, outroot,
                                                     capsys, monkeypatch,
                                                     values):
    runs = []
    monkeypatch.setattr(cli, "run_scheme", lambda *args: runs.append(args))
    path = write_config(tmp_path)
    assert main(["study", "--config", str(path), f"--values={values}"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not outroot.exists()
    assert runs == []


@pytest.mark.parametrize("threshold", ["nan", "-1", "inf"])
def test_crosscheck_threshold_must_be_finite_and_nonnegative(
        tmp_path, outroot, capsys, threshold):
    path = write_config(tmp_path)
    assert main(["crosscheck", "--config", str(path),
                 f"--threshold={threshold}"]) == 1
    assert "config error: threshold" in capsys.readouterr().err
    assert not outroot.exists()


def test_config_hash_stable(tmp_path):
    path = write_config(tmp_path)
    cfg = load_config(path)
    assert config_hash(cfg.raw) == config_hash(json.loads(path.read_text()))
    assert len(config_hash(cfg.raw)) == 12


def test_run_writes_artifacts_and_passes(tmp_path, outroot):
    path = write_config(tmp_path)
    code = cmd_run(str(path))
    assert code == 0
    rundirs = list(outroot.iterdir())
    assert len(rundirs) == 1
    files = {p.name for p in rundirs[0].iterdir()}
    assert {"trajectory.csv", "diagnostics.jsonl", "report.json",
            "config.json"} <= files
    report = json.loads((rundirs[0] / "report.json").read_text())
    assert report["ledger"]["all_pass"] is True
    # per-step records and flags are written once, in diagnostics.jsonl and
    # ledger.flags
    assert "flags" not in report and "steps" not in report["ledger"]
    lines = (rundirs[0] / "diagnostics.jsonl").read_text().strip().splitlines()
    assert len(lines) == 5
    rec = json.loads(lines[0])
    assert set(rec) == {"W_value", "E_internal_before", "E_internal_after",
                        "E_free_before", "E_free_after", "second_moment",
                        "dissipation", "kkt_residual", "iterations"}


def test_run_byte_identical(tmp_path, outroot):
    path = write_config(tmp_path)
    assert cmd_run(str(path)) == 0
    rundir = next(outroot.iterdir())
    first = {p.name: p.read_bytes() for p in rundir.iterdir()}
    assert cmd_run(str(path)) == 0
    second = {p.name: p.read_bytes() for p in rundir.iterdir()}
    assert first == second


def test_p_laplacian_at_p_2_runs_as_fokker_planck(tmp_path, outroot):
    # p = 2 steps the p-laplacian preset down to the heat equation, so its
    # run writes the fokker-planck run's artifacts, byte for byte
    runs = []
    for preset, exponents in (("fokker-planck", {}),
                              ("p-laplacian", {"exponent_p": 2.0})):
        path = write_config(tmp_path, name=f"{preset}.json", preset=preset,
                            n=32, m=32, T=0.2, **exponents)
        assert cmd_run(str(path)) == 0
        rundir = next(outroot.glob(f"{preset}_*"))
        runs.append([(rundir / name).read_bytes() for name in
                     ("trajectory.csv", "diagnostics.jsonl", "report.json")])
    assert runs[0] == runs[1]


def test_run_rejects_invalid_exponent(tmp_path, outroot):
    path = write_config(tmp_path, cost_terms=[[1.0, 1.0]], preset=None,
                        energy_terms=[{"kind": "entropy"}])
    assert cmd_run(str(path)) == 1


def test_run_solver_failure_exits_2_with_partial(tmp_path, outroot):
    path = write_config(tmp_path, newton_max_iter=0)
    assert cmd_run(str(path)) == 2
    rundir = next(outroot.iterdir())
    files = {p.name for p in rundir.iterdir()}
    assert "trajectory.csv" in files  # partial trajectory still written
    text = (rundir / "trajectory.csv").read_text()
    assert text.startswith("t,x,rho")
    # only whole rows: the header, then n rows per written snapshot
    steps = (rundir / "diagnostics.jsonl").read_text().count("\n")
    assert text.endswith("\n")
    assert text.count("\n") == 1 + 64 * (1 + steps)
    # the streamed file is the partial trajectory's, byte for byte
    cfg = load_config(path)
    with pytest.raises(SchemeAbortError) as info:
        run_scheme(cfg.problem(), cfg.rho0, cfg.T)
    diff = first_line_difference(text, csv_text(info.value.partial))
    assert diff is None, diff


@pytest.mark.xfail(strict=True, raises=SchemeAbortError,
                   reason="on [0, 1e-5] Newton stops at step 1 just above the "
                          "KKT tolerance; the cause is not known")
def test_run_certifies_the_diffusive_rescaling_of_a_unit_run(tmp_path):
    # x -> L x, t -> L^2 t carries the heat flow on [0, 1] onto [0, L]: the
    # run on [0, 1e-5] with h = 1e-12 is the one on [0, 1] with h = 1e-2 in
    # other units, and that run certifies every step (so does L = 1e-4)
    for L, h, T in [(1.0, 1e-2, 0.2), (1e-4, 1e-10, 2e-9),
                    (1e-5, 1e-12, 2e-11)]:
        cfg = load_config(write_config(
            tmp_path, domain_b=L, h=h, T=T,
            rho0={"profile": "cosine", "amplitude": 0.3}))
        traj = run_scheme(cfg.problem(), cfg.rho0, cfg.T)
        assert len(traj.times) == 21


def test_failed_rerun_removes_the_earlier_report(tmp_path, outroot, capsys):
    # the run directory is named by the config, whose hash covers the path
    # of rho0's file but not its bytes; from a nearly flat start Newton stops
    # at step 1, and the earlier run's passing report.json must not stay
    # beside the new partial trajectory
    dom = Domain(0.0, 1.0)
    csv_path = tmp_path / "rho0.csv"
    path = write_config(tmp_path, preset="p-laplacian", exponent_p=3.0, n=16,
                        m=8, h=0.015625, T=0.03125, rho0={"csv": str(csv_path)})
    for amplitude, code in ((0.4, 0), (1e-8, 2)):
        rho0 = 1.0 + amplitude * np.cos(np.pi * dom.centers(16))
        csv_path.write_text(density_to_csv(normalize(rho0, dom)[0]))
        assert cmd_run(str(path)) == code
    assert "newton_max_iter reached" in capsys.readouterr().err
    rundir, = outroot.iterdir()
    assert sorted(p.name for p in rundir.iterdir()) == [
        "config.json", "diagnostics.jsonl", "trajectory.csv"]


def test_run_missing_rho0_csv(tmp_path, outroot):
    path = write_config(tmp_path, rho0={"csv": str(tmp_path / "nope.csv")})
    assert cmd_run(str(path)) == 1


def test_run_with_rho0_csv_roundtrip(tmp_path, outroot):
    from wflow.density import (Domain, GridDensity, csv_rows, density_to_csv,
                           float_cells, normalize)

    xc = Domain(0.0, 1.0).centers(64)
    rho, _ = normalize(1.0 + 0.3 * np.cos(2 * np.pi * xc), Domain(0.0, 1.0))
    csv_path = tmp_path / "rho0.csv"
    csv_path.write_text(density_to_csv(rho))
    path = write_config(tmp_path, rho0={"csv": str(csv_path)})
    assert cmd_run(str(path)) == 0


@pytest.mark.parametrize("rows,shift,code", [
    (128, 0.0, 0), (128, 0.5, 1), (127, 0.0, 1), (129, 0.0, 1),
], ids=["written-for-the-grid", "half-cell-shift", "n-1-rows", "n+1-rows"])
def test_rho0_csv_is_read_on_the_configured_grid(tmp_path, outroot, capsys,
                                                 rows, shift, code):
    # the cell centers wflow writes for [0.3, 0.9] span a domain that rounds
    # to other endpoints; the config decides the grid, and only a file of
    # other cells is rejected
    from wflow.density import float_cells

    dom = Domain(0.3, 0.9)
    xhat = (dom.centers(rows) - dom.a) / dom.length
    rho = normalize(1.0 + 0.3 * np.cos(np.pi * xhat), dom)[0]
    csv_path = tmp_path / "rho0.csv"
    csv_path.write_text("x,rho\n" + csv_rows(
        float_cells(rho.centers + shift * rho.dx), float_cells(rho.values)))
    path = write_config(tmp_path, domain_a=0.3, domain_b=0.9, n=128, m=128,
                        rho0={"csv": str(csv_path)})
    assert cmd_run(str(path)) == code
    if code:
        assert capsys.readouterr().err.startswith("config error: ")
    else:
        cfg = load_config(path)
        assert cfg.rho0.domain == dom
        assert cfg.rho0.values.tobytes() == rho.values.tobytes()


def test_study_needs_enough_values(tmp_path, outroot):
    path = write_config(tmp_path)
    assert cmd_study(str(path), values=[0.05, 0.025]) == 1


def test_study_rate_report(tmp_path, outroot):
    path = write_config(tmp_path, domain_a=0.0, domain_b=2.0, T=0.5,
                        rho0={"profile": "cosine", "amplitude": 0.4,
                              "frequency": 0.5})
    code = cmd_study(str(path), values=[1 / 20, 1 / 40, 1 / 80, 1 / 160])
    assert code == 0
    rundir = next(outroot.iterdir())
    report = json.loads((rundir / "rate.json").read_text())
    assert report["passes"] is True
    entry = report["rate_fits"][0]
    assert entry["fit"]["slope"] >= entry["expected_exponent"] - 0.15
    # one total per member, in increasing h
    assert entry["fit"]["h_values"] == [1 / 160, 1 / 80, 1 / 40, 1 / 20]
    assert len(entry["fit"]["totals"]) == 4


@pytest.mark.parametrize("repeats", [1, 2])
def test_study_member_failure_flags_partial(tmp_path, outroot, repeats):
    # members run in the calling process: a failed study run again in the
    # same process must report the same failures, with no state carried over
    path = write_config(tmp_path, newton_max_iter=0, domain_a=0.0,
                        domain_b=2.0, T=0.2,
                        rho0={"profile": "cosine", "amplitude": 0.4,
                              "frequency": 0.5})
    reports = []
    for _ in range(repeats):
        code = cmd_study(str(path), values=[1 / 10, 1 / 20, 1 / 40, 1 / 80])
        assert code == 2
        rundir = next(outroot.iterdir())
        reports.append(json.loads((rundir / "rate.json").read_text()))
    report = reports[0]
    assert report["partial"] is True
    assert len(report["failures"]) >= 1
    assert all(r == report for r in reports)


def per_row_trajectory_csv(traj):
    """Reference writer: one f-string of ``repr`` texts per row."""
    lines = ["t,x,rho"]
    for t, rho in zip(traj.times, traj.densities):
        for x, v in zip(rho.centers, rho.values):
            lines.append(f"{float(t)!r},{float(x)!r},{float(v)!r}")
    return "\n".join(lines) + "\n"


def csv_text(traj):
    buf = io.StringIO()
    trajectory_to_csv(traj, buf)
    return buf.getvalue()


def hex_csv(text: str) -> str:
    """A CSV text with each cell below the header replaced by the
    ``float.hex`` of the float64 it reads back to, so that two texts compare
    by value (-0.0 apart from 0.0) whatever decimals they spell."""
    assert text.endswith("\n")
    header, *rows = text.splitlines()
    return header + "\n" + "".join(
        ",".join(float(cell).hex() for cell in row.split(",")) + "\n"
        for row in rows)


def first_line_difference(got: str, want: str) -> str | None:
    """None for equal texts, else where they first differ.

    A failing comparison of two long strings makes pytest build a difflib
    diff, which takes minutes on a trajectory; this message takes no time.
    """
    if got == want:
        return None
    g, w = got.splitlines(keepends=True), want.splitlines(keepends=True)
    for i, (x, y) in enumerate(zip(g, w)):
        if x != y:
            return f"line {i + 1}: {x!r} != {y!r}"
    return f"{len(g)} lines != {len(w)} lines"


def test_trajectory_csv_matches_per_row_reference(tmp_path):
    cfg = load_config(write_config(tmp_path, potential={
        "kind": "quadratic", "kappa": 1.0, "center": 0.3}))
    traj = run_scheme(cfg.problem(), cfg.rho0, cfg.T)
    fd = refsolve.fd_solve(cfg.cost, cfg.energy, cfg.potential, cfg.domain,
                           cfg.rho0, cfg.T, refsolve.FdConfig(n=cfg.n, dt=cfg.h))
    # same n on another domain, and another n on the same domain
    wide, _ = normalize(np.linspace(1.0, 2.0, cfg.n), Domain(-0.5, 1.5))
    coarse, _ = normalize(np.linspace(1.0, 2.0, 40), cfg.domain)
    # centers below 1e-4, values above 1e16, one below 1e-4 and a zero:
    # cells that repr writes in exponent notation
    extreme = np.ones(8)
    extreme[2], extreme[5] = 1e-22, 0.0
    tiny, _ = normalize(extreme, Domain(0.0, 2e-17))
    mixed = SchemeTrajectory(times=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5),
                             densities=(cfg.rho0, wide, fd.final, coarse, tiny,
                                        wide))
    for tr in (traj, fd, mixed):
        diff = first_line_difference(hex_csv(csv_text(tr)),
                                     hex_csv(per_row_trajectory_csv(tr)))
        assert diff is None, diff


def parent_trajectory_to_csv(traj: SchemeTrajectory) -> str:
    # the writer before snapshot tails were reused: x cells once per grid,
    # every snapshot's rho cells formatted again
    x_cells = {}
    chunks = ["t,x,rho\n"]
    for t, rho in zip(traj.times, traj.densities):
        grid = (rho.domain, rho.n)
        if grid not in x_cells:
            x_cells[grid] = float_cells(rho.centers)
        chunks.append(csv_rows([repr(float(t))] * rho.n, x_cells[grid],
                               float_cells(rho.values)))
    return "".join(chunks)


def test_trajectory_csv_bytes_match_parent_writer():
    dom = Domain(-1.0, 1.0)
    a, _ = normalize(np.linspace(1.0, 2.0, 24), dom)
    b, _ = normalize(np.linspace(2.0, 1.0, 24), dom)
    coarse, _ = normalize(np.linspace(1.0, 3.0, 7), Domain(0.0, 0.5))
    times = tuple(0.1 * k for k in range(7))
    same_object = (a, b, b, b, a, a, b)
    equal_copies = (a, b) + tuple(GridDensity(domain=dom, values=b.values)
                                  for _ in range(5))
    two_grids = (a, coarse, coarse, b, coarse, a, a)
    for densities in (same_object, equal_copies, two_grids):
        traj = SchemeTrajectory(times=times, densities=densities)
        # reused tails are the bytes of formatting each snapshot again, and
        # every cell reads back to its float64
        text = csv_text(traj)
        diff = first_line_difference(text, parent_trajectory_to_csv(traj))
        assert diff is None, diff
        diff = first_line_difference(hex_csv(text),
                                     hex_csv(per_row_trajectory_csv(traj)))
        assert diff is None, diff


def test_fixed_point_run_formats_and_audits_repeats_once(tmp_path):
    # a run that reaches its fixed point repeats its last snapshot object
    # and an equal diagnostics record; both are formatted and audited once,
    # with the bytes and the ledger of formatting and auditing each step
    path = write_config(
        tmp_path, potential={"kind": "quadratic"}, domain_a=-1.0, n=32, m=32,
        h=0.05, T=10.0, rho0={"profile": "cosine", "amplitude": 0.3})
    cfg = load_config(path)
    pb = cfg.problem()
    traj = run_scheme(pb, cfg.rho0, cfg.T)
    dens = traj.densities
    repeats = sum(b is a for a, b in zip(dens, dens[1:]))
    assert repeats >= 10
    # the writer child is sent each repeat as its time alone: the same bytes
    assert cmd_run(str(path), root=tmp_path / "out") == 0
    rundir, = (tmp_path / "out").iterdir()
    diff = first_line_difference((rundir / "trajectory.csv").read_text(),
                                 csv_text(traj))
    assert diff is None, diff
    assert read_jsonl(jsonl_text(traj.diagnostics)) == \
        list(map(record_fields, traj.diagnostics))
    hi0 = float(np.max(dens[0].values)) + diagnostics.BOUND_SLACK_CELLS / pb.m
    backwards = SchemeTrajectory(times=traj.times, diagnostics=traj.diagnostics,
                                 densities=(dens[0], *dens[:0:-1]))
    for tr in (traj, backwards):
        flag = diagnostics.ledger(pb, tr).flags[2]
        assert flag.name == "comparison-principle"
        assert flag.slack == hi0 - max(float(np.max(rho.values))
                                       for rho in dens[1:])
    led = diagnostics.ledger(pb, traj)
    copies = SchemeTrajectory(
        times=traj.times, diagnostics=traj.diagnostics,
        densities=tuple(GridDensity(domain=rho.domain, values=rho.values)
                        for rho in dens))
    assert diagnostics.ledger(pb, copies) == led


# every float64 a record can hold: any bit pattern, and the values next to
# where repr's notation changes, with NaN, the infinities, the zeros and the
# subnormals
JSON_EDGES = [float(sign * v) for e in (1e-5, 1e-4, 1e16) for sign in (1, -1)
              for v in (np.nextafter(e, 0.0), e, np.nextafter(e, np.inf))]
JSON_FLOATS = st.one_of(
    st.floats(),
    st.integers(0, 2**64 - 1).map(
        lambda b: float(np.uint64(b).view(np.float64))),
    st.sampled_from(JSON_EDGES + [math.nan, math.inf, -math.inf, 0.0, -0.0,
                                  5e-324, 2.2250738585072014e-308,
                                  sys.float_info.max]))
# an iteration count is at most MAX_NEWTON_ITER; orjson writes any int up
# to 2^64 - 1
RECORDS = st.builds(
    jko.StepDiagnostics, iterations=st.integers(0, 2**64 - 1),
    **{f.name: JSON_FLOATS for f in dataclasses.fields(jko.StepDiagnostics)
       if f.name != "iterations"})


@st.composite
def record_runs(draw):
    """Records in runs of one shared object, each run maybe followed by an
    equal copy that is another object."""
    records = []
    for d, run, copy in draw(st.lists(
            st.tuples(RECORDS, st.integers(1, 4), st.booleans()),
            max_size=12)):
        records += [d] * run + [dataclasses.replace(d)] * copy
    return tuple(records)


UNIFORM = normalize(np.ones(4), Domain(0.0, 1.0))[0]


def jsonl_text(records) -> str:
    traj = SchemeTrajectory(times=(0.0,), densities=(UNIFORM,),
                            diagnostics=tuple(records))
    buf = io.StringIO()
    diagnostics_to_jsonl(traj, buf)
    return buf.getvalue()


def hex_fields(pairs) -> list:
    """Field-value pairs with each float as its ``float.hex`` (so -0.0 is
    not 0.0), an int as it is, and ``None`` (orjson's ``null``) for NaN and
    the infinities."""
    return [(k, v if v is None or isinstance(v, int)
             else v.hex() if math.isfinite(v) else None) for k, v in pairs]


def record_fields(d) -> list:
    """A record's fields in sorted order, as its JSON line should read back."""
    return hex_fields(sorted(vars(d).items()))


def read_jsonl(text: str) -> list:
    """The fields of each JSON line in the order they were written."""
    assert text == "" or text.endswith("\n")
    return [hex_fields(json.loads(line).items()) for line in text.splitlines()]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(records=record_runs())
def test_diagnostics_jsonl_matches_the_json_encoder(records):
    # one line per record, keys sorted, every float its own float64: the
    # values json.dumps writes, though not its text (orjson is compact, and
    # spells 1e-05 as 0.00001 and NaN as null)
    got = read_jsonl(jsonl_text(records))
    assert got == list(map(record_fields, records))
    assert got == read_jsonl("".join(json.dumps(vars(d), sort_keys=True) + "\n"
                                     for d in records))


def test_diagnostics_jsonl_holds_one_chunk_at_a_time(tmp_path):
    # records of 16 blocks, the last 3.5 blocks one shared record, are
    # written with the peak memory of 2 blocks of distinct records: the
    # writer holds one line at a time
    rng = np.random.default_rng(7)
    block = 256
    peaks = []
    for blocks, tail in ((2, 0), (16, 7 * block // 2)):
        records = [jko.StepDiagnostics(*rng.standard_normal(8).tolist(),
                                       iterations=k % 9)
                   for k in range(blocks * block - tail)]
        records += [records[-1]] * tail
        traj = SchemeTrajectory(times=(0.0,), densities=(UNIFORM,),
                                diagnostics=tuple(records))
        path = tmp_path / f"diagnostics-{blocks}.jsonl"
        with open(path, "w") as fh:
            diagnostics_to_jsonl(traj, fh)  # orjson loaded, caches warm
        with open(path, "w") as fh:
            tracemalloc.start()
            try:
                tracemalloc.reset_peak()
                diagnostics_to_jsonl(traj, fh)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        same_values = read_jsonl(path.read_text()) == \
            list(map(record_fields, records))
        assert same_values  # no slow diff on failure
    assert peaks[1] < 1.2 * peaks[0]


def test_trajectory_csv_streams_to_its_file(tmp_path):
    # the writer holds one snapshot's text at a time, never the whole file
    dom = Domain(0.0, 1.0)
    xc = dom.centers(256)
    densities = tuple(
        normalize(1.0 + 0.5 * np.cos(2 * np.pi * (xc + 0.01 * k)), dom)[0]
        for k in range(120))
    traj = SchemeTrajectory(times=tuple(0.01 * k for k in range(120)),
                            densities=densities)
    path = tmp_path / "trajectory.csv"
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        with open(path, "w") as fh:
            trajectory_to_csv(traj, fh)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size >= 1 << 20
    assert peak < size / 4


def test_run_scheme_holds_a_bounded_node_history(tmp_path):
    # the warm start keeps the last four node vectors, not one per step:
    # over 100 steps at m = 16384 the traced peak stays near 40 vectors
    # (one step's own arrays), where keeping every step's nodes reaches 130
    cfg = load_config(write_config(tmp_path, n=16, m=16384, h=1e-3, T=0.1))
    problem, rho0 = cfg.problem(), cfg.rho0
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        traj = run_scheme(problem, rho0, cfg.T)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(traj.diagnostics) == 100
    assert peak < 64 * (cfg.m + 1) * 8


def test_crosscheck_heat(tmp_path, outroot):
    path = write_config(tmp_path, h=1e-3, T=0.05, n=64, m=64)
    assert cmd_crosscheck(str(path), threshold=1e-2) == 0
    rundir = next(outroot.iterdir())
    report = json.loads((rundir / "comparison.json").read_text())
    assert report["passes"] is True


def test_crosscheck_porous_medium_preset_with_floor(tmp_path, outroot):
    cfg = {
        "preset": "porous-medium",
        "exponent_m": 2.0,
        "potential": {"kind": "zero"},
        "domain_a": -1.5, "domain_b": 1.5,
        "n": 96, "m": 96, "h": 2.5e-3, "T": 0.02,
        "rho0": {"profile": "gaussian", "center": 0.0, "width": 0.3,
                 "floor": 0.0},
        "floor_delta": 1e-3,
    }
    path = tmp_path / "pm.json"
    path.write_text(json.dumps(cfg))
    assert cmd_crosscheck(str(path), threshold=5e-2) == 0


# ---------------------------------------------------------------------------
# the finite-difference reference, solved in a forked child
# ---------------------------------------------------------------------------

def crosscheck_files(root):
    rundir, = root.iterdir()
    return {p.name: p.read_bytes() for p in sorted(rundir.iterdir())}


def test_crosscheck_reference_from_the_child_matches_in_process(tmp_path,
                                                                 outroot):
    path = write_config(tmp_path, h=1e-3)
    assert cmd_crosscheck(str(path)) == 0
    files = crosscheck_files(outroot)
    cfg = load_config(path)
    rho0 = cfg.rho0
    fd = refsolve.fd_solve(cfg.cost, cfg.energy, cfg.potential, cfg.domain,
                           rho0, cfg.T, refsolve.FdConfig(n=cfg.n, dt=cfg.h))
    assert files["reference.csv"].decode() == csv_text(fd)
    table = diagnostics.compare(run_scheme(cfg.problem(), rho0, cfg.T), fd)
    report = json.loads(files["comparison.json"])
    report["comparisons"][0]["table"] = asdict(table)
    assert files["comparison.json"].decode() == json.dumps(
        report, sort_keys=True, indent=2) + "\n"


def test_in_child_runs_the_task_in_another_process():
    with cli._in_child(lambda feed: os.getpid()) as (_, _, result):
        assert result(os.getpid) != os.getpid()


def test_in_child_returns_the_childs_error_with_its_attributes(monkeypatch):
    def stalled(*args):
        raise ConvergenceError("stalled in the child", best=np.arange(3.0),
                               residual=0.25)

    monkeypatch.setattr(refsolve, "fd_solve", stalled)
    with cli._in_child(lambda feed: refsolve.fd_solve()) as (_, _, result):
        with pytest.raises(ConvergenceError) as info:
            result(refsolve.fd_solve)
    assert str(info.value) == "stalled in the child"
    np.testing.assert_array_equal(info.value.best, np.arange(3.0))
    assert info.value.residual == 0.25


def test_in_child_runs_the_task_here_when_the_child_dies():
    parent = os.getpid()

    def task():
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return os.getpid()

    with cli._in_child(lambda feed: task()) as (_, _, result):
        assert result(task) == parent


def fork_fails():
    raise OSError("fork refused")


def pipes_failing_at(nth):
    """``os.pipe`` failing as at the limit of open files on every nth call:
    each ``_in_child`` makes two pipes, so 1 fails its first one and 2 its
    second one."""
    pipe, calls = os.pipe, []

    def pipe_or_fail():
        calls.append(None)
        if len(calls) % nth == 0:
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return pipe()

    return pipe_or_fail


def without_fork(monkeypatch, how):
    if how == "raises":
        monkeypatch.setattr(os, "fork", fork_fails)
    elif how == "missing":
        monkeypatch.delattr(os, "fork")
    else:
        monkeypatch.setattr(os, "pipe", pipes_failing_at(
            {"first-pipe-fails": 1, "second-pipe-fails": 2}[how]))


NO_FORK = ["raises", "missing", "first-pipe-fails", "second-pipe-fails"]


@pytest.mark.parametrize("no_fork", NO_FORK)
@pytest.mark.parametrize("command", [cmd_run, cmd_crosscheck],
                         ids=["run", "crosscheck"])
def test_crosscheck_without_fork_writes_the_same_bytes(tmp_path, monkeypatch,
                                                       command, no_fork):
    path = write_config(tmp_path, h=1e-3)
    assert command(str(path), root=str(tmp_path / "forked")) == 0
    without_fork(monkeypatch, no_fork)
    assert command(str(path), root=str(tmp_path / "serial")) == 0
    assert (crosscheck_files(tmp_path / "serial")
            == crosscheck_files(tmp_path / "forked"))


@pytest.mark.parametrize("exit_path", [
    "task-returns", "task-raises", "child-killed", "block-raises",
    "interrupt", *NO_FORK])
def test_in_child_leaves_no_descriptor_open(monkeypatch, exit_path):
    fds = Path("/proc/self/fd")
    if not fds.is_dir():
        pytest.skip("needs /proc/self/fd")
    parent = os.getpid()

    def task(feed):
        feed.read()
        if exit_path == "child-killed" and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        if exit_path == "task-raises":
            raise ValueError("raised in the child")
        return os.getpid()

    if exit_path in NO_FORK:
        without_fork(monkeypatch, exit_path)
    raised = {"task-raises": ValueError, "block-raises": RuntimeError,
              "interrupt": KeyboardInterrupt}.get(exit_path)
    before = sorted(os.listdir(fds))
    with pytest.raises(raised) if raised else contextlib.nullcontext():
        with cli._in_child(task) as (send, close, result):
            # more than one buffer, and a record left in the buffer
            send(bytes(2 * cli.FEED_BATCH))
            send(bytes(8))
            if exit_path == "block-raises":
                raise RuntimeError("raised in the block")
            if exit_path == "interrupt":
                raise KeyboardInterrupt
            result(lambda: task(io.BytesIO()))
    assert sorted(os.listdir(fds)) == before


# more snapshots than the pipe holds: the child dies or fails on the first
# batch it reads, and the parent meets a broken pipe on a later batch
WRITER_FAILURE = {"n": 256, "m": 64, "T": 0.5}


def test_run_writes_the_trajectory_here_when_the_writer_dies(tmp_path,
                                                             monkeypatch):
    parent = os.getpid()
    write_rows = cli._write_rows

    def dies_in_the_child(snapshots, fh):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        write_rows(snapshots, fh)

    monkeypatch.setattr(cli, "_write_rows", dies_in_the_child)
    path = write_config(tmp_path, **WRITER_FAILURE)
    assert cmd_run(str(path), root=tmp_path / "out") == 0
    cfg = load_config(path)
    traj = run_scheme(cfg.problem(), cfg.rho0, cfg.T)
    rundir, = (tmp_path / "out").iterdir()
    diff = first_line_difference((rundir / "trajectory.csv").read_text(),
                                 csv_text(traj))
    assert diff is None, diff


def test_run_raises_the_writers_error_when_the_child_cannot_write(tmp_path,
                                                                  outroot):
    path = write_config(tmp_path, **WRITER_FAILURE)
    assert cmd_run(str(path)) == 0
    rundir, = outroot.iterdir()
    (rundir / "trajectory.csv").unlink()
    (rundir / "trajectory.csv").mkdir()
    t0 = time.monotonic()
    with pytest.raises(IsADirectoryError) as info:
        cmd_run(str(path))
    assert time.monotonic() - t0 < 30.0
    assert info.value.__context__ is None  # no broken pipe on the way


def test_run_raises_the_writers_own_error(tmp_path, outroot, monkeypatch):
    # the child's outcome is authoritative: an error it raises is raised
    # here, and the file is not written again in this process
    parent = os.getpid()
    write_rows = cli._write_rows
    here = []

    def denied_in_the_child(snapshots, fh):
        if os.getpid() != parent:
            raise PermissionError("denied in the child")
        write_rows(snapshots, fh)

    def recorded(traj, fh):
        here.append(traj)
        trajectory_to_csv(traj, fh)

    monkeypatch.setattr(cli, "_write_rows", denied_in_the_child)
    monkeypatch.setattr(cli, "trajectory_to_csv", recorded)
    path = write_config(tmp_path, **WRITER_FAILURE)
    with pytest.raises(PermissionError, match="^denied in the child$"):
        cmd_run(str(path))
    assert here == []


def record_feed(monkeypatch, on_write):
    """Call ``on_write(data)`` with the bytes of each write from this
    process's feed buffer to the writer's pipe: the buffered file that
    ``_in_child`` opens gets a raw file that records what it is given."""
    parent = os.getpid()

    class RecordedFeed(io.FileIO):
        def write(self, data):
            if os.getpid() == parent:
                on_write(bytes(data))
            return super().write(data)

    def feed_open(file, mode="r", buffering=-1, **kwargs):
        if mode == "wb" and buffering == cli.FEED_BATCH:
            return io.BufferedWriter(RecordedFeed(file, "w"), buffering)
        return open(file, mode, buffering, **kwargs)

    monkeypatch.setattr(cli, "open", feed_open, raising=False)


def test_run_sends_snapshots_to_the_writer_in_batches(tmp_path, monkeypatch):
    # 50 snapshots of 256 cells: one pipe write per FEED_BATCH bytes
    # buffered, and one for the rest when the run finishes
    writes = []
    record_feed(monkeypatch, lambda data: writes.append(len(data)))
    path = write_config(tmp_path, n=256, T=0.49)
    assert cmd_run(str(path), root=tmp_path / "out") == 0
    sent = 50 * 8 * (256 + 1)
    assert sum(writes) == sent
    assert len(writes) <= math.ceil(sent / cli.FEED_BATCH) + 1


def fixed_point_config(tmp_path):
    """A run of 201 snapshots of 32 cells that reaches its fixed point."""
    return write_config(
        tmp_path, potential={"kind": "quadratic"}, domain_a=-1.0, n=32, m=32,
        h=0.05, T=10.0, rho0={"profile": "cosine", "amplitude": 0.3})


def test_run_sends_repeated_steps_as_their_time_alone(tmp_path, monkeypatch):
    # a distinct snapshot goes to the writer as its time and its values, a
    # step past the fixed point as its time alone, negated; nothing else is
    # sent, and the writer, and this process where the writer dies, write
    # the rows of every step
    parent, sent = os.getpid(), []
    record_feed(monkeypatch, sent.append)
    path = fixed_point_config(tmp_path)
    cfg = load_config(path)
    traj = run_scheme(cfg.problem(), cfg.rho0, cfg.T)
    dens = traj.densities
    repeats = sum(b is a for a, b in zip(dens, dens[1:]))
    assert repeats >= 10
    assert cmd_run(str(path), root=tmp_path / "out") == 0
    feed = np.frombuffer(b"".join(sent))
    assert feed.size == (len(dens) - repeats) * (cfg.n + 1) + repeats
    at = 0
    for k, rho in enumerate(dens):
        if k and rho is dens[k - 1]:
            assert feed[at] == -traj.times[k]
            at += 1
        else:
            assert feed[at] == traj.times[k]
            assert feed[at + 1:at + 1 + cfg.n].tobytes() == rho.values.tobytes()
            at += 1 + cfg.n
    rundir, = (tmp_path / "out").iterdir()
    want = csv_text(traj)
    diff = first_line_difference((rundir / "trajectory.csv").read_text(), want)
    assert diff is None, diff

    write_rows = cli._write_rows

    def dies_in_the_child(snapshots, fh):
        if os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        write_rows(snapshots, fh)

    monkeypatch.setattr(cli, "_write_rows", dies_in_the_child)
    assert cmd_run(str(path), root=tmp_path / "here") == 0
    rundir, = (tmp_path / "here").iterdir()
    diff = first_line_difference((rundir / "trajectory.csv").read_text(), want)
    assert diff is None, diff


@pytest.mark.parametrize("command", [cmd_run, cmd_crosscheck],
                         ids=["run", "crosscheck"])
def test_feed_is_written_out_before_the_diagnostics(tmp_path, monkeypatch,
                                                    command):
    # the writer gets the last snapshots when the scheme returns, not when
    # the run path's block ends: it formats them while this process writes
    # diagnostics.jsonl and runs the ledger or the comparison.  The run
    # sends less than one buffer, so its one write is the feed's close.
    events = []

    def jsonl(traj, fh):
        events.append("diagnostics")
        diagnostics_to_jsonl(traj, fh)

    record_feed(monkeypatch, lambda data: events.append("write"))
    monkeypatch.setattr(cli, "diagnostics_to_jsonl", jsonl)
    path = write_config(tmp_path, n=32, m=32, h=1e-3, T=0.02)
    assert command(str(path), root=tmp_path / "out") == 0
    assert 21 * 8 * (32 + 1) < cli.FEED_BATCH
    assert events == ["write", "diagnostics"]


def test_run_failing_after_a_batch_writes_the_partial_trajectory(
        tmp_path, outroot, capsys, monkeypatch):
    # step 40 fails after two batches went to the writer; the snapshots
    # still buffered in this process reach the file too
    step, solved, aborts = jko.jko_step_nodes, [], []

    def fails_at_step_40(*args, **kwargs):
        solved.append(None)
        if len(solved) == 40:
            raise ConvergenceError("injected")
        return step(*args, **kwargs)

    def recorded(*args, **kwargs):
        try:
            return run_scheme(*args, **kwargs)
        except SchemeAbortError as exc:
            aborts.append(exc)
            raise

    monkeypatch.setattr(jko, "jko_step_nodes", fails_at_step_40)
    monkeypatch.setattr(cli, "run_scheme", recorded)
    path = write_config(tmp_path, n=256, T=0.5)
    assert cmd_run(str(path)) == 2
    assert capsys.readouterr().err == "solver error: step 40 failed: injected\n"
    partial = aborts[0].partial
    assert len(partial.times) * 8 * (256 + 1) > 2 * cli.FEED_BATCH
    rundir, = outroot.iterdir()
    diff = first_line_difference((rundir / "trajectory.csv").read_text(),
                                 csv_text(partial))
    assert diff is None, diff
    lines = (rundir / "diagnostics.jsonl").read_text().splitlines()
    assert len(lines) == 39


def test_fixed_point_tail_appends_one_snapshot_and_one_record(tmp_path,
                                                              monkeypatch):
    # past the step that returned its start no step is solved: each later
    # step appends that step's snapshot object and one shared record, and
    # on_snapshot still sees every step once
    cfg = load_config(fixed_point_config(tmp_path))
    step, solved, seen = jko.jko_step_nodes, [], []

    def counted(*args, **kwargs):
        solved.append(None)
        return step(*args, **kwargs)

    monkeypatch.setattr(jko, "jko_step_nodes", counted)
    traj = run_scheme(cfg.problem(), cfg.rho0, cfg.T,
                      on_snapshot=lambda t, rho: seen.append((t, rho)))
    assert len(seen) == len(traj.times) == 201
    assert all(t == tt and rho is r for (t, rho), tt, r
               in zip(seen, traj.times, traj.densities))
    k = len(solved)  # the last solved step, which returned its start
    assert k <= 190
    fixed = traj.densities[k]
    assert fixed is not traj.densities[k - 1]
    assert all(rho is fixed for rho in traj.densities[k + 1:])
    tail = traj.diagnostics[k:]
    assert all(d is tail[0] for d in tail)
    assert tail[0] == dataclasses.replace(traj.diagnostics[k - 1],
                                          iterations=0)


def wait_for_reference(root):
    deadline = time.monotonic() + 60.0
    while not list(root.glob("*/reference.csv")):
        assert time.monotonic() < deadline, "the child wrote no reference.csv"
        time.sleep(0.01)


def assert_only_the_scheme_artifacts(rundir, config_path):
    """A command that failed after its scheme finished leaves the run path's
    files, with the whole trajectory, and no reference or verdict."""
    names = {p.name for p in rundir.iterdir()}
    assert names == {"config.json", "diagnostics.jsonl", "trajectory.csv"}
    cfg = load_config(config_path)
    traj = run_scheme(cfg.problem(), cfg.rho0, cfg.T)
    diff = first_line_difference((rundir / "trajectory.csv").read_text(),
                                 csv_text(traj))
    assert diff is None, diff


@pytest.mark.parametrize("child", ["written", "still-solving"])
def test_crosscheck_scheme_failure_wins_and_removes_the_reference(
        tmp_path, outroot, capsys, monkeypatch, child):
    def failed_scheme(*args, **kwargs):
        if child == "written":
            wait_for_reference(outroot)
        raise SchemeAbortError("scheme failed at step 3")

    monkeypatch.setattr(cli, "run_scheme", failed_scheme)
    if child == "still-solving":  # killed, not waited for
        monkeypatch.setattr(refsolve, "fd_solve", lambda *a: time.sleep(60))
    path = write_config(tmp_path, h=1e-3)
    t0 = time.monotonic()
    assert cmd_crosscheck(str(path)) == 2
    assert time.monotonic() - t0 < 30.0
    assert capsys.readouterr().err == "solver error: scheme failed at step 3\n"
    assert set(crosscheck_files(outroot)) == {"config.json"}


# run exits 0 on this config with the ledger passing; the reference's Newton
# clamps a negative iterate at step 1 and stalls
REFERENCE_STALLS = {"preset": "porous-medium", "exponent_m": 4, "T": 0.2,
                    "rho0": {"profile": "gaussian", "width": 0.1,
                             "floor": 0.01}}


def test_crosscheck_reference_failure_is_named(tmp_path, outroot, capsys):
    path = write_config(tmp_path, **REFERENCE_STALLS)
    assert cmd_crosscheck(str(path)) == 2
    assert capsys.readouterr().err == (
        "solver error: finite-difference reference: Newton stalled at step 1 "
        "(negative iterates clamped)\n")
    assert_only_the_scheme_artifacts(next(outroot.iterdir()), path)


def test_failed_crosscheck_keeps_the_run_of_the_same_config(tmp_path,
                                                           outroot, capsys):
    # run and crosscheck of one config share its run directory: the
    # crosscheck rewrites the run path's files with the same bytes, and its
    # failure removes none of them, nor run's report
    path = write_config(tmp_path, **REFERENCE_STALLS)
    assert main(["run", "--config", str(path)]) == 0
    files = crosscheck_files(outroot)
    assert set(files) == {"config.json", "diagnostics.jsonl", "report.json",
                          "trajectory.csv"}
    capsys.readouterr()
    assert main(["crosscheck", "--config", str(path)]) == 2
    assert ("finite-difference reference: Newton stalled at step 1"
            in capsys.readouterr().err)
    assert crosscheck_files(outroot) == files


def test_crosscheck_writes_the_run_path_files_of_run(tmp_path):
    path = write_config(tmp_path, h=1e-3)
    assert cmd_run(str(path), root=tmp_path / "run") == 0
    assert cmd_crosscheck(str(path), root=tmp_path / "crosscheck") == 0
    ran = crosscheck_files(tmp_path / "run")
    checked = crosscheck_files(tmp_path / "crosscheck")
    for name in ("config.json", "diagnostics.jsonl", "trajectory.csv"):
        assert checked[name] == ran[name], name


def test_crosscheck_reference_error_of_another_type_is_raised(
        tmp_path, outroot, monkeypatch):
    def broken(*args):
        raise ZeroDivisionError("reference divided by zero")

    monkeypatch.setattr(refsolve, "fd_solve", broken)
    path = write_config(tmp_path, h=1e-3)
    with pytest.raises(ZeroDivisionError, match="reference divided by zero"):
        cmd_crosscheck(str(path))
    assert_only_the_scheme_artifacts(next(outroot.iterdir()), path)


def test_crosscheck_comparison_failure_removes_the_reference(
        tmp_path, outroot, capsys, monkeypatch):
    def mismatched(traj, fd):
        rundir, = outroot.iterdir()
        assert (rundir / "reference.csv").exists()
        raise ParameterError("trajectories live on different domains")

    monkeypatch.setattr(diagnostics, "compare", mismatched)
    path = write_config(tmp_path, h=1e-3)
    assert cmd_crosscheck(str(path)) == 2
    assert "different domains" in capsys.readouterr().err
    assert_only_the_scheme_artifacts(next(outroot.iterdir()), path)


def test_crosscheck_interrupted_removes_the_reference(tmp_path, outroot,
                                                      monkeypatch):
    def interrupted(*args, **kwargs):
        wait_for_reference(outroot)
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_scheme", interrupted)
    path = write_config(tmp_path, h=1e-3)
    with pytest.raises(KeyboardInterrupt):
        cmd_crosscheck(str(path))
    assert set(crosscheck_files(outroot)) == {"config.json"}


def test_oracle_command():
    assert cmd_oracle(k=6, seed=1) == 0
    assert cmd_oracle(k=16, seed=2, q=1.5) == 0
    assert cmd_oracle(k=0, seed=0) == 1
    assert cmd_oracle(k=65, seed=0) == 1


@pytest.mark.parametrize("q", ["1", "nan", "inf", "-2"])
def test_oracle_bad_exponent_exits_1(capsys, q):
    assert main(["oracle", "--k", "4", "--q", q]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


def test_oracle_negative_seed_exits_1(capsys):
    assert main(["oracle", "--k", "4", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert "config error" in err
    assert "Traceback" not in err


def test_oracle_overflowing_cost_exits_2(capsys):
    # at q = 2000 a displacement above 1.43 costs inf; seed 9 draws a sorted
    # pair that far apart before any draw whose costs all underflow
    assert main(["oracle", "--k", "4", "--q", "2000", "--seed", "9"]) == 2
    captured = capsys.readouterr()
    assert "no finite deviation" in captured.err
    assert "monotone cost inf" in captured.err
    assert "max relative deviation" not in captured.out


@pytest.mark.parametrize("argv", [
    ["--k", "64", "--q", "1e6", "--seed", "0"],
    ["--k", "12", "--q", "1e6", "--seed", "3"],
], ids=["k64-seed0", "k12-seed3"])
def test_oracle_underflowing_cost_exits_2(capsys, argv):
    # at q = 1e6 |z|^q/q rounds to 0 for every |z| < 0.9992; these seeds
    # draw a sorted pairing of such displacements, so the exact cost is 0
    # and there is nothing to compare
    assert main(["oracle", *argv]) == 2
    captured = capsys.readouterr()
    assert "no finite deviation" in captured.err
    assert "monotone cost 0.0" in captured.err
    assert "max relative deviation" not in captured.out


# a fresh command's config overrides and extra arguments, chosen so that each
# runs its whole path and exits 0
FRESH_COMMANDS = {
    "run": ({}, []),
    "study": ({"domain_b": 2.0, "T": 0.5,
               "rho0": {"profile": "cosine", "amplitude": 0.4,
                        "frequency": 0.5}},
              ["--values", "0.05,0.025,0.0125,0.00625"]),
    "crosscheck": ({"h": 1e-3}, []),
}


@pytest.mark.parametrize("command", FRESH_COMMANDS)
def test_fresh_command_loads_no_scipy_subpackage(tmp_path, command):
    # dgtsv comes from scipy's LAPACK extension alone (wflow._lapack),
    # scipy.optimize serves only `oracle` with more than 8 atoms, and
    # refsolve.barenblatt takes its gamma function from math
    overrides, extra = FRESH_COMMANDS[command]
    argv = [command, "--config", str(write_config(tmp_path, **overrides)),
            *extra]
    script = (
        "import sys\n"
        "from wflow.cli import main\n"
        f"assert main({argv!r}) == 0\n"
        "print(sorted(m for m in ('scipy.linalg', 'scipy.optimize',"
        " 'scipy.special') if m in sys.modules))\n"
        # scipy.linalg, imported after wflow, reuses wflow's LAPACK module
        "flapack = sys.modules['scipy.linalg._flapack']\n"
        "import scipy.linalg.lapack\n"
        "assert scipy.linalg.lapack._flapack is flapack\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


# the files of an earlier run that a failed rerun of each command must not
# keep: its verdict, and for crosscheck the reference.  A failed study writes
# a verdict of its own, the partial rate.json, in place of the earlier one
STALE_ON_FAILURE = {
    "run": {"report.json"},
    "study": set(),
    "crosscheck": {"comparison.json", "reference.csv"},
}


@pytest.mark.parametrize("command", FRESH_COMMANDS)
def test_failed_rerun_keeps_no_earlier_verdict(tmp_path, outroot, capsys,
                                               monkeypatch, command):
    overrides, extra = FRESH_COMMANDS[command]
    argv = [command, "--config", str(write_config(tmp_path, **overrides)),
            *extra]
    assert main(argv) == 0
    rundir, = outroot.iterdir()
    assert STALE_ON_FAILURE[command] <= {p.name for p in rundir.iterdir()}

    def failed_scheme(*args, **kwargs):
        raise SchemeAbortError("scheme failed at step 1")

    monkeypatch.setattr(cli, "run_scheme", failed_scheme)
    assert main(argv) == 2
    assert "failed" in capsys.readouterr().err
    assert not STALE_ON_FAILURE[command] & {p.name for p in rundir.iterdir()}
    if command == "study":
        assert json.loads((rundir / "rate.json").read_text())["partial"]


# the keys of each command's verdict document
VERDICT_KEYS = {
    "report.json": {"ledger"},
    "comparison.json": {"comparisons", "passes"},
    "rate.json": {"rate_fits", "passes"},
}
STUDY_VALUES = FRESH_COMMANDS["study"][1]


def test_commands_share_the_run_directory(tmp_path, outroot):
    # run, crosscheck and study of one config write into one directory: each
    # keeps the others' verdicts and config.json, and a second pass of the
    # three rewrites every file with the same bytes
    path = write_config(tmp_path, domain_b=2.0, h=1e-3, T=0.5,
                        rho0={"profile": "cosine", "amplitude": 0.4,
                              "frequency": 0.5})
    commands = [["run"], ["crosscheck"], ["study", *STUDY_VALUES]]
    passes = []
    for _ in range(2):
        for command in commands:
            assert main([*command, "--config", str(path)]) == 0
            passes.append(crosscheck_files(outroot))
    first, second = passes[:3], passes[3:]
    assert first[0].items() <= first[1].items() <= first[2].items()
    assert set(first[-1]) == {
        "config.json", "diagnostics.jsonl", "trajectory.csv", "reference.csv",
        *VERDICT_KEYS}
    assert second == [first[-1]] * 3
    for name, keys in VERDICT_KEYS.items():
        assert set(json.loads(first[-1][name])) == keys, name
    ledger = json.loads(first[-1]["report.json"])["ledger"]
    assert ledger["all_pass"] is True
    assert {tuple(sorted(flag)) for flag in ledger["flags"]} == {
        ("name", "passed", "slack")}


def test_study_whose_members_all_fail_leaves_config_json(tmp_path, outroot):
    path = write_config(tmp_path, newton_max_iter=0, domain_b=2.0, T=0.2)
    assert main(["study", "--config", str(path), *STUDY_VALUES]) == 2
    files = crosscheck_files(outroot)
    assert set(files) == {"config.json", "rate.json"}
    report = json.loads(files["rate.json"])
    assert set(report) == {"partial", "failures", "completed"}
    assert report["completed"] == [] and len(report["failures"]) == 4


def test_out_sets_the_output_root(tmp_path, outroot, monkeypatch):
    monkeypatch.setenv("WFLOW_OUT", str(tmp_path / "env"))
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path), "--out", "flag"]) == 0
    assert main(["run", "--config", str(path)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir() if p.is_dir()) == [
        "flag", "out"]


@pytest.mark.parametrize("command", ["run", "study", "crosscheck"])
def test_out_naming_a_file_exits_1(tmp_path, capsys, command):
    out = tmp_path / "not-a-directory"
    out.write_text("kept\n")
    argv = [command, "--config", str(write_config(tmp_path)), "--out", str(out)]
    if command == "study":
        argv += ["--values", "0.05,0.025,0.0125,0.00625"]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "Not a directory" in err, err
    assert "Traceback" not in err
    assert out.read_text() == "kept\n"


@pytest.mark.parametrize("command,artifact", [
    ("run", "config.json"), ("run", "diagnostics.jsonl"),
    ("run", "trajectory.csv"), ("crosscheck", "reference.csv")])
def test_unwritable_artifact_exits_1_naming_it(tmp_path, outroot, capsys,
                                               command, artifact):
    # a directory at an artifact's path: the error of the write that failed
    # is reported on one line, and crosscheck's cleanup does not hide it
    path = write_config(tmp_path, h=1e-3)
    argv = [command, "--config", str(path)]
    assert main(argv) == 0
    rundir, = outroot.iterdir()
    (rundir / artifact).unlink()
    (rundir / artifact).mkdir()
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "Is a directory" in err and f"{rundir.name}/{artifact}" in err, err
    assert (rundir / artifact).is_dir()
    if command == "crosscheck":
        (rundir / artifact).rmdir()
        assert_only_the_scheme_artifacts(rundir, path)


def test_unwritable_artifact_exits_1_without_a_traceback(tmp_path, outroot):
    argv = ["run", "--config", str(write_config(tmp_path))]
    assert main(argv) == 0
    rundir, = outroot.iterdir()
    (rundir / "trajectory.csv").unlink()
    (rundir / "trajectory.csv").mkdir()
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-m", "wflow", *argv], env=env,
                          cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("config error: ") and \
        proc.stderr.count("\n") == 1, proc.stderr


def test_main_dispatch(tmp_path, outroot, capsys):
    path = write_config(tmp_path)
    assert main(["run", "--config", str(path)]) == 0
    assert main(["oracle", "--k", "4", "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert "deviation" in out


@pytest.mark.parametrize("argv", [
    ["run"],                                         # no --config
    ["frobnicate"],                                  # unknown subcommand
    ["oracle", "--k", "abc"],                        # --k not an int
    ["run", "--config", "cfg.json", "--force"],      # retired flag
    ["study", "--config", "cfg.json", "--values", "0.1,abc"],  # not numbers
], ids=["run-without-config", "unknown-subcommand", "k-not-an-int",
        "run-force", "values-not-numbers"])
def test_usage_error_exits_1(capsys, argv):
    # exit 2 is reserved for a failed solve
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    assert "usage" in capsys.readouterr().err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# fuzzing the front door
# ---------------------------------------------------------------------------

# small valid configs, one per family the presets and explicit terms reach
FUZZ_BASES = (
    {"preset": "fokker-planck", "potential": {"kind": "zero"},
     "domain_a": 0.0, "domain_b": 1.0, "n": 16, "m": 16, "h": 0.02,
     "T": 0.04, "rho0": {"profile": "cosine", "amplitude": 0.4}},
    {"preset": "fokker-planck",
     "potential": {"kind": "quadratic", "kappa": 1.0, "center": 0.0},
     "domain_a": -1.0, "domain_b": 1.0, "n": 16, "m": 24, "h": 0.02,
     "T": 0.04, "rho0": {"profile": "gaussian", "width": 0.5}},
    {"preset": "porous-medium", "exponent_m": 2.0, "n": 16, "m": 16,
     "h": 0.02, "T": 0.04, "rho0": {"profile": "cosine", "amplitude": 0.3},
     "solver_tol": 1e-9, "newton_max_iter": 40},
    {"preset": "p-laplacian", "exponent_p": 2.5, "n": 16, "m": 16,
     "h": 0.02, "T": 0.04, "rho0": "uniform"},
    {"preset": "doubly-degenerate", "exponent_p": 2.0, "exponent_n": 1.5,
     "n": 16, "m": 16, "h": 0.02, "T": 0.04, "floor_delta": 0.01},
    {"cost_terms": [[0.5, 2.0]], "energy_terms": [{"kind": "entropy"}],
     "n": 16, "m": 16, "h": 0.02, "T": 0.04},
)
# values no key may turn into a traceback, a hang or a huge run: non-finite,
# negative, zero, huge and non-numeric JSON values
FUZZ_VALUES = (
    float("nan"), float("inf"), float("-inf"), -1.0, -3, 0, 0.0, 10**400,
    2**63, 10**9, 1e300, 1e-300, "1", "", "cosine", [], [1.0, 2.0],
    [[1.0, 2.0]], None, True, False, {}, {"kind": "zero"},
    {"kind": "quadratic", "kappa": float("nan")},
    {"profile": "cosine", "amplitude": 1e300},
    {"csv": "no-such-file.csv"},
)
_MISSING = object()


@st.composite
def fuzz_configs(draw):
    """A small valid config with up to three keys replaced or removed."""
    cfg = dict(draw(st.sampled_from(FUZZ_BASES)))
    keys = draw(st.lists(st.sampled_from(sorted(CONFIG_KEYS)), max_size=3,
                         unique=True))
    for key in keys:
        value = draw(st.sampled_from((_MISSING, *FUZZ_VALUES)))
        if value is _MISSING:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return cfg


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(fuzz_configs())
def test_fuzzed_configs_exit_cleanly(cfg):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cfg.json"
        path.write_text(json.dumps(cfg))  # NaN and inf as JSON extensions
        for command in ("run", "study", "crosscheck"):
            root = Path(tmp) / command
            argv = [command, "--config", str(path), "--out", str(root)]
            if command == "study":
                argv += ["--values", "0.02,0.01,0.005,0.0025"]
            err = io.StringIO()
            with (contextlib.redirect_stderr(err),
                  contextlib.redirect_stdout(io.StringIO()),
                  warnings.catch_warnings()):
                # as on the command line, a numpy overflow warning is printed,
                # not raised as under the suite's warnings-as-errors
                warnings.simplefilter("default")
                code = main(argv)
            assert code in (0, 1, 2), (command, code)
            assert "Traceback" not in err.getvalue()
            if code == 1:
                assert not root.exists(), (command, err.getvalue())
