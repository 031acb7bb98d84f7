"""Workload definitions: seeded inputs and the output check of one command.

Each workload is one wflow CLI command on one config.  The initial density
always reaches the program as a ``rho0`` CSV written here, so the program
never sees the seed.  Seed 0 writes the workload's cosine profile (as the
CLI's ``cosine`` profile would) unchanged;
any other seed adds a small random field of no-flux cosine modes above the
profile's own frequency, in the style of the acceptance suite's
``random_smooth_density``.  The modes decay faster than the profile, so
solver work and reference gaps stay close to the seed-0 values while the
input bytes differ.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from wflow import cli, refsolve
from wflow.density import (Domain, GridDensity, density_to_csv, l1_distance,
                           normalize)

PERTURB_MODES = range(3, 7)
PERTURB_AMP = 0.005
PERTURB_FLOOR = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    command: str          # wflow subcommand
    config: dict          # everything but rho0
    cosine: tuple[float, float]  # (amplitude, frequency) of the seed-0 profile
    reference: str        # "gibbs", "fd" or "own": what ref_l1 measures against
    ref_tol: float        # acceptance tolerance on ref_l1


WORKLOADS = {w.name: w for w in (
    # README Fokker-Planck config: equilibrates, half the steps need no
    # Newton iteration, and the 10 MB trajectory makes it write-heavy.
    Workload(
        name="fp-readme", command="run",
        config={"preset": "fokker-planck",
                "potential": {"kind": "quadratic", "kappa": 1.0, "center": 0.0},
                "domain_a": -1.0, "domain_b": 1.0,
                "n": 256, "m": 256, "h": 0.01, "T": 10.0},
        cosine=(0.3, 0.5),
        reference="gibbs", ref_tol=1e-2),  # acceptance criterion 9
    # p-Laplacian p = 3 (q = 1.5): about 7 Newton iterations per step.
    Workload(
        name="plap-newton", command="run",
        config={"preset": "p-laplacian", "exponent_p": 3.0,
                "domain_a": 0.0, "domain_b": 1.0,
                "n": 128, "m": 1024, "h": 2e-3, "T": 1.0},
        cosine=(0.4, 0.5),
        reference="fd", ref_tol=5e-2),  # acceptance criterion 8
    # heat flow at m = 16384 against the finite-difference reference.  The
    # default solver_tol of 1e-9 sits at the round-off floor of the KKT
    # residual at this m: on some inputs Newton stalls near 3e-9 and the
    # FISTA fallback runs for minutes (see README, known defects).
    Workload(
        name="heat-crosscheck", command="crosscheck",
        config={"preset": "fokker-planck",
                "domain_a": 0.0, "domain_b": 1.0,
                "n": 256, "m": 16384, "h": 5e-4, "T": 0.1,
                "solver_tol": 1e-8},
        cosine=(0.5, 1.0),
        reference="own", ref_tol=1e-2),  # crosscheck's default threshold
)}


def initial_values(wl: Workload, seed: int) -> list[float]:
    """Unnormalized initial cell values for ``seed``."""
    n = wl.config["n"]
    xhat = [(i + 0.5) / n for i in range(n)]
    amp, freq = wl.cosine
    vals = [1.0 + amp * math.cos(2.0 * math.pi * freq * s) for s in xhat]
    if seed != 0:
        rng = random.Random(seed)
        coeffs = [(k, rng.uniform(-PERTURB_AMP, PERTURB_AMP))
                  for k in PERTURB_MODES]
        vals = [max(v + sum(c * math.cos(k * math.pi * s) for k, c in coeffs),
                    PERTURB_FLOOR)
                for v, s in zip(vals, xhat)]
    return vals


def write_inputs(wl: Workload, seed: int, work: Path) -> Path:
    """Write ``rho0.csv`` and ``config.json`` for one seed; return the config."""
    cfg = wl.config
    domain = Domain(a=cfg["domain_a"], b=cfg["domain_b"])
    rho0 = normalize(initial_values(wl, seed), domain)[0]
    csv_path = work / "rho0.csv"
    csv_path.write_text(density_to_csv(rho0))
    config_path = work / "config.json"
    config_path.write_text(json.dumps(
        {**cfg, "rho0": {"csv": str(csv_path)}}, sort_keys=True, indent=2) + "\n")
    return config_path


def artifact_digest(out: Path) -> dict[str, str]:
    """sha256 of every file the command wrote, by relative path."""
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def _run_dir(out: Path) -> Path:
    dirs = [p for p in out.iterdir() if p.is_dir()]
    if len(dirs) != 1:
        raise ValueError(f"expected one run directory under {out}, found {len(dirs)}")
    return dirs[0]


def _final_state(traj_csv: Path, like: GridDensity) -> GridDensity:
    rows = traj_csv.read_text().splitlines()[-like.n:]
    values = [float(row.split(",")[2]) for row in rows]
    return GridDensity(domain=like.domain, values=np.array(values))


@dataclass(frozen=True)
class Verdict:
    passed_flag: bool     # ledger all_pass (run) or comparison passes (crosscheck)
    ref_l1: float
    ref_tol: float

    @property
    def ok(self) -> bool:
        return self.passed_flag and self.ref_l1 <= self.ref_tol


def verify(wl: Workload, config_path: Path, out: Path) -> Verdict:
    """Check one command's artifacts and measure ``ref_l1``.

    ``ref_l1`` is the final-state L1 gap to the Gibbs state, to the
    finite-difference solve on the same grid and step, or, for
    ``crosscheck``, the command's own ``l1_final``.  Runs outside every
    timed region.
    """
    run = _run_dir(out)
    if wl.reference == "own":
        doc = json.loads((run / "comparison.json").read_text())
        ref = float(doc["comparisons"][0]["table"]["l1_final"])
        return Verdict(bool(doc["passes"]), ref, wl.ref_tol)
    doc = json.loads((run / "report.json").read_text())
    cfg = cli.load_config(config_path)
    rho0 = cfg.initial_density()
    final = _final_state(run / "trajectory.csv", rho0)
    if wl.reference == "gibbs":
        target = refsolve.gibbs_state(cfg.energy, cfg.potential, cfg.domain, cfg.n)
    else:
        target = refsolve.fd_solve(cfg.cost, cfg.energy, cfg.potential,
                                   cfg.domain, rho0, cfg.T,
                                   refsolve.FdConfig(n=cfg.n, dt=cfg.h)).final
    ref = l1_distance(final, target)
    return Verdict(bool(doc["ledger"]["all_pass"]), ref, wl.ref_tol)
