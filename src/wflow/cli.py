"""Batch front door: configs in, CSV/JSON artifacts out.

One JSON config file describes one reproducible run.  Artifacts land in
``<out>/<preset>_<hash(config)>/``, where ``out`` is the ``--out`` option
(default ``out``); identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import pickle
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TextIO

import numpy as np

from . import diagnostics, refsolve, transport
from .convex import CostSpec, EnergySpec, PotentialSpec, preset_specs
from .density import (Domain, GridDensity, csv_rows, density_from_csv,
                      float_cells, normalize)
from .errors import ParameterError, WflowError
from .jko import (JkoProblem, SchemeTrajectory, floored_density, run_scheme,
                  step_count)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2

CONFIG_KEYS = frozenset({
    "preset", "exponent_m", "exponent_p", "exponent_n", "cost_terms",
    "energy_terms", "potential", "domain_a", "domain_b", "n", "m", "h", "T",
    "rho0", "floor_delta", "solver_tol", "newton_max_iter",
})
# largest n or m: four times the finest grid any test or benchmark uses
MAX_GRID = 1 << 16
# largest work, steps * cells on both grids (m for the scheme, n for the held
# trajectory and the crosscheck reference): 20 times the most any test or
# benchmark asks for, 200 * 16384.  It keeps the held trajectory, (steps + 1)
# * n values, under 2^26 + 2^16 < 2^27 (1 GiB of float64)
MAX_WORK = 1 << 26
# largest energy power exponent, preset or explicit: 25 times the largest any
# test or benchmark uses, 4; x^m stays finite for densities x up to 1e3
MAX_EXPONENT = 100.0
# largest |domain_a| and |domain_b|: 4e5 times the largest any test or
# benchmark uses, 2.5; a quadratic potential overflows from about 1e154
MAX_DOMAIN = 1e6
# largest value of the potential on the domain: about 2e4 times the largest
# any test or benchmark uses, 45,300.5 (kappa 1 centred at -300 on [0, 1])
MAX_POTENTIAL = 1e9
# largest newton_max_iter: 12.5 times the default of 80, 8 times the 123
# iterations of the stiffest step seen to certify (kappa = 1e5); a run stopped
# by 1,000 at m = 16384 took 1.4 s on a 2-core x86_64 host
MAX_NEWTON_ITER = 1000


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    raw: dict
    cost: CostSpec
    energy: EnergySpec
    potential: PotentialSpec
    domain: Domain
    n: int
    m: int
    h: float
    T: float
    rho0: GridDensity
    floor_delta: float | None
    tol: float
    newton_max_iter: int
    label: str

    def problem(self, h: float | None = None) -> JkoProblem:
        """The step problem at step size ``h`` (default: the config's), with
        its step count to ``T`` checked against the work cap on both grids."""
        pb = JkoProblem(cost=self.cost, energy=self.energy,
                        potential=self.potential, domain=self.domain,
                        h=self.h if h is None else h, m=self.m,
                        tol=self.tol, newton_max_iter=self.newton_max_iter)
        steps = step_count(self.T, pb.h)
        for key, cells in (("m", self.m), ("n", self.n)):
            if steps * cells > MAX_WORK:
                raise ParameterError(
                    f"T = {self.T!r}, h = {pb.h!r} and {key} = {cells} ask "
                    f"for {steps} steps of {cells} cells, {steps * cells} in "
                    f"all, over the work cap of {MAX_WORK}")
        return pb

    def initial_density(self) -> GridDensity:
        if self.floor_delta is not None:
            return floored_density(self.rho0, self.floor_delta)
        return self.rho0


def _potential_from_config(spec) -> PotentialSpec:
    if spec is None or spec == "zero":
        return PotentialSpec.zero()
    if isinstance(spec, dict):
        kind = spec.get("kind", "zero")
        if kind == "zero":
            return PotentialSpec.zero()
        if kind == "quadratic":
            return PotentialSpec.quadratic(
                kappa=_number(spec.get("kappa", 1.0), "potential kappa"),
                center=_number(spec.get("center", 0.0), "potential center"))
        if kind == "tabulated":
            return PotentialSpec.tabulated(
                [_number(x, "potential x") for x in spec["x"]],
                [_number(v, "potential v") for v in spec["v"]])
    raise ParameterError(f"unrecognized potential description {spec!r}")


def _profile_values(name: str, params: dict, domain: Domain, n: int) -> np.ndarray:
    xc = domain.centers(n)
    xhat = (xc - domain.a) / domain.length
    if name == "uniform":
        return np.ones(n)
    if name == "cosine":
        amp = _number(params.get("amplitude", 0.5), "amplitude")
        freq = _number(params.get("frequency", 1.0), "frequency")
        if not (0.0 <= amp < 1.0):
            raise ParameterError("cosine profile needs amplitude in [0, 1)")
        return 1.0 + amp * np.cos(2.0 * np.pi * freq * xhat)
    if name == "gaussian":
        center = _number(params.get("center", 0.5 * (domain.a + domain.b)),
                         "center")
        width = _number(params.get("width", 0.2 * domain.length), "width")
        floor = _number(params.get("floor", 1e-3), "floor")
        if not (0.0 < width < math.inf and abs(center) < math.inf):
            raise ParameterError(
                f"gaussian profile needs a finite width > 0 and a finite "
                f"center, got width {width!r} and center {center!r}")
        return np.exp(-0.5 * ((xc - center) / width) ** 2) + floor
    raise ParameterError(f"unknown initial profile {name!r}")


def _rho0_from_config(spec, domain: Domain, n: int) -> GridDensity:
    if spec is None:
        spec = {"profile": "uniform"}
    if isinstance(spec, str):
        spec = {"profile": spec}
    if "csv" in spec:
        path = Path(spec["csv"])
        if not path.exists():
            raise ParameterError(f"initial density file not found: {path}")
        rho = density_from_csv(path.read_text())
        if rho.n != n or rho.domain != domain:
            raise ParameterError(
                "initial density file does not match the configured grid")
        return rho
    values = _profile_values(spec.get("profile", "uniform"), spec, domain, n)
    return normalize(values, domain)[0]


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate one run description; malformed ones raise ParameterError."""
    try:
        return _parse_config(json.loads(Path(path).read_text()))
    except (AttributeError, KeyError, OverflowError, TypeError,
            ValueError) as exc:
        raise ParameterError(
            f"malformed config: {type(exc).__name__}: {exc}") from exc


def _parse_config(raw) -> RunConfig:
    if not isinstance(raw, dict):
        raise TypeError("config must be a JSON object")
    unknown = sorted(set(raw) - CONFIG_KEYS)
    if unknown:
        raise ParameterError(f"unknown config key(s): {', '.join(unknown)}")
    preset = raw.get("preset")
    if preset:
        cost, energy = preset_specs(preset, **{
            k: _number(raw[f"exponent_{k}"], f"exponent_{k}") for k in "mpn"
            if raw.get(f"exponent_{k}") is not None})
    else:
        terms = raw.get("cost_terms")
        if not terms:
            raise ParameterError("config needs a preset or explicit cost_terms")
        cost = CostSpec(terms=tuple(
            (_number(A, "cost_terms coefficient"),
             _number(qi, "cost_terms exponent")) for A, qi in terms))
        eterms = []
        for t in raw.get("energy_terms", []):
            coeff = _number(t.get("coeff", 1.0), "energy_terms coeff")
            if t.get("kind") == "entropy":
                eterms.append(("entropy", coeff))
            elif t.get("kind") == "power":
                eterms.append(("power", coeff,
                               _number(t["exponent"], "energy_terms exponent")))
            else:
                raise ParameterError(f"unknown energy term {t!r}")
        if not eterms:
            raise ParameterError("explicit configs need energy_terms")
        energy = EnergySpec(terms=tuple(eterms))
    top = max((t[2] for t in energy.terms if t[0] == "power"), default=0.0)
    if top > MAX_EXPONENT:
        raise ParameterError(f"energy exponent {top!r} is over the cap of "
                             f"{MAX_EXPONENT!r}")
    potential = _potential_from_config(raw.get("potential"))
    domain = Domain(a=_number(raw.get("domain_a", 0.0), "domain_a"),
                    b=_number(raw.get("domain_b", 1.0), "domain_b"))
    if max(-domain.a, domain.b) > MAX_DOMAIN:
        raise ParameterError(f"domain ({domain.a!r}, {domain.b!r}) reaches "
                             f"beyond the cap of {MAX_DOMAIN!r} in magnitude")
    with np.errstate(over="ignore", invalid="ignore"):  # V convex: max at a wall
        peak = float(np.max(potential.value((domain.a, domain.b))))
    if not peak <= MAX_POTENTIAL:
        raise ParameterError(f"potential reaches {peak!r} on the domain, over "
                             f"the cap of {MAX_POTENTIAL!r}")
    n = _grid_size(raw, "n", 256)
    m = _grid_size(raw, "m", n)
    rho0 = _rho0_from_config(raw.get("rho0"), domain, n)
    floor_delta = None
    if raw.get("floor_delta") is not None:
        floor_delta = _number(raw["floor_delta"], "floor_delta")
        if not (floor_delta > 0.0):
            raise ParameterError(f"floor_delta must be positive, got {floor_delta}")
    elif not rho0.strictly_positive:
        raise ParameterError(
            "initial density has zero cells; set floor_delta to floor it")
    iters = _number(raw.get("newton_max_iter", JkoProblem.newton_max_iter),
                    "newton_max_iter", integral=True)
    if iters > MAX_NEWTON_ITER:
        raise ParameterError(f"newton_max_iter {iters!r} is over the cap of "
                             f"{MAX_NEWTON_ITER}")
    return RunConfig(
        raw=raw, cost=cost, energy=energy, potential=potential, domain=domain,
        n=n, m=m, h=_number(raw.get("h", 1e-2), "h"),
        T=_number(raw.get("T", 1.0), "T"),
        rho0=rho0, floor_delta=floor_delta, label=preset or "custom",
        tol=_number(raw.get("solver_tol", JkoProblem.tol), "solver_tol"),
        newton_max_iter=iters)


def _number(v, name: str, integral: bool = False):
    """A config value as a JSON number, never a bool or a string: a float, or
    an int if ``integral`` (``64.0`` counts).  ``name`` labels the error;
    users check the range."""
    if integral and isinstance(v, float) and v.is_integer():
        v = int(v)
    if type(v) is int or type(v) is float and not integral:
        return v if integral else float(v)
    raise ValueError(f"{name} must be {'an integer' if integral else 'a number'}"
                     f", got {v!r}")


def _grid_size(raw: dict, key: str, default: int) -> int:
    """``raw[key]`` as a cell count: an integral JSON number in [1, MAX_GRID]."""
    v = _number(raw.get(key, default), key, integral=True)
    if not 1 <= v <= MAX_GRID:
        raise ValueError(
            f"{key} must be an integer in [1, {MAX_GRID}], got {v!r}")
    return v


def config_hash(raw: dict) -> str:
    blob = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def output_dir(cfg: RunConfig, root: str | Path, verdicts: list[str]) -> Path:
    """The config's run directory under ``root``, created if missing.  The
    files named in ``verdicts`` are removed, so that a rerun that fails does
    not leave the verdict of the run before it."""
    d = Path(root) / f"{cfg.label}_{config_hash(cfg.raw)}"
    d.mkdir(parents=True, exist_ok=True)
    for name in verdicts:
        (d / name).unlink(missing_ok=True)
    return d


# ---------------------------------------------------------------------------
# artifact writers (full round-trip decimal precision)
# ---------------------------------------------------------------------------

def trajectory_to_csv(traj: SchemeTrajectory, fh: TextIO) -> None:
    """Write the ``t,x,rho`` rows of every snapshot to ``fh``, one snapshot
    at a time, so no more than one snapshot's text is held in memory.

    The ``x,rho`` tail of each row is formatted once per distinct snapshot:
    a snapshot that is the same object as the one before (a run at its
    fixed point) reuses the tails and only ``t`` is formatted again.
    """
    x_cells = {}
    fh.write("t,x,rho\n")
    last = tails = None
    for t, rho in zip(traj.times, traj.densities):
        if rho is not last:
            grid = (rho.domain, rho.n)
            if grid not in x_cells:
                x_cells[grid] = float_cells(rho.centers)
            tails = [f"{x},{v}\n"
                     for x, v in zip(x_cells[grid], float_cells(rho.values))]
            last = rho
        lead = repr(float(t)) + ","
        fh.write(lead + lead.join(tails))


def diagnostics_to_jsonl(traj: SchemeTrajectory, fh: TextIO) -> None:
    """Write one JSON line per step record to ``fh``; a record equal to the
    one before (a run at its fixed point) reuses that record's line."""
    last = line = None
    for d in traj.diagnostics:
        if d != last:
            line, last = json.dumps(vars(d), sort_keys=True) + "\n", d
        fh.write(line)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _stream(path: Path, writer, traj: SchemeTrajectory) -> None:
    """Write one artifact of ``traj`` to ``path`` as ``writer`` formats it;
    the file is opened with the same defaults as ``Path.write_text``."""
    with open(path, "w") as fh:
        writer(traj, fh)


def _write_trajectory(out: Path, traj: SchemeTrajectory) -> None:
    _stream(out / "trajectory.csv", trajectory_to_csv, traj)
    _stream(out / "diagnostics.jsonl", diagnostics_to_jsonl, traj)


def _report_document(cfg: RunConfig, *, led=None, rate_fits=(),
                     comparisons=()) -> dict:
    """One report shape for every command; unused sections stay empty."""
    return {
        "run_config": cfg.raw,
        "config_hash": config_hash(cfg.raw),
        "ledger": (None if led is None
                   else {**asdict(led), "all_pass": led.all_pass}),
        "rate_fits": list(rate_fits),
        "comparisons": list(comparisons),
    }


def _config_error(exc: Exception) -> int:
    print(f"config error: {exc}", file=sys.stderr)
    return EXIT_CONFIG


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_run(config_path: str, root: str | Path = "out") -> int:
    try:
        cfg = load_config(config_path)
        problem = cfg.problem()
    except (WflowError, OSError) as exc:
        return _config_error(exc)
    out = output_dir(cfg, root, ["report.json"])
    _write_json(out / "config.json", cfg.raw)
    try:
        traj = run_scheme(problem, cfg.initial_density(), cfg.T)
    except WflowError as exc:
        partial = getattr(exc, "partial", None)
        if partial is not None:
            _write_trajectory(out, partial)
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _write_trajectory(out, traj)
    led = diagnostics.ledger(problem, traj)
    _write_json(out / "report.json", _report_document(cfg, led=led))
    print(f"artifacts in {out}")
    return EXIT_OK if led.all_pass else EXIT_SOLVER


def cmd_study(config_path: str, values: list[float],
              root: str | Path = "out") -> int:
    try:
        cfg = load_config(config_path)
        diagnostics.check_step_sizes(values)
        problems = [cfg.problem(h=h) for h in values]  # checked before any run
        rho0 = cfg.initial_density()
    except (WflowError, OSError) as exc:
        return _config_error(exc)
    out = output_dir(cfg, root, ["rate.json", "rate.csv"])
    results, failures = [], []
    for pb in problems:
        try:
            traj = run_scheme(pb, rho0, cfg.T)
        except WflowError as exc:
            failures.append({"h": pb.h, "error": str(exc)})
            continue
        results.append((pb.h, sum(d.second_moment for d in traj.diagnostics)))
    results.sort()
    if failures:
        _write_json(out / "rate.json", {
            **_report_document(cfg), "partial": True, "failures": failures,
            "completed": [{"h": h, "total": tot} for h, tot in results]})
        print(f"study aborted: {len(failures)} member(s) failed", file=sys.stderr)
        return EXIT_SOLVER
    hs, totals = zip(*results)
    try:
        fit = diagnostics.fit_rate(hs, totals)
    except WflowError as exc:
        print(f"rate fit invalid: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    expected = min(1.0, cfg.cost.q - 1.0)
    passes = fit.slope >= expected - 0.15
    report = _report_document(cfg, rate_fits=[{
        "vary": "h",
        "fit": asdict(fit),
        "expected_exponent": expected,
        "passes": passes,
    }])
    report["passes"] = passes
    _write_json(out / "rate.json", report)
    (out / "rate.csv").write_text(
        "h,total_second_moment\n" + csv_rows(float_cells(hs), float_cells(totals)))
    print(f"slope {fit.slope!r} (expected >= {expected - 0.15!r}); artifacts in {out}")
    return EXIT_OK if passes else EXIT_SOLVER


@contextlib.contextmanager
def _in_child(task):
    """Run ``task()`` in a forked child while the ``with`` block runs.

    Yields a function that waits for the child and returns what ``task()``
    returned, or raises what it raised.  Either comes back pickled through
    a pipe, so an error keeps its type, message and attributes.  Leaving
    the block kills and reaps the child on every path; by then it has ended
    unless its result was never asked for.  Where ``os.fork`` is missing or
    fails, or the child dies without a result, the yielded function calls
    ``task()`` in this process instead.

    The child ends in ``os._exit`` on every path: it never returns into the
    caller, runs no exit handler and flushes no buffer it inherited.  A
    fork copies only the calling thread, so ``task`` must take no lock that
    another thread may hold.
    """
    import signal  # loaded only by the command that forks

    pid = None
    if hasattr(os, "fork"):
        r, w = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(r)
            os.close(w)
    if pid is None:
        yield task
        return
    if pid == 0:
        status = 1
        try:
            os.close(r)
            with open(w, "wb") as fh:
                try:
                    outcome = True, task()
                except BaseException as exc:
                    outcome = False, exc
                pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    with open(r, "rb") as fh:
        def result():
            try:
                ok, value = pickle.load(fh)
            except Exception:  # the child died, or its outcome cannot load
                return task()
            if not ok:
                raise value
            return value

        try:
            yield result
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def cmd_crosscheck(config_path: str, threshold: float = 1e-2,
                   root: str | Path = "out") -> int:
    """Run the scheme and the finite-difference reference from one initial
    density and compare them.

    The two solves share nothing but that density, so they run in two
    processes: a forked child solves the reference and streams
    ``reference.csv`` while this process runs the scheme (``_in_child``).
    Every file is the one a serial run writes.  Either solve failing exits
    2; the scheme's error is reported first, as in a serial run, and the
    reference's is prefixed ``finite-difference reference:``.  Any exit
    before ``trajectory.csv`` is written removes ``reference.csv``.

    The child is safe to fork from a process with OpenBLAS's thread pool
    (Python 3.12 and later warn of any native thread): it runs only numpy
    elementwise code, LAPACK's ``dgtsv`` and the CSV writer, none of which
    uses the pool, and OpenBLAS resets its pool in the child through its
    own fork handlers.
    """
    try:
        if not 0.0 <= threshold < math.inf:
            raise ParameterError(
                f"threshold must be finite and >= 0, got {threshold!r}")
        cfg = load_config(config_path)
        problem = cfg.problem()
        fd_cfg = refsolve.FdConfig(n=cfg.n, dt=cfg.h)
    except (WflowError, OSError) as exc:
        return _config_error(exc)
    out = output_dir(cfg, root, ["trajectory.csv", "comparison.json",
                                 "comparison.csv"])
    ref_path = out / "reference.csv"

    def reference() -> SchemeTrajectory:
        fd = refsolve.fd_solve(cfg.cost, cfg.energy, cfg.potential, cfg.domain,
                               rho0, cfg.T, fd_cfg)
        _stream(ref_path, trajectory_to_csv, fd)
        return fd

    try:
        rho0 = cfg.initial_density()
        with _in_child(reference) as reference_result:
            traj = run_scheme(problem, rho0, cfg.T)
            try:
                fd = reference_result()
            except WflowError as exc:
                raise WflowError(f"finite-difference reference: {exc}") from exc
        table = diagnostics.compare(traj, fd)
        _stream(out / "trajectory.csv", trajectory_to_csv, traj)
    except BaseException as exc:
        ref_path.unlink(missing_ok=True)  # the child is reaped by now
        if not isinstance(exc, WflowError):
            raise
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    passes = table.l1_final <= threshold
    report = _report_document(cfg, comparisons=[{
        "against": "finite-difference reference",
        "threshold": threshold,
        "table": asdict(table),
        "passes": passes,
    }])
    report["passes"] = passes
    _write_json(out / "comparison.json", report)
    (out / "comparison.csv").write_text("t,l1_error\n" + csv_rows(
        float_cells(table.times), float_cells(table.l1_errors)))
    print(f"final-time L1 gap {table.l1_final!r} vs threshold {threshold!r}")
    return EXIT_OK if passes else EXIT_SOLVER


def cmd_oracle(k: int, seed: int, q: float = 2.0) -> int:
    try:
        if not 1 <= k <= transport.ORACLE_LIMIT:
            raise ParameterError(
                f"oracle needs 1 <= k <= {transport.ORACLE_LIMIT}, got {k}")
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        cost = CostSpec.single_power(q)
    except WflowError as exc:
        return _config_error(exc)
    rng = np.random.default_rng(seed)
    worst = 0.0
    with np.errstate(over="ignore"):
        for _ in range(20):
            x = rng.uniform(-1.0, 1.0, size=k)
            y = rng.uniform(-1.0, 1.0, size=k)
            mono = transport.monotone_atom_cost(x, y, cost, h=1.0)
            dev = math.inf
            if math.isfinite(mono):  # then the exact assignment is finite too
                exact = transport.lp_oracle(x, y, cost, h=1.0)
                if exact > 0.0:  # an underflowed cost compares nothing
                    dev = abs(mono - exact) / exact
            if not math.isfinite(dev):
                print(f"oracle failed: no finite deviation at q = {q!r} "
                      f"(monotone cost {mono!r})", file=sys.stderr)
                return EXIT_SOLVER
            worst = max(worst, dev)
    print(f"max relative deviation {worst!r}")
    return EXIT_OK if worst <= 1e-9 else EXIT_SOLVER


def _step_sizes(text: str) -> list[float]:
    """The ``--values`` option: comma-separated step sizes."""
    return [float(tok) for tok in text.split(",") if tok.strip()]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit as config errors (1); exit 2
    stays reserved for a failed solve."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(
        prog="wflow",
        description="variational solver for 1-D degenerate diffusion")
    sub = parser.add_subparsers(dest="command", required=True)

    files = argparse.ArgumentParser(add_help=False)
    files.add_argument("--config", required=True)
    files.add_argument("--out", default="out", help="output root")

    sub.add_parser("run", parents=[files],
                   help="run one configuration end to end")

    p_study = sub.add_parser("study", parents=[files],
                             help="step-size sweep with a rate fit")
    p_study.add_argument("--values", type=_step_sizes, required=True,
                         help="comma-separated step sizes")

    p_cross = sub.add_parser("crosscheck", parents=[files],
                             help="variational vs finite-difference run")
    p_cross.add_argument("--threshold", type=float, default=1e-2)

    p_oracle = sub.add_parser("oracle",
                              help="monotone matching vs exact assignment")
    p_oracle.add_argument("--k", type=int, required=True)
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.add_argument("--q", type=float, default=2.0)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.config, root=args.out)
    if args.command == "study":
        return cmd_study(args.config, args.values, root=args.out)
    if args.command == "crosscheck":
        return cmd_crosscheck(args.config, threshold=args.threshold,
                              root=args.out)
    return cmd_oracle(args.k, args.seed, q=args.q)


if __name__ == "__main__":
    sys.exit(main())
