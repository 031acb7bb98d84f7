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
import operator
import os
import pickle
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, TextIO

import numpy as np

from . import diagnostics, refsolve, transport
from .convex import (PRESET_EXPONENTS, CostSpec, EnergySpec, PotentialSpec,
                     preset_specs)
from .density import (Domain, GridDensity, density_from_csv, float_cells,
                      normalize)
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
# the keys each kind of potential and of energy term takes
POTENTIAL_KEYS = {"zero": ("kind",), "quadratic": ("kind", "kappa", "center"),
                  "tabulated": ("kind", "x", "v")}
ENERGY_TERM_KEYS = {"entropy": ("kind", "coeff"),
                    "power": ("kind", "coeff", "exponent")}
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
# buffer size of the parent's end of a child's feed, which goes to the pipe in
# one write when the next record no longer fits: 15 snapshots of 256 cells,
# or 4,096 steps past a fixed point, which send their time alone.  Seed-0
# fp-readme sends 505 snapshots and 496 repeats (1.04 MB) in 34 writes
FEED_BATCH = 1 << 15
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
    rho0: GridDensity  # the starting density, floored if floor_delta is set
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
        """The starting density, ``rho0``."""
        return self.rho0


def _potential_from_config(spec) -> PotentialSpec:
    if spec is None or spec == "zero":
        return PotentialSpec.zero()
    if isinstance(spec, dict):
        kind = spec.get("kind", "zero")
        keys = POTENTIAL_KEYS.get(kind) if isinstance(kind, str) else None
        if keys is None:
            raise ParameterError(
                f"unrecognized potential description {spec!r}")
        _known_keys(spec, "potential", *keys, kind=kind)
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
        _known_keys(params, "uniform profile", "profile")
        return np.ones(n)
    if name == "cosine":
        _known_keys(params, "cosine profile", "profile", "amplitude",
                    "frequency")
        amp = _number(params.get("amplitude", 0.5), "amplitude")
        freq = _number(params.get("frequency", 1.0), "frequency")
        if not (0.0 <= amp < 1.0):
            raise ParameterError("cosine profile needs amplitude in [0, 1)")
        if not abs(2.0 * math.pi * freq) < math.inf:
            raise ParameterError(f"cosine profile needs a frequency with "
                                 f"2*pi*frequency finite, got {freq!r}")
        return 1.0 + amp * np.cos(2.0 * np.pi * freq * xhat)
    if name == "gaussian":
        _known_keys(params, "gaussian profile", "profile", "center", "width",
                    "floor")
        center = _number(params.get("center", 0.5 * (domain.a + domain.b)),
                         "center")
        width = _number(params.get("width", 0.2 * domain.length), "width")
        floor = _number(params.get("floor", 1e-3), "floor")
        if not (0.0 < width < math.inf and abs(center) < math.inf):
            raise ParameterError(
                f"gaussian profile needs a finite width > 0 and a finite "
                f"center, got width {width!r} and center {center!r}")
        if not 0.0 <= floor < math.inf:
            raise ParameterError(
                f"gaussian profile needs a finite floor >= 0, got {floor!r}")
        with np.errstate(over="ignore"):  # a far center: every bump is 0
            values = np.exp(-0.5 * ((xc - center) / width) ** 2) + floor
        if values.max() == floor:
            raise ParameterError(
                f"gaussian profile is flat on the grid: the bump at center "
                f"{center!r} with width {width!r} is lost below the floor "
                f"{floor!r} in every cell")
        return values
    raise ParameterError(f"unknown initial profile {name!r}")


def _rho0_from_config(spec, domain: Domain, n: int) -> GridDensity:
    if spec is None or isinstance(spec, str):
        spec = {"profile": "uniform" if spec is None else spec}
    if "csv" in spec:
        _known_keys(spec, "csv rho0", "csv")
        path = Path(spec["csv"])
        if not path.exists():
            raise ParameterError(f"initial density file not found: {path}")
        rho = density_from_csv(path.read_text(), domain)
        if rho.n != n:
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
    _known_keys(raw, "config", *CONFIG_KEYS)
    preset = raw.get("preset")
    # a key set to null counts as absent
    exponents = [k for k in "mpn" if raw.get(f"exponent_{k}") is not None]
    if preset:
        cost, energy = preset_specs(preset, **{
            k: _number(raw[f"exponent_{k}"], f"exponent_{k}")
            for k in exponents})
        _inapplicable_keys(
            [k for k in ("cost_terms", "energy_terms")
             if raw.get(k) is not None]
            + [f"exponent_{k}" for k in exponents
               if k not in PRESET_EXPONENTS[preset]],
            f"the {preset} preset")
    else:
        _inapplicable_keys([f"exponent_{k}" for k in exponents],
                           "explicit cost_terms and energy_terms")
        terms = raw.get("cost_terms")
        if not terms:
            raise ParameterError("config needs a preset or explicit cost_terms")
        cost = CostSpec(terms=tuple(
            (_number(A, "cost_terms coefficient"),
             _number(qi, "cost_terms exponent")) for A, qi in terms))
        eterms = []
        for t in raw.get("energy_terms", []):
            kind = t.get("kind")
            keys = (ENERGY_TERM_KEYS.get(kind) if isinstance(kind, str)
                    else None)
            if keys is None:
                raise ParameterError(f"unknown energy term {t!r}")
            _known_keys(t, "energy term", *keys, kind=kind)
            coeff = _number(t.get("coeff", 1.0), "energy_terms coeff")
            if kind == "entropy":
                eterms.append(("entropy", coeff))
            else:
                eterms.append(("power", coeff,
                               _number(t["exponent"], "energy_terms exponent")))
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
    if raw.get("floor_delta") is not None:
        rho0 = floored_density(rho0, _number(raw["floor_delta"], "floor_delta"))
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
        rho0=rho0, label=preset or "custom",
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


def _known_keys(spec: dict, what: str, *keys: str,
                kind: str | None = None) -> None:
    """Reject a key of the config object ``spec`` that is not in ``keys``,
    the keys its ``kind``, if named, takes."""
    unknown = sorted(set(spec) - set(keys))
    if unknown:
        takes = f" ({what} kind {kind!r} takes {', '.join(keys)})"
        raise ParameterError(f"unknown {what} key(s): {', '.join(unknown)}"
                             + (takes if kind else ""))


def _inapplicable_keys(keys: list[str], what: str) -> None:
    """Reject the config keys ``keys``, which ``what`` does not read."""
    if keys:
        raise ParameterError(
            f"config key(s) that do not apply to {what}: {', '.join(keys)}")


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


def output_dir(cfg: RunConfig, root: str | Path, verdict: str) -> Path:
    """The config's run directory under ``root``, created if missing, with
    ``config.json``, the config as read, written into it.  The command's
    verdict file ``verdict`` is removed, so that a rerun that fails does not
    leave the verdict of the run before it."""
    d = Path(root) / f"{cfg.label}_{config_hash(cfg.raw)}"
    d.mkdir(parents=True, exist_ok=True)
    (d / verdict).unlink(missing_ok=True)
    _write_json(d / "config.json", cfg.raw)
    return d


# ---------------------------------------------------------------------------
# artifact writers (full round-trip decimal precision)
# ---------------------------------------------------------------------------

def _write_rows(snapshots: Iterable[tuple[float, Domain, np.ndarray]],
                fh: TextIO) -> None:
    """Write the ``t,x,rho`` rows of ``(t, domain, values)`` snapshots to
    ``fh`` one snapshot at a time, so no more than one snapshot's text is
    held in memory.  Each grid's x column is formatted once, each cell with
    its trailing comma; a snapshot whose values are the very array of the
    one before, on the same domain (a run past its fixed point repeats one
    density object), reuses that snapshot's ``x,rho`` tails, so only ``t``
    is formatted again.
    """
    x_cells = {}
    last_domain = last_values = tails = None
    fh.write("t,x,rho\n")
    for t, domain, values in snapshots:
        if values is not last_values or domain != last_domain:
            grid = (domain, values.size)
            if grid not in x_cells:
                x_cells[grid] = [x + "," for x in
                                 float_cells(domain.centers(values.size))]
            tails = list(map(operator.add, x_cells[grid], float_cells(values)))
            last_domain, last_values = domain, values
        lead = repr(float(t)) + ","
        fh.write(lead + ("\n" + lead).join(tails) + "\n")


def trajectory_to_csv(traj: SchemeTrajectory, fh: TextIO) -> None:
    """Write every snapshot's ``t,x,rho`` rows to ``fh`` (``_write_rows``):
    ``reference.csv``, and ``trajectory.csv`` where the run path's writer
    child leaves no outcome (``_scheme_run``)."""
    _write_rows(((t, rho.domain, rho.values)
                 for t, rho in zip(traj.times, traj.densities)), fh)


def diagnostics_to_jsonl(traj: SchemeTrajectory, fh: TextIO) -> None:
    """Write one JSON line per step record to ``fh``: ``orjson.dumps`` of
    its fields with sorted keys, every float the shortest decimal that
    reads back to the same float64, one line at a time.  A record that is
    the very object of the one before (the shared record of a run past its
    fixed point) reuses that record's line.

    orjson writes NaN and the infinities as ``null``; no record holds one,
    since every record comes from a step whose KKT residual certified it.
    """
    import orjson  # loaded only by the commands that write a trajectory

    option = orjson.OPT_SORT_KEYS | orjson.OPT_APPEND_NEWLINE
    last = line = None
    for d in traj.diagnostics:
        if d is not last:
            line, last = orjson.dumps(vars(d), option=option).decode(), d
        fh.write(line)


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n")


def _stream(path: Path, writer, traj: SchemeTrajectory) -> None:
    """Write one artifact of ``traj`` to ``path`` as ``writer`` formats it;
    the file is opened with the same defaults as ``Path.write_text``."""
    with open(path, "w") as fh:
        writer(traj, fh)


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
        out = output_dir(cfg, root, "report.json")
    except (WflowError, OSError) as exc:
        return _config_error(exc)
    try:
        with _scheme_run(out, cfg, problem) as traj:
            led = diagnostics.ledger(problem, traj)
    except WflowError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    _write_json(out / "report.json",
                {"ledger": {**asdict(led), "all_pass": led.all_pass}})
    print(f"artifacts in {out}")
    return EXIT_OK if led.all_pass else EXIT_SOLVER


def cmd_study(config_path: str, values: list[float],
              root: str | Path = "out") -> int:
    try:
        cfg = load_config(config_path)
        diagnostics.check_step_sizes(values)
        problems = [cfg.problem(h=h) for h in values]  # checked before any run
        out = output_dir(cfg, root, "rate.json")
    except (WflowError, OSError) as exc:
        return _config_error(exc)
    results, failures = [], []
    for pb in problems:
        try:
            traj = run_scheme(pb, cfg.rho0, cfg.T)
        except WflowError as exc:
            failures.append({"h": pb.h, "error": str(exc)})
            continue
        results.append((pb.h, sum(d.second_moment for d in traj.diagnostics)))
    results.sort()
    if failures:
        _write_json(out / "rate.json", {
            "partial": True, "failures": failures,
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
    _write_json(out / "rate.json", {"rate_fits": [{
        "vary": "h",
        "fit": asdict(fit),
        "expected_exponent": expected,
        "passes": passes,
    }], "passes": passes})
    print(f"slope {fit.slope!r} (expected >= {expected - 0.15!r}); artifacts in {out}")
    return EXIT_OK if passes else EXIT_SOLVER


@contextlib.contextmanager
def _in_child(task):
    """Run ``task(feed)`` in a forked child while the ``with`` block runs.

    ``feed`` is the child's end of a pipe, a binary file that carries the
    bytes this process sends.  Yields ``(send, close, result)``.
    ``send(data)`` writes ``data`` to this process's end, a binary file
    buffered by ``FEED_BATCH`` bytes, whose buffer goes to the pipe in one
    write once ``data`` no longer fits; it drops ``data`` once the child is
    gone or where there is no child.  ``close()`` writes what is buffered
    and closes the feed, so that the child can finish while this process
    goes on.  ``result(here)`` closes the feed and returns what ``task``
    returned, or raises what it raised:
    the child pickles its outcome through a second pipe, so an error keeps
    its type, message and attributes.  That outcome is authoritative.
    Only where there is none, because ``os.fork`` is missing, a pipe or the
    fork fails, or the child died, does ``result`` return ``here()``,
    called in this process.  Leaving the block kills and reaps the child
    and closes both pipes on every path.

    The child ends in ``os._exit``: it never returns into the caller, runs
    no exit handler and flushes no buffer it inherited.  A fork copies only
    the calling thread, so ``task`` must take no lock that another thread
    may hold.
    """
    import signal  # loaded only by the commands that fork

    pid, fds = None, []
    if hasattr(os, "fork"):
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:  # the task runs here, as where there is no fork
            for fd in fds:
                os.close(fd)
    if pid is None:
        yield (lambda data: None), (lambda: None), (lambda here: here())
        return
    feed_r, feed_w, back_r, back_w = fds
    if pid == 0:
        try:
            os.close(feed_w)
            os.close(back_r)
            # the feed is closed before the outcome goes back, so that a
            # parent still sending meets a broken pipe, not a full one
            with open(feed_r, "rb") as fh:
                try:
                    outcome = True, task(fh)
                except BaseException as exc:
                    outcome = False, exc
            with open(back_w, "wb") as fh:
                pickle.dump(outcome, fh, pickle.HIGHEST_PROTOCOL)
        finally:
            os._exit(0)
    os.close(feed_r)
    os.close(back_w)
    back = open(back_r, "rb")
    feed = open(feed_w, "wb", buffering=FEED_BATCH)

    def close() -> None:
        nonlocal feed
        if feed is not None:
            fh, feed = feed, None
            with contextlib.suppress(BrokenPipeError):  # result tells how
                fh.close()

    def send(data: bytes) -> None:
        if feed is not None:
            try:
                feed.write(data)
            except BrokenPipeError:  # the child is gone; result tells how
                close()

    def result(here):
        close()
        try:
            ok, value = pickle.load(back)
        except Exception:  # the child died, or its outcome cannot load
            return here()
        if not ok:
            raise value
        return value

    try:
        yield send, close, result
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        close()  # to a dead child: what is buffered is dropped
        back.close()


@contextlib.contextmanager
def _scheme_run(out: Path, cfg: RunConfig, problem: JkoProblem):
    """The one run path of ``run`` and ``crosscheck``: in the run directory
    ``out``, run ``run_scheme`` while a forked child (``_in_child``) formats
    each snapshot it is sent into ``trajectory.csv``, write
    ``diagnostics.jsonl`` and yield the trajectory.

    A snapshot goes to the child as float64: its time, then its n values.
    A step past the fixed point, whose snapshot is the very object of the
    step before, goes as its time alone, negated: every time after
    ``rho0``'s is ``k * h > 0``, so the sign marks a repeat, and the child
    writes its rows from the text it formatted for the snapshot before.
    The feed is written out and closed as soon as the scheme returns, so
    that the child formats the last rows while this process writes
    ``diagnostics.jsonl`` and runs the block.  The block's end waits
    for the child and raises what it raised; where the child leaves no
    outcome, the file is written here.  A failed step raises its
    ``WflowError`` once both files hold the partial trajectory.  Once the
    scheme has finished, an ``Exception`` from writing ``diagnostics.jsonl``
    or from the block still waits for the child; only an interrupt kills
    it, which may leave the file short of up to one buffer of snapshots.
    """
    path, rho0 = out / "trajectory.csv", cfg.rho0

    def snapshots(feed):
        values = None
        while head := feed.read(8):
            t = float(np.frombuffer(head)[0])
            if t < 0.0:  # the snapshot before, at time -t
                yield -t, rho0.domain, values
            else:
                values = np.frombuffer(feed.read(8 * rho0.n))
                yield t, rho0.domain, values

    def write(feed) -> None:
        if feed.peek(1):  # the file appears with the first snapshot
            with open(path, "w") as fh:
                _write_rows(snapshots(feed), fh)

    with _in_child(write) as (send, close, result):
        last = None

        def on_snapshot(t: float, rho: GridDensity) -> None:
            nonlocal last
            if rho is last:
                send(np.float64(-t).tobytes())
            else:
                send(np.float64(t).tobytes() + rho.values.tobytes())
                last = rho

        def finish(traj: SchemeTrajectory) -> None:
            result(lambda: _stream(path, trajectory_to_csv, traj))

        try:
            traj = run_scheme(problem, rho0, cfg.T, on_snapshot=on_snapshot)
        except WflowError as exc:
            if getattr(exc, "partial", None) is not None:
                close()
                _stream(out / "diagnostics.jsonl", diagnostics_to_jsonl,
                        exc.partial)
                finish(exc.partial)
            raise
        close()
        try:
            _stream(out / "diagnostics.jsonl", diagnostics_to_jsonl, traj)
            yield traj
        except Exception:
            finish(traj)
            raise
        finish(traj)


def cmd_crosscheck(config_path: str, threshold: float = 1e-2,
                   root: str | Path = "out") -> int:
    """Run the scheme and the finite-difference reference from one initial
    density and compare them.

    The reference child is forked before the run path's writer
    (``_scheme_run``), so that it holds no end of the writer's feed.
    Forking beside OpenBLAS's thread pool is safe (Python 3.12 and later
    warn of any native thread): the children run only numpy elementwise
    code, LAPACK's ``dgtsv`` and the CSV writer, none of which uses the
    pool, and OpenBLAS resets its pool in a child through its own fork
    handlers.
    """
    try:
        if not 0.0 <= threshold < math.inf:
            raise ParameterError(
                f"threshold must be finite and >= 0, got {threshold!r}")
        cfg = load_config(config_path)
        problem = cfg.problem()
        fd_cfg = refsolve.FdConfig(n=cfg.n, dt=cfg.h)
        out = output_dir(cfg, root, "comparison.json")
    except (WflowError, OSError) as exc:
        return _config_error(exc)
    ref_path = out / "reference.csv"

    def reference() -> SchemeTrajectory:
        fd = refsolve.fd_solve(cfg.cost, cfg.energy, cfg.potential, cfg.domain,
                               cfg.rho0, cfg.T, fd_cfg)
        _stream(ref_path, trajectory_to_csv, fd)
        return fd

    try:
        with (_in_child(lambda feed: reference()) as (_, _, reference_result),
              _scheme_run(out, cfg, problem) as traj):
            try:
                fd = reference_result(reference)
            except WflowError as exc:
                raise WflowError(f"finite-difference reference: {exc}") from exc
            table = diagnostics.compare(traj, fd)
    except BaseException as exc:
        # the reference child, reaped by now, may have cut its file short
        with contextlib.suppress(OSError):  # never hides ``exc``
            ref_path.unlink(missing_ok=True)
        if not isinstance(exc, WflowError):
            raise
        print(f"solver error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    passes = table.l1_final <= threshold
    _write_json(out / "comparison.json", {"comparisons": [{
        "against": "finite-difference reference",
        "threshold": threshold,
        "table": asdict(table),
        "passes": passes,
    }], "passes": passes})
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
    try:
        if args.command == "run":
            return cmd_run(args.config, root=args.out)
        if args.command == "study":
            return cmd_study(args.config, args.values, root=args.out)
        if args.command == "crosscheck":
            return cmd_crosscheck(args.config, threshold=args.threshold,
                                  root=args.out)
        return cmd_oracle(args.k, args.seed, q=args.q)
    except OSError as exc:  # an artifact that cannot be written
        return _config_error(exc)


if __name__ == "__main__":
    sys.exit(main())
