"""Benchmark of the wflow CLI, end to end and layer by layer.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process drives ``wflow.cli.main`` in a closed loop, one command at a
time, for ``--seconds``.  With ``--trace 0`` it reports the end-to-end
metrics; with ``--trace 1`` it alternates untraced and traced commands and
reports the per-layer metrics.  Set-up time and peak memory are measured in
fresh interpreters.  Every command's output is checked.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Workloads, metrics and what each
should move are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
INPUTS_PER_RUN = 3   # see Input
COMMAND_TIMEOUT_S = 30.0   # a command this slow is counted failed, not waited for
TAIL_BEYOND = 10   # a tail percentile needs this many samples beyond it

# per-layer counts that must repeat exactly from one traced command to the next
EXACT_COUNTS = ("jko.iters_per_step", "jko.zero_iter_frac",
                "density.rasterize_calls", "cli.artifact_bytes")


class CommandTimeout(BaseException):
    """Raised in a command that overran COMMAND_TIMEOUT_S.

    A BaseException, so that no ``except Exception`` in the program
    swallows it.
    """


def _raise_timeout(signum, frame):
    raise CommandTimeout()


def cap_blas_threads() -> None:
    """Cap OpenBLAS threads at the usable core count, here and in children."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(cap)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest percentile with TAIL_BEYOND samples beyond.

    None while that percentile would not lie above the median.
    """
    n = len(values)
    if n < 2 * (TAIL_BEYOND + 1):
        return None
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, sorted(values)[k]


@dataclass
class Input:
    """One generated input of a run, and the first repetition's results.

    An untraced run cycles through INPUTS_PER_RUN inputs, so an input that
    costs more (a step that falls back to FISTA) moves one command in
    three, not the run's median.  A traced run uses the first input only, so
    its counts repeat exactly.
    """

    config: Path
    out: Path
    argv: list[str]
    digest: dict | None = None    # artifact sha256s of the first repetition
    verdict: object = None        # workloads.Verdict of the first repetition


class Bench:
    """One benchmark run: one workload, one seed, one tracing mode."""

    def __init__(self, workload: str, seed: int, trace: bool):
        # imported here, after main() has capped BLAS threads and set sys.path
        from wflow import cli, diagnostics, jko, refsolve
        from wflow.errors import WflowError

        import spans
        import workloads

        self.cli = cli
        self.check_errors = (OSError, ValueError, KeyError, WflowError)
        self.wl = workloads.WORKLOADS[workload]
        self.workloads = workloads
        self.work = HERE / ".work" / f"{workload}-seed{seed}-trace{int(trace)}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.inputs = []
        for j in range(INPUTS_PER_RUN):
            where = self.work / f"input{j}"
            where.mkdir()
            config = workloads.write_inputs(self.wl, INPUTS_PER_RUN * seed + j,
                                            where)
            out = where / "out"
            self.inputs.append(Input(config, out, [
                self.wl.command, "--config", str(config), "--out", str(out)]))
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p))
        self.tracer = spans.Tracer()
        self.targets = [
            (cli, "load_config", "cli.load_config"),
            (jko, "validate_assumptions", "convex.validate"),
            (cli, "run_scheme", "jko.run_scheme"),
            (jko, "to_quantiles", "density.to_quantiles"),
            (jko, "jko_step_nodes", "jko.step", lambda r: r[1].iterations),
            (jko, "from_quantiles", "density.rasterize"),
            (cli, "trajectory_to_csv", "cli.serialize"),
            (cli, "diagnostics_to_jsonl", "cli.serialize"),
            (diagnostics, "ledger", "diagnostics.ledger"),
            (refsolve, "fd_solve", "refsolve.fd_solve"),
            (diagnostics, "compare", "diagnostics.compare"),
        ]
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timed_out = False

    # -- checks ---------------------------------------------------------

    def fail(self, what: str) -> None:
        self.errors.append(what)
        print(f"check failed: {what}", file=sys.stderr)

    def check(self, what: str, rc, inp: Input) -> bool:
        """Check one command: exit code, pass flag, reference gap, rerun bytes."""
        self.attempted += 1
        problems = []
        try:
            if rc != 0:
                problems.append(f"exit code {rc}")
            else:
                digest = self.workloads.artifact_digest(inp.out)
                if inp.digest is None:
                    inp.verdict = self.workloads.verify(self.wl, inp.config,
                                                        inp.out)
                    inp.digest = digest
                if digest != inp.digest:
                    problems.append("artifacts differ from the first repetition")
                if not inp.verdict.passed_flag:
                    problems.append("ledger or crosscheck did not pass")
                if not inp.verdict.ref_l1 <= inp.verdict.ref_tol:
                    problems.append(f"ref_l1 {inp.verdict.ref_l1!r} above "
                                    f"{inp.verdict.ref_tol!r}")
        except self.check_errors as exc:
            problems.append(f"artifacts could not be checked: {exc!r}")
        if problems:
            self.failed += 1
            self.fail(f"{what}: " + "; ".join(problems))
        return not problems

    # -- commands -------------------------------------------------------

    def command(self, inp: Input, traced: bool = False) -> tuple[float, bool]:
        """One warm in-process command; returns (wall time in s, passed)."""
        shutil.rmtree(inp.out, ignore_errors=True)
        gc.collect()
        log = io.StringIO()
        rc = None
        with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
            patches = (self.tracer.patched(self.targets) if traced
                       else contextlib.nullcontext())
            with patches:
                signal.setitimer(signal.ITIMER_REAL, COMMAND_TIMEOUT_S)
                t0 = time.perf_counter()
                try:
                    if traced:
                        with self.tracer.span("cli.command"):
                            rc = self.cli.main(inp.argv)
                    else:
                        rc = self.cli.main(inp.argv)
                except SystemExit as exc:
                    rc = exc.code
                except CommandTimeout:
                    self.timed_out = True
                    log.write(f"timed out after {COMMAND_TIMEOUT_S} s\n")
                except Exception:
                    log.write(traceback.format_exc())
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                    wall = time.perf_counter() - t0
        ok = self.check("warm command", rc, inp)
        if not ok:
            sys.stderr.write(log.getvalue()[-4000:])
        return wall, ok

    def _child(self, args: list[str], name: str):
        """Run a fresh interpreter; return (exit code, wall s, peak RSS KiB, stdout)."""
        out_path, err_path = self.work / f"{name}.out", self.work / f"{name}.err"
        with out_path.open("w") as out, err_path.open("w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], cwd=ROOT,
                                    env=self.env, stdout=out, stderr=err)
            deadline = t0 + COMMAND_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(0.001)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            sys.stderr.write(err_path.read_text()[-4000:])
        return proc.returncode, wall, usage.ru_maxrss, out_path.read_text()

    def fresh_command_rss_mb(self, inp: Input) -> float:
        """Peak resident memory of one command in a fresh interpreter."""
        shutil.rmtree(inp.out, ignore_errors=True)
        rc, _, rss_kib, _ = self._child(["-m", "wflow", *inp.argv], "fresh")
        self.check("fresh command", rc, inp)
        return rss_kib / 1024.0

    def setup_probe(self, i: int) -> tuple[float, dict | None]:
        """Set-up wall time of one fresh interpreter, and its split."""
        rc, wall, _, text = self._child(
            [str(HERE / "setup_probe.py"), str(self.inputs[0].config)],
            f"setup{i}")
        self.attempted += 1
        split = None
        if rc == 0:
            try:
                split = json.loads(text.splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                pass
        if split is None:
            self.failed += 1
            self.fail(f"set-up probe {i}: exit code {rc}, no timing line")
        return wall, split

    # -- per-layer figures ----------------------------------------------

    def layer_figures(self, request: int, inp: Input) -> dict[str, float]:
        spans = [(i, s) for i, s in enumerate(self.tracer.spans)
                 if s.request == request]

        def total(name):
            return sum(s.duration for _, s in spans if s.name == name)

        steps = [s for _, s in spans if s.name == "jko.step"]
        step_ms = [1e3 * s.duration for s in steps]
        iters = [s.count for s in steps]
        step_s = sum(s.duration for s in steps)
        root = next(i for i, s in spans if s.name == "cli.command")
        tail_ms = tail(step_ms)
        return {
            "jko.step_s": step_s,
            "jko.iters_per_step": sum(iters) / len(iters),
            "jko.ms_per_iter": 1e3 * step_s / max(sum(iters), 1),
            "jko.zero_iter_frac": sum(i == 0 for i in iters) / len(iters),
            "jko.step_ms_p50": statistics.median(step_ms),
            "jko.step_ms_tail": tail_ms[1] if tail_ms else max(step_ms),
            "density.rasterize_s": total("density.rasterize"),
            "density.rasterize_calls": sum(s.name == "density.rasterize"
                                           for _, s in spans),
            "cli.serialize_s": total("cli.serialize"),
            "cli.self_s": self.tracer.self_times()[root],
            "cli.artifact_bytes": self.workloads.artifact_bytes(inp.out),
            "refsolve.fd_s": total("refsolve.fd_solve"),
            "diagnostics.compare_s": total("diagnostics.compare"),
            "diagnostics.ledger_s": total("diagnostics.ledger"),
        }


def environment() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)),
            "openblas_num_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "commit": git_commit()}


def end_to_end(bench: Bench, seconds: float, notes: dict) -> dict:
    """Set-up, memory and warm wall time; command times at reference speed."""
    from speed import SpeedScale

    setup = []
    for i in range(SETUP_PROBES):
        wall, split = bench.setup_probe(i)
        if split is not None:
            setup.append(wall)
    rss_mb = bench.fresh_command_rss_mb(bench.inputs[0])   # first repetition
    bench.command(bench.inputs[0])                         # warm-up
    walls, walls_raw = [], []
    speed = SpeedScale()
    speed.mark()
    t_end = time.perf_counter() + seconds
    while not bench.timed_out and (len(walls) < INPUTS_PER_RUN
                                   or time.perf_counter() < t_end):
        wall = bench.command(bench.inputs[len(walls) % INPUTS_PER_RUN])[0]
        walls.append(speed.scale(wall))
        walls_raw.append(wall)
    notes.update(wall_s_samples=walls, wall_s_raw=walls_raw,
                 wall_s_tail=tail(walls), setup_s_samples=setup,
                 kernel_s=speed.kernels)
    metrics = {"peak_rss_mb": rss_mb,
               "ok_frac": (bench.attempted - bench.failed) / bench.attempted}
    if walls:
        metrics["wall_s"] = statistics.median(walls)
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    if all(inp.verdict is not None for inp in bench.inputs):
        metrics["ref_l1"] = statistics.median(
            inp.verdict.ref_l1 for inp in bench.inputs)
    return metrics


def per_layer(bench: Bench, seconds: float, notes: dict) -> dict:
    """Per-layer figures from traced commands, unscaled."""
    setup_split = {}
    for i in range(SETUP_PROBES):
        _, split = bench.setup_probe(i)
        for k, v in (split or {}).items():
            setup_split.setdefault(k, []).append(v)
    inp = bench.inputs[0]
    bench.command(inp)                      # warm-up and first repetition
    plain, traced, figures = [], [], []
    t_end = time.perf_counter() + seconds
    while ((time.perf_counter() < t_end or len(traced) < 2)
           and not bench.timed_out):
        plain.append(bench.command(inp)[0])
        bench.tracer.request += 1
        wall, ok = bench.command(inp, traced=True)
        traced.append(wall)
        if ok:
            figures.append(bench.layer_figures(bench.tracer.request, inp))
    bench.tracer.write(bench.work / "spans.jsonl")
    notes.update(wall_s_untraced=plain, wall_s_traced=traced)
    for key in EXACT_COUNTS:
        seen = sorted({f[key] for f in figures})
        if len(seen) > 1:
            bench.fail(f"count {key} differs between commands: {seen}")
    metrics = {k: statistics.median(f[k] for f in figures)
               for k in (figures[0] if figures else ())}
    metrics.update((k, statistics.median(v)) for k, v in setup_split.items())
    if plain and traced:
        metrics["trace.overhead_s"] = (statistics.median(traced)
                                       - statistics.median(plain))
    return metrics


def run(args) -> dict:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    bench = Bench(args.workload, args.seed, bool(args.trace))
    env = environment()
    notes = {}
    if args.trace:
        metrics = per_layer(bench, args.seconds, notes)
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    else:
        metrics = end_to_end(bench, args.seconds, notes)
        units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    for inp in bench.inputs:
        shutil.rmtree(inp.out, ignore_errors=True)
    (bench.work / "result.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "attempted": bench.attempted, "failed": bench.failed,
         "metrics": metrics, "env": env, "notes": notes,
         "errors": bench.errors}, indent=2) + "\n")
    missing = [k for k in units if not math.isfinite(metrics.get(k, math.nan))]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}; "
                           f"errors: {bench.errors}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{bench.attempted} operations, {bench.failed} failed")
    for k in units:
        print(f"  {k:<26} {metrics[k]!r} {units[k]}")
    if not args.trace:
        t = notes["wall_s_tail"]
        print(f"  wall_s over {len(notes['wall_s_raw'])} commands; tail: "
              + (f"p{t[0]:.0f} = {t[1]!r} s" if t else
                 f"needs {2 * (TAIL_BEYOND + 1)} samples")
              + f"; unscaled median {statistics.median(notes['wall_s_raw'])!r} s")
    return {"correct": not bench.errors, "attempted": bench.attempted,
            "failed": bench.failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}


def main() -> int:
    if not (SRC / "wflow" / "__init__.py").is_file():
        print(f"wflow sources not found under {SRC}", file=sys.stderr)
        return 2
    cap_blas_threads()   # before numpy is first imported
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    signal.signal(signal.SIGALRM, _raise_timeout)
    try:
        result = run(args)
    except RuntimeError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
