"""Cross-run audits: inequality ledgers, step-size rate fits, comparisons.

Every bound is assembled from the run's own data; nothing is tuned per run.
The audit slacks are module constants, so audits are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import l1_distance
from .errors import (
    DomainMismatchError,
    FitInvalidError,
    IncompleteLedgerError,
    ParameterError,
)
from .jko import JkoProblem, SchemeTrajectory

ENERGY_MONOTONE_TOL = 1e-9
CUMULATIVE_WORK_TOL = 1e-8
DISSIPATION_TOL = 1e-8
BOUND_SLACK_CELLS = 4.0  # times 1/m, for the min/max principle


@dataclass(frozen=True)
class LedgerFlag:
    name: str
    passed: bool
    slack: float
    detail: str = ""


@dataclass(frozen=True)
class InequalityLedger:
    """Cumulative sums plus pass/fail flags for the proved inequalities."""

    cumulative_work: float
    cumulative_second_moment: float
    dissipation_sum: float
    dissipation_cap: float
    flags: tuple[LedgerFlag, ...]

    @property
    def all_pass(self) -> bool:
        return all(f.passed for f in self.flags)


def conjugate_growth_constant(alpha: float, q: float) -> float:
    """Sharp constant with ``c*(z) >= M |z|^{q*} - alpha`` under the growth cap.

    Maximizing ``x z - alpha x^q`` gives ``M = 1 / (q* (alpha q)^{q*-1})``;
    the additive ``-alpha`` absorbs the constant in the upper growth bound.
    """
    qstar = q / (q - 1.0)
    return 1.0 / (qstar * (alpha * q) ** (qstar - 1.0))


def ledger(problem: JkoProblem, trajectory: SchemeTrajectory
           ) -> InequalityLedger:
    """Audit one run against every per-step and cumulative inequality.

    Flags: (a) free energy never increases; (b) accumulated work is covered
    by the initial energy excess; (c) essential bounds obey the comparison
    principle (lower bound only without a potential gradient); (d) the summed
    dissipation stays under the growth-derived cap.
    """
    diags = trajectory.diagnostics
    if len(diags) != len(trajectory.times) - 1:
        raise IncompleteLedgerError(
            "trajectory lacks one diagnostics record per step")
    h = problem.h
    omega = problem.domain.length
    W = np.array([d.W_value for d in diags])
    cum_W = np.cumsum(h * W) if len(W) else np.array([0.0])
    sec = np.array([d.second_moment for d in diags])
    cum_sec = np.cumsum(sec) if len(sec) else np.array([0.0])
    dis = np.array([d.dissipation for d in diags])
    cum_dis = np.cumsum(h * dis) if len(dis) else np.array([0.0])

    flags = []

    e_free = np.array([diags[0].E_free_before] + [d.E_free_after for d in diags]) \
        if diags else np.array([0.0])
    rises = np.diff(e_free)
    worst = float(np.max(rises)) if rises.size else 0.0
    flags.append(LedgerFlag(
        name="energy-monotone", passed=worst <= ENERGY_MONOTONE_TOL,
        slack=ENERGY_MONOTONE_TOL - worst,
        detail="free energy nonincreasing across steps"))

    e0_free = diags[0].E_free_before if diags else 0.0
    floor_energy = omega * float(problem.energy.value(1.0 / omega))
    budget = e0_free - floor_energy
    total_work = float(cum_W[-1])
    flags.append(LedgerFlag(
        name="cumulative-work-bound",
        passed=total_work <= budget + CUMULATIVE_WORK_TOL,
        slack=budget + CUMULATIVE_WORK_TOL - total_work,
        detail="sum of h*W covered by initial energy excess"))

    rho0 = trajectory.densities[0]
    slack_cells = BOUND_SLACK_CELLS / problem.m
    lo0 = float(np.min(rho0.values)) - slack_cells
    hi0 = float(np.max(rho0.values)) + slack_cells
    check_lower = problem.potential.is_zero
    worst_hi = -np.inf
    worst_lo = np.inf
    # each snapshot object once: a run at its fixed point repeats the last one
    for rho in {id(r): r for r in trajectory.densities[1:]}.values():
        worst_hi = max(worst_hi, float(np.max(rho.values)))
        worst_lo = min(worst_lo, float(np.min(rho.values)))
    if len(trajectory.densities) > 1:
        upper_ok = worst_hi <= hi0
        lower_ok = (not check_lower) or worst_lo >= lo0
        slack = min(hi0 - worst_hi, (worst_lo - lo0) if check_lower else np.inf)
    else:
        upper_ok = lower_ok = True
        slack = 0.0
    flags.append(LedgerFlag(
        name="comparison-principle", passed=bool(upper_ok and lower_ok),
        slack=float(slack),
        detail="essential bounds inherited from initial data"))

    T = trajectory.times[-1]
    rho0_sup = float(np.max(rho0.values))
    mconst = conjugate_growth_constant(problem.cost.alpha, problem.cost.q)
    cap = (budget + problem.cost.alpha * T * omega * rho0_sup) / mconst
    total_dis = float(cum_dis[-1])
    flags.append(LedgerFlag(
        name="dissipation-bound",
        passed=total_dis <= cap + DISSIPATION_TOL,
        slack=cap + DISSIPATION_TOL - total_dis,
        detail="summed h * int rho |d(F'(rho)+V)|^{q*} under the growth cap"))

    return InequalityLedger(
        cumulative_work=total_work,
        cumulative_second_moment=float(cum_sec[-1]),
        dissipation_sum=total_dis,
        dissipation_cap=float(cap),
        flags=tuple(flags),
    )


# ---------------------------------------------------------------------------
# step-size decay of the summed coupling second moments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    """Log-log least-squares fit of a measured quantity against ``h``."""

    h_values: tuple[float, ...]
    totals: tuple[float, ...]
    slope: float
    intercept: float
    max_residual: float


def check_step_sizes(h_values) -> None:
    """Raise ``ParameterError`` unless a rate fit can use these step sizes:
    at least 4 of them, all positive and geometrically spaced."""
    h = np.sort(np.asarray(h_values, dtype=float))
    if h.size < 4:
        raise ParameterError(f"rate fits need at least 4 step sizes, got {h.size}")
    if not (h > 0.0).all():
        raise ParameterError("step sizes must be positive")
    ratios = h[1:] / h[:-1]
    if np.any(ratios < 1.25) or np.max(ratios) / np.min(ratios) > 1.2:
        raise ParameterError("step sizes must be geometrically spaced")


def fit_rate(h_values, totals) -> RateFit:
    check_step_sizes(h_values)
    h = np.asarray(h_values, dtype=float)
    order = np.argsort(h)
    h, y = h[order], np.asarray(totals, dtype=float)[order]
    if np.any(y <= 0.0) or np.any(np.diff(y) <= 0.0):
        raise FitInvalidError("totals must be positive and increasing in h")
    slope, intercept = np.polyfit(np.log(h), np.log(y), 1)
    resid = np.log(y) - (slope * np.log(h) + intercept)
    return RateFit(h_values=tuple(float(v) for v in h),
                   totals=tuple(float(v) for v in y),
                   slope=float(slope), intercept=float(intercept),
                   max_residual=float(np.max(np.abs(resid))))


# ---------------------------------------------------------------------------
# trajectory comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonTable:
    times: tuple[float, ...]
    l1_errors: tuple[float, ...]
    l1_final: float
    l1_sup_in_time: float


def compare(traj_a: SchemeTrajectory, traj_b: SchemeTrajectory) -> ComparisonTable:
    """Per-time L1 gaps, sampling B at A's times by the previous-value rule.

    One sorted search maps all of A's times, each lowered by
    ``1e-12 max(t_end, 1)`` so that a time equal to one of B's up to
    rounding picks B's state at that time.
    """
    if traj_a.densities[0].domain != traj_b.densities[0].domain:
        raise DomainMismatchError("trajectories live on different domains")
    times = traj_a.times
    tb = np.asarray(traj_b.times)
    idx = np.minimum(np.searchsorted(
        tb, np.asarray(times) - 1e-12 * max(tb[-1], 1.0), side="left"),
        tb.size - 1)
    errs = [l1_distance(rho, traj_b.densities[i])
            for rho, i in zip(traj_a.densities, idx)]
    return ComparisonTable(times=tuple(times), l1_errors=tuple(errs),
                           l1_final=errs[-1], l1_sup_in_time=max(errs))
