"""Cross-run audits: inequality ledgers, step-size rate fits, comparisons.

Every bound is assembled from the run's own data; nothing is tuned per run.
The audit slacks are module constants, so audits are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .density import l1_distance
from .errors import ParameterError
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


def _flag(name: str, value: float, bound: float) -> LedgerFlag:
    """A flag that passes when ``value <= bound``; its slack is the gap."""
    return LedgerFlag(name=name, passed=value <= bound, slack=bound - value)


def ledger(problem: JkoProblem, trajectory: SchemeTrajectory
           ) -> InequalityLedger:
    """Audit one run against every per-step and cumulative inequality.

    Each flag tests one value against one bound (``_flag``):
    ``energy-monotone``, the largest rise of the free energy between steps;
    ``cumulative-work-bound``, the summed work against the initial energy
    excess; ``comparison-principle``, the largest excess of any distinct
    later snapshot over the initial essential bounds widened by
    ``BOUND_SLACK_CELLS / m`` (the lower one only without a potential),
    against 0; ``dissipation-bound``, the summed dissipation against the
    growth-derived cap.
    A trajectory with no step raises ``ParameterError``.
    """
    diags = trajectory.diagnostics
    if len(diags) != len(trajectory.times) - 1:
        raise ParameterError(
            "trajectory lacks one diagnostics record per step")
    if not diags:
        raise ParameterError("trajectory has no step to audit")
    h = problem.h
    omega = problem.domain.length
    # left to right, as np.cumsum adds (builtin sum compensates from 3.12)
    total_work = total_sec = total_dis = 0.0
    for d in diags:
        total_work += h * d.W_value
        total_sec += d.second_moment
        total_dis += h * d.dissipation
    rise = float(np.max(np.diff(
        [diags[0].E_free_before] + [d.E_free_after for d in diags])))
    floor_energy = omega * float(problem.energy.value(1.0 / omega))
    budget = diags[0].E_free_before - floor_energy

    rho0 = trajectory.densities[0]
    slack_cells = BOUND_SLACK_CELLS / problem.m
    lo0 = float(np.min(rho0.values)) - slack_cells
    hi0 = float(np.max(rho0.values)) + slack_cells
    excess = -np.inf
    # each snapshot object once: a run at its fixed point repeats the last one
    for rho in {id(r): r for r in trajectory.densities[1:]}.values():
        excess = max(excess, float(np.max(rho.values)) - hi0)
        if problem.potential.is_zero:
            excess = max(excess, lo0 - float(np.min(rho.values)))

    T = trajectory.times[-1]
    rho0_sup = float(np.max(rho0.values))
    mconst = conjugate_growth_constant(problem.cost.alpha, problem.cost.q)
    cap = (budget + problem.cost.alpha * T * omega * rho0_sup) / mconst
    return InequalityLedger(
        cumulative_work=total_work,
        cumulative_second_moment=total_sec,
        dissipation_sum=total_dis,
        dissipation_cap=float(cap),
        flags=(
            _flag("energy-monotone", rise, ENERGY_MONOTONE_TOL),
            _flag("cumulative-work-bound", total_work,
                  budget + CUMULATIVE_WORK_TOL),
            _flag("comparison-principle", excess, 0.0),
            _flag("dissipation-bound", total_dis, cap + DISSIPATION_TOL),
        ),
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
        raise ParameterError("totals must be positive and increasing in h")
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
        raise ParameterError("trajectories live on different domains")
    times = traj_a.times
    tb = np.asarray(traj_b.times)
    idx = np.minimum(np.searchsorted(
        tb, np.asarray(times) - 1e-12 * max(tb[-1], 1.0), side="left"),
        tb.size - 1)
    errs = [l1_distance(rho, traj_b.densities[i])
            for rho, i in zip(traj_a.densities, idx)]
    return ComparisonTable(times=tuple(times), l1_errors=tuple(errs),
                           l1_final=errs[-1], l1_sup_in_time=max(errs))
