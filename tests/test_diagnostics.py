from dataclasses import asdict, replace

import numpy as np
import pytest

from wflow.convex import CostSpec, EnergySpec, PotentialSpec
from wflow.density import Domain, normalize
from wflow.diagnostics import (
    Tolerances,
    compare,
    conjugate_growth_constant,
    fit_rate,
    ledger,
    second_moment_rate,
)
from wflow.errors import (
    DomainMismatchError,
    FitInvalidError,
    IncompleteLedgerError,
    ParameterError,
)
from wflow.jko import JkoProblem, SchemeTrajectory, run_scheme
from wflow.refsolve import FdConfig, fd_solve

UNIT = Domain(0.0, 1.0)
Q2 = CostSpec.single_power(2.0)
ENTROPY = EnergySpec.entropy()
NOPOT = PotentialSpec.zero()


def heat_problem(h, m):
    return JkoProblem(cost=Q2, energy=ENTROPY, potential=NOPOT, domain=UNIT,
                      h=h, m=m)


def cosine_density(n, amp=0.5):
    xc = UNIT.centers(n)
    return normalize(1.0 + amp * np.cos(2 * np.pi * xc), UNIT)[0]


# ---------------------------------------------------------------------------
# growth constant
# ---------------------------------------------------------------------------

def test_conjugate_growth_constant_is_a_lower_bound():
    # c*(z) >= M |z|^{q*} - alpha whenever c(z) <= alpha (|z|^q + 1)
    for cost in (Q2, CostSpec.single_power(1.5),
                 CostSpec(terms=((0.5, 2.0), (1.0, 3.0)))):
        M = conjugate_growth_constant(cost.alpha, cost.q)
        z = np.linspace(-40, 40, 801)
        qs = cost.q / (cost.q - 1.0)
        slack = cost.conjugate(z) - (M * np.abs(z) ** qs - cost.alpha)
        assert np.min(slack) >= -1e-9


# ---------------------------------------------------------------------------
# ledgers
# ---------------------------------------------------------------------------

def test_ledger_stationary_run():
    pb = heat_problem(h=1e-2, m=64)
    rho, _ = normalize(np.ones(64), UNIT)
    traj = run_scheme(pb, rho, T=0.05)
    led = ledger(pb, traj)
    assert led.all_pass
    assert led.cumulative_work <= 1e-12
    assert led.dissipation_sum <= 1e-12


def test_ledger_heat_run_passes():
    pb = heat_problem(h=1e-2, m=128)
    traj = run_scheme(pb, cosine_density(128), T=0.3)
    led = ledger(pb, traj)
    assert led.all_pass, [asdict(f) for f in led.flags if not f.passed]
    assert len(traj.diagnostics) == 30
    # cumulative sums equal the sum of the per-step entries exactly
    assert led.cumulative_work == sum(
        pb.h * d.W_value for d in traj.diagnostics) or led.cumulative_work == pytest.approx(
        sum(pb.h * d.W_value for d in traj.diagnostics), abs=0.0)


@pytest.mark.xfail(strict=True,
                   reason="the comparison-principle flag caps the maximum at "
                          "its initial value, but with a confining potential "
                          "the maximum rises toward the Gibbs state's")
def test_ledger_comparison_principle_with_potential():
    # V = (x + 1)^2 / 2: the maximum rises from 1.50 to 1.77 on the way to
    # the Gibbs state exp(-V)/Z, whose maximum is 1.78
    pb = JkoProblem(cost=Q2, energy=ENTROPY,
                    potential=PotentialSpec.quadratic(1.0, -1.0), domain=UNIT,
                    h=1e-2, m=128)
    xc = UNIT.centers(128)
    rho0 = normalize(1.0 + 0.5 * np.cos(np.pi * xc), UNIT)[0]
    traj = run_scheme(pb, rho0, T=1.0)
    led = ledger(pb, traj)
    assert led.all_pass, [asdict(f) for f in led.flags if not f.passed]


def test_ledger_flags_reversed_trajectory():
    pb = heat_problem(h=1e-2, m=128)
    traj = run_scheme(pb, cosine_density(128), T=0.2)
    reversed_traj = SchemeTrajectory(
        times=traj.times,
        densities=traj.densities[::-1],
        diagnostics=tuple(
            replace(d,
                    E_free_before=d.E_free_after,
                    E_free_after=d.E_free_before,
                    E_internal_before=d.E_internal_after,
                    E_internal_after=d.E_internal_before)
            for d in traj.diagnostics[::-1]),
    )
    led = ledger(pb, reversed_traj)
    failed = {f.name for f in led.flags if not f.passed}
    assert "energy-monotone" in failed


def test_ledger_requires_diagnostics():
    pb = heat_problem(h=1e-2, m=64)
    rho = cosine_density(64)
    traj = run_scheme(pb, rho, T=0.02)
    broken = SchemeTrajectory(times=traj.times, densities=traj.densities,
                              diagnostics=traj.diagnostics[:-1])
    with pytest.raises(IncompleteLedgerError):
        ledger(pb, broken)


def test_ledger_dissipation_cap_from_run_data():
    pb = heat_problem(h=1e-2, m=128)
    traj = run_scheme(pb, cosine_density(128, amp=0.7), T=0.2)
    led = ledger(pb, traj)
    assert led.dissipation_sum <= led.dissipation_cap
    assert led.dissipation_cap > 0.0


# ---------------------------------------------------------------------------
# rate fits
# ---------------------------------------------------------------------------

def test_fit_rate_recovers_synthetic_slope():
    hs = [1 / 20, 1 / 40, 1 / 80, 1 / 160, 1 / 320]
    for s in (0.5, 1.0, 1.7):
        totals = [3.7 * h**s for h in hs]
        fit = fit_rate(hs, totals)
        assert fit.slope == pytest.approx(s, abs=1e-6)
        assert fit.max_residual <= 1e-10


def test_fit_rate_rejects_bad_input():
    with pytest.raises(ParameterError):
        fit_rate([0.1, 0.05], [1.0, 0.5])
    with pytest.raises(ParameterError):
        fit_rate([0.1, 0.09, 0.08, 0.07], [1, 2, 3, 4])  # not geometric
    with pytest.raises(FitInvalidError):
        fit_rate([1 / 20, 1 / 40, 1 / 80, 1 / 160], [1.0, 2.0, 3.0, 4.0])


def test_second_moment_rate_heat_flow():
    # slow-mode data so the coarsest step size is already asymptotic
    dom = Domain(0.0, 2.0)
    xc = dom.centers(128)
    rho0, _ = normalize(1.0 + 0.4 * np.cos(np.pi * xc / 2.0), dom)
    fit = second_moment_rate(
        lambda h: JkoProblem(cost=Q2, energy=ENTROPY, potential=NOPOT,
                             domain=dom, h=h, m=128),
        rho0, T=0.5, h_values=[1 / 20, 1 / 40, 1 / 80, 1 / 160])
    assert fit.slope >= 1.0 - 0.15


# ---------------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------------

def test_compare_identical_trajectories():
    pb = heat_problem(h=1e-2, m=64)
    traj = run_scheme(pb, cosine_density(64), T=0.05)
    table = compare(traj, traj)
    assert table.l1_final == 0.0
    assert table.l1_sup_in_time == 0.0


def test_compare_previous_value_sampling():
    pb_fine = heat_problem(h=5e-3, m=64)
    pb_coarse = heat_problem(h=1e-2, m=64)
    rho = cosine_density(64)
    fine = run_scheme(pb_fine, rho, T=0.04)
    coarse = run_scheme(pb_coarse, rho, T=0.04)
    table = compare(fine, coarse)
    assert len(table.times) == len(fine.times)
    assert table.l1_final <= 0.05


def test_compare_jko_vs_fd_heat():
    n = 128
    h = 1e-3
    pb = heat_problem(h=h, m=n)
    rho = cosine_density(n)
    ours = run_scheme(pb, rho, T=0.05)
    ref = fd_solve(Q2, ENTROPY, NOPOT, UNIT, rho, T=0.05,
                   cfg=FdConfig(n=n, dt=h))
    table = compare(ours, ref)
    assert table.l1_final <= 1e-2


def test_compare_self_convergence_in_h():
    n = 96
    rho = cosine_density(n)
    ref = run_scheme(heat_problem(h=2.5e-3, m=n), rho, T=0.04)
    gap_coarse = compare(run_scheme(heat_problem(h=1e-2, m=n), rho, T=0.04),
                         ref).l1_final
    gap_fine = compare(run_scheme(heat_problem(h=5e-3, m=n), rho, T=0.04),
                       ref).l1_final
    assert gap_fine < gap_coarse


def test_compare_domain_mismatch():
    pb_a = heat_problem(h=1e-2, m=64)
    rho_a = cosine_density(64)
    traj_a = run_scheme(pb_a, rho_a, T=0.02)
    dom_b = Domain(0.0, 2.0)
    pb_b = JkoProblem(cost=Q2, energy=ENTROPY, potential=NOPOT, domain=dom_b,
                      h=1e-2, m=64)
    xc = dom_b.centers(64)
    rho_b, _ = normalize(1.0 + 0.5 * np.cos(np.pi * xc), dom_b)
    traj_b = run_scheme(pb_b, rho_b, T=0.02)
    with pytest.raises(DomainMismatchError):
        compare(traj_a, traj_b)
