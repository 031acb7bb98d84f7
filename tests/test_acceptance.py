"""End-to-end acceptance suite.

One test per exit criterion, each printing a PASS line with the measured
margin when it holds.  Tolerances are fixed here, not tuned per run.
"""

import io

import numpy as np
import pytest

from wflow.cli import trajectory_to_csv
from wflow.convex import CostSpec, EnergySpec, PotentialSpec, preset_specs
from wflow.density import (
    Domain,
    energy as density_energy,
    from_quantiles,
    l1_distance,
    normalize,
    quantile_internal_energy,
    to_quantiles,
)
from wflow.diagnostics import fit_rate
from wflow.jko import JkoProblem, euler_lagrange_residual, floored_density, \
    run_scheme
from wflow.refsolve import FdConfig, barenblatt_density, fd_solve, gibbs_state
from wflow.transport import lp_oracle, monotone_atom_cost

UNIT = Domain(0.0, 1.0)
SYM = Domain(-1.0, 1.0)
Q2 = CostSpec.single_power(2.0)
ENTROPY = EnergySpec.entropy()
NOPOT = PotentialSpec.zero()

ACCEPTANCE_COSTS = {
    "q1.5": CostSpec.single_power(1.5),
    "q2": Q2,
    "q3": CostSpec.single_power(3.0),
    "two-term": CostSpec(terms=((1.0 / 3.0, 3.0), (1.0, 1.5))),
}


def cosine_density(domain, n, amp=0.5, freq=1.0):
    xc = domain.centers(n)
    xhat = (xc - domain.a) / domain.length
    return normalize(1.0 + amp * np.cos(2 * np.pi * freq * xhat), domain)[0]


def random_smooth_density(domain, n, rng, modes=4, amp=0.15, floor=0.05):
    xc = domain.centers(n)
    xhat = (xc - domain.a) / domain.length
    vals = np.ones(n)
    for k in range(1, modes + 1):
        vals = vals + rng.uniform(-amp, amp) * np.cos(2 * np.pi * k * xhat)
        vals = vals + rng.uniform(-amp, amp) * np.sin(2 * np.pi * k * xhat)
    return normalize(np.maximum(vals, floor), domain)[0]


def heat_problem(h, m, domain=UNIT, **kw):
    return JkoProblem(cost=Q2, energy=ENTROPY, potential=NOPOT, domain=domain,
                      h=h, m=m, **kw)


def test_criterion_01_transport_oracle_equivalence():
    # monotone matching equals the exact assignment optimum on 200 random
    # equal-weight instances per cost, across the exhaustive and assignment
    # oracle regimes
    rng = np.random.default_rng(101)
    sizes = [2, 3, 4, 5, 6, 7, 8, 16, 32, 64]
    per_size = 20
    worst = 0.0
    count = 0
    for k in sizes:
        for _ in range(per_size):
            x = rng.uniform(-2.0, 2.0, k)
            y = rng.uniform(-2.0, 2.0, k)
            count += 1
            for cost in ACCEPTANCE_COSTS.values():
                exact = lp_oracle(x, y, cost, h=1.0)
                mono = monotone_atom_cost(x, y, cost, h=1.0)
                worst = max(worst, abs(mono - exact) / max(abs(exact), 1e-300))
    assert count == 200
    assert worst <= 1e-9
    print(f"PASS criterion 1: oracle equivalence, max rel dev {worst:.2e}")


def test_criterion_02_per_step_dissipation():
    # heat flow at n = m = 256, h = 1e-2, T = 1
    pb = heat_problem(h=1e-2, m=256)
    rho0 = cosine_density(UNIT, 256, amp=0.5)
    traj = run_scheme(pb, rho0, T=1.0)
    worst_step = np.inf
    for d in traj.diagnostics:
        worst_step = min(worst_step, d.E_internal_before + 1e-9
                         - (d.E_internal_after + pb.h * d.W_value))
    assert worst_step >= 0.0
    total = sum(pb.h * d.W_value for d in traj.diagnostics)
    budget = traj.diagnostics[0].E_internal_before \
        - UNIT.length * float(ENTROPY.value(1.0 / UNIT.length))
    assert total <= budget + 1e-8
    print(f"PASS criterion 2: per-step slack {worst_step:.2e}, "
          f"work {total:.3e} <= budget {budget:.3e}")


def test_criterion_03_comparison_principle():
    rng = np.random.default_rng(303)
    m = 256
    pb = heat_problem(h=1e-2, m=m)
    worst = np.inf
    for _ in range(20):
        rho0 = random_smooth_density(UNIT, m, rng, floor=0.2)
        lo = float(rho0.values.min()) - 4.0 / m
        hi = float(rho0.values.max()) + 4.0 / m
        traj = run_scheme(pb, rho0, T=0.05)
        for rho in traj.densities[1:]:
            worst = min(worst, hi - float(rho.values.max()),
                        float(rho.values.min()) - lo)
    assert worst >= 0.0
    print(f"PASS criterion 3: essential bounds kept, worst slack {worst:.2e}")


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_criterion_04_second_moment_rate(q):
    dom = Domain(0.0, 2.0)
    m = 512
    rho0 = cosine_density(dom, m, amp=0.4, freq=0.5)
    hs = [1 / 20, 1 / 40, 1 / 80, 1 / 160, 1 / 320]
    totals = []
    for h in hs:
        pb = JkoProblem(cost=CostSpec.single_power(q), energy=ENTROPY,
                        potential=NOPOT, domain=dom, h=h, m=m)
        traj = run_scheme(pb, rho0, T=0.5)
        totals.append(sum(d.second_moment for d in traj.diagnostics))
    fit = fit_rate(hs, totals)
    floor_slope = min(1.0, q - 1.0) - 0.15
    assert fit.slope >= floor_slope
    print(f"PASS criterion 4 (q={q}): slope {fit.slope:.3f} >= {floor_slope:.2f}")


def test_criterion_05_optimality_law_residual():
    flows = {
        "heat": (UNIT, NOPOT, 1.0),
        "fokker-planck": (SYM, PotentialSpec.quadratic(1.0, 0.0), 0.5),
    }
    for name, (dom, pot, freq) in flows.items():
        rels = []
        for n, h in ((128, 4e-3), (256, 2e-3), (512, 1e-3)):
            pb = JkoProblem(cost=Q2, energy=ENTROPY, potential=pot,
                            domain=dom, h=h, m=n)
            rho = cosine_density(dom, n, amp=0.5, freq=freq)
            nxt = run_scheme(pb, rho, pb.h).final
            rels.append(euler_lagrange_residual(pb, rho, nxt))
        assert rels[2] < rels[1] < rels[0], (name, rels)
        assert rels[2] <= 0.05, (name, rels)
        print(f"PASS criterion 5 ({name}): residuals "
              + " > ".join(f"{r:.4f}" for r in rels))


def test_criterion_06_energy_inequality_and_convexity():
    rng = np.random.default_rng(606)
    m = 2048
    specs = {"entropy": ENTROPY, "quadratic": EnergySpec.power(2.0)}
    worst_slack = np.inf
    worst_violation = -np.inf
    for _ in range(20):
        rho1 = random_smooth_density(UNIT, m, rng)
        rho0 = random_smooth_density(UNIT, m, rng)
        X1 = to_quantiles(rho1, m).X
        X0 = to_quantiles(rho0, m).X
        M1 = 0.5 * (X1[:-1] + X1[1:])
        P0 = 0.5 * (X0[:-1] + X0[1:])
        rho_cells = (1.0 / m) / np.diff(X1)
        for F in specs.values():
            lhs = quantile_internal_energy(X0, F) \
                - quantile_internal_energy(X1, F)
            dw = np.gradient(F.derivative(rho_cells), M1)
            rhs = float(np.mean(dw * (P0 - M1)))
            worst_slack = min(worst_slack, lhs - rhs)
            ts = np.linspace(0.0, 1.0, 11)
            es = np.array([quantile_internal_energy((1 - t) * X1 + t * X0, F)
                           for t in ts])
            worst_violation = max(worst_violation,
                                  float(np.max(es[1:-1] - 0.5 * (es[:-2] + es[2:]))))
    assert worst_slack >= -1e-6
    assert worst_violation <= 1e-8
    print(f"PASS criterion 6: inequality slack {worst_slack:.2e}, "
          f"midpoint violation {worst_violation:.2e}")


def test_criterion_07_interpolant_bound_and_jacobian():
    rng = np.random.default_rng(707)
    m = 4096
    worst_sup = np.inf
    for _ in range(5):
        rho1 = random_smooth_density(UNIT, 512, rng, floor=0.2)
        rho0 = random_smooth_density(UNIT, 512, rng, floor=0.2)
        lim = max(float(rho0.values.max()), float(rho1.values.max()))
        X1 = to_quantiles(rho1, m).X
        X0 = to_quantiles(rho0, m).X
        for t in (0.25, 0.5, 0.75):
            Xt = (1 - t) * X1 + t * X0
            rho_t = from_quantiles(UNIT, Xt, 512)
            worst_sup = min(worst_sup, lim + 4.0 / m - float(rho_t.values.max()))
    assert worst_sup >= 0.0

    # pointwise density transform identity on a smooth pair
    dom = Domain(0.0, 2.0)
    n = 8192
    xc = dom.centers(n)
    prof1 = 1.0 + 0.5 * np.cos(np.pi * xc)
    prof0 = 1.0 + 0.3 * np.cos(2.0 * np.pi * xc + 1.0)
    rho1 = normalize(prof1, dom)[0]
    rho0 = normalize(prof0, dom)[0]
    z1 = float(np.sum(prof1) * dom.length / n)
    X1 = to_quantiles(rho1, m).X
    X0 = to_quantiles(rho0, m).X
    worst_rel = 0.0
    for t in (0.25, 0.5, 0.75):
        Xt = (1 - t) * X1 + t * X0
        M1 = 0.5 * (X1[:-1] + X1[1:])
        St = 0.5 * ((Xt[:-1] + Xt[1:]))
        slope = np.diff(Xt) / np.diff(X1)
        rho_t = from_quantiles(dom, Xt, n)
        idx = np.clip(((St - dom.a) / rho_t.dx).astype(int), 0, n - 1)
        rhs = rho_t.values[idx] * slope
        lhs = (1.0 + 0.5 * np.cos(np.pi * M1)) / z1
        worst_rel = max(worst_rel, float(np.max(np.abs(lhs - rhs) / lhs)))
    assert worst_rel <= 1e-3
    print(f"PASS criterion 7: sup-bound slack {worst_sup:.2e}, "
          f"jacobian max rel {worst_rel:.2e}")


def test_criterion_08_cross_solver_agreement():
    # heat flow against the finite-difference reference
    n = 256
    pb = heat_problem(h=1e-3, m=n)
    rho = cosine_density(UNIT, n, amp=0.5)
    ours = run_scheme(pb, rho, T=0.25)
    ref = fd_solve(Q2, ENTROPY, NOPOT, UNIT, rho, T=0.25,
                   cfg=FdConfig(n=n, dt=1e-3))
    gap_heat = l1_distance(ours.final, ref.final)
    assert gap_heat <= 1e-2

    # porous medium against the self-similar source window
    dom = Domain(-1.5, 1.5)
    t0, t1 = 0.05, 0.1
    pm_energy = EnergySpec.power(2.0)
    rho_b = floored_density(barenblatt_density(2.0, t0, dom, 256), 1e-3)
    pb_pm = JkoProblem(cost=Q2, energy=pm_energy, potential=NOPOT, domain=dom,
                       h=2.5e-3, m=256)
    traj_pm = run_scheme(pb_pm, rho_b, T=t1 - t0)
    gap_pm = l1_distance(traj_pm.final, barenblatt_density(2.0, t1, dom, 256))
    assert gap_pm <= 5e-2

    # p-Laplacian preset against the finite-difference reference
    cost_p, energy_p = preset_specs("p-laplacian", p=2.5)
    n = 128
    rho_p = cosine_density(UNIT, n, amp=0.4, freq=0.5)
    pb_p = JkoProblem(cost=cost_p, energy=energy_p, potential=NOPOT,
                      domain=UNIT, h=2e-3, m=n)
    ours_p = run_scheme(pb_p, rho_p, T=0.1)
    ref_p = fd_solve(cost_p, energy_p, NOPOT, UNIT, rho_p, T=0.1,
                     cfg=FdConfig(n=n, dt=2e-3))
    gap_p = l1_distance(ours_p.final, ref_p.final)
    assert gap_p <= 5e-2
    print(f"PASS criterion 8: heat {gap_heat:.2e} <= 1e-2, "
          f"porous medium {gap_pm:.2e} <= 5e-2, p-laplacian {gap_p:.2e} <= 5e-2")


def test_criterion_09_equilibration_with_potential():
    V = PotentialSpec.quadratic(1.0, 0.0)
    n = m = 256
    pb = JkoProblem(cost=Q2, energy=ENTROPY, potential=V, domain=SYM,
                    h=1e-2, m=m)
    rho0 = cosine_density(SYM, n, amp=0.3, freq=0.5)
    traj = run_scheme(pb, rho0, T=10.0)
    target = gibbs_state(ENTROPY, V, SYM, n)
    gap = l1_distance(traj.final, target)
    assert gap <= 1e-2
    e_run = density_energy(traj.final, ENTROPY, V)[2]
    e_eq = density_energy(target, ENTROPY, V)[2]
    assert abs(e_run - e_eq) <= 1e-4
    worst = min(d.E_free_before - d.E_free_after - pb.h * d.dissipation
                for d in traj.diagnostics)
    assert worst >= -1e-6
    print(f"PASS criterion 9: L1 {gap:.2e}, dE {abs(e_run - e_eq):.2e}, "
          f"free-energy slack {worst:.2e}")


def test_criterion_10_determinism_and_resolution_agreement():
    pb = heat_problem(h=1e-2, m=128)
    rho0 = cosine_density(UNIT, 256, amp=0.5)
    t1 = run_scheme(pb, rho0, T=0.1)
    t2 = run_scheme(pb, rho0, T=0.1)
    csv1, csv2 = io.StringIO(), io.StringIO()
    trajectory_to_csv(t1, csv1)
    trajectory_to_csv(t2, csv2)
    assert csv1.getvalue() == csv2.getvalue()
    for a, b in zip(t1.densities, t2.densities):
        assert np.array_equal(a.values, b.values)
    pb2 = heat_problem(h=1e-2, m=256)
    t3 = run_scheme(pb2, rho0, T=0.1)
    gap = l1_distance(t1.final, t3.final)
    assert gap <= 4.0 / 128
    print(f"PASS criterion 10: byte-identical reruns, m vs 2m gap {gap:.2e}")


def test_criterion_11_convex_analysis_estimates():
    z = np.linspace(-50.0, 50.0, 1001)
    z = z[z != 0.0]
    worst = np.inf
    for cost in ACCEPTANCE_COSTS.values():
        val, grad = cost.conjugate_pair(z)
        zg = z * grad
        worst = min(worst,
                    float(np.min(val)),
                    float(np.min(zg - val)),
                    float(np.min(cost.conjugate(2.0 * z) - zg)),
                    float(np.min(zg / cost.beta - np.abs(grad) ** cost.q)))
        fy = np.abs(cost.value(grad) + val - zg)
        assert np.max(fy) <= 1e-9
        far = np.abs(z) > 1.0
        eps = 1e-6 * np.abs(z[far])
        fd = (cost.conjugate(z[far] + eps) - cost.conjugate(z[far] - eps)) / (2 * eps)
        rel = np.abs(fd - grad[far]) / np.maximum(np.abs(grad[far]), 1e-12)
        assert np.max(rel) <= 1e-6
    assert worst >= -1e-10
    print(f"PASS criterion 11: inequality suite min slack {worst:.2e}")
