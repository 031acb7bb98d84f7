import contextlib
import dataclasses
import io
import math
import random
import re

import numpy as np
import pytest

from wflow import jko
from wflow.convex import CostSpec, EnergySpec, PotentialSpec, preset_specs
from wflow.density import (
    Domain,
    GridDensity,
    from_quantiles,
    l1_distance,
    normalize,
    to_quantiles,
)
from wflow.errors import (
    ConvergenceError,
    InvalidDensityError,
    InvalidSpecError,
    ParameterError,
    SchemeAbortError,
)
from wflow.jko import (
    JkoProblem,
    SchemeTrajectory,
    euler_lagrange_residual,
    floored_density,
    jko_step_nodes,
    run_scheme,
    step_count,
)

UNIT = Domain(0.0, 1.0)
SYM = Domain(-1.0, 1.0)
Q2 = CostSpec.single_power(2.0)
ENTROPY = EnergySpec.entropy()
NOPOT = PotentialSpec.zero()


def heat_problem(h, m, **kw):
    return JkoProblem(cost=Q2, energy=ENTROPY, potential=NOPOT, domain=UNIT,
                      h=h, m=m, **kw)


def cosine_density(n, amp=0.5, freq=1, domain=UNIT):
    xc = domain.centers(n)
    xhat = (xc - domain.a) / domain.length
    return normalize(1.0 + amp * np.cos(2 * np.pi * freq * xhat), domain)[0]


def implicit_heat_step(rho: GridDensity, h: float) -> GridDensity:
    """Backward-Euler reference for the heat equation with no-flux walls."""
    n = rho.n
    dx = rho.dx
    lap = np.zeros((n, n))
    for j in range(n):
        if j > 0:
            lap[j, j - 1] += 1.0
            lap[j, j] -= 1.0
        if j < n - 1:
            lap[j, j + 1] += 1.0
            lap[j, j] -= 1.0
    A = np.eye(n) - (h / dx**2) * lap
    new = np.linalg.solve(A, rho.values)
    return GridDensity(domain=rho.domain, values=new)


# ---------------------------------------------------------------------------
# problem validation
# ---------------------------------------------------------------------------

def test_problem_validates_assumptions():
    with pytest.raises(InvalidSpecError, match="energy-power-range"):
        JkoProblem(cost=Q2, energy=EnergySpec.power(0.3), potential=NOPOT,
                   domain=UNIT, h=1e-2, m=64)


def test_problem_parameter_checks():
    for kw in ({"h": 0.0}, {"m": 4}, {"tol": float("nan")}, {"tol": -1.0},
               {"tol": 0.0}, {"tol": float("inf")}, {"newton_max_iter": -1}):
        with pytest.raises(ParameterError):
            heat_problem(**{"h": 1e-2, "m": 64, **kw})
    heat_problem(h=1e-2, m=64, newton_max_iter=0)  # no Newton step at all


# ---------------------------------------------------------------------------
# single steps
# ---------------------------------------------------------------------------

def test_uniform_is_fixed_point():
    pb = heat_problem(h=1e-2, m=64)
    rho, _ = normalize(np.ones(64), UNIT)
    traj = run_scheme(pb, rho, pb.h)
    nxt, diag = traj.final, traj.diagnostics[0]
    assert diag.W_value <= 1e-12
    assert l1_distance(nxt, rho) <= 1e-9


def test_overflowing_line_search_trial_is_rejected_silently():
    # q = 201: a trial step of the first line search reaches |v| ~ 36, where
    # |v|^200 overflows; the trial's objective is inf and the step halves
    p = 1.005
    cost, energy = preset_specs("doubly-degenerate", p=p,
                                n=1.0 / (p * (p - 1.0)) + 1.0)
    pb = JkoProblem(cost=cost, energy=energy, potential=NOPOT, domain=UNIT,
                    h=1e-3, m=8)
    rho0 = normalize(1.0 + 0.12 * np.cos(np.pi * UNIT.centers(8)), UNIT)[0]
    diag = run_scheme(pb, rho0, pb.h).diagnostics[0]
    assert diag.kkt_residual <= pb.tol


def test_step_decreases_energy_plus_work():
    pb = heat_problem(h=5e-3, m=128)
    rho = cosine_density(128, amp=0.6)
    traj = run_scheme(pb, rho, pb.h)
    nxt, diag = traj.final, traj.diagnostics[0]
    assert diag.E_internal_after + pb.h * diag.W_value \
        <= diag.E_internal_before + 1e-9
    assert diag.E_internal_after <= diag.E_internal_before


def test_heat_step_matches_implicit_euler():
    n = m = 512
    h = 1e-3
    pb = heat_problem(h=h, m=m)
    rho = cosine_density(n)
    traj = run_scheme(pb, rho, pb.h)
    ours, diag = traj.final, traj.diagnostics[0]
    ref = implicit_heat_step(rho, h)
    assert l1_distance(ours, ref) <= 1e-3
    assert diag.kkt_residual <= pb.tol


def test_min_max_principle_random_data():
    rng = np.random.default_rng(42)
    m = 256
    pb = heat_problem(h=1e-2, m=m)
    for _ in range(5):
        rho, _ = normalize(rng.uniform(0.3, 1.8, m), UNIT)
        lo, hi = rho.values.min(), rho.values.max()
        nxt = run_scheme(pb, rho, pb.h).final
        assert nxt.values.max() <= hi + 4.0 / m
        assert nxt.values.min() >= lo - 4.0 / m


def test_strict_positivity_required():
    pb = heat_problem(h=1e-2, m=32)
    values = np.zeros(32)
    values[:16] = 2.0
    rho, _ = normalize(values, UNIT)
    with pytest.raises(InvalidDensityError):
        run_scheme(pb, rho, pb.h)


def test_degeneracy_guard_fires(monkeypatch):
    # a sub-floor cell pinned by a tiny time step fails the step
    pb = heat_problem(h=1e-8, m=8)
    X = np.linspace(0.0, 1.0, 9)
    X[4] = X[3] + 1e-16
    with pytest.raises(ConvergenceError):
        jko_step_nodes(pb, X)
    # a vacuum floor above every gap of the uniform start: the certified
    # step has collapsed cells, and the run aborts with the step's nodes
    monkeypatch.setattr(jko, "VACUUM_FLOOR_FACTOR", 0.2)
    pb = heat_problem(h=1e-2, m=8)
    X = np.linspace(0.0, 1.0, 9)
    with pytest.raises(ConvergenceError, match="mass cell collapsed") as info:
        jko_step_nodes(pb, X)
    assert info.value.best.shape == X.shape
    assert np.isfinite(info.value.residual)
    rho = from_quantiles(UNIT, X, 8)
    with pytest.raises(SchemeAbortError, match="step 1 failed: mass cell") as info:
        run_scheme(pb, rho, pb.h)
    assert info.value.partial.times == (0.0,)
    cause = info.value.__cause__
    assert isinstance(cause, ConvergenceError) and cause.best.shape == X.shape


def test_descent_guard_allows_rounding_error():
    # f is about 4.5e4 here, and at step 7 the certified minimizer's
    # objective lies 7.3e-12 (one ulp) above the carried one: within the
    # objective's rounding error, so not an energy increase
    from wflow.convex import preset_specs
    from wflow.diagnostics import ledger

    cost, energy = preset_specs("porous-medium", m=2.0)
    pb = JkoProblem(cost=cost, energy=energy,
                    potential=PotentialSpec.quadratic(1.0, -300.0),
                    domain=UNIT, h=1e-2, m=128)
    xc = UNIT.centers(128)
    rho0 = normalize(1.0 + 0.5 * np.cos(np.pi * xc), UNIT)[0]
    traj = run_scheme(pb, rho0, T=1.0)
    assert len(traj.diagnostics) == 100
    flags = {f.name: f.passed for f in ledger(pb, traj).flags}
    assert flags["energy-monotone"]


def test_convergence_error_carries_best():
    pb = heat_problem(h=1e-3, m=64, newton_max_iter=0)
    rho = cosine_density(64)
    with pytest.raises(ConvergenceError, match="newton_max_iter reached") as err:
        jko_step_nodes(pb, to_quantiles(rho, pb.m).X)
    assert err.value.best is not None
    assert err.value.residual > pb.tol


def test_step_gradient_matches_finite_differences():
    # the pressure-difference form of the objective gradient is analytic;
    # certify it against central differences of the objective itself, and
    # the tridiagonal Hessian Newton solves with against central
    # differences of that gradient
    _check_step_gradient(PotentialSpec.quadratic(0.7, 0.4))


def test_step_gradient_matches_finite_differences_beyond_table():
    # the table starts inside the domain and V is flat below it, so the
    # cells there feel no potential force
    _check_step_gradient(PotentialSpec.tabulated([0.3, 1.0], [0.0, 0.7]))


def _check_step_gradient(potential):
    from wflow.jko import _StepObjective

    rng = np.random.default_rng(17)
    m = 32
    pb = JkoProblem(cost=CostSpec(terms=((0.5, 2.0), (0.8, 1.7))),
                    energy=EnergySpec(terms=(("entropy", 0.6), ("power", 0.4, 2.0))),
                    potential=potential, domain=UNIT, h=3e-3, m=m)
    rho, _ = normalize(rng.uniform(0.4, 1.6, m), UNIT)
    Xprev = to_quantiles(rho, m).X
    obj = _StepObjective(pb, Xprev)
    X = Xprev + rng.uniform(-1.0, 1.0, m + 1) * 1e-3
    X.sort()
    X[0], X[-1] = 0.0, 1.0
    ev = obj.evaluate(X)
    g = ev.g
    diag, off = obj.hessian(ev)
    H = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    eps = 1e-7
    for k in rng.choice(m + 1, size=10, replace=False):
        xp, xm = X.copy(), X.copy()
        xp[k] += eps
        xm[k] -= eps
        ep, em = obj.evaluate(xp), obj.evaluate(xm)
        fd = (ep.f - em.f) / (2 * eps)
        assert g[k] == pytest.approx(fd, rel=2e-5, abs=1e-7)
        hcol = (ep.g - em.g) / (2 * eps)
        assert H[:, k] == pytest.approx(hcol, rel=1e-5, abs=1e-5 * np.max(np.abs(H[:, k])))


@pytest.mark.xfail(strict=True, raises=SchemeAbortError,
                   reason="a cell midpoint that rests on a kink of a tabulated "
                          "potential cannot be certified by the smooth KKT "
                          "residual")
def test_tabulated_potential_run_with_kink_inside_domain():
    pb = JkoProblem(cost=Q2, energy=ENTROPY,
                    potential=PotentialSpec.tabulated([0.3, 1.0], [0.0, 0.7]),
                    domain=UNIT, h=0.01, m=16)
    traj = run_scheme(pb, normalize(np.ones(16), UNIT)[0], T=0.2)
    assert len(traj.diagnostics) == 20


@pytest.mark.parametrize("where,bad", [
    (None, None), ("diag", np.nan), ("diag", np.inf), ("off", np.nan),
    ("off", np.inf),
], ids=["all-zero", "diag-nan", "diag-inf", "off-nan", "off-inf"])
def test_newton_falls_back_on_singular_or_nonfinite_system(where, bad):
    from wflow.jko import _newton_solve, _StepObjective

    def hessian(ev):
        diag, off = np.zeros(ev.X.size), np.zeros(ev.X.size - 1)
        if where is not None:
            diag[:] = 1.0
            (diag if where == "diag" else off)[3] = bad
        return diag, off

    pb = heat_problem(h=2e-3, m=64)
    Xprev = to_quantiles(cosine_density(64), 64).X
    obj = _StepObjective(pb, Xprev)
    start = obj.evaluate(Xprev)
    _newton_solve(obj, start)  # certifies with the true Hessian
    obj.hessian = hessian
    trials = []
    evaluate = obj.evaluate
    obj.evaluate = lambda X: trials.append(X) or evaluate(X)
    reason = "singular" if where is None else "not finite"
    with pytest.raises(ConvergenceError, match=reason):
        _newton_solve(obj, start)
    assert not trials  # gave up before any trial step


def test_newton_never_takes_a_null_step():
    # when every real trial raises the objective, backtracking ends at a
    # trial that rounds back to the current nodes; Newton gives up there
    # instead of evaluating and accepting that null step
    from wflow.jko import _newton_solve, _StepObjective

    pb = heat_problem(h=2e-3, m=64)
    Xprev = to_quantiles(cosine_density(64), 64).X
    obj = _StepObjective(pb, Xprev)
    start = obj.evaluate(Xprev)
    evaluate = obj.evaluate
    trials = []

    def rising(X):
        ev = evaluate(X)
        trials.append(X)
        if not np.array_equal(X, Xprev):
            ev.f = start.f + 1.0
        return ev

    obj.evaluate = rising
    with pytest.raises(ConvergenceError, match="reached the current nodes"):
        _newton_solve(obj, start)
    assert trials
    assert not any(np.array_equal(X, Xprev) for X in trials)


def _stopped(reason, step):
    with pytest.raises(ConvergenceError, match=reason) as info:
        step()
    assert info.value.best is not None
    assert np.isfinite(info.value.residual)
    return info.value


def test_newton_stops_at_a_start_node_on_a_wall():
    # the second node of the start sits on the left wall: Newton stops
    # before it builds a system
    pb = heat_problem(h=1e-2, m=8)
    X = np.linspace(0.0, 1.0, 9)
    X[1] = 0.0
    err = _stopped("an interior node is on a wall",
                   lambda: jko_step_nodes(pb, X))
    assert err.best.tobytes() == X.tobytes() and err.residual > pb.tol


@pytest.mark.parametrize("scale,reason", [
    (-1.0, "the Newton direction is not a descent direction"),
    (1e-30, "the line search failed"),
], ids=["negated", "tiny"])
def test_newton_stops_on_a_wrong_hessian(scale, reason, monkeypatch):
    # a negated Hessian turns the Newton direction uphill; one scaled by
    # 1e-30 makes it so long that no trial of the 60 halvings is increasing
    hessian = jko._StepObjective.hessian
    monkeypatch.setattr(jko._StepObjective, "hessian", lambda self, ev: tuple(
        scale * a for a in hessian(self, ev)))
    pb = heat_problem(h=2e-3, m=64)
    X = to_quantiles(cosine_density(64), 64).X
    err = _stopped(reason, lambda: jko_step_nodes(pb, X))
    assert err.best.tobytes() == X.tobytes() and err.residual > pb.tol


def _raising_the_objective_at(monkeypatch, call):
    # _newton_solve whose ``call``-th solve returns its final evaluation with
    # the objective one above what it is
    solve, calls = jko._newton_solve, []

    def raised(*args, **kw):
        final, nit, r = solve(*args, **kw)
        calls.append(None)
        if len(calls) == call:
            final = dataclasses.replace(final, f=final.f + 1.0)
        return final, nit, r

    monkeypatch.setattr(jko, "_newton_solve", raised)


def test_step_that_raises_the_objective_fails(monkeypatch):
    pb = heat_problem(h=1e-2, m=32)
    X = to_quantiles(cosine_density(32), 32).X
    want, _ = jko_step_nodes(pb, X)
    _raising_the_objective_at(monkeypatch, 1)
    err = _stopped("step increased the objective",
                   lambda: jko_step_nodes(pb, X))
    assert err.best.tobytes() == want.tobytes() and err.residual <= pb.tol


def test_run_failing_at_step_3_keeps_the_steps_before(monkeypatch):
    pb = heat_problem(h=1e-2, m=32)
    rho0 = cosine_density(32)
    ref = run_scheme(pb, rho0, T=0.05)
    _raising_the_objective_at(monkeypatch, 3)
    with pytest.raises(SchemeAbortError, match="step 3 failed: step "
                       "increased the objective") as info:
        run_scheme(pb, rho0, T=0.05)
    partial = info.value.partial
    assert partial.times == ref.times[:3]
    assert [r.values.tobytes() for r in partial.densities] == \
        [r.values.tobytes() for r in ref.densities[:3]]
    assert partial.diagnostics == ref.diagnostics[:2]
    cause = info.value.__cause__
    assert isinstance(cause, ConvergenceError)
    assert cause.best is not None and np.isfinite(cause.residual)


def test_potential_step_upper_bound_only():
    pb = JkoProblem(cost=Q2, energy=ENTROPY,
                    potential=PotentialSpec.quadratic(1.0, 0.0), domain=SYM,
                    h=1e-2, m=128)
    rho = cosine_density(128, amp=0.3, domain=SYM)
    traj = run_scheme(pb, rho, pb.h)
    nxt, diag = traj.final, traj.diagnostics[0]
    assert nxt.values.max() <= rho.values.max() + 4.0 / pb.m
    assert diag.E_free_after <= diag.E_free_before + 1e-12


# ---------------------------------------------------------------------------
# optimality law between steps
# ---------------------------------------------------------------------------

def test_el_residual_zero_at_equilibrium():
    pb = heat_problem(h=1e-2, m=128)
    rho, _ = normalize(np.ones(128), UNIT)
    # the map side is exactly zero here, so the relative residual is 1
    # unless the flux side vanishes too
    assert euler_lagrange_residual(pb, rho, rho) <= 1e-9


def test_el_residual_decreases_under_refinement():
    rels = []
    for n, h in ((128, 4e-3), (256, 2e-3), (512, 1e-3)):
        pb = heat_problem(h=h, m=n)
        rho = cosine_density(n)
        nxt = run_scheme(pb, rho, pb.h).final
        rels.append(euler_lagrange_residual(pb, rho, nxt))
    assert rels[2] < rels[1] < rels[0]
    assert rels[2] <= 0.05


def test_el_residual_direction_sensitive():
    n = 256
    pb = heat_problem(h=2e-3, m=n)
    rho = cosine_density(n)
    nxt = run_scheme(pb, rho, pb.h).final
    fwd = euler_lagrange_residual(pb, rho, nxt)
    bwd = euler_lagrange_residual(pb, nxt, rho)
    assert bwd > 10.0 * fwd


def test_el_residual_values_on_criterion_5_cases():
    # criterion 5's residuals bit for bit: the flux side's differences are
    # np.gradient's (second order inside, first order at the ends)
    expected = {
        "heat": (UNIT, NOPOT, 1.0, (0.009865172052424265,
                                    0.0053343026595879675,
                                    0.00481273466452679)),
        "fokker-planck": (SYM, PotentialSpec.quadratic(1.0, 0.0), 0.5,
                          (0.020272051250481943, 0.010612456093135816,
                           0.0059684225876946145)),
    }
    for dom, pot, freq, values in expected.values():
        for (n, h), value in zip(((128, 4e-3), (256, 2e-3), (512, 1e-3)),
                                 values):
            pb = JkoProblem(cost=Q2, energy=ENTROPY, potential=pot,
                            domain=dom, h=h, m=n)
            rho = cosine_density(n, amp=0.5, freq=freq, domain=dom)
            nxt = run_scheme(pb, rho, pb.h).final
            assert euler_lagrange_residual(pb, rho, nxt) == value


@pytest.mark.parametrize("preset,kw,potential,domain,freq", [
    ("fokker-planck", {}, NOPOT, UNIT, 1.0),
    ("p-laplacian", {"p": 3.0}, NOPOT, UNIT, 1.0),
    ("fokker-planck", {}, PotentialSpec.quadratic(1.0, 0.0), SYM, 0.5),
], ids=["heat", "p-laplacian", "fokker-planck"])
def test_dissipation_matches_flux_side_reference(monkeypatch, preset, kw,
                                                 potential, domain, freq):
    # the step reads the dissipation off its optimality law,
    # c'(v) = d(F'(rho) + V)/dx per mass cell; on a smooth run that agrees
    # with second-order differences of F'(rho) + V over the midpoints
    from wflow import jko

    steps = []

    def recording(*args, **kw):
        out = jko_step_nodes(*args, **kw)
        steps.append(out)
        return out

    monkeypatch.setattr(jko, "jko_step_nodes", recording)
    cost, energy = preset_specs(preset, **kw)
    pb = JkoProblem(cost=cost, energy=energy, potential=potential,
                    domain=domain, h=1e-2, m=256)
    run_scheme(pb, cosine_density(256, freq=freq, domain=domain), T=1.0)
    checked = 0
    for X, d in steps:
        if d.dissipation <= 1e-6:
            continue
        M = 0.5 * (X[:-1] + X[1:])
        rho = (1.0 / pb.m) / np.diff(X)
        dw = np.gradient(energy.derivative(rho) + potential.value(M), M)
        flux = float(np.mean(np.abs(dw) ** cost.qstar))
        assert d.dissipation == pytest.approx(flux, rel=1e-3)
        checked += 1
    assert checked >= 20


# ---------------------------------------------------------------------------
# multi-step runs
# ---------------------------------------------------------------------------

def test_run_scheme_single_step_length():
    pb = heat_problem(h=1e-2, m=64)
    rho = cosine_density(64)
    traj = run_scheme(pb, rho, T=1e-2)
    assert len(traj.times) == 2
    assert traj.times[-1] == pytest.approx(1e-2)
    assert len(traj.diagnostics) == 1


def test_run_scheme_cumulative_work_bound():
    rng = np.random.default_rng(9)
    pb = heat_problem(h=1e-2, m=128)
    for _ in range(3):
        raw = 1.0 + 0.5 * np.sin(2 * np.pi * np.cumsum(rng.uniform(0, 1, 128))
                                 / np.sum(rng.uniform(0, 1, 128)))
        rho, _ = normalize(raw + 0.2, UNIT)
        traj = run_scheme(pb, rho, T=0.2)
        total = sum(pb.h * d.W_value for d in traj.diagnostics)
        e0 = traj.diagnostics[0].E_internal_before
        floor = UNIT.length * float(ENTROPY.value(1.0 / UNIT.length))
        assert total <= e0 - floor + 1e-8


def test_discrete_weak_form_bound():
    # against any smooth observable, the step's mass update plus the
    # map-velocity term is controlled by the coupling second moment:
    # |int (rho_k - rho_{k-1}) phi + h int <v_k, phi'> rho_k|
    #     <= (1/2) sup|phi''| int |x-y|^2 dgamma_k
    pb = heat_problem(h=5e-3, m=256)
    rho0 = cosine_density(256, amp=0.6)
    traj = run_scheme(pb, rho0, T=0.1)
    phi = lambda x: np.cos(np.pi * x)
    dphi = lambda x: -np.pi * np.sin(np.pi * x)
    sup_dd = np.pi**2
    m = pb.m
    total_lhs = 0.0
    total_rhs = 0.0
    for k in range(1, len(traj.times)):
        Xp = to_quantiles(traj.densities[k - 1], m).X
        Xk = to_quantiles(traj.densities[k], m).X
        P, M = 0.5 * (Xp[:-1] + Xp[1:]), 0.5 * (Xk[:-1] + Xk[1:])
        mass_term = float(np.mean(phi(M) - phi(P)))
        velocity_term = float(np.mean(dphi(M) * (P - M)))
        lhs = abs(mass_term + velocity_term)
        rhs = 0.5 * sup_dd * float(np.mean((P - M) ** 2))
        assert lhs <= rhs + 1e-12
        total_lhs += lhs
        total_rhs += rhs
    assert total_lhs <= total_rhs + 1e-12
    second_moments = sum(d.second_moment for d in traj.diagnostics)
    assert total_rhs <= 0.5 * sup_dd * second_moments * 1.1


def test_per_step_dissipation_inequality():
    # internal-energy drop dominates h * int rho |d F'(rho)|^2 every step
    pb = heat_problem(h=1e-2, m=128)
    traj = run_scheme(pb, cosine_density(128, amp=0.6), T=0.3)
    for d in traj.diagnostics:
        slack = d.E_internal_before - d.E_internal_after - pb.h * d.dissipation
        assert slack >= -1e-6


def test_run_scheme_mass_conservation():
    pb = heat_problem(h=5e-3, m=128)
    traj = run_scheme(pb, cosine_density(128, amp=0.7), T=0.05)
    for rho in traj.densities:
        assert abs(np.sum(rho.values) * rho.dx - 1.0) <= 1e-12


def test_run_scheme_deterministic():
    pb = heat_problem(h=5e-3, m=96)
    rho = cosine_density(96, amp=0.4)
    t1 = run_scheme(pb, rho, T=0.05)
    t2 = run_scheme(pb, rho, T=0.05)
    for a, b in zip(t1.densities, t2.densities):
        assert np.array_equal(a.values, b.values)


def test_step_energies_chain_exactly():
    # each step's starting energies are the previous step's final ones,
    # bit for bit, on equilibrium steps (no iteration) and on Newton steps
    pb = JkoProblem(cost=Q2, energy=ENTROPY,
                    potential=PotentialSpec.quadratic(1.0, 0.0), domain=SYM,
                    h=0.5, m=16)
    traj = run_scheme(pb, cosine_density(16, amp=0.3, freq=0.5, domain=SYM),
                      T=14.0)
    diags = traj.diagnostics
    assert any(d.iterations == 0 for d in diags)
    assert any(d.iterations > 0 for d in diags)
    for prev, nxt in zip(diags[:-1], diags[1:]):
        assert nxt.E_internal_before == prev.E_internal_after
        assert nxt.E_free_before == prev.E_free_after


@pytest.mark.parametrize("cost,energy", [
    (Q2, ENTROPY),
    preset_specs("p-laplacian", p=3.0),
    (CostSpec(terms=((1.0, 2.0), (0.5, 1.8), (0.25, 3.0))), ENTROPY),
], ids=["q2", "q1.5", "three-term"])
def test_dissipation_records_match_the_derivative_reference(cost, energy,
                                                            monkeypatch):
    # the dissipation reads the c'(v) the step's evaluation formed; its
    # diagnostics.jsonl bytes are those of |cost.derivative(v)|^q* over the
    # final velocities
    from wflow import cli, jko
    from wflow.jko import _StepObjective

    records, step = [], jko.jko_step_nodes

    def recording(pb, Xprev, *args, **kw):
        X, d = step(pb, Xprev, *args, **kw)
        v = _StepObjective(pb, Xprev).evaluate(X).v
        dv = pb.cost.derivative(v)
        ref = float((np.abs(dv) ** pb.cost.qstar).sum()) / pb.m
        records.append(dataclasses.replace(d, dissipation=ref))
        return X, d

    monkeypatch.setattr(jko, "jko_step_nodes", recording)
    pb = JkoProblem(cost=cost, energy=energy, potential=NOPOT, domain=UNIT,
                    h=1e-2, m=128)
    traj = run_scheme(pb, cosine_density(64), T=0.3)
    assert len(records) == len(traj.diagnostics) == 30
    got, want = io.StringIO(), io.StringIO()
    cli.diagnostics_to_jsonl(traj, got)
    cli.diagnostics_to_jsonl(
        dataclasses.replace(traj, diagnostics=tuple(records)), want)
    same_bytes = got.getvalue().encode() == want.getvalue().encode()
    assert same_bytes


def _plap_problem():
    from wflow.convex import preset_specs

    cost, F = preset_specs("p-laplacian", p=3.0)
    pb = JkoProblem(cost=cost, energy=F, potential=NOPOT, domain=UNIT,
                    h=2e-3, m=512)
    return pb, cosine_density(64, amp=0.4, freq=0.5), 0.06


def _fp_problem():
    pb = JkoProblem(cost=Q2, energy=ENTROPY,
                    potential=PotentialSpec.quadratic(1.0, 0.0), domain=SYM,
                    h=1e-2, m=128)
    return pb, cosine_density(64, amp=0.3, freq=0.5, domain=SYM), 0.5


@pytest.mark.parametrize("make", [_plap_problem, _fp_problem],
                         ids=["p-laplacian", "fokker-planck"])
def test_warm_started_run_matches_cold_steps(make, monkeypatch):
    # run_scheme starts each step at the polynomial predictor through the
    # last nodes with the previous step's energies carried; the same steps
    # started cold at X_k give the same nodes to within the step tolerance
    from wflow import jko

    pb, rho, T = make()
    warm_nodes = []

    def recording(*args, **kw):
        X, d = jko_step_nodes(*args, **kw)
        warm_nodes.append(X)
        return X, d

    monkeypatch.setattr(jko, "jko_step_nodes", recording)
    traj = run_scheme(pb, rho, T)
    X = to_quantiles(rho, pb.m).X
    cold = []
    for _ in traj.diagnostics:
        X, d = jko_step_nodes(pb, X)
        cold.append(d)
    assert np.max(np.abs(warm_nodes[-1] - X)) <= 1e-6 * np.max(np.abs(X))
    for w, c in zip(traj.diagnostics, cold):
        assert w.E_free_after == pytest.approx(c.E_free_after, rel=1e-8)
    if make is _plap_problem:
        # cold, every step costs 7-8 Newton iterations at q = 1.5
        assert all(d.iterations >= 7 for d in cold)
        assert all(d.iterations <= 2 for d in traj.diagnostics[3:])
        # the cubic lands within one iteration from step 11 on; the linear
        # predictor took 2 per step there, 68 over the run
        assert all(d.iterations <= 1 for d in traj.diagnostics[10:])
        assert sum(d.iterations for d in traj.diagnostics) <= 50


def _run_every_step(pb, rho0, T):
    # run_scheme's loop before fixed-point steps were repeated: every step
    # goes through the solver, warm-started from one run state
    run = jko._RunState(to_quantiles(rho0, pb.m).X)
    densities, diags = [rho0], []
    for _ in range(step_count(T, pb.h)):
        X, d = jko_step_nodes(pb, run.nodes, run)
        densities.append(from_quantiles(pb.domain, X, rho0.n))
        diags.append(d)
    return densities, diags


def _counting_step_nodes(monkeypatch, step=jko_step_nodes):
    from wflow import jko

    calls = []

    def counting(*args, **kw):
        calls.append(args)
        return step(*args, **kw)

    monkeypatch.setattr(jko, "jko_step_nodes", counting)
    return calls


def test_fixed_point_steps_repeat_what_the_solver_returns(monkeypatch):
    # once the flow reaches its discrete stationary state bit for bit, the
    # repeated steps must be exactly the steps the solver would have taken
    pb = JkoProblem(cost=Q2, energy=ENTROPY,
                    potential=PotentialSpec.quadratic(1.0, 0.0), domain=SYM,
                    h=0.05, m=32)
    rho0 = cosine_density(32, amp=0.3, freq=0.5, domain=SYM)
    densities, diags = _run_every_step(pb, rho0, T=10.0)
    calls = _counting_step_nodes(monkeypatch)
    traj = run_scheme(pb, rho0, T=10.0)
    assert len(calls) < len(diags) == 200
    assert [r.values.tobytes() for r in traj.densities] == \
        [r.values.tobytes() for r in densities]
    assert traj.diagnostics == tuple(diags)


def test_fixed_point_is_its_own_problems_certified_minimizer(monkeypatch):
    # step k returned its start X_k, so step k + 1 poses step k's problem:
    # a cold step from X_k certifies X_k at once, and its record is the one
    # the run repeats, step k's with zero iterations, bit for bit
    pb = JkoProblem(cost=Q2, energy=ENTROPY,
                    potential=PotentialSpec.quadratic(1.0, 0.0), domain=SYM,
                    h=0.05, m=32)
    calls = _counting_step_nodes(monkeypatch)
    traj = run_scheme(pb, cosine_density(32, amp=0.3, freq=0.5, domain=SYM),
                      T=10.0)
    assert len(calls) < len(traj.diagnostics)
    Xk = calls[-1][1]  # the start of the last step solved, which it returned
    X, d = jko_step_nodes(pb, Xk)
    assert X.tobytes() == Xk.tobytes()
    assert d == traj.diagnostics[-1]  # zero iterations, as every repeat
    assert d == dataclasses.replace(traj.diagnostics[len(calls) - 1],
                                    iterations=0)


def test_fixed_point_steps_report_zero_iterations(monkeypatch):
    # a step that iterates its way back onto its start nodes ends the
    # solving; every step after it reports the zero iterations a re-solve
    # from those nodes would take
    def back_to_start(pb, Xprev, run=None):
        _, d = jko_step_nodes(pb, Xprev, run)
        return Xprev.copy(), dataclasses.replace(d, iterations=3)

    pb = heat_problem(h=1e-2, m=32)
    calls = _counting_step_nodes(monkeypatch, back_to_start)
    traj = run_scheme(pb, cosine_density(32), T=0.05)
    assert len(calls) == 1
    assert [d.iterations for d in traj.diagnostics] == [3, 0, 0, 0, 0]
    assert all(r is traj.densities[1] for r in traj.densities[2:])


def _steps_without_last_hessian(monkeypatch):
    # the solver as it was before warm steps reused a run's last Hessian:
    # the run state offers no solve, so no reuse trial is made
    monkeypatch.setattr(jko._RunState, "solve", lambda self, key, rhs: None)


def _assert_same_run(traj, ref):
    assert traj.times == ref.times
    assert [r.values.tobytes() for r in traj.densities] == \
        [r.values.tobytes() for r in ref.densities]
    assert traj.diagnostics == ref.diagnostics


def _counting(monkeypatch, module, name):
    calls, fn = [], getattr(module, name)

    def counting(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("make", [_plap_problem, _fp_problem],
                         ids=["p-laplacian", "fokker-planck"])
def test_uncertified_reuse_trials_leave_the_run_bit_for_bit(make, monkeypatch):
    # a wrong positive definite Hessian in the store: every reuse trial is a
    # millionth of a Newton step and never certifies, and each warm step then
    # runs Newton from its predictor as if no trial had been made
    from wflow import jko

    pb, rho, T = make()
    with monkeypatch.context() as mp:
        _steps_without_last_hessian(mp)
        ref = run_scheme(pb, rho, T)
    keep = jko._RunState.keep
    monkeypatch.setattr(jko._RunState, "keep",
                        lambda self, key, d, e: keep(self, key, 1e6 * d,
                                                     1e6 * e))
    trials = _counting(monkeypatch, jko, "dpttrs")
    _assert_same_run(run_scheme(pb, rho, T), ref)
    assert len(trials) >= 10


@pytest.mark.parametrize("poison", ["active set", "indefinite"])
def test_no_reuse_trial_without_a_factor_for_the_active_set(poison,
                                                            monkeypatch):
    # a stored Hessian of another wall active set, or one that dpttrf cannot
    # factor, makes no reuse trial: every step builds its own Hessian
    from wflow import jko

    pb, rho, T = _fp_problem()
    with monkeypatch.context() as mp:
        _steps_without_last_hessian(mp)
        ref = run_scheme(pb, rho, T)
    with monkeypatch.context() as mp:
        trials = _counting(mp, jko, "dpttrs")
        run_scheme(pb, rho, T)
    assert len(trials) >= 10  # the unpoisoned run does try
    keep = jko._RunState.keep
    if poison == "active set":
        def poisoned(self, key, d, e):
            keep(self, (key[0], key[1] + 1), d, e)
    else:
        def poisoned(self, key, d, e):
            keep(self, key, -d, e)
    monkeypatch.setattr(jko._RunState, "keep", poisoned)
    factors = _counting(monkeypatch, jko, "dpttrf")
    trials = _counting(monkeypatch, jko, "dpttrs")
    _assert_same_run(run_scheme(pb, rho, T), ref)
    assert bool(factors) == (poison == "indefinite")
    assert not trials


def test_reuse_trial_that_raises_the_objective_is_discarded(monkeypatch):
    # along the softest curvature mode the gradient is small and the
    # objective excess large, so a chord step can land where the certificate
    # passes but the objective is above the predictor's; Newton then runs
    # from the predictor as if no trial had been made
    from wflow.jko import _newton_solve, _RunState, _StepObjective

    pb = heat_problem(h=1e-2, m=32, tol=1e-13)
    Xprev = to_quantiles(cosine_density(32), pb.m).X
    obj = _StepObjective(pb, Xprev)
    best = _newton_solve(obj, obj.evaluate(Xprev))[0].X
    diag, off = obj.hessian(obj.evaluate(best))
    H = np.diag(diag[1:-1]) + np.diag(off[1:-1], 1) + np.diag(off[1:-1], -1)
    lam, modes = np.linalg.eigh(H)
    start, trial = best.copy(), best.copy()
    start[1:-1] += 1e-6 * modes[:, -1]
    trial[1:-1] += 1.5e-6 * math.sqrt(lam[-1] / lam[0]) * modes[:, 0]
    chord = (trial - start)[1:-1]
    trial = start.copy()
    trial[1:-1] += chord  # as _newton_solve forms it
    r = [obj.kkt_residual(X, obj.evaluate(X).g) for X in (start, trial)]
    obj = _StepObjective(dataclasses.replace(pb, tol=math.sqrt(r[0] * r[1])),
                         Xprev)
    ev = obj.evaluate(start)
    assert r[1] < obj.pb.tol < r[0] and obj.evaluate(trial).f > ev.f

    monkeypatch.setattr(_RunState, "solve", lambda self, key, rhs: chord)
    got = _newton_solve(obj, ev, increasing=True, run=_RunState())
    want = _newton_solve(obj, ev, increasing=True)
    assert got[0].X.tobytes() == want[0].X.tobytes() != trial.tobytes()
    assert got[1:] == want[1:]


def test_warm_heat_steps_reuse_the_factored_hessian(monkeypatch):
    # a chord step with the run's last factored Hessian certifies most warm
    # heat steps: 15 Hessians over these 200 steps, 166 when every step
    # builds its own
    from wflow import jko

    calls = []
    hessian = jko._StepObjective.hessian

    def counted(self, ev):
        calls.append(None)
        return hessian(self, ev)

    monkeypatch.setattr(jko._StepObjective, "hessian", counted)
    pb = heat_problem(h=5e-4, m=2048, tol=1e-8)
    traj = run_scheme(pb, cosine_density(256), T=0.1)
    steps = len(traj.diagnostics)
    assert steps == 200
    assert all(d.kkt_residual <= pb.tol for d in traj.diagnostics)
    assert len(calls) / steps <= 0.2


def _benchmark_profile(n, amp, freq, seed):
    # seeded input profile of the wflow benchmark: the cosine profile plus
    # four no-flux modes of amplitude <= 0.005, floored at 0.05
    rng = random.Random(seed)
    coeffs = [(k, rng.uniform(-0.005, 0.005)) for k in range(3, 7)]
    xhat = [(i + 0.5) / n for i in range(n)]
    return [max(1.0 + amp * math.cos(2.0 * math.pi * freq * s)
                + sum(c * math.cos(k * math.pi * s) for k, c in coeffs), 0.05)
            for s in xhat]


def test_newton_converges_past_round_off_heat():
    # at m = 16384 the KKT tolerance 1e-9 lies where the predicted decrease
    # -g.dX is below the rounding error of the objective; a plain Armijo
    # test there halves down to a bit-for-bit null step and gives up
    pb = heat_problem(h=5e-4, m=16384, tol=1e-9)
    rho = normalize(_benchmark_profile(256, 0.5, 1.0, seed=3), UNIT)[0]
    X, diag = jko_step_nodes(pb, to_quantiles(rho, pb.m).X)
    assert diag.kkt_residual <= 1e-9
    assert diag.E_free_after < diag.E_free_before


def test_newton_converges_past_round_off_fokker_planck():
    # the README Fokker-Planck run on a perturbed profile whose Newton
    # gave up once in 1000 steps under a plain Armijo test
    pb = JkoProblem(cost=Q2, energy=ENTROPY,
                    potential=PotentialSpec.quadratic(1.0, 0.0), domain=SYM,
                    h=0.01, m=256)
    rho = normalize(_benchmark_profile(256, 0.3, 0.5, seed=4), SYM)[0]
    traj = run_scheme(pb, rho, T=10.0)
    assert len(traj.diagnostics) == 1000
    assert max(d.kkt_residual for d in traj.diagnostics) <= pb.tol


def test_run_scheme_rejects_bad_horizon():
    pb = heat_problem(h=1e-2, m=64)
    rho = cosine_density(64)
    with pytest.raises(ParameterError):
        run_scheme(pb, rho, T=1e-4)


# each input check: the call and the message it fails with
REJECTED_INPUTS = {
    "trajectory-without-times": (
        lambda: SchemeTrajectory(times=(), densities=()),
        "need one density per time"),
    "trajectory-with-a-time-too-many": (
        lambda: SchemeTrajectory(times=(0.0, 0.1),
                                 densities=(cosine_density(16),)),
        "need one density per time"),
    "trajectory-from-a-later-time": (
        lambda: SchemeTrajectory(times=(0.1,),
                                 densities=(cosine_density(16),)),
        "trajectories start at t = 0"),
    "run-on-another-domain": (
        lambda: run_scheme(heat_problem(h=1e-2, m=16),
                           cosine_density(16, domain=SYM), T=0.02),
        "initial density lives on the wrong domain"),
}


@pytest.mark.parametrize("call,message", REJECTED_INPUTS.values(),
                         ids=REJECTED_INPUTS.keys())
def test_input_checks_raise_parameter_errors(call, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


def test_run_scheme_abort_carries_partial():
    pb = heat_problem(h=2e-3, m=64, newton_max_iter=0)
    rho = cosine_density(64)
    with pytest.raises(SchemeAbortError) as err:
        run_scheme(pb, rho, T=0.01)
    assert err.value.partial is not None
    assert len(err.value.partial.times) >= 1


def test_two_term_cost_scheme_matches_reference():
    from wflow.refsolve import FdConfig, fd_solve

    cost = CostSpec(terms=((0.5, 2.0), (0.4, 1.6)))
    n = 96
    xc = UNIT.centers(n)
    rho, _ = normalize(1.0 + 0.4 * np.cos(np.pi * xc), UNIT)
    pb = JkoProblem(cost=cost, energy=ENTROPY, potential=NOPOT, domain=UNIT,
                    h=2e-3, m=n)
    ours = run_scheme(pb, rho, T=0.04)
    ref = fd_solve(cost, ENTROPY, NOPOT, UNIT, rho, T=0.04,
                   cfg=FdConfig(n=n, dt=2e-3))
    assert l1_distance(ours.final, ref.final) <= 5e-3


@pytest.mark.parametrize("preset,kw,T,dt", [
    ("fast-diffusion", {"m": 0.7}, 0.02, 1e-3),
    ("doubly-degenerate", {"n": 2.0, "p": 3.0}, 0.05, 2e-3),
])
def test_degenerate_presets_match_reference(preset, kw, T, dt):
    from wflow.convex import preset_specs
    from wflow.refsolve import FdConfig, fd_solve

    cost, F = preset_specs(preset, **kw)
    n = 96
    xc = UNIT.centers(n)
    rho, _ = normalize(1.0 + 0.4 * np.cos(np.pi * xc), UNIT)
    pb = JkoProblem(cost=cost, energy=F, potential=NOPOT, domain=UNIT,
                    h=dt, m=n)
    ours = run_scheme(pb, rho, T=T)
    ref = fd_solve(cost, F, NOPOT, UNIT, rho, T=T, cfg=FdConfig(n=n, dt=dt))
    assert l1_distance(ours.final, ref.final) <= 5e-3


def test_equilibration_toward_gibbs():
    from wflow.refsolve import gibbs_state

    pb = JkoProblem(cost=Q2, energy=ENTROPY,
                    potential=PotentialSpec.quadratic(1.0, 0.0), domain=SYM,
                    h=2e-2, m=128)
    rho = cosine_density(128, amp=0.3, domain=SYM)
    traj = run_scheme(pb, rho, T=2.0)
    target = gibbs_state(ENTROPY, pb.potential, SYM, 128)
    assert l1_distance(traj.final, target) <= 5e-2
    frees = [d.E_free_after for d in traj.diagnostics]
    assert all(b <= a + 1e-9 for a, b in zip(frees, frees[1:]))


# ---------------------------------------------------------------------------
# floor path for degenerate initial data
# ---------------------------------------------------------------------------

def test_floor_study_on_degenerate_data():
    n = 64
    xc = UNIT.centers(n)
    values = np.where(np.abs(xc - 0.5) < 0.25, 1.0, 0.0)
    rho0, _ = normalize(values, UNIT)
    pb = heat_problem(h=1e-2, m=64)
    with pytest.raises(InvalidDensityError):
        run_scheme(pb, rho0, T=0.02)
    stages = [(delta, run_scheme(pb, floored_density(rho0, delta), T=0.02))
              for delta in (1e-1, 1e-2)]
    for delta, traj in stages:
        assert len(traj.times) == 3
        assert traj.densities[0].values.min() > 0.0
    gap = l1_distance(stages[0][1].final, stages[1][1].final)
    assert gap <= 0.5  # stages stay comparable, no blow-up


def test_floored_density_properties():
    values = np.zeros(32)
    values[:8] = 4.0
    rho0, _ = normalize(values, UNIT)
    flo = floored_density(rho0, 1e-2)
    assert flo.values.min() > 0.0
    assert abs(np.sum(flo.values) * flo.dx - 1.0) <= 1e-12
    with pytest.raises(ParameterError):
        floored_density(rho0, 0.0)


# ---------------------------------------------------------------------------
# the step's arithmetic, pinned bit for bit against zero-started sums
# ---------------------------------------------------------------------------

def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _pinned_problems():
    plap_cost, plap_energy = preset_specs("p-laplacian", p=3.0)
    return [
        heat_problem(h=2e-3, m=64),
        JkoProblem(cost=Q2, energy=ENTROPY,
                   potential=PotentialSpec.quadratic(1.0, 0.2), domain=SYM,
                   h=1e-2, m=48),
        JkoProblem(cost=plap_cost, energy=plap_energy, potential=NOPOT,
                   domain=UNIT, h=2e-3, m=40),
        JkoProblem(cost=CostSpec(terms=((0.3, 1.5), (0.5, 2.0), (0.2, 3.0))),
                   energy=EnergySpec(terms=(("entropy", 0.4),
                                            ("power", 0.5, 2.0),
                                            ("power", 0.1, 3.5))),
                   potential=PotentialSpec.quadratic(2.0, 0.7), domain=UNIT,
                   h=5e-3, m=32),
    ]


def _moved_nodes(pb, seed):
    """``pb``'s cosine quantiles, and nodes across the domain whose gaps are
    those of the quantiles randomly rescaled."""
    Xprev = to_quantiles(cosine_density(pb.m, domain=pb.domain), pb.m).X
    gaps = np.diff(Xprev) * np.random.default_rng(seed).uniform(0.8, 1.2, pb.m)
    cum = np.concatenate(([0.0], np.cumsum(gaps)))
    X = pb.domain.a + pb.domain.length * (cum / cum[-1])
    return Xprev, np.clip(X, pb.domain.a, pb.domain.b)


@pytest.mark.parametrize("case", range(4))
def test_gradient_and_curvature_match_zero_started_assembly(case):
    from wflow.jko import _StepObjective
    pb = _pinned_problems()[case]
    Xprev, X = _moved_nodes(pb, case)
    obj = _StepObjective(pb, Xprev)
    ev = obj.evaluate(X)
    mu = 1.0 / pb.m
    # the sweep's gradient, assembled into zeros as cell sums used to be;
    # c' may be v itself and P may be rho itself, so the kernels get copies
    _, cell = pb.cost.value_and_derivative(ev.v.copy())
    _, pres = pb.energy.value_and_pressure(ev.rho.copy())
    cell *= -0.5 * mu
    if not pb.potential.is_zero:
        cell += 0.5 * mu * pb.potential.derivative(ev.M)
    right = cell - pres
    pres += cell
    g = np.zeros_like(X)
    g[:-1] += pres
    g[1:] += right
    assert _same_bits(ev.g, g)
    assert ev.csum == float(pb.cost.value_and_derivative(ev.v)[0].sum())
    diag, off = obj.hessian(ev)
    ct = (mu / (4.0 * pb.h)) * pb.cost.second_derivative(ev.v)
    ge = mu**2 * pb.energy.second_derivative(ev.rho) / ev.w**3
    if not pb.potential.is_zero:
        ct = ct + 0.25 * mu * pb.potential.second_derivative(ev.M)
    want = np.zeros(pb.m + 1)
    want[1:] += ct + ge
    want[:-1] += ct + ge
    assert _same_bits(diag, want)
    assert _same_bits(off, ct - ge)


@pytest.mark.parametrize("p", [1, 2, 3])
def test_predictor_matches_zero_started_extrapolation(p):
    from wflow.jko import _predictor, _StepObjective
    pb = _pinned_problems()[2]
    Xprev, _ = _moved_nodes(pb, 0)
    rng = np.random.default_rng(p)
    # a smooth node path with generic round-off in every entry
    nodes = [Xprev + 1e-4 * j * np.sin(np.pi * Xprev)
             * (1.0 + 1e-3 * rng.standard_normal(Xprev.size))
             for j in range(p + 1)]
    nodes = [np.clip(X, pb.domain.a, pb.domain.b) for X in nodes]
    obj = _StepObjective(pb, nodes[0])
    ev = _predictor(obj, nodes, math.inf)
    want = np.zeros_like(nodes[0])
    for j, Xj in enumerate(nodes):
        want += (-1) ** j * math.comb(p + 1, j + 1) * Xj
    want[0] = max(want[0], pb.domain.a)
    want[-1] = min(want[-1], pb.domain.b)
    assert ev is not None
    assert _same_bits(ev.X, want)
    assert not _same_bits(want, nodes[0])


def test_step_records_the_transport_sum_it_evaluated():
    from wflow.jko import _StepObjective
    pb = _pinned_problems()[1]
    Xprev, _ = _moved_nodes(pb, 3)
    X, diag = jko_step_nodes(pb, Xprev)
    ev = _StepObjective(pb, Xprev).evaluate(X)
    c = pb.cost.value_and_derivative(ev.v)[0]
    assert ev.csum == float(c.sum())
    assert diag.W_value == float(c.sum()) / pb.m


@pytest.mark.parametrize("where", ["left-node-outside", "interior-outside"])
def test_cold_start_off_the_walls_is_clipped(where):
    # a cold start is clipped to the walls exactly as before; a start the
    # caller claims increasing is kept only with both endpoints inside them
    from wflow.jko import _newton_solve, _StepObjective
    pb = heat_problem(h=2e-3, m=64)
    Xprev = to_quantiles(cosine_density(64), 64).X.copy()
    if where == "left-node-outside":
        Xprev[0] -= 0.25 * (Xprev[1] - Xprev[0])
    else:
        Xprev[40] = pb.domain.b + 0.01
    obj = _StepObjective(pb, Xprev)

    def outcome(solve):
        try:
            X = solve()
        except ConvergenceError as exc:
            return "stopped", exc.best.tobytes(), exc.residual
        return "certified", X.tobytes()

    clipped = np.clip(Xprev, pb.domain.a, pb.domain.b)
    want = outcome(lambda: _newton_solve(obj, obj.evaluate(clipped))[0].X)
    assert want[0] == ("certified" if where == "left-node-outside"
                       else "stopped")
    assert outcome(lambda: _newton_solve(obj, obj.evaluate(Xprev))[0].X) == want
    if where == "left-node-outside":
        assert outcome(lambda: _newton_solve(obj, obj.evaluate(Xprev),
                                             increasing=True)[0].X) == want
    assert outcome(lambda: jko_step_nodes(pb, Xprev)[0]) == want


# ---------------------------------------------------------------------------
# the run state's carried midpoints, and the sweep's aliases
# ---------------------------------------------------------------------------

def _carry_problems():
    pm_cost, pm_energy = preset_specs("porous-medium", m=2.0)
    porous = JkoProblem(cost=pm_cost, energy=pm_energy, potential=NOPOT,
                        domain=UNIT, h=2e-3, m=128)
    return {"fokker-planck": _fp_problem(),
            "porous-medium": (porous, cosine_density(64, amp=0.4), 0.04),
            "p-laplacian": _plap_problem()}


def _steps_posed_from(pb, rho0, T, carried):
    # run_scheme's loop, each step taking the run state's midpoints as its P
    # or, with run.mid = None, forming them again
    run = jko._RunState(to_quantiles(rho0, pb.m).X)
    steps = []
    for _ in range(step_count(T, pb.h)):
        if not carried:
            run.mid = None
        X, d = jko_step_nodes(pb, run.nodes, run)
        steps.append((X.tobytes(), d))
    return steps


@pytest.mark.parametrize("name", ["fokker-planck", "porous-medium",
                                  "p-laplacian"])
def test_carried_midpoints_change_no_bit(name):
    pb, rho0, T = _carry_problems()[name]
    assert _steps_posed_from(pb, rho0, T, carried=True) == \
        _steps_posed_from(pb, rho0, T, carried=False)


@pytest.mark.parametrize("case", range(4))
def test_nothing_writes_to_an_evaluation_or_the_node_history(case,
                                                            monkeypatch):
    # the sweep may hand out c' = v and P = rho themselves, and the run state
    # the last nodes and their midpoints: no later stage of a step may write
    # to any of them
    from wflow.jko import (_newton_solve, _predictor, _RunState,
                           _step_diagnostics, _StepObjective)

    pb = _pinned_problems()[case]
    run = _RunState(to_quantiles(cosine_density(pb.m, domain=pb.domain),
                                 pb.m).X)
    for _ in range(2):
        X, _ = jko_step_nodes(pb, run.nodes, run)
    assert run.nodes is X and len(run.back) == 2
    history = [run.nodes, *run.back, run.mid]
    kept = [a.copy() for a in history]
    assert not (run.nodes.flags.writeable or run.mid.flags.writeable)
    # a tolerance the predictor misses, so that the chord trial is made
    obj = _StepObjective(dataclasses.replace(pb, tol=1e-14), run.nodes,
                         run.mid)
    ev = _predictor(obj, history[:3], math.inf)
    assert (ev.cp is ev.v and ev.pres is ev.rho) == (case in (0, 1))
    fields = {f.name: getattr(ev, f.name).copy()
              for f in dataclasses.fields(ev)
              if isinstance(getattr(ev, f.name), np.ndarray)}
    trials = _counting(monkeypatch, jko, "dpttrs")
    obj.hessian(ev)
    obj.rounding_error(ev)
    obj.kkt_residual(ev.X, ev.g)
    _step_diagnostics(pb, run.before, ev, 0.0, 0)
    with contextlib.suppress(ConvergenceError):
        _newton_solve(obj, ev, increasing=True, run=run)
    assert trials
    for name, want in fields.items():
        assert _same_bits(getattr(ev, name), want), name
    for a, want in zip(history, kept):
        assert _same_bits(a, want)
