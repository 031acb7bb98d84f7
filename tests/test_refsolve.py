import re

import numpy as np
import pytest

from wflow import refsolve
from wflow.convex import CostSpec, EnergySpec, PotentialSpec, preset_specs
from wflow.density import Domain, l1_distance, normalize
from wflow.errors import ConvergenceError, ParameterError
from wflow.refsolve import (
    FdConfig,
    barenblatt,
    barenblatt_density,
    fd_solve,
    gibbs_state,
)

Q2 = CostSpec.single_power(2.0)
ENTROPY = EnergySpec.entropy()
UNIT = Domain(0.0, 1.0)
SYM = Domain(-1.0, 1.0)


def test_fd_config_validation():
    with pytest.raises(ParameterError):
        FdConfig(n=8)
    with pytest.raises(ParameterError):
        FdConfig(dt=0.0)


@pytest.mark.parametrize("T", [float("inf"), float("nan"), 2e3, 1e-4])
def test_fd_horizon_outside_step_range_is_a_parameter_error(T):
    # inf and nan once escaped as OverflowError and ValueError; 2e3 needs
    # 2e6 steps of dt = 1e-3, above jko.MAX_STEPS
    rho, _ = normalize(np.ones(16), UNIT)
    with pytest.raises(ParameterError, match="steps, needs 1.."):
        fd_solve(Q2, ENTROPY, PotentialSpec.zero(), UNIT, rho, T=T,
                 cfg=FdConfig(n=16, dt=1e-3))


def test_equilibrium_is_stationary():
    n = 64
    rho, _ = normalize(np.ones(n), UNIT)
    traj = fd_solve(Q2, ENTROPY, PotentialSpec.zero(), UNIT, rho, T=0.01,
                    cfg=FdConfig(n=n, dt=1e-3))
    assert l1_distance(traj.final, rho) <= 1e-10


def test_gibbs_state_is_stationary_under_fd():
    n = 64
    V = PotentialSpec.quadratic(1.0, 0.0)
    rho = gibbs_state(ENTROPY, V, SYM, n)
    traj = fd_solve(Q2, ENTROPY, V, SYM, rho, T=0.01, cfg=FdConfig(n=n, dt=1e-3))
    assert l1_distance(traj.final, rho) <= 1e-8


def test_heat_mode_decay_rate():
    # second Neumann mode on (0,1) decays like exp(-4 pi^2 t)
    n = 256
    T, dt = 0.05, 1e-4
    xc = UNIT.centers(n)
    rho, _ = normalize(1.0 + 0.5 * np.cos(2 * np.pi * xc), UNIT)[0:2]
    traj = fd_solve(Q2, ENTROPY, PotentialSpec.zero(), UNIT, rho, T=T,
                    cfg=FdConfig(n=n, dt=dt))
    mode = lambda r: 2.0 * float(np.sum(r.values * np.cos(2 * np.pi * xc)) * r.dx)
    ratio = mode(traj.final) / mode(rho)
    assert ratio == pytest.approx(np.exp(-4.0 * np.pi**2 * T), rel=1e-2)


def test_fd_zero_cell_under_entropy_is_singular():
    # log(0) makes the residual and its Jacobian non-finite at step 1
    n = 32
    vals = np.ones(n)
    vals[5] = 0.0
    rho, _ = normalize(vals, UNIT)
    with (np.errstate(divide="ignore", invalid="ignore"),
          pytest.raises(ConvergenceError, match="singular Newton system at step 1")):
        fd_solve(Q2, ENTROPY, PotentialSpec.zero(), UNIT, rho, T=0.01,
                 cfg=FdConfig(n=n, dt=1e-3))


def test_fd_mass_conservation():
    n = 128
    xc = UNIT.centers(n)
    rho, _ = normalize(1.0 + 0.8 * np.sin(np.pi * xc) ** 2, UNIT)
    traj = fd_solve(Q2, ENTROPY, PotentialSpec.zero(), UNIT, rho, T=0.02,
                    cfg=FdConfig(n=n, dt=1e-3))
    for r in traj.densities:
        assert abs(np.sum(r.values) * r.dx - 1.0) <= 1e-12


def test_fd_maximum_principle():
    n = 128
    rng = np.random.default_rng(4)
    vals = rng.uniform(0.5, 1.5, n)
    # smooth the random data a little to keep Newton friendly
    for _ in range(3):
        vals = np.convolve(np.r_[vals[0], vals, vals[-1]],
                           [0.25, 0.5, 0.25], mode="valid")
    rho, _ = normalize(vals, UNIT)
    traj = fd_solve(Q2, ENTROPY, PotentialSpec.zero(), UNIT, rho, T=0.02,
                    cfg=FdConfig(n=n, dt=2e-3))
    lo, hi = rho.values.min(), rho.values.max()
    for r in traj.densities:
        assert r.values.max() <= hi + 1e-8
        assert r.values.min() >= lo - 1e-8


SMOOTH, _ = normalize(1.0 + 0.4 * np.cos(np.pi * UNIT.centers(128)), UNIT)


def test_fd_warm_steps_cost_few_residual_evaluations(monkeypatch):
    # the extrapolated start, the reused residual and the reused Jacobian
    # leave about 6 evaluations per step on smooth positive heat data: the
    # start, three colour probes, one line-search trial and the polish
    calls = []
    flux = refsolve._flux_divergence

    def counted(*args):
        calls.append(None)
        return flux(*args)

    monkeypatch.setattr(refsolve, "_flux_divergence", counted)
    traj = fd_solve(Q2, ENTROPY, PotentialSpec.zero(), UNIT, SMOOTH, T=0.05,
                    cfg=FdConfig(n=SMOOTH.n, dt=5e-4))
    steps = len(traj.times) - 1
    assert steps == 100
    assert len(calls) / steps <= 7.0


BARENBLATT_WINDOW = Domain(-1.5, 1.5)


@pytest.mark.parametrize("cost, energy, dom, rho", [
    (Q2, ENTROPY, UNIT, SMOOTH),
    (*preset_specs("p-laplacian", p=2.5), UNIT, SMOOTH),
    # empty cells outside the support: every step starts cold
    (Q2, EnergySpec.power(2.0), BARENBLATT_WINDOW,
     barenblatt_density(2.0, 0.05, BARENBLATT_WINDOW, 128)),
], ids=["heat", "p-laplacian-2.5", "porous-barenblatt"])
def test_fd_warm_started_run_matches_cold_steps(cost, energy, dom, rho):
    cfg = FdConfig(n=rho.n, dt=1e-3)
    traj = fd_solve(cost, energy, PotentialSpec.zero(), dom, rho, T=0.02,
                    cfg=cfg)
    cur = rho
    for warm in traj.densities[1:]:
        cur = fd_solve(cost, energy, PotentialSpec.zero(), dom, cur,
                       T=cfg.dt, cfg=cfg).final
        assert np.max(np.abs(warm.values - cur.values)) <= 1e-12


# ---------------------------------------------------------------------------
# stationary states
# ---------------------------------------------------------------------------

def test_gibbs_uniform_without_potential():
    rho = gibbs_state(ENTROPY, PotentialSpec.zero(), UNIT, 64)
    assert np.allclose(rho.values, 1.0, atol=1e-10)


def test_gibbs_gaussian_normalization():
    n = 512
    V = PotentialSpec.quadratic(1.0, 0.0)
    rho = gibbs_state(ENTROPY, V, SYM, n)
    xc = SYM.centers(n)
    target = np.exp(-0.5 * xc**2)
    target /= np.sum(target) * rho.dx
    assert np.max(np.abs(rho.values - target)) <= 1e-8
    # partition function of exp(-x^2/2) on (-1,1)
    z = np.sum(np.exp(-0.5 * xc**2)) * rho.dx
    assert z == pytest.approx(1.7113, abs=2e-4)


def test_gibbs_state_has_no_step_velocity():
    # the flux-side field (c*)'(d(F'(rho)+V)) vanishes on the positivity set;
    # the mixed energy's (F')^-1 comes from the root finder, not a closed form
    n = 128
    V = PotentialSpec.quadratic(1.0, 0.0)
    for F in (ENTROPY, EnergySpec.power(2.0),
              EnergySpec(terms=(("entropy", 0.5), ("power", 1.0, 3.0)))):
        rho = gibbs_state(F, V, SYM, n)
        assert abs(np.sum(rho.values) * rho.dx - 1.0) <= 1e-12
        xc = SYM.centers(n)
        pos = rho.values > 1e-10
        w = F.derivative(rho.values[pos]) + V.value(xc[pos])
        dw = np.gradient(w, xc[pos])
        vel = Q2.conjugate_gradient(dw)
        interior = vel[1:-1] if vel.size > 2 else vel
        assert np.max(np.abs(interior)) <= 10.0 * rho.dx


def test_gibbs_quadratic_energy_clamps():
    # F = x^2: stationary profile (lam - V)/2 clamped at zero
    n = 256
    V = PotentialSpec.quadratic(1.0, 0.0)
    F = EnergySpec.power(2.0)
    rho = gibbs_state(F, V, SYM, n)
    xc = SYM.centers(n)
    lam_plus = 2.0 * rho.values + V.value(xc)
    inside = rho.values > 1e-12
    lam = np.mean(lam_plus[inside])
    assert np.allclose(lam_plus[inside], lam, atol=1e-8)
    assert abs(np.sum(rho.values) * rho.dx - 1.0) <= 1e-12
    # hand integration: mass = int (lam - x^2/2)/2 over {V < lam}
    r = np.sqrt(2.0 * lam)
    hand = (lam * r - r**3 / 6.0) if r <= 1.0 else (lam - 1.0 / 6.0)
    assert hand == pytest.approx(1.0, abs=1e-3)


# ---------------------------------------------------------------------------
# source-type profile
# ---------------------------------------------------------------------------

def test_barenblatt_symmetry_and_mass():
    from scipy.integrate import quad

    xs = np.linspace(-3, 3, 1001)
    for t in (0.01, 0.1, 1.0):
        vals = barenblatt(2.0, 1.0, t, xs)
        assert np.allclose(vals, vals[::-1], atol=1e-14)
        # support edge where the profile clips to zero
        edge = 0.0
        hi = 10.0
        while barenblatt(2.0, 1.0, t, hi) > 0:
            hi *= 2
        lo = 0.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if barenblatt(2.0, 1.0, t, mid) > 0:
                lo = mid
            else:
                hi = mid
        edge = 0.5 * (lo + hi)
        mass, _ = quad(lambda x: barenblatt(2.0, 1.0, t, x),
                       -edge - 1.0, edge + 1.0, points=[-edge, edge], limit=200)
        assert mass == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("t", [0.01, 0.1, 1.0, 7.0])
def test_barenblatt_matches_closed_form_at_m2(t):
    # m = 2: a = 1/3, k = 1/12 and beta = sqrt(pi) Gamma(2) / Gamma(5/2) = 4/3,
    # so unit mass gives C = (sqrt(1/12) / beta)^(2/3) = 3^(1/3) / 4.  Points
    # where the clipped bracket is at least C/2 keep the profile well
    # conditioned, so a gamma ratio an ulp or two off moves it by a few ulp.
    C = 3.0 ** (1.0 / 3.0) / 4.0
    xs = np.linspace(-1.0, 1.0, 41) * np.sqrt(6.0 * C) * t ** (1.0 / 3.0)
    expected = t ** (-1.0 / 3.0) * (C - xs**2 / 12.0 * t ** (-2.0 / 3.0))
    np.testing.assert_allclose(barenblatt(2.0, 1.0, t, xs), expected,
                               rtol=8 * np.finfo(float).eps, atol=0.0)


def test_barenblatt_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        barenblatt(1.0, 1.0, 0.1, 0.0)
    with pytest.raises(ParameterError):
        barenblatt(2.0, 1.0, 0.0, 0.0)


# each input check: the call and the message it fails with
REJECTED_INPUTS = {
    "fd-initial-data-on-another-grid": (
        lambda: fd_solve(Q2, ENTROPY, PotentialSpec.zero(), UNIT,
                         normalize(np.ones(16), UNIT)[0], T=0.01,
                         cfg=FdConfig(n=32, dt=1e-3)),
        "initial data has 16 cells, config says 32"),
    "fd-initial-data-on-another-domain": (
        lambda: fd_solve(Q2, ENTROPY, PotentialSpec.zero(), UNIT,
                         normalize(np.ones(16), SYM)[0], T=0.01,
                         cfg=FdConfig(n=16, dt=1e-3)),
        "initial density lives on the wrong domain"),
    "barenblatt-mass-0": (lambda: barenblatt(2.0, 0.0, 0.1, 0.0),
                          "mass must be positive, got 0.0"),
}


@pytest.mark.parametrize("call,message", REJECTED_INPUTS.values(),
                         ids=REJECTED_INPUTS.keys())
def test_input_checks_raise_parameter_errors(call, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


def test_barenblatt_scaling_invariance():
    # rho(t, x) = t^(-a) G(x t^(-a)): check the self-similar collapse
    a = 1.0 / 3.0
    xs = np.linspace(-1, 1, 201)
    v1 = barenblatt(2.0, 1.0, 0.2, xs)
    v2 = barenblatt(2.0, 1.0, 0.4, xs * (0.4 / 0.2) ** a) * (0.4 / 0.2) ** a
    assert np.allclose(v1, v2, atol=1e-12)


def test_fd_reproduces_barenblatt_flow():
    # porous medium m=2: start at t0, integrate to t1, compare profiles
    n = 512
    dom = Domain(-1.5, 1.5)
    t0, t1 = 0.05, 0.1
    rho0 = barenblatt_density(2.0, t0, dom, n)
    traj = fd_solve(Q2, EnergySpec.power(2.0), PotentialSpec.zero(), dom,
                    rho0, T=t1 - t0, cfg=FdConfig(n=n, dt=1e-3))
    target = barenblatt_density(2.0, t1, dom, n)
    assert l1_distance(traj.final, target) <= 5e-2
