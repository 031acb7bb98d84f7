"""Property tests: the step kernels against their reference forms, and the
run invariants over random valid problems."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from wflow import jko
from wflow.convex import CostSpec, EnergySpec, PotentialSpec, preset_specs
from wflow.density import Domain, normalize
from wflow.errors import InvalidSpecError, SchemeAbortError
from wflow.jko import JkoProblem, _gradient, _StepObjective, run_scheme

PROPERTY = settings(derandomize=True, database=None, deadline=None,
                    max_examples=60)
UNIT = Domain(0.0, 1.0)


def bits(a):
    return np.asarray(a, dtype=float).tobytes()


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------

exponents = st.one_of(st.just(2.0), st.floats(1.05, 4.0))
costs = st.lists(st.tuples(st.floats(0.05, 5.0), exponents),
                 min_size=1, max_size=3).map(lambda t: CostSpec(terms=tuple(t)))

energy_terms = st.one_of(
    st.tuples(st.just("entropy"), st.floats(0.05, 5.0)),
    st.tuples(st.just("power"), st.floats(0.05, 5.0),
              st.one_of(st.floats(0.05, 0.99), st.floats(1.01, 4.0))))
energies = st.lists(energy_terms, min_size=1, max_size=3).map(
    lambda t: EnergySpec(terms=tuple(t)))

# magnitudes stay clear of the underflow range, where a product of two
# rounded powers and one rounded power part ways by more than a few ulp
speeds = st.lists(st.one_of(st.just(0.0), st.floats(1e-8, 1e3),
                            st.floats(-1e3, -1e-8)),
                  min_size=1, max_size=300).map(np.array)
densities = st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=300).map(np.array)


def _energy_reference(energy, x):
    # the accumulating loops that value_and_pressure replaced: F and the
    # pressure x F' - F on positive x
    F, P = np.zeros_like(x), np.zeros_like(x)
    for t in energy.terms:
        if t[0] == "entropy":
            F += t[1] * x * np.log(x)
            P += t[1] * x
        else:
            _, A, m = t
            F += A * x**m / (m - 1.0)
            P += A * x**m
    return F, P


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

@PROPERTY
@given(costs, speeds)
def test_cost_kernel_matches_value_and_derivative(cost, v):
    c, cp = cost.value_and_derivative(v)
    assert bits(cp) == bits(cost.derivative(v))
    np.testing.assert_array_max_ulp(c, cost.value(v), maxulp=4)


@PROPERTY
@given(energies, densities)
def test_energy_kernel_matches_value_and_pressure(energy, x):
    F, P = energy.value_and_pressure(x)
    F_ref, P_ref = _energy_reference(energy, x)
    assert bits(F) == bits(F_ref)
    assert bits(P) == bits(P_ref)
    assert bits(energy.value(x)) == bits(F_ref)


@st.composite
def nodes_and_gradients(draw):
    """Strictly increasing nodes on the unit interval and a gradient small
    or large against their spacing, so both KKT paths are taken."""
    k = draw(st.integers(8, 200))
    gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    X = np.concatenate(([0.0], np.cumsum(gaps)))
    X /= X[-1]
    scale = draw(st.sampled_from([1e-6, 1e-3, 1e-1, 10.0])) / k
    g = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0),
                                       min_size=k + 1, max_size=k + 1)))
    return X, g


@PROPERTY
@given(nodes_and_gradients())
def test_kkt_shortcut_matches_pava(Xg):
    X, g = Xg
    obj = _StepObjective(JkoProblem(cost=CostSpec.single_power(2.0),
                                    energy=EnergySpec.entropy(),
                                    potential=PotentialSpec.zero(),
                                    domain=UNIT, h=0.01, m=X.size - 1), X)
    y = X - g
    if (np.diff(y) > 0.0).all():
        assert bits(isotonic_regression(y).x) == bits(y)
    z = np.clip(isotonic_regression(y).x, 0.0, 1.0)
    assert bits(obj.kkt_residual(X, g)) == bits(np.max(np.abs(X - z)))


@st.composite
def samples_on_grid(draw):
    k = draw(st.integers(2, 200))
    f = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=k, max_size=k)))
    if draw(st.booleans()):
        x = 3.0 * np.arange(k) - 7.0         # exactly equal spacing
    else:
        gaps = draw(st.lists(st.floats(1e-3, 1.0), min_size=k - 1,
                             max_size=k - 1))
        x = np.concatenate(([0.0], np.cumsum(gaps)))
    return f, x


@PROPERTY
@given(samples_on_grid())
def test_sliced_gradient_matches_numpy(fx):
    f, x = fx
    assert bits(_gradient(f, x)) == bits(np.gradient(f, x))


# ---------------------------------------------------------------------------
# run invariants
# ---------------------------------------------------------------------------

PHI = 0.5 * (1.0 + 5.0**0.5)
# Draws stop short of two defects that the xfail tests below pin down:
# above P_MAX (cost exponent q < 5/3) a step whose cells barely move cannot
# be certified, and below p = 1.019 (q > 54) the sampled cost-positivity
# check underflows.
P_MAX = 2.5
P_MIN = 1.02


@st.composite
def presets(draw):
    """A preset and parameters inside its window."""
    name = draw(st.sampled_from(["fokker-planck", "porous-medium",
                                 "fast-diffusion", "p-laplacian",
                                 "doubly-degenerate"]))
    if name == "porous-medium":
        return preset_specs(name, m=draw(st.floats(1.05, 4.0)))
    if name == "fast-diffusion":
        return preset_specs(name, m=draw(st.floats(0.5, 0.95)))
    if name == "p-laplacian":
        return preset_specs(name, p=draw(st.floats(PHI, P_MAX)))
    if name == "doubly-degenerate":
        p = draw(st.floats(P_MIN, P_MAX))
        # on the boundary itself rounding decides; start just inside it
        n = 1.0 / (p * (p - 1.0)) + draw(st.floats(1e-9, 2.0))
        if abs(n - 1.0 / (p - 1.0)) < 1e-3:
            n += 0.01
        return preset_specs(name, p=p, n=n)
    return preset_specs(name)


@st.composite
def problems(draw):
    cost, energy = draw(presets())
    potential = draw(st.sampled_from([PotentialSpec.zero(),
                                      PotentialSpec.quadratic(1.0, 0.5)]))
    m = draw(st.integers(8, 48))
    h = draw(st.floats(1e-3, 2e-2))
    pb = JkoProblem(cost=cost, energy=energy, potential=potential,
                    domain=UNIT, h=h, m=m)
    n = draw(st.integers(8, 48))
    xhat = UNIT.centers(n)
    vals = 1.0 + sum(draw(st.floats(-0.12, 0.12)) * np.cos(k * np.pi * xhat)
                     for k in range(1, 4))
    steps = draw(st.integers(1, 20))
    return pb, normalize(vals, UNIT)[0], steps * h


def _recorded_run(pb, rho0, T):
    nodes = []
    step = jko.jko_step_nodes

    def record(*args):
        X, diag = step(*args)
        nodes.append(X.copy())
        return X, diag

    with mock.patch.object(jko, "jko_step_nodes", record):
        traj = run_scheme(pb, rho0, T)
    return traj, nodes


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(problems())
def test_run_invariants(case):
    pb, rho0, T = case
    traj, nodes = _recorded_run(pb, rho0, T)
    for rho in traj.densities:
        assert abs(rho.mass() - 1.0) <= 1e-12
    for X in nodes:
        assert (np.diff(X) > 0.0).all()
    for d in traj.diagnostics:
        assert d.E_free_after <= d.E_free_before + 1e-12
        assert d.kkt_residual <= pb.tol
    again, nodes_again = _recorded_run(pb, rho0, T)
    assert [bits(X) for X in nodes_again] == [bits(X) for X in nodes]
    assert [bits(r.values) for r in again.densities] == \
        [bits(r.values) for r in traj.densities]
    assert [d.as_dict() for d in again.diagnostics] == \
        [d.as_dict() for d in traj.diagnostics]


@pytest.mark.xfail(strict=True, raises=SchemeAbortError,
                   reason="q < 2: Newton cycles across the kink of |v|^q at "
                          "v = 0 and FISTA stalls above tol")
@pytest.mark.parametrize("m,n,mode,amp", [
    (8, 8, 1, 1e-8),        # nearly uniform data
    (64, 64, 1, 1e-6),
    (9, 8, 2, 0.0625),      # symmetric data: the middle cell stays put
])
def test_p_laplacian_p3_step_with_resting_cells(m, n, mode, amp):
    cost, energy = preset_specs("p-laplacian", p=3.0)
    pb = JkoProblem(cost=cost, energy=energy, potential=PotentialSpec.zero(),
                    domain=UNIT, h=1.0 / 64.0, m=m)
    xhat = UNIT.centers(n)
    rho0 = normalize(1.0 + amp * np.cos(mode * np.pi * xhat), UNIT)[0]
    run_scheme(pb, rho0, pb.h)


@pytest.mark.xfail(strict=True, raises=InvalidSpecError,
                   reason="c(1e-6) underflows to 0 for q > 54 and fails the "
                          "sampled cost-positivity check")
def test_doubly_degenerate_near_p1_passes_validation():
    p = 1.01
    cost, energy = preset_specs("doubly-degenerate", p=p,
                                n=1.0 / (p * (p - 1.0)) + 0.5)
    JkoProblem(cost=cost, energy=energy, potential=PotentialSpec.zero(),
               domain=UNIT, h=0.01, m=16)
