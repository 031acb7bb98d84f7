"""Property tests: the step kernels and the assumption checks against their
reference forms, and the run invariants over random valid problems."""

import warnings
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import isotonic_regression

from wflow import jko
from wflow.convex import (CostSpec, EnergySpec, PotentialSpec, preset_specs,
                          validate_assumptions)
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

def costs_up_to(q_max):
    exponents = st.one_of(st.just(2.0), st.floats(1.05, q_max))
    return st.lists(st.tuples(st.floats(0.05, 5.0), exponents),
                    min_size=1, max_size=3).map(lambda t: CostSpec(terms=tuple(t)))


costs = costs_up_to(4.0)

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
    """Strictly increasing nodes on the unit interval and a gradient tiny,
    small or large against their spacing, so ``X - g`` is sometimes not
    increasing and the residual falls on both sides of the tolerance."""
    k = draw(st.integers(8, 200))
    gaps = np.array(draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k)))
    X = np.concatenate(([0.0], np.cumsum(gaps)))
    X /= X[-1]
    scale = draw(st.sampled_from([1e-12, 1e-6, 1e-3, 1e-1, 10.0])) / k
    g = scale * np.array(draw(st.lists(st.floats(-1.0, 1.0),
                                       min_size=k + 1, max_size=k + 1)))
    return X, g


@PROPERTY
@given(nodes_and_gradients())
def test_kkt_shortcut_matches_pava(Xg):
    """The wall-clip certificate bounds the projected-gradient residual on
    the monotone box (isotonic regression as reference) from above, equals
    it when ``X - g`` is nondecreasing, and makes the same ``<= tol``
    decision when every gap exceeds ``2 tol``."""
    X, g = Xg
    obj = _StepObjective(JkoProblem(cost=CostSpec.single_power(2.0),
                                    energy=EnergySpec.entropy(),
                                    potential=PotentialSpec.zero(),
                                    domain=UNIT, h=0.01, m=X.size - 1), X)
    y = X - g
    exact = np.max(np.abs(X - np.clip(isotonic_regression(y).x, 0.0, 1.0)))
    r = obj.kkt_residual(X, g)
    assert r >= exact
    if (np.diff(y) >= 0.0).all():
        assert bits(r) == bits(exact)
    tol = obj.pb.tol
    if np.diff(X).min() > 2.0 * tol:
        assert (r <= tol) == (exact <= tol)


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
# assumption checks
# ---------------------------------------------------------------------------

_SLACK = -1e-10
# the two hypotheses that couple a spec to another input; the constructors
# enforce the other six
COUPLED = ("energy-power-range", "potential-convexity")


@dataclass(frozen=True)
class SampledCheck:
    name: str
    passed: bool
    witness: tuple | None = None


def _sampled_validate(cost, energy, potential, domain=None):
    """The sampled validator that the closed-form checks replaced: each of
    the eight standing assumptions tested on a grid, reporting the first
    failing sample."""
    checks = []
    zs = np.logspace(-6, 3, 1000)

    cz = cost.value(zs)
    bad = np.nonzero(cz <= 0.0)[0]
    checks.append(SampledCheck(
        name="cost-positivity",
        passed=cost.value(0.0) == 0.0 and bad.size == 0,
        witness=None if bad.size == 0 else (float(zs[bad[0]]), float(cz[bad[0]]))))

    tail = zs[-10:]
    ratios = cost.value(tail) / tail
    coercive = bool(np.all(np.diff(ratios) > 0.0))
    checks.append(SampledCheck(
        name="cost-coercivity", passed=coercive,
        witness=None if coercive else (float(tail[0]), float(ratios[0]))))

    lowslack = cz - cost.beta * zs**cost.q
    upslack = cost.alpha * (zs**cost.q + 1.0) - cz
    bad = np.nonzero((lowslack < _SLACK) | (upslack < _SLACK))[0]
    checks.append(SampledCheck(
        name="cost-growth-bounds", passed=bad.size == 0,
        witness=None if bad.size == 0 else (float(zs[bad[0]]), float(cz[bad[0]]))))

    if any(t[0] == "entropy" or t[2] > 1.0 for t in energy.terms):
        xs = np.logspace(2, 8, 13)
        growth = energy.value(xs) / xs
        ok = bool(np.all(np.diff(growth) > 0.0))
        witness = None if ok else (float(xs[0]), float(growth[0]))
    else:
        xs = zs
        fp = energy.derivative(xs)
        badi = np.nonzero(fp >= 0.0)[0]
        ok = energy.negative_slope and badi.size == 0
        witness = (float(xs[badi[0]]), float(fp[badi[0]])) if badi.size else None
    checks.append(SampledCheck(
        name="energy-superlinear-or-decreasing", passed=ok, witness=witness))

    # slope differences on the log grid, with slack relative to the slopes
    vals = zs * energy.value(1.0 / zs)
    slopes = np.diff(vals) / np.diff(zs)
    scale = np.maximum(np.abs(slopes[1:]), np.abs(slopes[:-1]))
    second = np.diff(slopes)
    badi = np.nonzero(second < _SLACK * np.maximum(scale, 1.0))[0]
    checks.append(SampledCheck(
        name="energy-displacement-convexity", passed=badi.size == 0,
        witness=None if badi.size == 0 else (float(zs[badi[0] + 1]), float(second[badi[0]]))))

    bad_terms = [t for t in energy.terms
                 if t[0] == "power" and t[2] < 1.0 and t[2] < 1.0 / cost.q]
    checks.append(SampledCheck(
        name="energy-power-range", passed=not bad_terms,
        witness=None if not bad_terms else (bad_terms[0][2], 1.0 / cost.q)))

    if domain is not None:
        px = np.linspace(domain[0], domain[1], 257)
    elif potential.kind == "tabulated":
        px = np.linspace(potential.xs[0], potential.xs[-1], 257)
    else:
        px = np.linspace(-10.0, 10.0, 257)
    pv = potential.value(px)
    badi = np.nonzero(pv < 0.0)[0]
    checks.append(SampledCheck(
        name="potential-nonnegative", passed=badi.size == 0,
        witness=None if badi.size == 0 else (float(px[badi[0]]), float(pv[badi[0]]))))
    second = pv[:-2] - 2.0 * pv[1:-1] + pv[2:]
    badi = np.nonzero(second < _SLACK)[0]
    checks.append(SampledCheck(
        name="potential-convexity", passed=badi.size == 0,
        witness=None if badi.size == 0 else (float(px[badi[0] + 1]), float(second[badi[0]]))))
    return checks


def _merged(cost):
    """The same cost with the coefficients of equal exponents summed."""
    coeff = {}
    for A, qi in cost.terms:
        coeff[qi] = coeff.get(qi, 0.0) + A
    return CostSpec(terms=tuple((A, qi) for qi, A in coeff.items()))


@st.composite
def potentials_and_domains(draw):
    """A valid potential with a domain that may reach past a table's ends."""
    kind = draw(st.sampled_from(["zero", "quadratic", "tabulated"]))
    if kind == "zero":
        potential = PotentialSpec.zero()
    elif kind == "quadratic":
        potential = PotentialSpec.quadratic(draw(st.floats(0.0, 10.0)),
                                            draw(st.floats(-1.0, 1.0)))
    if kind != "tabulated":
        a = draw(st.floats(-3.0, 1.0))
        domain = (a, a + draw(st.floats(0.2, 4.0)))
        return potential, draw(st.sampled_from([domain, None]))
    k = draw(st.integers(2, 8))
    gaps = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=k - 1,
                                  max_size=k - 1)))
    slopes = np.sort(draw(st.lists(st.floats(-3.0, 3.0), min_size=k - 1,
                                   max_size=k - 1)))
    xs = draw(st.floats(-2.0, 1.0)) + np.concatenate(([0.0], np.cumsum(gaps)))
    vs = np.concatenate(([0.0], np.cumsum(slopes * gaps)))
    vs += draw(st.floats(0.0, 1.0)) - vs.min()
    a = xs[0] + draw(st.floats(-1.0, 0.5))
    b = max(xs[-1] + draw(st.floats(-0.5, 1.0)), a + 0.1)
    return (PotentialSpec.tabulated(xs, vs),
            draw(st.sampled_from([(a, b), None])))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(costs_up_to(50.0), energies, potentials_and_domains())
def test_closed_form_checks_match_sampled_reference(cost, energy, pd):
    # q <= 50 keeps every sample of the reference clear of over- and underflow
    potential, domain = pd
    ref = _sampled_validate(cost, energy, potential, domain)
    for r in ref:
        if r.name in COUPLED or r.passed:
            continue
        # the sampled growth bound compares sum_i A_i |z|^2 with
        # (sum_i A_i) |z|^2 at an absolute slack of 1e-10, which rounding
        # breaks for repeated exponents; merging them clears it
        assert r.name == "cost-growth-bounds"
        assert len(_merged(cost).terms) < len(cost.terms)
        merged = _sampled_validate(_merged(cost), energy, potential, domain)
        assert merged[2].name == r.name and merged[2].passed
    try:
        validate_assumptions(cost, energy, potential, domain)
        raised = None
    except InvalidSpecError as exc:
        raised = str(exc)
    failed = [r.name for r in ref if r.name in COUPLED and not r.passed]
    if failed:
        assert raised is not None and raised.startswith(failed[0])
    elif raised is not None:
        # a concave kink where the table's end meets its flat extension,
        # between two samples of the reference
        a, b = domain
        xs, vs = potential.xs, potential.vs
        first = (vs[1] - vs[0]) / (xs[1] - xs[0])
        last = (vs[-1] - vs[-2]) / (xs[-1] - xs[-2])
        assert raised.startswith("potential-convexity")
        assert (a < xs[0] < b and first < 0.0) or (a < xs[-1] < b and last > 0.0)


@pytest.mark.parametrize("q", [55.0, 112.0, 201.0, 1e4])
def test_steep_power_costs_pass_validation(q):
    # a sampled check would underflow at c(1e-6) (q > 54) and overflow at
    # c(1e3) (q > 102)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        validate_assumptions(CostSpec.single_power(q), EnergySpec.entropy(),
                             PotentialSpec.zero())


# ---------------------------------------------------------------------------
# run invariants
# ---------------------------------------------------------------------------

PHI = 0.5 * (1.0 + 5.0**0.5)
# Draws stop short of the defect that the xfail test below pins down: above
# P_MAX (cost exponent q < 5/3) a step whose cells barely move cannot be
# certified.  P_MIN = 1.005 is a cost exponent q = 201.
P_MAX = 2.5
P_MIN = 1.005


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


def _q201_case():
    # the draw that found the line-search overflow: at cost exponent
    # q = 201 a first trial reaches |v| ~ 36, where |v|^200 overflows.  Which
    # examples the strategy draws depends on the test files pytest collects,
    # so this one is pinned.
    p = P_MIN
    cost, energy = preset_specs("doubly-degenerate", p=p,
                                n=1.0 / (p * (p - 1.0)) + 1.0)
    pb = JkoProblem(cost=cost, energy=energy, potential=PotentialSpec.zero(),
                    domain=UNIT, h=1e-3, m=8)
    rho0 = normalize(1.0 + 0.12 * np.cos(np.pi * UNIT.centers(8)), UNIT)[0]
    return pb, rho0, 5 * pb.h


@pytest.mark.filterwarnings("error")
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(problems())
@example(_q201_case())
def test_run_invariants(case):
    pb, rho0, T = case
    traj, nodes = _recorded_run(pb, rho0, T)
    for rho in traj.densities:
        assert abs(np.sum(rho.values) * rho.dx - 1.0) <= 1e-12
    for X in nodes:
        assert (np.diff(X) > 0.0).all()
    for d in traj.diagnostics:
        assert d.E_free_after <= d.E_free_before + 1e-12
        assert d.kkt_residual <= pb.tol
    again, nodes_again = _recorded_run(pb, rho0, T)
    assert [bits(X) for X in nodes_again] == [bits(X) for X in nodes]
    assert [bits(r.values) for r in again.densities] == \
        [bits(r.values) for r in traj.densities]
    assert [vars(d) for d in again.diagnostics] == \
        [vars(d) for d in traj.diagnostics]


@pytest.mark.xfail(strict=True, raises=SchemeAbortError,
                   reason="q < 2: Newton cycles across the kink of |v|^q at "
                          "v = 0 and stops above tol")
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


def test_doubly_degenerate_near_p1_passes_validation():
    # q = 101: a sampled check of c(1e-6) would underflow to 0
    p = 1.01
    cost, energy = preset_specs("doubly-degenerate", p=p,
                                n=1.0 / (p * (p - 1.0)) + 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        JkoProblem(cost=cost, energy=energy, potential=PotentialSpec.zero(),
                   domain=UNIT, h=0.01, m=16)
