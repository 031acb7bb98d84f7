import math
import re

import numpy as np
import pytest

from wflow.convex import (
    CostSpec,
    EnergySpec,
    PotentialSpec,
    preset_specs,
    validate_assumptions,
    _invert_increasing,
)
from wflow.errors import InvalidSpecError, ParameterError

COSTS = {
    "q1.5": CostSpec.single_power(1.5),
    "q2": CostSpec.single_power(2.0),
    "q3": CostSpec.single_power(3.0),
    "two-term": CostSpec(terms=((1.0 / 3.0, 3.0), (1.0, 1.5))),
}
# energies with no closed-form inverse of F': their slopes run over the
# whole line, from -inf at 0 (entropy, x^0.6) to +inf
MIXED_ENERGIES = {
    "two-term-energy": EnergySpec(terms=(("entropy", 0.5), ("power", 1.0, 3.0))),
    "three-term-energy": EnergySpec(terms=(("power", 0.7, 1.5), ("entropy", 0.4),
                                           ("power", 0.2, 0.6))),
}


def sample_z(n=1000):
    z = np.linspace(-50.0, 50.0, n)
    return z[z != 0.0]


# ---------------------------------------------------------------------------
# cost evaluation
# ---------------------------------------------------------------------------

def test_cost_eval_at_origin():
    cost = COSTS["q2"]
    assert cost.value(0.0) == 0.0 and cost.derivative(0.0) == 0.0


def test_cost_eval_quadratic():
    val, der = COSTS["q2"].value(2.0), COSTS["q2"].derivative(2.0)
    assert val == pytest.approx(2.0, abs=1e-14)
    assert der == pytest.approx(2.0, abs=1e-14)


def test_cost_eval_two_term():
    val, der = COSTS["two-term"].value(1.0), COSTS["two-term"].derivative(1.0)
    assert val == pytest.approx(1.0 / 3.0 + 1.0, abs=1e-14)
    assert der == pytest.approx(1.0 + 1.5, abs=1e-14)


@pytest.mark.parametrize("key", sorted(COSTS))
def test_cost_derivative_matches_finite_differences(key):
    cost = COSTS[key]
    z = np.linspace(-8.0, 8.0, 41)
    z = z[np.abs(z) > 0.3]
    eps = 1e-6
    fd = (cost.value(z + eps) - cost.value(z - eps)) / (2 * eps)
    assert np.allclose(cost.derivative(z), fd, rtol=1e-6, atol=1e-8)


def test_cost_rejects_bad_exponents():
    with pytest.raises(InvalidSpecError):
        CostSpec(terms=((1.0, 1.0),))
    with pytest.raises(InvalidSpecError):
        CostSpec(terms=((-1.0, 2.0),))
    with pytest.raises(InvalidSpecError):
        CostSpec.single_power(1.0)


def test_cost_growth_constants():
    cost = COSTS["two-term"]
    assert cost.q == 3.0
    assert cost.alpha == pytest.approx(1.0 / 3.0 + 1.0)
    assert cost.beta == pytest.approx(1.0 / 3.0)
    z = sample_z()
    cz = cost.value(z)
    assert np.all(cz >= cost.beta * np.abs(z) ** cost.q - 1e-10)
    assert np.all(cz <= cost.alpha * (np.abs(z) ** cost.q + 1.0) + 1e-10)


# ---------------------------------------------------------------------------
# conjugates
# ---------------------------------------------------------------------------

def test_conjugate_quadratic_point():
    val, grad = COSTS["q2"].conjugate_pair(1.0)
    assert val == pytest.approx(0.5, abs=1e-12)
    assert grad == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("key", sorted(COSTS))
def test_conjugate_at_origin(key):
    val, grad = COSTS[key].conjugate_pair(0.0)
    assert val == 0.0 and grad == 0.0


def test_conjugate_cubic_closed_form():
    val, grad = COSTS["q3"].conjugate_pair(8.0)
    assert val == pytest.approx(8.0**1.5 / 1.5, rel=1e-12)
    assert grad == pytest.approx(np.sqrt(8.0), rel=1e-12)


@pytest.mark.parametrize("key", ["q1.5", "q2", "q3", *sorted(MIXED_ENERGIES)])
def test_closed_form_agrees_with_root_finder(key):
    if key in COSTS:
        # a power cost's (c*)' = (c')^-1 is a closed form
        cost = COSTS[key]
        z = np.abs(sample_z(200)) + 0.01
        closed = cost.conjugate_gradient(z)
        found = _invert_increasing(cost.derivative, cost.second_derivative, z)
        scale = np.maximum(1.0, np.abs(closed))
    else:
        # a mixed energy's F' is a closed form: the root finder recovers
        # the points it was evaluated at, to a relative 1e-10
        F = MIXED_ENERGIES[key]
        closed = np.logspace(-6.0, 2.0, 200)
        found = _invert_increasing(F.derivative, F.second_derivative,
                                   F.derivative(closed))
        scale = closed
    assert np.max(np.abs(closed - found) / scale) < 1e-10


@pytest.mark.parametrize("key", [*sorted(COSTS), *sorted(MIXED_ENERGIES)])
def test_root_finder_residual(key):
    if key in COSTS:
        fp, fpp = COSTS[key].derivative, COSTS[key].second_derivative
        s = np.abs(sample_z(500))
    else:
        fp = MIXED_ENERGIES[key].derivative
        fpp = MIXED_ENERGIES[key].second_derivative
        s = np.linspace(-20.0, 50.0, 2001)
    x = _invert_increasing(fp, fpp, s)
    assert np.all((x > 0.0) & (x < np.inf))
    assert np.max(np.abs(fp(x) - s)) <= 1e-12


def test_root_finder_reads_inf_off_the_largest_float():
    # F' of x^0.6 and x^0.8 terms is negative everywhere, so every s >= 0
    # has the root inf; it is read off fp at the largest float, where
    # doubling a bracket to inf took over 1,000 evaluations
    F = EnergySpec(terms=(("power", 1.0, 0.6), ("power", 0.5, 0.8)))
    calls = []

    def fp(x):
        calls.append(1)
        return F.derivative(x)

    s = np.linspace(-20.0, 50.0, 2001)
    x = _invert_increasing(fp, F.second_derivative, s)
    assert len(calls) < 100
    assert np.array_equal(np.isinf(x), s >= 0.0)
    assert np.max(np.abs(fp(x[s < 0.0]) - s[s < 0.0])) <= 1e-12


@pytest.mark.parametrize("key", sorted(COSTS))
def test_fenchel_young_at_gradient(key):
    cost = COSTS[key]
    z = sample_z()
    val, grad = cost.conjugate_pair(z)
    gap = cost.value(grad) + val - grad * z
    assert np.max(np.abs(gap)) <= 1e-9


@pytest.mark.parametrize("key", sorted(COSTS))
def test_conjugate_inequality_suite(key):
    cost = COSTS[key]
    z = sample_z()
    val, grad = cost.conjugate_pair(z)
    zg = z * grad
    assert np.min(val) >= -1e-10
    assert np.min(zg - val) >= -1e-10
    assert np.min(cost.conjugate(2.0 * z) - zg) >= -1e-10
    assert np.min(zg / cost.beta - np.abs(grad) ** cost.q) >= -1e-10


@pytest.mark.parametrize("key", sorted(COSTS))
def test_conjugate_gradient_matches_finite_differences(key):
    cost = COSTS[key]
    z = sample_z(301)
    z = z[np.abs(z) > 1.0]
    eps = 1e-6 * np.maximum(1.0, np.abs(z))
    fd = (cost.conjugate(z + eps) - cost.conjugate(z - eps)) / (2 * eps)
    grad = cost.conjugate_gradient(z)
    assert np.max(np.abs(fd - grad) / np.maximum(np.abs(grad), 1e-12)) <= 1e-6


# ---------------------------------------------------------------------------
# energy densities
# ---------------------------------------------------------------------------

def _legendre_by_search(F: EnergySpec, s: float) -> float:
    # independent evaluation of F*(s) = sup_a (a s - F(a)) by dense search
    a = np.logspace(-9, 4, 40001)
    return float(np.max(a * s - F.value(a)))


def test_entropy_terms_at_two():
    _, P = EnergySpec.entropy().value_and_pressure(np.array([2.0]))
    assert P[0] == pytest.approx(2.0, abs=1e-12)


def test_quadratic_energy_pressure():
    F, P = EnergySpec.power(2.0).value_and_pressure(np.array([3.0]))
    assert F[0] == pytest.approx(9.0)
    assert P[0] == pytest.approx(9.0, abs=1e-12)


def test_entropy_terms_at_one():
    F = EnergySpec.entropy()
    assert F.value(1.0) == 0.0
    assert F.derivative(1.0) == pytest.approx(1.0)
    assert F.second_derivative(1.0) == pytest.approx(1.0)
    assert F.value_and_pressure(np.array([1.0]))[1][0] == pytest.approx(1.0)


@pytest.mark.parametrize("F", [
    EnergySpec.entropy(),
    EnergySpec.power(2.0),
    EnergySpec.power(1.5, coeff=0.7),
    EnergySpec(terms=(("entropy", 0.5), ("power", 1.0, 3.0))),
])
def test_energy_derivatives_match_finite_differences(F):
    xs = np.array([0.3, 0.7, 1.0, 2.5, 7.0])
    eps = 1e-6
    fd1 = (F.value(xs + eps) - F.value(xs - eps)) / (2 * eps)
    assert np.allclose(F.derivative(xs), fd1, rtol=1e-6, atol=1e-8)
    eps = 1e-4
    fd2 = (F.value(xs + eps) - 2 * F.value(xs) + F.value(xs - eps)) / eps**2
    assert np.allclose(F.second_derivative(xs), fd2, rtol=1e-5, atol=1e-7)
    Fx, P = F.value_and_pressure(xs)
    assert np.allclose(P, xs * F.derivative(xs) - Fx, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("terms", [
    ((1.0 / 3.0, 3.0), (1.0, 1.5)),
    ((0.3, 1.5), (0.5, 2.0), (0.2, 3.0)),
], ids=["two-term", "three-term"])
def test_cost_curvature_matches_zero_started_sum(terms):
    cost = CostSpec(terms=terms)
    z = np.random.default_rng(5).uniform(-3.0, 3.0, 257)
    az = np.maximum(np.abs(z), 1e-12)
    want = np.zeros_like(az)
    for A, qi in cost.terms:
        want += A * qi * (qi - 1.0) * az ** (qi - 2.0)
    assert cost.second_derivative(z).tobytes() == want.tobytes()


@pytest.mark.parametrize("F", MIXED_ENERGIES.values(),
                         ids=["two-term", "three-term"])
def test_energy_slope_and_curvature_match_zero_started_sums(F):
    x = np.random.default_rng(6).uniform(0.05, 8.0, 257)
    slope, curv = np.zeros_like(x), np.zeros_like(x)
    for t in F.terms:
        if t[0] == "entropy":
            slope += t[1] * (np.log(x) + 1.0)
            curv += t[1] / x
        else:
            _, A, m = t
            slope += A * m * x ** (m - 1.0) / (m - 1.0)
            curv += A * m * x ** (m - 2.0)
    assert F.derivative(x).tobytes() == slope.tobytes()
    assert F.second_derivative(x).tobytes() == curv.tobytes()


@pytest.mark.parametrize("F,s", [
    (EnergySpec.entropy(), 2.0),
    (EnergySpec.entropy(), 0.5),
    (EnergySpec.power(2.0), 3.0),
])
def test_dual_value_matches_independent_search(F, s):
    # F*(F'(a)) computed by dense maximization vs the envelope identity
    a = float(F.derivative_inverse(s))
    assert a * F.derivative(a) - F.value(a) == pytest.approx(
        _legendre_by_search(F, s), rel=1e-6)


def test_energy_rejects_m_equals_one():
    with pytest.raises(InvalidSpecError):
        EnergySpec.power(1.0)


def test_derivative_inverse_roundtrip():
    for F in (EnergySpec.entropy(), EnergySpec.power(2.0),
              EnergySpec.power(0.6),
              EnergySpec(terms=(("entropy", 1.0), ("power", 0.5, 2.0)))):
        xs = np.array([0.2, 1.0, 3.7])
        back = F.derivative_inverse(F.derivative(xs))
        assert np.allclose(back, xs, rtol=1e-10)


@pytest.mark.parametrize("terms,want", [
    ((("power", 1.0, 2.0),), [0.0, 0.0, 0.5]),
    ((("power", 1.0, 2.0), ("power", 0.5, 3.0)), [0.0, 0.0, None]),
    ((("power", 1.0, 0.6),), [None, np.inf, np.inf]),
    ((("power", 1.0, 0.6), ("power", 0.5, 0.8)), [None, np.inf, np.inf]),
], ids=["x^2", "x^2+x^3", "x^0.6", "x^0.6+x^0.8"])
def test_derivative_inverse_is_0_below_and_inf_above_the_range(terms, want):
    # F' of x^m/(m-1) runs over (0, inf) for m > 1 and (-inf, 0) for m < 1;
    # None marks a finite positive root, at s = -1, 0 and 1
    F = EnergySpec(terms=terms)
    got = F.derivative_inverse(np.array([-1.0, 0.0, 1.0]))
    for g, w in zip(got, want):
        if w is None:
            assert 0.0 < g < np.inf
        else:
            assert g == w
    assert F.derivative_inverse(1.0).shape == ()


# ---------------------------------------------------------------------------
# potentials
# ---------------------------------------------------------------------------

def test_quadratic_potential():
    V = PotentialSpec.quadratic(kappa=2.0, center=0.5)
    assert V.value(0.5) == 0.0
    assert V.derivative(1.5) == pytest.approx(2.0)
    assert V.second_derivative(0.0) == pytest.approx(2.0)


def test_zero_potential_is_the_flat_quadratic():
    # one zero potential: a quadratic with kappa = 0, worth +0.0 everywhere
    V = PotentialSpec.zero()
    assert V == PotentialSpec.quadratic(kappa=0.0) and V.is_zero
    values = V.value(np.array([-2.0, 0.0, 3.0]))
    assert values.tolist() == [0.0, 0.0, 0.0]
    assert not np.signbit(values).any()
    with pytest.raises(InvalidSpecError, match="unknown potential kind"):
        PotentialSpec(kind="zero")


def test_tabulated_potential_requires_convexity():
    with pytest.raises(InvalidSpecError):
        PotentialSpec.tabulated([0.0, 0.5, 1.0], [0.0, 1.0, 0.0])
    with pytest.raises(InvalidSpecError):
        PotentialSpec.tabulated([0.0, 0.5, 1.0], [1.0, -0.1, 1.0])
    V = PotentialSpec.tabulated([0.0, 0.5, 1.0], [1.0, 0.0, 1.0])
    assert V.value(0.25) == pytest.approx(0.5)


@pytest.mark.parametrize("build", [
    lambda: PotentialSpec.quadratic(np.nan),
    lambda: PotentialSpec.quadratic(1.0, np.inf),
    lambda: PotentialSpec.tabulated([0.0, 1.0], [0.0, np.nan]),
    lambda: PotentialSpec.tabulated([0.0, np.nan], [0.0, 1.0]),
], ids=["kappa-nan", "center-inf", "table-v-nan", "table-x-nan"])
def test_potential_rejects_non_finite_parameters(build):
    with pytest.raises(InvalidSpecError, match="finite"):
        build()


# each spec check: the constructor call, and the message it fails with
REJECTED_SPECS = {
    "cost-without-terms": (lambda: CostSpec(terms=()),
                           "cost needs at least one term"),
    "cost-coefficient-inf": (lambda: CostSpec(terms=((math.inf, 2.0),)),
                             "cost coefficient must be > 0 and finite, "
                             "got inf"),
    "cost-exponent-inf": (lambda: CostSpec(terms=((1.0, math.inf),)),
                          "cost exponent must be > 1 and finite, got inf"),
    "energy-without-terms": (lambda: EnergySpec(terms=()),
                             "energy needs at least one term"),
    "energy-unknown-kind": (lambda: EnergySpec(terms=(("logarithm", 1.0),)),
                            "unknown energy term kind 'logarithm'"),
    "entropy-coefficient-inf": (lambda: EnergySpec.entropy(math.inf),
                                "entropy coefficient must be > 0 and "
                                "finite, got inf"),
    "power-coefficient-inf": (lambda: EnergySpec.power(2.0, coeff=math.inf),
                              "power coefficient must be > 0 and finite, "
                              "got inf"),
    "power-exponent-inf": (
        lambda: EnergySpec(terms=(("power", 1.0, math.inf),)),
        "power exponent must be positive, finite and != 1, got inf"),
}


@pytest.mark.parametrize("build,message", REJECTED_SPECS.values(),
                         ids=REJECTED_SPECS.keys())
def test_spec_rejects_invalid_terms(build, message):
    with pytest.raises(InvalidSpecError, match=re.escape(message)):
        build()


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------

def test_fokker_planck_assumptions_pass():
    validate_assumptions(COSTS["q2"], EnergySpec.entropy(), PotentialSpec.zero())


def test_small_power_fails_range_check():
    # m = 0.3 with quadratic cost violates the admissible m >= 1/q window;
    # the convexity of x F(1/x) itself holds for every m > 0 in one dimension.
    with pytest.raises(InvalidSpecError,
                       match=r"^energy-power-range \(m = 0\.3 < 1/q = 0\.5\)$"):
        validate_assumptions(COSTS["q2"], EnergySpec.power(0.3),
                             PotentialSpec.zero())


@pytest.mark.parametrize("m", [0.5, 0.6, 0.7, 0.9, 1.5, 2.0, 3.0])
def test_admissible_powers_pass_all_checks(m):
    # the whole admissible window must clear validation, including the
    # decreasing-convex profiles of the sublinear exponents
    validate_assumptions(COSTS["q2"], EnergySpec.power(m), PotentialSpec.zero())


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------

def test_preset_p_laplacian():
    cost, F = preset_specs("p-laplacian", p=2.5)
    assert cost.q == pytest.approx(2.5 / 1.5)
    # F(x) = x^m / (m (m-1)) with m = (2p-3)/(p-1) = 4/3
    m = 4.0 / 3.0
    x = 2.0
    assert F.value(x) == pytest.approx(x**m / (m * (m - 1.0)), rel=1e-12)


def test_preset_fast_diffusion_rejects_out_of_range():
    with pytest.raises(ParameterError):
        preset_specs("fast-diffusion", m=0.3)
    cost, F = preset_specs("fast-diffusion", m=0.7)
    assert np.all(F.derivative(np.logspace(-6.0, 6.0, 25)) < 0.0)


def test_preset_doubly_degenerate():
    cost, F = preset_specs("doubly-degenerate", n=2.0, p=3.0)
    m = 2.0 + 0.5
    x = 1.7
    assert F.value(x) == pytest.approx(2.0 * x**m / (m * (m - 1.0)), rel=1e-12)
    with pytest.raises(ParameterError):
        preset_specs("doubly-degenerate", n=0.5, p=3.0)  # n = 1/(p-1)


PHI = 0.5 * (1.0 + 5.0**0.5)   # p-laplacian needs p >= PHI (m >= 1/q)


# The lower ends of the dual-power windows are where the energy exponent
# meets 1/q: p = PHI for p-laplacian, n = 1/(p(p-1)) for doubly-degenerate.
@pytest.mark.parametrize("name,kw,ok", [
    ("p-laplacian", {"p": 1.4}, False),
    ("p-laplacian", {"p": 1.5}, False),            # m = 0
    ("p-laplacian", {"p": PHI + 1e-9}, True),
    ("p-laplacian", {"p": 1.7}, True),
    ("doubly-degenerate", {"p": 0.5, "n": 1.0}, False),
    ("doubly-degenerate", {"p": 1.0, "n": 1.0}, False),  # p - 1 = 0
    ("doubly-degenerate", {"p": 1.1, "n": 12.0}, True),
    ("doubly-degenerate", {"p": 3.0, "n": -0.5}, False),  # m = 0
    ("doubly-degenerate", {"p": 3.0, "n": -0.4}, False),  # coefficient < 0
    ("doubly-degenerate", {"p": 3.0, "n": 0.0}, False),   # coefficient 0
    ("doubly-degenerate", {"p": 3.0, "n": 1.0 / 6.0 + 1e-9}, True),
    ("doubly-degenerate", {"p": 1.5, "n": 1.0}, False),   # m = 0
    ("doubly-degenerate", {"p": 1.5, "n": 4.0 / 3.0 + 1e-9}, True),
    ("p-laplacian", {"p": 1.5 + 1e-6}, False),     # 0 < m < 1/q
    ("p-laplacian", {"p": 1.55}, False),
    ("p-laplacian", {"p": 1.6}, False),
    ("p-laplacian", {"p": PHI - 1e-9}, False),
    ("doubly-degenerate", {"p": 3.0, "n": 0.1}, False),   # 0 < m < 1/q
    ("doubly-degenerate", {"p": 3.0, "n": 1.0 / 6.0 - 1e-9}, False),
    ("doubly-degenerate", {"p": 1.5, "n": 1.1}, False),   # 0 < m < 1/q
    ("doubly-degenerate", {"p": 1.5, "n": 4.0 / 3.0 - 1e-9}, False),
])
def test_preset_window_boundaries(name, kw, ok):
    if not ok:
        with pytest.raises(ParameterError):
            preset_specs(name, **kw)
        return
    cost, F = preset_specs(name, **kw)
    assert cost.q > 1.0
    assert all(t[0] == "power" and t[2] > 0.0 for t in F.terms)


@pytest.mark.parametrize("p", [1.56, 1.6, 1.61, 1.615, 1.62, 1.63, 1.8, 2.5])
@pytest.mark.parametrize("n", [None, 0.2, 0.5, 0.7, 1.0, 1.5, 3.0])
def test_preset_window_agrees_with_validator(p, n):
    # a dual-power spec passes the standing-assumption checks exactly when
    # the preset accepts its parameters
    name = "p-laplacian" if n is None else "doubly-degenerate"
    nn = 1.0 if n is None else n
    q = p / (p - 1.0)
    mm = nn + (p - 2.0) / (p - 1.0)
    if mm <= 0.0:
        with pytest.raises(ParameterError):
            preset_specs(name, p=p, n=n)
        return
    spec = (CostSpec.single_power(q), EnergySpec.power(mm, coeff=nn / mm))
    try:
        validate_assumptions(*spec, PotentialSpec.zero(), domain=(0.0, 1.0))
    except InvalidSpecError:
        with pytest.raises(ParameterError, match=r"1/\(p\(p-1\)\)|sqrt 5"):
            preset_specs(name, p=p, n=n)
        return
    cost, F = preset_specs(name, p=p, n=n)
    validate_assumptions(cost, F, PotentialSpec.zero(), domain=(0.0, 1.0))


def test_preset_p_laplacian_at_p_2_is_fokker_planck():
    # m = (2p - 3)/(p - 1) = 1 at p = 2: the preset steps down to the heat
    # equation's quadratic cost and entropy
    assert preset_specs("p-laplacian", p=2.0) == preset_specs("fokker-planck")


def test_preset_unknown():
    with pytest.raises(ParameterError):
        preset_specs("heat-death")
