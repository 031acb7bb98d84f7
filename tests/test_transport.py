import re

import numpy as np
import pytest

from wflow.convex import CostSpec, EnergySpec
from wflow.density import (
    Domain,
    from_quantiles,
    l1_distance,
    normalize,
    quantile_internal_energy,
    to_quantiles,
)
from wflow.errors import ParameterError
from wflow.transport import lp_oracle, monotone_atom_cost

Q2 = CostSpec.single_power(2.0)
SQUARE = CostSpec(terms=((1.0, 2.0),))  # |z|^2
WIDE = Domain(0.0, 2.0)


def block_density(domain, n, lo, hi):
    xc = domain.centers(n)
    vals = np.where((xc > lo) & (xc < hi), 1.0, 0.0)
    return normalize(vals, domain)[0]


def transport_work(rho0, rho1, cost, h, m=512):
    """Monotone-coupling cost between two densities at their ``m``
    half-level quantiles ``(i - 1/2)/m``."""
    s = (np.arange(m) + 0.5) / m
    return monotone_atom_cost(rho0.quantile(s), rho1.quantile(s), cost, h)


def quantile_pair(rho0, rho1, m):
    """Quantiles ``(X1, X0)`` of ``rho1`` and ``rho0``: the monotone map
    pushing ``rho1`` forward to ``rho0`` sends ``X1[i]`` to ``X0[i]``."""
    return to_quantiles(rho1, m).X, to_quantiles(rho0, m).X


def interpolant(X1, X0, t, n, domain=WIDE):
    """Density of the displacement interpolant ``(1 - t) X1 + t X0``."""
    return from_quantiles(domain, (1.0 - t) * X1 + t * X0, n)


def smooth_density(domain, n, amp=0.5, freq=1, phase=0.0):
    xc = domain.centers(n)
    xhat = (xc - domain.a) / domain.length
    return normalize(1.0 + amp * np.cos(2 * np.pi * freq * xhat + phase),
                     domain)[0]


# ---------------------------------------------------------------------------
# monotone maps
# ---------------------------------------------------------------------------

def test_identity_map_between_equal_densities():
    rho = smooth_density(WIDE, 64)
    m = 128
    X1, X0 = quantile_pair(rho, rho, m)
    y = np.linspace(0.01, 1.99, 97)
    assert np.max(np.abs(np.interp(y, X1, X0) - y)) <= 1.0 / m


def test_translation_map():
    rho1 = block_density(WIDE, 128, 0.0, 1.0)
    rho0 = block_density(WIDE, 128, 1.0, 2.0)
    X1, X0 = quantile_pair(rho0, rho1, 64)
    y = np.linspace(0.05, 0.95, 50)
    assert np.max(np.abs(np.interp(y, X1, X0) - (y + 1.0))) <= 2e-2


def test_dilation_map():
    rho1, _ = normalize(np.ones(128), WIDE)
    rho0 = block_density(WIDE, 128, 0.0, 1.0)
    X1, X0 = quantile_pair(rho0, rho1, 256)
    y = np.linspace(0.1, 1.9, 40)
    assert np.max(np.abs(np.interp(y, X1, X0) - y / 2.0)) <= 1e-2


def test_push_forward_residual_small():
    rho1 = smooth_density(WIDE, 128, amp=0.4)
    rho0 = smooth_density(WIDE, 128, amp=0.4, phase=1.2)
    m = 256
    _, X0 = quantile_pair(rho0, rho1, m)
    pushed = from_quantiles(WIDE, X0, rho0.n)
    assert l1_distance(pushed, rho0) <= 2.0 / m + 1e-9


# ---------------------------------------------------------------------------
# transport work and second moments
# ---------------------------------------------------------------------------

def test_cost_vanishes_on_equal_arguments():
    rho = smooth_density(WIDE, 64)
    for h in (0.1, 1.0):
        assert transport_work(rho, rho, Q2, h, m=128) <= 1e-12


def test_cost_of_unit_translation():
    rho1 = block_density(WIDE, 256, 0.0, 1.0)
    rho0 = block_density(WIDE, 256, 1.0, 2.0)
    w = transport_work(rho0, rho1, Q2, h=1.0, m=128)
    assert w == pytest.approx(0.5, abs=1e-10)


def test_cost_of_dilation_pair():
    rho1, _ = normalize(np.ones(512), WIDE)
    rho0 = block_density(WIDE, 512, 0.0, 1.0)
    w = transport_work(rho0, rho1, Q2, h=1.0, m=512)
    assert w == pytest.approx(1.0 / 6.0, abs=1e-3)


def test_cost_rejects_bad_h():
    x = np.array([0.1, 0.4, 0.9])
    with pytest.raises(ParameterError):
        lp_oracle(x, x, Q2, h=0.0)


def test_cost_symmetry_for_even_costs():
    rho_a = smooth_density(WIDE, 128, amp=0.3)
    rho_b = smooth_density(WIDE, 128, amp=0.6, freq=2)
    for key, cost in (("q1.5", CostSpec.single_power(1.5)), ("q2", Q2)):
        wab = transport_work(rho_a, rho_b, cost, h=0.5, m=256)
        wba = transport_work(rho_b, rho_a, cost, h=0.5, m=256)
        assert wab == pytest.approx(wba, rel=1e-12), key


def test_power_cost_scaling_identity():
    # with c = beta |z|^q the work equals beta h^{-q} times the quantile q-cost
    rng = np.random.default_rng(5)
    for q, beta in ((1.5, 0.4), (2.0, 1.3), (3.0, 0.7)):
        cost = CostSpec(terms=((beta, q),))
        rho_a, _ = normalize(rng.uniform(0.3, 1.5, 64), WIDE)
        rho_b, _ = normalize(rng.uniform(0.3, 1.5, 64), WIDE)
        h = 0.37
        m = 128
        w = transport_work(rho_a, rho_b, cost, h=h, m=m)
        s = (np.arange(m) + 0.5) / m
        qa, qb = rho_a.quantile(s), rho_b.quantile(s)
        qcost = float(np.mean(np.abs(qa - qb) ** q))
        assert w == pytest.approx(beta * qcost / h**q, rel=1e-12)


def test_second_moment_translation_and_dilation():
    rho1 = block_density(WIDE, 256, 0.0, 1.0)
    rho0 = block_density(WIDE, 256, 1.0, 2.0)
    assert transport_work(rho0, rho1, SQUARE, 1.0, m=128) == pytest.approx(
        1.0, abs=1e-10)
    rho1u, _ = normalize(np.ones(512), WIDE)
    rho0u = block_density(WIDE, 512, 0.0, 1.0)
    assert transport_work(rho0u, rho1u, SQUARE, 1.0, m=512) == pytest.approx(
        1.0 / 3.0, abs=2e-3)
    rho = smooth_density(WIDE, 64)
    assert transport_work(rho, rho, SQUARE, 1.0, m=64) <= 1e-24


# ---------------------------------------------------------------------------
# brute-force oracle
# ---------------------------------------------------------------------------

def test_oracle_identity():
    x = np.array([0.1, 0.4, 0.9])
    assert lp_oracle(x, x, Q2, h=1.0) == 0.0


def test_oracle_two_atoms_worked_example():
    # the monotone pairing moves each atom by 1/2; the crossing one, by 3/2
    # and 1/2, would cost (9/8 + 1/8) / 2 = 0.625
    cost = lp_oracle([0.0, 1.0], [0.5, 1.5], Q2, h=1.0)
    assert cost == pytest.approx(0.125, abs=1e-15)


def test_oracle_rejects_oversize():
    x = np.zeros(65)
    with pytest.raises(ParameterError, match="at most 64 atoms, got 65"):
        lp_oracle(x, x, Q2, h=1.0)


# each input check: the call and the message it fails with
REJECTED_INPUTS = {
    "oracle-lengths-differ": (
        lambda: lp_oracle([0.1, 0.2], [0.1], Q2, h=1.0),
        "atom lists must be nonempty 1-D of equal length"),
    "oracle-empty": (lambda: lp_oracle([], [], Q2, h=1.0),
                     "atom lists must be nonempty 1-D of equal length"),
    "oracle-matrix": (lambda: lp_oracle(np.zeros((2, 2)), np.zeros((2, 2)),
                                        Q2, h=1.0),
                      "atom lists must be nonempty 1-D of equal length"),
    "monotone-lengths-differ": (
        lambda: monotone_atom_cost([0.1, 0.2], [0.1], Q2, h=1.0),
        "atom lists must have equal length"),
}


@pytest.mark.parametrize("call,message", REJECTED_INPUTS.values(),
                         ids=REJECTED_INPUTS.keys())
def test_input_checks_raise_parameter_errors(call, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


def test_assignment_path_agrees_with_exhaustive_path():
    # same instances solved by enumeration (k=8) and by the assignment solver
    from wflow import transport as tr

    rng = np.random.default_rng(123)
    for _ in range(10):
        x = rng.uniform(-1, 1, 8)
        y = rng.uniform(-1, 1, 8)
        exact = lp_oracle(x, y, Q2, h=1.0)
        C = Q2.value((x[:, None] - y[None, :]) / 1.0)
        from scipy.optimize import linear_sum_assignment
        rows, cols = linear_sum_assignment(C)
        assert exact == pytest.approx(float(C[rows, cols].mean()), rel=1e-12)


@pytest.mark.parametrize("q", [1.5, 2.0, 3.0])
def test_monotone_matching_is_optimal(q):
    cost = CostSpec.single_power(q)
    rng = np.random.default_rng(int(q * 100))
    for k in (2, 5, 8, 16, 64):
        x = rng.uniform(-2, 2, k)
        y = rng.uniform(-2, 2, k)
        exact = lp_oracle(x, y, cost, h=0.7)
        mono = monotone_atom_cost(x, y, cost, h=0.7)
        assert abs(mono - exact) <= 1e-9 * max(1.0, abs(exact))


# ---------------------------------------------------------------------------
# displacement interpolation
# ---------------------------------------------------------------------------

def test_interpolation_endpoints():
    rho1 = smooth_density(WIDE, 128, amp=0.4)
    rho0 = smooth_density(WIDE, 128, amp=0.4, phase=2.0)
    m = 512
    X1, X0 = quantile_pair(rho0, rho1, m)
    assert l1_distance(interpolant(X1, X0, 0.0, 128), rho1) <= 2.0 / m
    assert l1_distance(interpolant(X1, X0, 1.0, 128), rho0) <= 2.0 / m


def test_interpolant_sup_bound():
    rng = np.random.default_rng(21)
    m = 512
    for _ in range(5):
        rho1, _ = normalize(rng.uniform(0.25, 2.0, 64), WIDE)
        rho0, _ = normalize(rng.uniform(0.25, 2.0, 64), WIDE)
        lim = max(rho0.values.max(), rho1.values.max())
        X1, X0 = quantile_pair(rho0, rho1, m)
        for t in (0.25, 0.5, 0.75):
            rho_t = interpolant(X1, X0, t, 64)
            assert rho_t.values.max() <= lim + 4.0 / m


def test_interpolant_mass():
    rho1 = smooth_density(WIDE, 64, amp=0.7)
    rho0 = smooth_density(WIDE, 64, amp=0.2, freq=2)
    X1, X0 = quantile_pair(rho0, rho1, 256)
    for t in (0.3, 0.9):
        rho = interpolant(X1, X0, t, 96)
        assert np.sum(rho.values) * rho.dx == pytest.approx(1.0, abs=1e-12)


def test_interpolant_map_monotone_for_all_t():
    rho1 = smooth_density(WIDE, 64, amp=0.8, freq=2)
    rho0 = smooth_density(WIDE, 64, amp=0.8, freq=3)
    X1, X0 = quantile_pair(rho0, rho1, 128)
    for t in np.linspace(0, 1, 11):
        Xt = (1.0 - t) * X1 + t * X0
        assert np.all(np.diff(Xt) > 0.0)


def test_displacement_convexity_of_internal_energy():
    # midpoint convexity of t -> internal energy along the path, computed in
    # quantile form where each term is convex-in-t exactly
    rho1 = smooth_density(WIDE, 128, amp=0.6)
    rho0 = smooth_density(WIDE, 128, amp=0.6, phase=2.5)
    X1, X0 = quantile_pair(rho0, rho1, 512)
    for F in (EnergySpec.entropy(), EnergySpec.power(2.0)):
        ts = np.linspace(0.0, 1.0, 11)
        es = np.array([quantile_internal_energy((1.0 - t) * X1 + t * X0, F)
                       for t in ts])
        violation = np.max(es[1:-1] - 0.5 * (es[:-2] + es[2:]))
        assert violation <= 1e-8


def test_jacobian_identity_pointwise():
    # rho1(y) = rho_{1-t}(S_t(y)) * S_t'(y) away from cell kinks
    n, m = 4096, 4096
    rho1 = smooth_density(WIDE, n, amp=0.5)
    rho0 = smooth_density(WIDE, n, amp=0.3, freq=2)
    X, X0 = quantile_pair(rho0, rho1, m)
    t = 0.5
    Xt = (1.0 - t) * X + t * X0
    rho_t = interpolant(X, X0, t, n)
    y = np.linspace(0.05, 1.95, 401)
    lhs = rho1.values[np.clip(((y - 0.0) / rho1.dx).astype(int), 0, n - 1)]
    xt = np.interp(y, X, Xt)
    rt = rho_t.values[np.clip(((xt - 0.0) / rho_t.dx).astype(int), 0, n - 1)]
    cell = np.clip(np.searchsorted(X, y, side="right") - 1, 0, m - 1)
    rhs = rt * (np.diff(Xt) / np.diff(X))[cell]
    rel = np.abs(lhs - rhs) / np.maximum(lhs, 1e-12)
    assert np.median(rel) <= 1e-3
    assert np.percentile(rel, 90) <= 5e-3
