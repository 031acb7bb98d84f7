import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from wflow.convex import CostSpec, EnergySpec, PotentialSpec
from wflow.density import (
    Domain,
    GridDensity,
    QuantileRep,
    _levels,
    csv_rows,
    density_from_csv,
    density_to_csv,
    energy,
    float_cells,
    from_quantiles,
    l1_distance,
    normalize,
    quantile_internal_energy,
    to_quantiles,
)
from wflow.errors import InvalidDensityError, ParameterError
from wflow.jko import JkoProblem, run_scheme

UNIT = Domain(0.0, 1.0)


def smooth_density(domain: Domain, n: int, amp=0.5, freq=1) -> GridDensity:
    xc = domain.centers(n)
    xhat = (xc - domain.a) / domain.length
    return normalize(1.0 + amp * np.cos(2 * np.pi * freq * xhat), domain)[0]


# ---------------------------------------------------------------------------
# construction and normalization
# ---------------------------------------------------------------------------

def test_domain_validation():
    with pytest.raises(ParameterError):
        Domain(1.0, 1.0)
    with pytest.raises(ParameterError):
        Domain(np.inf, 2.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
def test_grid_density_rejects_nonfinite_or_negative_values(bad):
    values = np.full(4, 1.0)
    values[2] = bad
    with pytest.raises(InvalidDensityError, match="finite and nonnegative"):
        GridDensity(domain=UNIT, values=values)


@pytest.mark.parametrize("values,positive", [
    ([0.5, 1.5], True), ([0.0, 2.0], False), ([-0.0, 2.0], False)])
def test_grid_density_strict_positivity(values, positive):
    assert GridDensity(domain=UNIT, values=values).strictly_positive is positive


def test_normalize_constant():
    rho, change = normalize(np.full(8, 2.0), UNIT)
    assert np.allclose(rho.values, 1.0)
    assert change == pytest.approx(1.0)


def test_normalize_wide_domain():
    rho, _ = normalize(np.ones(10), Domain(0.0, 2.0))
    assert np.allclose(rho.values, 0.5)


def test_normalize_two_cells():
    rho, _ = normalize(np.array([1.0, 3.0]), UNIT)
    assert np.allclose(rho.values, [0.5, 1.5])


def test_normalize_rejects_bad_input():
    with pytest.raises(InvalidDensityError):
        normalize(np.zeros(4), UNIT)
    with pytest.raises(InvalidDensityError):
        normalize(np.array([1.0, -0.5]), UNIT)


def test_mass_enforced():
    with pytest.raises(InvalidDensityError):
        GridDensity(domain=UNIT, values=np.full(4, 2.0))


# ---------------------------------------------------------------------------
# quantile conversions
# ---------------------------------------------------------------------------

def test_uniform_quantiles():
    rho, _ = normalize(np.ones(8), UNIT)
    q = to_quantiles(rho, 4)
    assert np.allclose(q.X, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-14)


def test_half_supported_quantiles():
    # density 2 on (0, 1/2), zero tail: CDF(x) = 2x there
    rho = GridDensity(domain=UNIT, values=np.array([2.0, 2.0, 0.0, 0.0]))
    q = to_quantiles(rho, 2)
    assert np.allclose(q.X, [0.0, 0.25, 0.5], atol=1e-14)


def test_interior_vacuum_rejected():
    rho = GridDensity(domain=UNIT, values=np.array([2.0, 0.0, 2.0, 0.0]))
    with pytest.raises(InvalidDensityError, match="interior zero cells"):
        to_quantiles(rho, 4)


def test_quantile_rep_validation():
    with pytest.raises(InvalidDensityError):
        QuantileRep(domain=UNIT, X=np.array([0.0, 0.5, 0.4, 1.0]))
    rep = QuantileRep(domain=UNIT, X=np.array([0.0, 0.5, 0.5, 1.0]))
    assert not rep.strictly_increasing


def fresh_raster(X, domain: Domain, n: int) -> np.ndarray:
    # from_quantiles' arithmetic on freshly built edges and levels
    m = X.size - 1
    cum = np.interp(np.linspace(domain.a, domain.b, n + 1), X,
                    np.arange(m + 1) / m, left=0.0, right=1.0)
    cum[0], cum[-1] = 0.0, 1.0
    return np.diff(cum) / (domain.length / n)


def test_from_quantiles_matches_a_fresh_rasterization_bit_for_bit():
    # the repeated grids read the shared edges and levels a second time
    rng = np.random.default_rng(5)
    for domain, m, n in [(UNIT, 1024, 128), (Domain(-1.0, 2.0), 37, 5),
                         (UNIT, 1024, 128), (Domain(-1.0, 2.0), 37, 5)]:
        X = np.sort(rng.uniform(domain.a, domain.b, m + 1))
        X[0], X[-1] = domain.a, domain.b
        rho = from_quantiles(domain, X, n)
        assert rho.values.tobytes() == fresh_raster(X, domain, n).tobytes()


def test_run_snapshots_match_a_fresh_rasterization_bit_for_bit(monkeypatch):
    from wflow import jko

    nodes, step = [], jko.jko_step_nodes

    def recording(*args, **kw):
        X, d = step(*args, **kw)
        nodes.append(X)
        return X, d

    monkeypatch.setattr(jko, "jko_step_nodes", recording)
    pb = JkoProblem(cost=CostSpec.single_power(2.0),
                    energy=EnergySpec.entropy(),
                    potential=PotentialSpec.quadratic(1.0, 0.0),
                    domain=Domain(-1.0, 1.0), h=1e-2, m=128)
    rho0 = smooth_density(pb.domain, 64, amp=0.3, freq=0.5)
    traj = run_scheme(pb, rho0, T=0.2)
    assert len(nodes) == len(traj.densities) - 1 == 20
    for X, rho in zip(nodes, traj.densities[1:]):
        assert rho.values.tobytes() == \
            fresh_raster(X, pb.domain, 64).tobytes()


def test_shared_grid_edges_and_levels_are_read_only():
    edges, levels = UNIT.edges(16), _levels(16)
    assert edges is UNIT.edges(16) and levels is _levels(16)
    for shared in (edges, levels):
        with pytest.raises(ValueError, match="read-only"):
            shared[1] = 0.5
    assert edges.tobytes() == np.linspace(0.0, 1.0, 17).tobytes()
    assert levels.tobytes() == (np.arange(17) / 16).tobytes()


def test_from_quantiles_uniform():
    rep = QuantileRep(domain=UNIT, X=np.linspace(0, 1, 9))
    rho = from_quantiles(rep.domain, rep.X, 16)
    assert np.allclose(rho.values, 1.0, atol=1e-13)


def test_from_quantiles_local_value():
    # single interior cell of width w carries mass 1/m
    rep = QuantileRep(domain=UNIT, X=np.array([0.0, 0.25, 0.75, 1.0]))
    rho = from_quantiles(rep.domain, rep.X, 4)
    third = 1.0 / 3.0
    assert rho.values[1] == pytest.approx(third / 0.5 / 1.0 * 1.0, rel=1e-12)
    assert np.sum(rho.values) * rho.dx == pytest.approx(1.0, abs=1e-12)


def test_roundtrip_density_to_quantiles_l1():
    n = 64
    rho = smooth_density(UNIT, n)
    m = 8 * n
    back = from_quantiles(UNIT, to_quantiles(rho, m).X, n)
    assert l1_distance(rho, back) <= 2.0 / m


def test_roundtrip_quantiles_within_one_cell():
    # rasterize then re-extract: nodes move by less than one grid cell,
    # and exactly zero when nodes sit on grid edges
    rng = np.random.default_rng(7)
    m, n = 16, 128
    X = np.sort(np.concatenate(([0.0, 1.0], rng.uniform(0, 1, m - 1))))
    rep = QuantileRep(domain=UNIT, X=X)
    back = to_quantiles(from_quantiles(rep.domain, rep.X, n), m)
    assert np.max(np.abs(back.X - X)) < 1.0 / n

    aligned = QuantileRep(domain=UNIT, X=np.linspace(0, 1, m + 1) ** 1.0)
    back = to_quantiles(from_quantiles(aligned.domain, aligned.X, n), m)
    assert np.max(np.abs(back.X - aligned.X)) <= 1e-13


def test_mass_conserved_by_conversions():
    rho = smooth_density(UNIT, 50, amp=0.9, freq=3)
    for m in (8, 33, 257):
        q = to_quantiles(rho, m)
        out = from_quantiles(q.domain, q.X, 71)
        assert abs(np.sum(out.values) * out.dx - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# energy and moments
# ---------------------------------------------------------------------------

def test_energy_uniform_entropy_zero():
    rho, _ = normalize(np.ones(32), UNIT)
    e_int, e_pot, e_free = energy(rho, EnergySpec.entropy())
    assert e_int == pytest.approx(0.0, abs=1e-14)
    assert e_pot == 0.0 and e_free == e_int


def test_energy_uniform_on_wide_domain():
    rho, _ = normalize(np.ones(32), Domain(0.0, 2.0))
    e_int, _, _ = energy(rho, EnergySpec.entropy())
    assert e_int == pytest.approx(-np.log(2.0), abs=1e-12)


def test_energy_jensen_floor():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho, _ = normalize(rng.uniform(0.1, 2.0, 40), UNIT)
        e_int, _, _ = energy(rho, EnergySpec.entropy())
        assert e_int >= 0.0 - 1e-9  # |domain| F(1/|domain|) = 0 here


def test_energy_with_potential():
    rho, _ = normalize(np.ones(64), Domain(-1.0, 1.0))
    V = PotentialSpec.quadratic(kappa=1.0, center=0.0)
    e_int, e_pot, e_free = energy(rho, EnergySpec.entropy(), V)
    # int 0.5 x^2 * 0.5 dx over (-1,1) = 1/6
    assert e_pot == pytest.approx(1.0 / 6.0, rel=1e-3)
    assert e_free == pytest.approx(e_int + e_pot)


def test_energy_grid_refinement_stability():
    F = EnergySpec.entropy()
    vals = []
    for n in (64, 128, 256):
        rho = smooth_density(UNIT, n)
        vals.append(energy(rho, F)[0])
    assert abs(vals[1] - vals[0]) <= 5.0 / 64
    assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0])


def test_quantile_energy_consistent_with_grid_energy():
    rho = smooth_density(UNIT, 256)
    X = to_quantiles(rho, 2048).X
    e_grid = energy(rho, EnergySpec.entropy())[0]
    e_quant = quantile_internal_energy(X, EnergySpec.entropy())
    assert e_quant == pytest.approx(e_grid, abs=5e-4)


# ---------------------------------------------------------------------------
# CSV round trip
# ---------------------------------------------------------------------------

def test_csv_roundtrip_exact():
    rng = np.random.default_rng(11)
    rho, _ = normalize(rng.uniform(0.2, 3.0, 97), Domain(-0.75, 2.5))
    text = density_to_csv(rho)
    back = density_from_csv(text, rho.domain)
    assert np.array_equal(back.values, rho.values)
    assert back.domain == rho.domain


def test_csv_writer_matches_per_row_reference():
    rng = np.random.default_rng(5)
    rho, _ = normalize(rng.uniform(0.2, 3.0, 53), Domain(-0.75, 2.5))
    lines = ["x,rho"]
    for x, v in zip(rho.centers, rho.values):
        lines.append(f"{float(x)!r},{float(v)!r}")
    assert density_to_csv(rho) == "\n".join(lines) + "\n"


def read_back(cells, values) -> bool:
    """Each cell parses to its value's float64, compared by ``float.hex``
    (so -0.0 is not 0.0); a NaN or an infinity is written ``null``."""
    want = [v.hex() if math.isfinite(v) else "null"
            for v in np.asarray(values, dtype=float).tolist()]
    got = [c if c == "null" else float(c).hex() for c in cells]
    return got == want


# every float64 bit pattern, and numbers spread over the decades on both
# sides of 1e-4 and 1e16, where repr changes notation
ANY_FLOAT = st.integers(0, 2**64 - 1).map(
    lambda b: float(np.uint64(b).view(np.float64)))
DECADES = st.builds(lambda m, e: m * 10.0**e, st.floats(-10.0, 10.0),
                    st.integers(-8, 20))
FORMAT_EDGES = [
    1e-4, np.nextafter(1e-4, 0.0), np.nextafter(1e-4, 1.0), 1e16,
    np.nextafter(1e16, 0.0), np.nextafter(1e16, np.inf), 5e-324,
    np.finfo(float).tiny, np.finfo(float).max, 0.0, -0.0, np.nan, np.inf,
    -np.inf, 1.0, 0.1, 1e15, 1e-5, 123456789.125, np.nextafter(1e-5, 0.0),
    np.nextafter(1e-5, 1.0), 1e-6, 1.5e-7, 1e-10, 1e22, 1.25e100,
]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(arrays(np.float64, st.integers(0, 40),
              elements=st.one_of(st.floats(), ANY_FLOAT, DECADES)))
def test_float_cells_read_back(values):
    assert read_back(float_cells(values), values)


def test_float_cells_read_back_on_the_notation_edges():
    edges = np.array(FORMAT_EDGES + [-v for v in FORMAT_EDGES])
    assert read_back(float_cells(edges), edges)
    assert read_back(float_cells(edges[::3]), edges[::3])  # not contiguous
    assert read_back(float_cells(edges[::-1]), edges[::-1])
    assert read_back(float_cells(list(edges)), edges)
    assert float_cells(np.empty(0)) == []


def test_csv_rejects_bad_header():
    with pytest.raises(InvalidDensityError):
        density_from_csv("a,b\n1,2\n", UNIT)


@pytest.mark.parametrize("shift", [0.5, 2e-9, math.nan],
                         ids=["half-cell", "two-billionths", "nan"])
def test_csv_rejects_centers_off_the_domain_grid(shift):
    rho = smooth_density(Domain(0.3, 0.9), 128)
    rows = [float_cells(rho.centers), float_cells(rho.values)]
    back = density_from_csv("x,rho\n" + csv_rows(*rows), rho.domain)
    assert back.values.tobytes() == rho.values.tobytes()
    rows[0][7] = repr(float(rho.centers[7] + shift * rho.dx))
    with pytest.raises(InvalidDensityError, match="not the 128-cell grid"):
        density_from_csv("x,rho\n" + csv_rows(*rows), rho.domain)


# each input check: the call, the typed error and its message
REJECTED_INPUTS = {
    "grid-density-matrix": (
        lambda: GridDensity(domain=UNIT, values=np.ones((2, 2))),
        InvalidDensityError, "density values must form a nonempty vector"),
    "grid-density-empty": (lambda: GridDensity(domain=UNIT, values=[]),
                           InvalidDensityError,
                           "density values must form a nonempty vector"),
    "quantile-level-above-1": (
        lambda: smooth_density(UNIT, 8).quantile([0.5, 1.5]),
        ParameterError, "mass levels must lie in [0, 1]"),
    "quantile-rep-one-node": (lambda: QuantileRep(domain=UNIT, X=[0.5]),
                              InvalidDensityError,
                              "quantile vector needs at least two nodes"),
    "quantile-rep-off-the-domain": (
        lambda: QuantileRep(domain=UNIT, X=[0.0, 0.5, 1.5]),
        InvalidDensityError, "quantile nodes leave the domain"),
    "normalize-empty": (lambda: normalize([], UNIT), InvalidDensityError,
                        "expected a nonempty value vector"),
    "to-quantiles-m-0": (lambda: to_quantiles(smooth_density(UNIT, 8), 0),
                         ParameterError,
                         "need at least one mass cell, got m=0"),
    "from-quantiles-n-0": (
        lambda: from_quantiles(UNIT, np.array([0.0, 0.5, 1.0]), 0),
        ParameterError, "need at least one grid cell, got n=0"),
    "repeated-quantile-nodes": (
        lambda: quantile_internal_energy(np.array([0.0, 0.5, 0.5, 1.0]),
                                         EnergySpec.entropy()),
        InvalidDensityError, "repeated quantile nodes"),
    "l1-across-domains": (
        lambda: l1_distance(smooth_density(UNIT, 8),
                            smooth_density(Domain(0.0, 2.0), 8)),
        ParameterError, "densities live on different domains"),
    "csv-without-rows": (lambda: density_from_csv("x,rho\n", UNIT),
                         InvalidDensityError,
                         "expected rows of 'x,rho' number pairs"),
    "csv-three-columns": (
        lambda: density_from_csv("x,rho\n0.25,1,0\n0.75,1,0\n", UNIT),
        InvalidDensityError, "expected rows of 'x,rho' number pairs"),
    # a ragged row and a cell that is not a number escaped as ValueError
    "csv-ragged-row": (lambda: density_from_csv("x,rho\n0.25,1\n0.75\n",
                                                UNIT),
                       InvalidDensityError,
                       "expected rows of 'x,rho' number pairs"),
    "csv-cell-not-a-number": (
        lambda: density_from_csv("x,rho\n0.25,1\n0.75,one\n", UNIT),
        InvalidDensityError, "expected rows of 'x,rho' number pairs"),
}


@pytest.mark.parametrize("call,error,message", REJECTED_INPUTS.values(),
                         ids=REJECTED_INPUTS.keys())
def test_input_checks_raise_typed_errors(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


def test_l1_distance_mixed_resolution():
    rho_a = smooth_density(UNIT, 64)
    X = to_quantiles(rho_a, 512).X
    rho_b = from_quantiles(rho_a.domain, X, 128)
    d_easy = l1_distance(rho_a, from_quantiles(rho_a.domain, X, 64))
    d_mixed = l1_distance(rho_a, rho_b)
    assert d_mixed <= d_easy + 0.05
    assert l1_distance(rho_a, rho_a) == 0.0
