"""Discrete probability densities on a bounded interval.

Two equivalent views of the same measure: a piecewise-constant density on a
uniform grid (Eulerian) and a monotone vector of quantile positions
(Lagrangian).  Both store exact piecewise-linear CDFs, so conversions are
plain CDF algebra without interpolation heuristics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .convex import EnergySpec, PotentialSpec
from .errors import (
    DegenerateCellError,
    DomainMismatchError,
    InvalidDensityError,
    NonInvertibleCdfError,
    ParameterError,
)

MASS_TOL = 1e-12


@lru_cache(maxsize=16)
def _levels(m: int) -> np.ndarray:
    """The mass levels ``i/m``, ``i = 0..m``, shared and read-only."""
    s = np.arange(m + 1) / m
    s.flags.writeable = False
    return s


@dataclass(frozen=True)
class Domain:
    """Open bounded interval ``(a, b)``."""

    a: float
    b: float

    def __post_init__(self):
        if not (np.isfinite(self.a) and np.isfinite(self.b) and self.a < self.b):
            raise ParameterError(f"domain needs finite a < b, got ({self.a}, {self.b})")

    @property
    def length(self) -> float:
        return self.b - self.a

    @lru_cache(maxsize=16)
    def edges(self, n: int) -> np.ndarray:
        """The ``n + 1`` uniform grid edges, shared and read-only."""
        e = np.linspace(self.a, self.b, n + 1)
        e.flags.writeable = False
        return e

    def centers(self, n: int) -> np.ndarray:
        e = self.edges(n)
        return 0.5 * (e[:-1] + e[1:])


@dataclass(frozen=True)
class GridDensity:
    """Cell-averaged probability density on a uniform partition."""

    domain: Domain
    values: np.ndarray
    strictly_positive: bool = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 1 or values.size == 0:
            raise InvalidDensityError("density values must form a nonempty vector")
        lo, hi = values.min(), values.max()  # NaN if any value is NaN
        if not (0.0 <= lo and hi < np.inf):
            raise InvalidDensityError("density values must be finite and nonnegative")
        mass = float(values.sum() * self.dx_for(values.size))
        if abs(mass - 1.0) > MASS_TOL:
            raise InvalidDensityError(f"density mass is {mass!r}, expected 1")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "strictly_positive", bool(lo > 0.0))

    def dx_for(self, n: int) -> float:
        return self.domain.length / n

    @property
    def n(self) -> int:
        return self.values.size

    @property
    def dx(self) -> float:
        return self.dx_for(self.n)

    @property
    def centers(self) -> np.ndarray:
        return self.domain.centers(self.n)

    @property
    def edges(self) -> np.ndarray:
        return self.domain.edges(self.n)

    def cdf_at_edges(self) -> np.ndarray:
        """Exact CDF at the grid edges, pinned to [0, 1]."""
        cum = np.concatenate(([0.0], np.cumsum(self.values) * self.dx))
        cum /= cum[-1]
        cum[0], cum[-1] = 0.0, 1.0
        return cum

    def support_edges(self) -> tuple[float, float]:
        """Endpoints of the (contiguous) positive support.

        Raises when positive cells are separated by interior vacuum, since
        the CDF is then not invertible as a map onto mass levels.
        """
        pos = np.nonzero(self.values > 0.0)[0]
        if pos[-1] - pos[0] + 1 != pos.size:
            raise NonInvertibleCdfError(
                "density has interior zero cells; its CDF is not invertible")
        edges = self.edges
        return float(edges[pos[0]]), float(edges[pos[-1] + 1])

    def quantile(self, s) -> np.ndarray:
        """Inverse CDF at mass levels ``s`` (exact piecewise-linear inversion).

        Levels 0 and 1 map to the support endpoints, which coincide with the
        domain endpoints for strictly positive densities.
        """
        lo, hi = self.support_edges()
        s = np.atleast_1d(np.asarray(s, dtype=float))
        if np.any((s < 0.0) | (s > 1.0)):
            raise ParameterError("mass levels must lie in [0, 1]")
        cum = self.cdf_at_edges()
        idx = np.clip(np.searchsorted(cum, s, side="right") - 1, 0, self.n - 1)
        edges = self.edges
        with np.errstate(divide="ignore", invalid="ignore"):
            x = edges[idx] + (s - cum[idx]) / self.values[idx]
        x = np.minimum(np.maximum(x, lo), hi)
        x[s == 0.0] = lo
        x[s == 1.0] = hi
        return x


@dataclass(frozen=True)
class QuantileRep:
    """Positions of the ``i/m`` quantiles; node ``i`` carries mass ``1/m``."""

    domain: Domain
    X: np.ndarray
    strictly_increasing: bool = field(init=False)

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        if X.ndim != 1 or X.size < 2:
            raise InvalidDensityError("quantile vector needs at least two nodes")
        narrowest = (X[1:] - X[:-1]).min()
        if narrowest < 0.0:
            raise InvalidDensityError("quantile vector must be nondecreasing")
        if X[0] < self.domain.a - 1e-12 or X[-1] > self.domain.b + 1e-12:
            raise InvalidDensityError("quantile nodes leave the domain")
        X = X.copy()
        X.flags.writeable = False
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "strictly_increasing",
                           bool(narrowest > 0.0))

    @property
    def m(self) -> int:
        return self.X.size - 1

    def cdf(self, x) -> np.ndarray:
        """Piecewise-linear CDF of the induced measure."""
        return np.interp(np.asarray(x, dtype=float), self.X, _levels(self.m),
                         left=0.0, right=1.0)


def normalize(values, domain: Domain) -> tuple[GridDensity, float]:
    """Rescale raw nonnegative cell values to unit mass.

    Returns the density and the relative change applied by normalization.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size == 0:
        raise InvalidDensityError("expected a nonempty value vector")
    if np.any(~np.isfinite(values)) or np.any(values < 0.0):
        raise InvalidDensityError("density values must be finite and nonnegative")
    dx = domain.length / values.size
    mass = float(np.sum(values) * dx)
    if mass <= 0.0:
        raise InvalidDensityError("cannot normalize an all-zero density")
    return GridDensity(domain=domain, values=values / mass), abs(mass - 1.0)


def to_quantiles(rho: GridDensity, m: int) -> QuantileRep:
    """Exact quantile vector of a strictly positive grid density."""
    if m < 1:
        raise ParameterError(f"need at least one mass cell, got m={m}")
    X = rho.quantile(_levels(m))
    return QuantileRep(domain=rho.domain, X=X)


def from_quantiles(q: QuantileRep, n: int) -> GridDensity:
    """Rasterize a quantile vector onto an ``n``-cell grid.

    Each grid cell receives exactly the mass the quantile CDF assigns to it,
    so total mass is preserved to machine precision.
    """
    if n < 1:
        raise ParameterError(f"need at least one grid cell, got n={n}")
    if not q.strictly_increasing:
        raise DegenerateCellError("repeated quantile nodes")
    edges = q.domain.edges(n)
    cum = q.cdf(edges)
    cum[0], cum[-1] = 0.0, 1.0
    mass = cum[1:] - cum[:-1]
    dx = q.domain.length / n
    return GridDensity(domain=q.domain, values=mass / dx)


def energy(rho: GridDensity, F: EnergySpec,
           V: PotentialSpec | None = None) -> tuple[float, float, float]:
    """Internal, potential and free energy by the midpoint rule.

    ``F(0) = 0`` is used on empty cells.
    """
    e_int = float(np.sum(F.value(rho.values)) * rho.dx)
    if V is None or V.is_zero:
        e_pot = 0.0
    else:
        e_pot = float(np.sum(rho.values * V.value(rho.centers)) * rho.dx)
    return e_int, e_pot, e_int + e_pot


def quantile_internal_energy(X: np.ndarray, F: EnergySpec) -> float:
    """Internal energy of the measure induced by quantile nodes ``X``.

    Exact for the induced piecewise-constant density; each mass cell
    contributes ``F((1/m)/w) w``.
    """
    w = np.diff(X)
    if np.any(w <= 0.0):
        raise DegenerateCellError("repeated quantile nodes")
    mu = 1.0 / w.size
    return float(np.sum(F.value(mu / w) * w))


def l1_distance(rho_a: GridDensity, rho_b: GridDensity) -> float:
    """Exact L1 distance between two piecewise-constant densities.

    Handles different resolutions by merging both edge sets.
    """
    if rho_a.domain != rho_b.domain:
        raise DomainMismatchError("densities live on different domains")
    if rho_a.n == rho_b.n:
        return float(np.sum(np.abs(rho_a.values - rho_b.values)) * rho_a.dx)
    edges = np.union1d(rho_a.edges, rho_b.edges)
    widths = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    ia = np.clip(((mids - rho_a.domain.a) / rho_a.dx).astype(int), 0, rho_a.n - 1)
    ib = np.clip(((mids - rho_b.domain.a) / rho_b.dx).astype(int), 0, rho_b.n - 1)
    return float(np.sum(np.abs(rho_a.values[ia] - rho_b.values[ib]) * widths))


# ---------------------------------------------------------------------------
# CSV interchange: header `x,rho`, one row per cell center, ascending x
# ---------------------------------------------------------------------------

def float_cells(values) -> list[str]:
    """Each value as the ``repr`` of a Python float, which reads back exactly."""
    return list(map(repr, np.asarray(values, dtype=float).tolist()))


def csv_rows(*columns: list[str]) -> str:
    """One comma-joined line per row of equally long columns of cells."""
    return "".join([",".join(row) + "\n" for row in zip(*columns)])


def density_to_csv(rho: GridDensity) -> str:
    return "x,rho\n" + csv_rows(float_cells(rho.centers), float_cells(rho.values))


def density_from_csv(text: str) -> GridDensity:
    rows = [line for line in text.splitlines() if line.strip()]
    if not rows or rows[0].strip() != "x,rho":
        raise InvalidDensityError("expected header 'x,rho'")
    data = np.array([[float(tok) for tok in row.split(",")] for row in rows[1:]])
    if data.ndim != 2 or data.shape[0] < 1 or data.shape[1] != 2:
        raise InvalidDensityError("expected rows of 'x,rho' pairs")
    x, v = data[:, 0], data[:, 1]
    if x.size == 1:
        raise InvalidDensityError("cannot infer a grid from a single row")
    steps = np.diff(x)
    if np.any(steps <= 0.0) or abs(steps.max() - steps.min()) > 1e-9 * abs(steps[0]):
        raise InvalidDensityError("cell centers must be uniform and ascending")
    dx = float((x[-1] - x[0]) / (x.size - 1))
    domain = Domain(a=float(x[0] - 0.5 * dx), b=float(x[-1] + 0.5 * dx))
    return GridDensity(domain=domain, values=v)
