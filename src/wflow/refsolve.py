"""Independent reference solutions for cross-checking the variational solver.

An implicit finite-difference solver for the flux form of the equation with
no-flux walls, closed-form stationary states, and the self-similar
porous-medium source profile.  These share no code path with the
quantile-coordinate stepper.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dgtsv
from .convex import CostSpec, EnergySpec, PotentialSpec
from .density import Domain, GridDensity
from .errors import ConvergenceError, ParameterError
from .jko import SchemeTrajectory, step_count

NEWTON_TOL = 1e-10
NEWTON_MAX_ITER = 40


@dataclass(frozen=True)
class FdConfig:
    """Discretization of the reference solver."""

    n: int = 256
    dt: float = 1e-3

    def __post_init__(self):
        if self.n < 16:
            raise ParameterError(f"reference grid needs n >= 16, got {self.n}")
        if not (self.dt > 0.0):
            raise ParameterError(f"time step must be positive, got {self.dt}")


def _flux_divergence(rho: np.ndarray, vpot: np.ndarray, dx: float,
                     cost: CostSpec, energy: EnergySpec) -> np.ndarray:
    """Cell increments from face fluxes; both boundary faces carry none."""
    w = energy.derivative(rho) + vpot
    slope = (w[1:] - w[:-1]) / dx
    face = 0.5 * (rho[1:] + rho[:-1]) * cost.conjugate_gradient(slope)
    div = np.zeros_like(rho)
    div[:-1] += face / dx
    div[1:] -= face / dx
    return div


def fd_solve(cost: CostSpec, energy: EnergySpec, potential: PotentialSpec,
             domain: Domain, rho0: GridDensity, T: float,
             cfg: FdConfig | None = None) -> SchemeTrajectory:
    """Implicit Euler on the flux form with damped Newton per step.

    Face fluxes use the arithmetic-mean density times the conjugate-gradient
    nonlinearity of the discrete slope of ``F'(rho) + V``; fluxes telescope,
    so each accepted step conserves mass to machine precision.
    """
    cfg = cfg or FdConfig()
    if rho0.n != cfg.n:
        raise ParameterError(f"initial data has {rho0.n} cells, config says {cfg.n}")
    if rho0.domain != domain:
        raise ParameterError("initial density lives on the wrong domain")
    steps = step_count(T, cfg.dt)
    n = cfg.n
    dx = rho0.dx
    vpot = np.zeros(n) if potential.is_zero else potential.value(rho0.centers)

    def residual(rho_new, rho_old):
        return rho_new - rho_old - cfg.dt * _flux_divergence(
            rho_new, vpot, dx, cost, energy)

    def jacobian(rho_new, rho_old):
        # Tridiagonal coupling only; build by three-coloring of FD columns.
        # Consecutive cells always land in distinct colors, so each response
        # row isolates exactly one perturbed column.
        base = residual(rho_new, rho_old)
        sub, diag, sup = np.zeros(n - 1), np.zeros(n), np.zeros(n - 1)
        scale = float(np.max(np.abs(rho_new))) + 1e-300
        eps = np.sqrt(np.finfo(float).eps) * (np.abs(rho_new) + scale)
        for color in range(3):
            pert = rho_new.copy()
            cols = np.arange(color, n, 3)
            pert[cols] += eps[cols]
            dres = residual(pert, rho_old) - base
            diag[cols] = dres[cols] / eps[cols]
            up = cols[cols > 0]
            sup[up - 1] = dres[up - 1] / eps[up]
            down = cols[cols < n - 1]
            sub[down] = dres[down + 1] / eps[down]
        return sub, diag, sup, base

    rho = rho0.values.copy()
    times = [0.0]
    densities = [rho0]
    for k in range(1, steps + 1):
        rho_old = cur = rho
        clamped = False
        converged = False
        for _ in range(NEWTON_MAX_ITER):
            sub, diag, sup, res = jacobian(cur, rho_old)
            norm0 = float(np.max(np.abs(res)))
            # one solve serves the Newton and the polishing step; a singular
            # or non-finite system leaves delta None
            delta = None
            if all(np.isfinite(v).all() for v in (sub, diag, sup, res)):
                *_, x, info = dgtsv(sub, diag, sup, -res)
                if info == 0:
                    delta = x
            if norm0 <= NEWTON_TOL:
                converged = True
                # one polishing iteration tightens mass telescoping
                if delta is not None:
                    polish = np.maximum(cur + delta, 0.0)
                    if float(np.max(np.abs(residual(polish, rho_old)))) <= norm0:
                        cur = polish
                break
            if delta is None:
                raise ConvergenceError(
                    f"singular Newton system at step {k}", best=cur,
                    residual=norm0)
            tau = 1.0
            cand = cur
            for _ in range(40):
                trial = cur + tau * delta
                if np.any(trial < 0.0):
                    clamped = True
                    trial = np.maximum(trial, 0.0)
                if float(np.max(np.abs(residual(trial, rho_old)))) < norm0:
                    cand = trial
                    break
                tau *= 0.5
            else:
                raise ConvergenceError(
                    f"Newton stalled at step {k}"
                    + (" (negative iterates clamped)" if clamped else ""),
                    best=cur, residual=norm0)
            cur = cand
        if not converged:
            final = float(np.max(np.abs(residual(cur, rho_old))))
            if final > NEWTON_TOL:
                raise ConvergenceError(
                    f"Newton ran out of iterations at step {k}"
                    + (" (negative iterates clamped)" if clamped else ""),
                    best=cur, residual=final)
        rho = cur
        times.append(k * cfg.dt)
        densities.append(GridDensity(domain=domain, values=rho))
    return SchemeTrajectory(times=tuple(times), densities=tuple(densities))


def gibbs_state(energy: EnergySpec, potential: PotentialSpec, domain: Domain,
                n: int) -> GridDensity:
    """Stationary state ``rho = (F')^{-1}(lam - V)`` with unit mass.

    The multiplier is found by bisection on the strictly increasing mass map;
    where ``lam - V`` falls below the range of ``F'`` the density clamps
    at zero.
    """
    xc = Domain(domain.a, domain.b).centers(n)
    dx = domain.length / n
    vx = potential.value(xc) if not potential.is_zero else np.zeros(n)

    def mass(lam: float) -> float:
        vals = energy.derivative_inverse(lam - vx)
        if np.any(np.isinf(vals)):
            return np.inf
        return float(np.sum(vals) * dx)

    lo, hi = -1.0, 1.0
    for _ in range(400):
        if mass(lo) < 1.0:
            break
        lo *= 2.0
    else:
        raise ConvergenceError("no lower bracket for the stationary multiplier")
    for _ in range(400):
        if mass(hi) > 1.0:
            break
        hi *= 2.0
    else:
        raise ConvergenceError("no upper bracket for the stationary multiplier")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mass(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    lam = 0.5 * (lo + hi)
    vals = energy.derivative_inverse(lam - vx)
    total = float(np.sum(vals) * dx)
    if not np.isfinite(total) or abs(total - 1.0) > 1e-10:
        raise ConvergenceError(f"stationary mass off by {total - 1.0!r}")
    return GridDensity(domain=domain, values=vals / total)


def barenblatt(m: float, mass: float, t: float, x) -> np.ndarray:
    """Self-similar source solution of ``d rho/dt = (rho^m)_xx`` on the line.

    ``rho(t, x) = t^{-a} (C - k x^2 t^{-2a})_+^{1/(m-1)}`` with
    ``a = 1/(m+1)`` and ``k = a (m-1) / (2m)``; ``C`` is fixed from the mass
    by the closed-form Beta integral.  Used only while the support is
    strictly inside the working domain.
    """
    if not (m > 1.0):
        raise ParameterError(f"porous-medium exponent must exceed 1, got {m}")
    if not (t > 0.0):
        raise ParameterError(f"profile time must be positive, got {t}")
    if not (mass > 0.0):
        raise ParameterError(f"mass must be positive, got {mass}")
    a = 1.0 / (m + 1.0)
    k = a * (m - 1.0) / (2.0 * m)
    nexp = 1.0 / (m - 1.0)
    # integral of (C - k y^2)_+^nexp over the line:
    #   C^(nexp + 1/2) k^(-1/2) * sqrt(pi) Gamma(nexp+1) / Gamma(nexp+3/2)
    beta = math.sqrt(math.pi) * math.gamma(nexp + 1.0) / math.gamma(nexp + 1.5)
    C = (mass * np.sqrt(k) / beta) ** (1.0 / (nexp + 0.5))
    x = np.asarray(x, dtype=float)
    arg = np.maximum(C - k * x**2 * t ** (-2.0 * a), 0.0)
    out = t ** (-a) * arg**nexp
    return out if out.ndim else float(out)


def barenblatt_density(m: float, t: float, domain: Domain, n: int,
                       mass: float = 1.0) -> GridDensity:
    """Cell-centered sampling of the source profile, renormalized on the grid."""
    xc = domain.centers(n)
    vals = barenblatt(m, mass, t, xc)
    total = float(np.sum(vals) * domain.length / n)
    return GridDensity(domain=domain, values=vals / total)
