"""Steepest-descent time stepping for degenerate diffusion.

Each step minimizes ``h * W(rho_prev, rho) + E(rho)`` over densities on the
domain, posed in quantile coordinates where the feasible set is the monotone
box ``a <= X_0 <= ... <= X_m <= b`` and the objective

    J(X) = (h/m) sum_i c((P_i - M_i)/h) + sum_i F((1/m)/w_i) w_i
           + (1/m) sum_i V(M_i)

is convex (``P``: fixed previous half-level quantiles, ``M``: current ones,
``w``: cell widths).  A damped Newton method on the banded Hessian solves
it, and a wall-clip bound on the projected-gradient residual certifies the
result.  A step Newton cannot certify fails at once with the reason it stopped.

Evaluation contract: every iterate is evaluated once, in one sweep that
yields the objective, its gradient, both energies, the transport sum
``sum_i c(v_i)`` and the per-cell quantities (midpoints, widths, displacement,
cell density) everything else reads from.  The sweep takes one transcendental
per cost or energy term: ``CostSpec.value_and_derivative`` forms ``c`` and
``c'`` from one ``|v|^(q-1)``, and ``EnergySpec.value_and_pressure`` forms
``F`` and the pressure from one ``log`` or ``rho^m``.  The banded curvature
is formed from an evaluation, and only at iterates Newton steps from.

Warm start: inside a run, step ``k + 1`` starts at a polynomial predictor
through the last minimizers (endpoints clipped to the walls), and that one
evaluation replaces the one at ``Xprev``.  The minimizers of successive
steps lie on a smooth discrete path, so extrapolating the polynomial
through the last ``p + 1`` of them one step ahead, the predictor of
predictor-corrector continuation (Allgower & Georg, *Numerical
Continuation Methods*, 1990, ch. 2), often lands within the tolerance.
The order ramps up with the history: linear ``2 X_1 - X_0`` at step 2,
quadratic at steps 3 and 4, cubic from step 5 on, so that the cubic never
passes through ``rho0``'s nodes, which carry the initial layer.  Higher
orders amplify the solver tolerance's noise in the history by
``2^(p+1) - 1`` and save no iterations.  A run holds only the last three
earlier node vectors.  ``Xprev`` is evaluated only when the predictor is
not strictly increasing or its objective lies above the objective at
``Xprev``.  That objective needs no evaluation: at ``Xprev`` the
displacement is zero and ``c(0) = 0``, so it equals step ``k``'s final
free energy bit for bit, and the run carries it, with the internal energy,
into the next step.  A step's ``E_*_before`` are these carried energies and
the descent guard compares against the carried free energy; everything else
in the ledger comes from the evaluation at the accepted nodes.  The first
step of a run, and a step called on its own, start cold at ``Xprev``.

A step posed from its predecessor's minimizer is not solved again.  When
step ``k`` returned the nodes it started from (``X_k == X_{k-1}`` exactly,
element for element; never to a tolerance), ``run_scheme`` gives step
``k + 1`` step ``k``'s density object and diagnostics with zero
iterations.  That is what the solver would return: step ``k + 1`` poses
step ``k``'s problem (same ``P``, same nodes), its predictor is ``X_k``
itself (at ``X_k == X_{k-1}`` the predictor is ``X_k``, whatever its
order), and the carried energies are the energies of those nodes, which
step ``k`` also reported as its starting ones.  Evaluating the predictor
reproduces step ``k``'s final evaluation bit for bit, so the step would
find the same certified residual and return ``X_k`` after zero
iterations.  The repeat then holds for every later step.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from ._lapack import dgtsv
from .convex import CostSpec, EnergySpec, PotentialSpec, validate_assumptions
from .density import (
    Domain,
    GridDensity,
    QuantileRep,
    from_quantiles,
    normalize,
    to_quantiles,
)
from .errors import (
    ConvergenceError,
    DegeneracyError,
    InvalidDensityError,
    ParameterError,
    SchemeAbortError,
)

VACUUM_FLOOR_FACTOR = 1e-14
MAX_STEPS = 10**6
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class JkoProblem:
    """Full description of one evolution problem plus solver options."""

    cost: CostSpec
    energy: EnergySpec
    potential: PotentialSpec
    domain: Domain
    h: float
    m: int
    tol: float = 1e-9
    newton_max_iter: int = 80

    def __post_init__(self):
        if not (self.h > 0.0):
            raise ParameterError(f"time step must be positive, got {self.h}")
        if self.m < 8:
            raise ParameterError(f"need at least 8 mass cells, got {self.m}")
        if not (0.0 < self.tol < math.inf):
            raise ParameterError(
                f"solver tolerance must be finite and > 0, got {self.tol}")
        if self.newton_max_iter < 0:
            raise ParameterError(
                f"newton_max_iter must be >= 0, got {self.newton_max_iter}")
        validate_assumptions(self.cost, self.energy, self.potential,
                             domain=(self.domain.a, self.domain.b))


@dataclass(frozen=True)
class StepDiagnostics:
    """Per-step ledger entries, all computed in quantile coordinates."""

    W_value: float
    E_internal_before: float
    E_internal_after: float
    E_free_before: float
    E_free_after: float
    second_moment: float
    dissipation: float
    kkt_residual: float
    iterations: int


@dataclass(frozen=True)
class SchemeTrajectory:
    """Piecewise-constant-in-time approximate solution.

    ``densities[k]`` is the state on ``(times[k-1], times[k]]``;
    ``densities[0]`` is the initial state.
    """

    times: tuple[float, ...]
    densities: tuple[GridDensity, ...]
    diagnostics: tuple[StepDiagnostics, ...] = ()

    def __post_init__(self):
        if len(self.times) != len(self.densities) or not self.times:
            raise ParameterError("need one density per time")
        if self.times[0] != 0.0:
            raise ParameterError("trajectories start at t = 0")

    @property
    def final(self) -> GridDensity:
        return self.densities[-1]


# ---------------------------------------------------------------------------
# single-step solver
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class _Evaluation:
    """Everything one step iterate determines, computed in one cell sweep.

    ``w`` is the node spacing clamped at the vacuum floor.  ``Fw`` holds the
    cell terms of the internal energy, and ``V`` the potential at the
    midpoints, or None without a potential.  ``csum`` is ``sum_i c(v_i)``.
    """

    X: np.ndarray
    M: np.ndarray
    w: np.ndarray
    disp: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    csum: float
    Fw: np.ndarray
    V: np.ndarray | None
    e_int: float
    e_free: float
    f: float
    g: np.ndarray


class _StepObjective:
    """Objective of one step at fixed ``Xprev``: evaluation and curvature."""

    def __init__(self, problem: JkoProblem, Xprev: np.ndarray):
        self.pb = problem
        self.m = problem.m
        self.mu = 1.0 / problem.m
        self.h = problem.h
        self.P = 0.5 * (Xprev[:-1] + Xprev[1:])
        self.wmin = VACUUM_FLOOR_FACTOR * problem.domain.length
        self.has_potential = not problem.potential.is_zero

    def evaluate(self, X: np.ndarray) -> _Evaluation:
        """Objective, gradient, energies and per-cell quantities at ``X``."""
        pb, mu = self.pb, self.mu
        M = X[:-1] + X[1:]
        M *= 0.5
        w = X[1:] - X[:-1]
        np.maximum(w, self.wmin, out=w)
        disp = self.P - M
        v = disp / self.h
        rho = mu / w
        c, cell = pb.cost.value_and_derivative(v)
        Fw, pres = pb.energy.value_and_pressure(rho)
        Fw *= w
        e_int = float(Fw.sum())
        csum = float(c.sum())
        f = self.h * mu * csum
        f += e_int
        e_free = e_int
        cell *= -0.5 * mu
        V = None
        if self.has_potential:
            V = pb.potential.value(M)
            e_pot = mu * float(V.sum())
            f += e_pot
            e_free += e_pot
            cell += 0.5 * mu * pb.potential.derivative(M)
        # cell i adds cell + pres to node i and cell - pres to node i + 1; the
        # ends add 0.0 as a zero-started sum would (``pres`` is never -0.0)
        right = cell - pres
        pres += cell
        g = np.empty_like(X)
        np.add(pres[1:], right[:-1], out=g[1:-1])
        g[0], g[-1] = pres[0] + 0.0, right[-1] + 0.0
        return _Evaluation(X=X, M=M, w=w, disp=disp, v=v, rho=rho, csum=csum,
                           Fw=Fw, V=V, e_int=e_int, e_free=e_free, f=f, g=g)

    def hessian(self, ev: _Evaluation) -> tuple[np.ndarray, np.ndarray]:
        """Tridiagonal Hessian at an evaluated iterate: (diagonal, off-diagonal).

        Each cell contributes a coupling part ``ct`` (cost and potential,
        through the midpoint) and a width part ``ge`` (energy).
        """
        ct = (self.mu / (4.0 * self.h)) * self.pb.cost.second_derivative(ev.v)
        ge = self.mu**2 * self.pb.energy.second_derivative(ev.rho) / ev.w**3
        if self.has_potential:
            ct = ct + 0.25 * self.mu * self.pb.potential.second_derivative(ev.M)
        cell = ct + ge
        diag = np.empty(self.m + 1)
        np.add(cell[:-1], cell[1:], out=diag[1:-1])
        diag[0], diag[-1] = cell[0] + 0.0, cell[-1] + 0.0
        return diag, ct - ge

    def rounding_error(self, ev: _Evaluation) -> float:
        """A priori bound on the rounding error of ``ev.f``.

        ``f`` sums ``m`` cell terms; recursive summation of ``m`` terms errs
        by at most about ``m * eps * sum|term|`` (Higham, *Accuracy and
        Stability of Numerical Algorithms*, 2nd ed., section 4.2).  The
        transport terms are nonnegative.
        """
        s = self.h * self.mu * ev.csum + float(np.abs(ev.Fw).sum())
        if ev.V is not None:
            s += self.mu * float(np.abs(ev.V).sum())
        return self.m * _EPS * s

    def kkt_residual(self, X: np.ndarray, g: np.ndarray) -> float:
        """``D = sup|X - clip(X - g, a, b)|``, the step's certificate.

        For feasible ``X`` and ``y = X - g``, the projected-gradient residual
        ``sup|X - clip(iso(y))|`` (``iso``: isotonic regression) is at most
        ``D``, with equality when ``y`` is nondecreasing.  Upper side: take
        node ``i`` in an isotonic block of value ``v``; every prefix mean of
        the block is ``>= v`` (Barlow, Bartholomew, Bremner & Brunk,
        *Statistical Inference under Order Restrictions*, 1972), so
        ``clip(v) > X_i + D`` needs some ``j <= i`` with ``y_j > X_j + D``,
        hence ``clip(y_j) = b`` and ``clip(v) <= b <= X_j + D <= X_i + D``, a
        contradiction.  Lower side: the same with suffix means and ``a``.
        So ``D`` never certifies a step the exact residual rejects, and when
        every gap exceeds ``2 tol`` the two decide alike: a pair with
        ``y_i >= y_{i+1}`` shares a block, so the exact residual is at least
        ``(X_{i+1} - X_i) / 2 > tol``.
        """
        z = (X - g).clip(self.pb.domain.a, self.pb.domain.b)
        return float(np.abs(X - z).max())


def _newton_solve(obj: _StepObjective, start: _Evaluation,
                  increasing: bool = False) -> tuple[_Evaluation, int, float]:
    """Damped Newton on the banded system: ``(final, iterations, residual)``.

    Starts from the evaluated start point, clipped to the walls unless it is
    ``increasing`` with both endpoints within them, and keeps each accepted
    trial's evaluation for the next iteration.  The endpoint walls are an
    active set (pinned while the gradient presses outward).  A step Newton
    cannot certify raises ``ConvergenceError`` with the last accepted nodes,
    their residual and the reason it stopped: an interior node on a wall, a
    non-finite or singular system, no descent direction, a line search that
    failed or reached the current nodes, or the ``newton_max_iter`` cap.

    The backtracking test is Armijo's with the rounding error of ``f``
    (``_StepObjective.rounding_error``) as slack.  Near the solution the
    predicted decrease ``-g.dX`` falls below that error, and the plain test
    then compares noise with noise; with the slack the full Newton step is
    taken there unless it raises ``f`` beyond its rounding error.  A trial
    that equals the current nodes bit for bit is never accepted.
    """
    pb = obj.pb
    a, b = pb.domain.a, pb.domain.b
    edge = 1e-12 * pb.domain.length
    X, ev = start.X, start
    if not (increasing and a <= X[0] and X[-1] <= b):
        X = X.clip(a, b)
        ev = start if (X == start.X).all() else obj.evaluate(X)
    m = obj.m

    def stopped(reason: str) -> ConvergenceError:
        return ConvergenceError(
            f"Newton stopped after {it} iterations at residual {r:.3e} "
            f"(tol {pb.tol:.1e}): {reason}", best=ev.X, residual=r)

    it = 0
    while True:
        X, g = ev.X, ev.g
        r = obj.kkt_residual(X, g)
        if r <= pb.tol:
            return ev, it, r
        if it == pb.newton_max_iter:
            raise stopped("newton_max_iter reached")
        if X[1] <= a + edge or X[-2] >= b - edge:
            raise stopped("an interior node is on a wall")
        i0 = 1 if (X[0] <= a + edge and g[0] >= 0.0) else 0
        i1 = m - 1 if (X[-1] >= b - edge and g[-1] <= 0.0) else m
        diag, off = obj.hessian(ev)
        d, e, rhs = diag[i0:i1 + 1], off[i0:i1], -g[i0:i1 + 1]
        if not (np.isfinite(d).all() and np.isfinite(e).all()
                and np.isfinite(rhs).all()):
            raise stopped("the Newton system is not finite")
        *_, dX, info = dgtsv(e, d, e, rhs)
        if info != 0:
            raise stopped("the Newton system is singular")
        gdot = float(g[i0:i1 + 1] @ dX)
        if not np.isfinite(gdot) or gdot >= 0.0:
            raise stopped("the Newton direction is not a descent direction")
        slack = obj.rounding_error(ev)
        step = 1.0
        for _ in range(60):
            Xn = X.copy()
            Xn[i0:i1 + 1] += step * dX
            Xn[0] = max(Xn[0], a)
            Xn[-1] = min(Xn[-1], b)
            if (Xn == X).all():
                raise stopped("the line search reached the current nodes")
            if (Xn[1:] > Xn[:-1]).all():
                # an overflowing trial has f = inf and is rejected
                with np.errstate(over="ignore"):
                    evn = obj.evaluate(Xn)
                if evn.f <= ev.f + 1e-4 * step * gdot + slack:
                    break
            step *= 0.5
        else:
            raise stopped("the line search failed")
        ev = evn
        it += 1


def _gradient(f: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``np.gradient(f, x)`` with the same arithmetic, by direct slicing.

    Second-order differences inside, first-order ones at the ends; numpy
    switches to the uniform-spacing formula when every spacing is equal,
    and so does this.
    """
    dx = x[1:] - x[:-1]
    out = np.empty_like(f)
    if (dx == dx[0]).all():
        out[1:-1] = (f[2:] - f[:-2]) / (2.0 * dx[0])
    else:
        dx1, dx2 = dx[:-1], dx[1:]
        span = dx1 + dx2
        a = -dx2 / (dx1 * span)
        b = (dx2 - dx1) / (dx1 * dx2)
        c = dx1 / (dx2 * span)
        a *= f[:-2]
        b *= f[1:-1]
        a += b
        c *= f[2:]
        np.add(a, c, out=out[1:-1])
    out[0] = (f[1] - f[0]) / dx[0]
    out[-1] = (f[-1] - f[-2]) / dx[-1]
    return out


def _step_diagnostics(problem: JkoProblem, before: tuple[float, float],
                      final: _Evaluation, r: float, iterations: int
                      ) -> StepDiagnostics:
    """Ledger entries of one step: ``before = (E_internal, E_free)`` at
    ``Xprev``, everything else read off the final evaluation.

    The dissipation integrand is taken on mass cells.  Means are sums over
    the ``m`` cells divided by ``m``, as ``np.mean`` forms them.
    """
    k = problem.m
    wv = problem.energy.derivative(final.rho)
    if final.V is not None:
        wv += final.V
    dw = _gradient(wv, final.M)
    return StepDiagnostics(
        W_value=final.csum / k,
        E_internal_before=before[0],
        E_internal_after=final.e_int,
        E_free_before=before[1],
        E_free_after=final.e_free,
        second_moment=float((final.disp**2).sum()) / k,
        dissipation=float((np.abs(dw) ** problem.cost.qstar).sum()) / k,
        kkt_residual=r,
        iterations=iterations,
    )


def _predictor(obj: _StepObjective, nodes: list[np.ndarray],
               f_prev: float) -> _Evaluation | None:
    """Evaluated polynomial predictor through ``nodes = [X_k, X_{k-1}, ...]``
    with its endpoints on the walls, or None if it is not strictly increasing
    or its objective exceeds ``f_prev``.

    Order ``p = len(nodes) - 1`` extrapolates the degree-``p`` polynomial
    through the nodes one step ahead,
    ``sum_j (-1)^j C(p + 1, j + 1) X_{k-j}``: ``2 X_k - X_{k-1}`` for
    ``p = 1``, ``4 X_k - 6 X_{k-1} + 4 X_{k-2} - X_{k-3}`` for ``p = 3``.
    At a fixed point, ``X_k == X_{k-1}`` exactly, the predictor is ``X_k``.
    Summed from the first term, it is the zero-started sum bit for bit.
    """
    X = nodes[0]
    if (X == nodes[1]).all():
        guess = X.copy()
    else:
        p = len(nodes) - 1
        guess = (p + 1) * X
        term = np.empty_like(X)
        for j in range(1, p + 1):
            np.multiply(nodes[j], math.comb(p + 1, j + 1), out=term)
            (np.subtract if j % 2 else np.add)(guess, term, out=guess)
        guess[0] = max(guess[0], obj.pb.domain.a)
        guess[-1] = min(guess[-1], obj.pb.domain.b)
    if not (guess[1:] > guess[:-1]).all():
        return None
    ev = obj.evaluate(guess)
    return ev if ev.f <= f_prev else None


def jko_step_nodes(problem: JkoProblem, Xprev: np.ndarray,
                   Xback: Sequence[np.ndarray] = (),
                   before: tuple[float, float] | None = None
                   ) -> tuple[np.ndarray, StepDiagnostics]:
    """One minimizing-movement step in quantile coordinates.

    Called with ``Xprev`` alone, the step starts cold at ``Xprev``.  Inside a
    run, ``Xback`` holds the node vectors of the steps before ``Xprev``,
    newest first, and ``before`` the ``(E_internal, E_free)`` of ``Xprev``
    that the previous step reported; the step then starts at the predictor
    of order ``len(Xback)`` through them (module docstring).
    """
    Xprev = np.array(Xprev, dtype=float)
    obj = _StepObjective(problem, Xprev)
    start = cold = None
    if len(Xback) and before is not None:
        start = _predictor(obj, [Xprev, *Xback], before[1])
    if start is None:
        start = cold = obj.evaluate(Xprev)
        if before is None:
            before = (start.e_int, start.e_free)
    final, nit, r = _newton_solve(obj, start, increasing=start is not cold)
    if (final.w <= obj.wmin).any():  # ``w``: the gaps clamped at ``wmin``
        gaps = final.X[1:] - final.X[:-1]
        raise DegeneracyError(
            f"mass cell collapsed to width {float(gaps.min()):.3e}; "
            "the evolution left the positive-density regime")
    if final.f > before[1] and final.f > before[1] + obj.rounding_error(final):
        raise ConvergenceError("step increased the objective", best=final.X,
                               residual=r)
    return final.X, _step_diagnostics(problem, before, final, r, nit)


def step_count(T: float, h: float) -> int:
    """Number of steps of size ``h`` to the horizon ``T``, within 1..MAX_STEPS."""
    ratio = T / h
    steps = int(round(ratio)) if math.isfinite(ratio) else 0
    if not 1 <= steps <= MAX_STEPS:
        raise ParameterError(f"horizon T = {T!r} with step h = {h!r} gives "
                             f"{ratio:.3g} steps, needs 1..{MAX_STEPS}")
    return steps


def run_scheme(problem: JkoProblem, rho0: GridDensity, T: float
               ) -> SchemeTrajectory:
    """Iterate the step solver up to the horizon ``T``.

    The evolution state is kept in quantile coordinates across steps; grid
    snapshots are derived views.  Once a step returns the nodes it started
    from, every later step poses the same problem and repeats the previous
    snapshot object and diagnostics with zero iterations (module
    docstring).  A failing step aborts with the partial trajectory
    attached.
    """
    steps = step_count(T, problem.h)
    if rho0.domain != problem.domain:
        raise ParameterError("initial density lives on the wrong domain")
    if not rho0.strictly_positive:
        raise InvalidDensityError(
            "the scheme needs strictly positive initial data; "
            "floor degenerate data first")
    X = to_quantiles(rho0, problem.m).X
    back: list[np.ndarray] = []  # the last three earlier nodes, newest first
    before = None
    times = [0.0]
    densities = [rho0]
    diags: list[StepDiagnostics] = []
    for k in range(1, steps + 1):
        if back and (X == back[0]).all():
            rho, diag = densities[-1], replace(diags[-1], iterations=0)
        else:
            # step 4's cubic would pass through rho0's nodes
            order = 2 if k == 4 else 3
            try:
                Xnext, diag = jko_step_nodes(problem, X, back[:order], before)
            except (ConvergenceError, DegeneracyError) as exc:
                raise SchemeAbortError(
                    f"step {k} failed: {exc}",
                    partial=SchemeTrajectory(times=tuple(times),
                                             densities=tuple(densities),
                                             diagnostics=tuple(diags)),
                    cause=exc) from exc
            back, X = [X, *back[:2]], Xnext
            before = (diag.E_internal_after, diag.E_free_after)
            rho = from_quantiles(QuantileRep(domain=problem.domain, X=X),
                                 rho0.n)
        times.append(k * problem.h)
        densities.append(rho)
        diags.append(diag)
    return SchemeTrajectory(times=tuple(times), densities=tuple(densities),
                            diagnostics=tuple(diags))


# ---------------------------------------------------------------------------
# Euler-Lagrange residual on grid densities
# ---------------------------------------------------------------------------

def _binomial_smooth(w: np.ndarray, passes: int = 4) -> np.ndarray:
    # damps the cell-scale sawtooth that exact-mass rasterization leaves in
    # neighboring-cell increments; bias is O(dx^2) per pass
    for _ in range(passes):
        w = np.concatenate(([w[0]], 0.25 * w[:-2] + 0.5 * w[1:-1] + 0.25 * w[2:],
                            [w[-1]]))
    return w


def euler_lagrange_residual(problem: JkoProblem, rho_prev: GridDensity,
                            rho_next: GridDensity) -> float:
    """Relative residual of the step optimality law between grid densities.

    The map side ``(S(y) - y)/h`` pairs the ``m``-quantiles of ``rho_next``
    (``y``) and ``rho_prev`` (``S(y)``) at half levels, where the pairing is
    exact; the flux side applies the conjugate-gradient nonlinearity to
    centered grid differences of ``F'(rho_next) + V`` interpolated at the
    same points.  Both sides are weighed by mass quadrature: the L1 gap over
    the L1 size of the flux side.
    """
    X_src = to_quantiles(rho_next, problem.m).X
    X_tgt = to_quantiles(rho_prev, problem.m).X
    y = 0.5 * (X_src[:-1] + X_src[1:])
    target = 0.5 * (X_tgt[:-1] + X_tgt[1:])
    lhs = (target - y) / problem.h
    wv = problem.energy.derivative(rho_next.values)
    if not problem.potential.is_zero:
        wv = wv + problem.potential.value(rho_next.centers)
    dw = _gradient(_binomial_smooth(wv), rho_next.centers)
    rhs = problem.cost.conjugate_gradient(np.interp(y, rho_next.centers, dw))
    weights = np.full(y.size, 1.0 / y.size)
    num = float(np.sum(np.abs(lhs - rhs) * weights))
    den = float(np.sum(np.abs(rhs) * weights))
    return num / max(den, 1e-300)


# ---------------------------------------------------------------------------
# floor approximation for degenerate initial data
# ---------------------------------------------------------------------------

def floored_density(rho0: GridDensity, delta: float) -> GridDensity:
    """Raise the density to at least ``delta`` and renormalize."""
    if not (delta > 0.0):
        raise ParameterError(f"floor must be positive, got {delta}")
    values = np.maximum(rho0.values, delta)
    return normalize(values, rho0.domain)[0]
