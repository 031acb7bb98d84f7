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
``sum_i c(v_i)`` and the per-cell quantities (midpoints, widths, velocity,
cell density, pressure) everything else reads from; the ledger's dissipation
is ``|c'(v)|^{q*}`` by the optimality law ``c'(v) = d(F'(rho) + V)/dx``.  The
sweep takes at most one transcendental per cost or energy term: the cost
forms ``c`` and ``c'`` from one ``|v|^(q-1)``, except a quadratic cost
``A v^2``, which takes no power (``c' = 2A v``, ``v`` itself for
``|z|^2 / 2``), and the energy forms ``F`` and the pressure from one ``log``
or ``rho^m`` (the pressure of ``x ln x`` is ``rho`` itself).  As ``c'`` and
the pressure may be the sweep's own ``v`` and ``rho``, nothing writes to an
evaluation once it is formed.  The banded curvature is formed from an
evaluation, and only at iterates Newton steps from.  A run's state
(``_RunState``) carries the nodes each step certifies into the next step
with their midpoints, the final evaluation's ``M``, and the next step
takes those as its ``P`` instead of forming them again.

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
``2^(p+1) - 1`` and save no iterations.  The run state holds only the
earlier node vectors the next predictor passes through, at most three.
``Xprev`` is evaluated only when the predictor is not strictly increasing
or its objective lies above the objective at ``Xprev``.  That objective
needs no evaluation: at ``Xprev`` the displacement is zero and
``c(0) = 0``, so it equals step ``k``'s final free energy bit for bit, and
the run carries it, with the internal energy, into the next step.  A
step's ``E_*_before`` are these carried energies and the descent guard
compares against the carried free energy; everything else in the ledger
comes from the evaluation at the accepted nodes.  The first step of a run,
and a step called on its own, start cold at ``Xprev``.

A warm step whose predictor misses the tolerance first tries one
correction with the run's last Hessian, as stiff integrators reuse their
iteration matrix across time steps (Hairer & Wanner, *Solving Ordinary
Differential Equations II*, section IV.8).  The run state keeps the
tridiagonal Hessian of the last Newton iteration the run ran, with its
wall active set, and factors it as ``L D L^T`` (``dpttrf``) the first time
a warm step needs it.  On the same active set the step tries
``X - H_old^-1 g`` (``dpttrs``) and keeps it, as one iteration, only if it
is strictly increasing, does not raise the objective above the
predictor's and passes the certificate; otherwise Newton runs from the
predictor exactly as without the trial.  At m = 16384 the trial's solve
took about 140 us on a 2-core x86_64 host, against about 560 us for a
fresh Hessian and its ``dgtsv``.  Each Hessian Newton builds replaces the stored one, so a stale
factor costs one evaluation and never an uncertified step.

A step posed from its predecessor's minimizer is not solved again.  A
step's problem depends only on its start nodes, through their midpoints
``P``.  When step ``k`` returned the nodes it started from
(``X_k == X_{k-1}`` exactly, element for element; never to a tolerance),
step ``k + 1``'s ``P`` is step ``k``'s.  So step ``k + 1`` poses step
``k``'s problem, and ``X_k`` is already its certified minimizer.  Its
record for step ``k + 1`` is step ``k``'s with ``iterations=0``, bit for
bit: a cold step from ``X_k`` evaluates step ``k``'s final nodes against
step ``k``'s ``P``, starts from the energies of ``X_{k-1} == X_k``, and
certifies them after zero iterations.  The same holds for every later
step.  So ``run_scheme`` makes this one comparison per solved step and
solves no step after step ``k``: each later step appends step ``k``'s
density object and one shared record, and is still passed to
``on_snapshot``.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field, replace

import numpy as np

from ._lapack import dgtsv, dpttrf, dpttrs
from .convex import CostSpec, EnergySpec, PotentialSpec, validate_assumptions
from .density import (Domain, GridDensity, from_quantiles, normalize,
                      to_quantiles)
from .errors import (
    ConvergenceError,
    InvalidDensityError,
    ParameterError,
    SchemeAbortError,
)

VACUUM_FLOOR_FACTOR = 1e-14
MAX_STEPS = 10**6
_EPS = np.finfo(float).eps
_SMOOTH_PASSES = 4  # binomial passes of the Euler-Lagrange residual


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

    ``w`` is the node spacing clamped at the vacuum floor.  ``Fw`` and ``pres``
    hold the internal energy's cell terms and pressures, ``V`` and ``dV`` the
    potential and ``V'`` at the midpoints (None without a potential).
    ``csum`` is ``sum c(v)`` and ``cp`` the signed ``c'(v)``.
    """

    X: np.ndarray
    M: np.ndarray
    w: np.ndarray
    disp: np.ndarray
    v: np.ndarray
    rho: np.ndarray
    csum: float
    cp: np.ndarray
    Fw: np.ndarray
    pres: np.ndarray
    V: np.ndarray | None
    dV: np.ndarray | None
    e_int: float
    e_free: float
    f: float
    g: np.ndarray


class _StepObjective:
    """Objective of one step at fixed ``Xprev``: evaluation and curvature."""

    def __init__(self, problem: JkoProblem, Xprev: np.ndarray,
                 P: np.ndarray | None = None):
        self.pb = problem
        self.m = problem.m
        self.mu = 1.0 / problem.m
        self.h = problem.h
        # ``P``, if given, is ``Xprev``'s midpoints as ``evaluate`` forms them
        self.P = 0.5 * (Xprev[:-1] + Xprev[1:]) if P is None else P
        self.wmin = VACUUM_FLOOR_FACTOR * problem.domain.length
        self.has_potential = not problem.potential.is_zero

    def evaluate(self, X: np.ndarray) -> _Evaluation:
        """Objective, gradient, energies and per-cell quantities at ``X``.

        ``cp`` may be ``v`` and ``pres`` may be ``rho`` (the closed forms of
        ``c' = v`` and ``P = rho``), so nothing writes to an evaluation's
        arrays once it is formed.
        """
        pb, mu = self.pb, self.mu
        M = X[:-1] + X[1:]
        M *= 0.5
        w = X[1:] - X[:-1]
        np.maximum(w, self.wmin, out=w)
        disp = self.P - M
        v = disp / self.h
        rho = mu / w
        c, cp = pb.cost.value_and_derivative(v)
        Fw, pres = pb.energy.value_and_pressure(rho)
        Fw *= w
        e_int = float(Fw.sum())
        csum = float(c.sum())
        f = self.h * mu * csum
        f += e_int
        e_free = e_int
        cell = cp * (-0.5 * mu)
        V = dV = None
        if self.has_potential:
            V, dV = pb.potential.value_and_derivative(M)
            e_pot = mu * float(V.sum())
            f += e_pot
            e_free += e_pot
            cell += 0.5 * mu * dV
        # cell i adds cell + pres to node i and cell - pres to node i + 1; the
        # ends add 0.0 as a zero-started sum would (``pres`` is never -0.0)
        right = cell - pres
        cell += pres
        g = np.empty_like(X)
        np.add(cell[1:], right[:-1], out=g[1:-1])
        g[0], g[-1] = cell[0] + 0.0, right[-1] + 0.0
        return _Evaluation(X=X, M=M, w=w, disp=disp, v=v, rho=rho, csum=csum,
                           cp=cp, Fw=Fw, pres=pres, V=V, dV=dV, e_int=e_int,
                           e_free=e_free, f=f, g=g)

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

        Recursive summation of ``m`` terms errs by at most about
        ``m * eps * sum|term|`` (Higham, *Accuracy and Stability of Numerical
        Algorithms*, 2nd ed., section 4.2).  The terms are also evaluated at
        rounded arguments (``rho`` to a relative ``eps``, ``M`` to ``eps/2``),
        which moves them by ``mu |F'(rho)| eps`` and ``mu |M V'(M)| eps/2`` to
        first order (the transport terms' share vanishes with ``v``).  These
        dominate where the terms vanish, as the entropy's near ``rho = 1``,
        and add ``m * eps * (sum w |F + P| + mu sum|M V'(M)|)``, as
        ``mu F' = w (F + P)``.  The line search forms this bound once per
        Newton iteration and tests every trial against it.
        """
        s = self.h * self.mu * ev.csum + float(np.abs(ev.Fw).sum())
        if ev.V is not None:
            s += self.mu * float(np.abs(ev.V).sum())
        s += float(np.abs(ev.Fw + ev.pres * ev.w).sum())
        if ev.V is not None:
            s += self.mu * float(np.abs(ev.M * ev.dV).sum())
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

        The clip is formed in place, with ``np.maximum`` and ``np.minimum``:
        they may give a zero of the other sign than ``clip`` does, which
        ``abs`` makes the same, so ``D`` is ``clip``'s bit for bit.
        """
        z = np.subtract(X, g)
        np.maximum(z, self.pb.domain.a, out=z)
        np.minimum(z, self.pb.domain.b, out=z)
        np.subtract(X, z, out=z)
        return float(np.abs(z, out=z).max())


@dataclass(slots=True)
class _RunState:
    """What a run carries from one step into the next.

    ``nodes`` are the next step's ``Xprev``: ``rho0``'s nodes, then the
    nodes each step certified, read-only with their midpoints ``mid``
    (None before the first step).  ``back`` holds the earlier node vectors
    the next predictor passes through, newest first, ``before`` the
    ``(E_internal, E_free)`` of ``nodes`` and ``steps`` the count of steps
    advanced.  ``d`` and ``e`` are the diagonals of the last Hessian Newton
    built, on the wall active set ``key = (i0, i1)``; ``factor`` is their
    ``L D L^T`` factor from ``dpttrf``, formed the first time a step reuses
    them, or ``()`` when they are not positive definite.
    """

    nodes: np.ndarray | None = None
    mid: np.ndarray | None = None
    back: list[np.ndarray] = field(default_factory=list)
    before: tuple[float, float] | None = None
    steps: int = 0
    key: tuple[int, int] | None = None
    d: np.ndarray | None = None
    e: np.ndarray | None = None
    factor: tuple[np.ndarray, ...] | None = None

    def advance(self, final: _Evaluation) -> None:
        """Make the certified ``final`` the next step's start, read-only."""
        final.X.flags.writeable = final.M.flags.writeable = False
        self.steps += 1
        # step 4 takes order 2, so the cubic never passes through rho0's nodes
        self.back = [self.nodes, *self.back][:2 if self.steps == 3 else 3]
        self.nodes, self.mid = final.X, final.M
        self.before = (final.e_int, final.e_free)

    def keep(self, key: tuple[int, int], d: np.ndarray, e: np.ndarray):
        self.key, self.d, self.e, self.factor = key, d, e, None

    def solve(self, key: tuple[int, int], rhs: np.ndarray) -> np.ndarray | None:
        """``H^-1 rhs`` on the active set ``key``, or None if the stored
        Hessian has another active set or is not positive definite."""
        if key != self.key:
            return None
        if self.factor is None:
            d, e, info = dpttrf(self.d, self.e)
            self.factor = (d, e) if info == 0 else ()
        if not self.factor:
            return None
        x, info = dpttrs(*self.factor, rhs)
        return x if info == 0 else None


def _newton_solve(obj: _StepObjective, start: _Evaluation,
                  increasing: bool = False, run: _RunState | None = None
                  ) -> tuple[_Evaluation, int, float]:
    """Damped Newton on the banded system: ``(final, iterations, residual)``.

    Starts from the evaluated start point, clipped to the walls unless it is
    ``increasing`` with both endpoints within them, and keeps each accepted
    trial's evaluation for the next iteration.  The endpoint walls are an
    active set (pinned while the gradient presses outward).  A step Newton
    cannot certify raises ``ConvergenceError`` with the last accepted nodes,
    their residual and the reason it stopped: an interior node on a wall, a
    non-finite or singular system, no descent direction, a line search that
    failed or reached the current nodes, or the ``newton_max_iter`` cap.

    The backtracking test is Armijo's with one slack per iteration, the
    rounding error of ``f`` (``_StepObjective.rounding_error``): a trial is
    accepted iff ``f(trial) <= f + 1e-4 step g.dX + slack``.  Near the
    solution the predicted decrease ``-g.dX`` falls below that error, and
    the plain test then compares noise with noise; with the slack the full
    Newton step is taken there unless it raises ``f`` beyond its rounding
    error.  A trial that equals the current nodes bit for bit is never
    accepted.

    ``run``, if given, holds the run's last Hessian, and each Hessian built
    here replaces it.  From an ``increasing`` start (a warm step's predictor)
    that misses the tolerance on the stored Hessian's active set, Newton
    first tries the full step ``-H_old^-1 g``, a chord step (Kelley,
    *Iterative Methods for Linear and Nonlinear Equations*, 1995, ch. 5).
    It returns that trial as one iteration if the trial is strictly
    increasing, does not raise ``f`` and passes the certificate; otherwise
    it runs from the start as if no trial had been made.
    """
    pb = obj.pb
    a, b = pb.domain.a, pb.domain.b
    edge = 1e-12 * pb.domain.length
    X, ev = start.X, start
    if not (increasing and a <= X[0] and X[-1] <= b):
        X = X.clip(a, b)
        ev = start if (X == start.X).all() else obj.evaluate(X)
    m = obj.m
    reuse = run if increasing else None

    def trial(step: float, dX: np.ndarray) -> np.ndarray:
        Xn = X.copy()
        Xn[i0:i1 + 1] += dX if step == 1.0 else step * dX
        Xn[0] = max(Xn[0], a)
        Xn[-1] = min(Xn[-1], b)
        return Xn

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
        rhs = -g[i0:i1 + 1]
        dX = None if reuse is None else reuse.solve((i0, i1), rhs)
        reuse = None
        if dX is not None:
            Xn = trial(1.0, dX)
            if (Xn[1:] > Xn[:-1]).all():
                with np.errstate(over="ignore"):
                    evn = obj.evaluate(Xn)
                rn = obj.kkt_residual(Xn, evn.g) if evn.f <= ev.f else math.inf
                if rn <= pb.tol:
                    return evn, 1, rn
        diag, off = obj.hessian(ev)
        d, e = diag[i0:i1 + 1], off[i0:i1]
        if not (np.isfinite(d).all() and np.isfinite(e).all()
                and np.isfinite(rhs).all()):
            raise stopped("the Newton system is not finite")
        if run is not None:
            run.keep((i0, i1), d, e)
        *_, dX, info = dgtsv(e, d, e, rhs)
        if info != 0:
            raise stopped("the Newton system is singular")
        gdot = float(np.multiply(g[i0:i1 + 1], dX).sum())
        if not np.isfinite(gdot) or gdot >= 0.0:
            raise stopped("the Newton direction is not a descent direction")
        slack = obj.rounding_error(ev)
        step = 1.0
        for _ in range(60):
            Xn = trial(step, dX)
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


def _step_diagnostics(problem: JkoProblem, before: tuple[float, float],
                      final: _Evaluation, r: float, iterations: int
                      ) -> StepDiagnostics:
    """Ledger entries of one step: ``before = (E_internal, E_free)`` at
    ``Xprev``, everything else read off the final evaluation.

    The dissipation is ``|c'(v)|^{q*}`` by the optimality law; at
    ``q* = 2`` the square needs no ``abs``.  Means are sums over the ``m``
    cells divided by ``m``, as ``np.mean`` forms them.
    """
    k = problem.m
    qs = problem.cost.qstar
    cp = final.cp
    dissipation = np.square(cp) if qs == 2.0 else np.abs(cp) ** qs
    return StepDiagnostics(
        W_value=final.csum / k,
        E_internal_before=before[0],
        E_internal_after=final.e_int,
        E_free_before=before[1],
        E_free_after=final.e_free,
        second_moment=float((final.disp**2).sum()) / k,
        dissipation=float(dissipation.sum()) / k,
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
    Summed from the first term, it is the zero-started sum bit for bit; the
    last coefficient, ``C(p + 1, p + 1) = 1``, takes no multiply.
    """
    p = len(nodes) - 1
    guess = (p + 1) * nodes[0]
    term = np.empty_like(guess)
    for j in range(1, p + 1):
        t = nodes[j] if j == p else np.multiply(
            nodes[j], math.comb(p + 1, j + 1), out=term)
        (np.subtract if j % 2 else np.add)(guess, t, out=guess)
    guess[0] = max(guess[0], obj.pb.domain.a)
    guess[-1] = min(guess[-1], obj.pb.domain.b)
    if not (guess[1:] > guess[:-1]).all():
        return None
    ev = obj.evaluate(guess)
    return ev if ev.f <= f_prev else None


def jko_step_nodes(problem: JkoProblem, Xprev: np.ndarray,
                   run: _RunState | None = None
                   ) -> tuple[np.ndarray, StepDiagnostics]:
    """One minimizing-movement step in quantile coordinates.

    Without ``run`` the step starts cold at ``Xprev``, which it never writes
    to and may return as the step's nodes.  Inside a run, ``Xprev`` is
    ``run.nodes``: the step takes ``run.mid`` as ``P`` (formed again if
    None) and the carried energies as its starting ones, starts at the
    predictor through ``Xprev`` and ``run.back`` (module docstring), lets
    ``_newton_solve`` reuse and replace the run's last Hessian, and
    advances the run to the nodes it certifies.
    """
    obj = _StepObjective(problem, Xprev, None if run is None else run.mid)
    before = None if run is None else run.before
    start = cold = None
    if run is not None and run.back:
        start = _predictor(obj, [Xprev, *run.back], before[1])
    if start is None:
        start = cold = obj.evaluate(Xprev)
        if before is None:
            before = (start.e_int, start.e_free)
    final, nit, r = _newton_solve(obj, start, increasing=start is not cold,
                                  run=run)
    if final.w.min() <= obj.wmin:  # ``w``: the gaps clamped at ``wmin``
        gaps = final.X[1:] - final.X[:-1]
        raise ConvergenceError(
            f"mass cell collapsed to width {float(gaps.min()):.3e}; "
            "the evolution left the positive-density regime",
            best=final.X, residual=r)
    if final.f > before[1] and final.f > before[1] + obj.rounding_error(final):
        raise ConvergenceError("step increased the objective", best=final.X,
                               residual=r)
    if run is not None:
        run.advance(final)
    return final.X, _step_diagnostics(problem, before, final, r, nit)


def step_count(T: float, h: float) -> int:
    """Number of steps of size ``h`` to the horizon ``T``: ``T / h`` rounded
    to the nearest integer, a tie to the even one, so that ``T = h / 2``
    gives 0 steps and ``T = 1.5 h`` and ``T = 2.5 h`` both give 2.  A count
    outside 1..MAX_STEPS raises ``ParameterError``."""
    ratio = T / h
    steps = int(round(ratio)) if math.isfinite(ratio) else 0
    if not 1 <= steps <= MAX_STEPS:
        raise ParameterError(f"horizon T = {T!r} with step h = {h!r} gives "
                             f"{ratio:.3g} steps, needs 1..{MAX_STEPS}")
    return steps


def run_scheme(problem: JkoProblem, rho0: GridDensity, T: float,
               on_snapshot: Callable[[float, GridDensity], None] | None = None
               ) -> SchemeTrajectory:
    """Iterate the step solver up to the horizon ``T``.

    The evolution state is kept in quantile coordinates across steps; grid
    snapshots are derived views, rasterized straight from the nodes each
    step certified.  Once step ``k`` returns its start nodes ``X_k``, every
    later step poses step ``k``'s problem, which ``X_k`` already solves:
    the rest of the run appends step ``k``'s snapshot object and one copy
    of its record with zero iterations (module docstring).  A failing
    step aborts with the partial trajectory attached.
    ``on_snapshot(t, rho)``, if given, is called for ``rho0`` and right
    after each later snapshot is appended, so the snapshots of a partial
    trajectory are exactly the ones it was called with.
    """
    steps = step_count(T, problem.h)
    if rho0.domain != problem.domain:
        raise ParameterError("initial density lives on the wrong domain")
    if not rho0.strictly_positive:
        raise InvalidDensityError(
            "the scheme needs strictly positive initial data; "
            "floor degenerate data first")
    run = _RunState(to_quantiles(rho0, problem.m).X)
    times = [0.0]
    densities = [rho0]
    diags: list[StepDiagnostics] = []
    repeat = None  # the record of every step past a fixed point
    if on_snapshot is not None:
        on_snapshot(0.0, rho0)
    for k in range(1, steps + 1):
        if repeat is not None:
            diag = repeat
        else:
            X = run.nodes
            try:
                Xnext, diag = jko_step_nodes(problem, X, run)
            except ConvergenceError as exc:
                partial = SchemeTrajectory(times=tuple(times),
                                           densities=tuple(densities),
                                           diagnostics=tuple(diags))
                raise SchemeAbortError(f"step {k} failed: {exc}",
                                       partial=partial) from exc
            if (Xnext == X).all():  # every later step repeats this one
                repeat = replace(diag, iterations=0)
            rho = from_quantiles(problem.domain, Xnext, rho0.n)
        times.append(k * problem.h)
        densities.append(rho)
        diags.append(diag)
        if on_snapshot is not None:
            on_snapshot(times[-1], rho)
    return SchemeTrajectory(times=tuple(times), densities=tuple(densities),
                            diagnostics=tuple(diags))


# ---------------------------------------------------------------------------
# Euler-Lagrange residual on grid densities
# ---------------------------------------------------------------------------

def _binomial_smooth(w: np.ndarray) -> np.ndarray:
    # damps the cell-scale sawtooth that exact-mass rasterization leaves in
    # neighboring-cell increments; bias is O(dx^2) per pass
    for _ in range(_SMOOTH_PASSES):
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
    dw = np.gradient(_binomial_smooth(wv), rho_next.centers)
    rhs = problem.cost.conjugate_gradient(np.interp(y, rho_next.centers, dw))
    weights = np.full(y.size, 1.0 / y.size)
    num = float(np.sum(np.abs(lhs - rhs) * weights))
    den = float(np.sum(np.abs(rhs) * weights))
    return num / max(den, 1e-300)


# ---------------------------------------------------------------------------
# floor approximation for degenerate initial data
# ---------------------------------------------------------------------------

def floored_density(rho0: GridDensity, floor_delta: float) -> GridDensity:
    """Raise the density to at least ``floor_delta`` and renormalize.

    ``floor_delta`` must be > 0 and small enough that the floored mass is
    finite.
    """
    values = np.maximum(rho0.values, floor_delta)
    with np.errstate(over="ignore"):
        mass = np.sum(values) * rho0.dx
    if not (floor_delta > 0.0 and mass < math.inf):
        raise ParameterError(f"floor_delta must be > 0 with a finite floored "
                             f"mass, got {floor_delta!r}")
    return normalize(values, rho0.domain)[0]
