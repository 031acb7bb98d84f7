"""Cost functions, energy densities, potentials, and their convex calculus.

Costs are positive sums of powers ``c(z) = sum_i A_i |z|^{q_i}`` with
``A_i > 0`` and ``q_i > 1``; energies are positive combinations of ``x ln x``
and ``x^m / (m - 1)`` terms; potentials are quadratic (zero at kappa = 0)
or tabulated.  For these families every standing assumption of the
existence theory is a condition on the parameters.  Each constructor
enforces the hypotheses on its own spec; ``validate_assumptions`` checks the
two that couple a spec to another input: the energy's exponents to the
cost's, and a tabulated potential to the domain.  Everything is immutable after construction and
safe for concurrent reads.

Every spec method takes arrays (anything ``np.asarray`` takes) and returns
arrays of the input's shape; a scalar gives a 0-d result, which a caller that
needs a Python float wraps in ``float()``.  The flow inverts two increasing
derivatives, ``c'`` for ``(c*)' = (c')^{-1}`` and ``F'`` for stationary
states.  Single-term specs have closed forms; every other spec goes through
one root finder, ``_invert_increasing``.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import reduce
from operator import iadd
from typing import Callable

import numpy as np

from .errors import InvalidSpecError, ParameterError

_ROOT_TOL = 1e-12  # absolute residual of ``_invert_increasing``
_ROOT_MAX_ITER = 100
_CONVEXITY_SLACK = -1e-10
_CURVATURE_FLOOR = 1e-12  # |z| floor of the cost's curvature


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CostSpec:
    """Strictly convex radial cost ``c(z) = sum_i A_i |z|^{q_i}``.

    ``q`` is the dominating exponent, ``alpha`` the sum of coefficients and
    ``beta`` the total coefficient at the dominating exponent, so that
    ``beta |z|^q <= c(z) <= alpha (|z|^q + 1)`` on the whole line.
    """

    terms: tuple[tuple[float, float], ...]
    q: float = field(init=False)
    alpha: float = field(init=False)
    beta: float = field(init=False)

    def __post_init__(self):
        if not self.terms:
            raise InvalidSpecError("cost needs at least one term")
        terms = tuple((float(A), float(qi)) for A, qi in self.terms)
        for A, qi in terms:
            if not (0.0 < A < math.inf):
                raise InvalidSpecError(
                    f"cost coefficient must be > 0 and finite, got {A}")
            if not (1.0 < qi < math.inf):
                raise InvalidSpecError(
                    f"cost exponent must be > 1 and finite, got {qi}")
        object.__setattr__(self, "terms", terms)
        q = max(qi for _, qi in terms)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "alpha", sum(A for A, _ in terms))
        object.__setattr__(self, "beta", sum(A for A, qi in terms if qi == q))

    @classmethod
    def single_power(cls, q: float) -> "CostSpec":
        """The normalized power cost ``|z|^q / q``."""
        if not (q > 1.0):
            raise InvalidSpecError(f"cost exponent must be > 1, got {q}")
        return cls(terms=((1.0 / q, q),))

    @property
    def qstar(self) -> float:
        """Conjugate exponent of ``q``."""
        return self.q / (self.q - 1.0)

    def value(self, z):
        z = np.abs(np.asarray(z, dtype=float))
        return reduce(iadd, (A * z**qi for A, qi in self.terms))

    def derivative(self, z):
        z = np.asarray(z, dtype=float)
        az = np.abs(z)
        out = reduce(iadd, (A * qi * az ** (qi - 1.0) for A, qi in self.terms))
        out *= np.sign(z)
        return out

    def value_and_derivative(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(c(v), c'(v))`` on a float64 array from one ``|v|^(q_i - 1)``
        per term.

        ``c'`` equals ``derivative`` bit for bit; ``c`` is formed as
        ``A_i |v|^(q_i-1) |v|`` and so differs from ``value`` by a few ulp
        when ``q_i != 2``.  A factor that is exactly 1.0 (``A_i q_i`` of
        ``|z|^q / q``) is not multiplied by, which changes no bit.  A single
        quadratic term ``A v^2`` takes no power: ``c = v v A`` and
        ``c' = 2A v`` are the same bits (``|v|^1.0 = |v|`` and
        ``copysign(2A |v|, v) = 2A v``).  For ``|z|^2 / 2`` (``2A = 1``)
        ``c'`` is ``v`` itself, so a caller that writes to one writes to
        the other.
        """
        if len(self.terms) == 1 and self.terms[0][1] == 2.0:
            A = self.terms[0][0]
            c = v * v
            if A != 1.0:
                c *= A
            return c, (v if 2.0 * A == 1.0 else v * (2.0 * A))
        av = np.abs(v)
        c = cp = None
        for A, qi in self.terms:
            pw = av ** (qi - 1.0)
            ci = pw * av
            if A != 1.0:
                ci *= A
            if A * qi != 1.0:
                pw *= A * qi
            if c is None:
                c, cp = ci, pw
            else:
                c += ci
                cp += pw
        return c, np.copysign(cp, v, out=cp)

    def second_derivative(self, z):
        """Radial curvature ``c''``; |z| is floored to keep it finite."""
        az = np.maximum(np.abs(np.asarray(z, dtype=float)), _CURVATURE_FLOOR)
        return reduce(iadd, (A * qi * (qi - 1.0) * az ** (qi - 2.0)
                             for A, qi in self.terms))

    def _is_normalized_power(self) -> bool:
        if len(self.terms) != 1:
            return False
        A, qi = self.terms[0]
        return abs(A * qi - 1.0) <= 1e-14

    def conjugate(self, z):
        """Legendre transform value ``c*(z)``, vectorized."""
        return self.conjugate_pair(z)[0]

    def conjugate_gradient(self, z):
        """Gradient ``(c*)'(z)``, the inverse of ``c'``, vectorized."""
        z = np.asarray(z, dtype=float)
        if self._is_normalized_power():
            return np.sign(z) * np.abs(z) ** (self.qstar - 1.0)
        return _invert_increasing(self.derivative, self.second_derivative,
                                  np.abs(z)) * np.sign(z)

    def conjugate_pair(self, z):
        """Return ``(c*(z), (c*)'(z))`` together (shares the inversion)."""
        z = np.asarray(z, dtype=float)
        x = self.conjugate_gradient(z)
        if self._is_normalized_power():
            qs = self.qstar
            return np.abs(z) ** qs / qs, x
        return x * z - self.value(x), x


# ---------------------------------------------------------------------------
# internal energy densities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnergySpec:
    """Internal energy density: positive combination of admissible terms.

    Each term is ``("entropy", A)`` for ``A x ln x`` or ``("power", A, m)``
    for ``A x^m / (m - 1)`` with ``m > 0``, ``m != 1``.  ``F(0) = 0``, ``F``
    is strictly convex and twice differentiable on the open half line.
    """

    terms: tuple[tuple, ...]

    def __post_init__(self):
        if not self.terms:
            raise InvalidSpecError("energy needs at least one term")
        norm = []
        for term in self.terms:
            kind = term[0]
            if kind == "entropy":
                A = float(term[1])
                if not (0.0 < A < math.inf):
                    raise InvalidSpecError(
                        f"entropy coefficient must be > 0 and finite, got {A}")
                norm.append(("entropy", A))
            elif kind == "power":
                A, m = float(term[1]), float(term[2])
                if not (0.0 < A < math.inf):
                    raise InvalidSpecError(
                        f"power coefficient must be > 0 and finite, got {A}")
                if not (0.0 < m < math.inf) or m == 1.0:
                    raise InvalidSpecError(f"power exponent must be positive, "
                                           f"finite and != 1, got {m}")
                norm.append(("power", A, m))
            else:
                raise InvalidSpecError(f"unknown energy term kind {kind!r}")
        object.__setattr__(self, "terms", tuple(norm))

    @classmethod
    def entropy(cls, coeff: float = 1.0) -> "EnergySpec":
        return cls(terms=(("entropy", coeff),))

    @classmethod
    def power(cls, m: float, coeff: float = 1.0) -> "EnergySpec":
        """``coeff * x^m / (m - 1)``."""
        return cls(terms=(("power", coeff, m),))

    def value(self, x):
        """``F(x)`` with the continuous extension ``F(0) = 0``."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        pos = x > 0.0
        out[pos] = self.value_and_pressure(x[pos])[0]
        return out

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        return reduce(iadd, (
            t[1] * (np.log(x) + 1.0) if t[0] == "entropy"
            else t[1] * t[2] * x ** (t[2] - 1.0) / (t[2] - 1.0)
            for t in self.terms))

    def second_derivative(self, x):
        x = np.asarray(x, dtype=float)
        return reduce(iadd, (t[1] / x if t[0] == "entropy"
                             else t[1] * t[2] * x ** (t[2] - 2.0)
                             for t in self.terms))

    def value_and_pressure(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(F(x), P(x))`` on a float64 array with ``x > 0`` everywhere.

        ``P(x) = x F'(x) - F(x)`` is the quantity driving the flow.  Each
        term costs one ``log`` or one ``x^m``.  There is no branch for
        ``x <= 0`` (``value`` handles it): the step solver clamps cell widths
        at a positive floor, so its densities are positive.  A coefficient
        that is exactly 1.0 is not multiplied by, which changes no bit.  For
        the one term ``x ln x``, ``P`` is ``x`` itself, so a caller that
        writes to one writes to the other.
        """
        if self.terms == (("entropy", 1.0),):
            F = np.log(x)
            F *= x
            return F, x
        F = P = None
        for t in self.terms:
            if t[0] == "entropy":
                Pi = t[1] * x
                Fi = np.log(x)
                Fi *= Pi
            else:
                _, A, m = t
                Pi = x**m
                if A != 1.0:
                    Pi *= A
                Fi = Pi / (m - 1.0)
            if F is None:
                F, P = Fi, Pi
            else:
                F += Fi
                P += Pi
        return F, P

    def derivative_inverse(self, s):
        """Invert the strictly increasing ``F'``: 0 below its range, inf
        above it.  Vectorized; used to assemble stationary states."""
        s = np.asarray(s, dtype=float)
        if len(self.terms) > 1:
            return _invert_increasing(self.derivative, self.second_derivative, s)
        if self.terms[0][0] == "entropy":
            return np.exp(s / self.terms[0][1] - 1.0)
        _, A, m = self.terms[0]
        base = (m - 1.0) * s / (A * m)  # > 0 exactly inside the range of F'
        out = np.full_like(base, 0.0 if m > 1.0 else math.inf)
        inside = base > 0.0
        out[inside] = base[inside] ** (1.0 / (m - 1.0))
        return out


def _invert_increasing(fp: Callable, fpp: Callable, s) -> np.ndarray:
    """Solve ``fp(x) = s`` componentwise on ``[0, inf)``.

    ``fp`` is strictly increasing on ``(0, inf)`` with derivative ``fpp``.
    The root is 0 where ``s <= fp(0)`` and inf where no finite ``x`` has
    ``fp(x) >= s``.  Elsewhere a bracket ``[0, 2^k]`` is widened by
    doubling, then safeguarded Newton with a bisection fallback closes it
    to the absolute residual ``_ROOT_TOL``.
    """
    s = np.asarray(s, dtype=float)
    # the entropy's slope is -inf at 0; a power's overflows at the top
    with np.errstate(divide="ignore", over="ignore"):
        active = s > fp(0.0)
        top = fp(sys.float_info.max)
    x = np.where(active, math.inf, 0.0)
    active &= s <= top  # fp is below s on every float: the root stays inf
    sa = s[active]
    hi = np.ones_like(sa)
    with np.errstate(over="ignore"):  # a root past the floats leaves hi inf
        for _ in range(2000):
            need = (fp(hi) < sa) & (hi < math.inf)
            if not np.any(need):
                break
            hi[need] *= 2.0
    finite = hi < math.inf
    sa, hi = sa[finite], hi[finite]
    lo = np.zeros_like(hi)
    xa = 0.5 * hi
    resid = fp(xa) - sa
    for _ in range(_ROOT_MAX_ITER):
        done = np.abs(resid) <= _ROOT_TOL
        if np.all(done):
            break
        lo = np.where(resid < 0.0, xa, lo)
        hi = np.where(resid > 0.0, xa, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            step = resid / fpp(xa)
        cand = xa - step
        bad = ~np.isfinite(cand) | (cand <= lo) | (cand >= hi)
        cand = np.where(bad, 0.5 * (lo + hi), cand)
        xa = np.where(done, xa, cand)
        resid = fp(xa) - sa
    roots = np.full(finite.shape, math.inf)
    roots[finite] = xa
    x[active] = roots
    return x


# ---------------------------------------------------------------------------
# confining potentials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PotentialSpec:
    """Nonnegative convex potential on the closed domain.

    ``kind`` is ``quadratic`` (``kappa (x - x0)^2 / 2``; ``kappa = 0`` is the
    zero potential) or ``tabulated`` (piecewise-linear through convex samples).
    """

    kind: str
    kappa: float = 0.0
    center: float = 0.0
    xs: tuple[float, ...] = ()
    vs: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind == "quadratic":
            if not (0.0 <= self.kappa < np.inf and abs(self.center) < np.inf):
                raise InvalidSpecError(
                    "quadratic potential needs finite kappa >= 0 and center")
            return
        if self.kind == "tabulated":
            xs = np.asarray(self.xs, dtype=float)
            vs = np.asarray(self.vs, dtype=float)
            if xs.size < 2 or xs.size != vs.size:
                raise InvalidSpecError("tabulated potential needs matching x/v samples")
            if not (np.isfinite(xs).all() and np.isfinite(vs).all()):
                raise InvalidSpecError("tabulated potential samples must be finite")
            if np.any(np.diff(xs) <= 0):
                raise InvalidSpecError("tabulated potential nodes must increase")
            if np.any(vs < 0):
                raise InvalidSpecError("potential must be nonnegative")
            slopes = np.diff(vs) / np.diff(xs)
            if np.any(np.diff(slopes) < _CONVEXITY_SLACK):
                raise InvalidSpecError("tabulated potential samples are not convex")
            object.__setattr__(self, "xs", tuple(float(v) for v in xs))
            object.__setattr__(self, "vs", tuple(float(v) for v in vs))
            return
        raise InvalidSpecError(f"unknown potential kind {self.kind!r}")

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls.quadratic(kappa=0.0)

    @classmethod
    def quadratic(cls, kappa: float = 1.0, center: float = 0.0) -> "PotentialSpec":
        return cls(kind="quadratic", kappa=kappa, center=center)

    @classmethod
    def tabulated(cls, xs, vs) -> "PotentialSpec":
        return cls(kind="tabulated", xs=tuple(xs), vs=tuple(vs))

    @property
    def is_zero(self) -> bool:
        return self.kind == "quadratic" and self.kappa == 0.0

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            return 0.5 * self.kappa * (x - self.center) ** 2
        return np.interp(x, self.xs, self.vs)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            return self.kappa * (x - self.center)
        xs = np.asarray(self.xs)
        slopes = np.diff(np.asarray(self.vs)) / np.diff(xs)
        idx = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, len(slopes) - 1)
        # ``value`` holds V flat beyond the table (np.interp)
        return np.where((x < xs[0]) | (x > xs[-1]), 0.0, slopes[idx])

    def value_and_derivative(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(V(x), V'(x))`` on an array, bit for bit ``value`` and
        ``derivative``; a quadratic forms ``x - center`` once for both."""
        if self.kind != "quadratic":
            return self.value(x), self.derivative(x)
        d = x - self.center
        return 0.5 * self.kappa * d**2, self.kappa * d

    def second_derivative(self, x):
        # Piecewise-linear tables carry no usable curvature; report 0 there.
        x = np.asarray(x, dtype=float)
        if self.kind == "quadratic":
            return np.full_like(x, self.kappa)
        return np.zeros_like(x)


# ---------------------------------------------------------------------------
# assumption validation
# ---------------------------------------------------------------------------

def validate_assumptions(cost: CostSpec, energy: EnergySpec,
                         potential: PotentialSpec,
                         domain: tuple[float, float] | None = None) -> None:
    """Check the two standing assumptions that couple a spec to another input.

    Every hypothesis on one spec alone is its constructor's, so no spec that
    can be built fails it:

    - ``CostSpec`` takes terms with finite ``A_i > 0`` and ``q_i > 1``
      only, so ``c`` vanishes only at 0, ``c(z)/|z|`` increases without
      bound and ``beta |z|^q <= c(z) <= alpha (|z|^q + 1)``;
    - ``EnergySpec`` takes finite coefficients ``> 0`` and finite power
      exponents ``m > 0`` only, so ``x F(1/x)`` is convex
      (``m >= 1 - 1/d`` in dimension ``d = 1``), and ``F`` is superlinear
      (an entropy term or some ``m > 1``) or else decreasing (every
      ``m < 1``);
    - ``PotentialSpec`` takes a finite ``kappa >= 0`` and center, and convex
      tables of finite values ``>= 0`` at finite nodes only.

    The two checked here raise ``InvalidSpecError`` naming the check and its
    witness:

    - ``energy-power-range``: power exponents ``m < 1`` need ``m >= 1/q``;
    - ``potential-convexity``: V is held flat beyond its table (np.interp),
      so a table end inside ``domain`` must not meet that flat piece in a
      concave kink (tested with the constructor's slack).
    """
    for t in energy.terms:
        if t[0] == "power" and t[2] < 1.0 and t[2] < 1.0 / cost.q:
            raise InvalidSpecError(f"energy-power-range (m = {t[2]!r} "
                                   f"< 1/q = {1.0 / cost.q!r})")
    if potential.kind != "tabulated" or domain is None:
        return
    xs, vs = potential.xs, potential.vs
    a, b = domain
    first = (vs[1] - vs[0]) / (xs[1] - xs[0])
    last = (vs[-1] - vs[-2]) / (xs[-1] - xs[-2])
    # the slope jumps by ``first`` at the left end and by ``-last`` at the right
    for x, slope, jump in ((xs[0], first, first), (xs[-1], last, -last)):
        if a < x < b and jump < _CONVEXITY_SLACK:
            raise InvalidSpecError(f"potential-convexity (table end x = {x!r} "
                                   f"meets the flat extension with slope "
                                   f"{slope!r})")


# ---------------------------------------------------------------------------
# named problem families
# ---------------------------------------------------------------------------

# the exponents (``m``, ``p``, ``n``) each preset of ``preset_specs`` reads
PRESET_EXPONENTS = {"fokker-planck": "", "porous-medium": "m",
                    "fast-diffusion": "m", "p-laplacian": "p",
                    "doubly-degenerate": "np"}


def preset_specs(name: str, m: float | None = None, p: float | None = None,
                 n: float | None = None) -> tuple[CostSpec, EnergySpec]:
    """Cost/energy pair for the classical model families (one dimension).

    ``fokker-planck``    quadratic cost with ``x ln x``
    ``porous-medium``    quadratic cost with ``x^m/(m-1)``, ``m > 1``
    ``fast-diffusion``   quadratic cost with ``x^m/(m-1)``, ``1/2 <= m < 1``
    ``p-laplacian``      dual-power cost, ``x^m/(m(m-1))`` with
                         ``m = (2p-3)/(p-1)``, ``p >= (1 + sqrt 5)/2``
    ``doubly-degenerate`` dual-power cost, ``n x^m/(m(m-1))`` with
                         ``m = n + (p-2)/(p-1)``, ``p > 1``,
                         ``n >= 1/(p(p-1))`` and ``n != 1/(p-1)``

    The dual-power windows are those where the energy exponent passes the
    ``energy-power-range`` check, ``m >= 1/q`` with ``q = p/(p-1)``: for
    ``p-laplacian`` that is ``p^2 - p - 1 >= 0``, for ``doubly-degenerate``
    ``n >= 1/(p(p-1))``.  The test here is the validator's own comparison,
    so a preset it accepts never fails that check.
    """
    if name == "fokker-planck":
        return CostSpec.single_power(2.0), EnergySpec.entropy()
    if name == "porous-medium":
        if m is None or not (m > 1.0):
            raise ParameterError("porous-medium preset needs m > 1")
        return CostSpec.single_power(2.0), EnergySpec.power(m)
    if name == "fast-diffusion":
        if m is None or not (0.5 <= m < 1.0):
            raise ParameterError("fast-diffusion preset needs 1/2 <= m < 1")
        return CostSpec.single_power(2.0), EnergySpec.power(m)
    if name == "p-laplacian":
        window = "p-laplacian preset needs p >= (1 + sqrt 5)/2 = 1.618..."
        if p is None or not (p > 1.0):
            raise ParameterError(window)
        q = p / (p - 1.0)
        mm = (2.0 * p - 3.0) / (p - 1.0)
        if not (mm >= 1.0 / q):
            raise ParameterError(f"{window}; p = {p!r} gives m = {mm!r} "
                                 f"< 1/q = {1.0 / q!r}")
        if mm == 1.0:  # p = 2 degenerates to the heat equation
            return CostSpec.single_power(q), EnergySpec.entropy()
        return CostSpec.single_power(q), EnergySpec.power(mm, coeff=1.0 / mm)
    if name == "doubly-degenerate":
        if p is None or n is None:
            raise ParameterError("doubly-degenerate preset needs n and p")
        if not (p > 1.0):
            raise ParameterError("doubly-degenerate preset needs p > 1")
        q = p / (p - 1.0)
        mm = n + (p - 2.0) / (p - 1.0)
        if not (mm >= 1.0 / q) or n == 1.0 / (p - 1.0):
            raise ParameterError(
                f"doubly-degenerate preset needs n >= 1/(p(p-1)) = "
                f"{1.0 / (p * (p - 1.0)):.6g} and n != 1/(p-1)")
        return CostSpec.single_power(q), EnergySpec.power(mm, coeff=n / mm)
    raise ParameterError(f"unknown preset {name!r}")
