"""Exact optimal transport on the line.

For strictly convex costs of the displacement, the optimal coupling between
two densities pairs their quantiles (``density.to_quantiles``); the
brute-force oracle certifies that optimality on small discrete instances.
"""

from __future__ import annotations

import itertools

import numpy as np

from .convex import CostSpec
from .errors import ParameterError

EXHAUSTIVE_LIMIT = 8
ORACLE_LIMIT = 64


# ---------------------------------------------------------------------------
# brute-force oracle on equal-weight atoms
# ---------------------------------------------------------------------------

def lp_oracle(atoms0, atoms1, cost: CostSpec, h: float) -> float:
    """Cost of the exact optimal assignment between equal-weight atom lists.

    Up to 8 atoms every permutation is enumerated; up to 64 atoms an exact
    assignment solve is used.  Exists to certify the monotone solver, not
    for production transport.
    """
    x = np.asarray(atoms0, dtype=float)
    y = np.asarray(atoms1, dtype=float)
    if x.ndim != 1 or x.shape != y.shape or x.size == 0:
        raise ParameterError("atom lists must be nonempty 1-D of equal length")
    k = x.size
    if k > ORACLE_LIMIT:
        raise ParameterError(f"oracle certifies at most {ORACLE_LIMIT} atoms, got {k}")
    if not (h > 0.0):
        raise ParameterError(f"scaling h must be positive, got {h}")
    C = cost.value((x[:, None] - y[None, :]) / h)
    if k <= EXHAUSTIVE_LIMIT:
        perms = np.array(list(itertools.permutations(range(k))), dtype=np.intp)
        totals = C[np.arange(k)[None, :], perms].sum(axis=1)
        best = perms[int(np.argmin(totals))]
    else:
        from scipy.optimize import linear_sum_assignment
        _, best = linear_sum_assignment(C)
    return float(C[np.arange(k), best].mean())


def monotone_atom_cost(atoms0, atoms1, cost: CostSpec, h: float) -> float:
    """Cost of the sorted (monotone) pairing of two atom lists."""
    x = np.sort(np.asarray(atoms0, dtype=float))
    y = np.sort(np.asarray(atoms1, dtype=float))
    if x.shape != y.shape:
        raise ParameterError("atom lists must have equal length")
    return float(np.mean(cost.value((x - y) / h)))
