"""The LAPACK tridiagonal solver that the step and reference solvers share."""

import importlib.util
import sys

import numpy as np
import pytest
import scipy.linalg.lapack

from wflow import _lapack, jko, refsolve


def test_dgtsv_is_scipys_and_solves_a_tridiagonal_system():
    # wflow loads scipy's LAPACK extension by itself; whichever of wflow and
    # scipy.linalg comes first, both must hold the one module object
    assert scipy.linalg.lapack.dgtsv is jko.dgtsv
    assert jko.dgtsv is refsolve.dgtsv
    rng = np.random.default_rng(16)
    n = 40
    sub, sup = rng.uniform(-1.0, 1.0, n - 1), rng.uniform(-1.0, 1.0, n - 1)
    diag = rng.uniform(2.0, 3.0, n)  # strictly diagonally dominant
    rhs = rng.standard_normal(n)
    dense = np.diag(diag) + np.diag(sub, -1) + np.diag(sup, 1)
    *_, x, info = jko.dgtsv(sub, diag, sup, rhs)
    assert info == 0
    np.testing.assert_allclose(x, np.linalg.solve(dense, rhs),
                               rtol=1e-12, atol=1e-14)


def test_missing_extension_raises_import_error(monkeypatch):
    # no fallback to a second import path: the loader names what is missing
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: None)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        _lapack._load_flapack()
