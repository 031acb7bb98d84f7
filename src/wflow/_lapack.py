"""LAPACK's ``dgtsv``, loaded from scipy's compiled extension alone.

``import scipy.linalg`` also loads scipy's array-API layer, which doubles
a command's start-up time; the extension itself needs only numpy.  It is
registered under its own name, so a later ``import scipy.linalg`` reuses it.
"""

import importlib.util
import os
import sys
from importlib.machinery import PathFinder

_FLAPACK = "scipy.linalg._flapack"


def _load_flapack():
    if _FLAPACK not in sys.modules:
        scipy = importlib.util.find_spec("scipy")  # locates, does not import
        dirs = [os.path.join(d, "linalg")
                for d in (scipy.submodule_search_locations if scipy else ())]
        spec = PathFinder.find_spec(_FLAPACK, dirs)
        if spec is None:
            raise ImportError(f"LAPACK extension {_FLAPACK} not found")
        sys.modules[_FLAPACK] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[_FLAPACK])
    return sys.modules[_FLAPACK]


dgtsv = _load_flapack().dgtsv
