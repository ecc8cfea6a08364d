import importlib

import numpy as np
import pytest

from spinphase import IntegratorConfig


def _importable(module: str) -> bool:
    try:
        importlib.import_module(module)
    except ImportError:
        return False
    return True


# DOP853 is scipy's solve_ivp, and scipy is a test dependency the numpy-only CI job leaves out:
# the DOP853 cross-checks skip there and run wherever scipy is installed
HAS_SCIPY = _importable("scipy.integrate")
needs_scipy = pytest.mark.skipif(not HAS_SCIPY, reason="DOP853 needs scipy")
METHODS = ["magnus4", pytest.param("DOP853", marks=needs_scipy)]


@pytest.fixture
def tight_cfg():
    return IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)


def uniform_grid_cfg(t_span, n, rel_tol=1e-11, abs_tol=1e-13):
    return IntegratorConfig(
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        dense_output_grid=np.linspace(t_span[0], t_span[1], n),
    )
