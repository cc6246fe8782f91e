import contextlib
import warnings

import numpy as np
import pytest

# On a failing example Hypothesis' pytest plugin imports this module to
# print a patch; its libcst import raises mypy_extensions' TypedDict
# DeprecationWarning, which filterwarnings = error turns into an
# INTERNALERROR that ends the whole run.  Importing it here, once, with
# that one warning ignored keeps every other warning an error.  Without
# libcst the plugin prints no patch, and there is nothing to import.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.filterwarnings("ignore", message="mypy_extensions.TypedDict is deprecated",
                            category=DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401

from ael import MarketParams, SolverConfig, SpreadQuad
from ael.equilibrium import solve_fixed_point


@pytest.fixture(scope="session")
def main_params() -> MarketParams:
    """The default market used throughout: sigma in [0.1, 1.1], rho = 0."""
    return MarketParams(0.1, 1.1, 0.0)


@pytest.fixture(scope="session")
def solved_gamma2(main_params):
    """Converged equilibrium at gamma = 2, shared across test modules."""
    report = solve_fixed_point(main_params, SpreadQuad(2.0), SolverConfig())
    assert report.converged
    return report
