"""Shared fixtures: two small compound codes sized for fast unit tests, and
the slow marker on every test that uses the n = 10^4 scaled_code build."""

import pytest

from wzkit.builder import CodeParams, build_compound_code
from wzkit.degrees import DegreeDistribution, load_catalog

TINY_CATALOG_TEXT = """\
code tiny
lambda: 1.0 x^2
rho: 0.571429 x^2 + 0.428571 x^3
one_minus_r2: 0.875
"""

TINY_PARAMS = CodeParams(n=96, m=92, k1=20, k2=60, zeta=4,
                         poisson_lam=6.0, poisson_imax=20)

SMALL_PARAMS = CodeParams(n=200, m=190, k1=40, k2=120, zeta=10,
                          poisson_lam=40.0, poisson_imax=100)


def tiny_dist() -> DegreeDistribution:
    return DegreeDistribution(((3, 1.0),), ((3, 0.571429), (4, 0.428571)))


@pytest.fixture(scope="session")
def catalog():
    return load_catalog()


@pytest.fixture(scope="session")
def tiny_code():
    """96-bit compound code on a uniform degree-3 profile; builds in well under a second."""
    return build_compound_code(TINY_PARAMS, tiny_dist(), seed=5, dist_id="tiny")


@pytest.fixture(scope="session")
def small_code(catalog):
    """200-bit compound code on the code3 profile, same shape ratios as the large runs."""
    return build_compound_code(SMALL_PARAMS, catalog["code3"].dist, seed=11,
                               dist_id="code3")


def pytest_collection_modifyitems(items):
    for item in items:
        if "scaled_code" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
