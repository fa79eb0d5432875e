"""Shared fixtures: two small compound codes sized for fast unit tests, the
benchmark's CLI-geometry code, and the slow marker on every test that uses
the n = 10^4 scaled_code build."""

import pytest

from wzkit.builder import CodeParams, build_compound_code
from wzkit.degrees import DegreeDistribution, load_catalog
from wzkit.gf2 import BitMatrix, _bit_indices

TINY_CATALOG_TEXT = """\
code tiny
lambda: 1.0 x^2
rho: 0.571429 x^2 + 0.428571 x^3
one_minus_r2: 0.875
"""

TINY_PARAMS = CodeParams(n=96, m=92, k1=20, k2=60)

SMALL_PARAMS = CodeParams(n=200, m=190, k1=40, k2=120)

# code3 at n = 2000: the geometry of the perfbench cli-code3-p05 workload
CLI_PARAMS = CodeParams(n=2000, m=1914, k1=400, k2=1200)

# code11 at n = 4000: the geometry of the perfbench code11-p05 workload
CODE11_PARAMS = CodeParams(n=4000, m=7200, k1=3270, k2=1106)

# geometries that pass validate_params but whose catalog profile has no
# degree sequences at the half matrix's shape: (profile id, geometry, the
# profile_fit failure)
UNFIT_PROFILES = [
    ("code3", CodeParams(n=10000, m=9570, k1=2000, k2=7200),
     "cannot realize check degrees: residual -380 edges"),
    ("code5", CodeParams(n=10000, m=12000, k1=2180, k2=9600),
     "cannot realize check degrees: residual -51 edges"),
    ("code11", CodeParams(n=10000, m=18000, k1=8176, k2=2964),
     "cannot realize check degrees: residual -145 edges"),
    ("regular-3-10", CodeParams(n=10000, m=18000, k1=8236, k2=3264),
     "cannot realize check degrees: residual -2500 edges"),
    ("code1", CodeParams(n=20, m=23, k1=11, k2=8),
     "a degree-11 variable needs 11 distinct checks but only 8 exist"),
]


def packed_matrix(rows: int, cols: int, bitrows) -> BitMatrix:
    """The rows x cols matrix whose row i has bit c of bitrows[i] at column
    c."""
    return BitMatrix(rows, cols, [_bit_indices(bits) for bits in bitrows])


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


@pytest.fixture(scope="session")
def cli_code(catalog):
    """The cli-code3-p05 workload's code: code3 at n = 2000, seed 20260815."""
    return build_compound_code(CLI_PARAMS, catalog["code3"].dist,
                               seed=20260815, dist_id="code3")


def pytest_collection_modifyitems(items):
    for item in items:
        if "scaled_code" in getattr(item, "fixturenames", ()):
            item.add_marker(pytest.mark.slow)
