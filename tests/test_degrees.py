"""Degree-distribution parsing, catalog loading, and weight sequences."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wzkit.builder import CodeParams
from wzkit.degrees import (DegreeDistribution, PoissonWeightSpec, design_rate,
                           load_catalog, parse_catalog, parse_polynomial,
                           poisson_counts)


class TestParsePolynomial:
    def test_exponent_plus_one_is_node_degree(self):
        assert parse_polynomial("0.5 x^1 + 0.5 x^3") == ((2, 0.5), (4, 0.5))

    def test_single_term(self):
        assert parse_polynomial("1.0 x^9") == ((10, 1.0),)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_polynomial("0.5 y^2 + 0.5 x^3")


class TestDegreeDistribution:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DegreeDistribution(((2, 0.5),), ((3, 1.0),))

    def test_degrees_strictly_increasing(self):
        with pytest.raises(ValueError):
            DegreeDistribution(((3, 0.5), (2, 0.5)), ((3, 1.0),))


class TestDesignRate:
    def test_regular_pair_exact(self):
        # a (v, c)-regular profile has rate exactly 1 - v/c
        dist = DegreeDistribution(((3, 1.0),), ((6, 1.0),))
        assert math.isclose(design_rate(dist), 0.5, abs_tol=1e-12)
        dist = DegreeDistribution(((22, 1.0),), ((25, 1.0),))
        assert math.isclose(design_rate(dist), 0.12, abs_tol=1e-12)

    def test_mixed_profile_hand_computed(self):
        # edge fractions 0.5 at degrees 2 and 4 on both sides:
        # 1 - (0.5/3 + 0.5/5) / (0.5/2 + 0.5/4) = 1 - (4/15)/(3/8)
        dist = DegreeDistribution(((2, 0.5), (4, 0.5)), ((3, 0.5), (5, 0.5)))
        assert math.isclose(design_rate(dist), 1.0 - (4 / 15) / (3 / 8),
                            abs_tol=1e-12)


class TestCatalog:
    def test_all_entries_present(self, catalog):
        assert set(catalog) == {
            "code1", "code2", "code3", "code4", "code5", "code11", "code13",
            "code14", "regular-9-10", "regular-7-8", "regular-3-10",
            "regular-22-25", "regular-17-20"}

    def test_entry_fields(self, catalog):
        entry = catalog["code3"]
        assert entry.code_id == "code3"
        assert entry.one_minus_r2 == 0.843
        assert entry.dist.rho_terms == ((4, 0.5), (5, 0.5))
        assert entry.dist.max_lambda_degree == 67

    def test_code3_design_rate_frozen(self, catalog):
        # long-hand: 1 - (0.5/4 + 0.5/5) / sum(f_i / d_i) after renormalizing
        # the catalog's lambda fractions (they total 0.9997)
        assert abs(design_rate(catalog["code3"].dist) - 0.15012) < 1e-4

    @staticmethod
    def entry(lam: str) -> str:
        return f"code c\nlambda: {lam}\nrho: 1.0 x^3\none_minus_r2: 0.5\n"

    def test_near_one_total_renormalizes(self):
        dist = parse_catalog(self.entry("0.3334 x^1 + 0.6664 x^2"))["c"].dist
        assert math.isclose(sum(f for _, f in dist.lambda_terms), 1.0,
                            abs_tol=1e-12)

    def test_total_too_far_from_one_rejected(self):
        with pytest.raises(ValueError, match="lambda fractions sum to 0.9"):
            parse_catalog(self.entry("0.3 x^1 + 0.6 x^2"))

    def test_parse_catalog_rejects_missing_field(self):
        with pytest.raises(ValueError):
            parse_catalog("code broken\nlambda: 1.0 x^2\n")

    def test_load_catalog_is_parse_of_packaged_text(self, catalog):
        for entry in catalog.values():
            assert 0.0 < entry.one_minus_r2 < 1.0


class TestPoissonCounts:
    def test_total_and_cap(self):
        spec = PoissonWeightSpec(lam=7.15, i_max=16, count=150)
        counts = poisson_counts(spec)
        assert len(counts.weights) == 150
        assert all(1 <= w <= 16 for w in counts.weights)
        assert list(counts.weights) == sorted(counts.weights)

    def test_mean_tracks_lambda(self):
        counts = poisson_counts(PoissonWeightSpec(lam=20.0, i_max=60, count=4000))
        mean = sum(counts.weights) / len(counts.weights)
        assert abs(mean - 20.0) < 1.0

    def test_deterministic(self):
        spec = PoissonWeightSpec(lam=5.0, i_max=20, count=64)
        assert poisson_counts(spec) == poisson_counts(spec)


def reference_poisson_counts(spec):
    """poisson_counts with scipy's pmf, as it was computed before the pmf
    moved to math.lgamma; the bucket counts must agree."""
    from scipy.stats import poisson
    pmf = poisson.pmf(np.arange(1, spec.i_max + 1), spec.lam)
    counts = [int(math.floor(p * spec.count + 0.5)) for p in pmf]
    total = sum(counts)
    if total == 0:
        raise ValueError("all weight buckets empty")
    if total < spec.count:
        fullest = max(range(len(counts)), key=lambda i: (counts[i], -i))
        counts[fullest] += spec.count - total
    elif total > spec.count:
        excess = total - spec.count
        for i in range(len(counts) - 1, -1, -1):
            take = min(excess, counts[i])
            counts[i] -= take
            excess -= take
            if excess == 0:
                break
    return tuple(counts)


def generator_spec(params: CodeParams) -> PoissonWeightSpec:
    """The spec generator design draws its row weights from."""
    return PoissonWeightSpec(params.poisson_lam, params.poisson_imax,
                             params.info_rows)


def shipped_specs():
    root = Path(__file__).resolve().parent.parent
    fields = ("n", "m", "k1", "k2", "zeta", "poisson_lam", "poisson_imax")
    specs = []
    for path in sorted((root / "configs").glob("*.json")):
        for entry in json.loads(path.read_text())["experiments"]:
            specs.append(generator_spec(
                CodeParams(**{k: entry[k] for k in fields})))
    return specs


# the two benchmark geometries (code11 at n = 4000, code3 at n = 2000)
BENCH_SPECS = [
    generator_spec(CodeParams(n=4000, m=7200, k1=3270, k2=1106, zeta=10,
                              poisson_lam=44.27, poisson_imax=100)),
    generator_spec(CodeParams(n=2000, m=1914, k1=400, k2=1200, zeta=10,
                              poisson_lam=71.495, poisson_imax=160)),
]


class TestPoissonCountsAgainstScipy:
    def test_shipped_configs_and_benchmark_geometries(self):
        specs = shipped_specs() + BENCH_SPECS
        assert len(specs) == 21
        for spec in specs:
            assert poisson_counts(spec).counts == reference_poisson_counts(spec)

    def test_random_grid(self):
        rng = random.Random(0xB0C)
        checked = 0
        for _ in range(400):
            spec = PoissonWeightSpec(lam=rng.uniform(0.5, 200.0),
                                     i_max=rng.randint(1, 400),
                                     count=rng.randint(1, 200_000))
            try:
                want = reference_poisson_counts(spec)
            except ValueError:
                with pytest.raises(ValueError, match="buckets empty"):
                    poisson_counts(spec)
                continue
            assert poisson_counts(spec).counts == want, spec
            checked += 1
        assert checked >= 300

    def test_leaves_scipy_stats_unloaded(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from wzkit.degrees import PoissonWeightSpec, "
             "poisson_counts; poisson_counts(PoissonWeightSpec(44.27, 100, "
             "3930)); print('scipy.stats' in sys.modules)"],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert proc.stdout.strip() == "False"
