"""Degree-distribution parsing and catalog loading."""

import math

import pytest

from wzkit.degrees import (DegreeDistribution, design_rate, load_catalog,
                           parse_catalog, parse_polynomial)


class TestParsePolynomial:
    def test_exponent_plus_one_is_node_degree(self):
        assert parse_polynomial("0.5 x^1 + 0.5 x^3") == ((2, 0.5), (4, 0.5))

    def test_single_term(self):
        assert parse_polynomial("1.0 x^9") == ((10, 1.0),)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            parse_polynomial("0.5 y^2 + 0.5 x^3")

    @pytest.mark.parametrize("text", ["", " + ", "+"])
    def test_empty_polynomial_rejected(self, text):
        with pytest.raises(ValueError, match="empty polynomial"):
            parse_polynomial(text)


class TestDegreeDistribution:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            DegreeDistribution(((2, 0.5),), ((3, 1.0),))

    def test_degrees_strictly_increasing(self):
        with pytest.raises(ValueError):
            DegreeDistribution(((3, 0.5), (2, 0.5)), ((3, 1.0),))

    @pytest.mark.parametrize("lam, rho, message", [
        ((), ((3, 1.0),), "lambda side has no terms"),
        (((3, 1.0),), (), "rho side has no terms"),
        (((1, 0.5), (3, 0.5)), ((3, 1.0),), "lambda node degrees must be >= 2"),
        (((3, 1.0),), ((1, 1.0),), "rho node degrees must be >= 2"),
        (((2, 1.5), (3, -0.5)), ((3, 1.0),), r"lambda fractions must lie in "
                                             r"\(0, 1\]"),
        (((3, 1.0),), ((2, 0.0), (3, 1.0)), r"rho fractions must lie in "
                                            r"\(0, 1\]")],
        ids=["no-lambda", "no-rho", "lambda-degree-1", "rho-degree-1",
             "lambda-out-of-range", "rho-zero"])
    def test_malformed_sides_rejected(self, lam, rho, message):
        with pytest.raises(ValueError, match=message):
            DegreeDistribution(lam, rho)


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


    @pytest.mark.parametrize("lam, rho, rate", [
        ("1.0 x^1", "1.0 x^1", "0.0"),     # equal sides: rate 0
        ("1.0 x^2", "1.0 x^1", "-0.5")])   # checks lighter than variables
    def test_rate_outside_unit_interval_rejected(self, lam, rho, rate):
        dist = DegreeDistribution(parse_polynomial(lam), parse_polynomial(rho))
        with pytest.raises(ValueError,
                           match=rf"^design rate {rate} outside \(0, 1\)$"):
            design_rate(dist)


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
        assert entry.dist.lambda_terms[-1][0] == 67

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

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError, match="duplicate catalog id 'c'"):
            parse_catalog(self.entry("1.0 x^2") + self.entry("1.0 x^3"))

    def test_unrecognized_line_rejected(self):
        with pytest.raises(ValueError,
                           match="unrecognized catalog line: 'stray words'"):
            parse_catalog(self.entry("1.0 x^2") + "stray words\n")

    def test_parse_catalog_rejects_missing_field(self):
        with pytest.raises(ValueError):
            parse_catalog("code broken\nlambda: 1.0 x^2\n")

    def test_load_catalog_is_parse_of_packaged_text(self, catalog):
        for entry in catalog.values():
            assert 0.0 < entry.one_minus_r2 < 1.0
