"""End-to-end pipeline, analytic bound, and the experiment harness."""

import io
import random

import pytest

from conftest import TINY_PARAMS
from wzkit import quantizer
from wzkit.builder import CodeParams
from wzkit.codec import (CSV_COLUMNS, CompoundQuantizer, ExperimentConfig,
                         binary_convolve, binary_entropy, bound_curve, decode,
                         encode, invert_bound, plan_rates, run_experiment,
                         time_share, write_curve_csv, write_results_csv,
                         wz_boundary, wz_rate)
from wzkit.gf2 import BitVector, ShapeError, mul_vec
from wzkit.quantizer import generator_codeword


class TestBinaryEntropy:
    def test_known_values(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0
        assert binary_entropy(0.25) == pytest.approx(0.8112781244591328)

    def test_symmetry(self):
        for x in (0.01, 0.11, 0.3):
            assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x))

    @pytest.mark.parametrize("x", [-0.01, 1.01])
    def test_domain(self, x):
        with pytest.raises(ValueError):
            binary_entropy(x)


class TestBinaryConvolve:
    def test_identity_and_absorbing(self):
        assert binary_convolve(0.3, 0.0) == pytest.approx(0.3)
        assert binary_convolve(0.3, 0.5) == pytest.approx(0.5)

    def test_commutative_formula(self):
        a, b = 0.08, 0.25
        assert binary_convolve(a, b) == pytest.approx(binary_convolve(b, a))
        assert binary_convolve(a, b) == pytest.approx(a * (1 - b) + b * (1 - a))


class TestBoundary:
    def test_quarter_crossover(self):
        d_c, rate = wz_boundary(0.25)
        assert d_c == pytest.approx(0.088, abs=1e-3)
        assert rate == pytest.approx(0.444, abs=1e-3)

    def test_five_percent_crossover(self):
        d_c, rate = wz_boundary(0.05)
        assert d_c == pytest.approx(0.0014, abs=5e-4)
        assert rate == pytest.approx(0.2764, abs=1e-3)

    def test_tangency_identity(self):
        # the chord from the switch point to (p, 0) must match the curve's
        # slope there; checked with a central finite difference
        for p in (0.25, 0.05, 0.4):
            d_c, rate = wz_boundary(p)
            curve = lambda d: (binary_entropy(binary_convolve(d, p))
                               - binary_entropy(d))
            assert rate == pytest.approx(curve(d_c), abs=1e-9)
            eps = d_c * 1e-5
            slope = (curve(d_c + eps) - curve(d_c - eps)) / (2 * eps)
            assert slope == pytest.approx(-rate / (p - d_c), rel=1e-4)

    def test_domain(self):
        for p in (0.0, 0.5, -0.1):
            with pytest.raises(ValueError):
                wz_boundary(p)


class TestWzRate:
    def test_endpoints(self):
        p = 0.25
        assert wz_rate(0.0, p) == pytest.approx(binary_entropy(p))
        assert wz_rate(p, p) == 0.0
        assert wz_rate(0.4, p) == 0.0

    def test_chord_region_is_linear(self):
        p = 0.25
        d_c, r_c = wz_boundary(p)
        for d in (0.1, 0.15, 0.2):
            assert wz_rate(d, p) == pytest.approx(r_c * (p - d) / (p - d_c),
                                                  abs=1e-9)

    def test_curve_region(self):
        p = 0.25
        for d in (0.01, 0.05, 0.08):
            expected = (binary_entropy(binary_convolve(d, p))
                        - binary_entropy(d))
            assert wz_rate(d, p) == pytest.approx(expected, abs=1e-12)

    def test_monotone_and_convex(self):
        p = 0.25
        grid = [i * p / 60 for i in range(61)]
        rates = [wz_rate(d, p) for d in grid]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))
        for i in range(1, 60):
            assert rates[i] <= (rates[i - 1] + rates[i + 1]) / 2 + 1e-9


class TestInvertBound:
    def test_roundtrip(self):
        p = 0.25
        for rate in (0.6, 0.444, 0.3, 0.1):
            d = invert_bound(rate, p)
            assert wz_rate(d, p) == pytest.approx(rate, abs=1e-7)

    def test_edges(self):
        p = 0.25
        assert invert_bound(0.0, p) == pytest.approx(p, abs=1e-7)
        assert invert_bound(binary_entropy(p), p) == pytest.approx(0.0,
                                                                   abs=1e-7)


class TestPlanRates:
    def test_identities(self):
        p, d1 = 0.25, 0.08
        plan = plan_rates(p, d1)
        q = binary_convolve(d1, p)
        assert plan.crossover == pytest.approx(p)
        assert plan.quant_distortion == d1
        assert plan.quant_rate_min == pytest.approx(1 - binary_entropy(d1))
        assert plan.code_rate_max == pytest.approx(1 - binary_entropy(q))
        assert plan.wz_rate_min == pytest.approx(
            binary_entropy(q) - binary_entropy(d1))

    def test_domain(self):
        with pytest.raises(ValueError):
            plan_rates(0.5, 0.1)
        with pytest.raises(ValueError):
            plan_rates(0.25, 0.6)


class TestTimeShare:
    def test_endpoints(self):
        assert time_share(0.6, 0.05, 0.25, 1.0) == (0.6, 0.05)
        assert time_share(0.6, 0.05, 0.25, 0.0) == (0.0, 0.25)

    def test_midpoint(self):
        rate, dist = time_share(0.6, 0.05, 0.25, 0.5)
        assert rate == pytest.approx(0.3)
        assert dist == pytest.approx(0.15)

    def test_domain(self):
        with pytest.raises(ValueError):
            time_share(0.6, 0.05, 0.25, 1.5)


class TestBoundCurve:
    def test_endpoints_and_length(self):
        pts = bound_curve(0.25, points=50)
        assert len(pts) == 50
        assert pts[0][0] == 0.0
        assert pts[0][1] == pytest.approx(binary_entropy(0.25))
        assert pts[-1][0] == pytest.approx(0.25)
        assert pts[-1][1] == pytest.approx(0.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            bound_curve(0.25, points=1)


class TestCompoundQuantizer:
    def test_word_satisfies_quantization_check(self, tiny_code):
        qz = CompoundQuantizer(tiny_code)
        rng = random.Random(42)
        for _ in range(5):
            src = BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
            out = qz.quantize(src)
            assert mul_vec(tiny_code.h1, out.word).weight() == 0
            assert out.distortion == pytest.approx(
                (out.word ^ src).weight() / TINY_PARAMS.n)

    def test_middle_block_copies_source(self, tiny_code):
        qz = CompoundQuantizer(tiny_code)
        rng = random.Random(43)
        src = BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
        out = qz.quantize(src)
        lo = qz.parity_width
        hi = lo + qz.mid_width
        mid_mask = ((1 << qz.mid_width) - 1) << lo
        assert out.word.bits & mid_mask == src.bits & mid_mask
        assert lo == TINY_PARAMS.quant_checks
        assert hi == TINY_PARAMS.n // 2

    def test_coefficients_reproduce_word(self, tiny_code):
        qz = CompoundQuantizer(tiny_code)
        rng = random.Random(44)
        for _ in range(3):
            src = BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
            word = qz.quantize(src).word
            u = qz.coefficients(word)
            assert u.length == TINY_PARAMS.info_rows
            assert generator_codeword(tiny_code.g1, u) == word

    def test_shape_errors(self, tiny_code):
        qz = CompoundQuantizer(tiny_code)
        with pytest.raises(ShapeError):
            qz.quantize(BitVector(TINY_PARAMS.n + 1, 0))
        with pytest.raises(ShapeError):
            qz.coefficients(BitVector(TINY_PARAMS.n - 1, 0))


class TestEncodeDecode:
    def test_encode_consistency(self, tiny_code):
        rng = random.Random(50)
        src = BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
        enc = encode(tiny_code, src)
        assert generator_codeword(tiny_code.g1, enc.u) == enc.word
        assert mul_vec(tiny_code.h1, enc.word).weight() == 0
        assert mul_vec(tiny_code.h2, enc.word) == enc.syndrome
        assert 0.0 <= enc.distortion <= 0.5
        assert enc.rounds >= 1

    def test_decode_recovers_word_from_clean_side(self, tiny_code):
        rng = random.Random(51)
        src = BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
        enc = encode(tiny_code, src)
        res = decode(tiny_code, enc.word, enc.syndrome, crossover=0.05)
        assert res.converged
        assert res.bits == enc.word

    def test_decode_rejects_wrong_syndrome_length(self, tiny_code):
        with pytest.raises(ValueError):
            decode(tiny_code, BitVector(TINY_PARAMS.n, 0),
                   BitVector(TINY_PARAMS.k2 + 1, 0), crossover=0.1)


class TestRunExperiment:
    def config(self, trials=3):
        return ExperimentConfig(code_id="tiny", params=TINY_PARAMS, p=0.25,
                                trials=trials, seed=99)

    def test_worker_count_does_not_change_results(self, tiny_code):
        serial = run_experiment(tiny_code, self.config(), workers=1)
        parallel = run_experiment(tiny_code, self.config(), workers=2)
        assert serial == parallel

    def test_repeatable(self, tiny_code):
        a = run_experiment(tiny_code, self.config(), workers=1)
        b = run_experiment(tiny_code, self.config(), workers=1)
        assert a == b

    def test_four_cycle_search_runs_once(self, tiny_code, monkeypatch):
        calls = []
        real = quantizer.has_four_cycle

        def counting(g):
            calls.append(g)
            return real(g)

        monkeypatch.setattr(quantizer, "has_four_cycle", counting)
        run_experiment(tiny_code, self.config(trials=3), workers=1)
        assert len(calls) == 1

    def test_result_fields(self, tiny_code):
        res = run_experiment(tiny_code, self.config(), workers=1)
        assert res.code_id == "tiny"
        assert (res.n, res.m, res.k1, res.k2) == (
            TINY_PARAMS.n, TINY_PARAMS.m, TINY_PARAMS.k1, TINY_PARAMS.k2)
        r1, r2, rt = TINY_PARAMS.rates
        assert res.r1 == pytest.approx(r1)
        assert res.rt == pytest.approx(rt)
        assert 0.0 <= res.d1 <= 0.5
        assert 0.0 <= res.dt <= 0.5
        assert 0 <= res.failures <= res.trials == 3
        assert res.dwz == pytest.approx(invert_bound(rt, 0.25), abs=1e-6)
        assert res.gap == pytest.approx(res.dt - res.dwz, abs=1e-9)

    def test_params_mismatch_rejected(self, tiny_code):
        other = CodeParams(n=96, m=92, k1=20, k2=60, zeta=4,
                           poisson_lam=5.0, poisson_imax=20)
        cfg = ExperimentConfig(code_id="tiny", params=other, p=0.25,
                               trials=1, seed=1)
        with pytest.raises(ValueError):
            run_experiment(tiny_code, cfg, workers=1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(code_id="x", params=TINY_PARAMS, p=0.6,
                             trials=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(code_id="x", params=TINY_PARAMS, p=0.25,
                             trials=0, seed=0)


class TestCsvOutput:
    def test_results_csv_layout(self, tiny_code):
        cfg = ExperimentConfig(code_id="tiny", params=TINY_PARAMS, p=0.25,
                               trials=2, seed=7)
        res = run_experiment(tiny_code, cfg, workers=1)
        buf = io.StringIO()
        write_results_csv(buf, [res])
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# wzkit 0.1.0"
        assert lines[1] == ",".join(CSV_COLUMNS)
        assert len(lines) == 3
        cells = lines[2].split(",")
        assert cells[0] == "tiny"
        assert int(cells[1]) == TINY_PARAMS.n

    def test_curve_csv_layout(self):
        buf = io.StringIO()
        write_curve_csv(buf, 0.25, points=10)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "# wzkit 0.1.0"
        assert lines[1].split(",")[:2] == ["distortion", "rate"]
        assert len(lines) == 12
