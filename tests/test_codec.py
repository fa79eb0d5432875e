"""End-to-end pipeline, analytic bound, and the experiment harness."""

import concurrent.futures
import dataclasses
import functools
import hashlib
import io
import math
import pickle
import random

import numpy as np
import pytest

from conftest import TINY_PARAMS, tiny_dist
from wzkit import builder, cli, codec, quantizer
from wzkit.builder import (CodeParams, CompoundCode, build_compound_code,
                           load_code, save_code)
from wzkit.codec import (CSV_COLUMNS, CompoundQuantizer, ExperimentConfig,
                         binary_convolve, binary_entropy, bound_curve, decode,
                         encode, encode_all, invert_bound, run_experiment,
                         write_curve_csv, write_results_csv, wz_boundary,
                         wz_rate)
from wzkit.decoder import DecodeResult, SpParams
from wzkit.gf2 import (BitMatrix, BitVector, ShapeError, mat_mul, mul_vec,
                       transpose)
from wzkit.quantizer import (BipParams, QuantizeResult, bip_quantize_all,
                             generator_codeword)

# defaults, an undamped run with a large gamma, and a damped low threshold
QUANTIZE_BIPS = [BipParams(), BipParams(gamma=17.5, damping=0.0),
                 BipParams(damping=0.5, threshold=0.6)]


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

    @pytest.mark.parametrize("p", [1e-13, 2e-12, 1e-9, 1e-6,
                                   0.5 - 1e-9, 0.5 - 1e-10])
    def test_outside_bracket_window_names_p(self, p):
        # [1e-12, p - 1e-12] holds no sign change: a small p has its root
        # below the bracket, and near 0.5 the function is rounding noise
        with pytest.raises(ValueError, match=f"crossover {p!r} .*1.65e-6"):
            wz_boundary(p)

    def test_within_brentq_tolerance(self):
        """The bisection against scipy's brentq, on 2400 crossovers that span
        the window, log-spaced and uniform: within brentq's xtol of 1e-12,
        and the rate is the curve's at the returned point.  Within about
        4e-5 of 0.5, f is rounding noise of a few 1e-16 near its root and
        changes sign many times there; the two may pick different sign
        changes, but f must stay noise between them."""
        from scipy.optimize import brentq
        lo, hi = 1.7e-6, 0.5 - 1e-7
        grid = np.concatenate([np.geomspace(lo, hi, 1200),
                               np.linspace(lo, hi, 1200)])
        for p in map(float, grid):
            def f(d):
                return codec._curve_slope(d, p) * (p - d) + codec._curve(d, p)
            expected = brentq(f, 1e-12, p - 1e-12, xtol=1e-12)
            d_c, rate = wz_boundary(p)
            if abs(d_c - expected) > 1e-12:
                assert p > 0.5 - 1e-4, p
                assert max(abs(f(float(d)))
                           for d in np.linspace(d_c, expected, 101)) < 1e-15
            assert rate == codec._curve(d_c, p), p


class TestWzRate:
    @pytest.mark.parametrize("d, p, message", [
        (0.1, 0.0, "crossover must lie in"),
        (0.1, 0.5, "crossover must lie in"),
        (-0.1, 0.25, "distortion must lie in"),
        (0.7, 0.25, "distortion must lie in")])
    def test_rejects_arguments_out_of_range(self, d, p, message):
        with pytest.raises(ValueError, match=message):
            wz_rate(d, p)

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


    @pytest.mark.parametrize("rate, p", [(0.0, 0.7), (5.0, 0.7), (0.3, 0.0),
                                         (1.0, -0.1)])
    def test_crossover_checked_on_every_path(self, rate, p):
        with pytest.raises(ValueError, match="crossover must lie in"):
            invert_bound(rate, p)

    def test_nan_rate_raises(self):
        with pytest.raises(ValueError, match="nan"):
            invert_bound(math.nan, 0.25)

    def test_bisection_width_is_no_argument(self):
        """The bisection width is fixed: a caller's width of 0 would never
        end, and nan would return 0.125."""
        with pytest.raises(TypeError, match="tol"):
            invert_bound(0.3, 0.25, tol=1e-3)
        assert invert_bound(0.3, 0.25) == pytest.approx(0.14056, abs=1e-5)


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


@pytest.mark.parametrize("query, args, expected", [
    # invert_bound(k2 / n, p) for every distinct pair in configs/*.json
    ("invert_bound", (0.444, 0.25), "0.08802692079916596"),
    ("invert_bound", (0.5, 0.25), "0.06878306670114398"),
    ("invert_bound", (0.6, 0.25), "0.039786234963685274"),
    ("invert_bound", (0.7, 0.25), "0.017044541891664267"),
    ("invert_bound", (0.8, 0.25), "0.0010725543834269047"),
    ("invert_bound", (0.2764, 0.05), "0.001406076923012734"),
    ("invert_bound", (0.404, 0.27), "0.11043817109428344"),
    ("invert_bound", (0.4807142857142857, 0.134), "0.015985382877290247"),
    ("wzkit bound", ["--p", "0.25"],
     "boundary point: distortion=0.088021 rate=0.444017"),
    ("wzkit bound", ["--p", "0.05"],
     "boundary point: distortion=0.001401 rate=0.276427"),
    ("wzkit bound", ["--p", "0.25", "--rate", "0.3"], "0.140558730"),
    ("wzkit bound", ["--p", "0.25", "--distortion", "0.1"], "0.411179440"),
    ("wzkit bound", ["--p", "0.134", "--distortion", "0.02"], "0.464361325"),
    ("write_curve_csv", 0.25,
     "77902390da344e4ad37b91023555cdad945c4cf8d18640b6e6a84b67de309a49"),
    ("write_curve_csv", 0.05,
     "82984215905054c0383482855db9e43c0dddffedd6f59f8163758dbaec635730"),
    ("write_curve_csv", 0.134,
     "44fc03372ad14ee7560f109dfd71ec5d4cb48dd591cc9f43954a111785a7b509")])
def test_bound_outputs_pinned(capsys, query, args, expected):
    """Every number the bound feeds to results, stdout and curve files,
    pinned bit for bit, so that a change of root finder cannot move them."""
    if query == "invert_bound":
        got = repr(invert_bound(*args))
    elif query == "wzkit bound":
        assert cli.main(["bound", *args]) == 0
        got = capsys.readouterr().out.rstrip("\n")
    else:
        f = io.StringIO()
        write_curve_csv(f, args)
        got = hashlib.sha256(f.getvalue().encode()).hexdigest()
    assert got == expected


class TestCompoundQuantizer:
    def test_word_satisfies_quantization_check(self, tiny_code):
        qz = CompoundQuantizer(tiny_code)
        rng = random.Random(42)
        for _ in range(5):
            src = BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
            out = qz.quantize(src)
            assert mul_vec(tiny_code.h1, out.codeword).weight() == 0
            assert out.distortion == pytest.approx(
                (out.codeword ^ src).weight() / TINY_PARAMS.n)

    def test_middle_block_copies_source(self, tiny_code):
        qz = CompoundQuantizer(tiny_code)
        rng = random.Random(43)
        src = BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
        out = qz.quantize(src)
        lo = qz.parity_width
        hi = lo + qz.mid_width
        mid_mask = ((1 << qz.mid_width) - 1) << lo
        assert out.codeword.bits & mid_mask == src.bits & mid_mask
        assert lo == TINY_PARAMS.quant_checks
        assert hi == TINY_PARAMS.n // 2

    def test_coefficients_reproduce_word(self, tiny_code):
        qz = CompoundQuantizer(tiny_code)
        r = TINY_PARAMS.quant_checks
        rng = random.Random(44)
        for _ in range(3):
            src = BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
            word = qz.quantize(src).codeword
            u = qz.coefficients(word)
            assert u.length == TINY_PARAMS.info_rows
            assert u.bits == word.bits >> r     # the word's free blocks
            assert generator_codeword(tiny_code.g1, u) == word

    @pytest.mark.parametrize("code", ["tiny_code", "small_code"])
    def test_generator_is_systematic_on_the_free_blocks(self, code, request):
        code = request.getfixturevalue(code)
        g1, r = code.g1, code.params.quant_checks
        assert (g1.rows, g1.cols) == (code.params.info_rows, code.params.n)
        # columns r..n-1 form the identity, so each row is a codeword of
        # its own free-block coordinate
        assert [tuple(c for c in sup if c >= r) for sup in g1.row_support] \
            == [(r + j,) for j in range(g1.rows)]
        assert mat_mul(code.h1, transpose(g1)).row_support == \
            ((),) * code.h1.rows

    @pytest.mark.parametrize("code", ["tiny_code", "small_code"])
    def test_g_sub_is_b_with_private_tail(self, code, request):
        code = request.getfixturevalue(code)
        r = code.params.quant_checks
        sub_cols = builder._b_columns(code.h, code.params).row_support
        want = BitMatrix(len(sub_cols), r + len(sub_cols),
                         [cols + (r + j,) for j, cols in enumerate(sub_cols)])
        assert CompoundQuantizer(code).g_sub == want

    def test_loaded_code_reads_b_once(self, tiny_code, tmp_path,
                                      monkeypatch):
        save_code(tiny_code, tmp_path)
        calls = []
        real = builder._b_columns
        monkeypatch.setattr(builder, "_b_columns",
                            lambda *a: calls.append(1) or real(*a))
        code = load_code(tmp_path)
        code.quantizer, code.g1
        assert len(calls) == 1
        assert code.g1 == tiny_code.g1

    @pytest.mark.parametrize("bip", QUANTIZE_BIPS)
    def test_quantize_all_matches_quantize(self, tiny_code, bip):
        qz = tiny_code.quantizer
        rng = random.Random(45)
        sources = [BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
                   for _ in range(4)]
        sources.insert(2, sources[0])
        assert qz.quantize_all(sources, bip) == [qz.quantize(s, bip)
                                                 for s in sources]

    @pytest.mark.parametrize("code", ["tiny_code", "small_code"])
    @pytest.mark.parametrize("bip", QUANTIZE_BIPS)
    def test_result_is_bip_result_over_g1(self, code, bip, request):
        """Each result is BiP's result on g_sub, carried to g1: u are the
        coefficients of the codeword, which passes the quantization check,
        and BiP's counters pass through unchanged."""
        code = request.getfixturevalue(code)
        qz, n = code.quantizer, code.params.n
        r, mid = qz.parity_width, qz.mid_width
        rng = random.Random(46)
        sources = [BitVector(n, rng.getrandbits(n)) for _ in range(4)]

        def parity_and_tail(v):
            a = v.to_array()
            return BitVector.from_array(np.concatenate([a[:r], a[r + mid:]]))

        ref = bip_quantize_all(qz.g_sub, [parity_and_tail(s) for s in sources],
                               bip)
        got = qz.quantize_all(sources, bip)
        assert len(got) == len(ref)
        for res, sub in zip(got, ref):
            assert generator_codeword(code.g1, res.u) == res.codeword
            assert res.u == qz.coefficients(res.codeword)
            assert mul_vec(code.h1, res.codeword).weight() == 0
            assert parity_and_tail(res.codeword) == sub.codeword
            assert (res.steps, res.fallback_fixes) == (sub.steps,
                                                       sub.fallback_fixes)

    def test_shape_errors(self, tiny_code):
        qz = CompoundQuantizer(tiny_code)
        with pytest.raises(ShapeError):
            qz.quantize(BitVector(TINY_PARAMS.n + 1, 0))
        with pytest.raises(ShapeError):
            qz.quantize_all([BitVector(TINY_PARAMS.n, 0),
                             BitVector(TINY_PARAMS.n - 1, 0)])
        with pytest.raises(ShapeError):
            qz.coefficients(BitVector(TINY_PARAMS.n - 1, 0))


class TestEncodeDecode:
    def test_encode_consistency(self, tiny_code):
        rng = random.Random(50)
        src = BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
        enc = encode(tiny_code, src)
        word = enc.quantized.codeword
        assert mul_vec(tiny_code.h1, word).weight() == 0
        assert mul_vec(tiny_code.h2, word) == enc.syndrome
        assert 0.0 <= enc.quantized.distortion <= 0.5
        assert enc.quantized.steps >= 1

    def test_encode_all_matches_encode(self, tiny_code):
        rng = random.Random(52)
        sources = [BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
                   for _ in range(3)]
        assert encode_all(tiny_code, sources) == [encode(tiny_code, s)
                                                  for s in sources]

    def test_encode_all_wraps_the_quantizer_result(self, tiny_code):
        rng = random.Random(53)
        sources = [BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
                   for _ in range(3)]
        quantized = tiny_code.quantizer.quantize_all(sources)
        encoded = encode_all(tiny_code, sources)
        assert [enc.quantized for enc in encoded] == quantized
        for enc, q in zip(encoded, quantized):
            assert enc.syndrome == mul_vec(tiny_code.h2, q.codeword)

    def test_decode_recovers_word_from_clean_side(self, tiny_code):
        rng = random.Random(51)
        src = BitVector(TINY_PARAMS.n, rng.getrandbits(TINY_PARAMS.n))
        enc = encode(tiny_code, src)
        word = enc.quantized.codeword
        res = decode(tiny_code, word, enc.syndrome, SpParams(crossover=0.05))
        assert res.converged
        assert res.bits == word

    def test_decode_rejects_wrong_syndrome_length(self, tiny_code):
        with pytest.raises(ValueError):
            decode(tiny_code, BitVector(TINY_PARAMS.n, 0),
                   BitVector(TINY_PARAMS.k2 + 1, 0), SpParams(crossover=0.1))


class TinyLdgmCode:
    """A construction that lives only here: a 4x6 generator G quantizes, and
    its coefficients u obey one check H1 u = 0 and send one bit H2 u, as
    Wainwright & Martinian nest an LDGM and an LDPC code.  Quantizing and
    decoding search the admissible u exhaustively, the lowest u first on
    ties.  It has only what the pipeline may call: params, a quantizer with
    quantize_all (itself), syndrome and decode."""

    params = CodeParams(n=6, m=4, k1=1, k2=1)
    _G = BitMatrix(4, 6, [[0, 1, 3], [1, 2, 4], [2, 3, 5], [0, 4, 5]])
    _H1 = BitMatrix(1, 4, [[0, 1, 2]])
    _H2 = BitMatrix(1, 4, [[1, 3]])

    @property
    def quantizer(self):
        return self

    def _nearest(self, target, syndrome=None):
        """(u, u G) nearest target over the u with H1 u = 0, and H2 u =
        syndrome when one is given."""
        us = [BitVector(4, bits) for bits in range(16)]
        us = [u for u in us if mul_vec(self._H1, u).weight() == 0
              and (syndrome is None or mul_vec(self._H2, u) == syndrome)]
        return min(((u, generator_codeword(self._G, u)) for u in us),
                   key=lambda uw: uw[1].hamming(target))

    def quantize_all(self, sources, bip=BipParams()):
        out = []
        for source in sources:
            u, word = self._nearest(source)
            out.append(QuantizeResult(u, word, word.hamming(source) / 6,
                                      0, 0))
        return out

    def syndrome(self, q):
        return mul_vec(self._H2, q.u)

    def decode(self, side_info, syndrome, sp):
        return DecodeResult(self._nearest(side_info, syndrome)[1], True, 0)


class TestConstructionSeam:
    """The pipeline runs a code it knows only through params, quantizer,
    syndrome and decode."""

    def test_stages_call_the_code(self):
        code = TinyLdgmCode()
        rng = random.Random(9)
        sources = [BitVector(6, rng.getrandbits(6)) for _ in range(4)]
        encoded = encode_all(code, sources)
        assert encoded == [encode(code, s) for s in sources]
        sp = SpParams(crossover=0.1)
        for source, enc in zip(sources, encoded):
            q = code.quantize_all([source])[0]
            assert enc.quantized == q
            assert enc.syndrome == code.syndrome(q)
            side = source ^ BitVector(6, 1 << rng.randrange(6))
            assert (decode(code, side, enc.syndrome, sp)
                    == code.decode(side, enc.syndrome, sp))

    def test_run_experiment_measures_the_code(self):
        code = TinyLdgmCode()
        config = ExperimentConfig(code_id="tiny-ldgm", params=code.params,
                                  p=0.1, trials=8, seed=3)
        result = run_experiment(code, config, workers=1)
        # the same trials measured by the code itself
        n, trials = code.params.n, config.trials
        quantized, decoded, sources = [], [], []
        for trial in range(trials):
            rng = codec._trial_rng(config.seed, trial)
            source = BitVector.from_array(rng.integers(0, 2, size=n,
                                                       dtype=np.int64))
            side = source ^ BitVector.from_array(rng.random(n) < config.p)
            q = code.quantize_all([source])[0]
            sources.append(source)
            quantized.append(q)
            decoded.append(code.decode(side, code.syndrome(q), None))
        assert result.d1 == sum(q.distortion for q in quantized) / trials
        assert result.d2 == sum(d.bits.hamming(q.codeword) / n for q, d
                                in zip(quantized, decoded)) / trials
        assert result.dt == sum(d.bits.hamming(s) / n for s, d
                                in zip(sources, decoded)) / trials
        assert result.failures == 0
        # one decode of the eight lands four bits from its word
        assert (result.d1, result.d2, result.dt) == pytest.approx(
            (8 / 48, 4 / 48, 10 / 48))


class TestRunExperiment:
    def config(self, trials=3):
        return ExperimentConfig(code_id="tiny", params=TINY_PARAMS, p=0.25,
                                trials=trials, seed=99)

    def test_worker_count_does_not_change_results(self, tiny_code):
        serial = run_experiment(tiny_code, self.config(), workers=1)
        parallel = run_experiment(tiny_code, self.config(), workers=2)
        assert serial == parallel

    @pytest.mark.parametrize("trials, workers, pools", [
        (2, 6, [2]), (1, 4, []), (5, 3, [3])])
    def test_pool_has_at_most_one_process_per_trial(self, tiny_code,
                                                   monkeypatch, trials,
                                                   workers, pools):
        sizes = []

        class Spy(concurrent.futures.ProcessPoolExecutor):
            def __init__(self, max_workers, **kwargs):
                sizes.append(max_workers)
                super().__init__(max_workers, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
        config = self.config(trials=trials)
        assert (run_experiment(tiny_code, config, workers=workers)
                == run_experiment(tiny_code, config, workers=1))
        assert sizes == pools

    def test_pool_tasks_are_contiguous_trial_chunks(self, tiny_code,
                                                    monkeypatch):
        tasks = []
        real = codec._map_trials

        def recording(pool, fn, code, fn_tasks):
            tasks.append((fn.__name__, [t[:2] for t in fn_tasks]))
            return real(pool, fn, code, fn_tasks)

        monkeypatch.setattr(codec, "_map_trials", recording)
        serial = run_experiment(tiny_code, self.config(trials=5), workers=1)
        parallel = run_experiment(tiny_code, self.config(trials=5), workers=3)
        assert serial == parallel
        assert tasks[0] == ("_encode_trials", [(0, 5)])
        assert tasks[2] == ("_encode_trials", [(0, 2), (2, 4), (4, 5)])

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("crossover", [None, 0.2])
    def test_decode_phase_maps_public_decode(self, tiny_code, monkeypatch,
                                             workers, crossover):
        calls = []
        real = codec._map_trials

        def recording(pool, fn, code, fn_tasks):
            calls.append((fn, fn_tasks))
            return real(pool, fn, code, fn_tasks)

        monkeypatch.setattr(codec, "_map_trials", recording)
        config = dataclasses.replace(self.config(trials=5), crossover=crossover)
        run_experiment(tiny_code, config, workers=workers)
        fn, tasks = calls[-1]
        assert fn is codec.decode
        assert len(tasks) == config.trials
        n, running = TINY_PARAMS.n, 0.0
        for trial, (side_info, syndrome, sp) in enumerate(tasks):
            rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, trial]))
            source = BitVector.from_array(
                rng.integers(0, 2, size=n, dtype=np.int64))
            noise = BitVector.from_array(rng.random(n) < config.p)
            enc = encode(tiny_code, source)
            assert side_info == source ^ noise
            assert syndrome == enc.syndrome
            running += enc.quantized.distortion
            q = (crossover if crossover is not None
                 else binary_convolve(running / (trial + 1), config.p))
            assert sp == SpParams(crossover=min(max(q, 1e-9), 0.5 - 1e-9),
                                  max_iter=config.max_iter)

    def test_bound_fails_before_any_trial(self, tiny_code, monkeypatch):
        def no_trials(*args):
            raise AssertionError("a trial ran before the bound was checked")

        monkeypatch.setattr(codec, "_encode_trials", no_trials)
        monkeypatch.setattr(codec, "decode", no_trials)
        config = dataclasses.replace(self.config(), p=0.5 - 1e-10)
        with pytest.raises(ValueError, match="crossover"):
            run_experiment(tiny_code, config, workers=1)

    def test_repeatable(self, tiny_code):
        a = run_experiment(tiny_code, self.config(), workers=1)
        b = run_experiment(tiny_code, self.config(), workers=1)
        assert a == b

    @staticmethod
    def count_four_cycle_searches(monkeypatch, log):
        """Append a line to the file log for every 4-cycle search, in this
        process or in a pool worker; returns the line count."""
        real = quantizer.has_four_cycle

        def counting(g):
            with open(log, "a") as f:
                f.write("search\n")
            return real(g)

        monkeypatch.setattr(quantizer, "has_four_cycle", counting)
        return lambda: len(log.read_text().split()) if log.exists() else 0

    def test_four_cycle_search_runs_once(self, tiny_code, tmp_path,
                                         monkeypatch):
        searches = self.count_four_cycle_searches(monkeypatch,
                                                  tmp_path / "searches")
        for runs, workers in enumerate((1, 2), start=1):
            code = dataclasses.replace(tiny_code)  # no quantizer built yet
            run_experiment(code, self.config(trials=3), workers=workers)
            # the pool's tasks carry the quantizer built here
            assert searches() == runs

    def test_one_quantizer_per_code(self, tiny_code, tmp_path, monkeypatch):
        code = dataclasses.replace(tiny_code)
        searches = self.count_four_cycle_searches(monkeypatch,
                                                  tmp_path / "searches")
        run_experiment(code, self.config(trials=2), workers=1)
        run_experiment(code, self.config(trials=2), workers=1)
        encode(code, BitVector(TINY_PARAMS.n, 12345))
        assert searches() == 1
        # the built quantizer travels with a pickled code
        copy = pickle.loads(pickle.dumps(code))
        assert copy.__dict__["quantizer"].g_sub == code.quantizer.g_sub

    def test_run_packs_no_generator_rows(self, tiny_code, monkeypatch):
        """Quantizing, encoding and decoding work on the sparse views; no
        step of a run packs a matrix into Python-int rows."""
        packed = []
        real = BitMatrix.bitrows
        monkeypatch.setattr(BitMatrix, "bitrows",
                            lambda a: packed.append(a) or real(a))
        code = dataclasses.replace(tiny_code)  # no quantizer built yet
        run_experiment(code, self.config(trials=3), workers=1)
        assert packed == []

    def test_pinned_results(self, tiny_code):
        """Exact results, derived before the message passers shared their
        check update.  The second configuration pins the decoder's crossover
        so that no decode converges: every trial runs all 100 iterations,
        where floating-point drift in the messages would show in d2 and Dt."""
        converging = ExperimentConfig(code_id="tiny", params=TINY_PARAMS,
                                      p=0.05, trials=4, seed=3)
        assert repr(run_experiment(tiny_code, converging)) == (
            "ExperimentResult(code_id='tiny', n=96, m=92, k1=20, k2=60, "
            "p=0.05, r1=0.75, r2=0.125, rt=0.625, d1=0.0859375, "
            "d2=0.0, dt=0.0859375, dt_pred=0.0859375, dwz=0.0, "
            "gap=0.0859375, trials=4, failures=0, seed=3)")
        stuck = dataclasses.replace(converging, p=0.25, crossover=0.45)
        assert repr(run_experiment(tiny_code, stuck)) == (
            "ExperimentResult(code_id='tiny', n=96, m=92, k1=20, k2=60, "
            "p=0.25, r1=0.75, r2=0.125, rt=0.625, d1=0.0859375, "
            "d2=0.2708333333333333, dt=0.25260416666666663, "
            "dt_pred=0.31022135416666663, dwz=0.03352693608030677, "
            "gap=0.21907723058635986, trials=4, failures=4, seed=3)")

    def test_max_iter_validated_up_front(self):
        with pytest.raises(ValueError, match="max_iter"):
            ExperimentConfig(code_id="x", params=TINY_PARAMS, p=0.25,
                             trials=1, seed=0, max_iter=0)

    def test_negative_seed_validated_up_front(self):
        with pytest.raises(ValueError, match="^seed must be >= 0$"):
            ExperimentConfig(code_id="x", params=TINY_PARAMS, p=0.25,
                             trials=1, seed=-1)
        ExperimentConfig(code_id="x", params=TINY_PARAMS, p=0.25, trials=1,
                         seed=0)

    @pytest.mark.parametrize("crossover", [0.0, 0.5, 0.9, -1.0, float("nan")])
    def test_crossover_validated_up_front(self, crossover):
        with pytest.raises(ValueError, match="crossover"):
            ExperimentConfig(code_id="x", params=TINY_PARAMS, p=0.25,
                             trials=1, seed=0, crossover=crossover)

    def test_crossover_inside_the_interval_accepted(self):
        for crossover in (None, 1e-9, 0.25, 0.5 - 1e-9):
            ExperimentConfig(code_id="x", params=TINY_PARAMS, p=0.25,
                             trials=1, seed=0, crossover=crossover)

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
        other = CodeParams(n=96, m=92, k1=20, k2=62)
        cfg = ExperimentConfig(code_id="tiny", params=other, p=0.25,
                               trials=1, seed=1)
        with pytest.raises(ValueError):
            run_experiment(tiny_code, cfg, workers=1)

    @pytest.mark.parametrize("key, value", [
        ("trials", 1.5), ("trials", 2.0), ("max_iter", 2.5), ("seed", 1.0),
        ("seed", True), ("seed", None), ("trials", None)])
    def test_integer_fields_reject_other_numbers(self, key, value):
        config = dict(code_id="x", params=TINY_PARAMS, p=0.25, trials=1,
                      seed=0)
        with pytest.raises(TypeError,
                           match=f"{key} must be an integer, got {value}"):
            ExperimentConfig(**{**config, key: value})
        ExperimentConfig(**{**config, key: np.int64(3)})

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, tiny_code, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            run_experiment(tiny_code, self.config(), workers=workers)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(code_id="x", params=TINY_PARAMS, p=0.6,
                             trials=1, seed=0)
        with pytest.raises(ValueError):
            ExperimentConfig(code_id="x", params=TINY_PARAMS, p=0.25,
                             trials=0, seed=0)


class TestGeneratorTraffic:
    """g1 is made from h on its first read, and nothing a build, a run, a
    pickle or a load does reads it."""

    @staticmethod
    def record_generators(monkeypatch, log):
        """Append a line to the file log for every g1 made, in this process
        or in a pool worker."""
        real = CompoundCode.g1.func

        def recording(code):
            with open(log, "a") as f:
                f.write("g1\n")
            return real(code)

        prop = functools.cached_property(recording)
        prop.__set_name__(CompoundCode, "g1")
        monkeypatch.setattr(CompoundCode, "g1", prop)
        return lambda: len(log.read_text().split()) if log.exists() else 0

    def test_build_and_run_design_no_generator(self, tiny_code, tmp_path,
                                               monkeypatch):
        expected = tiny_code.g1
        made = self.record_generators(monkeypatch, tmp_path / "made")
        code = build_compound_code(TINY_PARAMS, tiny_dist(), seed=5,
                                   dist_id="tiny")
        config = ExperimentConfig(code_id="tiny", params=TINY_PARAMS, p=0.25,
                                  trials=3, seed=99)
        results = [run_experiment(code, config, workers=workers)
                   for workers in (1, 2)]
        assert made() == 0
        assert results[0] == results[1] == run_experiment(tiny_code, config)
        # the first read makes g1, bit-identical, and keeps it
        assert code.g1 == expected
        code.g1
        assert made() == 1

    def test_pickling_keeps_the_generator_unmade(self, tmp_path, monkeypatch):
        made = self.record_generators(monkeypatch, tmp_path / "made")
        code = build_compound_code(TINY_PARAMS, tiny_dist(), seed=5)
        code.quantizer
        blob = pickle.dumps(code)
        assert made() == 0
        copy = pickle.loads(blob)
        assert copy.g1 == code.g1
        assert made() == 2
        assert len(pickle.dumps(code)) > len(blob)   # now it carries g1

    def test_loaded_code_pickles_without_reading_g1(self, tiny_code,
                                                    tmp_path, monkeypatch):
        save_code(tiny_code, tmp_path / "code")
        reads = []
        real = builder.read_matrix
        monkeypatch.setattr(builder, "read_matrix",
                            lambda f: reads.append(f.name) or real(f))
        code = load_code(tmp_path / "code")
        copy = pickle.loads(pickle.dumps(code))
        assert len(reads) == 1 and reads[0].endswith("h.txt")
        word = copy.quantizer.quantize(
            BitVector(TINY_PARAMS.n, 12345)).codeword
        assert generator_codeword(copy.g1,
                                  copy.quantizer.coefficients(word)) == word
        assert len(reads) == 1
        assert copy == tiny_code and copy.g1 == tiny_code.g1


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
