"""Gating acceptance checks, one test per shipped guarantee.

Each test prints one ACCEPTANCE line with the measured value next to its
target.  Three targets (4, 5, 6) are not met by the current construction at
this block length; those tests keep the stated thresholds and fail with the
measurement on record, and each of their ACCEPTANCE lines also states the
bound, computed from the code's shape, that the measurement fails against.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest
from scipy.optimize import brentq

from wzkit import worked_example
from wzkit.builder import CodeParams, build_compound_code
from wzkit.codec import (ExperimentConfig, binary_convolve, binary_entropy,
                         decode, run_experiment, wz_boundary)
from wzkit.decoder import SpParams, coset_nearest, sp_decode
from wzkit.degrees import design_rate
from wzkit.gf2 import BitMatrix, BitVector, mat_mul, mul_vec, rank, transpose
from wzkit.quantizer import (bip_quantize_all, exhaustive_quantize,
                             generator_codeword)

import test_builder
import test_decoder
import test_quantizer
from conftest import SMALL_PARAMS, TINY_PARAMS, packed_matrix

SCALED_PARAMS = CodeParams(n=10000, m=9570, k1=2000, k2=6000)
RUN_SEED = 20260815
CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"

HEADERS = {
    "code1": 0.876, "code2": 0.863, "code3": 0.843, "code4": 0.828,
    "code5": 0.818, "code11": 0.294, "code13": 0.92, "code14": 0.605,
}


def report(criterion, ok, detail):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def entropy_inverse(y):
    """The x in [0, 1/2] with binary_entropy(x) == y."""
    return brentq(lambda x: binary_entropy(x) - y, 0.0, 0.5, xtol=1e-12)


def codebook_floor(params):
    """Least mean distortion of any quantizer onto the codebook ker(h1).

    ker(h1) = {(B t2, t1, t2)} copies the source's middle block t1 at no
    cost.  The other n - mid positions carry only 2^(n/2) words, so by the
    rate-distortion converse their distortion averages at least
    h^-1(1 - (n/2) / (n - mid)) at any block length.
    """
    mid = params.info_rows - params.n // 2
    rest = params.n - mid
    return rest / params.n * entropy_inverse(1.0 - (params.n // 2) / rest)


@pytest.fixture(scope="module")
def scaled_code(catalog):
    """Ten-thousand-bit build on the code3 profile; 1.4 to 1.6 s on two
    cores."""
    return build_compound_code(SCALED_PARAMS, catalog["code3"].dist,
                               seed=RUN_SEED, dist_id="code3")


@pytest.fixture(scope="module")
def scaled_run(scaled_code):
    config = ExperimentConfig(code_id="code3-n1e4", params=SCALED_PARAMS,
                              p=0.25, trials=20, seed=RUN_SEED)
    return run_experiment(scaled_code, config, workers=4)


def test_01_reference_example_bit_exact():
    start = time.monotonic()
    checks = worked_example.verify()
    elapsed = time.monotonic() - start
    bad = [c.name for c in checks if not c.ok]
    frozen = (
        worked_example.QUANT_WORD.to_list() == [1, 0, 1, 0, 1, 0, 0, 1, 1, 0]
        and worked_example.COEFFS.to_list() == [0, 0, 1, 0]
        and worked_example.SYNDROME.to_list() == [1, 1]
        and worked_example.TOTAL_SYNDROME.to_list() == [0, 0, 0, 0, 0, 0, 1, 1]
        and len(worked_example.COSET) == 4
        and worked_example.RECONSTRUCTION == worked_example.QUANT_WORD
    )
    ok = not bad and frozen and elapsed < 1.0
    report(1, ok, f"{len(checks)} checks, failed={bad or 'none'}, "
                  f"{elapsed:.3f}s")
    assert not bad
    assert frozen
    assert elapsed < 1.0


def test_02_bound_boundary_points():
    start = time.monotonic()
    d25, r25 = wz_boundary(0.25)
    d05, r05 = wz_boundary(0.05)
    elapsed = time.monotonic() - start
    ok = (abs(d25 - 0.088) <= 1e-3 and abs(r25 - 0.444) <= 1e-3
          and abs(d05 - 0.0014) <= 5e-4 and abs(r05 - 0.2764) <= 1e-3
          and elapsed < 1.0)
    report(2, ok, f"p=0.25 -> ({d25:.6f}, {r25:.6f}), "
                  f"p=0.05 -> ({d05:.6f}, {r05:.6f}), {elapsed:.3f}s")
    assert abs(d25 - 0.088) <= 1e-3
    assert abs(r25 - 0.444) <= 1e-3
    assert abs(d05 - 0.0014) <= 5e-4
    assert abs(r05 - 0.2764) <= 1e-3
    assert elapsed < 1.0


def test_03_catalog_rate_headers(catalog):
    """Each header is the check-to-column ratio of its shipped geometry.

    one_minus_r2 is (n - m + k1 + k2) / n of the configs that name the
    profile, which peg_generate's trim reaches; it is not the polynomials'
    design rate (code1/code2 and code4/code5 share polynomials but not
    headers).  That distance is printed for information only.
    """
    ratios = {cid: [] for cid in HEADERS}
    for path in sorted(CONFIG_DIR.glob("*.json")):
        for entry in json.loads(path.read_text())["experiments"]:
            if entry["dist"] in ratios:
                params = CodeParams(n=entry["n"], m=entry["m"],
                                    k1=entry["k1"], k2=entry["k2"])
                ratios[entry["dist"]].append(
                    (f"{path.name}:{entry['code_id']}",
                     params.outer_checks / params.n))
    wrong_header = {cid: catalog[cid].one_minus_r2 for cid in HEADERS
                    if catalog[cid].one_minus_r2 != HEADERS[cid]}
    unnamed = sorted(cid for cid, found in ratios.items() if not found)
    off = {name: round(ratio - HEADERS[cid], 4)
           for cid, found in ratios.items() for name, ratio in found
           if abs(ratio - HEADERS[cid]) > 0.005}
    poly = ", ".join(
        f"{cid} {abs(1.0 - design_rate(catalog[cid].dist) - header):.4f}"
        for cid, header in HEADERS.items())
    named = sum(map(len, ratios.values()))
    ok = not wrong_header and not unnamed and not off
    report(3, ok,
           f"{len(HEADERS) - len(wrong_header)} of {len(HEADERS)} headers "
           f"as listed, {named - len(off)} of {named} configs within 0.005 "
           f"of their header, off: {off or 'none'}, "
           f"unnamed: {unnamed or 'none'}; polynomial-rate distance "
           f"(information): {poly}")
    assert not wrong_header, f"headers changed: {wrong_header}"
    assert not unnamed, f"profiles no config names: {unnamed}"
    assert not off, f"config ratios beyond 0.005 of their header: {off}"


def test_04_quantizer_distortion_scaled(scaled_code, scaled_run):
    r1 = (SCALED_PARAMS.m - SCALED_PARAMS.k1) / SCALED_PARAMS.n
    assert r1 == pytest.approx(0.757)
    params = scaled_code.params
    limit = entropy_inverse(1.0 - params.rates[0])
    floor = codebook_floor(params)
    ok = scaled_run.d1 <= 0.05
    report(4, ok, f"mean d1 {scaled_run.d1:.5f} over {scaled_run.trials} "
                  f"trials, target <= 0.05; rate-distortion limit at R1 "
                  f"{params.rates[0]:.3f} is {limit:.4f}, codebook floor "
                  f"{floor:.4f}")
    assert scaled_run.d1 <= 0.05


def test_05_decoder_residual_error_scaled(scaled_code):
    params = scaled_code.params
    n = params.n
    r = scaled_code.h1.rows
    mid = params.info_rows - n // 2
    assert (params.m - params.k1 - params.k2) / n == pytest.approx(0.157)

    tail_masks = [sum(1 << (c - r - mid) for c in sup if c >= r + mid)
                  for sup in scaled_code.h1.row_support]
    rng = random.Random(RUN_SEED)
    trials = 20
    errors = 0
    for trial in range(trials):
        t1 = rng.getrandbits(mid)
        t2 = rng.getrandbits(n // 2)
        head = 0
        for i, mask in enumerate(tail_masks):
            head |= ((t2 & mask).bit_count() & 1) << i
        word = BitVector(n, head | t1 << r | t2 << (r + mid))
        if trial == 0:
            assert mul_vec(scaled_code.h1, word).weight() == 0
        noise = sum(1 << i for i in range(n) if rng.random() < 0.27)
        side = word ^ BitVector(n, noise)
        res = decode(scaled_code, side, mul_vec(scaled_code.h2, word),
                     SpParams(crossover=0.27))
        errors += (res.bits ^ word).weight()
    d2 = errors / (trials * n)
    capacity = entropy_inverse(1.0 - params.rates[1])
    ok = d2 <= 0.01
    report(5, ok, f"mean d2 {d2:.5f} over {trials} trials at crossover "
                  f"0.27, target <= 0.01; capacity crossover of R2 "
                  f"{params.rates[1]:.3f} is {capacity:.4f}, 0.27 is "
                  f"{0.27 / capacity:.1%} of it")
    assert d2 <= 0.01


def test_06_end_to_end_distortion_scaled(scaled_code, scaled_run):
    assert scaled_run.rt == pytest.approx(0.6)
    assert scaled_run.p == 0.25
    params = scaled_code.params
    capacity = entropy_inverse(1.0 - params.rates[1])
    # binary_convolve(d1, p) == p + d1 (1 - 2p) must stay below capacity.
    d1_needed = (capacity - scaled_run.p) / (1.0 - 2.0 * scaled_run.p)
    ok = scaled_run.dt <= 0.055
    report(6, ok, f"mean Dt {scaled_run.dt:.5f} over {scaled_run.trials} "
                  f"trials, target <= 0.055; decoding below capacity needs "
                  f"d1 <= {d1_needed:.4f}, codebook floor "
                  f"{codebook_floor(params):.4f} (larger non-gating config "
                  f"in configs/full_scale_p25_n100k.json)")
    assert scaled_run.dt <= 0.055


def test_07_property_suites(tiny_code, small_code, scaled_code):
    suites = []

    def orthogonal_and_full_rank(code, expected_rank, exhaustive):
        if exhaustive:
            prod = mat_mul(code.h1, transpose(code.g1))
            if any(sup for sup in prod.row_support):
                return False
            return rank(code.g1) == expected_rank
        rng = random.Random(1)
        g_rows = code.g1.bitrows()
        for bits in rng.sample(g_rows, 25):
            if mul_vec(code.h1, BitVector(code.g1.cols, bits)).weight():
                return False
        message = packed_matrix(
            code.g1.rows, code.g1.cols - code.h1.rows,
            [bits >> code.h1.rows for bits in g_rows])
        return rank(message) == expected_rank

    suites.append(("generator_orthogonal_full_rank", (
        orthogonal_and_full_rank(tiny_code, TINY_PARAMS.info_rows, True)
        and orthogonal_and_full_rank(small_code, SMALL_PARAMS.info_rows, True)
        and orthogonal_and_full_rank(scaled_code, SCALED_PARAMS.info_rows,
                                     False))))

    def multisets(a):
        from collections import Counter
        rows = Counter(len(sup) for sup in a.row_support)
        cols = Counter()
        for sup in a.row_support:
            for c in sup:
                cols[c] += 1
        return rows, Counter(cols.values())

    half_rows = SMALL_PARAMS.half_rows
    half_cols = SMALL_PARAMS.half_cols
    top = small_code.h.row_support[:half_rows]
    half = BitMatrix(half_rows, half_cols,
                     [[i] + [c - half_cols for c in sup if c >= half_cols]
                      for i, sup in enumerate(top)])
    h_rows, h_cols = multisets(small_code.h)
    a_rows, a_cols = multisets(half)
    suites.append(("assemble_preserves_degree_multisets",
                   h_rows == {k: 2 * v for k, v in a_rows.items()}
                   and h_cols == {k: 2 * v for k, v in a_cols.items()}))

    from wzkit.builder import all_one_diagonalize
    from wzkit.gf2 import permute
    rng = random.Random(808)
    done = diag_ok = 0
    while done < 100:
        a = BitMatrix(8, 14, [[c for c in range(14) if rng.random() < 0.5]
                              for _ in range(8)])
        if rank(a) < 8:
            continue
        done += 1
        b = permute(a, range(a.rows), all_one_diagonalize(a))
        diag_ok += all(i in sup for i, sup in enumerate(b.row_support))
    suites.append(("all_one_diagonalize_100_full_rank", diag_ok == 100))

    rng = random.Random(314)
    mm_ok = True
    for _ in range(100):
        ra, ca = rng.randrange(1, 33), rng.randrange(1, 33)
        cb = rng.randrange(1, 33)
        a = [[rng.randrange(2) for _ in range(ca)] for _ in range(ra)]
        b = [[rng.randrange(2) for _ in range(cb)] for _ in range(ca)]
        dense = [[sum(a[i][k] & b[k][j] for k in range(ca)) & 1
                  for j in range(cb)] for i in range(ra)]
        got = mat_mul(BitMatrix(ra, ca, [[c for c, v in enumerate(r) if v]
                                         for r in a]),
                      BitMatrix(ca, cb, [[c for c, v in enumerate(r) if v]
                                         for r in b]))
        want = tuple(tuple(c for c, v in enumerate(r) if v) for r in dense)
        mm_ok = mm_ok and got.row_support == want
    suites.append(("mat_mul_matches_dense_oracle_100", mm_ok))

    rng = random.Random(1234)
    agree = 0
    for _ in range(200):
        h = test_decoder.girth_six_check(rng)
        truth = BitVector(12, rng.getrandbits(12))
        syndrome = mul_vec(h, truth)
        side = truth ^ BitVector(12, 1 << rng.randrange(12))
        res = sp_decode(h, syndrome, side, SpParams(crossover=0.05))
        exact, _ = coset_nearest(h, syndrome, side)
        agree += res.bits == exact
    suites.append(("sp_decode_matches_coset_nearest_95pct",
                   agree >= 190))

    rng = random.Random(0xBEEF)
    bip_ok = True
    for _ in range(100):
        rows = rng.randrange(4, 13)
        cols = rows + rng.randrange(4, 12)
        g = test_quantizer.random_generator(rng, rows, cols)
        src = BitVector(cols, rng.getrandbits(cols))
        res = bip_quantize_all(g, [src])[0]
        _, d_min = exhaustive_quantize(g, src)
        bip_ok = bip_ok and res.distortion >= d_min - 1e-12
    suites.append(("bip_never_beats_exhaustive_100", bip_ok))

    rng = random.Random(99)
    ratio_ok = True
    for _ in range(200):
        vals = [rng.uniform(-0.999, 0.999)
                for _ in range(rng.randrange(2, 9))]
        plus = math.prod(1 + v for v in vals)
        minus = math.prod(1 - v for v in vals)
        ratio = (plus - minus) / (plus + minus)
        hyper = math.tanh(sum(math.atanh(v) for v in vals))
        ratio_ok = ratio_ok and abs(ratio - hyper) <= 1e-10
    suites.append(("check_update_ratio_vs_atanh_1e-10", ratio_ok))

    config = ExperimentConfig(code_id="tiny", params=TINY_PARAMS, p=0.25,
                              trials=3, seed=99)
    suites.append(("seed_determinism_across_workers",
                   run_experiment(tiny_code, config, workers=1)
                   == run_experiment(tiny_code, config, workers=2)))

    passed = sum(ok for _, ok in suites)
    report(7, passed == len(suites),
           f"{passed}/{len(suites)} suites: "
           + ", ".join(f"{name}={'ok' if ok else 'FAIL'}"
                       for name, ok in suites))
    assert all(ok for _, ok in suites), [n for n, ok in suites if not ok]


def test_scaled_build_pinned(scaled_code):
    """The n = 10^4 build, pinned bit for bit by digests of h and g1."""
    digest = test_builder.digest
    assert (digest(scaled_code.h), digest(scaled_code.g1)) == (
        "7f184090990bd71d", "26fdd4c6412dec93")


def test_scaled_b_columns_and_g1_match_references(scaled_code):
    assert scaled_code.b_columns == test_builder.reference_b_columns(
        scaled_code.h, scaled_code.params)
    assert scaled_code.g1 == test_builder.reference_g1(scaled_code)
