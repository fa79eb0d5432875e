"""Bias propagation against the exhaustive minimum-distortion oracle."""

import math
import random
import re
from dataclasses import fields
from typing import NamedTuple

import numpy as np
import pytest

from wzkit import quantizer
from wzkit.decoder import _check_product
from wzkit.gf2 import BitMatrix, BitVector, ShapeError
from wzkit.quantizer import (EXHAUSTIVE_LIMIT, BipParams, QuantizeResult,
                             bip_quantize_all, exhaustive_quantize,
                             generator_codeword, has_four_cycle)


def random_generator(rng, rows, cols, density=0.35):
    mat = [[c for c in range(cols) if rng.random() < density]
           for _ in range(rows)]
    for r, sup in enumerate(mat):
        if not sup:
            sup.append(rng.randrange(cols))
    return BitMatrix(rows, cols, mat)


# the source term's magnitude at which the quantizer stops taking a gamma
SAT = 1.0 - 1e-15


def saturation_boundary():
    """The largest double gamma whose float(np.tanh(gamma)) stays below
    SAT and the next double up, found by bisection on np.tanh."""
    lo, hi = 1.0, 40.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        if float(np.tanh(mid)) >= SAT:
            hi = mid
        else:
            lo = mid


# the largest gamma BipParams takes: its source term lies nearest 1
TOP_GAMMA = saturation_boundary()[0]


def reference_codeword(g, u):
    """u @ g as the XOR of the packed rows of g that u selects."""
    bits = 0
    for i, row in enumerate(g.bitrows()):
        if u[i]:
            bits ^= row
    return BitVector(g.cols, bits)


class TestGeneratorCodeword:
    def test_matches_row_xor(self):
        g = BitMatrix(3, 6, [[0, 1], [1, 2, 3], [4, 5]])
        word = generator_codeword(g, BitVector(3, 0b101))
        assert word == BitVector(6, (1 << 0 | 1 << 1) ^ (1 << 4 | 1 << 5))

    def test_matches_packed_rows_on_random_generators(self):
        """Empty rows, overlapping rows, and u = 0, all ones and random."""
        rng = random.Random(31)
        empty_rows = 0
        for _ in range(60):
            rows, cols = rng.randint(1, 20), rng.randint(1, 40)
            g = BitMatrix(rows, cols, [
                rng.sample(range(cols), rng.randint(0, min(cols, 8)))
                for _ in range(rows)])
            empty_rows += int((g.row_lengths() == 0).sum())
            for bits in (0, (1 << rows) - 1, rng.getrandbits(rows)):
                u = BitVector(rows, bits)
                assert generator_codeword(g, u) == reference_codeword(g, u)
        assert empty_rows >= 10

    def test_shape_error(self):
        g = BitMatrix(3, 6, [[0], [1], [2]])
        with pytest.raises(ShapeError):
            generator_codeword(g, BitVector(4, 0))


class TestExhaustive:
    def test_zero_source_picks_zero_word(self):
        g = BitMatrix(3, 8, [[0, 1], [2, 3], [4, 5]])
        u, d = exhaustive_quantize(g, BitVector(8, 0))
        assert u.bits == 0 and d == 0.0

    def test_exact_on_codeword(self):
        rng = random.Random(2)
        g = random_generator(rng, 6, 14)
        u_true = BitVector(6, rng.getrandbits(6))
        word = generator_codeword(g, u_true)
        u, d = exhaustive_quantize(g, word)
        assert d == 0.0
        assert generator_codeword(g, u) == word

    def test_lexicographic_tie_break(self):
        # u=01, u=10, and u=11 all sit at distance 1; coordinate-order
        # comparison must pick u with the zero first bit over the earlier find
        g = BitMatrix(2, 4, [[0, 2], [1, 2]])
        src = BitVector(4, 0b0111)
        u, d = exhaustive_quantize(g, src)
        assert d == pytest.approx(1 / 4)
        assert u == BitVector(2, 0b10)

    def test_row_limit_enforced(self):
        rows = EXHAUSTIVE_LIMIT + 1
        g = BitMatrix(rows, rows, [[i] for i in range(rows)])
        with pytest.raises(ValueError):
            exhaustive_quantize(g, BitVector(rows, 0))

    def test_shape_error(self):
        g = BitMatrix(2, 4, [[0], [1]])
        with pytest.raises(ShapeError):
            exhaustive_quantize(g, BitVector(5, 0))


def reference_has_four_cycle(g):
    """The row-by-row pair enumeration has_four_cycle replaced."""
    total_pairs = sum(len(s) * (len(s) - 1) // 2 for s in g.row_support)
    if total_pairs > quantizer._FOUR_CYCLE_PAIR_BUDGET:
        return True
    keys = np.empty(total_pairs, dtype=np.int64)
    pos = 0
    for sup in g.row_support:
        arr = np.array(sup, dtype=np.int64)
        if arr.size < 2:
            continue
        ii, jj = np.triu_indices(arr.size, k=1)
        block = arr[ii] * g.cols + arr[jj]
        keys[pos:pos + block.size] = block
        pos += block.size
    keys = keys[:pos]
    keys.sort()
    return bool(np.any(keys[1:] == keys[:-1]))


class TestHasFourCycle:
    def test_positive(self):
        # rows 0 and 1 share columns 0 and 1
        g = BitMatrix(2, 3, [[0, 1], [0, 1, 2]])
        assert has_four_cycle(g)

    def test_negative(self):
        g = BitMatrix(3, 6, [[0, 1], [1, 2], [3, 4]])
        assert not has_four_cycle(g)

    @pytest.mark.parametrize("rows, expected", [
        ([], False),
        ([[], [3], [], [5]], False),                 # lengths 0 and 1 only
        ([[0, 1], [], [0, 2, 5], [4], [1, 2, 3]], False),
        ([[0, 1], [], [0, 2, 5], [4], [1, 2, 3], [2, 5]], True),
        ([[0, 3, 6, 9], [3], [6, 9]], True),         # shared pair, mixed lengths
    ])
    def test_short_and_mixed_rows(self, rows, expected):
        g = BitMatrix(len(rows), 10, rows)
        assert has_four_cycle(g) is reference_has_four_cycle(g) is expected

    def test_matches_reference_on_random_generators(self, cli_code):
        rng = random.Random(0xC7C1)
        seen = set()
        for _ in range(300):
            rows = rng.randrange(1, 30)
            cols = rng.randrange(2, 60)
            density = rng.choice([0.02, 0.05, 0.1, 0.3])
            g = BitMatrix(rows, cols, [
                [c for c in range(cols) if rng.random() < density]
                for _ in range(rows)])
            answer = has_four_cycle(g)
            assert answer == reference_has_four_cycle(g)
            seen.add(answer)
        assert seen == {True, False}
        g_sub = cli_code.quantizer.g_sub
        assert has_four_cycle(g_sub) is reference_has_four_cycle(g_sub) is True

    def test_over_budget_assumed_cyclic(self, monkeypatch):
        g = BitMatrix(3, 12, [[0, 1, 2], [3, 4, 5], [6, 7, 8, 9]])  # 12 pairs
        assert not has_four_cycle(g)
        monkeypatch.setattr(quantizer, "_FOUR_CYCLE_PAIR_BUDGET", 11)
        assert has_four_cycle(g) and reference_has_four_cycle(g)
        monkeypatch.setattr(quantizer, "_FOUR_CYCLE_PAIR_BUDGET", 12)
        assert not has_four_cycle(g)


class TestBipParams:
    def test_defaults_resolve_lazily(self):
        p = BipParams()
        assert p.gamma is None and p.damping is None

    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.0},
        {"gamma": -1.0},
        {"threshold": 0.0},
        {"threshold": 1.0},
        {"iters_per_round": 0},
        {"damping": 1.0},
        {"damping": -0.1},
        {"gamma": math.nan},
        {"gamma": math.inf},
        {"gamma": -math.inf},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            BipParams(**kwargs)

    def test_gamma_must_not_saturate_the_source_term(self):
        """tanh rounds to 1 - 1e-15 or above from about gamma 17.585 on;
        the first such double is rejected, the one below it taken."""
        below, first = saturation_boundary()
        assert np.nextafter(below, math.inf) == first
        assert 17.5 < below < 17.6
        assert BipParams(gamma=below).gamma == below
        for gamma in (first, 20.0, 1e300):
            with pytest.raises(ValueError,
                               match=re.escape(f"gamma {gamma} saturates")):
                BipParams(gamma=gamma)

    @pytest.mark.parametrize("iters", [2.5, 25.0, False])
    def test_iters_per_round_must_be_an_integer(self, iters):
        with pytest.raises(TypeError, match="iters_per_round must be an "
                                            f"integer, got {iters}"):
            BipParams(iters_per_round=iters)
        assert BipParams(iters_per_round=np.int32(7)).iters_per_round == 7


class TestBipQuantize:
    """One word at a time: bip_quantize_all on a batch of one."""

    def test_never_beats_exhaustive_oracle(self):
        """Heuristic distortion is bounded below by the exact minimum, 100 codebooks."""
        rng = random.Random(0xBEEF)
        for _ in range(100):
            rows = rng.randrange(4, 13)
            cols = rows + rng.randrange(4, 12)
            g = random_generator(rng, rows, cols)
            src = BitVector(cols, rng.getrandbits(cols))
            res = bip_quantize_all(g, [src])[0]
            _, d_min = exhaustive_quantize(g, src)
            assert res.distortion >= d_min - 1e-12
            word = generator_codeword(g, res.u)
            assert res.codeword == word
            assert res.distortion == pytest.approx(
                (word ^ src).weight() / cols)

    def test_reaches_codewords_exactly(self):
        rng = random.Random(7)
        hits = 0
        for _ in range(50):
            g = random_generator(rng, 6, 16)
            word = generator_codeword(g, BitVector(6, rng.getrandbits(6)))
            res = bip_quantize_all(g, [word])[0]
            hits += res.distortion == 0.0
        assert hits >= 45

    def test_counters_and_shapes(self):
        rng = random.Random(3)
        g = random_generator(rng, 8, 20)
        res = bip_quantize_all(g, [BitVector(20, rng.getrandbits(20))])[0]
        assert res.steps >= 1
        assert res.u.length == 8
        assert res.fallback_fixes >= 0

    def test_result_fields(self):
        assert [f.name for f in fields(QuantizeResult)] == [
            "u", "codeword", "distortion", "steps", "fallback_fixes"]

    def test_shape_error(self):
        g = BitMatrix(2, 4, [[0], [1]])
        with pytest.raises(ShapeError):
            bip_quantize_all(g, [BitVector(3, 0)])

    def test_deterministic(self):
        rng = random.Random(11)
        g = random_generator(rng, 10, 24)
        src = BitVector(24, rng.getrandbits(24))
        a = bip_quantize_all(g, [src])[0]
        b = bip_quantize_all(g, [src])[0]
        assert a == b


class TestBipQuantizeAll:
    """Every word of a batch gets exactly the result it gets alone."""

    @staticmethod
    def alone(g, sources, params):
        return [bip_quantize_all(g, [s], params)[0] for s in sources]

    @staticmethod
    def case(seed, rows, cols, count, density=0.2):
        rng = random.Random(seed)
        g = random_generator(rng, rows, cols, density)
        return g, [BitVector(cols, rng.getrandbits(cols)) for _ in range(count)]

    def test_default_gamma_must_not_saturate(self):
        """The default gamma is twice the rows per column: 9 rows on one
        column give 18, which saturates; 35 rows on 4 columns give 17.5."""
        g = BitMatrix(9, 1, [[0]] * 9)
        with pytest.raises(ValueError, match="gamma 18.0 saturates"):
            bip_quantize_all(g, [BitVector(1, 1)])
        g = BitMatrix(35, 4, [[r % 4] for r in range(35)])
        res = bip_quantize_all(g, [BitVector(4, 0b0110)])[0]
        assert res.codeword == generator_codeword(g, res.u)

    def test_generator_without_rows_rejected(self):
        with pytest.raises(ShapeError,
                           match="generator needs at least one row"):
            bip_quantize_all(BitMatrix(0, 3, []), [BitVector(3, 0b101)])

    @pytest.mark.parametrize("params", [
        BipParams(),
        BipParams(damping=0.0),
        BipParams(damping=0.5),
        BipParams(gamma=TOP_GAMMA, damping=0.0),
        BipParams(damping=0.5, threshold=0.6, iters_per_round=4),
    ])
    def test_equals_each_word_alone(self, params):
        g, sources = self.case(21, 30, 70, 5)
        sources.append(sources[1])  # a duplicate word
        expected = self.alone(g, sources, params)
        assert bip_quantize_all(g, sources, params) == expected
        # every position and every composition gives the same per-word result
        rng = random.Random(5)
        for _ in range(4):
            order = rng.sample(range(len(sources)), len(sources))
            got = bip_quantize_all(g, [sources[i] for i in order], params)
            assert got == [expected[i] for i in order]
        for lo, hi in ((0, 2), (2, 6), (3, 4)):
            assert bip_quantize_all(g, sources[lo:hi], params) == expected[lo:hi]

    def test_words_finishing_far_apart(self, monkeypatch):
        """A codeword source settles in a few rounds of the round-by-round
        loop; at a high threshold a random one goes one variable per round."""
        rng = random.Random(8)
        g = random_generator(rng, 24, 48, 0.15)
        params = BipParams(threshold=0.99, iters_per_round=3)
        sources = [generator_codeword(g, BitVector(24, rng.getrandbits(24))),
                   BitVector(48, rng.getrandbits(48)),
                   BitVector(48, 0)]
        expected = self.alone(g, sources, params)
        reference = quantize_with_reference(monkeypatch, g, sources, params)
        rounds = [r.rounds for r in reference]
        assert max(rounds) >= 4 * min(rounds)
        assert bits(expected) == bits(reference)
        assert bip_quantize_all(g, sources, params) == expected
        assert bip_quantize_all(g, sources[::-1], params) == expected[::-1]

    def test_edge_budget_split_equals_one_batch(self, monkeypatch):
        g, sources = self.case(17, 20, 50, 7)
        whole = bip_quantize_all(g, sources)
        batches = []
        real = quantizer._decimate

        def recording(g, batch, *args):
            batches.append(len(batch))
            return real(g, batch, *args)

        monkeypatch.setattr(quantizer, "_decimate", recording)
        monkeypatch.setattr(quantizer, "_BATCH_EDGE_BUDGET",
                            3 * g.edges()[0].size)
        assert bip_quantize_all(g, sources) == whole
        assert batches == [3, 3, 1]

    def test_generator_with_an_empty_row(self):
        """The edgeless variable is fixed to 0 by the largest-bias fallback,
        also once no edges are left in the whole batch."""
        g = BitMatrix(3, 5, [[0, 1], [], [2, 3]])
        sources = [BitVector(5, bits) for bits in (0b00000, 0b11111, 0b01101)]
        expected = self.alone(g, sources, BipParams())
        assert all(r.u.bits >> 1 & 1 == 0 for r in expected)
        assert all(r.fallback_fixes >= 1 for r in expected)
        assert bip_quantize_all(g, sources) == expected

    def test_empty_and_shape_checks(self):
        g, sources = self.case(2, 6, 16, 2)
        assert bip_quantize_all(g, []) == []
        with pytest.raises(ShapeError):
            bip_quantize_all(g, [sources[0], BitVector(15, 0)])


def test_ratio_form_matches_atanh_sum():
    """Product form of the check update equals the hyperbolic form to 1e-10."""
    rng = random.Random(99)
    for _ in range(200):
        k = rng.randrange(2, 9)
        vals = [rng.uniform(-0.999, 0.999) for _ in range(k)]
        plus = math.prod(1 + v for v in vals)
        minus = math.prod(1 - v for v in vals)
        ratio = (plus - minus) / (plus + minus)
        hyper = math.tanh(sum(math.atanh(v) for v in vals))
        assert abs(ratio - hyper) <= 1e-10


class Reference(NamedTuple):
    """What reference_decimate gives per word: the bits, and the rounds that
    the round-by-round loop ran."""
    u: BitVector
    codeword: BitVector
    distortion: float
    rounds: int


def bits(results):
    """The u, codeword and distortion of every result."""
    return [(r.u, r.codeword, r.distortion) for r in results]


def reference_decimate(g, sources, params, src_mag, damping):
    """The decimation loop before it skipped untouched components: every
    round restarts the messages at ones and sweeps every live edge, and
    clips every message to +-SAT before arctanh.  quantizer._decimate,
    which keeps no clip, must match its bits."""
    words, n_var, n_chk = len(sources), g.rows, g.cols
    n_vars, n_chks = words * n_var, words * n_chk
    ev, ec = g.edges()
    shift = np.arange(words, dtype=np.int64)[:, None]
    edge_var = (ev + shift * n_var).ravel()
    edge_check = (ec + shift * n_chk).ravel()

    s_arr = np.array([s.to_list() for s in sources], dtype=np.int64).ravel()
    sign_eff = 1.0 - 2.0 * s_arr.astype(np.float64)
    fixed = np.full(n_vars, -1, dtype=np.int64)
    rounds = np.zeros(words, dtype=np.int64)

    while True:
        active = (fixed < 0).reshape(words, n_var).any(axis=1)
        if not active.any():
            break
        rounds += active
        theta = np.ones(edge_var.size, dtype=np.float64)
        src_term = src_mag * sign_eff[edge_check]
        var_live, sweep_var = quantizer._renumber(edge_var, n_vars)
        chk_live, sweep_check = quantizer._renumber(edge_check, n_chks)
        n_live_var = np.count_nonzero(var_live)
        n_live_chk = np.count_nonzero(chk_live)
        for _ in range(params.iters_per_round):
            phi = _check_product(theta, sweep_check, n_live_chk)
            phi *= src_term
            w = np.arctanh(np.minimum(np.maximum(phi, -SAT, out=phi), SAT,
                                      out=phi), out=phi)
            bias_sum = np.bincount(sweep_var, weights=w, minlength=n_live_var)
            theta_new = np.tanh(bias_sum[sweep_var] - w)
            theta = damping * theta + (1.0 - damping) * theta_new

        bias = np.zeros(n_vars, dtype=np.float64)
        bias[var_live] = np.tanh(bias_sum)
        over = np.abs(bias) > params.threshold
        stalled = np.flatnonzero(active & ~over.reshape(words, n_var).any(axis=1))
        if stalled.size:
            cand = np.where(fixed < 0, np.abs(bias), -1.0).reshape(words, n_var)
            over[stalled * n_var + np.argmax(cand[stalled], axis=1)] = True
        fixed[over] = (bias[over] < 0.0).astype(np.int64)

        on_fixed = over[edge_var]
        ones_edges = edge_check[on_fixed & (fixed[edge_var] == 1)]
        flips = np.bincount(ones_edges, minlength=n_chks) % 2
        sign_eff *= 1.0 - 2.0 * flips
        keep = ~on_fixed
        edge_var, edge_check = edge_var[keep], edge_check[keep]

    results = []
    for k, source in enumerate(sources):
        u = BitVector.from_bits_list(fixed[k * n_var:(k + 1) * n_var].tolist())
        word = generator_codeword(g, u)
        results.append(Reference(u, word, word.hamming(source) / g.cols,
                                 int(rounds[k])))
    return results


def quantize_with_reference(monkeypatch, g, sources, params=BipParams()):
    with monkeypatch.context() as patch:
        patch.setattr(quantizer, "_decimate", reference_decimate)
        return bip_quantize_all(g, sources, params)


@pytest.fixture
def sweep_sizes(monkeypatch):
    """Edge count of every sweep the quantizer runs.  Every sweep sees
    each of its checks at least twice: a check with one live edge is
    not swept."""
    sizes = []
    real = quantizer._check_product

    def recording(theta, edge_check, n_checks):
        assert n_checks >= 1
        assert np.bincount(edge_check, minlength=n_checks).min() >= 2
        sizes.append(theta.size)
        return real(theta, edge_check, n_checks)

    monkeypatch.setattr(quantizer, "_check_product", recording)
    return sizes


@pytest.fixture
def fired(monkeypatch):
    """Per step of _decimate, the component root, |bias| and the over
    and fallback masks of _pick, over the free variables of the batch."""
    steps = []
    real = quantizer._pick

    def recording(root, bias, threshold):
        over, fallback = real(root, bias, threshold)
        steps.append((root, np.abs(bias), over, fallback))
        return over, fallback

    monkeypatch.setattr(quantizer, "_pick", recording)
    return steps


class TestSkipsUntouchedComponents:
    """A step sweeps the live graph once and fires every component, so no
    component is swept twice unchanged; u, the codeword and the distortion
    stay those of sweeping everything each round."""

    PARAMS = [
        BipParams(),
        BipParams(gamma=TOP_GAMMA, damping=0.0),
        BipParams(damping=0.0),
        BipParams(damping=0.5),
        BipParams(threshold=0.5),
        BipParams(iters_per_round=3),
    ]

    # rows that share no column: every variable is its own component
    DISJOINT = (BitMatrix(6, 16, [[0, 1, 2], [3], [4, 5], [6, 7, 8, 9],
                                  [10, 11], [12, 13, 14, 15]]),
                BitVector(16, 0b1011_0110_1001_1100))

    def test_matches_reference_on_random_generators(self, monkeypatch):
        rng = random.Random(0xDEC1)
        seen = {"empty rows": 0, "rejected": 0}
        for case in range(300):
            rows = rng.randrange(1, 25)
            cols = rng.randrange(2, 50)
            density = rng.choice([0.05, 0.1, 0.2, 0.35])
            g = BitMatrix(rows, cols, [
                [c for c in range(cols) if rng.random() < density]
                for _ in range(rows)])
            sources = [BitVector(cols, rng.getrandbits(cols))
                       for _ in range(rng.randrange(1, 6))]
            params = self.PARAMS[case % len(self.PARAMS)]
            seen["empty rows"] += any(not sup for sup in g.row_support)
            if params.gamma is None and 2.0 * rows / cols > TOP_GAMMA:
                # the default gamma, twice the rows per column, saturates
                seen["rejected"] += 1
                with pytest.raises(ValueError, match="saturates"):
                    bip_quantize_all(g, sources, params)
                continue
            got = bip_quantize_all(g, sources, params)
            assert bits(got) == bits(quantize_with_reference(
                monkeypatch, g, sources, params))
        assert seen["empty rows"] >= 20 and seen["rejected"] >= 1, seen

    @staticmethod
    def corner_case(rng, kind):
        """A generator, sources and knobs that aim at one corner of the
        step loop's equivalence with the round-by-round loop."""
        rows, cols = rng.randrange(4, 20), rng.randrange(8, 40)
        density = rng.choice([0.05, 0.1, 0.2])
        mat = [[c for c in range(cols) if rng.random() < density]
               for _ in range(rows)]
        params = rng.choice([BipParams(), BipParams(damping=0.0),
                             BipParams(threshold=0.6, iters_per_round=4)])
        count = rng.randrange(1, 5)
        if kind == "ties":
            # rows of weight 2 on columns of their own: with opposite source
            # bits the two messages cancel and the bias is exactly 0, with
            # equal bits it is the same for every such row, so the
            # round-by-round loop fires them one per round, also at the
            # top gamma
            pairs = rng.randrange(2, 6)
            if rng.random() < 0.5:
                params = BipParams(gamma=TOP_GAMMA, damping=0.0)
            mat += [[cols + 2 * i, cols + 2 * i + 1] for i in range(pairs)]
            cols += 2 * pairs
        elif kind == "empty rows":
            for r in rng.sample(range(rows), rng.randrange(1, 3)):
                mat[r] = []
        elif kind == "far apart":
            # the zero word (added below) often settles in a round or two,
            # a random word takes many
            rows, cols = rng.randrange(6, 20), rng.randrange(24, 60)
            mat = [[c for c in range(cols) if rng.random() < density * 2]
                   for _ in range(rows)]
            params = BipParams()
        elif kind == "conflicts":
            params = rng.choice([BipParams(gamma=TOP_GAMMA, damping=0.0),
                                 BipParams(gamma=TOP_GAMMA, damping=0.5)])
            mat = [[c for c in range(cols) if rng.random() < 0.3]
                   for _ in range(rows)]
        g = BitMatrix(len(mat), cols, mat)
        sources = [BitVector(cols, rng.getrandbits(cols))
                   for _ in range(count)]
        if kind in ("far apart", "plain"):
            sources.append(BitVector(cols, 0))
        return g, sources, params

    def test_matches_reference_on_corner_cases(self, fired, monkeypatch):
        rng = random.Random(0xC0DE)
        kinds = ["ties", "empty rows", "conflicts", "far apart", "plain"]
        seen = {"ties": 0, "threshold beside waiting": 0, "empty rows": 0,
                "top gamma": 0, "far apart": 0}
        for case in range(150):
            g, sources, params = self.corner_case(rng, kinds[case % 5])
            fired.clear()
            got = bip_quantize_all(g, sources, params)
            reference = quantize_with_reference(monkeypatch, g, sources,
                                                params)
            assert bits(got) == bits(reference)
            ties = beside = False
            for root, mag, over, fallback in fired:
                # one fallback variable per waiting component
                waiting = mag[fallback]
                ties |= np.unique(waiting).size < waiting.size
                beside |= bool(over.any() and waiting.size)
            seen["ties"] += ties
            seen["threshold beside waiting"] += beside
            seen["empty rows"] += any(not sup for sup in g.row_support)
            seen["top gamma"] += params.gamma == TOP_GAMMA
            rounds = [r.rounds for r in reference]
            seen["far apart"] += max(rounds) >= 4 * min(rounds)
        assert min(seen.values()) >= 20, seen

    def test_steps_far_fewer_than_rounds(self, small_code, sweep_sizes,
                                         monkeypatch):
        """On small_code's quantizer, 12 words at threshold 0.95 take 91
        rounds at most in the round-by-round loop but 42 steps; the loop
        that re-swept touched components took 61.  A step sweeps at most
        once, and not at all when every live check has one edge: here 41
        of the 42 steps sweep."""
        g = small_code.quantizer.g_sub
        rng = random.Random(0x6A3)
        sources = [BitVector(g.cols, rng.getrandbits(g.cols))
                   for _ in range(12)]
        params = BipParams(threshold=0.95)
        got = bip_quantize_all(g, sources, params)
        batches = len(sweep_sizes) // params.iters_per_round
        assert len(sweep_sizes) == batches * params.iters_per_round
        assert 1 <= batches <= max(r.steps for r in got)
        reference = quantize_with_reference(monkeypatch, g, sources, params)
        assert 2 * max(r.steps for r in got) <= max(r.rounds
                                                    for r in reference)
        assert all(r.steps <= ref.rounds for r, ref in zip(got, reference))
        assert bits(got) == bits(reference)

    def test_matches_reference_at_default_gamma(self, small_code,
                                                monkeypatch):
        """The sweep keeps no clip; the reference still clips."""
        g = small_code.quantizer.g_sub
        gamma, _ = quantizer._resolve(BipParams(), g)
        assert gamma < 2.0
        rng = random.Random(0x6A3)
        sources = [BitVector(g.cols, rng.getrandbits(g.cols))
                   for _ in range(4)]
        for params in (BipParams(), BipParams(damping=0.5)):
            got = bip_quantize_all(g, sources, params)
            assert bits(got) == bits(quantize_with_reference(
                monkeypatch, g, sources, params))

    def test_rows_sharing_no_column_sweep_once(self, sweep_sizes,
                                               monkeypatch):
        """Every variable is its own component, so one step fixes them all
        where the round-by-round loop takes a round per variable under the
        threshold.  Every check has one edge and sends its source term, so
        that step runs no sweep at all."""
        g, source = self.DISJOINT
        params = BipParams(threshold=0.99, iters_per_round=5)
        res = bip_quantize_all(g, [source], params)[0]
        assert res.steps == 1
        assert sweep_sizes == []
        reference = quantize_with_reference(monkeypatch, g, [source], params)
        assert reference[0].rounds > 1
        assert bits([res]) == bits(reference)

    def test_untouched_block_is_not_swept(self, sweep_sizes, monkeypatch):
        """Block A has rows of weight 4 on columns 0-9, each shared by two
        or three rows, and one private column 10; block B is one row of
        weight 2 on columns of its own whose source bits differ, so its
        bias is 0 and the round-by-round loop fixes it last.  Only the
        edges of shared checks are swept: the first step sweeps block A's
        23, B never, and the sweeps shrink as A's rows are fixed until a
        last step whose live checks all have one edge sweeps nothing."""
        block_a = [[0, 1, 2, 3], [2, 3, 4, 5], [4, 5, 6, 7], [6, 7, 8, 9],
                   [8, 9, 0, 1], [0, 4, 8, 10]]
        g = BitMatrix(7, 13, block_a + [[11, 12]])
        source = BitVector(13, 0b01_001_1010_0110)
        params = BipParams(iters_per_round=5)
        res = bip_quantize_all(g, [source], params)[0]
        assert res.steps >= 3
        assert sweep_sizes[:5] == [23] * 5
        later = sweep_sizes[5:]
        assert later and all(size < 23 for size in later)
        assert later == sorted(later, reverse=True)
        assert len(sweep_sizes) == 5 * (res.steps - 1)
        assert bits([res]) == bits(quantize_with_reference(
            monkeypatch, g, [source], params))


def unfolded_decimate(g, sources, params, src_mag, damping):
    """The step loop before it folded checks with one live edge into
    constant messages: every sweep runs the check update on every live
    edge.  quantizer._decimate must match all of its results."""
    words, n_var, n_chk = len(sources), g.rows, g.cols
    n_vars, n_chks = words * n_var, words * n_chk
    ev, ec = g.edges()
    shift = np.arange(words, dtype=np.int64)[:, None]
    edge_var = (ev + shift * n_var).ravel()
    edge_check = (ec + shift * n_chk).ravel()

    s_arr = np.concatenate([s.to_array() for s in sources])
    sign_eff = 1.0 - 2.0 * s_arr.astype(np.float64)
    fixed = np.full(n_vars, -1, dtype=np.int64)
    steps = np.zeros(words, dtype=np.int64)
    fallback_fixes = np.zeros(words, dtype=np.int64)

    while True:
        unfixed = fixed < 0
        free = np.flatnonzero(unfixed)
        if not free.size:
            break
        sweep_var = (np.cumsum(unfixed) - 1)[edge_var]
        chk_live, sweep_check = quantizer._renumber(edge_check, n_chks)
        n_live_chk = np.count_nonzero(chk_live)
        bias_sum = np.zeros(free.size, dtype=np.float64)
        if edge_var.size:
            theta = np.ones(edge_var.size)
            src_term = src_mag * sign_eff[edge_check]
            for _ in range(params.iters_per_round):
                phi = _check_product(theta, sweep_check, n_live_chk)
                phi *= src_term
                w = np.arctanh(phi, out=phi)
                bias_sum = np.bincount(sweep_var, weights=w,
                                       minlength=free.size)
                theta_new = np.tanh(bias_sum[sweep_var] - w)
                theta = damping * theta + (1.0 - damping) * theta_new
        bias = np.tanh(bias_sum)

        root = quantizer._component_roots(sweep_var, sweep_check, free.size,
                                          n_live_chk)
        over, fallback = quantizer._pick(root, bias, params.threshold)
        pick = np.flatnonzero(over | fallback)
        fixed[free[pick]] = (bias[pick] < 0.0).astype(np.int64)
        word_of = free // n_var
        steps += np.bincount(word_of, minlength=words) > 0
        fallback_fixes += np.bincount(word_of[fallback], minlength=words)

        on_fixed = fixed[edge_var] >= 0
        ones_edges = edge_check[on_fixed & (fixed[edge_var] == 1)]
        flips = np.bincount(ones_edges, minlength=n_chks) % 2
        sign_eff *= 1.0 - 2.0 * flips
        keep = ~on_fixed
        edge_var, edge_check = edge_var[keep], edge_check[keep]

    results = []
    for k, source in enumerate(sources):
        u = BitVector.from_array(fixed[k * n_var:(k + 1) * n_var])
        word = generator_codeword(g, u)
        results.append(QuantizeResult(u, word, word.hamming(source) / g.cols,
                                      int(steps[k]), int(fallback_fixes[k])))
    return results


def quantize_unfolded(monkeypatch, g, sources, params=BipParams()):
    with monkeypatch.context() as patch:
        patch.setattr(quantizer, "_decimate", unfolded_decimate)
        return bip_quantize_all(g, sources, params)


def g_sub_shaped(rng, rows, shared_cols, density):
    """A generator laid out like CompoundQuantizer.g_sub: row j holds random
    columns of the first shared_cols plus its own column shared_cols + j."""
    mat = [[c for c in range(shared_cols) if rng.random() < density]
           + [shared_cols + j] for j in range(rows)]
    return BitMatrix(rows, shared_cols + rows, mat)


def alone_mid_run(g, words, fired):
    """Whether some check of the batch had two or more live edges in one
    step and exactly one in a later step, replayed from the picks that the
    fired recorder saw."""
    ev, ec = g.edges()
    free = np.ones((words, g.rows), dtype=bool)
    was_shared = np.zeros((words, g.cols), dtype=bool)
    for _, _, over, fallback in fired:
        live = np.stack([np.bincount(ec[f[ev]], minlength=g.cols)
                         for f in free])
        if (was_shared & (live == 1)).any():
            return True
        was_shared |= live > 1
        at = np.flatnonzero(free.ravel())
        free.ravel()[at[over | fallback]] = False
    return False


class TestFoldsPrivateChecks:
    """A check with one live edge sends that edge its source term in every
    sweep, so _decimate computes it once per step and sweeps only shared
    checks; every result field stays that of sweeping every live edge."""

    PARAMS = [
        BipParams(damping=0.0),
        BipParams(damping=0.5),
        BipParams(gamma=TOP_GAMMA, damping=0.0),
        BipParams(gamma=TOP_GAMMA, damping=0.5, iters_per_round=3),
        BipParams(iters_per_round=1),
        BipParams(threshold=0.6, iters_per_round=3),
    ]

    def test_matches_unfolded_on_g_sub_shaped_generators(self, fired,
                                                         monkeypatch):
        rng = random.Random(0xF01D)
        seen = {"alone mid-run": 0, "top gamma": 0, "empty rows": 0}
        for case in range(120):
            rows = rng.randrange(2, 20)
            g = g_sub_shaped(rng, rows, rng.randrange(2, 2 * rows),
                             rng.choice([0.1, 0.2, 0.35]))
            if case % 6 == 5:
                mat = [list(sup) for sup in g.row_support]
                mat[rng.randrange(rows)] = []
                g = BitMatrix(rows, g.cols, mat)
            sources = [BitVector(g.cols, rng.getrandbits(g.cols))
                       for _ in range(rng.randrange(1, 5))]
            params = self.PARAMS[case % len(self.PARAMS)]
            fired.clear()
            got = bip_quantize_all(g, sources, params)
            seen["alone mid-run"] += alone_mid_run(g, len(sources), fired)
            assert got == quantize_unfolded(monkeypatch, g, sources, params)
            seen["top gamma"] += params.gamma == TOP_GAMMA
            seen["empty rows"] += any(not sup for sup in g.row_support)
        assert min(seen.values()) >= 15, seen

    @pytest.mark.parametrize("params", PARAMS)
    def test_all_private_generator_sweeps_nothing(self, params, sweep_sizes,
                                                  monkeypatch):
        """Rows of one to three columns of their own: no check is shared,
        so nothing is swept."""
        rng = random.Random(0xA11)
        lengths = [rng.randrange(1, 4) for _ in range(12)]
        starts = np.cumsum([0] + lengths)
        g = BitMatrix(12, int(starts[-1]),
                      [list(range(starts[j], starts[j + 1]))
                       for j in range(12)])
        sources = [BitVector(g.cols, rng.getrandbits(g.cols))
                   for _ in range(3)]
        got = bip_quantize_all(g, sources, params)
        assert sweep_sizes == []
        assert got == quantize_unfolded(monkeypatch, g, sources, params)
        assert all(r.steps == 1 for r in got)

    def test_edge_budget_split(self, monkeypatch):
        rng = random.Random(0xB0D)
        g = g_sub_shaped(rng, 16, 20, 0.2)
        sources = [BitVector(g.cols, rng.getrandbits(g.cols))
                   for _ in range(7)]
        params = BipParams(gamma=TOP_GAMMA, damping=0.5)
        whole = bip_quantize_all(g, sources, params)
        monkeypatch.setattr(quantizer, "_BATCH_EDGE_BUDGET",
                            3 * g.edges()[0].size)
        assert bip_quantize_all(g, sources, params) == whole
        assert quantize_unfolded(monkeypatch, g, sources, params) == whole

    def test_small_code_sweeps_only_shared_checks(self, small_code,
                                                  sweep_sizes, monkeypatch):
        """On small_code's g_sub every row owns a private tail column, so
        the first step's sweeps leave out one edge per row, and every sweep
        sees each of its checks at least twice (the sweep_sizes recorder
        asserts it)."""
        g = small_code.quantizer.g_sub
        rng = random.Random(0x5EB)
        sources = [BitVector(g.cols, rng.getrandbits(g.cols))
                   for _ in range(3)]
        for params in (BipParams(), BipParams(gamma=TOP_GAMMA, damping=0.5)):
            sweep_sizes.clear()
            got = bip_quantize_all(g, sources, params)
            assert sweep_sizes[0] == 3 * (g.edges()[0].size - g.rows)
            assert got == quantize_unfolded(monkeypatch, g, sources, params)
