"""Syndrome sum-product decoding against exact coset search."""

import math
import random
import warnings
from itertools import combinations

import numpy as np
import pytest

from wzkit import decoder
from wzkit.decoder import (COSET_ENUM_LIMIT, DecodeResult, SpParams,
                           _check_product, _slot_check_pass, coset_members,
                           coset_nearest, sp_decode)
from wzkit.gf2 import BitMatrix, BitVector, ShapeError, mul_vec, rank

ROW_PAIRS = list(combinations(range(6), 2))


def random_parity_check(rng, rows, cols, density=0.4):
    while True:
        mat = [[c for c in range(cols) if rng.random() < density]
               for _ in range(rows)]
        for sup in mat:
            if not sup:
                sup.append(rng.randrange(cols))
        h = BitMatrix(rows, cols, mat)
        if rank(h) == rows:
            return h


def girth_six_check(rng):
    """Random 6x12 parity check with column weight 2 and distinct row pairs.

    Distinct pairs rule out length-4 cycles in the factor graph and weight-2
    codewords, so a single flipped bit always has a strictly unique nearest
    coset member and the message passing never stalls on a tight loop.
    """
    cols = rng.sample(ROW_PAIRS, 12)
    return BitMatrix(6, 12, [[c for c, pair in enumerate(cols) if r in pair]
                             for r in range(6)])


def reference_check_pass(theta, edge_check, n_checks):
    """The leave-one-out check product as the plain log-magnitude formula:
    float sign counts, a float remainder for parity, and explicit zero counts
    on every call.  _check_product must match it bit for bit."""
    zero = theta == 0.0
    safe = np.where(zero, 1.0, theta)
    log_abs = np.log(np.abs(safe))
    neg = (theta < 0.0).astype(np.float64)
    log_sum = np.bincount(edge_check, weights=log_abs, minlength=n_checks)
    neg_sum = np.bincount(edge_check, weights=neg, minlength=n_checks)
    zero_sum = np.bincount(edge_check, weights=zero.astype(np.float64),
                           minlength=n_checks)
    others_zero = zero_sum[edge_check] - zero
    log_others = log_sum[edge_check] - np.where(zero, 0.0, log_abs)
    sign_others = 1.0 - 2.0 * ((neg_sum[edge_check] - neg) % 2)
    prod = sign_others * np.exp(log_others)
    return np.where(others_zero > 0, 0.0, prod)


def reference_sp_decode(h, syndrome, side_info, params):
    """sp_decode as it ran on the edge list before the check-slot layout, with
    the reference check pass; sp_decode must match it bit for bit."""
    edge_check, edge_var = h.edges()
    syn = syndrome.to_array().astype(np.int64)
    syn_scale = 2.0 - 4.0 * syn[edge_check]
    llr0 = float(np.log((1.0 - params.crossover) / params.crossover))
    j_bits = side_info.to_array().astype(np.int64)
    channel = llr0 * (1.0 - 2.0 * j_bits)
    lo, hi = -params.llr_clip, params.llr_clip

    def syndrome_ok(bits):
        counts = np.bincount(edge_check[bits[edge_var]], minlength=h.rows)
        return bool(np.array_equal(counts % 2, syn))

    if syndrome_ok(j_bits.astype(bool)):
        return DecodeResult(side_info, True, 0)
    msg_vc = channel[edge_var]
    for it in range(1, params.max_iter + 1):
        t = np.tanh(msg_vc / 2.0)
        prod = reference_check_pass(t, edge_check, h.rows)
        np.clip(prod, -1.0 + 1e-15, 1.0 - 1e-15, out=prod)
        msg_cv = np.arctanh(prod, out=prod)
        msg_cv *= syn_scale
        np.clip(msg_cv, lo, hi, out=msg_cv)
        posterior = channel + np.bincount(edge_var, weights=msg_cv,
                                          minlength=h.cols)
        msg_vc = posterior[edge_var]
        msg_vc -= msg_cv
        np.clip(msg_vc, lo, hi, out=msg_vc)
        hard = posterior < 0.0
        if syndrome_ok(hard):
            return DecodeResult(BitVector.from_array(hard), True, it)
    return DecodeResult(BitVector.from_array(hard), False, params.max_iter)


# the cap of a check message in half LLRs when llr_clip is no tighter
ARCTANH_TOP = float(np.arctanh(1.0 - 1e-15))


def slot_pass(h, theta, syn):
    """_slot_check_pass on h's check slots, with theta (one value per
    edge, row-major) placed in them and the padding at 1.0, read back per
    edge and doubled to full LLRs."""
    slots, pos = h.slots()
    padded = np.ones(slots.shape)
    padded.ravel()[pos] = theta
    with np.errstate(divide="ignore"):
        half = _slot_check_pass(padded, syn, ARCTANH_TOP,
                                np.empty_like(padded))
    return 2.0 * half.ravel()[pos]


def random_check_matrix(rng, rows, cols, max_len):
    """Rows of random length 0..max_len (at most cols), so that slots are
    padded, some rows are empty and some have one entry."""
    return BitMatrix(rows, cols, [
        rng.sample(range(cols), rng.randint(0, min(cols, max_len)))
        for _ in range(rows)])


def zero_message_cases(rng, count):
    """(h, syndrome, side info, params) with llr_clip at the channel LLR,
    where a variable can send exactly 0.0: a degree-2 variable whose two
    messages are both clipped to minus its channel LLR does."""
    for case in range(count):
        rows, cols = rng.randint(2, 12), rng.randint(4, 30)
        h = random_check_matrix(rng, rows, cols, rng.choice([3, 6]))
        truth = BitVector(cols, rng.getrandbits(cols))
        syndrome = (mul_vec(h, truth) if case % 3
                    else BitVector(rows, rng.getrandbits(rows)))
        p = rng.choice([0.05, 0.1, 0.2, 0.3])
        noise = BitVector(cols, sum(1 << i for i in range(cols)
                                    if rng.random() < p))
        crossover = rng.choice([0.05, 0.13, 0.2, 0.3])
        llr0 = float(np.log((1.0 - crossover) / crossover))
        params = SpParams(crossover=crossover,
                          max_iter=rng.choice([5, 30]), llr_clip=llr0)
        yield h, syndrome, truth ^ noise, params


def saturating_cases(rng, count):
    """(h, syndrome, side info, params) on rows of 17-18 entries, like
    code11's checks, at a crossover near 1e-9 and llr_clip 40 or 60, above
    2 arctanh(1 - 1e-15) ~ 35.2.  Messages saturate at tanh = 1.0, so a
    check's leave-one-out product reaches exactly 1.0, and most decodes of
    noisy side information run to max_iter."""
    for _ in range(count):
        rows, cols = rng.randint(4, 12), rng.randint(24, 40)
        h = BitMatrix(rows, cols, [rng.sample(range(cols), rng.randint(17, 18))
                                   for _ in range(rows)])
        truth = BitVector(cols, rng.getrandbits(cols))
        p = rng.choice([0.05, 0.1, 0.2])
        noise = BitVector(cols, sum(1 << i for i in range(cols)
                                    if rng.random() < p))
        params = SpParams(crossover=rng.choice([1e-9, 3e-9]),
                          max_iter=rng.choice([30, 60]),
                          llr_clip=rng.choice([40.0, 60.0]))
        yield h, mul_vec(h, truth), truth ^ noise, params


def recording_pass(monkeypatch):
    """Replace sp_decode's check pass with one that records, per call,
    whether its input held an exact zero and whether an output reached
    the cap; returns the two lists."""
    zeros, capped = [], []
    real = decoder._slot_check_pass

    def recording(t, syn, cap, out):
        zeros.append(not t.all())
        real(t, syn, cap, out)
        capped.append(bool((np.abs(out) == cap).any()))
        return out

    monkeypatch.setattr(decoder, "_slot_check_pass", recording)
    return zeros, capped


class TestCheckProduct:
    """Bit-for-bit agreement with the reference; the uint64 view tells -0.0
    from 0.0."""

    @staticmethod
    def assert_same(theta, edge_check, n_checks):
        got = _check_product(theta, edge_check, n_checks)
        want = reference_check_pass(theta, edge_check, n_checks)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
        return got

    @staticmethod
    def shuffled(n_checks, degree, rng):
        """Edge-to-check map with every check at `degree`, in random order."""
        return rng.permutation(np.repeat(np.arange(n_checks), degree))

    def test_random_inputs_without_zeros(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            edge_check = rng.integers(0, 40, size=300)
            theta = rng.uniform(-1.0, 1.0, size=300)
            self.assert_same(theta, edge_check, 45)  # checks 40..44 are empty

    def test_tanh_of_large_messages(self):
        rng = np.random.default_rng(2)
        edge_check = self.shuffled(50, 7, rng)
        theta = np.tanh(rng.normal(0.0, 15.0, size=edge_check.size) / 2.0)
        self.assert_same(theta, edge_check, 50)

    def test_one_zero_in_a_check(self):
        rng = np.random.default_rng(3)
        edge_check = self.shuffled(10, 5, rng)
        theta = rng.uniform(-1.0, 1.0, size=50)
        own = np.flatnonzero(edge_check == 4)
        theta[own[2]] = 0.0
        got = self.assert_same(theta, edge_check, 10)
        others = own[own != own[2]]
        assert np.all(got[others] == 0.0) and got[own[2]] != 0.0

    def test_two_zeros_in_a_check(self):
        rng = np.random.default_rng(4)
        edge_check = self.shuffled(10, 5, rng)
        theta = rng.uniform(-1.0, 1.0, size=50)
        own = np.flatnonzero(edge_check == 7)
        theta[own[:2]] = 0.0
        got = self.assert_same(theta, edge_check, 10)
        assert np.all(got[own] == 0.0)

    def test_negative_zero_entries(self):
        rng = np.random.default_rng(5)
        edge_check = self.shuffled(12, 4, rng)
        theta = rng.uniform(-1.0, 1.0, size=48)
        theta[np.flatnonzero(edge_check == 0)[0]] = -0.0
        theta[np.flatnonzero(edge_check == 5)[:2]] = [-0.0, 0.0]
        theta[np.flatnonzero(edge_check == 9)[:2]] = -0.0
        self.assert_same(theta, edge_check, 12)

    def test_all_negative_check(self):
        rng = np.random.default_rng(6)
        for degree in (3, 4):
            edge_check = self.shuffled(8, degree, rng)
            theta = -rng.uniform(0.1, 1.0, size=edge_check.size)
            got = self.assert_same(theta, edge_check, 8)
            assert np.all(np.sign(got) == (-1.0) ** (degree - 1))

    def test_degree_one_checks(self):
        rng = np.random.default_rng(7)
        edge_check = rng.permutation(np.concatenate(
            [np.arange(6), np.repeat(np.arange(6, 10), 3)]))
        theta = rng.uniform(-1.0, 1.0, size=edge_check.size)
        theta[np.flatnonzero(edge_check == 2)] = 0.0
        got = self.assert_same(theta, edge_check, 10)
        # a lone edge hears the empty product
        assert np.all(got[edge_check < 6] == 1.0)


class TestSlotCheckProduct:
    """The check pass on the slot layout against the one reference, taken
    through the two-sided clip, arctanh and a random +-2 scale per check;
    the pass gets the scale's sign as its syndrome and its half-LLR output
    is doubled.  Every non-zero output matches bit for bit (the uint64
    view).  A zero output matches by value only: the pass takes its sign
    from the input and the check where the reference takes it from the
    scale, and sp_decode never reads the sign of a zero message
    (TestSpDecode checks the decodes)."""

    @staticmethod
    def assert_same(h, theta, scale):
        got = slot_pass(h, theta, scale < 0.0)
        edge_check = h.edges()[0]
        prod = reference_check_pass(theta, edge_check, h.rows)
        np.clip(prod, -1.0 + 1e-15, 1.0 - 1e-15, out=prod)
        want = np.arctanh(prod) * scale[edge_check]
        np.testing.assert_array_equal(got, want)
        real = want != 0.0
        np.testing.assert_array_equal(got[real].view(np.uint64),
                                      want[real].view(np.uint64))
        return got

    @staticmethod
    def random_scale(nrng, rows):
        return nrng.choice([2.0, -2.0], size=rows)

    def test_random_inputs_with_padded_slots(self):
        rng = random.Random(11)
        nrng = np.random.default_rng(11)
        for _ in range(40):
            h = random_check_matrix(rng, rng.randint(1, 30), 40, 12)
            n_edges = h.edges()[0].size
            scale = self.random_scale(nrng, h.rows)
            theta = nrng.uniform(-1.0, 1.0, size=n_edges)
            self.assert_same(h, theta, scale)
            self.assert_same(h, np.tanh(nrng.normal(0.0, 15.0, n_edges) / 2.0),
                             scale)

    def test_zeros_and_negative_zeros(self):
        h = BitMatrix(5, 9, [[0, 1, 2, 3], [4, 5], [6, 7, 8, 0], [1, 2, 3],
                             [4]])
        theta = np.array([0.3, 0.0, -0.5, 0.7,   # one zero
                          -0.0, 0.0,             # two zeros, one of them -0.0
                          -0.0, 0.2, -0.4, 0.9,  # one -0.0
                          0.0, 0.0, -0.6,        # two zeros
                          -0.0])                 # a lone -0.0
        for scale in ([2.0] * 5, [-2.0] * 5, [2.0, -2.0, -2.0, 2.0, -2.0]):
            got = self.assert_same(h, theta, np.array(scale))
            assert got[[0, 2, 3]].tolist() == [0.0, 0.0, 0.0] and got[1] != 0.0

    def test_all_negative_checks(self):
        nrng = np.random.default_rng(6)
        for degree in (1, 2, 3, 4, 7):
            h = BitMatrix(6, 12, [list(range(r, r + degree)) for r in range(6)])
            theta = -nrng.uniform(0.1, 1.0, size=6 * degree)
            scale = self.random_scale(nrng, 6)
            got = self.assert_same(h, theta, scale)
            assert np.all(np.sign(got) == (-1.0) ** (degree - 1)
                          * np.sign(scale[h.edges()[0]]))

    def test_degree_one_checks_next_to_long_ones(self):
        nrng = np.random.default_rng(7)
        h = BitMatrix(6, 10, [[3], list(range(10)), [0], [], [9], [2, 5]])
        theta = nrng.uniform(-1.0, 1.0, size=h.edges()[0].size)
        scale = self.random_scale(nrng, 6)
        got = self.assert_same(h, theta, scale)
        # a lone edge hears the empty product, clipped below 1
        edge_check = h.edges()[0]
        lone = np.isin(edge_check, [0, 2, 4])
        np.testing.assert_array_equal(
            got[lone], np.arctanh(1.0 - 1e-15) * scale[edge_check[lone]])

    def test_axis0_sum_equals_bincount(self):
        """The slot pass sums each check down its column; that must add in
        slot order exactly as bincount adds in edge order.  (np.add.reduceat
        does not: it sums runs of 8 or more pairwise.)"""
        rng = random.Random(12)
        nrng = np.random.default_rng(12)
        for _ in range(50):
            h = random_check_matrix(rng, rng.randint(1, 20), 60, 40)
            slots, pos = h.slots()
            values = np.log(nrng.uniform(1e-3, 1.0, size=pos.size))
            padded = np.zeros(slots.shape)
            padded.ravel()[pos] = values
            got = np.add.reduce(padded, axis=0)
            want = np.bincount(h.edges()[0], weights=values, minlength=h.rows)
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))


class TestSignFold:
    """sp_decode takes arctanh of the leave-one-out magnitude, caps it and
    restores the sign afterwards.  That equals clipping and taking arctanh
    of the signed product only while arctanh is odd bit for bit, the lower
    clip bound is the exact negative of the upper one, and arctanh is
    non-decreasing up to 1.  numpy >= 1.24 is allowed, so a build where any
    of these fails must fail here rather than change decodes."""

    TOP = 1.0 - 1e-15

    def test_arctanh_is_odd(self):
        rng = np.random.default_rng(15)
        top = self.TOP
        x = np.concatenate([
            rng.uniform(0.0, top, size=50_000),
            top - rng.uniform(0.0, 1e-6, size=10_000),  # where arctanh is steep
            [0.0, 5e-324, 1e-310, np.finfo(np.float64).tiny, top,
             np.nextafter(top, 0.0), np.nextafter(top, 1.0)]])
        odd = np.arctanh(-x)
        even = np.arctanh(x)
        np.negative(even, out=even)
        np.testing.assert_array_equal(odd.view(np.uint64), even.view(np.uint64))
        # in place, as the decoder calls it
        np.negative(x, out=x)
        np.arctanh(x, out=x)
        np.testing.assert_array_equal(x.view(np.uint64), even.view(np.uint64))

    def test_clip_bounds_are_exact_negatives(self):
        assert -(1.0 - 1e-15) == -1.0 + 1e-15

    def test_arctanh_is_non_decreasing_up_to_one(self):
        """sp_decode caps arctanh's output at min(llr_clip/2, arctanh(TOP))
        where the reference clips its input at TOP.  The two agree only
        while arctanh is non-decreasing across TOP and at least 17 (above
        every llr_clip/2 cap below arctanh(TOP)) on each of the doubles from
        TOP to 1, and while the arctanh(TOP) that sp_decode computes as a
        scalar equals the one computed in every lane of an array."""
        rng = np.random.default_rng(16)
        top = self.TOP
        bits = np.array([top]).view(np.uint64)[0]
        steps = np.array([1.0]).view(np.uint64)[0] - bits
        above = (bits + np.arange(steps + 1, dtype=np.uint64)).view(np.float64)
        below = (bits - np.arange(1 << 20, 0, -1, dtype=np.uint64)
                 ).view(np.float64)  # the 2^20 doubles just under TOP
        x = np.sort(np.concatenate([top - rng.uniform(0.0, 1e-6, 100_000),
                                    below, above]))
        assert x[0] >= top - 1e-6 and x[-1] == 1.0 and steps < 20
        with np.errstate(divide="ignore"):
            y = np.arctanh(x)
        assert np.all(np.diff(y) >= 0.0)
        assert np.all(y[x >= top] >= 17.0)
        cap = float(np.arctanh(top))
        for size in (1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 33, 18 * 1176):
            lanes = np.full(size, top)
            np.testing.assert_array_equal(np.arctanh(lanes), cap)
            np.arctanh(lanes, out=lanes)  # in place, as the decoder calls it
            np.testing.assert_array_equal(lanes, cap)


class TestSpParams:
    @pytest.mark.parametrize("kwargs", [
        {"crossover": 0.0},
        {"crossover": 0.5},
        {"crossover": -0.1},
        {"crossover": 0.1, "max_iter": 0},
        {"crossover": 0.1, "llr_clip": 0.0},
        {"crossover": 0.1, "llr_clip": math.nan},
        {"crossover": 0.1, "llr_clip": math.inf},
    ])
    def test_rejects_bad_knobs(self, kwargs):
        with pytest.raises(ValueError):
            SpParams(**kwargs)

    @pytest.mark.parametrize("max_iter", [2.5, 3.0, True])
    def test_max_iter_must_be_an_integer(self, max_iter):
        with pytest.raises(TypeError,
                           match=f"max_iter must be an integer, got {max_iter}"):
            SpParams(0.1, max_iter=max_iter)
        assert SpParams(0.1, max_iter=np.int64(3)).max_iter == 3


class TestSpDecodeShapes:
    H = BitMatrix(2, 3, [[0, 1], [1, 2]])

    def test_syndrome_length_must_match_rows(self):
        with pytest.raises(ShapeError, match="syndrome length 3 != rows 2"):
            sp_decode(self.H, BitVector(3, 0), BitVector(3, 0), SpParams(0.1))

    def test_side_info_length_must_match_cols(self):
        with pytest.raises(ShapeError, match="side info length 4 != cols 3"):
            sp_decode(self.H, BitVector(2, 0), BitVector(4, 0), SpParams(0.1))


class TestCosetMembers:
    def test_size_and_membership(self):
        rng = random.Random(6)
        h = random_parity_check(rng, 4, 9)
        syndrome = BitVector(4, rng.getrandbits(4))
        members = coset_members(h, syndrome)
        assert len(members) == 1 << (h.cols - rank(h))
        assert len({m.bits for m in members}) == len(members)
        for m in members:
            assert mul_vec(h, m) == syndrome

    def test_zero_syndrome_contains_zero_word(self):
        rng = random.Random(8)
        h = random_parity_check(rng, 3, 8)
        members = coset_members(h, BitVector(3, 0))
        assert any(m.bits == 0 for m in members)

    def test_empty_coset_raises(self):
        h = BitMatrix(2, 3, [[0, 1], [0, 1]])  # equal rows, unequal syndrome
        with pytest.raises(ValueError, match="empty coset"):
            coset_members(h, BitVector(2, 0b01))

    def test_enumeration_limit(self):
        cols = COSET_ENUM_LIMIT + 2
        h = BitMatrix(1, cols, [[0]])
        with pytest.raises(ValueError):
            coset_members(h, BitVector(1, 0))


class TestCosetNearest:
    def test_returns_exact_member(self):
        rng = random.Random(21)
        h = random_parity_check(rng, 5, 11)
        syndrome = BitVector(5, rng.getrandbits(5))
        target = BitVector(11, rng.getrandbits(11))
        member, dist = coset_nearest(h, syndrome, target)
        assert mul_vec(h, member) == syndrome
        assert (member ^ target).weight() == dist
        assert dist == min((m ^ target).weight()
                           for m in coset_members(h, syndrome))


class TestSpDecode:
    def test_matches_exact_search_on_single_errors(self):
        """At a 5% channel the iterative decoder agrees with exhaustive
        search in at least 95% of 200 single-error trials."""
        rng = random.Random(1234)
        agree = 0
        for _ in range(200):
            h = girth_six_check(rng)
            truth = BitVector(12, rng.getrandbits(12))
            syndrome = mul_vec(h, truth)
            side = truth ^ BitVector(12, 1 << rng.randrange(12))
            res = sp_decode(h, syndrome, side, SpParams(crossover=0.05))
            exact, _ = coset_nearest(h, syndrome, side)
            agree += res.bits == exact
        assert agree >= 190

    def test_coset_translation_equivariance(self):
        """Decoding (z, j) equals decoding (0, j^w)^w for any coset shift w."""
        rng = random.Random(404)
        for _ in range(25):
            h = girth_six_check(rng)
            truth = BitVector(12, rng.getrandbits(12))
            syndrome = mul_vec(h, truth)
            side = truth ^ BitVector(12, 1 << rng.randrange(12))
            w = coset_members(h, syndrome)[0]
            direct = sp_decode(h, syndrome, side, SpParams(crossover=0.05))
            shifted = sp_decode(h, BitVector(h.rows, 0), side ^ w,
                                SpParams(crossover=0.05))
            assert direct.bits == shifted.bits ^ w
            assert direct.converged == shifted.converged

    def test_clean_side_info_is_fixed_point(self):
        rng = random.Random(77)
        h = random_parity_check(rng, 5, 14, density=0.3)
        truth = BitVector(14, rng.getrandbits(14))
        res = sp_decode(h, mul_vec(h, truth), truth, SpParams(crossover=0.05))
        assert res.converged
        assert res.bits == truth
        assert res.iterations <= 2

    def test_convergence_implies_syndrome_match(self):
        rng = random.Random(31)
        for _ in range(30):
            h = random_parity_check(rng, 5, 13, density=0.3)
            truth = BitVector(13, rng.getrandbits(13))
            noise = BitVector(13, sum(1 << i for i in range(13)
                                      if rng.random() < 0.08))
            res = sp_decode(h, mul_vec(h, truth), truth ^ noise,
                            SpParams(crossover=0.08))
            if res.converged:
                assert mul_vec(h, res.bits) == mul_vec(h, truth)

    def test_converged_exactly_when_syndrome_matches(self):
        """converged holds if and only if the returned bits meet the
        syndrome, on runs that converge and runs stopped at max_iter."""
        rng = random.Random(0xC0FE)
        seen = {"converged": 0, "stopped": 0, "stopped, reachable": 0,
                "empty row": 0, "padded": 0, "set syndrome bits": 0}
        for case in range(200):
            rows, cols = rng.randint(1, 24), rng.randint(2, 40)
            h = random_check_matrix(rng, rows, cols, rng.choice([3, 6, 10]))
            truth = BitVector(cols, rng.getrandbits(cols))
            reachable = case % 4 != 0
            syndrome = (mul_vec(h, truth) if reachable
                        else BitVector(rows, rng.getrandbits(rows)))
            p = rng.choice([0.02, 0.05, 0.1, 0.2, 0.3])
            noise = BitVector(cols, sum(1 << i for i in range(cols)
                                        if rng.random() < p))
            params = SpParams(crossover=rng.choice([0.03, 0.08, 0.15, 0.3]),
                              max_iter=rng.choice([1, 2, 5, 30]))
            res = sp_decode(h, syndrome, truth ^ noise, params)
            assert res.converged == (mul_vec(h, res.bits) == syndrome), case
            assert res.converged or res.iterations == params.max_iter, case
            lengths = h.row_lengths()
            seen["converged"] += res.converged and res.iterations > 0
            seen["stopped"] += not res.converged
            seen["stopped, reachable"] += not res.converged and reachable
            seen["empty row"] += bool((lengths == 0).any())
            seen["padded"] += bool((lengths < lengths.max()).any())
            seen["set syndrome bits"] += syndrome.weight() > 0
        assert min(seen.values()) >= 10, seen

    def test_max_iter_bounds_work(self):
        rng = random.Random(5)
        h = random_parity_check(rng, 6, 14, density=0.4)
        truth = BitVector(14, rng.getrandbits(14))
        side = truth ^ BitVector(14, rng.getrandbits(14) & 0x15)
        res = sp_decode(h, mul_vec(h, truth), side,
                        SpParams(crossover=0.1, max_iter=3))
        assert res.iterations <= 3

    def test_empty_check_row(self):
        """Rows 3 and 7 have no edges.  With their syndrome bits at 0 the
        decode matches the one without those rows (values pinned from the
        earlier decoder); a set bit on an empty row is never satisfied."""
        rng = random.Random(2024)
        h6 = girth_six_check(rng)
        rows = list(h6.row_support)
        h = BitMatrix(8, 12, rows[:3] + [()] + rows[3:] + [()])
        truth = BitVector(12, rng.getrandbits(12))
        side = truth ^ BitVector(12, 0b100000100)
        params = SpParams(crossover=0.1, max_iter=20)
        syn6 = mul_vec(h6, truth)
        syn = BitVector(8, (syn6.bits & 0b111) | (syn6.bits >> 3) << 4)
        res = sp_decode(h, syn, side, params)
        assert (syn.bits, side.bits) == (71, 1955)
        assert (res.bits.bits, res.converged, res.iterations) == (1827, True, 2)
        assert res == sp_decode(h6, syn6, side, params)
        for row in (3, 7):
            res = sp_decode(h, BitVector(8, syn.bits | 1 << row), side, params)
            assert (res.bits.bits, res.converged, res.iterations) == (
                1827, False, 20)

    def test_deterministic(self):
        rng = random.Random(63)
        h = random_parity_check(rng, 6, 15, density=0.3)
        truth = BitVector(15, rng.getrandbits(15))
        side = truth ^ BitVector(15, 0b1001)
        a = sp_decode(h, mul_vec(h, truth), side, SpParams(crossover=0.07))
        b = sp_decode(h, mul_vec(h, truth), side, SpParams(crossover=0.07))
        assert a == b

    def test_matches_reference_on_random_matrices(self):
        """Empty rows, degree-1 checks, padded slots, set syndrome bits,
        converging and stopped runs, and small LLR clips."""
        rng = random.Random(0x5107)
        seen = {"converged": 0, "stopped": 0, "empty row": 0,
                "degree 1": 0, "padded": 0, "small clip": 0}
        for case in range(150):
            rows, cols = rng.randint(1, 24), rng.randint(2, 40)
            h = random_check_matrix(rng, rows, cols, rng.choice([3, 6, 10]))
            truth = BitVector(cols, rng.getrandbits(cols))
            syndrome = (mul_vec(h, truth) if case % 3
                        else BitVector(rows, rng.getrandbits(rows)))
            p = rng.choice([0.02, 0.05, 0.1, 0.2])
            noise = BitVector(cols, sum(1 << i for i in range(cols)
                                        if rng.random() < p))
            params = SpParams(crossover=rng.choice([0.03, 0.08, 0.15, 0.3]),
                              max_iter=rng.choice([1, 5, 30]),
                              llr_clip=rng.choice([30.0, 3.0, 0.5]))
            got = sp_decode(h, syndrome, truth ^ noise, params)
            assert got == reference_sp_decode(h, syndrome, truth ^ noise,
                                              params), case
            lengths = h.row_lengths()
            seen["converged"] += got.converged and got.iterations > 0
            seen["stopped"] += not got.converged
            seen["empty row"] += bool((lengths == 0).any())
            seen["degree 1"] += bool((lengths == 1).any())
            seen["padded"] += bool((lengths < lengths.max()).any())
            seen["small clip"] += params.llr_clip < 1.0
        assert min(seen.values()) >= 10, seen

    def test_matches_reference_through_exact_zeros(self, monkeypatch):
        """With llr_clip at the channel LLR a variable can send exactly 0.0
        (zero_message_cases).  The check pass then sees zero inputs, and its
        zero outputs may carry another sign than the reference's.  The
        decodes must still match, with one check pass per iteration."""
        passes, _ = recording_pass(monkeypatch)
        iterations = 0
        for case, (h, syndrome, side, params) in enumerate(
                zero_message_cases(random.Random(0x2E50), 300)):
            got = sp_decode(h, syndrome, side, params)
            assert got == reference_sp_decode(h, syndrome, side, params), case
            iterations += got.iterations
        assert len(passes) == iterations
        assert sum(passes) >= 10, sum(passes)

    def test_matches_reference_with_clips_above_the_arctanh_cap(
            self, monkeypatch):
        """The reference clips a leave-one-out product of exactly 1.0 at
        1 - 1e-15 before arctanh, then the message at llr_clip; sp_decode
        caps arctanh's output once, at min(llr_clip/2, arctanh(1 - 1e-15))
        in half LLRs.  With llr_clip above 35.2 the arctanh bound is the
        tighter one, and a cap at llr_clip/2 alone changes decodes here."""
        _, capped = recording_pass(monkeypatch)
        stopped = 0
        for case, (h, syndrome, side, params) in enumerate(
                saturating_cases(random.Random(0xCA9), 60)):
            got = sp_decode(h, syndrome, side, params)
            assert got == reference_sp_decode(h, syndrome, side, params), case
            stopped += not got.converged
        assert stopped >= 10, stopped
        assert sum(capped) >= 50, sum(capped)

    def test_no_floating_point_warning_escapes(self, monkeypatch):
        """The check pass takes log 0 = -inf at an exact zero and
        arctanh(1.0) = inf at a saturated check; with numpy warning on
        both and warnings turned into errors, sp_decode stays quiet."""
        zeros, capped = recording_pass(monkeypatch)
        lone = BitMatrix(2, 18, [[0], list(range(1, 18))])  # empty product
        cases = [*zero_message_cases(random.Random(0x2E50), 60),
                 *saturating_cases(random.Random(0xCA9), 10),
                 (lone, BitVector(2, 0b10), BitVector(18, 0b110),
                  SpParams(crossover=1e-9, llr_clip=60.0))]
        with warnings.catch_warnings(), np.errstate(
                divide="warn", over="warn", invalid="warn"):
            warnings.simplefilter("error")
            for h, syndrome, side, params in cases:
                sp_decode(h, syndrome, side, params)
            state = np.geterr()
        assert (state["divide"], state["invalid"]) == ("warn", "warn")
        assert sum(zeros) >= 1 and sum(capped) >= 1, (sum(zeros),
                                                       sum(capped))

    def test_matches_reference_on_a_built_code(self, small_code):
        """The 200-bit code3 h at the benchmark's p = 0.05: converging and
        stopped decodes."""
        rng = random.Random(9)
        h = small_code.h
        outcomes = set()
        for p in (0.02, 0.05, 0.1, 0.2):
            truth = BitVector(h.cols, rng.getrandbits(h.cols))
            noise = BitVector(h.cols, sum(1 << i for i in range(h.cols)
                                          if rng.random() < p))
            params = SpParams(crossover=p, max_iter=60)
            got = sp_decode(h, mul_vec(h, truth), truth ^ noise, params)
            assert got == reference_sp_decode(h, mul_vec(h, truth),
                                              truth ^ noise, params)
            outcomes.add(got.converged)
        assert outcomes == {True, False}
