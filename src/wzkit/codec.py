"""Rate-distortion math and the end-to-end pipeline around one compound code.

The analytic bound for a doubly symmetric binary pair with crossover p is the
lower convex envelope of h(d (*) p) - h(d) and the point (p, 0), where (*) is
binary convolution.  The experiment harness quantizes random sources, ships
the short syndrome, decodes against side information, and compares measured
distortion at the transmitted rate with the bound.
"""

from __future__ import annotations

import csv
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Iterable, NamedTuple, TextIO

import numpy as np
from scipy.optimize import brentq

from .builder import CodeParams, CompoundCode
from .decoder import SpParams, sp_decode
from .gf2 import BitMatrix, BitVector, ShapeError, _invert_rows, mul_vec
from .quantizer import BipParams, _resolve, bip_quantize, generator_codeword

__all__ = [
    "binary_entropy",
    "binary_convolve",
    "wz_rate",
    "wz_boundary",
    "invert_bound",
    "RatePlan",
    "plan_rates",
    "time_share",
    "bound_curve",
    "CompoundQuantizer",
    "QuantizedWord",
    "EncodeResult",
    "encode",
    "decode",
    "ExperimentConfig",
    "ExperimentResult",
    "run_experiment",
    "CSV_COLUMNS",
    "write_results_csv",
    "write_curve_csv",
]


def binary_entropy(x: float) -> float:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def binary_convolve(a: float, b: float) -> float:
    """Crossover of two cascaded binary symmetric channels."""
    return a * (1.0 - b) + b * (1.0 - a)


def _curve(d: float, p: float) -> float:
    return binary_entropy(binary_convolve(d, p)) - binary_entropy(d)


def _curve_slope(d: float, p: float) -> float:
    conv = binary_convolve(d, p)
    return ((1.0 - 2.0 * p) * math.log2((1.0 - conv) / conv)
            - math.log2((1.0 - d) / d))


@lru_cache(maxsize=None)
def wz_boundary(p: float) -> tuple[float, float]:
    """Tangency point (d_c, rate) where the curve meets its chord to (p, 0).

    Below d_c the bound follows h(d (*) p) - h(d); above it time sharing with
    the zero-rate point is better and the bound is the chord.
    """
    if not 0.0 < p < 0.5:
        raise ValueError(f"crossover must lie in (0, 0.5), got {p}")

    def f(d: float) -> float:
        return _curve_slope(d, p) * (p - d) + _curve(d, p)

    d_c = float(brentq(f, 1e-12, p - 1e-12, xtol=1e-12))
    return d_c, _curve(d_c, p)


def wz_rate(d: float, p: float) -> float:
    """Rate bound at target distortion d for side-information crossover p."""
    if not 0.0 < p < 0.5:
        raise ValueError(f"crossover must lie in (0, 0.5), got {p}")
    if not 0.0 <= d <= 0.5:
        raise ValueError(f"distortion must lie in [0, 0.5], got {d}")
    if d >= p:
        return 0.0
    d_c, r_c = wz_boundary(p)
    if d <= d_c:
        return _curve(d, p)
    return r_c * (p - d) / (p - d_c)


def invert_bound(rate: float, p: float, tol: float = 1e-9) -> float:
    """Distortion at which the bound equals `rate`; bisection to width tol."""
    if rate <= 0.0:
        return p
    if rate >= binary_entropy(p):
        return 0.0
    lo, hi = 0.0, p
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if wz_rate(mid, p) > rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class RatePlan:
    """Nesting targets for quantizing at distortion d1 against crossover p."""

    crossover: float
    quant_distortion: float
    quant_rate_min: float    # at least 1 - h(d1) to hit distortion d1
    code_rate_max: float     # at most 1 - h(d1 (*) p) to survive the channel
    wz_rate_min: float       # their gap: the transmitted rate floor


def plan_rates(p: float, d1: float) -> RatePlan:
    if not 0.0 < p < 0.5:
        raise ValueError(f"crossover must lie in (0, 0.5), got {p}")
    if not 0.0 <= d1 <= 0.5:
        raise ValueError(f"distortion must lie in [0, 0.5], got {d1}")
    hq = binary_entropy(d1)
    hc = binary_entropy(binary_convolve(d1, p))
    return RatePlan(p, d1, 1.0 - hq, 1.0 - hc, hc - hq)


def time_share(rate: float, distortion: float, p: float,
               alpha: float) -> tuple[float, float]:
    """Operate the code a fraction alpha of the time, side info only otherwise."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha * rate, alpha * distortion + (1.0 - alpha) * p


def bound_curve(p: float, points: int = 200) -> list[tuple[float, float]]:
    if points < 2:
        raise ValueError("need at least two points")
    return [(i * p / (points - 1), wz_rate(i * p / (points - 1), p))
            for i in range(points)]


class QuantizedWord(NamedTuple):
    word: BitVector          # codeword of the quantization check
    distortion: float        # source-to-word Hamming fraction
    rounds: int
    conflict_events: int


class CompoundQuantizer:
    """Bias propagation for one compound code, run in its systematic gauge.

    The quantization check reads (identity | zeros | B), so its codewords are
    exactly the vectors (B t2, t1, t2) over free blocks t1 and t2.  The middle
    block copies the source outright at no cost, which leaves fitting
    (B t2, t2) to the parity and tail blocks of the source.  That residual
    problem goes to bip_quantize on a small systematic generator whose row j
    holds column j of B plus its own tail position, keeping check degrees at
    the B column weights; run directly on the designed generator's wide rows,
    the product at each check decays toward zero and decimation stalls.
    Nothing is lost in the move: the designed generator spans the same null
    space, and coefficients() re-expresses any quantized word over its rows.
    """

    def __init__(self, code: CompoundCode):
        params = code.params
        r = code.h1.rows
        mid = params.info_rows - params.n // 2
        sub_cols: list[list[int]] = [[] for _ in range(params.n // 2)]
        for i, sup in enumerate(code.h1.row_support):
            for c in sup:
                if c >= r + mid:
                    sub_cols[c - r - mid].append(i)
        self.g1 = code.g1
        self.n = params.n
        self.parity_width = r
        self.mid_width = mid
        self.g_sub = BitMatrix(len(sub_cols), r + len(sub_cols),
                               [cols + [r + j] for j, cols in enumerate(sub_cols)])
        # default damping is a fact of g_sub: search it for 4-cycles once
        self._damping = _resolve(BipParams(), self.g_sub)[1]
        self._coeff_rows: list[int] | None = None

    def quantize(self, source: BitVector,
                 bip: BipParams = BipParams()) -> QuantizedWord:
        """Codeword of the quantization check close to source in Hamming distance."""
        if source.length != self.n:
            raise ShapeError(f"source length {source.length} != n {self.n}")
        r, mid = self.parity_width, self.mid_width
        parity_mask = (1 << r) - 1
        local = BitVector(self.g_sub.cols,
                          source.bits & parity_mask | source.bits >> (r + mid) << r)
        if bip.damping is None:
            bip = replace(bip, damping=self._damping)
        res = bip_quantize(self.g_sub, local, bip)
        sub_word = generator_codeword(self.g_sub, res.u)
        word = BitVector(self.n,
                         sub_word.bits & parity_mask
                         | (source.bits >> r & (1 << mid) - 1) << r
                         | sub_word.bits >> r << (r + mid))
        distortion = (word ^ source).weight() / self.n
        return QuantizedWord(word, distortion, res.rounds, res.conflict_events)

    def coefficients(self, word: BitVector) -> BitVector:
        """Coefficients u over the designed generator's rows with u @ g1 == word.

        The map from coefficients to the free blocks of a codeword is square
        and invertible; its inverse is computed on first use and cached, so
        the first call on a fresh quantizer is the expensive one.
        """
        if word.length != self.n:
            raise ShapeError(f"word length {word.length} != n {self.n}")
        if self._coeff_rows is None:
            msg = [bits >> self.parity_width for bits in self.g1.bitrows()]
            self._coeff_rows = _invert_rows(msg, self.n - self.parity_width)
        u = 0
        rem = word.bits >> self.parity_width
        while rem:
            low = rem & -rem
            u ^= self._coeff_rows[low.bit_length() - 1]
            rem ^= low
        return BitVector(self.g1.rows, u)


_QUANT_CACHE: dict[int, tuple[CompoundCode, CompoundQuantizer]] = {}


def _quantizer_for(code: CompoundCode) -> CompoundQuantizer:
    hit = _QUANT_CACHE.get(id(code))
    if hit is None or hit[0] is not code:
        hit = (code, CompoundQuantizer(code))
        _QUANT_CACHE[id(code)] = hit
    return hit[1]


@dataclass(frozen=True)
class EncodeResult:
    u: BitVector             # generator coefficients
    word: BitVector          # quantized word
    syndrome: BitVector      # transmitted bits
    distortion: float        # source-to-word Hamming fraction
    rounds: int


def encode(code: CompoundCode, source: BitVector,
           bip: BipParams = BipParams()) -> EncodeResult:
    """Quantize the source and emit the short syndrome of the quantized word."""
    qz = _quantizer_for(code)
    q = qz.quantize(source, bip)
    z2 = mul_vec(code.h2, q.word)
    return EncodeResult(qz.coefficients(q.word), q.word, z2, q.distortion, q.rounds)


def decode(code: CompoundCode, side_info: BitVector, syndrome: BitVector,
           crossover: float, sp: SpParams | None = None):
    """Recover the quantized word from its syndrome and correlated side info.

    crossover estimates P(word bit != side info bit); with quantization
    distortion d1 over a pair channel p that is binary_convolve(d1, p).  The
    full syndrome is the transmitted part prefixed by zeros, the quantization
    checks being satisfied by construction.
    """
    if syndrome.length != code.h2.rows:
        raise ValueError(f"syndrome must have {code.h2.rows} bits")
    full = BitVector(code.h.rows, syndrome.bits << code.h1.rows)
    params = sp if sp is not None else SpParams(crossover=crossover)
    return sp_decode(code.h, full, side_info, params)


@dataclass(frozen=True)
class ExperimentConfig:
    """One rate-distortion measurement: a code, a channel, and trial count."""

    code_id: str
    params: CodeParams
    p: float
    trials: int
    seed: int
    gamma: float | None = None
    threshold: float = 0.8
    iters_per_round: int = 25
    damping: float | None = None
    warm_start: bool = False
    max_iter: int = 100
    crossover: float | None = None   # decoder estimate override

    def __post_init__(self):
        if not 0.0 < self.p < 0.5:
            raise ValueError(f"p must lie in (0, 0.5), got {self.p}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")

    def bip_params(self) -> BipParams:
        return BipParams(gamma=self.gamma, threshold=self.threshold,
                         iters_per_round=self.iters_per_round,
                         damping=self.damping, warm_start=self.warm_start)


@dataclass(frozen=True)
class ExperimentResult:
    code_id: str
    n: int
    m: int
    k1: int
    k2: int
    zeta: int
    p: float
    r1: float
    r2: float
    rt: float
    d1: float
    d2: float
    dt: float
    dt_pred: float
    dwz: float
    gap: float
    trials: int
    failures: int
    seed: int


class _EncodeOut(NamedTuple):
    trial: int
    source_bits: int
    side_bits: int
    word_bits: int
    syndrome_bits: int
    distortion: float


class _DecodeOut(NamedTuple):
    trial: int
    decoded_bits: int
    converged: bool


def _pack_bits(arr: np.ndarray) -> int:
    packed = np.packbits(arr.astype(np.uint8), bitorder="little")
    return int.from_bytes(packed.tobytes(), "little")


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _encode_trial(code: CompoundCode, qz: CompoundQuantizer, trial: int,
                  seed: int, p: float, bip: BipParams) -> _EncodeOut:
    n = code.params.n
    rng = _trial_rng(seed, trial)
    s_arr = rng.integers(0, 2, size=n, dtype=np.int64)
    flips = (rng.random(n) < p).astype(np.int64)
    s_bits = _pack_bits(s_arr)
    j_bits = s_bits ^ _pack_bits(flips)
    res = qz.quantize(BitVector(n, s_bits), bip)
    z2 = mul_vec(code.h2, res.word)
    return _EncodeOut(trial, s_bits, j_bits, res.word.bits, z2.bits,
                      res.distortion)


def _decode_trial(code: CompoundCode, trial: int, side_bits: int,
                  syndrome_bits: int, crossover: float,
                  max_iter: int) -> _DecodeOut:
    n = code.params.n
    res = decode(code, BitVector(n, side_bits),
                 BitVector(code.h2.rows, syndrome_bits),
                 crossover, SpParams(crossover=crossover, max_iter=max_iter))
    return _DecodeOut(trial, res.bits.bits, res.converged)


_WORKER_CODE: CompoundCode | None = None
_WORKER_QUANTIZER: CompoundQuantizer | None = None


def _worker_init(code: CompoundCode,
                 quantizer: CompoundQuantizer | None = None) -> None:
    global _WORKER_CODE, _WORKER_QUANTIZER
    _WORKER_CODE = code
    _WORKER_QUANTIZER = quantizer


def _encode_task(task) -> _EncodeOut:
    trial, seed, p, bip = task
    return _encode_trial(_WORKER_CODE, _WORKER_QUANTIZER, trial, seed, p, bip)


def _decode_task(task) -> _DecodeOut:
    trial, side_bits, syndrome_bits, crossover, max_iter = task
    return _decode_trial(_WORKER_CODE, trial, side_bits, syndrome_bits,
                         crossover, max_iter)


def _clamp_crossover(q: float) -> float:
    return min(max(q, 1e-9), 0.5 - 1e-9)


def run_experiment(code: CompoundCode, config: ExperimentConfig,
                   workers: int = 1) -> ExperimentResult:
    """Measured operating point of `code` over `config.trials` sources.

    Per-trial randomness comes from (seed, trial index), so results do not
    depend on the worker count.  All sources are quantized first; each decode
    then estimates its channel from the running mean quantization distortion
    over trials up to and including its own, unless config.crossover pins it.
    Failures are trials whose decoder never matched the syndrome; their
    best-effort output still counts toward the measured distortion.
    """
    if code.params != config.params:
        raise ValueError("config parameters do not match the supplied code")
    n = code.params.n
    bip = config.bip_params()
    qz = CompoundQuantizer(code)

    enc_tasks = [(t, config.seed, config.p, bip) for t in range(config.trials)]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                                 initargs=(code, qz)) as pool:
            encoded = list(pool.map(_encode_task, enc_tasks, chunksize=1))
    else:
        encoded = [_encode_trial(code, qz, *t) for t in enc_tasks]

    running = 0.0
    dec_tasks = []
    for out in encoded:
        running += out.distortion
        if config.crossover is not None:
            q = config.crossover
        else:
            q = binary_convolve(running / (out.trial + 1), config.p)
        dec_tasks.append((out.trial, out.side_bits, out.syndrome_bits,
                          _clamp_crossover(q), config.max_iter))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=_worker_init,
                                 initargs=(code,)) as pool:
            decoded = list(pool.map(_decode_task, dec_tasks, chunksize=1))
    else:
        decoded = [_decode_trial(code, *t) for t in dec_tasks]

    d1 = sum(out.distortion for out in encoded) / config.trials
    d2 = 0.0
    dt = 0.0
    failures = 0
    for out, dec in zip(encoded, decoded):
        d2 += (dec.decoded_bits ^ out.word_bits).bit_count() / n
        dt += (dec.decoded_bits ^ out.source_bits).bit_count() / n
        if not dec.converged:
            failures += 1
    d2 /= config.trials
    dt /= config.trials

    r1, r2, rt = code.params.rates
    dwz = invert_bound(rt, config.p)
    return ExperimentResult(
        code_id=config.code_id, n=code.params.n, m=code.params.m,
        k1=code.params.k1, k2=code.params.k2, zeta=code.params.zeta,
        p=config.p, r1=r1, r2=r2, rt=rt, d1=d1, d2=d2, dt=dt,
        dt_pred=binary_convolve(d1, d2), dwz=dwz, gap=dt - dwz,
        trials=config.trials, failures=failures, seed=config.seed)


CSV_COLUMNS = ["code_id", "n", "m", "k1", "k2", "zeta", "p", "R1", "R2", "Rt",
               "d1", "d2", "Dt", "Dt_pred", "Dwz", "gap", "trials", "failures",
               "seed"]


def write_results_csv(f: TextIO, results: Iterable[ExperimentResult]) -> None:
    from . import __version__
    f.write(f"# wzkit {__version__}\n")
    w = csv.writer(f)
    w.writerow(CSV_COLUMNS)
    for r in results:
        w.writerow([r.code_id, r.n, r.m, r.k1, r.k2, r.zeta,
                    f"{r.p:.6g}", f"{r.r1:.6f}", f"{r.r2:.6f}", f"{r.rt:.6f}",
                    f"{r.d1:.6f}", f"{r.d2:.6f}", f"{r.dt:.6f}",
                    f"{r.dt_pred:.6f}", f"{r.dwz:.6f}", f"{r.gap:.6f}",
                    r.trials, r.failures, r.seed])


def write_curve_csv(f: TextIO, p: float, points: int = 200) -> None:
    from . import __version__
    f.write(f"# wzkit {__version__}\n")
    w = csv.writer(f)
    w.writerow(["distortion", "rate"])
    for d, r in bound_curve(p, points):
        w.writerow([f"{d:.9f}", f"{r:.9f}"])
