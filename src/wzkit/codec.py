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
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Sequence, TextIO

import numpy as np

from .builder import CodeParams, CompoundCode, _generator_rows
from .decoder import SpParams, sp_decode
from .gf2 import BitVector, ShapeError, _require_ints, mul_vec
from .quantizer import BipParams, QuantizeResult, _resolve, bip_quantize_all

__all__ = [
    "binary_entropy",
    "binary_convolve",
    "wz_rate",
    "wz_boundary",
    "invert_bound",
    "bound_curve",
    "CompoundQuantizer",
    "EncodeResult",
    "encode",
    "encode_all",
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


# Brent's root finder (Brent 1973, ch. 4) as scipy's brentq.c runs it, step
# for step, so the tangency point matches scipy.optimize.brentq bit for bit.
_BRENT_XTOL = 1e-12
_BRENT_RTOL = 4 * sys.float_info.epsilon
_BRENT_MAXITER = 100
# invert_bound bisects the distortion down to an interval this wide
_BISECT_WIDTH = 1e-9


def _brentq(f, xa: float, xb: float) -> float | None:
    """Root of f in [xa, xb]; None when f(xa) and f(xb) share a sign."""
    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        return None
    for _ in range(_BRENT_MAXITER):
        if (fpre != 0 and fcur != 0
                and math.copysign(1.0, fpre) != math.copysign(1.0, fcur)):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (_BRENT_XTOL + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            a, b = abs(spre), 3 * abs(sbis) - delta
            if 2 * abs(stry) < (a if a < b else b):  # good short step
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Brent's method did not converge in "
                       f"{_BRENT_MAXITER} iterations, value is {xcur}")


def wz_boundary(p: float) -> tuple[float, float]:
    """Tangency point (d_c, rate) where the curve meets its chord to (p, 0).

    Below d_c the bound follows h(d (*) p) - h(d); above it time sharing with
    the zero-rate point is better and the bound is the chord.  The root is
    searched on [1e-12, p - 1e-12], which in double precision brackets it
    only for p from about 1.65e-6 to within about 1e-8 of 0.5; outside that
    window this raises ValueError.
    """
    if not 0.0 < p < 0.5:
        raise ValueError(f"crossover must lie in (0, 0.5), got {p}")

    def f(d: float) -> float:
        return _curve_slope(d, p) * (p - d) + _curve(d, p)

    lo, hi = 1e-12, p - 1e-12
    d_c = _brentq(f, lo, hi) if lo < hi else None
    if d_c is None:
        raise ValueError(
            f"crossover {p!r} has no computable tangency point: "
            f"[1e-12, p - 1e-12] brackets it only for p from about 1.65e-6 "
            f"to within about 1e-8 of 0.5")
    return d_c, _curve(d_c, p)


def _rate(d: float, p: float, d_c: float, r_c: float) -> float:
    """wz_rate for a valid (d, p) with the tangency point already known."""
    if d >= p:
        return 0.0
    if d <= d_c:
        return _curve(d, p)
    return r_c * (p - d) / (p - d_c)


def wz_rate(d: float, p: float) -> float:
    """Rate bound at target distortion d for side-information crossover p."""
    if not 0.0 < p < 0.5:
        raise ValueError(f"crossover must lie in (0, 0.5), got {p}")
    if not 0.0 <= d <= 0.5:
        raise ValueError(f"distortion must lie in [0, 0.5], got {d}")
    if d >= p:
        return 0.0
    return _rate(d, p, *wz_boundary(p))


def invert_bound(rate: float, p: float) -> float:
    """Distortion at which the bound equals `rate`, to _BISECT_WIDTH."""
    if not 0.0 < p < 0.5:
        raise ValueError(f"crossover must lie in (0, 0.5), got {p}")
    if math.isnan(rate):
        raise ValueError("rate must be a number, got nan")
    if rate <= 0.0:
        return p
    if rate >= binary_entropy(p):
        return 0.0
    d_c, r_c = wz_boundary(p)
    lo, hi = 0.0, p
    while hi - lo > _BISECT_WIDTH:
        mid = 0.5 * (lo + hi)
        if _rate(mid, p, d_c, r_c) > rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bound_curve(p: float, points: int = 200) -> list[tuple[float, float]]:
    if points < 2:
        raise ValueError("need at least two points")
    d_c, r_c = wz_boundary(p)
    return [(i * p / (points - 1), _rate(i * p / (points - 1), p, d_c, r_c))
            for i in range(points)]


class CompoundQuantizer:
    """Bias propagation for one compound code, run in its systematic gauge.

    The quantization check reads (identity | zeros | B), so its codewords are
    exactly the vectors (B t2, t1, t2) over free blocks t1 and t2.  The middle
    block copies the source outright at no cost, which leaves fitting
    (B t2, t2) to the parity and tail blocks of the source.  That residual
    problem goes to bip_quantize on g_sub, the tail rows of the code's
    systematic generator g1 without the middle block: row j holds column j
    of B plus its own tail position, so check degrees stay at the B column
    weights.  A word's coefficients over g1 are its free blocks (t1, t2).
    """

    def __init__(self, code: CompoundCode):
        params = code.params
        r, b = params.quant_checks, code.b_columns
        self.n = params.n
        self.parity_width = r
        self.mid_width = params.mid_width
        # row j: B's column j, then its private tail column r + j
        self.g_sub = _generator_rows(b, b.rows, r + b.rows)
        # default damping is a fact of g_sub: search it for 4-cycles once
        self._damping = _resolve(BipParams(), self.g_sub)[1]

    def quantize(self, source: BitVector,
                 bip: BipParams = BipParams()) -> QuantizeResult:
        """Codeword of the quantization check close to source in Hamming
        distance, with its coefficients u over g1 and BiP's counters."""
        return self.quantize_all([source], bip)[0]

    def quantize_all(self, sources: Sequence[BitVector],
                     bip: BipParams = BipParams()) -> list[QuantizeResult]:
        """quantize for every source, all through one bip_quantize_all call."""
        for source in sources:
            if source.length != self.n:
                raise ShapeError(f"source length {source.length} != n {self.n}")
        r, mid = self.parity_width, self.mid_width
        parity_mask = (1 << r) - 1
        local = [BitVector(self.g_sub.cols,
                           s.bits & parity_mask | s.bits >> (r + mid) << r)
                 for s in sources]
        if bip.damping is None:
            bip = replace(bip, damping=self._damping)
        out = []
        for source, res in zip(sources, bip_quantize_all(self.g_sub, local, bip)):
            sub_word = res.codeword
            word = BitVector(self.n,
                             sub_word.bits & parity_mask
                             | (source.bits >> r & (1 << mid) - 1) << r
                             | sub_word.bits >> r << (r + mid))
            out.append(replace(res, u=self.coefficients(word), codeword=word,
                               distortion=(word ^ source).weight() / self.n))
        return out

    def coefficients(self, word: BitVector) -> BitVector:
        """Coefficients u over g1's rows with u @ g1 == word, for a codeword
        of the quantization check: its free blocks, bits parity_width..n-1."""
        if word.length != self.n:
            raise ShapeError(f"word length {word.length} != n {self.n}")
        return BitVector(self.n - self.parity_width,
                         word.bits >> self.parity_width)


@dataclass(frozen=True)
class EncodeResult:
    quantized: QuantizeResult  # the quantizer's result, over g1
    syndrome: BitVector        # transmitted bits, h2 @ quantized.codeword


def encode(code: CompoundCode, source: BitVector,
           bip: BipParams = BipParams()) -> EncodeResult:
    """Quantize the source and emit the short syndrome of the quantized word."""
    return encode_all(code, [source], bip)[0]


def encode_all(code: CompoundCode, sources: Sequence[BitVector],
               bip: BipParams = BipParams()) -> list[EncodeResult]:
    """encode for every source, quantized together."""
    return [EncodeResult(q, mul_vec(code.h2, q.codeword))
            for q in code.quantizer.quantize_all(sources, bip)]


def decode(code: CompoundCode, side_info: BitVector, syndrome: BitVector,
           sp: SpParams):
    """Recover the quantized word from its syndrome and correlated side info.

    sp.crossover estimates P(word bit != side info bit); with quantization
    distortion d1 over a pair channel p that is binary_convolve(d1, p).  The
    full syndrome is the transmitted part prefixed by zeros, the quantization
    checks being satisfied by construction.
    """
    p = code.params
    if syndrome.length != p.k2:
        raise ValueError(f"syndrome must have {p.k2} bits")
    full = BitVector(code.h.rows, syndrome.bits << p.quant_checks)
    return sp_decode(code.h, full, side_info, sp)


@dataclass(frozen=True)
class ExperimentConfig:
    """One rate-distortion measurement: a code, a channel, and trial count."""

    code_id: str
    params: CodeParams
    p: float
    trials: int
    seed: int
    bip: BipParams = BipParams()
    max_iter: int = SpParams.max_iter
    crossover: float | None = None   # decoder estimate override

    def __post_init__(self):
        _require_ints(self, "trials", "seed", "max_iter")
        if not 0.0 < self.p < 0.5:
            raise ValueError(f"p must lie in (0, 0.5), got {self.p}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if self.crossover is not None and not 0.0 < self.crossover < 0.5:
            raise ValueError(f"crossover must lie in (0, 0.5), got "
                             f"{self.crossover}")


@dataclass(frozen=True)
class ExperimentResult:
    code_id: str
    n: int
    m: int
    k1: int
    k2: int
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


def _trial_rng(seed: int, trial: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, trial]))


def _encode_trials(code: CompoundCode, first: int, stop: int, seed: int,
                   p: float, bip: BipParams
                   ) -> list[tuple[BitVector, BitVector, EncodeResult]]:
    """(source, side info, encoding) of trials first..stop-1, their sources
    encoded together."""
    n = code.params.n
    sources, side_infos = [], []
    for trial in range(first, stop):
        rng = _trial_rng(seed, trial)
        sources.append(BitVector.from_array(
            rng.integers(0, 2, size=n, dtype=np.int64)))
        side_infos.append(sources[-1]
                          ^ BitVector.from_array(rng.random(n) < p))
    return list(zip(sources, side_infos, encode_all(code, sources, bip)))


def _map_trials(pool: ProcessPoolExecutor | None, fn, code: CompoundCode,
                tasks: list[tuple]) -> list:
    """fn(code, *task) for every task, in order, here or on the pool; each
    pool task carries the code with it."""
    if pool is None:
        return [fn(code, *t) for t in tasks]
    return list(pool.map(partial(fn, code), *zip(*tasks), chunksize=1))


def _clamp_crossover(q: float) -> float:
    return min(max(q, 1e-9), 0.5 - 1e-9)


def run_experiment(code: CompoundCode, config: ExperimentConfig,
                   workers: int = 1) -> ExperimentResult:
    """Measured operating point of `code` over `config.trials` sources.

    Per-trial randomness comes from (seed, trial index), and quantizing a
    source gives the same result in any batch, so results do not depend on
    the worker count.  All sources are quantized first; each decode
    then estimates its channel from the running mean quantization distortion
    over trials up to and including its own, unless config.crossover pins it.
    Failures are trials whose decoder never matched the syndrome; their
    best-effort output still counts toward the measured distortion.
    """
    if code.params != config.params:
        raise ValueError("config parameters do not match the supplied code")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    n = code.params.n
    r1, r2, rt = code.params.rates
    dwz = invert_bound(rt, config.p)  # raises before any trial runs
    code.quantizer  # built here, every pool task carries it with the code
    workers = min(workers, config.trials)
    pool = ProcessPoolExecutor(max_workers=workers) if workers > 1 else None
    # one contiguous chunk of trials per worker, quantized as one batch
    chunk = -(-config.trials // workers)
    with pool or nullcontext():
        encoded = [out for outs in _map_trials(pool, _encode_trials, code, [
            (t, min(t + chunk, config.trials), config.seed, config.p, config.bip)
            for t in range(0, config.trials, chunk)]) for out in outs]
        running = 0.0
        dec_tasks = []
        for trial, (_, side_info, enc) in enumerate(encoded):
            running += enc.quantized.distortion
            if config.crossover is not None:
                q = config.crossover
            else:
                q = binary_convolve(running / (trial + 1), config.p)
            dec_tasks.append((side_info, enc.syndrome, SpParams(
                crossover=_clamp_crossover(q), max_iter=config.max_iter)))
        decoded = _map_trials(pool, decode, code, dec_tasks)

    d1 = sum(enc.quantized.distortion
             for _, _, enc in encoded) / config.trials
    d2 = sum(dec.bits.hamming(enc.quantized.codeword) / n
             for (_, _, enc), dec in zip(encoded, decoded)) / config.trials
    dt = sum(dec.bits.hamming(source) / n
             for (source, _, _), dec in zip(encoded, decoded)) / config.trials
    failures = sum(not dec.converged for dec in decoded)

    return ExperimentResult(
        code_id=config.code_id, n=code.params.n, m=code.params.m,
        k1=code.params.k1, k2=code.params.k2, p=config.p,
        r1=r1, r2=r2, rt=rt, d1=d1, d2=d2, dt=dt,
        dt_pred=binary_convolve(d1, d2), dwz=dwz, gap=dt - dwz,
        trials=config.trials, failures=failures, seed=config.seed)


CSV_COLUMNS = ("code_id", "n", "m", "k1", "k2", "p", "R1", "R2", "Rt", "d1",
               "d2", "Dt", "Dt_pred", "Dwz", "gap", "trials", "failures", "seed")


def write_results_csv(f: TextIO, results: Iterable[ExperimentResult]) -> None:
    from . import __version__
    f.write(f"# wzkit {__version__}\n")
    w = csv.writer(f)
    w.writerow(CSV_COLUMNS)
    for r in results:
        w.writerow([r.code_id, r.n, r.m, r.k1, r.k2,
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
