"""Rate-distortion math and the end-to-end pipeline around one compound code.

The analytic bound for a doubly symmetric binary pair with crossover p is the
lower convex envelope of h(d (*) p) - h(d) and the point (p, 0), where (*) is
binary convolution.  The experiment harness quantizes random sources, ships
the short syndrome, decodes against side information, and compares measured
distortion at the transmitted rate with the bound.  It calls only a code's
params, quantizer.quantize_all, syndrome and decode.
"""

from __future__ import annotations

import csv
import math
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from typing import TYPE_CHECKING, Iterable, Sequence, TextIO

import numpy as np

from .builder import CodeParams, CompoundCode, CompoundQuantizer
from .decoder import DecodeResult, SpParams
from .gf2 import BitVector, _require_ints
from .quantizer import BipParams, QuantizeResult

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

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


# invert_bound bisects the distortion down to an interval this wide
_BISECT_WIDTH = 1e-9


def _bisect(below, lo: float, hi: float, width: float) -> float:
    """Bisect [lo, hi] on below, which holds left of the root, until the
    ends lie at most width apart or are adjacent doubles; return their
    midpoint."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if below(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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

    # f rises through its root, so the bracket holds it when f(lo) < 0 <
    # f(hi); below p = 1.65e-6 the root lies under lo, and within about 1e-8
    # of 0.5 f(hi) is rounding noise
    lo, hi = 1e-12, p - 1e-12
    f_lo, f_hi = (f(lo), f(hi)) if lo < hi else (math.nan, math.nan)
    if f_lo == 0.0 or f_hi == 0.0:
        d_c = lo if f_lo == 0.0 else hi
    elif f_lo < 0.0 < f_hi:
        d_c = _bisect(lambda d: f(d) < 0.0, lo, hi, 0.0)
    else:
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
    return _bisect(lambda d: _rate(d, p, d_c, r_c) > rate, 0.0, p,
                   _BISECT_WIDTH)


def bound_curve(p: float, points: int = 200) -> list[tuple[float, float]]:
    if points < 2:
        raise ValueError("need at least two points")
    d_c, r_c = wz_boundary(p)
    return [(i * p / (points - 1), _rate(i * p / (points - 1), p, d_c, r_c))
            for i in range(points)]


@dataclass(frozen=True)
class EncodeResult:
    quantized: QuantizeResult  # the code's quantizer's result
    syndrome: BitVector        # transmitted bits, code.syndrome(quantized)


def encode(code: CompoundCode, source: BitVector,
           bip: BipParams = BipParams()) -> EncodeResult:
    """Quantize the source and emit the short syndrome of the quantized word."""
    return encode_all(code, [source], bip)[0]


def encode_all(code: CompoundCode, sources: Sequence[BitVector],
               bip: BipParams = BipParams()) -> list[EncodeResult]:
    """encode for every source, quantized together."""
    return [EncodeResult(q, code.syndrome(q))
            for q in code.quantizer.quantize_all(sources, bip)]


def decode(code: CompoundCode, side_info: BitVector, syndrome: BitVector,
           sp: SpParams) -> DecodeResult:
    """Recover the quantized word from its syndrome and correlated side info.

    sp.crossover estimates P(word bit != side info bit); with quantization
    distortion d1 over a pair channel p that is binary_convolve(d1, p).
    """
    return code.decode(side_info, syndrome, sp)


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
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        pool = ProcessPoolExecutor(max_workers=workers)
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
