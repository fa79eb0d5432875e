"""Binary quantization onto a sparse generator's codebook via bias propagation."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .decoder import _check_product
from .gf2 import BitMatrix, BitVector, ShapeError

__all__ = [
    "BipParams",
    "QuantizeResult",
    "bip_quantize",
    "exhaustive_quantize",
    "generator_codeword",
    "has_four_cycle",
]

EXHAUSTIVE_LIMIT = 24
_SAT = 1.0 - 1e-15
_FOUR_CYCLE_PAIR_BUDGET = 50_000_000


@dataclass(frozen=True)
class BipParams:
    """Knobs for the decimation loop.

    gamma defaults to twice the generator rate (rows/cols); damping defaults to
    0.5 when the generator graph contains a 4-cycle and 0 otherwise.  Each
    decimation round restarts messages from their initial value with the fixed
    variables clamped; warm_start carries the surviving messages over instead.
    """

    gamma: float | None = None
    threshold: float = 0.8
    iters_per_round: int = 25
    damping: float | None = None
    warm_start: bool = False

    def __post_init__(self):
        if self.gamma is not None and self.gamma <= 0:
            raise ValueError("gamma must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if self.iters_per_round < 1:
            raise ValueError("iters_per_round must be >= 1")
        if self.damping is not None and not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")


@dataclass(frozen=True)
class QuantizeResult:
    u: BitVector
    distortion: float
    rounds: int
    conflict_events: int  # opposing saturated messages met at a variable


def generator_codeword(g: BitMatrix, u: BitVector) -> BitVector:
    """Codeword u @ g: XOR of the generator rows selected by u."""
    if u.length != g.rows:
        raise ShapeError(f"u length {u.length} != generator rows {g.rows}")
    bits = 0
    rows = g.bitrows()
    rem = u.bits
    while rem:
        low = rem & -rem
        bits ^= rows[low.bit_length() - 1]
        rem ^= low
    return BitVector(g.cols, bits)


def has_four_cycle(g: BitMatrix) -> bool:
    """True when two rows share two columns.  Row profiles whose pair count
    exceeds the enumeration budget are assumed cyclic (dense rows essentially
    guarantee a shared column pair)."""
    total_pairs = sum(len(s) * (len(s) - 1) // 2 for s in g.row_support)
    if total_pairs > _FOUR_CYCLE_PAIR_BUDGET:
        return True
    keys = np.empty(total_pairs, dtype=np.int64)
    pos = 0
    ncols = g.cols
    for sup in g.row_support:
        arr = np.array(sup, dtype=np.int64)
        if arr.size < 2:
            continue
        ii, jj = np.triu_indices(arr.size, k=1)
        block = arr[ii] * ncols + arr[jj]
        keys[pos:pos + block.size] = block
        pos += block.size
    keys = keys[:pos]
    keys.sort()
    return bool(np.any(keys[1:] == keys[:-1]))


def _resolve(params: BipParams, g: BitMatrix) -> tuple[float, float]:
    gamma = params.gamma if params.gamma is not None else 2.0 * g.rows / g.cols
    if params.damping is not None:
        damping = params.damping
    else:
        damping = 0.5 if has_four_cycle(g) else 0.0
    return gamma, damping


def bip_quantize(g: BitMatrix, source: BitVector, params: BipParams = BipParams()
                 ) -> QuantizeResult:
    """Pick an information word u whose codeword u @ g sits close to source.

    Variables are the generator rows, checks the code bits; every check also
    hears a source term of sign (-1)^{s_a} and magnitude tanh(gamma).  A check
    sends each neighbor the product of its other incoming values (the check
    update sp_decode shares); a variable replies with tanh of the sum of
    arctanh of the others.  After
    iters_per_round sweeps the per-variable bias (same sum, nothing excluded)
    fixes every variable beyond the threshold, or the single largest-bias
    variable when none clears it; positive biases fix to 0, negative to 1, and
    first index wins ties.  Fixed ones fold into the source signs of their
    checks and the loop repeats on the shrunken graph until everything is
    pinned.
    """
    if source.length != g.cols:
        raise ShapeError(f"source length {source.length} != generator cols {g.cols}")
    if g.rows < 1:
        raise ShapeError("generator needs at least one row")
    gamma, damping = _resolve(params, g)
    src_mag = float(np.tanh(gamma))

    n_var, n_chk = g.rows, g.cols
    edge_var, edge_check = g.edges()

    s_arr = np.array(source.to_list(), dtype=np.int64)
    sign_eff = 1.0 - 2.0 * s_arr.astype(np.float64)
    fixed = np.full(n_var, -1, dtype=np.int64)  # -1 unfixed, else 0/1
    theta = np.ones(edge_var.size, dtype=np.float64)
    conflicts = 0
    rounds = 0

    while np.any(fixed < 0):
        rounds += 1
        if not params.warm_start:
            theta = np.ones(edge_var.size, dtype=np.float64)
        bias_sum = np.zeros(n_var, dtype=np.float64)
        src_term = src_mag * sign_eff[edge_check]
        for _ in range(params.iters_per_round):
            # check pass: leave-one-out product of theta times the source term
            phi = _check_product(theta, edge_check, n_chk)
            phi *= src_term

            # variable pass in the arctanh domain
            sat_pos = phi >= _SAT
            sat_neg = phi <= -_SAT
            if sat_pos.any() and sat_neg.any():
                both = (np.bincount(edge_var[sat_pos], minlength=n_var) > 0) & (
                    np.bincount(edge_var[sat_neg], minlength=n_var) > 0)
                conflicts += int(both.sum())
            w = np.arctanh(np.clip(phi, -_SAT, _SAT))
            bias_sum = np.bincount(edge_var, weights=w, minlength=n_var)
            theta_new = np.tanh(bias_sum[edge_var] - w)
            theta = damping * theta + (1.0 - damping) * theta_new

        bias = np.tanh(bias_sum)
        bias[fixed >= 0] = 0.0  # already decided, never re-fixed
        over = np.abs(bias) > params.threshold
        if not over.any():
            unfixed = fixed < 0
            cand = np.where(unfixed, np.abs(bias), -1.0)
            over[int(np.argmax(cand))] = True
        values = (bias[over] < 0.0).astype(np.int64)
        fixed[over] = values

        # fold fixed ones into the source signs and drop the settled edges
        on_fixed = over[edge_var]
        ones_edges = edge_check[on_fixed & (fixed[edge_var] == 1)]
        flips = np.bincount(ones_edges, minlength=n_chk) % 2
        sign_eff *= 1.0 - 2.0 * flips
        keep = ~on_fixed
        edge_var, edge_check, theta = edge_var[keep], edge_check[keep], theta[keep]

    u = BitVector.from_bits_list(fixed.tolist())
    word = generator_codeword(g, u)
    distortion = word.hamming(source) / g.cols
    return QuantizeResult(u, distortion, rounds, conflicts)


def exhaustive_quantize(g: BitMatrix, source: BitVector) -> tuple[BitVector, float]:
    """Exact minimum-distortion quantization by walking all 2^rows codewords.

    Ties pick the lexicographically smallest u.  Only for generators with at
    most EXHAUSTIVE_LIMIT rows.
    """
    if source.length != g.cols:
        raise ShapeError(f"source length {source.length} != generator cols {g.cols}")
    if g.rows > EXHAUSTIVE_LIMIT:
        raise ValueError(f"{g.rows} rows exceeds the 2^{EXHAUSTIVE_LIMIT} search limit")
    rows = g.bitrows()
    src = source.bits

    def lex_key(u_bits: int) -> tuple[int, ...]:
        return tuple((u_bits >> i) & 1 for i in range(g.rows))

    best_u, best_d = 0, (src).bit_count()
    word = 0
    u_bits = 0
    # Gray-code walk: one row XOR per candidate
    for k in range(1, 1 << g.rows):
        flip = (k & -k).bit_length() - 1
        u_bits ^= 1 << flip
        word ^= rows[flip]
        d = (word ^ src).bit_count()
        if d < best_d or (d == best_d and lex_key(u_bits) < lex_key(best_u)):
            best_u, best_d = u_bits, d
    return BitVector(g.rows, best_u), best_d / g.cols
