"""Binary quantization onto a sparse generator's codebook via bias propagation."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decoder import _check_product
from .gf2 import BitMatrix, BitVector, ShapeError

__all__ = [
    "BipParams",
    "QuantizeResult",
    "bip_quantize",
    "bip_quantize_all",
    "exhaustive_quantize",
    "generator_codeword",
    "has_four_cycle",
]

EXHAUSTIVE_LIMIT = 24
_SAT = 1.0 - 1e-15
_FOUR_CYCLE_PAIR_BUDGET = 50_000_000
# bip_quantize_all runs at most this many edges of per-word graphs at once:
# about 8 MiB per float64 edge array
_BATCH_EDGE_BUDGET = 1 << 20


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
    lengths = g.row_lengths()
    total_pairs = int((lengths * (lengths - 1) // 2).sum())
    if total_pairs > _FOUR_CYCLE_PAIR_BUDGET:
        return True
    flat = g.edges()[1]
    starts = np.cumsum(lengths) - lengths
    # one (rows x length) block of supports, and one pair index, per length
    blocks = [np.empty(0, dtype=np.int64)]
    for size in np.unique(lengths[lengths >= 2]).tolist():
        sup = flat[starts[lengths == size, None] + np.arange(size)]
        ii, jj = np.triu_indices(size, k=1)
        blocks.append((sup[:, ii] * g.cols + sup[:, jj]).ravel())
    keys = np.concatenate(blocks)
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
    """Pick an information word u whose codeword u @ g sits close to source;
    bip_quantize_all on one word."""
    return bip_quantize_all(g, [source], params)[0]


def bip_quantize_all(g: BitMatrix, sources: Sequence[BitVector],
                     params: BipParams = BipParams()) -> list[QuantizeResult]:
    """Quantize every source onto the codebook of g, one result per source.

    Variables are the generator rows, checks the code bits; every check also
    hears a source term of sign (-1)^{s_a} and magnitude tanh(gamma).  A check
    sends each neighbor the product of its other incoming values (sp_decode's
    check update, on an edge list); a variable replies with tanh of the sum of
    arctanh of the others.  After
    iters_per_round sweeps the per-variable bias (same sum, nothing excluded)
    fixes every variable beyond the threshold, or the single largest-bias
    variable when none clears it; positive biases fix to 0, negative to 1, and
    first index wins ties.  Fixed ones fold into the source signs of their
    checks and the loop repeats on the shrunken graph until everything is
    pinned.

    The sources run together, in batches of at most _BATCH_EDGE_BUDGET edges,
    as one graph made of a disjoint copy of g per source.  Every sum in the
    sweep is taken per copy in the same order as for that source alone and
    every other step is elementwise, and decimation decides per copy, so each
    result is bit-identical to quantizing its source by itself.  After the
    first round, a round re-sweeps only the components of the live graph that
    the last round's fixed variables touched (all of it with warm_start); the
    rest keep the biases their sweeps would reproduce bit for bit, so the
    results are those of sweeping every live edge each round.
    """
    for source in sources:
        if source.length != g.cols:
            raise ShapeError(f"source length {source.length} != generator "
                             f"cols {g.cols}")
    if g.rows < 1:
        raise ShapeError("generator needs at least one row")
    gamma, damping = _resolve(params, g)
    src_mag = float(np.tanh(gamma))
    per_batch = max(1, _BATCH_EDGE_BUDGET // max(1, g.edges()[0].size))
    results: list[QuantizeResult] = []
    for at in range(0, len(sources), per_batch):
        results += _decimate(g, sources[at:at + per_batch], params, src_mag,
                             damping)
    return results


def _decimate(g: BitMatrix, sources: Sequence[BitVector], params: BipParams,
              src_mag: float, damping: float) -> list[QuantizeResult]:
    """The decimation loop of bip_quantize_all on one batch of sources.

    A round sweeps only the live edges of the components that hold a check of
    a variable fixed in the round before: all of them in the first round, and
    in every round with warm_start, whose messages carry over.  Any other
    component would replay its last sweeps bit for bit, since its messages
    restart at ones, its source terms are unchanged and every sum runs per
    check or variable inside it in edge order.  So its variables keep their
    cached bias and per-round conflict count, and none of them is over the
    threshold: it would have been fixed, and its component touched.
    """
    words, n_var, n_chk = len(sources), g.rows, g.cols
    n_vars, n_chks = words * n_var, words * n_chk
    # |theta| <= 1, so the float sum of a check's logs is at most any one of
    # them, every leave-one-out magnitude is at most 1 and |phi| <= src_mag:
    # below _SAT nothing saturates and the clip changes nothing
    saturates = src_mag >= _SAT
    # word w owns variables w*n_var.. and checks w*n_chk.., in word order
    ev, ec = g.edges()
    shift = np.arange(words, dtype=np.int64)[:, None]
    edge_var = (ev + shift * n_var).ravel()
    edge_check = (ec + shift * n_chk).ravel()

    s_arr = np.concatenate([s.to_array() for s in sources])
    sign_eff = 1.0 - 2.0 * s_arr.astype(np.float64)
    fixed = np.full(n_vars, -1, dtype=np.int64)  # -1 unfixed, else 0/1
    theta = np.ones(edge_var.size, dtype=np.float64)  # kept for warm_start
    # per variable, from the last sweep of its component; 0 once fixed, and
    # for variables without edges
    bias = np.zeros(n_vars, dtype=np.float64)
    clashes = np.zeros(n_vars, dtype=np.int64)
    conflicts = np.zeros(words, dtype=np.int64)
    rounds = np.zeros(words, dtype=np.int64)
    touched = np.ones(edge_var.size, dtype=bool)

    while True:
        active = (fixed < 0).reshape(words, n_var).any(axis=1)
        if not active.any():
            break
        rounds += active
        if touched.any():
            sweep_vars, sweep_checks = edge_var[touched], edge_check[touched]
            t = theta if params.warm_start else np.ones(sweep_vars.size)
            src_term = src_mag * sign_eff[sweep_checks]
            # the sweeps' sums run over the variables and checks that they
            # reach, numbered 0.. in order: every bin keeps its addends in order
            var_live, sweep_var = _renumber(sweep_vars, n_vars)
            chk_live, sweep_check = _renumber(sweep_checks, n_chks)
            n_live_var = np.count_nonzero(var_live)
            n_live_chk = np.count_nonzero(chk_live)
            clash = np.zeros(n_live_var, dtype=np.int64)
            for _ in range(params.iters_per_round):
                # check pass: leave-one-out product of theta times the source term
                phi = _check_product(t, sweep_check, n_live_chk)
                phi *= src_term

                # variable pass in the arctanh domain
                if saturates:
                    sat_pos = phi >= _SAT
                    sat_neg = phi <= -_SAT
                    if sat_pos.any() and sat_neg.any():
                        clash += (
                            (np.bincount(sweep_var[sat_pos],
                                         minlength=n_live_var) > 0)
                            & (np.bincount(sweep_var[sat_neg],
                                           minlength=n_live_var) > 0))
                    # clip to +-_SAT in place (np.clip costs more on short
                    # arrays)
                    np.minimum(np.maximum(phi, -_SAT, out=phi), _SAT, out=phi)
                w = np.arctanh(phi, out=phi)
                bias_sum = np.bincount(sweep_var, weights=w, minlength=n_live_var)
                theta_new = np.tanh(bias_sum[sweep_var] - w)
                t = damping * t + (1.0 - damping) * theta_new
            if params.warm_start:
                theta = t
            bias[var_live] = np.tanh(bias_sum)
            clashes[var_live] = clash
        conflicts += clashes.reshape(words, n_var).sum(axis=1)

        # fixed variables and those without edges have bias 0: never fixed
        # by the threshold
        over = np.abs(bias) > params.threshold
        stalled = np.flatnonzero(active & ~over.reshape(words, n_var).any(axis=1))
        if stalled.size:
            cand = np.where(fixed < 0, np.abs(bias), -1.0).reshape(words, n_var)
            over[stalled * n_var + np.argmax(cand[stalled], axis=1)] = True
        values = (bias[over] < 0.0).astype(np.int64)
        fixed[over] = values
        bias[over] = 0.0
        clashes[over] = 0

        # fold fixed ones into the source signs and drop the settled edges
        on_fixed = over[edge_var]
        ones_edges = edge_check[on_fixed & (fixed[edge_var] == 1)]
        flips = np.bincount(ones_edges, minlength=n_chks) % 2
        sign_eff *= 1.0 - 2.0 * flips
        seeds = edge_check[on_fixed]
        keep = ~on_fixed
        edge_var, edge_check = edge_var[keep], edge_check[keep]
        if params.warm_start:
            theta = theta[keep]
            touched = np.ones(edge_var.size, dtype=bool)
        else:
            touched = _component_edges(edge_var, edge_check, seeds, n_vars,
                                       n_chks)

    results = []
    for k, source in enumerate(sources):
        u = BitVector.from_array(fixed[k * n_var:(k + 1) * n_var])
        distortion = generator_codeword(g, u).hamming(source) / g.cols
        results.append(QuantizeResult(u, distortion, int(rounds[k]),
                                      int(conflicts[k])))
    return results


def _component_edges(edge_var: np.ndarray, edge_check: np.ndarray,
                     seeds: np.ndarray, n_vars: int, n_chks: int) -> np.ndarray:
    """Mask of the edges in the components that hold one of the seed checks,
    grown through variables then checks until nothing is added."""
    chk = np.zeros(n_chks, dtype=bool)
    chk[seeds] = True
    var = np.zeros(n_vars, dtype=bool)
    mask = chk[edge_check]
    while True:
        var[edge_var[mask]] = True
        grown = var[edge_var]
        if np.count_nonzero(grown) == np.count_nonzero(mask):
            return mask
        chk[edge_check[grown]] = True
        mask = chk[edge_check]


def _renumber(ids: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Which of 0..size-1 occur in ids, and ids renumbered 0.. over those,
    in increasing order."""
    live = np.zeros(size, dtype=bool)
    live[ids] = True
    return live, np.cumsum(live)[ids] - 1


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
