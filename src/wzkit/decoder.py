"""Syndrome-conditioned Sum-Product decoding and exact coset search."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .gf2 import (BitMatrix, BitVector, ShapeError, _column_basis,
                  _require_ints)

__all__ = [
    "SpParams",
    "DecodeResult",
    "sp_decode",
    "coset_members",
    "coset_nearest",
]

COSET_ENUM_LIMIT = 24  # 2^24 members is the largest exact search we attempt
# sp_decode clips every message at this many LLRs.  Its half-LLR cap of 15
# lies below arctanh(1 - 1e-15) ~ 17.6, which is what lets one cap after
# arctanh stand for a clip before it (see _slot_check_pass)
LLR_CLIP = 30.0


@dataclass(frozen=True)
class SpParams:
    crossover: float
    max_iter: int = 100

    def __post_init__(self):
        _require_ints(self, "max_iter")
        if not 0.0 < self.crossover < 0.5:
            raise ValueError(f"crossover must lie in (0, 0.5), got {self.crossover}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


@dataclass(frozen=True)
class DecodeResult:
    bits: BitVector
    converged: bool
    iterations: int


def _check_product(theta: np.ndarray, edge_check: np.ndarray,
                   n_checks: int) -> np.ndarray:
    """Per-edge product of the other incoming values on the same check.

    The check update on an edge list, as bip_quantize_all runs it on its live
    subgraph; sp_decode's _slot_check_pass runs the same formula's
    magnitude on padded check slots, goes on to a capped arctanh in half
    LLRs and sets the sign last.  Edges may come in any order and a
    check may have none.  The result equals the plain log-magnitude
    leave-one-out product bit for bit: the sign is the parity of the check's
    integer count of negative inputs XOR the edge's own sign, with no float
    remainder, and the magnitude is exp(log_sum - log|theta|) with log_sum
    summed by bincount in edge order.  Only when the input holds an exact
    zero (of either sign) do zeros count as log 1, and every edge that sees
    another zero on its check gets +0.0.
    """
    zero = None if theta.all() else theta == 0.0
    safe = theta if zero is None else np.where(zero, 1.0, theta)
    log_abs = np.log(np.abs(safe))
    # bincount returns integers when there are no edges at all
    log_sum = np.bincount(edge_check, weights=log_abs,
                          minlength=n_checks).astype(np.float64, copy=False)
    negs = np.bincount(edge_check[np.flatnonzero(theta < 0.0)],
                       minlength=n_checks)
    check_sign = 1.0 - 2.0 * (negs & 1)
    prod = log_sum[edge_check]
    prod -= log_abs
    np.exp(prod, out=prod)
    np.copysign(prod, safe, out=prod)
    prod *= check_sign[edge_check]
    if zero is not None:
        zeros = np.bincount(edge_check, weights=zero, minlength=n_checks)
        prod[zeros[edge_check] - zero > 0] = 0.0
    return prod


def _slot_check_pass(t: np.ndarray, syn: np.ndarray, cap: float,
                     out: np.ndarray) -> np.ndarray:
    """sp_decode's check half-iteration on the slot layout of
    BitMatrix.slots, in half LLRs, written to out: the magnitude of
    _check_product per slot, through arctanh, capped at cap, signed by the
    slot's own sign, its check's parity and syn (one bool per check).
    t is overwritten.  Run it under np.errstate(divide="ignore"): an exact
    zero's log and arctanh(1.0) are -inf and +inf.

    Padding holds 1.0, which adds log 1 = +0.0 after a check's last edge;
    the sums down each column run in slot order, as bincount's do in edge
    order.  Only when a check's log sum is -inf, which only an exact zero's
    log gives, are zeros read as 1.0 and the sums redone; a slot whose check
    holds another zero then gets magnitude 0.0.  sp_decode passes cap =
    LLR_CLIP/2, below arctanh(1 - 1e-15), so the one cap stands for a clip
    at 1 - 1e-15 before arctanh and the clip at LLR_CLIP/2 after it; that
    is exact while arctanh is non-decreasing (TestSignFold checks it).  The
    sign bit is set on the non-negative magnitude afterwards; arctanh is
    odd, so no non-zero output changes, and a zero output may carry the
    other sign.
    """
    np.abs(t, out=out)
    np.log(out, out=out)
    log_sum = np.add.reduce(out, axis=0)
    zero = None
    if log_sum.min(initial=0.0) == -np.inf:
        zero = t == 0.0
        out[zero] = 0.0
        log_sum = np.add.reduce(out, axis=0)
    np.subtract(log_sum, out, out=out)
    np.exp(out, out=out)
    if zero is not None:
        out[zero.sum(axis=0) - zero > 0] = 0.0
    np.arctanh(out, out=out)
    np.fmin(out, cap, out=out)
    neg = t < 0.0
    flip = np.logical_xor.reduce(neg, axis=0)
    flip ^= syn
    neg ^= flip
    sign = t.view(np.uint64)
    sign[...] = neg
    sign <<= 63
    bits = out.view(np.uint64)
    bits |= sign
    return out


def sp_decode(h: BitMatrix, syndrome: BitVector, side_info: BitVector,
              params: SpParams) -> DecodeResult:
    """Find the member of the syndrome coset of h closest to the side information.

    Messages follow the tanh product rule on the check-slot view of h; a set
    syndrome bit flips the sign of its check's outgoing messages.  Channel
    LLRs, messages and posteriors are all kept at half their value, so the
    tanh takes them as they are and the clips are at LLR_CLIP/2.  Every
    value is exactly half of what the full-LLR formula gives: halving is
    exact, and so are sums and differences of doubles that are multiples
    of 2^-1073, subnormal results included.  Every iteration runs the one
    check pass, _slot_check_pass, zeros or not.  A zero message's sign may
    differ from the edge-list formula's, but no later value reads it: the
    variable sums are bincounts that start at +0.0, and the posterior is
    never -0.0 because the channel LLR is non-zero.  Every iteration also
    XOR-reduces the signs of the posterior gathered into the slots down
    each check and compares the parities with the syndrome; the first match
    returns early.  Without convergence the final hard decision comes back
    with converged=False.
    """
    if h.rows != syndrome.length:
        raise ShapeError(f"syndrome length {syndrome.length} != rows {h.rows}")
    if h.cols != side_info.length:
        raise ShapeError(f"side info length {side_info.length} != cols {h.cols}")
    edge_var = h.edges()[1]
    # check c's k-th edge sits in slot (k, c); empty slots name variable
    # h.cols, whose posterior is +inf, so that their messages stay +inf,
    # their tanh is exactly 1.0 and they never count as a negative sign
    slots, pos = h.slots()
    padding = h.slot_padding()
    syn = syndrome.to_array().astype(bool)
    half_llr0 = 0.5 * float(np.log((1.0 - params.crossover)
                                   / params.crossover))
    j_bits = side_info.to_array().astype(bool)
    channel = half_llr0 * (1.0 - 2.0 * j_bits)
    posterior = np.append(channel, np.inf)  # one past the end: empty slots
    var_posterior = posterior[:-1]
    clip = 0.5 * LLR_CLIP

    # iteration 0 tests the side information: the channel half-LLR is
    # negative exactly at its 1 bits, since half_llr0 > 0
    msg_vc = posterior[slots]
    if np.array_equal(np.logical_xor.reduce(msg_vc < 0.0, axis=0), syn):
        return DecodeResult(side_info, True, 0)

    msg_cv = np.empty_like(msg_vc)
    with np.errstate(divide="ignore"):
        for it in range(1, params.max_iter + 1):
            np.tanh(msg_vc, out=msg_vc)
            _slot_check_pass(msg_vc, syn, clip, msg_cv)
            np.add(channel, np.bincount(edge_var, weights=msg_cv.ravel()[pos],
                                        minlength=h.cols), out=var_posterior)
            msg_vc = posterior[slots]
            if np.array_equal(np.logical_xor.reduce(msg_vc < 0.0, axis=0),
                              syn):
                return DecodeResult(
                    BitVector.from_array(var_posterior < 0.0), True, it)
            msg_vc -= msg_cv
            np.clip(msg_vc, -clip, clip, out=msg_vc)
            msg_vc.ravel()[padding] = np.inf
    return DecodeResult(BitVector.from_array(var_posterior < 0.0), False,
                        params.max_iter)


def _lex_key(bits: int, length: int) -> tuple[int, ...]:
    """Lexicographic sort key, entry 0 first: the exhaustive searches' tie-break."""
    return tuple((bits >> i) & 1 for i in range(length))


def _coset_iter(h: BitMatrix, syndrome: BitVector):
    if h.rows != syndrome.length:
        raise ShapeError(f"syndrome length {syndrome.length} != rows {h.rows}")
    basis, _, null = _column_basis(h)
    if len(null) > COSET_ENUM_LIMIT:
        raise ValueError(
            f"coset has 2^{len(null)} members, beyond the 2^{COSET_ENUM_LIMIT} search limit")
    try:
        current = basis.solve(syndrome.bits)
    except ValueError:
        raise ValueError("empty coset: syndrome outside the row space image") from None
    yield current
    # Gray-code walk: one null-space XOR per member
    for k in range(1, 1 << len(null)):
        current ^= null[(k & -k).bit_length() - 1]
        yield current


def coset_members(h: BitMatrix, syndrome: BitVector) -> list[BitVector]:
    """All solutions of h x = syndrome, sorted lexicographically."""
    members = sorted(_coset_iter(h, syndrome), key=lambda b: _lex_key(b, h.cols))
    return [BitVector(h.cols, b) for b in members]


def coset_nearest(h: BitMatrix, syndrome: BitVector, target: BitVector
                  ) -> tuple[BitVector, int]:
    """Exact nearest coset member to target; ties pick the lexicographically
    smallest vector.  Returns (member, Hamming distance)."""
    if h.cols != target.length:
        raise ShapeError(f"target length {target.length} != cols {h.cols}")
    best_bits = None
    best_dist = None
    for cand in _coset_iter(h, syndrome):
        dist = (cand ^ target.bits).bit_count()
        if best_dist is None or dist < best_dist:
            best_bits, best_dist = cand, dist
        elif dist == best_dist and _lex_key(cand, h.cols) < _lex_key(best_bits, h.cols):
            best_bits = cand
    return BitVector(h.cols, best_bits), best_dist
