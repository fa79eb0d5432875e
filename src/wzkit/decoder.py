"""Syndrome-conditioned Sum-Product decoding and exact coset search."""

from __future__ import annotations

import math
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


@dataclass(frozen=True)
class SpParams:
    crossover: float
    max_iter: int = 100
    llr_clip: float = 30.0

    def __post_init__(self):
        _require_ints(self, "max_iter")
        if not 0.0 < self.crossover < 0.5:
            raise ValueError(f"crossover must lie in (0, 0.5), got {self.crossover}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")
        if not 0.0 < self.llr_clip < math.inf:
            raise ValueError("llr_clip must be finite and positive")


@dataclass(frozen=True)
class DecodeResult:
    bits: BitVector
    converged: bool
    iterations: int


def _check_product(theta: np.ndarray, edge_check: np.ndarray,
                   n_checks: int) -> np.ndarray:
    """Per-edge product of the other incoming values on the same check.

    The check update on an edge list, as bip_quantize runs it on its live
    subgraph; _slot_check_product is the same formula on sp_decode's padded
    check slots.  Edges may come in any order and a check may have none.  The
    result equals the plain log-magnitude leave-one-out product bit for bit:
    the sign is the parity of the check's integer count of negative inputs
    XOR the edge's own sign, with no float remainder, and the magnitude is
    exp(log_sum - log|theta|) with log_sum summed by bincount in edge order.
    Only when the input holds an exact zero (of either sign) do zeros count
    as log 1, and every edge that sees another zero on its check gets +0.0.
    """
    zero = theta == 0.0
    has_zero = bool(zero.any())
    safe = np.where(zero, 1.0, theta) if has_zero else theta
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
    if has_zero:
        zeros = np.bincount(edge_check, weights=zero, minlength=n_checks)
        prod[zeros[edge_check] - zero > 0] = 0.0
    return prod


def _slot_check_product(theta: np.ndarray) -> np.ndarray:
    """_check_product on the check-slot layout of BitMatrix.slots.

    theta is (slots x checks): column c holds check c's inputs in edge order,
    and its padding holds 1.0, which adds log 1 = +0.0 to the check's sum
    after its last edge and is never negative or zero.  The sum down each
    column runs in slot order, as bincount's does in edge order, so every
    real slot gets the value _check_product gives its edge, bit for bit.
    """
    zero = theta == 0.0
    has_zero = bool(zero.any())
    safe = np.where(zero, 1.0, theta) if has_zero else theta
    prod = np.log(np.abs(safe))
    log_sum = np.add.reduce(prod, axis=0)
    check_sign = 1.0 - 2.0 * np.logical_xor.reduce(theta < 0.0, axis=0)
    np.subtract(log_sum, prod, out=prod)
    np.exp(prod, out=prod)
    np.copysign(prod, safe, out=prod)
    prod *= check_sign
    if has_zero:
        prod[zero.sum(axis=0) - zero > 0] = 0.0
    return prod


def sp_decode(h: BitMatrix, syndrome: BitVector, side_info: BitVector,
              params: SpParams) -> DecodeResult:
    """Find the member of the syndrome coset of h closest to the side information.

    Messages follow the tanh product rule (_slot_check_product, on the
    check-slot view of h); a set syndrome bit flips the sign of its check's
    outgoing messages.  Hard decisions are re-checked against the syndrome
    every iteration by an integer parity count, and the first match returns
    early.  Without convergence the final hard decision comes back with
    converged=False.
    """
    if h.rows != syndrome.length:
        raise ShapeError(f"syndrome length {syndrome.length} != rows {h.rows}")
    if h.cols != side_info.length:
        raise ShapeError(f"side info length {side_info.length} != cols {h.cols}")
    edge_check, edge_var = h.edges()
    # check c's k-th edge sits in slot (k, c); empty slots name variable
    # h.cols, whose posterior is +inf, so that their messages stay +inf and
    # their tanh is exactly 1.0
    slots, pos = h.slots()
    empty = np.flatnonzero(slots.ravel() == h.cols)
    syn = syndrome.to_array().astype(np.int64)
    syn_scale = 2.0 - 4.0 * syn  # 2 artanh, sign set by syndrome
    llr0 = float(np.log((1.0 - params.crossover) / params.crossover))
    j_bits = side_info.to_array().astype(np.int64)
    channel = llr0 * (1.0 - 2.0 * j_bits)
    posterior = np.append(channel, np.inf)  # one past the end: empty slots
    var_posterior = posterior[:-1]
    lo, hi = -params.llr_clip, params.llr_clip

    # integer parity per check, updated through the variables that flipped
    parity = np.zeros(h.rows, dtype=np.int64)
    last = np.zeros(h.cols, dtype=bool)

    def syndrome_ok(bits: np.ndarray) -> bool:
        moved = bits != last
        if moved.any():
            flips = np.bincount(edge_check[np.flatnonzero(moved[edge_var])],
                                minlength=h.rows)
            np.bitwise_xor(parity, flips & 1, out=parity)
            last[:] = bits
        return bool(np.array_equal(parity, syn))

    if syndrome_ok(j_bits.astype(bool)):
        return DecodeResult(side_info, True, 0)

    msg_vc = posterior[slots]
    for it in range(1, params.max_iter + 1):
        t = np.tanh(msg_vc / 2.0)
        prod = _slot_check_product(t)
        np.clip(prod, -1.0 + 1e-15, 1.0 - 1e-15, out=prod)
        msg_cv = np.arctanh(prod, out=prod)
        msg_cv *= syn_scale
        np.clip(msg_cv, lo, hi, out=msg_cv)

        np.add(channel, np.bincount(edge_var, weights=msg_cv.ravel()[pos],
                                    minlength=h.cols), out=var_posterior)
        msg_vc = posterior[slots]
        msg_vc -= msg_cv
        np.clip(msg_vc, lo, hi, out=msg_vc)
        msg_vc.ravel()[empty] = np.inf

        hard = var_posterior < 0.0
        if syndrome_ok(hard):
            return DecodeResult(BitVector.from_array(hard), True, it)
    return DecodeResult(BitVector.from_array(hard), False, params.max_iter)


def _lex_key(bits: int, length: int) -> tuple[int, ...]:
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
