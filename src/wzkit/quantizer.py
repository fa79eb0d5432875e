"""Binary quantization onto a sparse generator's codebook via bias propagation."""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decoder import _check_product
from .gf2 import BitMatrix, BitVector, ShapeError, _require_ints

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
    variables clamped.
    """

    gamma: float | None = None
    threshold: float = 0.8
    iters_per_round: int = 25
    damping: float | None = None

    def __post_init__(self):
        _require_ints(self, "iters_per_round")
        # nan fails every comparison, so test for the good range
        if self.gamma is not None and not 0.0 < self.gamma < math.inf:
            raise ValueError("gamma must be finite and positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        if self.iters_per_round < 1:
            raise ValueError("iters_per_round must be >= 1")
        if self.damping is not None and not 0.0 <= self.damping < 1.0:
            raise ValueError("damping must lie in [0, 1)")


@dataclass(frozen=True)
class QuantizeResult:
    u: BitVector
    codeword: BitVector  # u @ g
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
    result is bit-identical to quantizing its source by itself.  The loop
    does not run round by round: each of its steps sweeps every live edge
    once and fires every component of the live graph at once (see
    _decimate), which fixes the same bits in far fewer sweeps.  rounds and
    conflict_events are still those of the round-by-round loop, replayed per
    word from the log of fired components.
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

    Each component of a word's live graph evolves on its own: its messages
    restart at ones every round and every sum runs per check or variable
    inside it, so its biases change only when one of its own variables is
    fixed.  In the round-by-round loop a component with a variable over the
    threshold fixes all of them in the next round; any other waits, biases
    unchanged, until its largest-bias variable is the word's, and then fixes
    that one variable.  So a step here sweeps every live edge once and fires
    every component at once: it fixes the component's variables over the
    threshold, or else its largest-bias variable (first index on ties).  The
    fixed bits are the round-by-round loop's; its per-word rounds and
    conflict events are replayed from the log of fired components (_Replay).
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
    replay = _Replay(words, n_var)

    while True:
        unfixed = fixed < 0
        free = np.flatnonzero(unfixed)
        if not free.size:
            break
        # the free variables and the live checks, numbered 0.. in order: every
        # sum's bin keeps its addends in order, and a variable without edges
        # gets bias tanh(0) = 0 and no clashes
        sweep_var = (np.cumsum(unfixed) - 1)[edge_var]
        chk_live, sweep_check = _renumber(edge_check, n_chks)
        n_live_chk = np.count_nonzero(chk_live)
        bias_sum = np.zeros(free.size, dtype=np.float64)
        clash = np.zeros(free.size, dtype=np.int64)
        if edge_var.size:
            theta = np.ones(edge_var.size)
            src_term = src_mag * sign_eff[edge_check]
            for _ in range(params.iters_per_round):
                # check pass: leave-one-out product of theta times the source term
                phi = _check_product(theta, sweep_check, n_live_chk)
                phi *= src_term

                # variable pass in the arctanh domain
                if saturates:
                    sat_pos = phi >= _SAT
                    sat_neg = phi <= -_SAT
                    if sat_pos.any() and sat_neg.any():
                        clash += (
                            (np.bincount(sweep_var[sat_pos],
                                         minlength=free.size) > 0)
                            & (np.bincount(sweep_var[sat_neg],
                                           minlength=free.size) > 0))
                    # clip to +-_SAT in place (np.clip costs more on short
                    # arrays)
                    np.minimum(np.maximum(phi, -_SAT, out=phi), _SAT, out=phi)
                w = np.arctanh(phi, out=phi)
                bias_sum = np.bincount(sweep_var, weights=w,
                                       minlength=free.size)
                theta_new = np.tanh(bias_sum[sweep_var] - w)
                theta = damping * theta + (1.0 - damping) * theta_new
        bias = np.tanh(bias_sum)

        root = _component_roots(sweep_var, sweep_check, free.size, n_live_chk)
        pick = replay.fire(free, root, bias, clash, params.threshold)
        fixed[free[pick]] = (bias[pick] < 0.0).astype(np.int64)

        # fold fixed ones into the source signs and drop the settled edges
        on_fixed = fixed[edge_var] >= 0
        ones_edges = edge_check[on_fixed & (fixed[edge_var] == 1)]
        flips = np.bincount(ones_edges, minlength=n_chks) % 2
        sign_eff *= 1.0 - 2.0 * flips
        keep = ~on_fixed
        edge_var, edge_check = edge_var[keep], edge_check[keep]

    rounds, conflicts = replay.counts()
    results = []
    for k, source in enumerate(sources):
        u = BitVector.from_array(fixed[k * n_var:(k + 1) * n_var])
        word = generator_codeword(g, u)
        results.append(QuantizeResult(u, word, word.hamming(source) / g.cols,
                                      rounds[k], conflicts[k]))
    return results


class _Replay:
    """The log of the components that _decimate fires, and the round-by-round
    loop's per-word rounds and conflict events replayed from it.

    Each fired component of the live graph in one step is a node.  It is a
    threshold node when some of its variables are over the threshold, and
    otherwise a waiting node keyed by its largest |bias| and the first
    variable that has it.  Its parent is the node that held its variables in
    the step before, and its clash sum is the conflict events it adds in
    every round that it is alive.

    A round of the round-by-round loop fires every live threshold node of the
    word or, when there is none, its live waiting node of largest key (lowest
    variable on ties), and replaces what it fired by the children.  So a
    threshold node lives one round, a fired node is followed by as many
    threshold rounds as the longest chain of threshold nodes below it, and
    only the order of the waiting nodes needs a heap: one push and one pop
    per waiting node, in Python, while everything else is numpy.
    """

    def __init__(self, words: int, n_var: int):
        self.words, self.n_var = words, n_var
        # the node that last held each variable
        self.node_of = np.full(words * n_var, -1, dtype=np.int64)
        self.size = 0
        self.steps: list[tuple[np.ndarray, ...]] = []

    def fire(self, free: np.ndarray, root: np.ndarray, bias: np.ndarray,
             clash: np.ndarray, threshold: float) -> np.ndarray:
        """Log a node for every component of the free variables and return
        the positions in free of the variables that the step fixes.

        root gives, per free variable, the position of its component's first
        member; bias and clash are per free variable.
        """
        at = np.arange(free.size)
        rank = np.cumsum(root == at) - 1
        group = rank[root]
        n_groups = int(rank[-1]) + 1
        mag = np.abs(bias)
        over = mag > threshold
        top = np.zeros(n_groups, dtype=np.float64)
        np.maximum.at(top, group, mag)
        at_top = np.flatnonzero(mag == top[group])
        first = np.full(n_groups, free.size, dtype=np.int64)
        np.minimum.at(first, group[at_top], at_top)
        thr = np.zeros(n_groups, dtype=bool)
        thr[group[over]] = True
        lead = free[first]
        self.steps.append((lead // self.n_var, thr, top, lead,
                           np.bincount(group, weights=clash,
                                       minlength=n_groups).astype(np.int64),
                           self.node_of[lead]))
        self.node_of[free] = self.size + group
        self.size += n_groups
        return np.flatnonzero(over | (~thr[group] & (first[group] == at)))

    def counts(self) -> tuple[list[int], list[int]]:
        """Rounds and conflict events of every word."""
        words = self.words
        word, thr, top, lead, clash, parent = (
            np.concatenate(column) for column in zip(*self.steps))
        offsets = np.cumsum([0] + [part[0].size for part in self.steps])
        step = np.repeat(np.arange(len(self.steps)), np.diff(offsets))
        # below: rounds of threshold nodes that follow a node's firing, the
        # longest chain of them; bottom up, one step at a time
        below = np.zeros(word.size, dtype=np.int64)
        for lo, hi in zip(offsets[-2:0:-1], offsets[:0:-1]):
            kids = lo + np.flatnonzero(thr[lo:hi])
            np.maximum.at(below, parent[kids], below[kids] + 1)
        # the threshold rounds that open each word
        start = np.zeros(words, dtype=np.int64)
        roots = np.flatnonzero(thr[:offsets[1]])
        np.maximum.at(start, word[roots], below[roots] + 1)
        # every node's nearest waiting ancestor (-1 for none), top down
        anc = np.full(word.size, -1, dtype=np.int64)
        for lo, hi in zip(offsets[1:-1], offsets[2:]):
            up = parent[lo:hi]
            anc[lo:hi] = np.where(thr[up], anc[up], up)

        # from here on, only the waiting nodes, numbered 0.. in node order
        waiting = np.flatnonzero(~thr)
        index = np.full(word.size + 1, -1, dtype=np.int64)
        index[waiting] = np.arange(waiting.size)
        anc = index[anc[waiting]]  # anc -1 picks index[-1] == -1
        # a waiting node enters the heap when its nearest waiting ancestor
        # fires, or at the start
        order = np.argsort(anc, kind="stable")
        bounds = np.searchsorted(anc[order], np.arange(-1, waiting.size + 1))
        enters, lo_of, hi_of = order.tolist(), bounds[1:-1].tolist(), \
            bounds[2:].tolist()
        key = list(zip((-top[waiting]).tolist(), lead[waiting].tolist(),
                       range(waiting.size)))
        after = (below[waiting] + 1).tolist()
        heaps: list[list] = [[] for _ in range(words)]
        top_level = order[:bounds[1]]
        for x, w in zip(top_level.tolist(), word[waiting[top_level]].tolist()):
            heaps[w].append(key[x])
        fired = [0] * waiting.size
        rounds = start.tolist()
        for w, heap in enumerate(heaps):
            heapq.heapify(heap)
            now = rounds[w]
            while heap:
                x = heapq.heappop(heap)[2]
                fired[x] = now + 1
                now += after[x]
                for c in enters[lo_of[x]:hi_of[x]]:
                    heapq.heappush(heap, key[c])
            rounds[w] = now

        # a waiting node is alive from the round after its parent fires
        fired = np.array(fired, dtype=np.int64)
        step = step[waiting]
        has = anc >= 0
        born = step + 1
        born[has] = fired[anc[has]] + step[has] - step[anc[has]]
        lives = np.ones(word.size, dtype=np.int64)
        lives[waiting] = fired - born + 1
        conflicts = np.bincount(word, weights=clash * lives, minlength=words)
        return rounds, conflicts.astype(np.int64).tolist()


def _component_roots(edge_var: np.ndarray, edge_check: np.ndarray,
                     n_vars: int, n_chks: int) -> np.ndarray:
    """Least variable of every variable's component in the bipartite graph
    of the given edges; a variable without edges is its own.  Each pass
    hooks every variable's root to the least root on its checks, then
    follows the roots up to the top."""
    root = np.arange(n_vars)
    while edge_var.size:
        low = np.full(n_chks, n_vars)
        np.minimum.at(low, edge_check, root[edge_var])
        hooked = root.copy()
        np.minimum.at(hooked, root[edge_var], low[edge_check])
        while True:
            up = hooked[hooked]
            if np.array_equal(up, hooked):
                break
            hooked = up
        if np.array_equal(hooked, root):
            break
        root = hooked
    return root


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
