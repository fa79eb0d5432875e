"""Binary quantization onto a sparse generator's codebook via bias propagation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .decoder import _check_product, _lex_key
from .gf2 import BitMatrix, BitVector, ShapeError, _require_ints

__all__ = [
    "BipParams",
    "QuantizeResult",
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
    0.5 when the generator graph contains a 4-cycle and 0 otherwise.  An
    explicit gamma must be finite, positive and small enough that
    tanh(gamma) stays below 1 - 1e-15 (gamma below about 17.585; see
    _source_term).  Each decimation round restarts messages from their
    initial value with the fixed variables clamped.
    """

    gamma: float | None = None
    threshold: float = 0.8
    iters_per_round: int = 25
    damping: float | None = None

    def __post_init__(self):
        _require_ints(self, "iters_per_round")
        # nan fails every comparison, so test for the good range
        if self.gamma is not None:
            if not 0.0 < self.gamma < math.inf:
                raise ValueError("gamma must be finite and positive")
            _source_term(self.gamma)
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
    steps: int  # decimation steps in which the word had free variables
    fallback_fixes: int  # components fixed by their largest bias alone


def _source_term(gamma: float) -> float:
    """tanh(gamma), the magnitude of every check's source term.  A gamma
    whose tanh rounds to 1 - 1e-15 or above raises ValueError: at 1.0
    arctanh of a message is infinite, and the loop keeps no clip."""
    mag = float(np.tanh(gamma))
    if mag >= _SAT:
        raise ValueError(f"gamma {gamma} saturates the source term: "
                         f"tanh(gamma) must stay below 1 - 1e-15")
    return mag


def generator_codeword(g: BitMatrix, u: BitVector) -> BitVector:
    """Codeword u @ g: entry j is the parity of column j over u's rows."""
    if u.length != g.rows:
        raise ShapeError(f"u length {u.length} != generator rows {g.rows}")
    rows, cols = g.edges()
    hit = u.to_array().view(bool)[rows]
    return BitVector.from_array(np.bincount(cols[hit], minlength=g.cols) & 1)


def has_four_cycle(g: BitMatrix) -> bool:
    """True when two rows share two columns.  Row profiles whose pair count
    exceeds the enumeration budget are assumed cyclic (dense rows essentially
    guarantee a shared column pair)."""
    lengths = g.row_lengths()
    total_pairs = int((lengths * (lengths - 1) // 2).sum())
    if total_pairs > _FOUR_CYCLE_PAIR_BUDGET:
        return True
    flat = g.edges()[1]
    # pair every entry with each later entry of its row: entry e leads
    # `later[e]` pairs, whose second entries are e + 1, e + 2, ...
    later = np.repeat(np.cumsum(lengths), lengths) - np.arange(flat.size) - 1
    first = np.repeat(np.arange(flat.size), later)
    second = (first + 1 + np.arange(total_pairs)
              - np.repeat(np.cumsum(later) - later, later))
    keys = flat[first] * g.cols + flat[second]
    keys.sort()
    return bool(np.any(keys[1:] == keys[:-1]))


def _resolve(params: BipParams, g: BitMatrix) -> tuple[float, float]:
    gamma = params.gamma if params.gamma is not None else 2.0 * g.rows / g.cols
    if params.damping is not None:
        damping = params.damping
    else:
        damping = 0.5 if has_four_cycle(g) else 0.0
    return gamma, damping


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
    does not run round by round: each of its steps sweeps the live graph
    once and fires every component of it at once (see _decimate), which
    fixes the same bits in far fewer sweeps.  A check with one live edge,
    such as each private tail column of CompoundQuantizer.g_sub, sends
    that edge its source term in every sweep, so a step computes that
    message once and sweeps only the edges of shared checks.  Per word,
    steps counts the steps in which it had free variables and
    fallback_fixes the components that fixed their largest-bias variable
    because none cleared the threshold.

    A default gamma whose tanh reaches 1 - 1e-15 (a generator with about
    8.8 or more rows per column) raises ValueError, as BipParams does for
    an explicit one.
    """
    for source in sources:
        if source.length != g.cols:
            raise ShapeError(f"source length {source.length} != generator "
                             f"cols {g.cols}")
    if g.rows < 1:
        raise ShapeError("generator needs at least one row")
    gamma, damping = _resolve(params, g)
    src_mag = _source_term(gamma)
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
    that one variable.  So a step here sweeps the live graph once and fires
    every component at once: it fixes the component's variables over the
    threshold, or else its largest-bias variable (first index on ties), and
    the fixed bits are the round-by-round loop's.  Every step adds, per word
    that has free variables, one step and its fallback components.

    A check with one live edge sends that edge exactly its source term: in
    _check_product its log sum minus the edge's own log is +0.0, exp gives
    1.0, the check's sign parity is the edge's own sign, and an exact zero
    counts as log 1 and is no other zero on the check.  So each step takes
    the arctanh of those messages once; the iters_per_round sweeps run the
    check update, the source term and the theta update on the edges of
    shared checks only, and a step without a shared check runs none.  Every variable sum is still one bincount over
    all live edges in edge order, so the bits, steps and fallback fixes
    are those of sweeping every live edge.  Such checks link no two
    variables, so the components come from the shared edges alone.
    """
    words, n_var, n_chk = len(sources), g.rows, g.cols
    n_vars, n_chks = words * n_var, words * n_chk
    # word w owns variables w*n_var.. and checks w*n_chk.., in word order
    ev, ec = g.edges()
    shift = np.arange(words, dtype=np.int64)[:, None]
    edge_var = (ev + shift * n_var).ravel()
    edge_check = (ec + shift * n_chk).ravel()

    s_arr = np.concatenate([s.to_array() for s in sources])
    sign_eff = 1.0 - 2.0 * s_arr.astype(np.float64)
    fixed = np.full(n_vars, -1, dtype=np.int64)  # -1 unfixed, else 0/1
    steps = np.zeros(words, dtype=np.int64)
    fallback_fixes = np.zeros(words, dtype=np.int64)

    while True:
        unfixed = fixed < 0
        free = np.flatnonzero(unfixed)
        if not free.size:
            break
        # the free variables, numbered 0.. in order: every sum's bin keeps its
        # addends in order, and a variable without edges gets bias tanh(0) = 0
        sweep_var = (np.cumsum(unfixed) - 1)[edge_var]
        # a check with one live edge sends it its source term in every sweep,
        # so only the edges of shared checks are swept
        alone = np.bincount(edge_check, minlength=n_chks)[edge_check] == 1
        shared = np.flatnonzero(~alone)
        chk_live, sh_check = _renumber(edge_check[shared], n_chks)
        n_sh_chk = np.count_nonzero(chk_live)
        sh_var = sweep_var[shared]
        bias_sum = np.zeros(free.size, dtype=np.float64)
        if edge_var.size:
            # every live edge's message in the arctanh domain; those of
            # checks with one edge are final.  |theta| <= 1, so the float
            # sum of a check's logs is at most any one of them, every
            # leave-one-out magnitude is at most 1 and |phi| <= src_mag,
            # which _source_term keeps below 1: every arctanh is finite
            w = src_mag * sign_eff[edge_check]
            src_term = w[shared]
            np.arctanh(w, out=w)
            if not n_sh_chk:
                # the iters_per_round sweeps would all be this one
                bias_sum = np.bincount(sweep_var, weights=w,
                                       minlength=free.size)
            theta = np.ones(shared.size)
            for _ in range(params.iters_per_round if n_sh_chk else 0):
                # check pass: leave-one-out product of theta times the source term
                phi = _check_product(theta, sh_check, n_sh_chk)
                phi *= src_term

                # variable pass in the arctanh domain
                w[shared] = np.arctanh(phi, out=phi)
                bias_sum = np.bincount(sweep_var, weights=w,
                                       minlength=free.size)
                theta_new = np.tanh(bias_sum[sh_var] - phi)
                theta = damping * theta + (1.0 - damping) * theta_new
        bias = np.tanh(bias_sum)

        root = _component_roots(sh_var, sh_check, free.size, n_sh_chk)
        over, fallback = _pick(root, bias, params.threshold)
        pick = np.flatnonzero(over | fallback)
        fixed[free[pick]] = (bias[pick] < 0.0).astype(np.int64)
        word_of = free // n_var
        steps += np.bincount(word_of, minlength=words) > 0
        fallback_fixes += np.bincount(word_of[fallback], minlength=words)

        # fold fixed ones into the source signs and drop the settled edges
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


def _pick(root: np.ndarray, bias: np.ndarray, threshold: float
          ) -> tuple[np.ndarray, np.ndarray]:
    """The variables that a step fixes, as two masks over the free ones:
    over, those beyond the threshold, and fallback, in each component with
    none, the first of largest |bias|.  root is _component_roots' and
    doubles as the component's index."""
    at = np.arange(root.size)
    mag = np.abs(bias)
    over = mag > threshold
    top = np.zeros(root.size, dtype=np.float64)
    np.maximum.at(top, root, mag)
    at_top = np.flatnonzero(mag == top[root])
    first = np.full(root.size, root.size, dtype=np.int64)
    np.minimum.at(first, root[at_top], at_top)
    thr = np.zeros(root.size, dtype=bool)
    thr[root[over]] = True
    return over, ~thr[root] & (first[root] == at)


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
    best_u, best_d = 0, (src).bit_count()
    word = 0
    u_bits = 0
    # Gray-code walk: one row XOR per candidate
    for k in range(1, 1 << g.rows):
        flip = (k & -k).bit_length() - 1
        u_bits ^= 1 << flip
        word ^= rows[flip]
        d = (word ^ src).bit_count()
        if d < best_d or (d == best_d and _lex_key(u_bits, g.rows)
                          < _lex_key(best_u, g.rows)):
            best_u, best_d = u_bits, d
    return BitVector(g.rows, best_u), best_d / g.cols
