"""Construction of the nested code pair: outer parity checks plus sparse generator.

The outer parity-check matrix is built in halves: a progressive-edge-growth
matrix A realizes a degree profile at half the target shape, gets permuted to
carry an all-one diagonal, and is mirrored into [[I, A0], [A0, I]] with A0 the
off-diagonal part of A.  The top slice of the result checks the quantization
code; its null space has a systematic generator read straight off that slice.
A CompoundCode quantizes (CompoundQuantizer), forms its syndrome and decodes.
"""

from __future__ import annotations

import json
import random
from dataclasses import InitVar, asdict, dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .decoder import DecodeResult, SpParams, sp_decode
from .degrees import DegreeDistribution
from .gf2 import (BitMatrix, BitVector, RankDeficiencyError, ShapeError,
                  _require_int, mul_vec, permute, read_matrix, transpose,
                  write_matrix)
from .quantizer import BipParams, QuantizeResult, _resolve, bip_quantize_all

__all__ = [
    "CodeParams",
    "ParamCheck",
    "ValidationReport",
    "ParamValidationError",
    "CompoundCode",
    "CompoundQuantizer",
    "validate_params",
    "peg_generate",
    "empirical_fractions",
    "hopcroft_karp",
    "all_one_diagonalize",
    "assemble_compound",
    "build_compound_code",
    "save_code",
    "load_code",
]

PEG_REPAIR_ATTEMPTS = 10
BFS_DEPTH_CAP = 12
# a BFS level walks adjacency lists when its wave size times the check
# table's height (the largest capacity, doubled per widening) times the
# variable's degree, a bound on the edges it can touch, is at most this;
# wider levels run on numpy masks over the table's rows filled so far
PEG_LIST_LEVEL_EDGES = 512
# settings that shape no code; older inputs that carry them still load
RETIRED_PARAMS = ("zeta", "poisson_lam", "poisson_imax")


@dataclass(frozen=True)
class CodeParams:
    """Block geometry of one compound code instance.

    n is the outer length, m the inner length, k1/k2 the two nesting
    surpluses, each kept as a Python int.  The RETIRED_PARAMS keywords are
    accepted and discarded.
    """

    n: int
    m: int
    k1: int
    k2: int
    zeta: InitVar[int | None] = None
    poisson_lam: InitVar[float | None] = None
    poisson_imax: InitVar[int | None] = None

    def __post_init__(self, *retired):
        for name in ("n", "m", "k1", "k2"):
            value = getattr(self, name)
            _require_int(name, value)
            if value < 1:
                raise ValueError(f"{name} must be >= 1")
            object.__setattr__(self, name, int(value))
        if self.m - self.k1 < 1:
            raise ValueError("m - k1 must be >= 1")
        if self.n - self.m + self.k1 < 1:
            raise ValueError("n - m + k1 must be >= 1")

    @property
    def outer_checks(self) -> int:
        return self.n - self.m + self.k1 + self.k2

    @property
    def info_rows(self) -> int:          # generator rows
        return self.m - self.k1

    @property
    def quant_checks(self) -> int:       # rows of the top slice
        return self.n - self.m + self.k1

    @property
    def mid_width(self) -> int:          # the free middle block's columns
        return self.info_rows - self.n // 2

    @property
    def half_rows(self) -> int:
        return self.outer_checks // 2

    @property
    def half_cols(self) -> int:
        return self.n // 2

    @property
    def rates(self) -> tuple[float, float, float]:
        r1 = self.info_rows / self.n
        r2 = (self.m - self.k1 - self.k2) / self.n
        return r1, r2, self.k2 / self.n


@dataclass(frozen=True)
class ParamCheck:
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[ParamCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[ParamCheck]:
        return [c for c in self.checks if not c.ok]


class ParamValidationError(ValueError):
    def __init__(self, report: ValidationReport):
        names = ", ".join(c.name for c in report.failures())
        super().__init__(f"parameter validation failed: {names}")
        self.report = report


def validate_params(p: CodeParams) -> ValidationReport:
    """Every structural inequality the mirrored construction relies on."""
    checks = [
        ParamCheck("n_even", p.n % 2 == 0, f"n={p.n}"),
        ParamCheck("outer_checks_even", p.outer_checks % 2 == 0,
                   f"n-m+k1+k2={p.outer_checks}"),
        ParamCheck("syndrome_capacity", p.n - p.k2 <= p.m - p.k1,
                   f"n-k2={p.n - p.k2} vs m-k1={p.m - p.k1}"),
        ParamCheck("rate_window_low", p.k1 + p.k2 <= p.m,
                   f"k1+k2={p.k1 + p.k2} vs m={p.m}"),
        ParamCheck("rate_window_high", p.m <= 2 * p.k1 + p.k2,
                   f"m={p.m} vs 2k1+k2={2 * p.k1 + p.k2}"),
    ]
    return ValidationReport(tuple(checks))


def _largest_remainder(weights: list[float], total: int) -> list[int]:
    """Integer split of `total` proportional to weights (largest remainder)."""
    raw = [w * total for w in weights]
    counts = [int(x) for x in raw]
    short = total - sum(counts)
    order = sorted(range(len(raw)), key=lambda i: (raw[i] - counts[i], -i), reverse=True)
    for i in order[:short]:
        counts[i] += 1
    return counts


def _node_degree_sequence(terms, n_nodes: int) -> list[int]:
    """Node counts per degree for one side of the profile, summing to n_nodes."""
    weights = [f / d for d, f in terms]
    scale = sum(weights)
    counts = _largest_remainder([w / scale for w in weights], n_nodes)
    seq = []
    for (d, _), c in zip(terms, counts):
        seq.extend([d] * c)
    return seq


def _check_degree_sequence(terms, n_checks: int, n_edges: int) -> list[int]:
    """Check-side degrees: n_checks nodes whose degrees sum to exactly n_edges.

    Starts from the profile proportions and moves checks between listed degree
    buckets to absorb rounding; a single off-profile check absorbs any remainder
    a one-bucket profile cannot, or that the moves leave when they return to a
    split they have been at.
    """
    degrees = [d for d, _ in terms]
    weights = [f / d for d, f in terms]
    scale = sum(weights)
    counts = _largest_remainder([w / scale for w in weights], n_checks)
    diff = n_edges - sum(d * c for d, c in zip(degrees, counts))
    seen = set()        # the counts fix diff; degree gaps make moves cycle
    while diff != 0 and len(degrees) > 1 and tuple(counts) not in seen:
        seen.add(tuple(counts))
        # one check a bucket up (diff > 0) from the lowest non-empty bucket,
        # or a bucket down from the highest
        step = 1 if diff > 0 else -1
        last = len(degrees) - 1
        order = range(last) if step > 0 else range(last, 0, -1)
        i = next((i for i in order if counts[i] > 0), None)
        if i is None:
            break
        counts[i] -= 1
        counts[i + step] += 1
        diff -= degrees[i + step] - degrees[i]
    seq = []
    for d, c in zip(degrees, counts):
        seq.extend([d] * c)
    if diff > 0:
        seq.append(diff)  # one off-profile check absorbs the remainder
    elif diff < 0:
        for i in range(len(seq)):
            if seq[i] + diff >= 1:
                seq[i] += diff
                diff = 0
                break
        if diff:
            raise ValueError(f"cannot realize check degrees: residual {diff} edges")
    return seq


def _degree_sequences(n_checks: int, n_vars: int, dist: DegreeDistribution
                      ) -> tuple[list[int], list[int]]:
    """The variable and check degrees PEG grows: n_vars variables, and the
    checks the profile implies but at least n_checks, sharing one edge count;
    an off-profile remainder check may add one more.  ValueError when the
    check side cannot take the edges, or a variable's edges need more
    distinct checks than there are."""
    var_degs = _node_degree_sequence(dist.lambda_terms, n_vars)
    n_edges = sum(var_degs)
    design_checks = round(n_edges * sum(f / d for d, f in dist.rho_terms))
    chk_degs = _check_degree_sequence(dist.rho_terms,
                                      max(design_checks, n_checks), n_edges)
    widest = max(var_degs, default=0)
    if widest > len(chk_degs):
        raise ValueError(f"a degree-{widest} variable needs {widest} distinct "
                         f"checks but only {len(chk_degs)} exist")
    return var_degs, chk_degs


def _check_build(params: CodeParams, dist: DegreeDistribution
                 ) -> ValidationReport:
    """validate_params(params), and once that passes, profile_fit: whether
    dist's degree sequences exist at the half matrix's shape, computed as
    peg_generate computes them before growth.  A failing profile_fit joins
    the report; a passing one is left out."""
    report = validate_params(params)
    if report.ok:
        try:
            _degree_sequences(params.half_rows, params.half_cols, dist)
        except ValueError as e:
            fit = ParamCheck("profile_fit", False, str(e))
            report = ValidationReport(report.checks + (fit,))
    return report


@dataclass(frozen=True)
class PegCounts:
    """What one PEG growth did besides placing edges by the plain rule.

    spills: edges placed on a check already at capacity, because every
    check the variable was not yet joined to was full.  Each edge after a
    variable's first exits as a BFS from the variable's checks would stop:
    on seeing every pool check (pool_exits), else after BFS_DEPTH_CAP
    levels (depth_cap_exits), else on an empty wave (empty_wave_exits).
    trimmed_rows: checks dropped after growth.  widenings: doublings of the
    check-to-variable table, each caused by a spill past the widest capacity.
    """

    spills: int
    pool_exits: int
    depth_cap_exits: int
    empty_wave_exits: int
    trimmed_rows: int
    widenings: int


def peg_generate(n_checks: int, n_vars: int, dist: DegreeDistribution,
                 seed: int) -> BitMatrix:
    """Progressive edge growth realizing `dist` at n_checks x n_vars.

    The graph is grown at the check count the profile implies and randomly
    trimmed down to n_checks afterwards (requesting more checks than the
    profile implies instead skews the check-degree fractions).  Each edge of a
    variable lands on the most distant under-capacity check, measured by
    breadth-first expansion of the current graph; the lowest current degree and
    then the lowest index break ties.  Dependent rows are replaced by fresh
    randomly placed rows of the same degree, at most PEG_REPAIR_ATTEMPTS
    passes, so the result has full row rank.  Each pass reads the dependent
    rows off the candidate matrix's cached row elimination
    (BitMatrix.echelon()), and the result comes with the last pass's view
    cached, so that all_one_diagonalize does not eliminate it again.  Empirical edge fractions track
    the profile to within a couple percent whenever the requested shape is
    near the profile's own check-to-variable ratio.

    The graph grows twice per placed edge: in Python adjacency lists, and in
    a table with one column of variables per check, padded with a sentinel
    variable.  While a variable is placed, the rest of the graph does not
    change, so the BFS distance of a check from the variable's checks is the
    least of its distances from each of them.  One uint8 array holds an
    upper bound on that distance for every check (Ramalingam & Reps, J.
    Algorithms 1996).  The second edge, and the edge on which a variable
    first spills, run a BFS from all of the variable's checks.  Every later
    edge relaxes the array from the one check added last: a level lowers
    only bounds above it, and only the checks it lowered make the next
    wave.  Either kind of run stops once no pool check's bound can drop,
    or after BFS_DEPTH_CAP levels, or on an empty wave.  So the bounds are
    exact on every pool check, and exact up to BFS_DEPTH_CAP on every check
    until the variable's first pool exit; the pool only shrinks between
    spills.  The exit and the candidates are read off the array: a pool
    exit at the pool's largest distance D, with the pool checks at D, when
    D is within the cap; else the pool checks beyond the cap, after a
    depth-cap exit if some check sits at BFS_DEPTH_CAP - 1 and an
    empty-wave exit if none does.  These are the exits and candidates of a
    new BFS per edge that stops when it has seen every pool check.

    Both kinds of run share one level routine, `_peg_level`, with two
    paths chosen per level.  When the wave size times the table's height
    times the variable's degree, a bound on the edges the level can touch
    (variables are placed in ascending degree), is at most
    PEG_LIST_LEVEL_EDGES, the level walks the lists of the wave's checks and
    of the variables it reaches.  Otherwise it runs on numpy masks: it
    gathers the wave checks' table columns into a cleared mask, keeps the
    variables not seen before, then marks every check whose column holds
    one of them and whose bound is above the level.  That level reads the
    table's rows filled so far, one gather over every check ORed down those
    rows, so it costs O(checks x the widest check's current degree)
    whatever the wave.  The growth keeps that degree, raising it on the
    placement or spill that makes a check wider than all others; the rows
    past it hold only the sentinel, which every run has seen.  Both paths
    read and write one set of bounds, pool flags and seen flags, bytearrays
    that numpy views in place, so a run may switch paths between levels and
    gives the same bounds either way.  A count of the pool checks at each
    bound tells when none can drop.  The under-capacity mask is updated per
    placed edge.  `_peg_grow` also returns the growth's PegCounts.
    """
    return _peg_grow(n_checks, n_vars, dist, seed)[0]


def _peg_level(wave, level: int, max_wave: int, graph, marks,
               hist: list[int]):
    """Run one level of a PEG check-distance BFS and return its wave.

    wave holds the checks this run has just set to level - 1 (for level 1,
    the run's sources).  The level reaches their variables not seen yet in
    this run, then sets every check of those
    variables whose distance bound is above level to level, and returns the
    checks it set.  graph is (chk_vars, var_checks, filled), filled being
    the rows of the check table up to the widest check's degree.  marks is
    (dist_b, pool_b, seen_v_b): bytearrays of the checks' bounds, of the
    pool, and of the variables seen; then (dist, pool, seen_v), numpy views
    of them; then new_v, a scratch mask over the variables and the sentinel.
    hist counts the pool checks at each bound and is kept current.  When
    len(wave) <= max_wave, the level walks the adjacency lists.  Otherwise
    it runs on numpy masks and reads every column of filled once.
    """
    chk_vars, var_checks, filled = graph
    dist_b, pool_b, seen_v_b, dist, pool, seen_v, new_v = marks
    if len(wave) <= max_wave:
        # few edges: walk the wave's lists
        vs = []
        for c in wave:
            for u in chk_vars[c]:
                if not seen_v_b[u]:
                    seen_v_b[u] = 1
                    vs.append(u)
        wave = []
        for u in vs:
            for c in var_checks[u]:
                d = dist_b[c]
                if d > level:
                    dist_b[c] = level
                    wave.append(c)
                    if pool_b[c]:
                        hist[d] -= 1
                        hist[level] += 1
        return wave
    # many edges: masks over every variable and check; the rows past the
    # widest check hold only the sentinel, which every run has seen
    new_v.fill(False)
    new_v[filled.take(wave, axis=1)] = True
    np.greater(new_v, seen_v, out=new_v)
    seen_v |= new_v
    new_c = np.logical_or.reduce(new_v.take(filled))
    new_c &= dist > level
    wave = new_c.nonzero()[0]
    dropped = dist[wave[pool[wave]]]
    if len(dropped):
        for d, n in enumerate(np.bincount(dropped).tolist()):
            hist[d] -= n
        hist[level] += len(dropped)
    dist[wave] = level
    return wave


def _peg_grow(n_checks: int, n_vars: int, dist: DegreeDistribution,
              seed: int) -> tuple[BitMatrix, PegCounts]:
    """peg_generate's matrix and the PegCounts of its growth."""
    rng = random.Random(seed)
    var_degs, chk_degs = _degree_sequences(n_checks, n_vars, dist)
    gen_checks = len(chk_degs)

    rng.shuffle(var_degs)
    rng.shuffle(chk_degs)
    deg = np.zeros(gen_checks, dtype=np.int64)
    under = deg < chk_degs           # deg < capacity, kept per placed edge
    n_under = int(np.count_nonzero(under))
    # each check's variables as a list and as a column of a table padded with
    # the sentinel variable n_vars (widened when a spill outgrows it), and
    # each variable's checks as a list; levels read the table's rows up to
    # the widest check's degree
    order = sorted(range(n_vars), key=lambda v: (var_degs[v], v))
    chk_adj = np.full((max(chk_degs), gen_checks), n_vars, dtype=np.int64)
    widest = 0
    chk_vars = [[] for _ in range(gen_checks)]
    var_checks = [[] for _ in range(n_vars)]
    graph = chk_vars, var_checks, chk_adj[:widest]
    # each check's distance bound from the variable's checks (far: beyond
    # the cap), the variable's candidate checks, and the variables a BFS
    # has seen; bytearrays that numpy views in place
    far = BFS_DEPTH_CAP + 1
    dist_b, pool_b = bytearray(gen_checks), bytearray(gen_checks)
    seen_v_b = bytearray(n_vars + 1)
    dist_c = np.frombuffer(dist_b, dtype=np.uint8)
    pool = np.frombuffer(pool_b, dtype=bool)
    seen_v = np.frombuffer(seen_v_b, dtype=bool)
    marks = (dist_b, pool_b, seen_v_b, dist_c, pool, seen_v,
             np.empty(n_vars + 1, dtype=bool))
    cand = np.empty(gen_checks, dtype=bool)
    hist = [0] * (far + 1)           # pool checks at each bound
    spills = pool_exits = depth_caps = empty_waves = widenings = 0
    for v in order:
        # a level walks lists when len(wave) * the table's height *
        # var_degs[v] <= PEG_LIST_LEVEL_EDGES, that is when len(wave) <=
        # budget // the table's height
        budget = PEG_LIST_LEVEL_EDGES // var_degs[v]
        own = var_checks[v]
        # the pool is the under-capacity checks v is not joined to; each
        # placed edge takes its check out
        np.copyto(pool, under)
        n_left = n_under
        spilled = False
        for k in range(var_degs[v]):
            # capacities are a soft preference: when every non-neighbor is
            # already full, spill onto the least-loaded one instead of
            # failing; the pool then stays every non-neighbor
            fresh = k == 1
            if spilled or not n_left:
                spills += 1
                if not spilled:
                    spilled = fresh = True
                    pool.fill(True)
                    pool[own] = False
                    n_left = gen_checks - len(own)
            if not k:
                cs = pool.nonzero()[0]
            else:
                seen_v.fill(False)
                seen_v_b[v] = seen_v_b[n_vars] = 1
                if fresh:
                    # BFS out of all of v's checks
                    dist_c.fill(far)
                    for c in own:
                        dist_b[c] = 0
                    wave = own
                    hist[:] = [0] * far + [n_left]
                    top = far
                else:
                    # the bounds hold for v's older checks: relax them from
                    # the newest one, which left the pool when it was placed
                    c = own[-1]
                    dist_b[c] = 0
                    wave = [c]
                    while not hist[top]:
                        top -= 1
                # level L can only lower bounds above L, so the levels stop
                # once no pool check is farther than the next level
                max_wave = budget // len(chk_adj)
                level = 0
                while len(wave) and level < BFS_DEPTH_CAP and top > level + 1:
                    level += 1
                    wave = _peg_level(wave, level, max_wave, graph, marks,
                                      hist)
                    while not hist[top]:
                        top -= 1
                if top < far:
                    # every pool check within the cap: the farthest ones
                    pool_exits += 1
                    np.equal(dist_c, top, out=cand)
                else:
                    # the pool checks beyond the cap; a BFS would have run
                    # BFS_DEPTH_CAP levels if any check sits one level short
                    if (dist_c == BFS_DEPTH_CAP - 1).any():
                        depth_caps += 1
                    else:
                        empty_waves += 1
                    np.equal(dist_c, far, out=cand)
                cand &= pool
                cs = cand.nonzero()[0]
            # lowest current degree, lowest index on ties
            c = int(cs[deg[cs].argmin()])
            if k:
                hist[dist_b[c]] -= 1
            pool_b[c] = 0
            n_left -= 1
            d = int(deg[c])
            if d == len(chk_adj):
                widenings += 1
                chk_adj = np.pad(chk_adj, ((0, d), (0, 0)),
                                 constant_values=n_vars)
            chk_adj[d, c] = v
            chk_vars[c].append(v)
            own.append(c)
            deg[c] = d + 1
            if d == widest:          # c is now the widest check
                widest += 1
                graph = chk_vars, var_checks, chk_adj[:widest]
            if d + 1 == chk_degs[c]:
                under[c] = False
                n_under -= 1

    keep = range(gen_checks)
    if gen_checks > n_checks:
        keep = sorted(rng.sample(keep, n_checks))
    rows = [chk_vars[c] for c in keep]
    del chk_vars, var_checks, graph   # the repair's elimination is the peak
    half = _repair_full_rank(rows, n_vars, rng)
    counts = PegCounts(spills, pool_exits, depth_caps, empty_waves,
                       gen_checks - n_checks, widenings)
    return half, counts


def _repair_full_rank(rows: list[list[int]], n_vars: int,
                      rng: random.Random) -> BitMatrix:
    """The matrix of rows (each a list of columns) made full row rank, with
    its echelon() view already cached.  Each pass replaces every dependent
    row by a row of as many random columns (at least one), at most
    PEG_REPAIR_ATTEMPTS passes; rows is updated in place."""
    for attempt in range(PEG_REPAIR_ATTEMPTS + 1):
        a = BitMatrix(len(rows), n_vars, rows)
        pivots, dependent = a.echelon()
        if not dependent:
            return a
        if attempt == PEG_REPAIR_ATTEMPTS:
            raise RankDeficiencyError(
                f"full-rank repair failed: rank {len(pivots)} of {len(rows)}",
                len(pivots))
        for idx in dependent:
            rows[idx] = rng.sample(range(n_vars), max(len(rows[idx]), 1))


def empirical_fractions(a: BitMatrix) -> tuple[dict[int, float], dict[int, float]]:
    """Edge-perspective (lambda_hat, rho_hat) fractions of a realized matrix."""
    edges = int(a.row_lengths().sum())

    def fractions(degrees: np.ndarray) -> dict[int, float]:
        values, counts = np.unique(degrees[degrees > 0], return_counts=True)
        return {int(d): int(d) * int(c) / edges
                for d, c in zip(values, counts)}

    return (fractions(np.bincount(a.edges()[1])),
            fractions(a.row_lengths()))


def hopcroft_karp(adjacency: list[list[int]], n_left: int, n_right: int) -> list[int]:
    """Maximum bipartite matching; returns per-left matched right index or -1."""
    INF = float("inf")
    match_l = [-1] * n_left
    match_r = [-1] * n_right
    dist = [0.0] * n_left

    def bfs() -> bool:
        queue = []
        for u in range(n_left):
            if match_l[u] == -1:
                dist[u] = 0.0
                queue.append(u)
            else:
                dist[u] = INF
        found = False
        head = 0
        while head < len(queue):
            u = queue[head]
            head += 1
            for v in adjacency[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def augment(root: int) -> None:
        """The layered DFS from free left vertex root, on an explicit stack
        of (left vertex, iterator over its neighbors) so that a long
        augmenting path cannot exhaust Python's recursion limit.  Each vertex
        above the root was reached through its own matched right vertex, so
        flipping the path needs no other record."""
        stack = [(root, iter(adjacency[root]))]
        while stack:
            u, nbrs = stack[-1]
            step = dist[u] + 1
            for v in nbrs:
                w = match_r[v]
                if w == -1:
                    for u, _ in reversed(stack):
                        match_r[v] = u
                        match_l[u], v = v, match_l[u]
                    return
                if dist[w] == step:
                    stack.append((w, iter(adjacency[w])))
                    break
            else:
                dist[u] = INF
                stack.pop()

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                augment(u)
    return match_l


def all_one_diagonalize(a: BitMatrix) -> tuple[int, ...]:
    """A column order making every diagonal entry of
    permute(a, range(a.rows), order) equal one.

    Requires full row rank and rows <= cols.  An invertible column subset, the
    pivot columns, is read from a's cached row elimination
    (BitMatrix.echelon()), which peg_generate's output already carries; a
    rank-deficient a raises RankDeficiencyError carrying its rank.  A perfect
    matching between rows and those columns over the support supplies the
    diagonal (such a matching exists because the invertible submatrix has odd
    permanent).  Rows stay in place, so only the column order is returned:
    matched columns move onto the diagonal and the leftovers follow in
    ascending order.
    """
    if a.rows > a.cols:
        raise ValueError(f"need rows <= cols, got {a.rows}x{a.cols}")
    pivot_cols, dependent = a.echelon()
    if dependent:
        raise RankDeficiencyError(
            f"matrix {a.rows}x{a.cols} is rank deficient", len(pivot_cols))
    col_pos = {c: i for i, c in enumerate(pivot_cols)}
    adjacency = [[col_pos[c] for c in sup if c in col_pos] for sup in a.row_support]
    matching = hopcroft_karp(adjacency, a.rows, len(pivot_cols))
    if any(m == -1 for m in matching):
        raise RankDeficiencyError("no perfect matching on the pivot submatrix",
                                  sum(m != -1 for m in matching))
    diag_cols = [pivot_cols[m] for m in matching]
    used = set(diag_cols)
    return tuple(diag_cols) + tuple(c for c in range(a.cols) if c not in used)


def assemble_compound(a: BitMatrix, params: CodeParams) -> BitMatrix:
    """Mirror the all-one-diagonal half into the full outer matrix.

    Output rows i < half_rows read (e_i | a0_i), the rest (a0_j | e_j), where
    a0 is `a` with its diagonal cleared.  Row and column weight multisets of
    the result are the doubled multisets of `a`.  The top quant_checks rows
    form the quantization check; the remaining k2 rows carry the syndrome.
    """
    hr, hc = params.half_rows, params.half_cols
    if (a.rows, a.cols) != (hr, hc):
        raise ValueError(f"half matrix must be {hr}x{hc}, got {a.rows}x{a.cols}")
    if any(i not in sup for i, sup in enumerate(a.row_support)):
        raise ValueError("half matrix must carry an all-one diagonal")
    a0 = [tuple(c for c in sup if c != i) for i, sup in enumerate(a.row_support)]
    top = [(i,) + tuple(hc + c for c in a0[i]) for i in range(hr)]
    bottom = [a0[j] + (hc + j,) for j in range(hr)]
    return BitMatrix(2 * hr, 2 * hc, top + bottom)


def _b_columns(h: BitMatrix, params: CodeParams) -> BitMatrix:
    """Columns of B over the quantization rows h1 (the top quant_checks rows
    of h): row c of the result holds the rows where column c of B has a one,
    the tail rows of transpose(h1).  First checks that h1 has the
    (identity | zeros | B) shape the mirrored construction produces, and
    raises ValueError naming the lowest row that does not."""
    r = params.quant_checks
    o_end = r + params.mid_width
    h1 = h.row_block(0, r)
    rows, cols = h1.edges()
    lead = cols < r
    not_identity = ((np.bincount(rows[lead], minlength=r) != 1)
                    | (np.bincount(rows[lead & (cols != rows)],
                                   minlength=r) > 0))
    in_middle = np.bincount(rows[~lead & (cols < o_end)], minlength=r) > 0
    bad = np.flatnonzero(not_identity | in_middle)
    if bad.size:
        i = bad[0]
        if not_identity[i]:
            raise ValueError(f"row {i}: leading block is not the identity")
        raise ValueError(f"row {i}: middle zero block is populated")
    return transpose(h1).row_block(o_end, h.cols)


def _generator_rows(b: BitMatrix, rows: int, cols: int) -> BitMatrix:
    """rows x cols: row j is the unit vector at cols - rows + j, and each of
    the last b.rows rows first holds its row of b (whose columns lie below
    cols - rows): B's columns, each with a private unit column."""
    lead = rows - b.rows
    units = np.arange(cols - rows, cols, dtype=np.int64)
    lengths = np.concatenate([np.zeros(lead, dtype=np.int64), b.row_lengths()])
    return BitMatrix.from_arrays(rows, cols, lengths + 1, np.insert(
        b.edges()[1], np.cumsum(lengths), units))


class CompoundQuantizer:
    """Bias propagation for one compound code, run in its systematic gauge.

    The codewords of the quantization check are (B t2, t1, t2) over free
    blocks t1 and t2 (CompoundCode.g1).  The middle block copies the source
    at no cost, which leaves fitting (B t2, t2) to the parity and tail blocks
    of the source: bip_quantize_all on g_sub, g1's tail rows without the
    middle block, whose row j holds column j of B plus its own tail
    position, so check degrees stay at B's column weights.  A word's
    coefficients over g1 are its free blocks (t1, t2)."""

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


def _code_seed(seed, dist_id) -> int:
    """seed as an int; TypeError unless seed is an integer and dist_id a
    string, as load_code requires of a manifest, so that save_code can
    record them and the build repeats."""
    _require_int("seed", seed)
    if not isinstance(dist_id, str):
        raise TypeError(f"dist_id must be a string, got {dist_id!r}")
    return int(seed)


@dataclass(frozen=True)
class CompoundCode:
    """A built code: the outer check h, B's columns, and on first read the
    systematic generator g1 of the null space of its quantization rows.

    Construction is the one check of a code, so a built, loaded or
    hand-made code that exists can be saved and loaded back.  The seed must
    be an integer, kept as an int, and dist_id a string (TypeError); the
    geometry must pass validate_params (ParamValidationError); h must be
    outer_checks x n (ShapeError); and h's top rows must read
    (identity | zeros | B) (ValueError from _b_columns)."""

    params: CodeParams
    h: BitMatrix
    seed: int
    dist_id: str = ""
    # row c holds the quantization rows where column c of B has a one
    b_columns: BitMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "seed", _code_seed(self.seed, self.dist_id))
        p, h = self.params, self.h
        report = validate_params(p)
        if not report.ok:
            raise ParamValidationError(report)
        if (h.rows, h.cols) != (p.outer_checks, p.n):
            raise ShapeError(f"h is {h.rows}x{h.cols}, expected "
                             f"{p.outer_checks}x{p.n}")
        object.__setattr__(self, "b_columns", _b_columns(h, p))

    @cached_property
    def g1(self) -> BitMatrix:
        """The systematic generator of ker(h1), whose codewords are
        (B t2, t1, t2): _generator_rows of B, so row j is the unit vector at
        column r + j plus, in the tail, B's column j - mid (r is quant_checks,
        mid the middle block's width).  u @ g1 is the codeword whose free
        blocks, its bits r..n-1, are u."""
        return _generator_rows(self.b_columns, self.params.info_rows,
                               self.params.n)

    @cached_property
    def h1(self) -> BitMatrix:
        """The quantization check: the top quant_checks rows of h."""
        return self.h.row_block(0, self.params.quant_checks)

    @cached_property
    def h2(self) -> BitMatrix:
        """The syndrome check: the k2 rows of h below h1."""
        return self.h.row_block(self.params.quant_checks, self.h.rows)

    @cached_property
    def quantizer(self) -> CompoundQuantizer:
        """The code's CompoundQuantizer, built once; pool tasks get it built."""
        return CompoundQuantizer(self)

    def syndrome(self, q: QuantizeResult) -> BitVector:
        """The transmitted bits of a quantized word: h2 @ q.codeword."""
        return mul_vec(self.h2, q.codeword)

    def decode(self, side_info: BitVector, syndrome: BitVector,
               sp: SpParams) -> DecodeResult:
        """The quantized word, by sum-product on h from the syndrome prefixed
        by zeros: the quantization checks hold by construction."""
        p = self.params
        if syndrome.length != p.k2:
            raise ValueError(f"syndrome must have {p.k2} bits")
        full = BitVector(self.h.rows, syndrome.bits << p.quant_checks)
        return sp_decode(self.h, full, side_info, sp)


def build_compound_code(params: CodeParams, dist: DegreeDistribution, seed: int,
                        dist_id: str = "") -> CompoundCode:
    """Full pipeline: validate, grow, diagonalize, mirror.  The seed,
    dist_id and geometry are checked as CompoundCode checks them, and the
    profile's degree sequences are checked to fit (profile_fit), before any
    growth."""
    seed = _code_seed(seed, dist_id)
    report = _check_build(params, dist)
    if not report.ok:
        raise ParamValidationError(report)
    rng = random.Random(seed)
    seed_peg = rng.randrange(2 ** 62)
    half = peg_generate(params.half_rows, params.half_cols, dist, seed_peg)
    half = permute(half, range(half.rows), all_one_diagonalize(half))
    h = assemble_compound(half, params)
    return CompoundCode(params, h, seed, dist_id)


def save_code(code: CompoundCode, directory: str | Path) -> None:
    """Write manifest.json and h.txt into directory.  The manifest text is
    made first, so a code it cannot record leaves no files behind."""
    r1, r2, rt = code.params.rates
    manifest = json.dumps({
        "params": asdict(code.params),
        "seed": code.seed,
        "dist_id": code.dist_id,
        "rates": {"r1": r1, "r2": r2, "rt": rt},
    }, indent=2)
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    with open(directory / "h.txt", "w", encoding="utf-8") as f:
        write_matrix(f, code.h)
    (directory / "manifest.json").write_text(manifest)


def _read_manifest(path: Path) -> dict:
    """manifest.json as save_code writes it, with "params" made a
    CodeParams; ValueError("manifest.json: ...") when it is not."""
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise ValueError(f"manifest.json: {e}") from None
    if not isinstance(manifest, dict):
        raise ValueError("manifest.json: expected a JSON object")
    for key in ("params", "seed"):
        if key not in manifest:
            raise ValueError(f"manifest.json: missing key {key!r}")
    given = manifest["params"]
    if not isinstance(given, dict):
        raise ValueError("manifest.json: 'params' must be an object")
    given = {k: v for k, v in given.items() if k not in RETIRED_PARAMS}
    known = [f.name for f in fields(CodeParams)]
    for key in given:
        if key not in known:
            raise ValueError(f"manifest.json: unknown params key {key!r}")
    try:
        params = CodeParams(**given)
    except (TypeError, ValueError) as e:
        raise ValueError(f"manifest.json: params: {e}") from None
    return {**manifest, "params": params}


def _read_code_matrix(path: Path) -> BitMatrix:
    """The matrix in path; ValueError naming the file when it cannot be
    parsed."""
    with open(path, encoding="utf-8") as f:
        try:
            return read_matrix(f)
        except ValueError as e:
            raise ValueError(f"{path.name}: {e}") from None


def load_code(directory: str | Path) -> CompoundCode:
    """Read a directory written by save_code and make its code, which
    checks it as every CompoundCode is checked; a seed or dist_id of the
    wrong type is reported as ValueError("manifest.json: ...").  The
    g1.txt, h1.txt and h2.txt files of older directories hold nothing h
    does not fix, and are not read."""
    directory = Path(directory)
    manifest = _read_manifest(directory / "manifest.json")
    h = _read_code_matrix(directory / "h.txt")
    try:
        return CompoundCode(manifest["params"], h, manifest["seed"],
                            manifest.get("dist_id", ""))
    except TypeError as e:
        raise ValueError(f"manifest.json: {e}") from None
