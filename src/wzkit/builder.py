"""Construction of the nested code pair: outer parity checks plus sparse generator.

The outer parity-check matrix is built in halves: a progressive-edge-growth
matrix A realizes a degree profile at half the target shape, gets permuted to
carry an all-one diagonal, and is mirrored into [[I, A0], [A0, I]] with A0 the
off-diagonal part of A.  The top slice of the result checks the quantization
code; its null space is then spanned by rows drawn with Poisson-shaped weights.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from .degrees import DegreeDistribution, PoissonWeightSpec, poisson_counts
from .gf2 import (BitMatrix, RankDeficiencyError, _bit_indices, permute,
                  read_matrix, write_matrix)

__all__ = [
    "CodeParams",
    "ParamCheck",
    "ValidationReport",
    "ParamValidationError",
    "CompoundCode",
    "validate_params",
    "peg_generate",
    "empirical_fractions",
    "hopcroft_karp",
    "all_one_diagonalize",
    "assemble_compound",
    "design_poisson_generator",
    "build_compound_code",
    "save_code",
    "load_code",
]

PEG_REPAIR_ATTEMPTS = 10
M1_REDRAWS = 50
M2_REDRAWS = 50
BFS_DEPTH_CAP = 12


@dataclass(frozen=True)
class CodeParams:
    """Block geometry of one compound code instance.

    n is the outer length, m the inner length, k1/k2 the two nesting surpluses,
    zeta the per-row weight of the generator's tail segment.  poisson_lam and
    poisson_imax shape the generator row weights; they may be omitted only when
    the middle segment has zero width (m - k1 == n // 2).
    """

    n: int
    m: int
    k1: int
    k2: int
    zeta: int
    poisson_lam: float | None = None
    poisson_imax: int | None = None

    def __post_init__(self):
        for name in ("n", "m", "k1", "k2", "zeta"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.m - self.k1 < 1:
            raise ValueError("m - k1 must be >= 1")
        if self.n - self.m + self.k1 < 1:
            raise ValueError("n - m + k1 must be >= 1")
        if self.zeta > self.n // 2 and self.n > 1:
            raise ValueError("zeta cannot exceed the tail segment width n//2")

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
        ParamCheck("generator_tail_fits", p.n // 2 <= p.m - p.k1,
                   f"n/2={p.n // 2} vs m-k1={p.m - p.k1}"),
        ParamCheck("rate_window_low", p.k1 + p.k2 <= p.m,
                   f"k1+k2={p.k1 + p.k2} vs m={p.m}"),
        ParamCheck("rate_window_high", p.m <= 2 * p.k1 + p.k2,
                   f"m={p.m} vs 2k1+k2={2 * p.k1 + p.k2}"),
        ParamCheck("split_fits_top_half", p.quant_checks <= p.k2,
                   f"n-m+k1={p.quant_checks} vs k2={p.k2}"),
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
    a one-bucket profile cannot.
    """
    degrees = [d for d, _ in terms]
    weights = [f / d for d, f in terms]
    scale = sum(weights)
    counts = _largest_remainder([w / scale for w in weights], n_checks)
    diff = n_edges - sum(d * c for d, c in zip(degrees, counts))
    guard = 0
    while diff != 0 and len(degrees) > 1:
        guard += 1
        if guard > 10 * n_checks:
            raise ValueError(f"cannot realize check degrees: residual {diff} edges")
        moved = False
        if diff > 0:
            for i in range(len(degrees) - 1):
                if counts[i] > 0:
                    step = degrees[i + 1] - degrees[i]
                    counts[i] -= 1
                    counts[i + 1] += 1
                    diff -= step
                    moved = True
                    break
        else:
            for i in range(len(degrees) - 1, 0, -1):
                if counts[i] > 0:
                    step = degrees[i] - degrees[i - 1]
                    counts[i] -= 1
                    counts[i - 1] += 1
                    diff += step
                    moved = True
                    break
        if not moved:
            break
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
    passes, so the result has full row rank.  Empirical edge fractions track
    the profile to within a couple percent whenever the requested shape is
    near the profile's own check-to-variable ratio.

    The graph grows in preallocated edge arrays; each BFS level gathers the
    frontier checks' rows of a fixed-width check-to-variable table, then masks
    the edges placed so far to find those variables' checks.
    """
    rng = random.Random(seed)
    var_degs = _node_degree_sequence(dist.lambda_terms, n_vars)
    n_edges = sum(var_degs)
    rho_i = sum(f / d for d, f in dist.rho_terms)
    design_checks = round(n_edges * rho_i)
    gen_checks = max(design_checks, n_checks)
    chk_degs = _check_degree_sequence(dist.rho_terms, gen_checks, n_edges)
    gen_checks = len(chk_degs)  # an off-profile remainder check may extend it
    if gen_checks < n_checks:
        raise ValueError(
            f"profile implies {gen_checks} checks, fewer than requested {n_checks}")

    rng.shuffle(var_degs)
    rng.shuffle(chk_degs)
    cap = np.array(chk_degs, dtype=np.int64)
    deg = np.zeros(gen_checks, dtype=np.int64)
    # edges in placement order, plus each check's variables in a table padded
    # with the sentinel variable n_vars (widened when a spill outgrows it)
    order = sorted(range(n_vars), key=lambda v: (var_degs[v], v))
    edge_var = np.repeat(order, [var_degs[v] for v in order])
    edge_check = np.empty(n_edges, dtype=np.int64)
    chk_adj = np.full((gen_checks, max(chk_degs)), n_vars, dtype=np.int64)
    ne = 0
    for v in order:
        for k in range(var_degs[v]):
            own = edge_check[ne - k:ne]
            # capacities are a soft preference: when every non-neighbor is
            # already full, spill onto the least-loaded one instead of failing
            pool = np.ones(gen_checks, dtype=bool)
            pool[own] = False
            if (pool & (deg < cap)).any():
                pool &= deg < cap
            elif not pool.any():
                raise ValueError(
                    f"variable {v} needs {var_degs[v]} distinct checks but "
                    f"only {gen_checks} exist")
            if k:
                # BFS out of v; stop once every pool check has been seen (the
                # first level always runs: pool and own are disjoint)
                ec, ev = edge_check[:ne], edge_var[:ne]
                seen_c = np.zeros(gen_checks, dtype=bool)
                seen_c[own] = True
                seen_v = np.zeros(n_vars + 1, dtype=bool)
                seen_v[[v, n_vars]] = True
                wave = own
                depth = 0
                while ((pool & ~seen_c).any() and wave.size
                       and depth < BFS_DEPTH_CAP):
                    depth += 1
                    new_v = np.zeros(n_vars + 1, dtype=bool)
                    new_v[chk_adj[wave]] = True
                    new_v &= ~seen_v
                    seen_v |= new_v
                    new_c = np.zeros(gen_checks, dtype=bool)
                    new_c[ec[new_v[ev]]] = True
                    new_c &= ~seen_c
                    seen_c |= new_c
                    wave = np.flatnonzero(new_c)
                cand = pool & ~seen_c
                if not cand.any():
                    cand = pool & new_c
                if cand.any():
                    pool = cand
            # lowest current degree, lowest index on ties
            c = int(np.argmin(np.where(pool, deg, n_edges + 1)))
            if deg[c] == chk_adj.shape[1]:
                chk_adj = np.pad(chk_adj, ((0, 0), (0, chk_adj.shape[1])),
                                 constant_values=n_vars)
            chk_adj[c, deg[c]] = v
            edge_check[ne] = c
            ne += 1
            deg[c] += 1

    keep = range(gen_checks)
    if gen_checks > n_checks:
        keep = sorted(rng.sample(keep, n_checks))
    rows = [sum(1 << u for u in chk_adj[c, :deg[c]].tolist()) for c in keep]
    rows = _repair_full_rank(rows, n_vars, rng)
    return BitMatrix.from_bitrows(n_checks, n_vars, rows)


def _independent_row_set(rows: list[int]) -> tuple[dict[int, int], list[int]]:
    """Incremental elimination: returns (pivot basis, dependent row indices)."""
    basis: dict[int, int] = {}
    dependent = []
    for idx, bits in enumerate(rows):
        cur = bits
        while cur:
            p = cur.bit_length() - 1
            if p in basis:
                cur ^= basis[p]
            else:
                basis[p] = cur
                break
        else:
            dependent.append(idx)
    return basis, dependent


def _repair_full_rank(rows: list[int], n_vars: int, rng: random.Random) -> list[int]:
    for _ in range(PEG_REPAIR_ATTEMPTS):
        basis, dependent = _independent_row_set(rows)
        if not dependent:
            return rows
        for idx in dependent:
            weight = max(rows[idx].bit_count(), 1)
            fresh = sum(1 << c for c in rng.sample(range(n_vars), weight))
            rows[idx] = fresh
    basis, dependent = _independent_row_set(rows)
    if dependent:
        raise RankDeficiencyError(
            f"full-rank repair failed: rank {len(rows) - len(dependent)} of {len(rows)}",
            len(rows) - len(dependent))
    return rows


def empirical_fractions(a: BitMatrix) -> tuple[dict[int, float], dict[int, float]]:
    """Edge-perspective (lambda_hat, rho_hat) fractions of a realized matrix."""
    col_deg: dict[int, int] = {}
    for sup in a.row_support:
        for c in sup:
            col_deg[c] = col_deg.get(c, 0) + 1
    edges = sum(col_deg.values())
    lam: dict[int, float] = {}
    for d in col_deg.values():
        lam[d] = lam.get(d, 0) + d
    rho: dict[int, float] = {}
    for sup in a.row_support:
        d = len(sup)
        if d:
            rho[d] = rho.get(d, 0) + d
    return ({d: v / edges for d, v in sorted(lam.items())},
            {d: v / edges for d, v in sorted(rho.items())})


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

    def dfs(u: int) -> bool:
        for v in adjacency[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = INF
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)
    return match_l


def all_one_diagonalize(a: BitMatrix) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Permutations making every diagonal entry of permute(a, ...) equal one.

    Requires full row rank and rows <= cols.  An invertible column subset comes
    out of elimination; a perfect matching between rows and those columns over
    the support supplies the diagonal (such a matching exists because the
    invertible submatrix has odd permanent).  Rows stay in place; matched
    columns move onto the diagonal and the leftovers follow in ascending order.
    """
    if a.rows > a.cols:
        raise ValueError(f"need rows <= cols, got {a.rows}x{a.cols}")
    bitrows = list(a.bitrows())
    basis: dict[int, int] = {}
    pivot_cols: list[int] = []
    for bits in bitrows:
        cur = bits
        while cur:
            p = cur.bit_length() - 1
            if p in basis:
                cur ^= basis[p]
            else:
                basis[p] = cur
                pivot_cols.append(p)
                break
        else:
            raise RankDeficiencyError(
                f"matrix {a.rows}x{a.cols} is rank deficient", len(pivot_cols))
    pivot_cols.sort()
    col_pos = {c: i for i, c in enumerate(pivot_cols)}
    adjacency = [[col_pos[c] for c in sup if c in col_pos] for sup in a.row_support]
    matching = hopcroft_karp(adjacency, a.rows, len(pivot_cols))
    if any(m == -1 for m in matching):
        raise RankDeficiencyError("no perfect matching on the pivot submatrix",
                                  sum(m != -1 for m in matching))
    diag_cols = [pivot_cols[m] for m in matching]
    used = set(diag_cols)
    col_perm = tuple(diag_cols) + tuple(c for c in range(a.cols) if c not in used)
    return tuple(range(a.rows)), col_perm


def assemble_compound(a: BitMatrix, params: CodeParams
                      ) -> tuple[BitMatrix, BitMatrix, BitMatrix]:
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
    rows = top + bottom
    h = BitMatrix(2 * hr, 2 * hc, rows)
    split = params.quant_checks
    h1 = BitMatrix(split, 2 * hc, rows[:split])
    h2 = BitMatrix(2 * hr - split, 2 * hc, rows[split:])
    return h, h1, h2


def design_poisson_generator(h1: BitMatrix, params: CodeParams,
                             seed: int) -> BitMatrix:
    """Rows spanning the null space of h1 with Poisson-profiled weights.

    h1 must have the (identity | zeros | B) shape the mirrored construction
    produces.  Each row takes zeta ones in the tail segment, the induced
    parity pattern B m2 up front, and padding ones in the middle segment that
    lift the total weight to its slot in the sorted Poisson sequence (slots and
    rows are both weight-sorted before pairing; a padding weight of
    max(0, a - parity - zeta) keeps every row at or under poisson_imax).
    Dependent or overweight candidates redraw the padding positions up to
    M1_REDRAWS times, then the tail segment up to M2_REDRAWS times.

    When zeta is even, every weight-zeta tail lies in the even-weight subspace
    of the tail segment, so rows of that form span at most one dimension short
    of the full message space.  The first slot that exhausts its redraw budget
    therefore retries with a tail of weight zeta - 1, which restores the
    missing odd-parity dimension while keeping the row weight on target.
    """
    r = h1.rows
    n = h1.cols
    info = params.info_rows
    o_width = info - params.n // 2
    if o_width < 0:
        raise ValueError("middle segment has negative width: n//2 > m - k1")
    o_end = r + o_width
    b_width = n - o_end
    for i, sup in enumerate(h1.row_support):
        head = [c for c in sup if c < r]
        if head != [i]:
            raise ValueError(f"row {i}: leading block is not the identity")
        if any(r <= c < o_end for c in sup):
            raise ValueError(f"row {i}: middle zero block is populated")
    bcols = [0] * b_width
    for i, sup in enumerate(h1.row_support):
        for c in sup:
            if c >= o_end:
                bcols[c - o_end] |= 1 << i

    if o_width > 0:
        if params.poisson_lam is None or params.poisson_imax is None:
            raise ValueError("poisson_lam and poisson_imax required when the "
                             "middle segment is non-empty")
        slots = poisson_counts(
            PoissonWeightSpec(params.poisson_lam, params.poisson_imax, info)).weights
    else:
        slots = None

    rng = random.Random(seed)

    def draw_tail(w_tail: int) -> tuple[int, list[int], int]:
        tail = rng.sample(range(b_width), w_tail)
        parity = 0
        for c in tail:
            parity ^= bcols[c]
        return parity.bit_count(), tail, parity

    draws = []
    for j in range(info):
        w_parity, tail, parity = draw_tail(params.zeta)
        draws.append((w_parity, j, tail, parity))
    draws.sort(key=lambda t: (t[0], t[1]))

    basis: dict[int, int] = {}

    def try_add(m_bits: int) -> bool:
        cur = m_bits
        while cur:
            p = cur.bit_length() - 1
            if p in basis:
                cur ^= basis[p]
            else:
                basis[p] = cur
                return True
        return False

    imax = params.poisson_imax if params.poisson_imax is not None else n

    def place(slot: int, w_parity: int, tail: list[int], parity: int,
              w_tail: int) -> list[int] | None:
        for attempt in range(M2_REDRAWS):
            if attempt:
                w_parity, tail, parity = draw_tail(w_tail)
            target = slots[slot] if slots is not None else 0
            w_pad = max(0, target - w_parity - w_tail) if slots is not None else 0
            w_pad = min(w_pad, o_width)
            if w_parity + w_pad + w_tail > imax:
                continue
            for _ in range(M1_REDRAWS if o_width else 1):
                pad = rng.sample(range(o_width), w_pad) if w_pad else []
                m_bits = 0
                for c in pad:
                    m_bits |= 1 << c
                for c in tail:
                    m_bits |= 1 << (o_width + c)
                if try_add(m_bits):
                    return (_bit_indices(parity)
                            + sorted(r + c for c in pad)
                            + sorted(o_end + c for c in tail))
        return None

    rows = []
    for slot, (w_parity, _, tail, parity) in enumerate(draws):
        support = place(slot, w_parity, tail, parity, params.zeta)
        if support is None and params.zeta % 2 == 0:
            w_parity, tail, parity = draw_tail(params.zeta - 1)
            support = place(slot, w_parity, tail, parity, params.zeta - 1)
        if support is None:
            raise RankDeficiencyError(
                f"generator design stalled at row {slot}: "
                f"achieved rank {len(rows)} of {info}", len(rows))
        rows.append(support)
    return BitMatrix(info, n, rows)


@dataclass(frozen=True)
class CompoundCode:
    params: CodeParams
    h: BitMatrix
    h1: BitMatrix
    h2: BitMatrix
    g1: BitMatrix
    seed: int
    dist_id: str = ""

    @property
    def rates(self) -> tuple[float, float, float]:
        return self.params.rates


def _verify_generator(code: CompoundCode) -> None:
    """Exact orthogonality: every generator row's head must equal B m2."""
    p = code.params
    r = p.quant_checks
    o_end = r + (p.info_rows - p.n // 2)
    bcols = [0] * (p.n - o_end)
    for i, sup in enumerate(code.h1.row_support):
        for c in sup:
            if c >= o_end:
                bcols[c - o_end] |= 1 << i
    for j, sup in enumerate(code.g1.row_support):
        head = 0
        parity = 0
        for c in sup:
            if c < r:
                head |= 1 << c
            elif c >= o_end:
                parity ^= bcols[c - o_end]
        if head != parity:
            raise AssertionError(f"generator row {j} violates the quant check")
        if p.poisson_imax is not None and len(sup) > p.poisson_imax:
            raise AssertionError(f"generator row {j} weight {len(sup)} > i_max")


def build_compound_code(params: CodeParams, dist: DegreeDistribution, seed: int,
                        dist_id: str = "") -> CompoundCode:
    """Full pipeline: validate, grow, diagonalize, mirror, span the null space."""
    report = validate_params(params)
    if not report.ok:
        raise ParamValidationError(report)
    rng = random.Random(seed)
    seed_peg = rng.randrange(2 ** 62)
    seed_gen = rng.randrange(2 ** 62)
    half = peg_generate(params.half_rows, params.half_cols, dist, seed_peg)
    row_perm, col_perm = all_one_diagonalize(half)
    half = permute(half, row_perm, col_perm)
    h, h1, h2 = assemble_compound(half, params)
    g1 = design_poisson_generator(h1, params, seed_gen)
    code = CompoundCode(params, h, h1, h2, g1, seed, dist_id)
    _verify_generator(code)
    return code


def save_code(code: CompoundCode, directory: str | Path) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, mat in (("h", code.h), ("h1", code.h1), ("h2", code.h2),
                      ("g1", code.g1)):
        with open(directory / f"{name}.txt", "w", encoding="utf-8") as f:
            write_matrix(f, mat)
    r1, r2, rt = code.rates
    manifest = {
        "params": asdict(code.params),
        "seed": code.seed,
        "dist_id": code.dist_id,
        "rates": {"r1": r1, "r2": r2, "rt": rt},
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=2))


def load_code(directory: str | Path) -> CompoundCode:
    directory = Path(directory)
    manifest = json.loads((directory / "manifest.json").read_text())
    params = CodeParams(**manifest["params"])
    mats = {}
    for name in ("h", "h1", "h2", "g1"):
        with open(directory / f"{name}.txt", encoding="utf-8") as f:
            mats[name] = read_matrix(f)
    code = CompoundCode(params, mats["h"], mats["h1"], mats["h2"], mats["g1"],
                        manifest["seed"], manifest.get("dist_id", ""))
    if (code.h.row_support != code.h1.row_support + code.h2.row_support
            or not code.h.cols == code.h1.cols == code.h2.cols):
        raise ValueError("loaded halves do not stack to the outer matrix")
    _verify_generator(code)
    return code
