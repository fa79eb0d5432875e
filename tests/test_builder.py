"""Graph growth, diagonalization, mirroring, and generator design."""

import hashlib
import random
from collections import Counter

import pytest

from conftest import SMALL_PARAMS, TINY_PARAMS, tiny_dist
from wzkit.builder import (BFS_DEPTH_CAP, CodeParams, ParamValidationError,
                           _check_degree_sequence, _node_degree_sequence,
                           _repair_full_rank, all_one_diagonalize,
                           assemble_compound, build_compound_code,
                           design_poisson_generator, empirical_fractions,
                           load_code, peg_generate, save_code, validate_params)
from wzkit.degrees import DegreeDistribution
from wzkit.gf2 import (BitMatrix, BitVector, _bit_indices, mat_mul, mul_vec,
                       permute, rank)


def degree_multisets(a):
    rows = Counter(len(sup) for sup in a.row_support)
    cols = Counter()
    for sup in a.row_support:
        for c in sup:
            cols[c] += 1
    return rows, Counter(cols.values())


class TestValidateParams:
    def test_valid_geometry_passes(self):
        assert validate_params(SMALL_PARAMS).ok

    def test_odd_outer_checks_flagged(self):
        p = CodeParams(n=200, m=190, k1=40, k2=121, zeta=10,
                       poisson_lam=7.0, poisson_imax=16)
        report = validate_params(p)
        assert [c.name for c in report.failures()] == ["outer_checks_even"]

    def test_reverse_geometry_fails_three_ways(self):
        p = CodeParams(n=3000, m=2000, k1=548, k2=1212, zeta=10,
                       poisson_lam=128.77, poisson_imax=300)
        names = {c.name for c in validate_params(p).failures()}
        assert names == {"syndrome_capacity", "generator_tail_fits",
                         "split_fits_top_half"}

    def test_build_raises_on_invalid(self):
        p = CodeParams(n=3000, m=2000, k1=548, k2=1212, zeta=10,
                       poisson_lam=128.77, poisson_imax=300)
        with pytest.raises(ParamValidationError):
            build_compound_code(p, tiny_dist(), seed=0)


class TestPegGenerate:
    def test_degree_sequences_exact_on_fitting_profile(self):
        # 14 checks x 16 columns fits the tiny profile with no edge residue
        a = peg_generate(14, 16, tiny_dist(), seed=3)
        rows, cols = degree_multisets(a)
        assert cols == Counter({3: 16})
        assert rows == Counter({3: 8, 4: 6})

    def test_deterministic(self):
        a = peg_generate(14, 16, tiny_dist(), seed=9)
        b = peg_generate(14, 16, tiny_dist(), seed=9)
        assert a == b
        assert a != peg_generate(14, 16, tiny_dist(), seed=10)

    def test_no_parallel_edges(self):
        a = peg_generate(20, 40, tiny_dist(), seed=1)
        for sup in a.row_support:
            assert len(sup) == len(set(sup))


# code3 at n = 2000: the geometry of the perfbench cli-code3-p05 workload
CLI_PARAMS = CodeParams(n=2000, m=1914, k1=400, k2=1200, zeta=10,
                        poisson_lam=71.495, poisson_imax=160)


def digest(a):
    return hashlib.sha256(repr(a.row_support).encode()).hexdigest()[:16]


def reference_peg(n_checks, n_vars, dist, seed):
    """peg_generate written plainly: adjacency as Python-int bitmasks, one
    BFS level at a time, bit by bit.  Same RNG calls, so same output."""
    rng = random.Random(seed)
    var_degs = _node_degree_sequence(dist.lambda_terms, n_vars)
    n_edges = sum(var_degs)
    design = round(n_edges * sum(f / d for d, f in dist.rho_terms))
    chk_degs = _check_degree_sequence(dist.rho_terms, max(design, n_checks),
                                      n_edges)
    gen_checks = len(chk_degs)
    rng.shuffle(var_degs)
    rng.shuffle(chk_degs)
    deg = [0] * gen_checks
    adj_var = [0] * n_vars
    adj_check = [0] * gen_checks
    every = (1 << gen_checks) - 1
    under = every

    for v in sorted(range(n_vars), key=lambda v: (var_degs[v], v)):
        for k in range(var_degs[v]):
            pool = under & ~adj_var[v] or every & ~adj_var[v]
            cand = pool
            if k:
                seen_c, seen_v, wave, depth = adj_var[v], 1 << v, adj_var[v], 0
                while pool & ~seen_c and wave and depth < BFS_DEPTH_CAP:
                    depth += 1
                    new_v = 0
                    for c in _bit_indices(wave):
                        new_v |= adj_check[c]
                    new_v &= ~seen_v
                    seen_v |= new_v
                    wave = 0
                    for u in _bit_indices(new_v):
                        wave |= adj_var[u]
                    wave &= ~seen_c
                    seen_c |= wave
                cand = pool & ~seen_c or wave & pool or pool
            c = min(_bit_indices(cand), key=lambda c: (deg[c], c))
            adj_var[v] |= 1 << c
            adj_check[c] |= 1 << v
            deg[c] += 1
            if deg[c] == chk_degs[c]:
                under &= ~(1 << c)
    rows = adj_check
    if gen_checks > n_checks:
        rows = [rows[i] for i in sorted(rng.sample(range(gen_checks), n_checks))]
    rows = _repair_full_rank(rows, n_vars, rng)
    return BitMatrix.from_bitrows(n_checks, n_vars, rows)


class TestPegGolden:
    """PEG output pinned bit for bit, so a faster growth loop cannot drift."""

    def test_tiny_profile(self):
        assert digest(peg_generate(20, 40, tiny_dist(), seed=1)) == "2a5c6ef1ffe071a5"

    def test_code3_fallback_branches(self, catalog):
        # 12 capacity spills, 31 BFS exits at BFS_DEPTH_CAP, 3 trimmed rows
        a = peg_generate(85, 100, catalog["code3"].dist, seed=11)
        assert digest(a) == "cb8efaec6a83bbbf"

    def test_code11_profile(self, catalog):
        a = peg_generate(59, 200, catalog["code11"].dist, seed=11)
        assert digest(a) == "e318492f9a292515"

    def test_spill_past_widest_check(self, catalog):
        # every capacity is 5, so a spill grows a check past the widest one
        dist = DegreeDistribution(catalog["code3"].dist.lambda_terms, ((5, 1.0),))
        a = peg_generate(76, 100, dist, seed=11)
        assert max(len(sup) for sup in a.row_support) == 6
        assert digest(a) == "279cbcbba833d5c5"

    def test_matches_plain_reference(self, catalog):
        rng = random.Random(2024)
        for cid in ("code1", "code3", "code11", "code13", "code14",
                    "regular-3-10"):
            dist = catalog[cid].dist
            done = 0
            while done < 2:
                n_vars = rng.randrange(100, 220)
                var_degs = _node_degree_sequence(dist.lambda_terms, n_vars)
                design = round(sum(var_degs)
                               * sum(f / d for d, f in dist.rho_terms))
                low = max(max(var_degs), design // 2)
                if low > design:
                    continue
                done += 1
                n_checks = rng.randrange(low, design + 1)
                seed = rng.randrange(1000)
                assert peg_generate(n_checks, n_vars, dist, seed) == \
                    reference_peg(n_checks, n_vars, dist, seed), (cid, seed)

    def test_cli_geometry_build(self, catalog):
        code = build_compound_code(CLI_PARAMS, catalog["code3"].dist,
                                   seed=20260815, dist_id="code3")
        assert (digest(code.h), digest(code.g1)) == (
            "6423cbf341a46fe5", "3eecf8c4d5f52781")


class TestAllOneDiagonalize:
    def test_hundred_random_full_rank(self):
        rng = random.Random(808)
        done = 0
        while done < 100:
            a = BitMatrix(8, 14, [[c for c in range(14) if rng.random() < 0.5]
                                  for _ in range(8)])
            if rank(a) < 8:
                continue
            row_perm, col_perm = all_one_diagonalize(a)
            b = permute(a, row_perm, col_perm)
            assert all(i in sup for i, sup in enumerate(b.row_support))
            done += 1

    def test_multisets_unchanged(self):
        rng = random.Random(17)
        a = BitMatrix(8, 14, [[c for c in range(14) if rng.random() < 0.5]
                              for _ in range(8)])
        while rank(a) < 8:
            a = BitMatrix(8, 14, [[c for c in range(14) if rng.random() < 0.5]
                                  for _ in range(8)])
        row_perm, col_perm = all_one_diagonalize(a)
        b = permute(a, row_perm, col_perm)
        assert degree_multisets(a) == degree_multisets(b)


class TestAssembleCompound:
    def test_worked_layout(self):
        # mirroring a 2x3 half with diagonal ones gives the block pattern
        # (e_i | a0_i) on top and (a0_j | e_j) below
        half = BitMatrix(2, 3, [[0, 1], [1, 2]])
        params = CodeParams(n=6, m=5, k1=1, k2=2, zeta=1, poisson_lam=2.0,
                            poisson_imax=6)
        h, h1, h2 = assemble_compound(half, params)
        assert h.row_support == ((0, 4), (1, 5), (1, 3), (2, 4))
        assert h1.row_support == h.row_support[:2]
        assert h2.row_support == h.row_support[2:]

    def test_degree_multisets_doubled(self, small_code):
        half_rows = SMALL_PARAMS.half_rows
        # reconstruct the half from the mirrored top block
        top = small_code.h.row_support[:half_rows]
        half = BitMatrix(half_rows, SMALL_PARAMS.half_cols,
                         [[i] + [c - SMALL_PARAMS.half_cols for c in sup if c >= SMALL_PARAMS.half_cols]
                          for i, sup in enumerate(top)])
        h_rows, h_cols = degree_multisets(small_code.h)
        a_rows, a_cols = degree_multisets(half)
        assert h_rows == Counter({k: 2 * v for k, v in a_rows.items()})
        assert h_cols == Counter({k: 2 * v for k, v in a_cols.items()})

    def test_rejects_missing_diagonal(self):
        half = BitMatrix(2, 3, [[1], [1, 2]])
        params = CodeParams(n=6, m=5, k1=1, k2=2, zeta=1, poisson_lam=2.0,
                            poisson_imax=6)
        with pytest.raises(ValueError):
            assemble_compound(half, params)


class TestGeneratorDesign:
    def test_orthogonal_and_full_rank(self, small_code):
        prod = mat_mul(small_code.h1, BitMatrix(
            small_code.g1.cols, small_code.g1.rows,
            [[r for r in range(small_code.g1.rows)
              if c in small_code.g1.row_support[r]]
             for c in range(small_code.g1.cols)]))
        assert all(not sup for sup in prod.row_support)
        assert rank(small_code.g1) == SMALL_PARAMS.info_rows

    def test_tail_weights_on_target_with_single_fallback(self, small_code):
        o_end = SMALL_PARAMS.quant_checks + (SMALL_PARAMS.info_rows
                                             - SMALL_PARAMS.n // 2)
        tails = Counter(sum(c >= o_end for c in sup)
                        for sup in small_code.g1.row_support)
        # even tail weights alone cannot span the message space; exactly one
        # row drops to zeta - 1 to supply the odd-parity dimension
        assert set(tails) <= {SMALL_PARAMS.zeta, SMALL_PARAMS.zeta - 1}
        assert tails.get(SMALL_PARAMS.zeta - 1, 0) <= 1

    def test_row_weights_capped(self, small_code):
        assert all(len(sup) <= SMALL_PARAMS.poisson_imax
                   for sup in small_code.g1.row_support)

    def test_rejects_malformed_check(self):
        bad = BitMatrix(2, 8, [[0, 1, 6], [1, 7]])  # leading block not identity
        with pytest.raises(ValueError):
            design_poisson_generator(bad, TINY_PARAMS, seed=0)


class TestBuildRoundtrip:
    def test_seed_determinism(self):
        a = build_compound_code(TINY_PARAMS, tiny_dist(), seed=5)
        b = build_compound_code(TINY_PARAMS, tiny_dist(), seed=5)
        assert (a.h, a.h1, a.h2, a.g1) == (b.h, b.h1, b.h2, b.g1)

    def test_save_load_roundtrip(self, tiny_code, tmp_path):
        save_code(tiny_code, tmp_path / "code")
        loaded = load_code(tmp_path / "code")
        assert loaded.params == tiny_code.params
        assert (loaded.h, loaded.h1, loaded.h2, loaded.g1) == \
            (tiny_code.h, tiny_code.h1, tiny_code.h2, tiny_code.g1)

    def test_load_rejects_outer_matrix_that_disagrees(self, tiny_code, tmp_path):
        save_code(tiny_code, tmp_path / "code")
        path = tmp_path / "code" / "h.txt"
        lines = path.read_text().split("\n")
        row = [int(tok) for tok in lines[1].split()]
        free = next(c for c in range(1, TINY_PARAMS.n + 1) if c not in row)
        lines[1] = " ".join(str(c) for c in sorted(row[1:] + [free]))
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="do not stack"):
            load_code(tmp_path / "code")

    def test_rates(self, tiny_code):
        r1, r2, rt = tiny_code.rates
        assert r1 == TINY_PARAMS.info_rows / TINY_PARAMS.n
        assert rt == TINY_PARAMS.k2 / TINY_PARAMS.n
        assert abs(r1 - r2 - rt) < 1e-12

    def test_empirical_fractions_match_profile_on_exact_fit(self):
        a = peg_generate(14, 16, tiny_dist(), seed=3)
        lam, rho = empirical_fractions(a)
        assert set(lam) == {3} and abs(lam[3] - 1.0) < 1e-12
        assert set(rho) == {3, 4}


def test_quantization_check_annihilates_generator(tiny_code):
    for bits in tiny_code.g1.bitrows():
        word = BitVector(tiny_code.g1.cols, bits)
        assert mul_vec(tiny_code.h1, word).weight() == 0
