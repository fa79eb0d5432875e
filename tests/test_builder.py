"""Graph growth, diagonalization, mirroring, and the systematic generator."""

import dataclasses
import hashlib
import itertools
import json
import pickle
import random
import re
import sys
from collections import Counter

import numpy as np
import pytest

from conftest import (CODE11_PARAMS, SMALL_PARAMS, TINY_PARAMS, UNFIT_PROFILES,
                      packed_matrix, tiny_dist)
from wzkit import builder
from wzkit.builder import (BFS_DEPTH_CAP, CodeParams, CompoundCode,
                           ParamValidationError, _check_build,
                           _check_degree_sequence,
                           _node_degree_sequence, _peg_grow,
                           _repair_full_rank, all_one_diagonalize,
                           assemble_compound, build_compound_code,
                           empirical_fractions, hopcroft_karp, load_code,
                           peg_generate, save_code, validate_params)
from wzkit.codec import ExperimentConfig, run_experiment
from wzkit.degrees import DegreeDistribution
from wzkit.gf2 import (BitMatrix, BitVector, EchelonBasis,
                       RankDeficiencyError, ShapeError, _bit_indices, mat_mul,
                       mul_vec, permute, rank)


def degree_multisets(a):
    rows = Counter(len(sup) for sup in a.row_support)
    cols = Counter()
    for sup in a.row_support:
        for c in sup:
            cols[c] += 1
    return rows, Counter(cols.values())


def reference_empirical_fractions(a):
    """The dict-loop empirical_fractions the edge-array version replaced."""
    col_deg = {}
    for sup in a.row_support:
        for c in sup:
            col_deg[c] = col_deg.get(c, 0) + 1
    edges = sum(col_deg.values())
    lam = {}
    for d in col_deg.values():
        lam[d] = lam.get(d, 0) + d
    rho = {}
    for sup in a.row_support:
        d = len(sup)
        if d:
            rho[d] = rho.get(d, 0) + d
    return ({d: v / edges for d, v in sorted(lam.items())},
            {d: v / edges for d, v in sorted(rho.items())})


class TestCodeParams:
    @pytest.mark.parametrize("key, value", [
        ("n", 96.0), ("m", 92.5), ("k2", True)])
    def test_integer_fields_reject_other_numbers(self, key, value):
        with pytest.raises(TypeError,
                           match=f"{key} must be an integer, got {value}"):
            dataclasses.replace(TINY_PARAMS, **{key: value})
        same = np.int64(getattr(TINY_PARAMS, key))
        assert dataclasses.replace(TINY_PARAMS, **{key: same}) == TINY_PARAMS

    def test_fields_are_the_block_geometry(self):
        assert [f.name for f in dataclasses.fields(CodeParams)] == [
            "n", "m", "k1", "k2"]

    def test_retired_keywords_are_discarded(self):
        given = dataclasses.asdict(TINY_PARAMS)
        old = CodeParams(**given, zeta=4, poisson_lam=6.0, poisson_imax=20)
        assert old == TINY_PARAMS
        assert repr(old) == repr(TINY_PARAMS)
        assert dataclasses.asdict(old) == given
        assert pickle.loads(pickle.dumps(old)) == TINY_PARAMS

    def test_manifest_with_a_float_count_fails_to_load(self, tiny_code,
                                                       tmp_path):
        save_code(tiny_code, tmp_path / "code")
        path = tmp_path / "code" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["params"]["n"] = 96.0
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="^manifest.json: params: n must "
                                             "be an integer, got 96.0$"):
            load_code(tmp_path / "code")


class TestValidateParams:
    def test_valid_geometry_passes(self):
        assert validate_params(SMALL_PARAMS).ok

    def test_odd_outer_checks_flagged(self):
        p = CodeParams(n=200, m=190, k1=40, k2=121)
        report = validate_params(p)
        assert [c.name for c in report.failures()] == ["outer_checks_even"]

    def test_reverse_geometry_fails_on_syndrome_capacity(self):
        p = CodeParams(n=3000, m=2000, k1=548, k2=1212)
        names = [c.name for c in validate_params(p).failures()]
        assert names == ["syndrome_capacity"]

    def test_every_check_is_its_own_inequality(self):
        # each check fails alone somewhere, and no two pass and fail together
        # on every geometry: a duplicate inequality would report one fault
        # twice, and one the others imply would never fail alone
        rng = random.Random(2024)
        outcomes = []
        while len(outcomes) < 5000:
            try:
                p = CodeParams(*(rng.randint(1, 60) for _ in range(4)))
            except ValueError:
                continue
            outcomes.append(tuple(c.ok for c in validate_params(p).checks))
        columns = list(zip(*outcomes))
        names = [c.name for c in validate_params(SMALL_PARAMS).checks]
        for i, name in enumerate(names):
            assert any(not row[i] and sum(row) == len(row) - 1
                       for row in outcomes), f"{name} never fails alone"
        for i, j in itertools.combinations(range(len(columns)), 2):
            assert columns[i] != columns[j], (
                f"{names[i]} and {names[j]} agree on every geometry")

    def test_build_raises_on_invalid(self):
        p = CodeParams(n=3000, m=2000, k1=548, k2=1212)
        with pytest.raises(ParamValidationError):
            build_compound_code(p, tiny_dist(), seed=0)

    @pytest.mark.parametrize("dist_id, params, detail", UNFIT_PROFILES,
                             ids=[u[0] for u in UNFIT_PROFILES])
    def test_build_refuses_a_profile_that_cannot_fit(
            self, catalog, monkeypatch, dist_id, params, detail):
        """The degree sequences are checked before growth, so the build
        fails as a validation failure and starts no growth."""
        grown = []
        monkeypatch.setattr(builder, "_peg_grow",
                            lambda *a: grown.append(a))
        assert validate_params(params).ok
        with pytest.raises(ParamValidationError,
                           match="parameter validation failed: profile_fit$"
                           ) as e:
            build_compound_code(params, catalog[dist_id].dist, seed=0)
        assert isinstance(e.value, ValueError) and grown == []
        assert [(c.name, c.detail) for c in e.value.report.failures()] == [
            ("profile_fit", detail)]

    def test_a_fitting_profile_adds_no_check(self, catalog):
        assert (_check_build(SMALL_PARAMS, catalog["code3"].dist)
                == validate_params(SMALL_PARAMS))
        # an invalid geometry reports its checks alone
        p = CodeParams(n=3000, m=2000, k1=548, k2=1212)
        assert _check_build(p, tiny_dist()) == validate_params(p)


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

    def test_gapped_check_degrees_realize_every_edge(self):
        # check degrees 4 and 7 once made the bucket moves oscillate
        gapped = DegreeDistribution(((2, 0.6), (3, 0.4)), ((4, 0.5), (7, 0.5)))
        for n_vars in range(1000, 1010):
            var_degs = _node_degree_sequence(gapped.lambda_terms, n_vars)
            seq = _check_degree_sequence(gapped.rho_terms, 400, sum(var_degs))
            assert sum(seq) == sum(var_degs) and min(seq) >= 1
        a = peg_generate(400, 1003, gapped, seed=2)
        assert (a.rows, a.cols) == (400, 1003)

    def test_variable_wider_than_the_check_count_fails(self):
        # the profile implies one check, which cannot take a degree-5
        # variable's five distinct edges
        dist = DegreeDistribution(((5, 1.0),), ((10, 1.0),))
        with pytest.raises(ValueError, match="^a degree-5 variable needs 5 "
                                             "distinct checks but only 1 "
                                             "exist$"):
            _peg_grow(1, 2, dist, 1)


def reference_check_degree_sequence(terms, n_checks, n_edges):
    """_check_degree_sequence as it stood with a step guard in place of the
    repeated-split stop; kept as its reference where it succeeds."""
    degrees = [d for d, _ in terms]
    weights = [f / d for d, f in terms]
    scale = sum(weights)
    counts = builder._largest_remainder([w / scale for w in weights], n_checks)
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
                    counts[i] -= 1
                    counts[i + 1] += 1
                    diff -= degrees[i + 1] - degrees[i]
                    moved = True
                    break
        else:
            for i in range(len(degrees) - 1, 0, -1):
                if counts[i] > 0:
                    counts[i] -= 1
                    counts[i - 1] += 1
                    diff += degrees[i] - degrees[i - 1]
                    moved = True
                    break
        if not moved:
            break
    seq = []
    for d, c in zip(degrees, counts):
        seq.extend([d] * c)
    if diff > 0:
        seq.append(diff)
    elif diff < 0:
        for i in range(len(seq)):
            if seq[i] + diff >= 1:
                seq[i] += diff
                diff = 0
                break
        if diff:
            raise ValueError(f"cannot realize check degrees: residual {diff} edges")
    return seq


def test_check_degree_sequence_matches_reference_where_it_succeeds():
    rng = random.Random(172)
    solved = 0
    for _ in range(2000):
        degrees = sorted(rng.sample(range(2, 12), rng.randint(1, 4)))
        terms = tuple((d, rng.random() + 0.05) for d in degrees)
        total = sum(f for _, f in terms)
        terms = tuple((d, f / total) for d, f in terms)
        n_checks = rng.randint(1, 60)
        n_edges = rng.randint(n_checks, 12 * n_checks)
        try:
            want = reference_check_degree_sequence(terms, n_checks, n_edges)
        except ValueError:
            want = None
        try:
            got = _check_degree_sequence(terms, n_checks, n_edges)
        except ValueError:
            assert want is None
            continue
        assert sum(got) == n_edges and min(got) >= 1
        if want is not None:
            assert got == want
            solved += 1
    assert solved > 1000


def digest(a):
    return hashlib.sha256(repr(a.row_support).encode()).hexdigest()[:16]


def reference_peg(n_checks, n_vars, dist, seed, levels=None, exits=None):
    """peg_generate written plainly: adjacency as Python-int bitmasks, a new
    BFS for every edge after a variable's first, one level at a time, bit by
    bit.  Same RNG calls, so same output.

    When levels is a list, each BFS appends the number of levels it ran.
    When exits is a list, each variable appends one letter per edge: "-"
    for its first, else how its BFS stopped, "p" on seeing every pool check,
    "c" at BFS_DEPTH_CAP levels, "e" on an empty wave; upper case when the
    edge spilled."""
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
        kinds = ""
        for k in range(var_degs[v]):
            pool = under & ~adj_var[v] or every & ~adj_var[v]
            cand = pool
            kind = "-"
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
                if levels is not None:
                    levels.append(depth)
                kind = ("e" if pool & ~seen_c and depth < BFS_DEPTH_CAP
                        else "c" if pool & ~seen_c else "p")
            kinds += kind.upper() if under & pool != pool else kind
            c = min(_bit_indices(cand), key=lambda c: (deg[c], c))
            adj_var[v] |= 1 << c
            adj_check[c] |= 1 << v
            deg[c] += 1
            if deg[c] == chk_degs[c]:
                under &= ~(1 << c)
        if exits is not None:
            exits.append(kinds)
    rows = adj_check
    if gen_checks > n_checks:
        rows = [rows[i] for i in sorted(rng.sample(range(gen_checks), n_checks))]
    rows = reference_repair_full_rank(rows, n_vars, rng)
    return packed_matrix(n_checks, n_vars, rows)


def reference_repair_full_rank(rows, n_vars, rng):
    """The full-rank repair on packed-int rows, as _peg_grow ran it before
    it repaired sparse rows: same RNG calls, so same rows.  Returns the
    repaired rows; rows is updated in place."""
    for attempt in range(builder.PEG_REPAIR_ATTEMPTS + 1):
        basis = EchelonBasis()
        dependent = [i for i, bits in enumerate(rows) if not basis.insert(bits)]
        if not dependent:
            return rows
        if attempt == builder.PEG_REPAIR_ATTEMPTS:
            raise RankDeficiencyError(
                f"full-rank repair failed: rank {len(basis)} of {len(rows)}",
                len(basis))
        for idx in dependent:
            weight = max(rows[idx].bit_count(), 1)
            rows[idx] = sum(1 << c for c in rng.sample(range(n_vars), weight))


class TestPegGolden:
    """PEG output pinned bit for bit, so a faster growth loop cannot drift."""

    def test_tiny_profile(self):
        assert digest(peg_generate(20, 40, tiny_dist(), seed=1)) == "2a5c6ef1ffe071a5"

    def test_code3_fallback_branches(self, catalog):
        a, counts = _peg_grow(85, 100, catalog["code3"].dist, seed=11)
        assert (counts.spills, counts.depth_cap_exits, counts.trimmed_rows) == \
            (12, 31, 3)
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

    def test_levels_read_the_widest_check_after_spills(self, catalog,
                                                       monkeypatch):
        # the spills above all come last, so no level runs after them.  With
        # every capacity halved (10 -> 5) half the edges spill, and spills
        # make new widest checks and widen the table while levels still run.
        # Each level must read the table's rows up to the widest check.
        check_degrees = _check_degree_sequence

        def halved(terms, n_checks, n_edges):
            return [d // 2 for d in check_degrees(terms, n_checks, n_edges)]

        monkeypatch.setattr(builder, "_check_degree_sequence", halved)
        monkeypatch.setitem(globals(), "_check_degree_sequence", halved)
        dist = catalog["regular-3-10"].dist
        want = reference_peg(30, 100, dist, 3)
        level_fn = builder._peg_level
        heights = Counter()

        def spy(wave, level, max_wave, graph, *rest):
            chk_vars, _, filled = graph
            assert len(filled) == max(map(len, chk_vars))
            wave = level_fn(wave, level, max_wave, graph, *rest)
            heights["L" if type(wave) is list else "M", len(filled)] += 1
            return wave

        monkeypatch.setattr(builder, "_peg_level", spy)
        all_counts = []
        for list_edges, paths in ((builder.PEG_LIST_LEVEL_EDGES, "LM"),
                                  (0, "M"), (10 ** 9, "L")):
            monkeypatch.setattr(builder, "PEG_LIST_LEVEL_EDGES", list_edges)
            heights.clear()
            a, counts = _peg_grow(30, 100, dist, 3)
            assert a == want, list_edges
            assert counts.spills and counts.widenings
            assert {path for path, _ in heights} == set(paths)
            # levels ran on a table taller than every capacity, that is
            # after a widening spill
            assert any(h > 5 for _, h in heights), list_edges
            all_counts.append(counts)
        assert all_counts[1] == all_counts[0] == all_counts[2]

    def test_matches_plain_reference(self, catalog, monkeypatch):
        # every check of the last profile has capacity 5, so its spills go
        # past the widest check and widen the check-to-variable table
        uniform = DegreeDistribution(catalog["code3"].dist.lambda_terms,
                                     ((5, 1.0),))
        profiles = [(catalog[cid].dist, 100, 220) for cid in (
            "code1", "code3", "code11", "code13", "code14", "regular-3-10")]
        profiles.append((uniform, 80, 130))
        rng = random.Random(2024)
        cases = []
        for dist, low_vars, high_vars in profiles:
            done = 0
            while done < 2:
                n_vars = rng.randrange(low_vars, high_vars)
                var_degs = _node_degree_sequence(dist.lambda_terms, n_vars)
                design = round(sum(var_degs)
                               * sum(f / d for d, f in dist.rho_terms))
                low = max(max(var_degs), design // 2)
                if low > design:
                    continue
                done += 1
                n_checks = rng.randrange(low, design + 1)
                seed = rng.randrange(1000)
                cases.append((n_checks, n_vars, dist, seed))
        want = [reference_peg(*case) for case in cases]
        # the default level rule, every level on numpy masks, every level
        # on adjacency lists: same matrices, same PegCounts
        all_counts = []
        for list_edges in (builder.PEG_LIST_LEVEL_EDGES, 0, 10 ** 9):
            monkeypatch.setattr(builder, "PEG_LIST_LEVEL_EDGES", list_edges)
            reached = Counter()
            all_counts.append([])
            for case, a_ref in zip(cases, want):
                a, counts = _peg_grow(*case)
                assert a == a_ref, (list_edges, case[1], case[3])
                reached.update(dataclasses.asdict(counts))
                all_counts[-1].append(counts)
            # the cases take every branch of the growth loop
            for branch in ("pool_exits", "depth_cap_exits",
                           "empty_wave_exits", "spills", "widenings",
                           "trimmed_rows"):
                assert reached[branch] > 0, (list_edges, branch)
        assert all_counts[1] == all_counts[0] == all_counts[2]

    def test_bfs_switches_paths_both_ways(self, catalog, monkeypatch):
        # under the default rule some BFS of this growth walks lists, then
        # masks, then lists again; the output still equals the reference.
        # A level walked on lists returns its wave as a list.
        dist = catalog["code3"].dist
        want = reference_peg(85, 100, dist, 11)
        paths = []
        level_fn = builder._peg_level

        def spy(wave, level, *rest):
            if level == 1:
                paths.append("")
            wave = level_fn(wave, level, *rest)
            paths[-1] += "L" if type(wave) is list else "M"
            return wave

        monkeypatch.setattr(builder, "_peg_level", spy)
        assert _peg_grow(85, 100, dist, seed=11)[0] == want
        assert any("ML" in p[p.find("LM"):] for p in paths if "LM" in p)

    @pytest.mark.parametrize("cid, n_checks, n_vars, seed, pattern", [
        # relaxed pool exits, then a spill and a relaxation while spilling
        ("code13", 15, 21, 255, r"^..[a-z]*p[a-z]*[A-Z]"),
        # depth-cap exits, then a pool exit
        ("code14", 25, 45, 318, r"^-.[a-z]*c[a-z]*p"),
        # empty-wave exits, then a pool exit
        ("code14", 26, 47, 175, r"^-.[a-z]*e[a-z]*p"),
    ], ids=["spill-after-relaxed-pool", "cap-then-pool", "empty-then-pool"])
    def test_relaxed_exits_match_reference(self, catalog, monkeypatch, cid,
                                           n_checks, n_vars, seed, pattern):
        """Inside one variable, the check distances relaxed from its newest
        check give every exit and candidate set a new BFS would."""
        dist = catalog[cid].dist
        exits = []
        want = reference_peg(n_checks, n_vars, dist, seed, exits=exits)
        assert any(re.search(pattern, kinds) for kinds in exits)
        letters = Counter("".join(exits).lower())
        for list_edges in (builder.PEG_LIST_LEVEL_EDGES, 0, 10 ** 9):
            monkeypatch.setattr(builder, "PEG_LIST_LEVEL_EDGES", list_edges)
            a, counts = _peg_grow(n_checks, n_vars, dist, seed)
            assert a == want, list_edges
            assert (counts.pool_exits, counts.depth_cap_exits,
                    counts.empty_wave_exits) == \
                (letters["p"], letters["c"], letters["e"])

    def test_growth_runs_fewer_levels_than_a_bfs_per_edge(self, catalog,
                                                          monkeypatch):
        dist = catalog["code11"].dist
        levels = []
        want = reference_peg(59, 200, dist, 11, levels)
        ran = []
        level_fn = builder._peg_level
        monkeypatch.setattr(builder, "_peg_level",
                            lambda *args: ran.append(args[1]) or level_fn(*args))
        assert _peg_grow(59, 200, dist, seed=11)[0] == want
        assert len(ran) < sum(levels)

    def test_cli_geometry_build(self, cli_code):
        assert (digest(cli_code.h), digest(cli_code.g1)) == (
            "6423cbf341a46fe5", "4d0afca5466e3c0f")

    def test_code11_workload_build(self, catalog):
        # the code11-p05 workload's code, seed 20260815
        code = build_compound_code(CODE11_PARAMS, catalog["code11"].dist,
                                   seed=20260815, dist_id="code11")
        assert digest(code.h) == "0c23388fabfe75ea"


class TestAllOneDiagonalize:
    def test_hundred_random_full_rank(self):
        rng = random.Random(808)
        done = 0
        while done < 100:
            a = BitMatrix(8, 14, [[c for c in range(14) if rng.random() < 0.5]
                                  for _ in range(8)])
            if rank(a) < 8:
                continue
            b = permute(a, range(a.rows), all_one_diagonalize(a))
            assert all(i in sup for i, sup in enumerate(b.row_support))
            done += 1

    def test_multisets_unchanged(self):
        rng = random.Random(17)
        a = BitMatrix(8, 14, [[c for c in range(14) if rng.random() < 0.5]
                              for _ in range(8)])
        while rank(a) < 8:
            a = BitMatrix(8, 14, [[c for c in range(14) if rng.random() < 0.5]
                                  for _ in range(8)])
        b = permute(a, range(a.rows), all_one_diagonalize(a))
        assert degree_multisets(a) == degree_multisets(b)

    def test_rank_deficiency_reports_the_full_rank(self):
        # the dependent row 1 comes before the independent row 2
        a = BitMatrix(3, 5, [[0, 1], [0, 1], [2, 3]])
        with pytest.raises(RankDeficiencyError) as e:
            all_one_diagonalize(a)
        assert e.value.rank == rank(a) == 2

    def test_rejects_more_rows_than_columns(self):
        with pytest.raises(ValueError, match="need rows <= cols, got 3x2"):
            all_one_diagonalize(BitMatrix(3, 2, [[0], [1], [0, 1]]))


class TestRepairFullRank:
    # rows 2, 3 and 4 are dependent: a duplicate of row 0, an empty row and
    # the XOR of rows 0 and 1; six rows over six columns leave no slack, so
    # random replacements are often dependent themselves
    PLANTED = [[0, 1], [2, 3], [0, 1], [], [0, 1, 2, 3], [4]]

    @pytest.mark.parametrize("seed", range(5))
    def test_planted_dependencies_match_reference(self, seed, monkeypatch):
        want_rng, got_rng = random.Random(seed), random.Random(seed)
        want = reference_repair_full_rank(
            [sum(1 << c for c in row) for row in self.PLANTED], 6, want_rng)
        views = []
        echelon = BitMatrix.echelon
        monkeypatch.setattr(BitMatrix, "echelon",
                            lambda a: views.append(echelon(a)) or views[-1])
        got = _repair_full_rank([list(row) for row in self.PLANTED], 6,
                                got_rng)
        assert views[0][1] == (2, 3, 4)
        # each seed's first replacements leave a dependent row
        assert len(views) >= 2
        basis = EchelonBasis()
        assert all(basis.insert(bits) for bits in want)
        assert views[-1] == (tuple(basis.pivots()), ())
        # the repaired matrix comes with its elimination cached
        assert object.__getattribute__(got, "_echelon") is views[-1]
        assert got.bitrows() == tuple(want)
        assert got_rng.random() == want_rng.random()

    def test_rank_deficiency_past_the_last_attempt(self):
        rows = [[0], [1], [0, 1]]    # three rows over two columns
        with pytest.raises(RankDeficiencyError) as want:
            reference_repair_full_rank([0b01, 0b10, 0b11], 2,
                                       random.Random(1))
        with pytest.raises(RankDeficiencyError) as got:
            _repair_full_rank(rows, 2, random.Random(1))
        assert str(got.value) == str(want.value)
        assert got.value.rank == want.value.rank == 2


class TestOneElimination:
    @pytest.fixture
    def inserts(self, monkeypatch):
        """Rows inserted into each EchelonBasis made while it is active."""
        made = []
        init, insert = EchelonBasis.__init__, EchelonBasis.insert

        def counting_init(basis, *args, **kwargs):
            made.append([basis, 0])
            init(basis, *args, **kwargs)

        def counting_insert(basis, bits):
            next(m for m in made if m[0] is basis)[1] += 1
            return insert(basis, bits)

        monkeypatch.setattr(EchelonBasis, "__init__", counting_init)
        monkeypatch.setattr(EchelonBasis, "insert", counting_insert)
        return made

    def test_build_eliminates_the_half_once(self, inserts):
        build_compound_code(TINY_PARAMS, tiny_dist(), seed=5)
        assert [n for _, n in inserts] == [TINY_PARAMS.half_rows]

    def test_rank_and_diagonalization_reuse_the_view(self, inserts):
        a = BitMatrix(3, 5, [[0, 1], [1, 2], [3, 4]])
        assert rank(a) == 3
        assert len(inserts) == 1
        assert all_one_diagonalize(a) == all_one_diagonalize(a)
        assert rank(a) == 3
        assert [n for _, n in inserts] == [3]


def reference_hopcroft_karp(adjacency, n_left, n_right):
    """hopcroft_karp with the textbook recursive DFS."""
    inf = float("inf")
    match_l, match_r = [-1] * n_left, [-1] * n_right
    dist = [0.0] * n_left

    def bfs():
        queue = [u for u in range(n_left) if match_l[u] == -1]
        for u in range(n_left):
            dist[u] = 0.0 if match_l[u] == -1 else inf
        found = False
        for u in queue:
            for v in adjacency[u]:
                w = match_r[v]
                if w == -1:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u):
        for v in adjacency[u]:
            w = match_r[v]
            if w == -1 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u], match_r[v] = v, u
                return True
        dist[u] = inf
        return False

    while bfs():
        for u in range(n_left):
            if match_l[u] == -1:
                dfs(u)
    return match_l


class TestHopcroftKarp:
    def test_augmenting_path_longer_than_recursion_limit(self):
        # the first phase matches left i to right i + 1 and strands the last
        # left vertex; the only augmenting path then runs through every vertex
        n = sys.getrecursionlimit() + 100
        adjacency = [[i + 1, i] for i in range(n - 1)] + [[n - 1]]
        assert hopcroft_karp(adjacency, n, n) == list(range(n))

    def test_matches_recursive_reference(self):
        rng = random.Random(31)
        for _ in range(300):
            n_left, n_right = rng.randrange(1, 30), rng.randrange(1, 30)
            density = rng.random() * 0.3
            adjacency = [rng.sample(range(n_right), k=sum(
                rng.random() < density for _ in range(n_right)))
                for _ in range(n_left)]
            assert hopcroft_karp(adjacency, n_left, n_right) == \
                reference_hopcroft_karp(adjacency, n_left, n_right)


class TestAssembleCompound:
    def test_worked_layout(self):
        # mirroring a 2x3 half with diagonal ones gives the block pattern
        # (e_i | a0_i) on top and (a0_j | e_j) below
        half = BitMatrix(2, 3, [[0, 1], [1, 2]])
        params = CodeParams(n=6, m=6, k1=2, k2=2)
        h = assemble_compound(half, params)
        assert h.row_support == ((0, 4), (1, 5), (1, 3), (2, 4))
        # the quantization check is the top n - m + k1 = 2 rows
        code = CompoundCode(params, h, seed=0)
        assert code.h1.row_support == ((0, 4), (1, 5))
        assert code.h2.row_support == ((1, 3), (2, 4))
        assert code.h1.cols == code.h2.cols == 6

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
        params = CodeParams(n=6, m=5, k1=1, k2=2)
        with pytest.raises(ValueError):
            assemble_compound(half, params)

    def test_rejects_half_of_the_wrong_shape(self):
        half = BitMatrix(2, 4, [[0], [1]])
        with pytest.raises(ValueError, match="half matrix must be 2x3, got "
                                             "2x4"):
            assemble_compound(half, CodeParams(n=6, m=6, k1=2, k2=2))


class TestGeneratorDesign:
    def test_orthogonal_and_full_rank(self, small_code):
        prod = mat_mul(small_code.h1, BitMatrix(
            small_code.g1.cols, small_code.g1.rows,
            [[r for r in range(small_code.g1.rows)
              if c in small_code.g1.row_support[r]]
             for c in range(small_code.g1.cols)]))
        assert all(not sup for sup in prod.row_support)
        assert rank(small_code.g1) == SMALL_PARAMS.info_rows

    def test_mid_width_is_the_free_middle_block(self):
        assert TINY_PARAMS.mid_width == 72 - 48
        assert SMALL_PARAMS.mid_width == 150 - 100


def reference_b_columns(h, params):
    """B's columns by an argsort of h1's tail entries, as _b_columns built
    them before it transposed h1; kept as its reference."""
    r = params.quant_checks
    o_end = r + params.info_rows - params.n // 2
    rows, cols = h.row_block(0, r).edges()
    tail = cols >= o_end
    width = h.cols - o_end
    return BitMatrix.from_arrays(
        width, r, np.bincount(cols[tail] - o_end, minlength=width),
        rows[tail][np.argsort(cols[tail], kind="stable")])


def reference_g1(code):
    """g1 from Python tuples, as CompoundCode built it before it shared one
    construction with the quantizer's g_sub; kept as its reference."""
    p = code.params
    r, mid = p.quant_checks, p.info_rows - p.n // 2
    rows = [(r + j,) for j in range(mid)]
    rows += [cols + (r + mid + c,) for c, cols
             in enumerate(reference_b_columns(code.h, p).row_support)]
    return BitMatrix(p.info_rows, p.n, rows)


@pytest.mark.parametrize("code", ["tiny_code", "small_code"])
def test_b_columns_and_g1_match_references(code, request):
    code = request.getfixturevalue(code)
    assert code.b_columns == reference_b_columns(code.h, code.params)
    assert code.g1 == reference_g1(code)


class TestBuildRoundtrip:
    def test_seed_determinism(self):
        a = build_compound_code(TINY_PARAMS, tiny_dist(), seed=5)
        b = build_compound_code(TINY_PARAMS, tiny_dist(), seed=5)
        assert (a.h, a.h1, a.h2, a.g1) == (b.h, b.h1, b.h2, b.g1)

    @pytest.mark.parametrize("seed", [None, b"x", 1.5, True, "5"])
    def test_seed_must_be_an_integer(self, monkeypatch, seed):
        """A seed save_code cannot record, or that random.Random would draw
        from OS entropy, fails before any growth."""
        grown = []
        monkeypatch.setattr(builder, "peg_generate",
                            lambda *a: grown.append(a))
        with pytest.raises(TypeError, match="^seed must be an integer, got "):
            build_compound_code(TINY_PARAMS, tiny_dist(), seed=seed)
        assert grown == []

    @pytest.mark.parametrize("dist_id", [5, None, b"tiny"])
    def test_dist_id_must_be_a_string(self, monkeypatch, dist_id):
        """load_code rejects a manifest whose dist_id is no string, so a
        build does not make one."""
        grown = []
        monkeypatch.setattr(builder, "peg_generate",
                            lambda *a: grown.append(a))
        with pytest.raises(TypeError, match="^dist_id must be a string, got "):
            build_compound_code(TINY_PARAMS, tiny_dist(), seed=5,
                                dist_id=dist_id)
        assert grown == []

    def test_numpy_integer_seed_builds_the_int_seed_code(self, tiny_code,
                                                         tmp_path):
        code = build_compound_code(TINY_PARAMS, tiny_dist(), seed=np.int64(5),
                                   dist_id="tiny")
        assert code == tiny_code and type(code.seed) is int
        save_code(code, tmp_path / "code")
        assert json.loads(
            (tmp_path / "code" / "manifest.json").read_text())["seed"] == 5

    @pytest.mark.parametrize("seed, dist_id", [
        (b"x", "tiny"), (1.5, "tiny"), (True, "tiny"), (5, None), (5, b"tiny")])
    def test_code_rejects_what_save_code_cannot_write(self, tiny_code,
                                                      tmp_path, seed, dist_id):
        with pytest.raises(TypeError, match="^(seed|dist_id) must be "):
            save_code(CompoundCode(TINY_PARAMS, tiny_code.h, seed, dist_id),
                      tmp_path / "code")
        assert not (tmp_path / "code").exists()

    def test_code_stores_a_numpy_integer_seed_as_an_int(self, tiny_code):
        code = CompoundCode(TINY_PARAMS, tiny_code.h, np.int64(5), "tiny")
        assert type(code.seed) is int and code == tiny_code

    @staticmethod
    def with_entry(h, row, col):
        """h with one more one, at (row, col)."""
        rows = [list(sup) for sup in h.row_support]
        rows[row].append(col)
        return BitMatrix(h.rows, h.cols, rows)

    @pytest.mark.parametrize("case, error, message", [
        ("shape", ShapeError, "^h is 3x5, expected 84x96$"),
        ("geometry", ParamValidationError, "syndrome_capacity$"),
        ("identity", ValueError, "^row 1: leading block is not the identity$"),
        ("middle", ValueError, "^row 0: middle zero block is populated$"),
    ], ids=["shape", "geometry", "identity", "middle"])
    def test_code_is_checked_where_it_is_made(self, tiny_code, tmp_path,
                                              case, error, message):
        """A hand-made code that load_code would refuse cannot be made, so
        save_code never writes it."""
        params, h = TINY_PARAMS, tiny_code.h
        if case == "shape":
            h = BitMatrix(3, 5, [[0], [1], [2]])
        elif case == "geometry":
            params = CodeParams(n=3000, m=2000, k1=548, k2=1212)
        elif case == "identity":
            h = self.with_entry(h, 1, 0)
        else:
            h = self.with_entry(h, 0, TINY_PARAMS.quant_checks)
        with pytest.raises(error, match=message):
            save_code(CompoundCode(params, h, 5, "tiny"), tmp_path / "code")
        assert not (tmp_path / "code").exists()

    def test_random_small_geometries_round_trip(self, tmp_path):
        rng = random.Random(34)
        built = []
        while len(built) < 4:
            try:
                p = CodeParams(rng.randrange(8, 61, 2),
                               *(rng.randint(1, 60) for _ in range(3)))
            except ValueError:
                continue
            if not validate_params(p).ok:
                continue
            code = build_compound_code(p, tiny_dist(), seed=rng.randrange(99),
                                       dist_id="tiny")
            save_code(code, tmp_path / str(len(built)))
            loaded = load_code(tmp_path / str(len(built)))
            assert loaded == code and loaded.b_columns == code.b_columns
            built.append(p)
        assert len(set(built)) == 4

    def test_numpy_integer_geometry_builds_saves_and_runs(self, tiny_code,
                                                          tmp_path):
        params = CodeParams(*map(np.int64, dataclasses.astuple(TINY_PARAMS)))
        assert [type(v) for v in dataclasses.astuple(params)] == [int] * 4
        code = build_compound_code(params, tiny_dist(), seed=5,
                                   dist_id="tiny")
        assert code == tiny_code
        save_code(code, tmp_path / "code")
        assert load_code(tmp_path / "code") == code
        config = ExperimentConfig(code_id="tiny", params=params, p=0.25,
                                  trials=2, seed=99)
        assert run_experiment(code, config, workers=1) == run_experiment(
            tiny_code, dataclasses.replace(config, params=TINY_PARAMS),
            workers=1)

    def test_save_code_writes_nothing_when_the_manifest_fails(self, tiny_code,
                                                              tmp_path):
        code = CompoundCode(TINY_PARAMS, tiny_code.h, 5, "tiny")
        object.__setattr__(code, "seed", b"x")   # past the constructor's check
        with pytest.raises(TypeError, match="JSON serializable"):
            save_code(code, tmp_path / "code")
        assert not (tmp_path / "code").exists()

    def test_save_load_roundtrip(self, tiny_code, tmp_path):
        save_code(tiny_code, tmp_path / "code")
        assert {f.name for f in (tmp_path / "code").iterdir()} == {
            "manifest.json", "h.txt"}
        loaded = load_code(tmp_path / "code")
        assert loaded.params == tiny_code.params
        assert (loaded.h, loaded.h1, loaded.h2, loaded.g1) == \
            (tiny_code.h, tiny_code.h1, tiny_code.h2, tiny_code.g1)

    def test_saved_files_pinned(self, cli_code, tmp_path):
        """The bytes save_code writes for the cli-code3-p05 code, which
        digest does not see."""
        save_code(cli_code, tmp_path)
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in ("h.txt", "manifest.json")} == {
            "h.txt": "f81ed3a2eb22bd8a3f9dd560cb55b1d1"
                     "ac7a9ff5a829a8cecf1a4cc0434cb0f2",
            "manifest.json": "91a02c49964716202a856fbaad77cae7"
                             "1415360b5bf61a1c174b4ed018a174e6"}

    def test_load_ignores_stale_row_slice_files(self, tiny_code, tmp_path):
        # older directories also hold h1.txt and h2.txt; even when they no
        # longer match h, the code loads from h.txt alone
        save_code(tiny_code, tmp_path / "code")
        for name in ("h1.txt", "h2.txt"):
            (tmp_path / "code" / name).write_text("1 96\n1\n\n")
        assert load_code(tmp_path / "code") == tiny_code

    @pytest.mark.parametrize("name", ["h"])
    def test_load_rejects_matrix_missing_a_row(self, tiny_code, tmp_path,
                                               name):
        save_code(tiny_code, tmp_path / "code")
        path = tmp_path / "code" / f"{name}.txt"
        lines = path.read_text().split("\n")
        rows, cols = map(int, lines[0].split())
        lines[0] = f"{rows - 1} {cols}"
        del lines[rows]
        path.write_text("\n".join(lines))
        with pytest.raises(ShapeError, match=f"^{name} is {rows - 1}x96, "
                           f"expected {rows}x96$"):
            load_code(tmp_path / "code")

    @pytest.mark.parametrize("name", ["h"])
    def test_load_rejects_matrix_with_an_extra_row(self, tiny_code, tmp_path,
                                                   name):
        save_code(tiny_code, tmp_path / "code")
        path = tmp_path / "code" / f"{name}.txt"
        text = path.read_text()
        rows = int(text.split()[0])
        path.write_text(text.rstrip("\n") + "\n5 17\n\n")
        with pytest.raises(ValueError,
                           match=f"{name}.txt: line {rows + 2}: row beyond"):
            load_code(tmp_path / "code")

    @pytest.mark.parametrize("header", ["84 x", "84.0 96", "84 9_6"])
    def test_load_names_a_bad_header(self, tiny_code, tmp_path, header):
        save_code(tiny_code, tmp_path / "code")
        path = tmp_path / "code" / "h.txt"
        lines = path.read_text().split("\n")
        lines[0] = header
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=f"^h.txt: bad header line: "
                                             f"{re.escape(repr(header))}$"):
            load_code(tmp_path / "code")

    def test_load_validates_manifest_geometry(self, tiny_code, tmp_path):
        save_code(tiny_code, tmp_path / "code")
        path = tmp_path / "code" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["params"]["n"] = 95
        path.write_text(json.dumps(manifest))
        with pytest.raises(ParamValidationError, match="n_even"):
            load_code(tmp_path / "code")

    def test_load_rejects_outer_matrix_that_disagrees(self, tiny_code, tmp_path):
        save_code(tiny_code, tmp_path / "code")
        path = tmp_path / "code" / "h.txt"
        lines = path.read_text().split("\n")
        row = [int(tok) for tok in lines[1].split()]
        free = next(c for c in range(1, TINY_PARAMS.n + 1) if c not in row)
        lines[1] = " ".join(str(c) for c in sorted(row[1:] + [free]))
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError,
                           match="leading block is not the identity"):
            load_code(tmp_path / "code")

    def test_load_rejects_populated_middle_block(self, tiny_code, tmp_path):
        save_code(tiny_code, tmp_path / "code")
        # column 26 (1-based) lies in the quantization check's zero middle block
        path = tmp_path / "code" / "h.txt"
        lines = path.read_text().split("\n")
        row = [int(tok) for tok in lines[1].split()]
        assert 26 not in row
        lines[1] = " ".join(str(c) for c in sorted(row + [26]))
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match="middle zero block"):
            load_code(tmp_path / "code")

    def test_rates(self, tiny_code):
        r1, r2, rt = tiny_code.params.rates
        assert r1 == TINY_PARAMS.info_rows / TINY_PARAMS.n
        assert rt == TINY_PARAMS.k2 / TINY_PARAMS.n
        assert abs(r1 - r2 - rt) < 1e-12

    def test_empirical_fractions_match_profile_on_exact_fit(self):
        a = peg_generate(14, 16, tiny_dist(), seed=3)
        lam, rho = empirical_fractions(a)
        assert set(lam) == {3} and abs(lam[3] - 1.0) < 1e-12
        assert set(rho) == {3, 4}

    def test_empirical_fractions_match_reference(self):
        rng = np.random.default_rng(17)
        for _ in range(3000):
            rows, cols = int(rng.integers(0, 31)), int(rng.integers(1, 31))
            dense = rng.random((rows, cols)) < rng.random()
            a = BitMatrix(rows, cols, [np.flatnonzero(r).tolist()
                                       for r in dense])
            assert (repr(empirical_fractions(a))
                    == repr(reference_empirical_fractions(a)))


def test_quantization_check_annihilates_generator(tiny_code):
    for bits in tiny_code.g1.bitrows():
        word = BitVector(tiny_code.g1.cols, bits)
        assert mul_vec(tiny_code.h1, word).weight() == 0


class TestManifest:
    @pytest.mark.parametrize("change, message", [
        (lambda m: m.pop("seed"), "missing key 'seed'"),
        (lambda m: m.pop("params"), "missing key 'params'"),
        (lambda m: m["params"].update(colour=3), "unknown params key 'colour'"),
        (lambda m: m["params"].pop("k2"), "params: .*'k2'"),
        (lambda m: m["params"].update(n="96"), "params: "),
        (lambda m: m.update(params=[96]), "'params' must be an object"),
        (lambda m: m.update(seed="abc"), "seed must be an integer, got 'abc'"),
        (lambda m: m.update(seed=1.5), "seed must be an integer, got 1.5"),
        (lambda m: m.update(seed=True), "seed must be an integer, got True"),
        (lambda m: m.update(seed=None), "seed must be an integer, got None"),
        (lambda m: m.update(seed=[1]), r"seed must be an integer, got \[1\]"),
        (lambda m: m.update(dist_id=5), "dist_id must be a string, got 5"),
        (lambda m: m.update(dist_id=None),
         "dist_id must be a string, got None"),
    ], ids=["no-seed", "no-params", "unknown-key", "missing-field",
            "bad-value", "params-not-object", "seed-string", "seed-float",
            "seed-bool", "seed-null", "seed-list", "dist-id-number",
            "dist-id-null"])
    def test_malformed_manifest_is_value_error(self, tiny_code, tmp_path,
                                               change, message):
        save_code(tiny_code, tmp_path / "code")
        path = tmp_path / "code" / "manifest.json"
        manifest = json.loads(path.read_text())
        change(manifest)
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match=f"^manifest.json: {message}"):
            load_code(tmp_path / "code")

    def test_retired_params_keys_are_dropped(self, tiny_code, tmp_path):
        """A manifest as older versions wrote it, with the three retired
        keys, loads to the code a fresh build gives; a key that only looks
        like one still fails."""
        save_code(tiny_code, tmp_path / "code")
        path = tmp_path / "code" / "manifest.json"
        manifest = json.loads(path.read_text())
        manifest["params"].update(zeta=4, poisson_lam=6.0, poisson_imax=20)
        path.write_text(json.dumps(manifest))
        assert load_code(tmp_path / "code") == build_compound_code(
            TINY_PARAMS, tiny_dist(), seed=5, dist_id="tiny")
        manifest["params"]["zeta2"] = 4
        path.write_text(json.dumps(manifest))
        with pytest.raises(ValueError, match="^manifest.json: unknown params "
                                             "key 'zeta2'$"):
            load_code(tmp_path / "code")

    @pytest.mark.parametrize("text", ["[1, 2]", "3", "{", ""])
    def test_manifest_that_is_not_an_object(self, tiny_code, tmp_path, text):
        save_code(tiny_code, tmp_path / "code")
        (tmp_path / "code" / "manifest.json").write_text(text)
        with pytest.raises(ValueError, match="^manifest.json: "):
            load_code(tmp_path / "code")
