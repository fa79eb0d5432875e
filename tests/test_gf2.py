"""Packed GF(2) linear algebra against dense integer oracles."""

import io
import random

import numpy as np
import pytest

from wzkit.gf2 import (BitMatrix, BitVector, RankDeficiencyError, ShapeError,
                       identity, invert, mat_mul, mul_vec, null_space_basis,
                       permute, rank, read_matrix, systematic_form, transpose,
                       write_matrix)


def random_matrix(rng, rows, cols, density=0.5):
    return BitMatrix(rows, cols,
                     [[c for c in range(cols) if rng.random() < density]
                      for _ in range(rows)])


def dense(a):
    return [[(bits >> c) & 1 for c in range(a.cols)] for bits in a.bitrows()]


def dense_mul(a, b):
    out = [[0] * len(b[0]) for _ in range(len(a))]
    for i, row in enumerate(a):
        for k, v in enumerate(row):
            if v:
                for j in range(len(b[0])):
                    out[i][j] ^= b[k][j]
    return out


class TestBitVector:
    def test_xor_and_weight(self):
        a = BitVector.from_bits_list([1, 0, 1, 1])
        b = BitVector.from_bits_list([0, 0, 1, 0])
        assert (a ^ b).to_list() == [1, 0, 0, 1]
        assert a.weight() == 3

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            BitVector(3, 1) ^ BitVector(4, 1)

    def test_bits_out_of_range(self):
        with pytest.raises(ShapeError):
            BitVector(2, 8)


class TestBitMatrix:
    def test_row_support_sorted_and_deduped(self):
        m = BitMatrix(2, 5, [[4, 0, 2], [1]])
        assert m.row_support == ((0, 2, 4), (1,))

    def test_duplicate_column_rejected(self):
        with pytest.raises(ShapeError):
            BitMatrix(1, 4, [[1, 1]])

    def test_support_out_of_range(self):
        with pytest.raises(ShapeError):
            BitMatrix(1, 3, [[3]])

    def test_bitrows_match_support(self):
        m = BitMatrix(2, 6, [[0, 3], [5]])
        assert m.bitrows() == (0b001001, 0b100000)

    def test_edges_row_major_and_cached(self):
        a = BitMatrix(4, 6, [[5, 1], [], [0, 2, 3], [4]])
        rows, cols = a.edges()
        assert rows.tolist() == [0, 0, 2, 2, 2, 3]
        assert cols.tolist() == [1, 5, 0, 2, 3, 4]
        assert rows.dtype == cols.dtype == np.int64
        assert a.edges()[0] is rows
        with pytest.raises(ValueError):
            cols[0] = 2

    def test_pickle_roundtrip(self):
        import pickle
        m = BitMatrix(2, 4, [[0, 2], [3]])
        assert pickle.loads(pickle.dumps(m)) == m


def test_mat_mul_matches_dense_oracle():
    rng = random.Random(2024)
    for trial in range(100):
        r = rng.randint(1, 32)
        k = rng.randint(1, 32)
        c = rng.randint(1, 32)
        a = random_matrix(rng, r, k)
        b = random_matrix(rng, k, c)
        assert dense(mat_mul(a, b)) == dense_mul(dense(a), dense(b)), \
            f"trial {trial} ({r}x{k} @ {k}x{c})"


def test_mat_mul_shape_mismatch():
    with pytest.raises(ShapeError):
        mat_mul(BitMatrix(1, 3, [[0]]), BitMatrix(2, 2, [[0], [1]]))


def test_mul_vec_matches_dense():
    rng = random.Random(7)
    a = random_matrix(rng, 6, 9)
    v = BitVector(9, rng.getrandbits(9))
    expect = [sum(x * ((v.bits >> c) & 1) for c, x in enumerate(row)) % 2
              for row in dense(a)]
    assert mul_vec(a, v).to_list() == expect


def test_rank_known_cases():
    assert rank(identity(5)) == 5
    assert rank(BitMatrix(2, 3, [[0, 1], [0, 1]])) == 1
    assert rank(BitMatrix(3, 2, [[0], [1], [0, 1]])) == 2


def test_systematic_form_identity_block_and_row_space():
    rng = random.Random(99)
    for _ in range(20):
        rows, cols = rng.randint(1, 8), rng.randint(8, 14)
        a = random_matrix(rng, rows, cols, density=0.6)
        if rank(a) < rows:
            continue
        sys_a, col_perm = systematic_form(a)
        assert sorted(col_perm) == list(range(cols))
        for i, sup in enumerate(sys_a.row_support[:rows]):
            assert i in sup
            assert all(c == i or c >= rows for c in sup)
        assert rank(permute(a, list(range(rows)), col_perm)) == rank(sys_a)


def test_systematic_form_rank_deficient_raises():
    a = BitMatrix(2, 4, [[0, 1], [0, 1]])
    with pytest.raises(RankDeficiencyError) as e:
        systematic_form(a)
    assert e.value.rank == 1


def test_null_space_basis_annihilates_and_spans():
    rng = random.Random(31)
    for _ in range(30):
        a = random_matrix(rng, rng.randint(1, 6), rng.randint(2, 10))
        basis = null_space_basis(a)
        assert basis.rows == a.cols - rank(a)
        for bits in basis.bitrows():
            assert mul_vec(a, BitVector(a.cols, bits)).weight() == 0
        if basis.rows:
            assert rank(basis) == basis.rows


def test_invert_roundtrip_on_random_full_rank():
    rng = random.Random(404)
    done = 0
    while done < 25:
        n = rng.randint(1, 20)
        a = random_matrix(rng, n, n, density=0.45)
        if rank(a) < n:
            continue
        inv = invert(a)
        assert dense(mat_mul(a, inv)) == dense(identity(n))
        assert dense(mat_mul(inv, a)) == dense(identity(n))
        done += 1


def test_invert_singular_raises_with_rank():
    a = BitMatrix(3, 3, [[0, 1], [1, 2], [0, 2]])  # rows sum to zero
    with pytest.raises(RankDeficiencyError) as e:
        invert(a)
    assert e.value.rank == 2


def test_invert_rejects_non_square():
    with pytest.raises(ShapeError):
        invert(BitMatrix(2, 3, [[0], [1]]))


def test_transpose_involution():
    rng = random.Random(13)
    a = random_matrix(rng, 5, 8)
    assert transpose(transpose(a)) == a
    assert dense(transpose(a)) == [list(col) for col in zip(*dense(a))]


def test_permute_moves_entries():
    a = BitMatrix(2, 3, [[0], [2]])
    b = permute(a, [1, 0], [2, 1, 0])
    assert dense(b) == [[1, 0, 0], [0, 0, 1]]


def test_read_write_roundtrip():
    rng = random.Random(55)
    a = random_matrix(rng, 7, 11)
    buf = io.StringIO()
    write_matrix(buf, a)
    buf.seek(0)
    assert read_matrix(buf) == a
