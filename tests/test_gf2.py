"""Packed GF(2) linear algebra against dense integer oracles."""

import io
import random
from collections import Counter

import numpy as np
import pytest

from conftest import packed_matrix
from wzkit import gf2
from wzkit.gf2 import (BitMatrix, BitVector, EchelonBasis, RankDeficiencyError,
                       ShapeError, _bit_indices, _column_basis, identity,
                       mat_mul, mul_vec, permute, rank, read_matrix,
                       systematic_form, transpose, write_matrix)


def random_matrix(rng, rows, cols, density=0.5):
    return BitMatrix(rows, cols,
                     [[c for c in range(cols) if rng.random() < density]
                      for _ in range(rows)])


def dense(a):
    return [[(bits >> c) & 1 for c in range(a.cols)] for bits in a.bitrows()]


def reference_row_reduce(bitrows, cols):
    """The RREF that rank and systematic_form used before they moved onto
    EchelonBasis; kept as their reference.  Scans
    columns left to right, picks the topmost unused row with a one in the
    pivot column, eliminates above and below."""
    rows = list(bitrows)
    pivot_cols = []
    next_row = 0
    for col in range(cols):
        mask = 1 << col
        pivot = None
        for r in range(next_row, len(rows)):
            if rows[r] & mask:
                pivot = r
                break
        if pivot is None:
            continue
        rows[next_row], rows[pivot] = rows[pivot], rows[next_row]
        prow = rows[next_row]
        for r in range(len(rows)):
            if r != next_row and rows[r] & mask:
                rows[r] ^= prow
        pivot_cols.append(col)
        next_row += 1
        if next_row == len(rows):
            break
    return rows, pivot_cols


def reference_rank(a):
    return len(reference_row_reduce(a.bitrows(), a.cols)[1])


def reference_systematic_form(a):
    reduced, pivots = reference_row_reduce(a.bitrows(), a.cols)
    if len(pivots) < a.rows:
        raise RankDeficiencyError("rank deficient", len(pivots))
    col_perm = tuple(pivots) + tuple(c for c in range(a.cols) if c not in pivots)
    out = []
    for bits in reduced[:a.rows]:
        out.append(sum(1 << new_c for new_c, old_c in enumerate(col_perm)
                       if bits >> old_c & 1))
    return packed_matrix(a.rows, a.cols, out), col_perm


def elimination_cases():
    """Random square, tall and wide matrices, a third of them with a row
    forced to be the sum of two others, plus edge shapes."""
    rng = random.Random(2718)
    cases = [BitMatrix(0, 1, []), BitMatrix(0, 5, []), BitMatrix(1, 1, [[0]]),
             BitMatrix(1, 1, [[]]), BitMatrix(4, 1, [[0], [], [0], [0]]),
             BitMatrix(3, 1, [[], [], []]), identity(7),
             BitMatrix(3, 3, [[0, 1], [1, 2], [0, 2]])]
    for _ in range(400):
        rows = rng.randint(1, 12)
        cols = rng.choice([rows, rng.randint(1, rows), rng.randint(rows, 14)])
        a = random_matrix(rng, rows, cols, density=rng.choice([0.2, 0.5, 0.8]))
        if rows > 2 and rng.random() < 0.3:
            bits = list(a.bitrows())
            i, j, k = rng.sample(range(rows), 3)
            bits[k] = bits[i] ^ bits[j]
            a = packed_matrix(rows, cols, bits)
        cases.append(a)
    return cases


def outcome(fn, a):
    try:
        return "solved", fn(a)
    except RankDeficiencyError as e:
        return "rank deficient", e.rank


@pytest.mark.parametrize("fn, reference", [
    (rank, reference_rank),
    (systematic_form, reference_systematic_form),
], ids=["rank", "systematic_form"])
def test_elimination_matches_reference(fn, reference):
    kinds = Counter()
    for a in elimination_cases():
        got = outcome(fn, a)
        assert got == outcome(reference, a), a.row_support
        kinds[got[0]] += 1
    assert kinds["solved"] > 20
    if fn is systematic_form:
        assert kinds["rank deficient"] > 20


def test_echelon_matches_reference():
    """Pivots as a reference basis finds them; a row is dependent exactly
    when it leaves the rank of the rows up to it unchanged."""
    for a in elimination_cases():
        bits = a.bitrows()
        ref = ReferenceEchelonBasis()
        for row in bits:
            ref.insert(row)
        prefix = [len(reference_row_reduce(bits[:i], a.cols)[1])
                  for i in range(a.rows + 1)]
        dependent = tuple(i for i in range(a.rows)
                          if prefix[i + 1] == prefix[i])
        assert a.echelon() == (tuple(ref.pivots()), dependent), a.row_support


class TestEchelonBasis:
    def test_dependent_insert_leaves_basis_unchanged(self):
        basis = EchelonBasis()
        assert basis.insert(0b1100) and basis.insert(0b0110)
        state = [basis.reduce(x) for x in range(16)]
        assert not basis.insert(0b1010)
        assert not basis.insert(0)
        assert len(basis) == 2 and basis.pivots() == [2, 3]
        assert [basis.reduce(x) for x in range(16)] == state

    def test_pivots_on_highest_bit(self):
        basis = EchelonBasis(2)
        assert basis.insert(0b101 << 2 | 0b01)
        assert basis.insert(0b001 << 2 | 0b10)
        assert basis.pivots() == [0, 2]
        # the row part clears; the tag left over names both rows
        assert basis.reduce(0b100 << 2) == 0b11

    def test_solve_recovers_tag_combination(self):
        rng = random.Random(5)
        rows = [rng.getrandbits(20) for _ in range(8)]
        basis = EchelonBasis(8)
        for i, bits in enumerate(rows):
            basis.insert(bits << 8 | 1 << i)
        assert len(basis) == 8
        for _ in range(50):
            combo = rng.getrandbits(8)
            target = 0
            for i in range(8):
                if combo >> i & 1:
                    target ^= rows[i]
            assert basis.solve(target) == combo

    def test_solve_raises_outside_span(self):
        basis = EchelonBasis(2)
        for i, bits in enumerate([0b011, 0b110]):
            basis.insert(bits << 2 | 1 << i)
        assert basis.solve(0b101) == 0b11
        assert basis.solve(0) == 0
        with pytest.raises(ValueError):
            basis.solve(0b001)
        with pytest.raises(ValueError):
            basis.solve(0b1000)


class ReferenceEchelonBasis:
    """EchelonBasis with its pivot rows in a dict keyed by pivot bit, as it
    stood before the list-indexed pivots; kept as their reference."""

    def __init__(self, tag_bits=0):
        self.tag_bits = tag_bits
        self._rows = {}

    def __len__(self):
        return len(self._rows)

    def reduce(self, bits):
        rows, t = self._rows, self.tag_bits
        while (top := bits.bit_length() - 1) >= t:
            row = rows.get(top)
            if row is None:
                break
            bits ^= row
        return bits

    def insert(self, bits):
        bits = self.reduce(bits)
        if bits.bit_length() <= self.tag_bits:
            return False
        self._rows[bits.bit_length() - 1] = bits
        return True

    def solve(self, target):
        bits = self.reduce(target << self.tag_bits)
        if bits.bit_length() > self.tag_bits:
            raise ValueError("target lies outside the span of the basis")
        return bits

    def pivots(self):
        return sorted(p - self.tag_bits for p in self._rows)


def random_row(rng, width, sparse):
    """A non-zero row of `width` bits: 1 to 3 ones, or uniformly dense."""
    if sparse:
        return sum(1 << c for c in rng.sample(range(width),
                                              min(width, rng.randint(1, 3))))
    return rng.getrandbits(width) or 1


def fill_to_corank(rng, width, corank, sparse):
    """An EchelonBasis and its reference fed the same rows, with sums of
    earlier rows mixed in, until the rank is width - corank; checks that
    every insert agrees.  Returns both and the rows offered."""
    basis, ref, offered = EchelonBasis(), ReferenceEchelonBasis(), []
    while len(ref) < width - corank:
        row = random_row(rng, width, sparse)
        if offered and rng.random() < 0.3:
            row = 0
            for old in rng.sample(offered, min(len(offered), 3)):
                row ^= old
        offered.append(row)
        assert basis.insert(row) == ref.insert(row)
        assert len(basis) == len(ref)
    return basis, ref, offered


def span_complement(rows, width):
    """A basis, as ints, of the vectors of `width` bits whose overlap with
    every row is even: the null space of the rows' matrix."""
    return _column_basis(packed_matrix(len(rows), width, rows))[2]


def in_complement_span(vectors, row):
    return not any((row & vec).bit_count() & 1 for vec in vectors)


BASIS_CASES = [(width, corank, sparse)
               for width in (1, 63, 64, 65, 200)
               for corank in sorted({0, 1, 2, 5, width} & set(range(width + 1)))
               for sparse in (True, False)]


class TestEchelonBasisAgainstReference:
    @pytest.mark.parametrize("width, corank, sparse", BASIS_CASES)
    def test_same_pivots_and_reductions(self, width, corank, sparse):
        rng = random.Random(width * 100 + corank * 2 + sparse)
        basis, ref, _ = fill_to_corank(rng, width, corank, sparse)
        assert basis.pivots() == ref.pivots() == sorted(basis.pivots())
        for _ in range(100):
            row = rng.getrandbits(width + 2)   # sometimes above every pivot
            assert basis.reduce(row) == ref.reduce(row)

    @pytest.mark.parametrize("width, corank, sparse", BASIS_CASES)
    def test_complement_tests_membership(self, width, corank, sparse):
        rng = random.Random(width * 100 + corank * 2 + sparse + 7)
        basis, ref, offered = fill_to_corank(rng, width, corank, sparse)
        vectors = span_complement(offered, width)
        assert len(vectors) == width - len(basis) == corank
        assert rank(packed_matrix(corank, width, vectors)) == corank
        assert all(in_complement_span(vectors, row) for row in offered)
        # the parity test decides each insert until the basis is full
        while len(basis) < width:
            row = random_row(rng, width, sparse)
            if rng.random() < 0.5:
                row = 0
                for old in rng.sample(offered, min(len(offered), 2)):
                    row ^= old
            offered.append(row)
            outside = not in_complement_span(vectors, row)
            assert outside == (ref.reduce(row) != 0)
            assert basis.insert(row) == outside == ref.insert(row)
            if outside:
                vectors = span_complement(offered, width)
                assert len(vectors) == width - len(basis)
        assert span_complement(offered, width) == []

    def test_empty_basis_and_zero_row(self):
        basis = EchelonBasis()
        assert not basis.insert(0)
        assert len(basis) == 0 and basis.pivots() == []
        assert basis.reduce(0b1011) == 0b1011
        tagged = EchelonBasis(3)
        assert not tagged.insert(0b101)   # a tag with no row part
        assert len(tagged) == 0

    def test_row_wider_than_any_before(self):
        basis = EchelonBasis()
        assert basis.insert(0b11) and basis.insert(1 << 100 | 1)
        assert basis.pivots() == [1, 100]
        assert basis.reduce(1 << 100) == 1
        assert basis.reduce(1 << 200 | 1 << 100) == 1 << 200 | 1 << 100
        assert basis.insert(1 << 200 | 1 << 100)
        assert basis.pivots() == [1, 100, 200]

    @pytest.mark.parametrize("n_rows, width", [(1, 1), (8, 8), (12, 20),
                                               (30, 20), (70, 65)])
    def test_tagged_solve(self, n_rows, width):
        rng = random.Random(n_rows * 1000 + width)
        rows = [rng.getrandbits(width) for _ in range(n_rows)]
        basis, ref = EchelonBasis(n_rows), ReferenceEchelonBasis(n_rows)
        for i, bits in enumerate(rows):
            basis.insert(bits << n_rows | 1 << i)
            ref.insert(bits << n_rows | 1 << i)
        assert len(basis) == len(ref) and basis.pivots() == ref.pivots()
        for _ in range(50):
            target = rng.getrandbits(width + 1)
            try:
                want = ref.solve(target)
            except ValueError:
                with pytest.raises(ValueError):
                    basis.solve(target)
                continue
            got = basis.solve(target)
            assert got == want
            total = 0
            for i in range(n_rows):
                if got >> i & 1:
                    total ^= rows[i]
            assert total == target


def dense_mul(a, b):
    out = [[0] * len(b[0]) for _ in range(len(a))]
    for i, row in enumerate(a):
        for k, v in enumerate(row):
            if v:
                for j in range(len(b[0])):
                    out[i][j] ^= b[k][j]
    return out


def reference_to_list(v):
    """BitVector.to_list as a loop over the bits; the reference for the
    packbits conversion."""
    return [(v.bits >> i) & 1 for i in range(v.length)]


def reference_from_bits_list(values):
    """BitVector.from_bits_list as a loop over the entries; the reference
    for the packbits conversion."""
    if any(v not in (0, 1) for v in values):
        raise ValueError("entries must be 0 or 1")
    bits = 0
    for i, v in enumerate(values):
        if v:
            bits |= 1 << i
    return BitVector(len(values), bits)


def bit_patterns():
    rng = random.Random(77)
    for length in (1, 7, 8, 9, 63, 64, 65, 2000):
        yield length, "random", [rng.getrandbits(1) for _ in range(length)]
        yield length, "zeros", [0] * length
        yield length, "ones", [1] * length


class TestBitVectorConversions:
    @pytest.mark.parametrize("length, kind, values", bit_patterns())
    def test_to_list_matches_reference(self, length, kind, values):
        v = reference_from_bits_list(values)
        assert v.to_list() == reference_to_list(v) == values
        arr = v.to_array()
        assert arr.dtype == np.uint8 and arr.tolist() == values

    @pytest.mark.parametrize("length, kind, values", bit_patterns())
    @pytest.mark.parametrize("form", [list, tuple,
                                      lambda v: np.array(v, dtype=bool),
                                      lambda v: np.array(v, dtype=np.int64)],
                             ids=["list", "tuple", "bool", "int64"])
    def test_from_bits_list_matches_reference(self, length, kind, values,
                                              form):
        expected = reference_from_bits_list(values)
        assert BitVector.from_bits_list(form(values)) == expected
        assert BitVector.from_array(form(values)) == expected

    @pytest.mark.parametrize("values", [[0, 2], [1, -1], [2], [-1, 0, 1]])
    def test_rejects_entries_other_than_zero_and_one(self, values):
        for convert in (BitVector.from_bits_list, reference_from_bits_list,
                        lambda v: BitVector.from_array(np.array(v))):
            with pytest.raises(ValueError, match="entries must be 0 or 1"):
                convert(values)

    @pytest.mark.parametrize("empty", [[], (), np.zeros(0, dtype=bool)])
    def test_rejects_empty_input(self, empty):
        with pytest.raises(ShapeError):
            BitVector.from_bits_list(empty)

    def test_to_array_is_a_fresh_array(self):
        v = BitVector.from_bits_list([1, 0, 1])
        arr = v.to_array()
        arr[0] = 0
        assert v.to_list() == [1, 0, 1]


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

    def test_slots_pad_with_sentinel_and_cache(self):
        a = BitMatrix(4, 6, [[5, 1], [], [0, 2, 3], [4]])
        slots, pos = a.slots()
        assert slots.tolist() == [[1, 6, 0, 4],
                                  [5, 6, 2, 6],
                                  [6, 6, 3, 6]]
        assert pos.tolist() == [0, 4, 2, 6, 10, 3]
        assert slots.dtype == pos.dtype == np.int64
        assert a.slots()[0] is slots and a.slots()[1] is pos
        for arr in (slots, pos):
            with pytest.raises(ValueError):
                arr[0] = 1

    def test_slots_pickle_drops_the_cache(self):
        import pickle
        a = BitMatrix(2, 4, [[0, 2], [3]])
        a.slots()
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a
        assert set(vars(copy)) == {"rows", "cols", "_starts", "_edges"}
        np.testing.assert_array_equal(copy.slots()[0], a.slots()[0])

    def test_echelon_is_cached_read_only_and_not_pickled(self):
        import pickle
        a = BitMatrix(4, 6, [[0, 3], [3], [0], [5, 1]])
        view = a.echelon()
        assert view == ((0, 3, 5), (2,))
        assert a.echelon() is view
        assert all(type(part) is tuple for part in view)
        copy = pickle.loads(pickle.dumps(a))
        assert copy == a
        assert set(vars(copy)) == {"rows", "cols", "_starts", "_edges"}
        assert copy.echelon() == view

    def test_slots_invert_edges_on_random_matrices(self):
        rng = random.Random(0x510)
        for _ in range(60):
            rows, cols = rng.randint(1, 30), rng.randint(1, 40)
            a = BitMatrix(rows, cols, [
                rng.sample(range(cols), rng.randint(0, min(cols, 9)))
                for _ in range(rows)])
            slots, pos = a.slots()
            edge_row, edge_col = a.edges()
            width = int(a.row_lengths().max())
            assert slots.shape == (width, rows)
            np.testing.assert_array_equal(slots.ravel()[pos], edge_col)
            np.testing.assert_array_equal(pos % rows, edge_row)
            # every slot that no edge fills holds the sentinel
            filled = np.zeros(slots.size, dtype=bool)
            filled[pos] = True
            assert np.unique(pos).size == pos.size
            assert np.all(slots.ravel()[~filled] == cols)
            for row, sup in enumerate(a.row_support):
                assert tuple(slots[:len(sup), row]) == sup

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_slots_of_a_matrix_without_entries(self, rows):
        slots, pos = BitMatrix(rows, 5, [[]] * rows).slots()
        assert slots.shape == (0, rows) and pos.size == 0

    def test_slot_padding_is_every_unfilled_slot_and_cached(self):
        a = BitMatrix(4, 6, [[5, 1], [], [0, 2, 3], [4]])
        padding = a.slot_padding()
        assert padding.tolist() == [1, 5, 7, 8, 9, 11]
        assert a.slot_padding() is padding
        with pytest.raises(ValueError):
            padding[0] = 0
        rng = random.Random(0x511)
        for _ in range(30):
            rows, cols = rng.randint(0, 20), rng.randint(1, 30)
            a = BitMatrix(rows, cols, [
                rng.sample(range(cols), rng.randint(0, min(cols, 7)))
                for _ in range(rows)])
            slots, pos = a.slots()
            np.testing.assert_array_equal(
                a.slot_padding(), np.setdiff1d(np.arange(slots.size), pos))

    def test_from_arrays_equals_init(self):
        a = BitMatrix.from_arrays(4, 6, [2, 0, 3, 1], [5, 1, 3, 0, 2, 4])
        assert a == BitMatrix(4, 6, [[5, 1], [], [3, 0, 2], [4]])
        assert a.row_support == ((1, 5), (), (0, 2, 3), (4,))
        assert a.row_lengths().tolist() == [2, 0, 3, 1]

    @pytest.mark.parametrize("rows, supports, message", [
        (3, [[0, 2], [3, 1, 3], [5]], "row 1 has duplicate column 3"),
        (3, [[0, 2], [1, 6], [6, 6]], "row 1 support outside \\[0, 6\\)"),
        (2, [[0, -1], [1]], "row 0 support outside \\[0, 6\\)"),
        (2, [[7, 7], [1]], "row 0 has duplicate column 7"),
        (3, [[0], [1]], "expected 3 rows, got 2"),
        (-1, [], "bad shape -1x6"),
    ])
    def test_constructors_share_one_check(self, rows, supports, message):
        lengths = [len(s) for s in supports]
        flat = [c for s in supports for c in s]
        with pytest.raises(ShapeError, match=message):
            BitMatrix(rows, 6, supports)
        with pytest.raises(ShapeError, match=message):
            BitMatrix.from_arrays(rows, 6, lengths, flat)

    def test_row_block(self):
        a = BitMatrix(4, 6, [[5, 1], [], [0, 2, 3], [4]])
        assert a.row_block(1, 3) == BitMatrix(2, 6, [[], [0, 2, 3]])
        assert a.row_block(2, 4).edges()[0].tolist() == [0, 0, 0, 1]

    @pytest.mark.parametrize("chunk_bits", [1, 64, 1 << 16])
    def test_packing_matches_reference_across_chunks(self, chunk_bits,
                                                     monkeypatch):
        monkeypatch.setattr(gf2, "_CHUNK_BITS", chunk_bits)
        monkeypatch.setattr(gf2, "_ROW_BLOCK", 1 + chunk_bits % 7)
        rng = random.Random(chunk_bits)
        for _ in range(30):
            a = random_matrix(rng, rng.randint(1, 40), rng.randint(1, 130),
                              density=rng.choice([0.05, 0.5, 0.95]))
            expected = tuple(sum(1 << c for c in sup) for sup in a.row_support)
            assert a.bitrows() == expected
            back = packed_matrix(a.rows, a.cols, expected)
            assert back == a
            assert back.row_support == tuple(
                tuple(_bit_indices(bits)) for bits in expected)


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


@pytest.mark.parametrize("density", [0.0, 0.1, 0.5, 0.9, 1.0])
def test_mat_mul_and_transpose_match_dense_oracle_at_every_density(density):
    rng = random.Random(31 + int(10 * density))
    for _ in range(40):
        r, k, c = (rng.randint(1, 29) for _ in range(3))
        a = random_matrix(rng, r, k, density)
        b = random_matrix(rng, k, c, rng.random())
        assert dense(mat_mul(a, b)) == dense_mul(dense(a), dense(b))
        assert dense(transpose(a)) == [list(col) for col in zip(*dense(a))]


def test_mat_mul_row_cancels_to_empty():
    # row 0 adds b's rows 0 and 1, which are equal
    a = BitMatrix(2, 3, [[0, 1], [1, 2]])
    b = BitMatrix(3, 4, [[0, 3], [0, 3], [1, 3]])
    assert mat_mul(a, b) == BitMatrix(2, 4, [[], [0, 1]])


def test_mat_mul_whole_product_zero():
    a = BitMatrix(3, 3, [[0, 1], [], [0, 1, 2]])
    b = BitMatrix(3, 5, [[1, 4], [1, 4], []])
    assert mat_mul(a, b) == BitMatrix(3, 5, [[], [], []])
    assert mat_mul(BitMatrix(0, 3, []), b) == BitMatrix(0, 5, [])


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


def test_transpose_involution():
    rng = random.Random(13)
    a = random_matrix(rng, 5, 8)
    assert transpose(transpose(a)) == a
    assert dense(transpose(a)) == [list(col) for col in zip(*dense(a))]


def test_permute_moves_entries():
    a = BitMatrix(2, 3, [[0], [2]])
    b = permute(a, [1, 0], [2, 1, 0])
    assert dense(b) == [[1, 0, 0], [0, 0, 1]]


def reference_write_matrix(f, a):
    """write_matrix as a loop over the rows' supports; its output is the
    reference for the array writer."""
    f.write(f"{a.rows} {a.cols}\n")
    for sup in a.row_support:
        f.write(" ".join(str(c + 1) for c in sup) + "\n")
    f.write("\n")


def reference_read_matrix(f):
    """read_matrix as a loop over lines and int(); the reference for the
    array parser."""
    header = f.readline()
    parts = header.split()
    if len(parts) != 2:
        raise ValueError(f"bad header line: {header!r}")
    rows, cols = int(parts[0]), int(parts[1])
    supports = []
    for i in range(rows):
        line = f.readline()
        if line == "":
            raise ValueError(f"unexpected end of file at row {i}")
        supports.append([int(tok) - 1 for tok in line.split()])
    for lineno, line in enumerate(f, start=rows + 2):
        if line.strip():
            raise ValueError(f"line {lineno}: row beyond the {rows} rows "
                             f"the header declares: {line.strip()!r}")
    return BitMatrix(rows, cols, supports)


def read_outcome(reader, text):
    try:
        return "loaded", reader(io.StringIO(text))
    except ValueError as e:
        return type(e).__name__, str(e)


@pytest.mark.parametrize("text", [
    "2 5\n1 x\n2\n",                  # a token that is not a number
    "2 5\n1 3\n1.5\n",                # a fractional index
    "2 5\n1 3\n-\n",                  # a lone sign
    "2 5\n0 3\n2\n",                  # index 0
    "2 5\n1 6\n2\n",                  # an index above cols
    "2 5\n1 -2\n2\n",                 # a negative index
    "2 5\n1 3 3\n2\n",                # a duplicate index
    "2 5\n4 1 3\n5 2\n",              # unsorted rows: sorted on load
    "2 5\n\n2 4\n",                    # an empty row line
    "3 5\n1 3\n\n\n",                   # empty rows at the end
    "2 5\n 1\t3 \n2\t\t 4\n",          # tabs and runs of spaces
    "2 5\n1    3\n   2   4   \n\n",     # runs of spaces
    "2 5\r\n1 3\r\n2 4\r\n",            # CRLF line ends
    "2 5\n+1 003\n2\n",               # a plus sign and leading zeros
    "2 5\n1 3\n2",                     # no newline after the last row
    "2 5\n1 3\n",                      # a row missing
    "0 5\n",
    "2 5\n1 3\n2\n4\n",               # a row beyond the header's count
    "2 x\n1\n2\n",                     # a bad header
    "2 5 1\n1\n2\n",
])
@pytest.mark.parametrize("parse_lines", [1, 2, 256])
def test_read_matrix_matches_line_parser(text, parse_lines, monkeypatch):
    monkeypatch.setattr(gf2, "_PARSE_LINES", parse_lines)
    got = read_outcome(read_matrix, text)
    assert got == read_outcome(reference_read_matrix, text)
    if text.startswith("2 5\n4 1 3"):
        assert got[1].row_support == ((0, 2, 3), (1, 4))


@pytest.mark.parametrize("text", ["3 5\n1\n2\n1 1_0\n", "3 5\n1\n2\n1 \u0663\n"])
@pytest.mark.parametrize("parse_lines", [1, 2, 256])
def test_read_matrix_rejects_indices_int_would_read(text, parse_lines,
                                                    monkeypatch):
    # int() reads "1_0" and Arabic-Indic digits; the format holds ASCII
    # decimal integers only
    monkeypatch.setattr(gf2, "_PARSE_LINES", parse_lines)
    with pytest.raises(ValueError, match="line 4: .* is not a decimal integer"):
        read_matrix(io.StringIO(text))


def test_write_matrix_matches_row_writer(monkeypatch):
    monkeypatch.setattr(gf2, "_ROW_BLOCK", 3)
    rng = random.Random(8)
    for _ in range(20):
        a = random_matrix(rng, rng.randint(1, 12), rng.randint(1, 30),
                          density=rng.choice([0.0, 0.1, 0.6]))
        got, want = io.StringIO(), io.StringIO()
        write_matrix(got, a)
        reference_write_matrix(want, a)
        assert got.getvalue() == want.getvalue()
        assert read_matrix(io.StringIO(got.getvalue())) == a


def test_read_write_roundtrip():
    rng = random.Random(55)
    a = random_matrix(rng, 7, 11)
    buf = io.StringIO()
    write_matrix(buf, a)
    buf.seek(0)
    assert read_matrix(buf) == a


@pytest.mark.parametrize("text", ["2 5\n1 3\n2 4\n", "2 5\n1 3\n2 4\n\n",
                                  "2 5\n1 3\n2 4\n\n  \n\n"])
def test_read_matrix_allows_trailing_blank_lines(text):
    assert read_matrix(io.StringIO(text)) == BitMatrix(2, 5, [[0, 2], [1, 3]])


@pytest.mark.parametrize("text, lineno", [("2 5\n1 3\n2 4\n5\n\n", 4),
                                          ("2 5\n1 3\n2 4\n\n\n5\n", 6)])
def test_read_matrix_rejects_rows_beyond_header(text, lineno):
    with pytest.raises(ValueError, match=f"line {lineno}: row beyond the 2 rows "
                       "the header declares: '5'"):
        read_matrix(io.StringIO(text))
