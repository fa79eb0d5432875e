"""GF(2) vectors and sparse matrices, with one elimination core.

Matrices are stored as three read-only int64 arrays: the row and the column
of every entry, row by row with each row sorted (the Tanner-graph edge arrays
of edges()), and where each row starts.  One vectorized check validates the
input of both constructors, BitMatrix(...) and BitMatrix.from_arrays, and
builds the row array as it goes.  The per-row supports as tuples, the row
elimination (pivot columns and dependent rows) and the check-slot view are
cached on first use (functools.cached_property); a pickle carries the arrays
only.  bitrows() packs every row into one Python int (bit c = entry in
column c) on each call.  Packed rows make elimination word-parallel, so
dimensions of a few times 10^5 per axis stay workable; memory is O(nnz) for
storage and about rows*cols/8 bytes while an elimination runs.

Bits cross between packed ints and numpy arrays through np.packbits and
np.unpackbits with little-endian bit order, so every such crossing is O(n).

All values are immutable after construction.  Every GF(2) elimination in the
package goes through EchelonBasis, an incremental row-echelon basis that keys
each packed row by its highest set bit.  Reducing a row then takes one list
lookup per step, from the top bit down, and rows inserted in a fixed order
always produce the same pivots and the same dependent rows.  Optional tag bits
below the row part record which inserted rows a reduction combined, so the
same basis solves linear systems.

The results of rank and systematic_form do not depend on the pivot order.
The rank is unique.  systematic_form comes from one pass over the columns,
left to right, each column tagged with its own index.  A column that is
independent of the columns before it is a pivot of the reduced row echelon
form (RREF).  A dependent column's leftover tag is its unique expression over
the earlier pivot columns, which is also what the RREF records in that
column.  The output is therefore the canonical RREF, whatever order
elimination runs in.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Iterable, Sequence, TextIO

import numpy as np

__all__ = [
    "BitVector",
    "BitMatrix",
    "ShapeError",
    "RankDeficiencyError",
    "EchelonBasis",
    "mat_mul",
    "mul_vec",
    "rank",
    "systematic_form",
    "permute",
    "transpose",
    "identity",
    "read_matrix",
    "write_matrix",
]


class ShapeError(ValueError):
    """Dimension mismatch; the message names both offending shapes."""


class RankDeficiencyError(ValueError):
    """Matrix rank too small for the requested operation."""

    def __init__(self, message: str, computed_rank: int):
        super().__init__(message)
        self.rank = computed_rank


def _require_int(name: str, value) -> None:
    """TypeError unless value is an integer: a Python or numpy int, not a
    bool or a float."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise TypeError(f"{name} must be an integer, got {value!r}")


def _require_ints(owner, *names: str) -> None:
    """_require_int on each named attribute of owner (a parameter
    dataclass)."""
    for name in names:
        _require_int(name, getattr(owner, name))


@dataclass(frozen=True)
class BitVector:
    """Immutable GF(2) vector: ``length`` bits packed into one Python int."""

    length: int
    bits: int

    def __post_init__(self):
        if self.length < 1:
            raise ShapeError(f"BitVector length must be >= 1, got {self.length}")
        if self.bits < 0 or self.bits >> self.length:
            raise ShapeError(f"bits out of range for length {self.length}")

    @classmethod
    def from_array(cls, values) -> "BitVector":
        """Vector whose entry i is values[i]; values is a 1-D array-like of
        0/1 (ints, bools or floats)."""
        arr = np.asarray(values)
        if arr.ndim != 1:
            raise ShapeError(f"expected a 1-D array of bits, got shape {arr.shape}")
        if arr.dtype != np.bool_ and not ((arr == 0) | (arr == 1)).all():
            raise ValueError("entries must be 0 or 1")
        packed = np.packbits(arr.astype(bool, copy=False), bitorder="little")
        return cls(arr.size, int.from_bytes(packed.tobytes(), "little"))

    @classmethod
    def from_bits_list(cls, values: Sequence[int]) -> "BitVector":
        return cls.from_array(values)

    def to_array(self) -> np.ndarray:
        """The entries as a new uint8 array of 0/1, entry i from bit i."""
        packed = self.bits.to_bytes((self.length + 7) // 8, "little")
        return np.unpackbits(np.frombuffer(packed, dtype=np.uint8),
                             count=self.length, bitorder="little")

    def to_list(self) -> list[int]:
        return self.to_array().tolist()

    def weight(self) -> int:
        return self.bits.bit_count()

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(i)
        return (self.bits >> i) & 1

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.length != other.length:
            raise ShapeError(f"length {self.length} vs {other.length}")
        return BitVector(self.length, self.bits ^ other.bits)

    def hamming(self, other: "BitVector") -> int:
        if self.length != other.length:
            raise ShapeError(f"length {self.length} vs {other.length}")
        return (self.bits ^ other.bits).bit_count()


class BitMatrix:
    """Immutable GF(2) matrix; ``row_support[i]`` is the sorted support of row i.

    ``rows == 0`` is permitted: row_block(i, i), a matrix file whose header
    declares no rows, and a product whose left factor has no rows are empty
    matrices.  transpose rejects one, since its result would have no columns.
    """

    def __init__(self, rows: int, cols: int, row_support: Iterable[Iterable[int]]):
        supports = [sup if isinstance(sup, (tuple, list)) else tuple(sup)
                    for sup in row_support]
        lengths = np.fromiter(map(len, supports), dtype=np.int64,
                              count=len(supports))
        columns = np.fromiter(chain.from_iterable(supports), dtype=np.int64,
                              count=int(lengths.sum()))
        self._init(rows, cols, lengths, columns)

    @classmethod
    def from_arrays(cls, rows: int, cols: int, lengths, columns) -> "BitMatrix":
        """Matrix whose row i holds the next lengths[i] entries of columns;
        a row may come in any order, and is sorted.  columns is copied."""
        self = object.__new__(cls)
        self._init(rows, cols, np.asarray(lengths, dtype=np.int64),
                   np.array(columns, dtype=np.int64))
        return self

    def _init(self, rows: int, cols: int, lengths: np.ndarray,
              columns: np.ndarray) -> None:
        """The one check every constructor runs, on a fresh columns array:
        the shape, then per row (lowest row first) duplicate columns and
        columns outside [0, cols), then the row count.  The row of every
        entry it builds is kept as the first array of edges()."""
        if rows < 0 or cols < 1:
            raise ShapeError(f"bad shape {rows}x{cols}")
        if lengths.ndim != 1 or lengths.size and lengths.min() < 0:
            raise ShapeError("row lengths must be a 1-D array of counts >= 0")
        if int(lengths.sum()) != columns.size:
            raise ShapeError(f"row lengths sum to {int(lengths.sum())}, "
                             f"but {columns.size} columns are given")
        row_of = np.repeat(np.arange(lengths.size, dtype=np.int64), lengths)
        same_row = row_of[1:] == row_of[:-1]
        if (same_row & (columns[1:] < columns[:-1])).any():
            columns = columns[np.lexsort((columns, row_of))]
        dup = np.flatnonzero(same_row & (columns[1:] == columns[:-1]))
        outside = np.flatnonzero((columns < 0) | (columns >= cols))
        dup_row = row_of[dup[0]] if dup.size else lengths.size
        outside_row = row_of[outside[0]] if outside.size else lengths.size
        if dup_row < lengths.size and dup_row <= outside_row:
            raise ShapeError(f"row {dup_row} has duplicate column "
                             f"{columns[dup[0]]}")
        if outside_row < lengths.size:
            raise ShapeError(f"row {outside_row} support outside [0, {cols})")
        if lengths.size != rows:
            raise ShapeError(f"expected {rows} rows, got {lengths.size}")
        starts = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum(lengths, out=starts[1:])
        for a in (starts, row_of, columns):
            a.flags.writeable = False
        vars(self).update(rows=rows, cols=cols, _starts=starts,
                          _edges=(row_of, columns))

    def __setattr__(self, name, value):
        raise AttributeError("BitMatrix is immutable")

    def __reduce__(self):
        # the arrays alone: a copy rebuilds its cached views on first use
        return (BitMatrix.from_arrays, (self.rows, self.cols,
                                        self.row_lengths(), self._edges[1]))

    @cached_property
    def row_support(self) -> tuple[tuple[int, ...], ...]:
        """Sorted column support of every row, built on first use and cached."""
        # all rows share one int object per column
        ints = list(range(self.cols))
        out = []
        for bounds, block in _row_blocks(self):
            flat = list(map(ints.__getitem__, block.tolist()))
            out.extend(tuple(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))
        return tuple(out)

    def row_lengths(self) -> np.ndarray:
        """Number of entries in each row, as a new int64 array."""
        return np.diff(self._starts)

    def row_block(self, start: int, stop: int) -> "BitMatrix":
        """Rows start..stop-1 as a matrix of their own."""
        if not 0 <= start <= stop <= self.rows:
            raise ShapeError(f"rows {start}..{stop - 1} of a {self.rows}-row "
                             f"matrix")
        return BitMatrix.from_arrays(
            stop - start, self.cols, np.diff(self._starts[start:stop + 1]),
            self._edges[1][self._starts[start]:self._starts[stop]])

    def bitrows(self) -> tuple[int, ...]:
        """Every row as one Python int, bit c set for an entry in column c."""
        return tuple(self._packed_rows())

    def _packed_rows(self):
        """Every row as a packed int, in order, packed a chunk of rows at a
        time."""
        nbytes = (self.cols + 7) // 8
        width = 8 * nbytes
        step = max(1, _CHUNK_BITS // width)
        for at in range(0, self.rows, step):
            stop = min(at + step, self.rows)
            lo, hi = self._starts[at], self._starts[stop]
            dense = np.zeros((stop - at) * width, dtype=bool)
            dense[(self._edges[0][lo:hi] - at) * width
                  + self._edges[1][lo:hi]] = True
            packed = np.packbits(dense, bitorder="little").tobytes()
            yield from (int.from_bytes(packed[k:k + nbytes], "little")
                        for k in range(0, len(packed), nbytes))

    def echelon(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(pivots, dependent): the row elimination, built on first use and
        cached.

        One EchelonBasis pass inserts the rows in order, each packed as it
        is inserted.  pivots are the pivot columns in ascending order, as
        EchelonBasis.pivots() gives them; dependent are the indices of the
        rows that lie in the span of the rows above them.  The rank is
        len(pivots).
        """
        return self._echelon

    @cached_property
    def _echelon(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        basis = EchelonBasis()
        dependent = tuple(i for i, bits in enumerate(self._packed_rows())
                          if not basis.insert(bits))
        return tuple(basis.pivots()), dependent

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) index of every entry in row-major order, as read-only
        int64 arrays; the Tanner graph view, kept from construction."""
        return self._edges

    def slots(self) -> tuple[np.ndarray, np.ndarray]:
        """(slots, pos): the check-slot view, built on first use and cached.

        slots is a read-only (max row length x rows) int64 array whose column
        i lists row i's columns in order, padded below with the sentinel
        cols; pos is the read-only flat index into slots of every entry of
        edges(), so that slots.ravel()[pos] equals edges()[1].
        """
        return self._slot_view[:2]

    def slot_padding(self) -> np.ndarray:
        """The read-only flat indices into slots()[0] of its padding, in
        increasing order; cached with slots()."""
        return self._slot_view[2]

    @cached_property
    def _slot_view(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        lengths = self.row_lengths()
        rows, columns = self._edges
        width = int(lengths.max()) if lengths.size else 0
        rank = np.arange(columns.size, dtype=np.int64) - self._starts[rows]
        pos = rank * self.rows + rows
        slots = np.full((width, self.rows), self.cols, dtype=np.int64)
        slots.ravel()[pos] = columns
        padding = np.flatnonzero(slots.ravel() == self.cols)
        for a in (slots, pos, padding):
            a.flags.writeable = False
        return slots, pos, padding

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitMatrix) and self.rows == other.rows
                and self.cols == other.cols
                and np.array_equal(self._starts, other._starts)
                and np.array_equal(self._edges[1], other._edges[1]))

    def __hash__(self):
        return hash((self.rows, self.cols, self._starts.tobytes(),
                     self._edges[1].tobytes()))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols}, nnz={self._edges[1].size})"


# packing a matrix unpacks at most about this many bits of it at once
_CHUNK_BITS = 1 << 16
# row_support and write_matrix turn this many rows at a time into Python
# objects
_ROW_BLOCK = 64


def _row_blocks(a: BitMatrix):
    """For each block of _ROW_BLOCK rows of a, in order: where each of its
    rows starts within the block, then where the block ends, and the
    block's columns."""
    starts = a._starts.tolist()
    for at in range(0, a.rows, _ROW_BLOCK):
        bounds = starts[at:at + _ROW_BLOCK + 1]
        yield ([b - bounds[0] for b in bounds],
               a._edges[1][bounds[0]:bounds[-1]])


def _bit_indices(bits: int) -> list[int]:
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def identity(n: int) -> BitMatrix:
    return BitMatrix(n, n, [[i] for i in range(n)])


def mat_mul(a: BitMatrix, b: BitMatrix) -> BitMatrix:
    """GF(2) product a @ b: each entry (i, k) of a adds b's row k to row i,
    and the entries added an odd number of times remain."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    rows, ks = a.edges()
    counts = np.diff(b._starts)[ks]
    # flat index into b's columns of every contributed entry
    at = (np.repeat(b._starts[ks] - np.cumsum(counts) + counts, counts)
          + np.arange(int(counts.sum()), dtype=np.int64))
    keys, times = np.unique(np.repeat(rows, counts) * b.cols + b._edges[1][at],
                            return_counts=True)
    keys = keys[times % 2 == 1]
    return BitMatrix.from_arrays(a.rows, b.cols,
                                 np.bincount(keys // b.cols, minlength=a.rows),
                                 keys % b.cols)


def mul_vec(a: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over GF(2): entry i is the parity of row i AND v."""
    if a.cols != v.length:
        raise ShapeError(f"cannot apply {a.rows}x{a.cols} to length-{v.length} vector")
    rows, cols = a.edges()
    hit = v.to_array().view(bool)[cols]
    return BitVector.from_array(np.bincount(rows[hit], minlength=a.rows) & 1)


def transpose(a: BitMatrix) -> BitMatrix:
    """Row c lists, ascending, the rows of a with an entry in column c."""
    if a.rows == 0:
        raise ShapeError("cannot transpose an empty matrix")
    rows, cols = a.edges()
    return BitMatrix.from_arrays(a.cols, a.rows,
                                 np.bincount(cols, minlength=a.cols),
                                 rows[np.argsort(cols, kind="stable")])


class EchelonBasis:
    """Incremental row-echelon basis of packed rows, each keyed by its
    highest set bit.

    With tag_bits = t, the low t bits of every row are a tag rather than part
    of the row: insert ``row << t | tag``, and a reduction accumulates the
    tags of the rows it combines.  While the row part is non-zero its highest
    bit lies above the tag, so a pivot never falls in the tag bits.  With row
    i inserted as ``row << t | 1 << i``, solve names the rows summing to a target.
    """

    def __init__(self, tag_bits: int = 0):
        self.tag_bits = tag_bits
        # entry p is the row whose pivot is bit p, 0 where bit p is no pivot;
        # the list is as long as the widest row inserted
        self._rows: list[int] = []
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def reduce(self, bits: int) -> int:
        """bits minus basis rows, from the top, until its row part is zero or
        its highest bit is not a pivot."""
        rows, t = self._rows, self.tag_bits
        top = bits.bit_length() - 1
        if top >= len(rows):
            return bits     # above every pivot
        while top >= t and (row := rows[top]):
            bits ^= row
            top = bits.bit_length() - 1
        return bits

    def insert(self, bits: int) -> bool:
        """Add a row; False, leaving the basis unchanged, when its row part is
        already in the span."""
        bits = self.reduce(bits)
        top = bits.bit_length() - 1
        if top < self.tag_bits:
            return False
        rows = self._rows
        if top >= len(rows):
            rows.extend([0] * (top + 1 - len(rows)))
        rows[top] = bits
        self._count += 1
        return True

    def solve(self, target: int) -> int:
        """Tag of inserted rows whose row parts sum to target; ValueError when
        target lies outside their span."""
        bits = self.reduce(target << self.tag_bits)
        if bits.bit_length() > self.tag_bits:
            raise ValueError("target lies outside the span of the basis")
        return bits

    def pivots(self) -> list[int]:
        """Pivot positions within the row part, ascending."""
        t = self.tag_bits
        return [p - t for p, row in enumerate(self._rows) if row]


def _column_basis(a: BitMatrix) -> tuple[EchelonBasis, list[int], list[int]]:
    """One pass over a's columns, left to right, column c tagged 1 << c.
    Column c is row c of transpose(a), packed as echelon() packs rows.

    Returns (basis, pivot columns, null vectors).  The basis solves a x = y
    for x.  Each dependent column f yields the null vector made of f and the
    earlier pivot columns that sum to it, in ascending order of f.
    """
    cols = transpose(a).bitrows() if a.rows else (0,) * a.cols
    basis = EchelonBasis(a.cols)
    pivots, null = [], []
    for c, bits in enumerate(cols):
        left = basis.reduce(bits << a.cols | 1 << c)
        if basis.insert(left):
            pivots.append(c)
        else:
            null.append(left)
    return basis, pivots, null


def rank(a: BitMatrix) -> int:
    return len(a.echelon()[0])


def systematic_form(a: BitMatrix) -> tuple[BitMatrix, tuple[int, ...]]:
    """Row reduce and move pivot columns to the front.

    Returns (matrix, col_perm) where col_perm maps new column index to original
    column index; the result equals the RREF of a with its columns so permuted
    and carries an identity block in the first a.rows columns.  The row space of
    the result equals the row space of permute(a, identity, col_perm).
    Raises RankDeficiencyError (carrying the computed rank) on rank < rows.
    """
    _, pivots, null = _column_basis(a)
    if len(pivots) < a.rows:
        raise RankDeficiencyError(
            f"matrix {a.rows}x{a.cols} has rank {len(pivots)} < {a.rows}", len(pivots))
    # RREF row j holds a one in free column f when f's null vector uses pivot j
    row_of = {c: j for j, c in enumerate(pivots)}
    rows = [[j] for j in range(a.rows)]
    for k, vec in enumerate(null):
        for c in _bit_indices(vec)[:-1]:
            rows[row_of[c]].append(a.rows + k)
    free = tuple(vec.bit_length() - 1 for vec in null)
    return BitMatrix(a.rows, a.cols, rows), tuple(pivots) + free


def permute(a: BitMatrix, row_perm: Sequence[int], col_perm: Sequence[int]) -> BitMatrix:
    """Entry (i, j) of the result is entry (row_perm[i], col_perm[j]) of a."""
    if sorted(row_perm) != list(range(a.rows)):
        raise ValueError("row_perm is not a permutation of range(rows)")
    if sorted(col_perm) != list(range(a.cols)):
        raise ValueError("col_perm is not a permutation of range(cols)")
    inv_col = [0] * a.cols
    for new_c, old_c in enumerate(col_perm):
        inv_col[old_c] = new_c
    return BitMatrix(
        a.rows, a.cols,
        [[inv_col[c] for c in a.row_support[row_perm[i]]] for i in range(a.rows)])


def write_matrix(f: TextIO, a: BitMatrix) -> None:
    """Interchange format: "rows cols" header, one line of 1-based column indices
    per row, and a terminating blank line."""
    f.write(f"{a.rows} {a.cols}\n")
    for bounds, block in _row_blocks(a):
        tokens = list(map(str, (block + 1).tolist()))
        f.write("".join(" ".join(tokens[lo:hi]) + "\n"
                        for lo, hi in zip(bounds, bounds[1:])))
    f.write("\n")


# read_matrix parses this many row lines at a time, which bounds its
# temporaries whatever the size of the matrix
_PARSE_LINES = 4096
# byte classes of the matrix format: 1 ASCII whitespace, 2 digit, 3 sign,
# 0 anything else
_BYTE_CLASS = np.zeros(256, dtype=np.uint8)
_BYTE_CLASS[list(b" \t\n\v\f\r")] = 1
_BYTE_CLASS[list(b"0123456789")] = 2
_BYTE_CLASS[list(b"+-")] = 3
_BYTE_CLASS.flags.writeable = False
# the same rule for the header's two numbers (ASCII \s and \d)
_HEADER = re.compile(r"\s*([+-]?\d+)\s+([+-]?\d+)\s*", re.ASCII)


def read_matrix(f: TextIO) -> BitMatrix:
    """Inverse of write_matrix.  Blank lines may follow the declared rows;
    any other line there is an error.  The header's two numbers and the
    indices are decimal integers, an optional sign then ASCII digits,
    separated by ASCII whitespace."""
    header = f.readline()
    numbers = _HEADER.fullmatch(header)
    if numbers is None:
        raise ValueError(f"bad header line: {header.strip()!r}")
    rows, cols = int(numbers[1]), int(numbers[2])
    lines = f.read().split("\n")
    if lines[-1] == "":
        lines.pop()  # the text ends in a newline, or is empty
    body = max(rows, 0)
    if len(lines) < body:
        raise ValueError(f"unexpected end of file at row {len(lines)}")
    for lineno, line in enumerate(lines[body:], start=rows + 2):
        if line.strip():
            raise ValueError(f"line {lineno}: row beyond the {rows} rows "
                             f"the header declares: {line.strip()!r}")
    lengths = [np.zeros(0, dtype=np.int64)]
    columns = [np.zeros(0, dtype=np.int64)]
    for at in range(0, body, _PARSE_LINES):
        count, found = _parse_rows(lines[at:min(at + _PARSE_LINES, body)],
                                   first_lineno=at + 2)
        lengths.append(count)
        columns.append(found)
    return BitMatrix.from_arrays(rows, cols, np.concatenate(lengths),
                                 np.concatenate(columns))


def _parse_rows(lines: list[str], first_lineno: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """How many indices each line holds, and all of them in order, 0-based,
    parsed from the lines' bytes at once.  The first malformed index raises
    ValueError naming its line."""
    text = "\n".join(lines).encode()
    raw = np.frombuffer(text, dtype=np.uint8)
    kind = _BYTE_CLASS[raw]
    space = kind == 1
    first = ~space
    first[1:] &= space[:-1]
    # a sign must open an index and be followed by a digit
    signs = np.flatnonzero(kind == 3)
    misplaced = signs[~first[signs]
                      | (kind[np.minimum(signs + 1, raw.size - 1)] != 2)
                      | (signs + 1 == raw.size)]
    other = np.flatnonzero(kind == 0)
    if misplaced.size or other.size:
        at = int(min(misplaced[:1].tolist() + other[:1].tolist()))
        lo = int(np.flatnonzero(first[:at + 1])[-1])
        hi = at + int(np.argmax(np.append(space[at:], True)))
        token = text[lo:hi].decode()
        lineno = first_lineno + text.count(b"\n", 0, at)
        raise ValueError(f"line {lineno}: {token!r} is not a decimal integer")
    starts = np.flatnonzero(first)
    # tokens before each line break, and so per line
    ends = np.searchsorted(starts, np.flatnonzero(raw == ord("\n")))
    lengths = np.diff(ends, prepend=0, append=starts.size)
    # fromstring reads whitespace alone as one 0; without indices, skip it
    indices = (np.fromstring(text, dtype=np.int64, sep=" ") if starts.size
               else np.zeros(0, dtype=np.int64))
    if indices.size != starts.size:
        raise ValueError(f"read {indices.size} indices from {starts.size} "
                         f"tokens")
    indices -= 1
    return lengths, indices
