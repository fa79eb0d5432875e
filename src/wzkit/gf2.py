"""GF(2) vectors and sparse matrices, with one elimination core.

Matrices are stored as sorted per-row column supports (the canonical form) plus a
lazily built packed view: one Python int per row, bit c = entry in column c.  The
packed view makes elimination word-parallel, so dimensions of a few times 10^5
per axis stay workable; memory is O(nnz) for storage and about rows*cols/8 bytes
while an elimination runs.

All values are immutable after construction.  Every GF(2) elimination in the
package goes through EchelonBasis, an incremental row-echelon basis that keys
each packed row by its highest set bit.  Reducing a row then takes one dict
lookup per step, from the top bit down, and rows inserted in a fixed order
always produce the same pivots and the same dependent rows.  Optional tag bits
below the row part record which inserted rows a reduction combined, so the
same basis solves linear systems and inverts matrices.

The results of rank, invert, systematic_form and null_space_basis do not
depend on the pivot order.  The rank and the inverse are unique.
systematic_form and null_space_basis come from one pass over the columns, left
to right, each column tagged with its own index.  A column that is independent
of the columns before it is a pivot of the reduced row echelon form (RREF).  A
dependent column's leftover tag is its unique expression over the earlier
pivot columns, which is also what the RREF records in that column.  Both
outputs are therefore the canonical RREF, whatever order elimination runs in.
"""

from __future__ import annotations

from dataclasses import dataclass
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
    "invert",
    "systematic_form",
    "null_space_basis",
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
    def from_support(cls, length: int, support: Iterable[int]) -> "BitVector":
        bits = 0
        for idx in support:
            if not 0 <= idx < length:
                raise ShapeError(f"support index {idx} outside [0, {length})")
            bits |= 1 << idx
        return cls(length, bits)

    @classmethod
    def from_bits_list(cls, values: Sequence[int]) -> "BitVector":
        if any(v not in (0, 1) for v in values):
            raise ValueError("entries must be 0 or 1")
        bits = 0
        for i, v in enumerate(values):
            if v:
                bits |= 1 << i
        return cls(len(values), bits)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(_bit_indices(self.bits))

    def to_list(self) -> list[int]:
        return [(self.bits >> i) & 1 for i in range(self.length)]

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

    ``rows == 0`` is permitted solely so that an empty null-space basis is
    representable; every other constructor path produces rows >= 1.
    """

    __slots__ = ("rows", "cols", "row_support", "_bitrows", "_edges")

    def __init__(self, rows: int, cols: int, row_support: Iterable[Iterable[int]]):
        if rows < 0 or cols < 1:
            raise ShapeError(f"bad shape {rows}x{cols}")
        supports = []
        for i, sup in enumerate(row_support):
            tup = tuple(sorted(sup))
            for a, b in zip(tup, tup[1:]):
                if a == b:
                    raise ShapeError(f"row {i} has duplicate column {a}")
            if tup and (tup[0] < 0 or tup[-1] >= cols):
                raise ShapeError(f"row {i} support outside [0, {cols})")
            supports.append(tup)
        if len(supports) != rows:
            raise ShapeError(f"expected {rows} rows, got {len(supports)}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "row_support", tuple(supports))
        object.__setattr__(self, "_bitrows", None)
        object.__setattr__(self, "_edges", None)

    def __setattr__(self, name, value):
        raise AttributeError("BitMatrix is immutable")

    def __reduce__(self):
        # the blocked __setattr__ defeats slot-state unpickling
        return (BitMatrix, (self.rows, self.cols, self.row_support))

    @classmethod
    def from_bitrows(cls, rows: int, cols: int, bitrows: Sequence[int]) -> "BitMatrix":
        return cls(rows, cols, [_bit_indices(b) for b in bitrows])

    def bitrows(self) -> tuple[int, ...]:
        """Packed view, built on first use and cached."""
        cached = object.__getattribute__(self, "_bitrows")
        if cached is None:
            cached = tuple(sum(1 << c for c in sup) for sup in self.row_support)
            object.__setattr__(self, "_bitrows", cached)
        return cached

    def edges(self) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) index of every entry in row-major order, as read-only
        int64 arrays; the Tanner graph view, built on first use and cached."""
        cached = object.__getattribute__(self, "_edges")
        if cached is None:
            degs = [len(s) for s in self.row_support]
            rows = np.repeat(np.arange(self.rows, dtype=np.int64), degs)
            cols = np.fromiter(chain.from_iterable(self.row_support),
                               dtype=np.int64, count=rows.size)
            rows.flags.writeable = cols.flags.writeable = False
            cached = (rows, cols)
            object.__setattr__(self, "_edges", cached)
        return cached

    def row(self, i: int) -> BitVector:
        return BitVector(self.cols, self.bitrows()[i])

    def __eq__(self, other) -> bool:
        return (isinstance(other, BitMatrix) and self.rows == other.rows
                and self.cols == other.cols and self.row_support == other.row_support)

    def __hash__(self):
        return hash((self.rows, self.cols, self.row_support))

    def __repr__(self) -> str:
        return f"BitMatrix({self.rows}x{self.cols}, nnz={sum(map(len, self.row_support))})"


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
    """GF(2) product a @ b; row i of the result is the XOR of b-rows in a's support."""
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    brows = b.bitrows()
    out = []
    for sup in a.row_support:
        acc = 0
        for k in sup:
            acc ^= brows[k]
        out.append(acc)
    return BitMatrix.from_bitrows(a.rows, b.cols, out)


def mul_vec(a: BitMatrix, v: BitVector) -> BitVector:
    """Matrix-vector product over GF(2): entry i is the parity of row i AND v."""
    if a.cols != v.length:
        raise ShapeError(f"cannot apply {a.rows}x{a.cols} to length-{v.length} vector")
    bits = 0
    for i, row in enumerate(a.bitrows()):
        if (row & v.bits).bit_count() & 1:
            bits |= 1 << i
    return BitVector(a.rows, bits)


def transpose(a: BitMatrix) -> BitMatrix:
    if a.rows == 0:
        raise ShapeError("cannot transpose an empty matrix")
    cols: list[list[int]] = [[] for _ in range(a.cols)]
    for i, sup in enumerate(a.row_support):
        for c in sup:
            cols[c].append(i)
    return BitMatrix(a.cols, a.rows, cols)


class EchelonBasis:
    """Incremental row-echelon basis of packed rows, each keyed by its
    highest set bit.

    With tag_bits = t, the low t bits of every row are a tag rather than part
    of the row: insert ``row << t | tag``, and a reduction accumulates the
    tags of the rows it combines.  While the row part is non-zero its highest
    bit lies above the tag, so a pivot never falls in the tag bits.
    """

    __slots__ = ("tag_bits", "_rows")

    def __init__(self, tag_bits: int = 0):
        self.tag_bits = tag_bits
        self._rows: dict[int, int] = {}   # pivot bit -> row

    @classmethod
    def tagged(cls, rows: Sequence[int]) -> "EchelonBasis":
        """Basis of `rows`, row i tagged 1 << i, so that solve(target) returns
        the set of rows summing to target."""
        basis = cls(len(rows))
        for i, bits in enumerate(rows):
            basis.insert(bits << len(rows) | 1 << i)
        return basis

    def __len__(self) -> int:
        return len(self._rows)

    def reduce(self, bits: int) -> int:
        """bits minus basis rows, from the top, until its row part is zero or
        its highest bit is not a pivot."""
        rows, t = self._rows, self.tag_bits
        while (top := bits.bit_length() - 1) >= t:
            row = rows.get(top)
            if row is None:
                break
            bits ^= row
        return bits

    def insert(self, bits: int) -> bool:
        """Add a row; False, leaving the basis unchanged, when its row part is
        already in the span."""
        bits = self.reduce(bits)
        if bits.bit_length() <= self.tag_bits:
            return False
        self._rows[bits.bit_length() - 1] = bits
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
        return sorted(p - self.tag_bits for p in self._rows)


def _column_basis(a: BitMatrix) -> tuple[EchelonBasis, list[int], list[int]]:
    """One pass over a's columns, left to right, column c tagged 1 << c.

    Returns (basis, pivot columns, null vectors).  The basis solves a x = y
    for x.  Each dependent column f yields the null vector made of f and the
    earlier pivot columns that sum to it, in ascending order of f.
    """
    cols = [0] * a.cols
    for i, sup in enumerate(a.row_support):
        for c in sup:
            cols[c] |= 1 << i
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
    basis = EchelonBasis()
    return sum(basis.insert(bits) for bits in a.bitrows())


def invert(a: BitMatrix) -> BitMatrix:
    """Inverse of a square full-rank matrix over GF(2).  Raises
    RankDeficiencyError (carrying the computed rank) when a is singular."""
    if a.rows != a.cols:
        raise ShapeError(f"cannot invert non-square {a.rows}x{a.cols}")
    n = a.rows
    basis = EchelonBasis.tagged(a.bitrows())
    if len(basis) < n:
        raise RankDeficiencyError(
            f"matrix {n}x{n} has rank {len(basis)} < {n}", len(basis))
    return BitMatrix.from_bitrows(n, n, [basis.solve(1 << j) for j in range(n)])


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


def null_space_basis(a: BitMatrix) -> BitMatrix:
    """Basis of {v : a v^T = 0} as rows; cols - rank(a) rows (possibly zero)."""
    null = _column_basis(a)[2]
    return BitMatrix.from_bitrows(len(null), a.cols, null)


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
    for sup in a.row_support:
        f.write(" ".join(str(c + 1) for c in sup) + "\n")
    f.write("\n")


def read_matrix(f: TextIO) -> BitMatrix:
    """Inverse of write_matrix.  Blank lines may follow the declared rows;
    any other line there is an error."""
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
