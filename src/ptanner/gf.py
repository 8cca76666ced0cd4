"""Exact linear algebra over prime fields GF(p).

Everything here is integer arithmetic mod p; no floating point is used
anywhere.  Matrices carry their modulus and are stored sparse (CSR).
Elimination over GF(2) runs on rows bit-packed into uint64 words, packed
straight from the CSR indices; odd p eliminates a dense int64 copy.  A
systematic form walks from one information set to the next one pivot step
at a time, with no elimination.

A subspace is a `LinearCode`: the RREF of a spanning set, eliminated once,
off which its dimension, membership (of one vector or of a batch, in one
residual), separating dual words and dual code are read.  It is the one
eliminator: `row_reduce`, `solve`, `rank`, `kernel_basis` and
`in_rowspace` each build one.  Over GF(2) the kernel rows are packed
straight from the packed RREF, so the dual code and the distance search's
systematic form never go through a dense int64 array.

`iter_vectors` is the one counter through GF(p)^k; `iter_codewords` is its
coefficient vectors times a basis.  One scorer serves every light-word
search: it asks each weight class of a batch of storage rows lighter than
the best so far, lightest first, in bands of residuals against the
subspace to stay outside, up to the class's first row outside.  One enumeration
loop over `iter_codewords` feeds it (`min_distance`, `coset_min_weight`,
`lightest_outside`), and so does `information_set_search`, with the rows
each walk step changes; both return dense words.  Enumerations take an
explicit budget and refuse to start work that would exceed it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterator

import numpy as np
from scipy import sparse

from .errors import BudgetExceeded, DimensionMismatch, InvalidField
from .jsonio import encode_ints

__all__ = [
    "PrimeField",
    "FMatrix",
    "LinearCode",
    "DEFAULT_ENUMERATION_BUDGET",
    "as_vector",
    "rank",
    "kernel_basis",
    "row_reduce",
    "rank_work",
    "information_set_walk",
    "information_set_search",
    "solve",
    "in_rowspace",
    "coset_min_weight",
    "min_distance",
    "lightest_outside",
    "iter_vectors",
    "iter_codewords",
]

# Enumerations larger than this raise BudgetExceeded unless overridden.
DEFAULT_ENUMERATION_BUDGET = 2**24

_ENUM_CHUNK = 1 << 14

# RREF words transposed at once while `LinearCode._kernel_rows` packs the GF(2)
# dual rows of their free columns.
_KERNEL_WORDS = 4


def _supported_prime(p: int) -> bool:
    """A prime up to 2^16; the limit is tested before any trial division."""
    if not 2 <= p <= 2**16:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PrimeField:
    """A prime modulus with the handful of scalar ops we need."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not _supported_prime(self.p):
            raise InvalidField(f"modulus {self.p!r} is not a prime up to 2^16")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)


def as_vector(p: int, data) -> np.ndarray:
    """Coerce a sequence to a 1-D int64 array reduced mod p."""
    v = np.asarray(data, dtype=np.int64) % p
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {v.shape}")
    return v


def _as_array(p: int, data) -> np.ndarray:
    a = np.asarray(data, dtype=np.int64)
    a = a & 1 if p == 2 else a % p  # the same for p = 2, and far cheaper
    if a.ndim == 1:
        a = a.reshape(1, -1)
    if a.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {a.shape}")
    return a


class FMatrix:
    """Matrix over GF(p), stored as one canonical `scipy.sparse` CSR array.

    Stored entries are int64 in [1, p): no explicit zeros and no duplicates,
    with column indices sorted inside each row.  Products stay sparse, and
    GF(2) elimination packs the rows from the CSR indices; `toarray()` is
    the path into the dense odd-p elimination.
    """

    __slots__ = ("p", "_csr")

    def __init__(self, p: int, data):
        """Reduce `data` (anything `scipy.sparse.csr_array` accepts) mod p."""
        PrimeField(p)
        csr = sparse.csr_array(data, dtype=np.int64, copy=True)
        csr.sum_duplicates()
        csr.data %= p
        csr.eliminate_zeros()
        self.p = p
        self._csr = csr

    # ---- constructors -------------------------------------------------

    @classmethod
    def from_dense(cls, p: int, data) -> "FMatrix":
        return cls(p, _as_array(p, data))

    @classmethod
    def from_entries(cls, p: int, n_rows: int, n_cols: int, entries) -> "FMatrix":
        """Build from (row, col, value) triples; a later duplicate cell wins."""
        e = np.asarray(entries, dtype=np.int64)
        if e.size == 0:
            e = e.reshape(0, 3)
        if e.ndim != 2 or e.shape[1] != 3:
            raise DimensionMismatch(
                f"entries of shape {e.shape} are not (row, col, value) triples"
            )
        r, c, v = e.T
        outside = (r < 0) | (r >= n_rows) | (c < 0) | (c >= n_cols)
        if outside.any():
            i = int(np.argmax(outside))
            raise DimensionMismatch(f"entry ({r[i]},{c[i]}) outside {n_rows}x{n_cols}")
        # the first occurrence of a cell in reverse order is its last write
        _, rev = np.unique((r * n_cols + c)[::-1], return_index=True)
        last = len(r) - 1 - rev
        cells = (v[last], (r[last], c[last]))
        return cls(p, sparse.csr_array(cells, shape=(n_rows, n_cols)))

    @classmethod
    def zeros(cls, p: int, n_rows: int, n_cols: int) -> "FMatrix":
        return cls.from_entries(p, n_rows, n_cols, [])

    @classmethod
    def identity(cls, p: int, n: int) -> "FMatrix":
        return cls(p, sparse.identity(n, dtype=np.int64, format="csr"))

    # ---- storage ------------------------------------------------------

    @property
    def shape(self) -> tuple[int, int]:
        return self._csr.shape

    def toarray(self) -> np.ndarray:
        return self._csr.toarray()

    def entries(self) -> list[tuple[int, int, int]]:
        """Nonzero entries as (row, col, value), row-major sorted."""
        coo = self._csr.tocoo()
        return list(zip(coo.row.tolist(), coo.col.tolist(), coo.data.tolist()))

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The canonical storage as (indptr, indices, data); read only."""
        return self._csr.indptr, self._csr.indices, self._csr.data

    def rows(self) -> list[tuple[list[int], list[int]]]:
        """Per row: its nonzero column indices, ascending, and their values."""
        ptr = self._csr.indptr.tolist()
        idx, val = self._csr.indices.tolist(), self._csr.data.tolist()
        return [(idx[a:b], val[a:b]) for a, b in zip(ptr, ptr[1:])]

    def nnz(self) -> int:
        return int(self._csr.nnz)

    # ---- queries ------------------------------------------------------

    def row_weights(self) -> list[int]:
        return np.diff(self._csr.indptr).tolist()

    def col_weights(self) -> list[int]:
        return np.bincount(self._csr.indices, minlength=self.shape[1]).tolist()

    def max_row_weight(self) -> int:
        return max(self.row_weights(), default=0)

    def max_col_weight(self) -> int:
        return max(self.col_weights(), default=0)

    @property
    def T(self) -> "FMatrix":
        return FMatrix(self.p, self._csr.T)

    def matmul(self, other: "FMatrix") -> "FMatrix":
        if self.p != other.p:
            raise DimensionMismatch("field mismatch in matmul")
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch(f"{self.shape} @ {other.shape}")
        return FMatrix(self.p, self._csr @ other._csr)

    def __matmul__(self, other: "FMatrix") -> "FMatrix":
        return self.matmul(other)

    def apply(self, v: np.ndarray) -> np.ndarray:
        """Matrix-vector product mod p."""
        v = as_vector(self.p, v)
        if v.shape[0] != self.shape[1]:
            raise DimensionMismatch(f"{self.shape} applied to length {v.shape[0]}")
        return (self._csr @ v) % self.p

    def __eq__(self, other) -> bool:
        if not isinstance(other, FMatrix):
            return NotImplemented
        return (
            self.p == other.p
            and self.shape == other.shape
            and (self._csr != other._csr).nnz == 0
        )

    def __hash__(self):
        return hash((self.p, self.shape, tuple(self.entries())))

    def __repr__(self):
        return f"FMatrix(p={self.p}, shape={self.shape}, nnz={self.nnz()})"

    # ---- serialization ------------------------------------------------

    def to_doc(self) -> dict:
        """The entries as one `Encoded` list of [row, col, value], row-major."""
        coo = self._csr.tocoo()
        cells = np.column_stack((coo.row, coo.col, coo.data))
        return {
            "p": self.p,
            "rows": self.shape[0],
            "cols": self.shape[1],
            "entries": encode_ints(["[%d,%d,%d]"] * len(cells), cells.ravel()),
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "FMatrix":
        return cls.from_entries(doc["p"], doc["rows"], doc["cols"], doc["entries"])


# ---- elimination ------------------------------------------------------
#
# Over GF(2) a row is packed 64 columns to a little-endian uint64 word
# (column c is bit c % 64 of word c // 64), and `_eliminate` reads it as one
# Python int, column c its bit c.  Odd p runs the dense int64 loop
# `_row_reduce_dense`.  Both produce the reduced row echelon form, which is
# unique, so they agree exactly.  `LinearCode._reduce` is their one caller.

_WORD = np.dtype("<u8")
_BIT = np.uint64(1) << np.arange(64, dtype=np.uint64)  # _BIT[s]: bit s of a word


def _operand(m: FMatrix | np.ndarray, p: int | None) -> tuple[FMatrix | np.ndarray, int]:
    """(matrix, p): an FMatrix as it is, anything else as an array mod p."""
    if isinstance(m, FMatrix):
        return m, m.p
    if p is None:
        raise InvalidField("modulus required for raw arrays")
    return _as_array(p, m), p


def _pack(m: FMatrix | np.ndarray, n_cols: int) -> np.ndarray:
    """Rows of a GF(2) matrix as words, with room for `n_cols` columns; an
    FMatrix is packed from its CSR indices."""
    words = -(-n_cols // 64)
    if isinstance(m, FMatrix):
        csr = m._csr
        out = np.zeros((csr.shape[0], words), dtype=_WORD)
        row = np.repeat(np.arange(csr.shape[0]), np.diff(csr.indptr))
        col = csr.indices.astype(np.int64)
        np.bitwise_or.at(out, (row, col >> 6), _BIT[col & 63])
        return out
    out = np.zeros((m.shape[0], words * 8), dtype=np.uint8)
    packed = np.packbits(m.astype(bool), axis=1, bitorder="little")
    out[:, : packed.shape[1]] = packed
    return out.view(_WORD)


def _unpack(rows: np.ndarray, n_cols: int) -> np.ndarray:
    bits = np.unpackbits(rows.view(np.uint8), axis=1, count=n_cols, bitorder="little")
    return bits.astype(np.int64)


def _eliminate(rows: np.ndarray, n_cols: int) -> list[int]:
    """Reduced row echelon form over GF(2) on packed (C-contiguous) rows,
    in place.  Each row, as an int, goes into a basis keyed by lowest set
    bit, its leading column, XORed with the basis row there until that is
    free or the row is zero.  From the highest pivot down, each basis row
    is cleared of the higher pivots and written back.  Returns the pivot
    columns; rows [0, rank) end as the RREF in pivot order, the rest zero.
    """
    if not rows.size:
        return []
    width = rows.shape[1] * 8
    view = memoryview(rows).cast("B")
    basis: dict[int, int] = {}
    for i in range(rows.shape[0]):
        x = int.from_bytes(view[i * width : (i + 1) * width], "little")
        while x and (lead := (x & -x).bit_length() - 1) in basis:
            x ^= basis[lead]
        if x:
            basis[lead] = x
    pivots = sorted(basis)
    rows[len(pivots) :] = 0
    done = 0  # the bits of the pivots whose rows are finished
    for i in reversed(range(len(pivots))):
        x = basis[pivots[i]]
        hit = x & done
        while hit:
            x ^= basis[c := hit.bit_length() - 1]
            hit ^= 1 << c
        basis[pivots[i]] = x
        done |= 1 << pivots[i]
        view[i * width : (i + 1) * width] = x.to_bytes(width, "little")
    return pivots


def _row_reduce_dense(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p on a dense int64 copy."""
    a = _as_array(p, a).copy()
    n_rows, n_cols = a.shape
    pivots: list[int] = []
    r = 0
    fld = PrimeField(p)
    for c in range(n_cols):
        if r == n_rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r] = (a[r] * fld.inv(int(a[r, c]))) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a, pivots


class LinearCode:
    """A subspace of GF(p)^n, held as the reduced row echelon form of a
    spanning set and eliminated once, when the code is made.

    Over GF(2) the RREF rows stay packed (an FMatrix is packed from its CSR
    indices); odd p keeps them dense.  The dimension, membership, a dual
    word separating an outside vector and the dual code are all read off
    that one echelon.  `basis` is the dense RREF, unpacked on first use.
    """

    __slots__ = ("p", "n", "pivots", "_rows", "_basis", "_dual")

    def __init__(self, p: int, n: int, rows=None):
        """`rows` spans the code: an FMatrix, or anything `np.asarray`
        takes as a matrix with n columns."""
        PrimeField(p)
        self.p, self.n = p, int(n)
        if isinstance(rows, FMatrix):
            if rows.p != p:
                raise InvalidField(f"rows over GF({rows.p}) for a code over GF({p})")
            m = rows
        elif rows is None or len(rows) == 0:
            m = np.zeros((0, self.n), dtype=np.int64)
        else:
            m = _as_array(p, rows)
        if m.shape[1] != self.n:
            raise DimensionMismatch(f"rows of length {m.shape[1]}, expected {self.n}")
        self._dual = None
        self._reduce(self._storage(m))

    def _reduce(self, rows: np.ndarray) -> None:
        """Keep the RREF of `rows`, storage rows spanning the code: packed
        over GF(2), eliminated in place; dense int64 for odd p."""
        if self.p == 2:
            pivots = _eliminate(rows, self.n)
        else:
            rows, pivots = _row_reduce_dense(rows, self.p)
        self.pivots = np.array(pivots, dtype=np.int64)
        self._rows = rows[: len(pivots)].copy()  # frees the zero rows
        self._basis = None if self.p == 2 else self._rows

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def basis(self) -> np.ndarray:
        """The RREF rows as a dense int64 array of shape (dim, n)."""
        if self._basis is None:
            self._basis = self._dense_rows(self._rows)
        return self._basis

    def _kernel_rows(self, free: np.ndarray | None = None) -> np.ndarray:
        """Dual basis rows as storage rows, one per free column f (all of
        them by default, ascending): 1 at f, 0 at the other free columns and
        -rref[i, f] at pivot i.  This is `kernel_basis` of the spanning rows.

        Over GF(2) the rows are packed straight from the packed RREF, the
        free columns of `_KERNEL_WORDS` RREF words at a time, so no dense
        (free, n) array is made.
        """
        if free is None:
            free = np.setdiff1d(np.arange(self.n), self.pivots)
        if self.p != 2:
            u = np.zeros((free.size, self.n), dtype=np.int64)
            u[np.arange(free.size), free] = 1
            u[:, self.pivots] = (-self._rows[:, free].T) % self.p
            return u
        out = np.empty((free.size, self._rows.shape[1]), dtype=_WORD)
        span = 64 * _KERNEL_WORDS
        for lo in range(0, self.n, span):
            a, b = np.searchsorted(free, (lo, lo + span))
            if a == b:
                continue
            # the words' bytes column by column: column c is bit c % 8 of byte c // 8
            cols = np.ascontiguousarray(self._rows[:, lo >> 6 : (lo + span) >> 6].view(np.uint8).T)
            c = free[a:b] - lo
            block = np.zeros((b - a, self.n), dtype=bool)
            block[np.arange(b - a), free[a:b]] = True
            block[:, self.pivots] = cols[c >> 3] >> (c & 7).astype(np.uint8)[:, None] & 1
            out[a:b] = _pack(block, self.n)
        return out

    def _storage(self, m: FMatrix | np.ndarray) -> np.ndarray:
        """Rows over the code's n columns as storage rows: packed over
        GF(2), dense int64 otherwise."""
        if self.p == 2:
            return _pack(m, self.n)
        return m.toarray() if isinstance(m, FMatrix) else m

    def _dense_rows(self, rows: np.ndarray) -> np.ndarray:
        """Storage rows as dense int64 rows."""
        return _unpack(rows, self.n) if self.p == 2 else rows

    def _residuals(self, rows: np.ndarray) -> np.ndarray:
        """Storage rows (packed over GF(2), dense and reduced mod p
        otherwise) minus, each, the one combination of basis rows that
        agrees with it on the pivots (an RREF row is the only one nonzero
        at its pivot); a row is zero exactly when it lies in the code."""
        if self.p != 2:
            return (rows - rows[:, self.pivots] @ self._rows) % self.p
        piv = self.pivots  # column c is bit c % 8 of byte c // 8
        coeffs = (rows.view(np.uint8)[:, piv >> 3] >> (piv & 7).astype(np.uint8)) & 1
        vec, row = np.nonzero(coeffs)  # row-major, so grouped by vector
        out = rows.copy()
        if vec.size:
            starts = np.flatnonzero(np.diff(vec, prepend=-1))
            out[vec[starts]] ^= np.bitwise_xor.reduceat(self._rows[row], starts, axis=0)
        return out

    def _residual(self, v) -> np.ndarray:
        v = as_vector(self.p, v)
        if v.shape[0] != self.n:
            raise DimensionMismatch(f"vector length {v.shape[0]} vs {self.n} columns")
        return self._residuals(self._storage(v[None]))[0]

    def contains(self, v) -> bool:
        return not self._residual(v).any()

    def dual_witness(self, v) -> np.ndarray | None:
        """The first dual basis row u (in `kernel_basis` order) with
        u.v != 0, or None when v lies in the code.

        The residual of v is zero on the pivots, and at a free column f it
        equals u_f.v, so its first nonzero entry names u.
        """
        outside = np.flatnonzero(self._dense_rows(self._residual(v)[None]))
        return self._dense_rows(self._kernel_rows(outside[:1]))[0] if outside.size else None

    def dual(self) -> "LinearCode":
        """The code of all u with u.c = 0 for every codeword c; made on the
        first call, by eliminating `_kernel_rows`, and kept.  Its own dual
        is this code."""
        if self._dual is None:
            dual = LinearCode.__new__(LinearCode)
            dual.p, dual.n, dual._dual = self.p, self.n, self
            dual._reduce(self._kernel_rows())
            self._dual = dual
        return self._dual

    def __eq__(self, other) -> bool:
        if not isinstance(other, LinearCode):
            return NotImplemented
        return (
            self.p == other.p
            and self.n == other.n
            and self.basis.shape == other.basis.shape
            and bool((self.basis == other.basis).all())
        )

    def __hash__(self):
        return hash((self.p, self.n, self.basis.tobytes()))

    def __repr__(self):
        return f"LinearCode(p={self.p}, n={self.n}, dim={self.dim})"


def information_set_walk(
    rows: np.ndarray, info: np.ndarray, n: int, p: int, rng: np.random.Generator
) -> Iterator[np.ndarray]:
    """Walk a systematic form from one information set to the next, in
    place (Canteaut-Chabaud).

    `rows` are storage rows over n columns (packed over GF(2), dense int64
    otherwise); row i is 1 at column info[i] and 0 at the other columns of
    `info`.  Each step draws from `rng` a column c outside `info` where the
    form is nonzero, then a row r nonzero at c, scales row r to 1 at c (odd
    p), clears c from every other row with it and puts c in r's place in
    `info`.  It yields the rows it cleared, ascending; the walk ends when no
    column is left to draw.  A step is a row operation, so a column of the
    form is nonzero exactly when it was at the start.
    """
    if p == 2:
        support = np.bitwise_or.reduce(rows, axis=0).view(np.uint8)
        outside = np.unpackbits(support, count=n, bitorder="little").astype(bool)
    else:
        outside = rows.any(axis=0)
    outside[info] = False
    while outside.any():
        cols = np.flatnonzero(outside)
        c = int(cols[rng.integers(cols.size)])
        hit = np.flatnonzero(rows[:, c >> 6] & _BIT[c & 63] if p == 2 else rows[:, c])
        r = int(hit[rng.integers(hit.size)])
        others = hit[hit != r]
        if p == 2:
            rows[others] ^= rows[r]
        else:
            rows[r] = rows[r] * PrimeField(p).inv(int(rows[r, c])) % p
            rows[others] = (rows[others] - np.outer(rows[others, c], rows[r])) % p
        outside[info[r]], outside[c] = True, False
        info[r] = c
        yield others


_WEIGH_BYTES = 1 << 20  # a band's gathered rows or residual coefficients


def _row_weights(rows: np.ndarray, idx: np.ndarray, p: int) -> np.ndarray:
    """Hamming weights of the storage rows rows[idx], gathered in bands of
    about `_WEIGH_BYTES`."""
    band = max(1, _WEIGH_BYTES // max(1, rows[:1].nbytes))
    out = np.empty(len(idx), dtype=np.int64)
    for s in range(0, len(idx), band):
        block = rows[idx[s : s + band]]
        out[s : s + band] = (
            np.bitwise_count(block).sum(axis=1) if p == 2 else np.count_nonzero(block, axis=1)
        )
    return out


def _first_light(
    words: np.ndarray, weights: np.ndarray, outside: LinearCode | None, best: int | float
) -> tuple[int, int] | None:
    """The lightest of the storage rows `words` that weighs less than
    `best` and lies outside the subspace `outside` (any row, when it is
    None), the first in row order among equals, as (weight, row index); None
    when no row passes.  The weight classes lighter than `best` are asked
    lightest first, each in bands of rows (about `_WEIGH_BYTES` of residual
    coefficients) up to its first row outside."""
    for w in np.unique(weights[weights < best]):
        k = np.flatnonzero(weights == w)
        if outside is None:
            return int(w), int(k[0])
        band = max(1, _WEIGH_BYTES // max(1, outside.dim, words[:1].nbytes))
        for s in range(0, k.size, band):
            hit = k[s : s + band][outside._residuals(words[k[s : s + band]]).any(axis=1)]
            if hit.size:
                return int(w), int(hit[0])
    return None


def information_set_search(
    checks: LinearCode, stabilizers: LinearCode, trials: int, rng: np.random.Generator
) -> tuple[int | float, np.ndarray | None, int]:
    """Information-set search for light words of the dual of `checks`
    outside `stabilizers`, as a walk (Canteaut-Chabaud, scored after
    Stern).

    Trial 1 is the kernel rows of `checks`, already systematic on its free
    columns, so nothing is eliminated; every later trial is one
    `information_set_walk` step.  A trial's candidates are the rows it
    changed (all of them at trial 1) and the sums of pairs of the first 8
    of those, in `np.triu_indices` order: sums of one or two independent
    rows, so nonzero and distinct.  Returns (weight, word, trials scored):
    the lightest candidate outside the stabilizers as a dense row, the
    earliest (trial, candidate) among equals, or (inf, None); and fewer
    trials than `trials` when the walk runs out of columns.
    """
    p = checks.p
    if trials == 0 or checks.dim == checks.n:
        return math.inf, None, 0
    rows = checks._kernel_rows()
    info = np.setdiff1d(np.arange(checks.n), checks.pivots)
    steps = chain([np.arange(len(rows))], information_set_walk(rows, info, checks.n, p, rng))
    best, word, scored = math.inf, None, 0
    weights = np.empty(len(rows), dtype=np.int64)
    for changed in islice(steps, trials):
        scored += 1
        i, j = np.triu_indices(min(8, len(changed)), 1)
        a, b = rows[changed[i]], rows[changed[j]]
        sums = a ^ b if p == 2 else (a + b) % p
        # the changed rows are weighed in place (n + 1 leaves the others
        # out) and asked before the sums, which then must be strictly
        # lighter: the earliest candidate, without a copy of the form
        weights.fill(checks.n + 1)
        weights[changed] = _row_weights(rows, changed, p)
        for words, w in ((rows, weights), (sums, _row_weights(sums, np.arange(len(sums)), p))):
            found = _first_light(words, w, stabilizers, min(best, checks.n + 1))
            if found is not None:
                best, k = found
                word = stabilizers._dense_rows(words[[k]])[0]
    return best, word, scored


# ---- entry points: one elimination each -------------------------------


def rank(m: FMatrix | np.ndarray, p: int | None = None) -> int:
    m, p = _operand(m, p)
    return LinearCode(p, m.shape[1], m).dim


def rank_work(n_rows: int, n_cols: int, p: int) -> int:
    """Work estimate for `rank` on an n_rows x n_cols matrix mod p.

    GF(2): up to min(n_rows, n_cols) pivots, each met by up to n_rows rows
    with one XOR of ceil(n_cols / 64) words; check matrices fill in far
    less.  Odd p: n_cols^2 * n_rows.
    """
    if p == 2:
        return min(n_rows, n_cols) * n_rows * -(-n_cols // 64)
    return n_cols * n_cols * n_rows


def kernel_basis(m: FMatrix | np.ndarray, p: int | None = None) -> np.ndarray:
    """Basis of the right kernel {x : m x = 0}, one row per basis vector.

    Free variables are set to 1 one at a time, in ascending column order,
    so the result is deterministic.  Shape (dim_kernel, n_cols).
    """
    m, p = _operand(m, p)
    code = LinearCode(p, m.shape[1], m)
    return code._dense_rows(code._kernel_rows())


def row_reduce(m: FMatrix | np.ndarray, p: int | None = None) -> tuple[np.ndarray, list[int]]:
    """(rref, pivot columns): the reduced row echelon form mod p as a dense
    int64 array of m's shape, the row space's basis over zero rows.  Pivots
    are the first row with a nonzero entry, scanning columns left to right."""
    m, p = _operand(m, p)
    code = LinearCode(p, m.shape[1], m)
    rref = np.zeros(m.shape, dtype=np.int64)
    rref[: code.dim] = code.basis
    return rref, code.pivots.tolist()


def solve(m: FMatrix | np.ndarray, b, p: int | None = None) -> np.ndarray | None:
    """One solution x of m x = b, or None when the system is inconsistent."""
    m, p = _operand(m, p)
    b = as_vector(p, b)
    n_rows, n_cols = m.shape
    if b.shape[0] != n_rows:
        raise DimensionMismatch(f"rhs length {b.shape[0]} vs {n_rows} rows")
    # eliminate [m | b]; the system is inconsistent iff b's column pivots
    a = m._csr if isinstance(m, FMatrix) else sparse.csr_array(m)
    aug = sparse.hstack([a, sparse.csr_array(b[:, None])], format="csr")
    code = LinearCode(p, n_cols + 1, FMatrix(p, aug))
    if n_cols in code.pivots:
        return None
    x = np.zeros(n_cols, dtype=np.int64)
    x[code.pivots] = code.basis[:, n_cols]
    return x


def in_rowspace(m: FMatrix | np.ndarray, v, p: int | None = None) -> bool:
    """Whether v is a linear combination of the rows of m."""
    m, p = _operand(m, p)
    return LinearCode(p, m.shape[1], m).contains(v)


def iter_vectors(
    p: int,
    k: int,
    budget: int | None = DEFAULT_ENUMERATION_BUDGET,
    chunk: int = _ENUM_CHUNK,
) -> Iterator[np.ndarray]:
    """Yield all p^k vectors of GF(p)^k in blocks of `chunk` rows, counting
    up in base p with the last coordinate the fastest digit (lexicographic
    order).  p^k >= 2^63 is refused even without a budget, since the
    indices would overflow int64."""
    total = p**k
    limit = np.iinfo(np.int64).max if budget is None else budget
    if total > limit:
        lift = "`budget` (gf.DEFAULT_ENUMERATION_BUDGET)" if budget is not None else "nothing"
        raise BudgetExceeded(f"{total} words over budget {limit}; {lift} lifts it")
    powers = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        yield (idx[:, None] // powers) % p


def iter_codewords(
    code: LinearCode,
    budget: int | None = DEFAULT_ENUMERATION_BUDGET,
    chunk: int = _ENUM_CHUNK,
) -> Iterator[np.ndarray]:
    """Yield all p^dim codewords in blocks (rows of each yielded array):
    the `iter_vectors` coefficient vectors, in their order, times the basis."""
    for coeffs in iter_vectors(code.p, code.dim, budget, chunk):
        yield (coeffs @ code.basis) % code.p


def _lightest(
    code: LinearCode,
    outside: LinearCode | None,
    budget: int | None,
    shift: np.ndarray | None = None,
) -> tuple[int | float, np.ndarray | None]:
    """The lightest word of shift + code outside `outside` (any word, when
    it is None) as (weight, dense row), the earliest in `iter_codewords`
    order among equals; (inf, None) when every word lies in `outside`."""
    best, word = math.inf, None
    for block in iter_codewords(code, budget):
        if shift is not None:
            block = (block + shift) % code.p
        rows = block if outside is None else outside._storage(block)
        found = _first_light(rows, np.count_nonzero(block, axis=1), outside, best)
        if found is not None:
            best, word = found[0], block[found[1]].copy()
            if best == 0:
                break
    return best, word


def lightest_outside(
    code: LinearCode,
    outside: LinearCode,
    budget: int | None = DEFAULT_ENUMERATION_BUDGET,
) -> tuple[int | float, np.ndarray | None]:
    """The lightest codeword outside the subspace `outside`, by
    enumeration, as (weight, word): the earliest in `iter_codewords` order
    among equals, or (inf, None) when the code lies in `outside`."""
    return _lightest(code, outside, budget)


def coset_min_weight(
    v,
    code: LinearCode,
    budget: int | None = DEFAULT_ENUMERATION_BUDGET,
) -> int:
    """min over codewords c of |v + c|, by enumeration."""
    v = as_vector(code.p, v)
    if v.shape[0] != code.n:
        raise DimensionMismatch(f"vector length {v.shape[0]} vs n={code.n}")
    return _lightest(code, None, budget, shift=v)[0]


def min_distance(
    code: LinearCode,
    budget: int | None = DEFAULT_ENUMERATION_BUDGET,
) -> int | float:
    """Minimum nonzero codeword weight: the lightest codeword outside the
    zero code; +inf for the zero code."""
    if code.dim == 0:
        return math.inf
    return lightest_outside(code, LinearCode(code.p, code.n), budget)[0]
