"""Field linear algebra tests.

Oracles here are deliberately dumb: rank by counting the span, kernels and
weights by trying every vector.  The fast implementations must agree with
them exactly.
"""

import json
import math
import random
import sys
import time
from itertools import islice, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptanner import gf
from ptanner.errors import BudgetExceeded, DimensionMismatch, DomainError, InvalidField
from ptanner.gf import (
    FMatrix,
    LinearCode,
    PrimeField,
    _row_reduce_dense,
    _unpack,
    coset_min_weight,
    in_rowspace,
    information_set_walk,
    iter_codewords,
    iter_vectors,
    kernel_basis,
    min_distance,
    rank,
    row_reduce,
    solve,
)
from ptanner.jsonio import dumps

from small_codes import assert_eliminates_as_oracle


def span_size(rows, p):
    """Oracle rank: |span| = p^rank, by enumerating all combinations."""
    rows = [tuple(int(x) % p for x in r) for r in rows]
    seen = set()
    n = len(rows[0]) if rows else 0
    for coeffs in product(range(p), repeat=len(rows)):
        v = tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) % p for i in range(n))
        seen.add(v)
    return len(seen)


def oracle_kernel(mat, p):
    """Oracle kernel: every x with M x = 0, found by brute force."""
    mat = [list(r) for r in mat]
    n = len(mat[0])
    out = []
    for x in product(range(p), repeat=n):
        if all(sum(a * b for a, b in zip(row, x)) % p == 0 for row in mat):
            out.append(x)
    return set(out)


def test_prime_field_rejects_composites():
    for bad in (0, 1, 4, 6, 9, 2**16 + 1):
        with pytest.raises(InvalidField):
            PrimeField(bad)
    PrimeField(2)
    PrimeField(65521)  # largest prime below 2^16


def test_prime_field_refuses_huge_prime_quickly():
    """The 2^16 limit is tested before trial division, which would take
    minutes on the Mersenne prime 2^61 - 1."""
    t0 = time.perf_counter()
    with pytest.raises(InvalidField, match="prime up to 2\\^16"):
        PrimeField(2**61 - 1)
    assert time.perf_counter() - t0 < 1.0


def test_prime_field_inverse():
    f = PrimeField(7)
    for a in range(1, 7):
        assert (a * f.inv(a)) % 7 == 1
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_rank_frozen_values():
    # three GF(2) rows that sum to zero
    m = [[1, 1, 0], [0, 1, 1], [1, 0, 1]]
    assert rank(np.array(m), 2) == 2
    assert span_size(m, 2) == 2**2
    assert rank(np.eye(4, dtype=np.int64), 3) == 4
    assert rank(np.zeros((2, 5), dtype=np.int64), 2) == 0


def test_rank_matches_span_oracle_randomized():
    rng = random.Random(11)
    for p in (2, 3, 5):
        for _ in range(25):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            m = [[rng.randrange(p) for _ in range(c)] for _ in range(r)]
            assert p ** rank(np.array(m), p) == span_size(m, p)


def test_kernel_frozen_parity_check():
    # kernel of a single all-ones check over GF(2) = even weight vectors
    k = kernel_basis(np.array([[1, 1, 1]]), 2)
    assert k.shape == (2, 3)
    got = {tuple(v) for v in oracle_kernel([[1, 1, 1]], 2)}
    spanned = {
        tuple((a * k[0] + b * k[1]) % 2) for a in range(2) for b in range(2)
    }
    assert spanned == got
    assert {tuple(r) for r in k} <= got


def test_kernel_matches_oracle_randomized():
    rng = random.Random(23)
    for p in (2, 3):
        for _ in range(20):
            r, c = rng.randint(1, 3), rng.randint(1, 4)
            m = [[rng.randrange(p) for _ in range(c)] for _ in range(r)]
            k = kernel_basis(np.array(m), p)
            want = oracle_kernel(m, p)
            assert p ** k.shape[0] == len(want)
            for row in k:
                assert tuple(int(x) for x in row) in want


def test_solve_frozen_value_gf3():
    a = np.array([[1, 1], [1, 2]])
    x = solve(a, [0, 1], 3)
    assert x is not None
    assert tuple((a @ x) % 3) == (0, 1)
    assert tuple(x) == (2, 1)


def test_solve_inconsistent_returns_none():
    a = np.array([[1, 1], [1, 1]])
    assert solve(a, [0, 1], 2) is None
    assert solve(a, [1, 1], 2) is not None


def test_solve_randomized_against_substitution():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(30):
            r, c = rng.randint(1, 4), rng.randint(1, 4)
            a = np.array([[rng.randrange(p) for _ in range(c)] for _ in range(r)])
            want = np.array([rng.randrange(p) for _ in range(c)])
            b = (a @ want) % p
            x = solve(a, b, p)
            assert x is not None
            assert ((a @ x) % p == b).all()


def test_in_rowspace_via_transposed_solve():
    m = np.array([[1, 1, 0], [0, 1, 1]])
    assert in_rowspace(m, [1, 0, 1], 2)  # row0 + row1
    assert not in_rowspace(m, [1, 1, 1], 2)
    assert in_rowspace(m, [0, 0, 0], 2)


def test_row_reduce_deterministic_first_nonzero_pivot():
    m = np.array([[0, 2, 1], [0, 1, 1], [1, 0, 0]])
    rref, pivots = row_reduce(m, 3)
    assert pivots == [0, 1, 2]
    # row order in the echelon form follows pivot columns, not input order
    assert (rref == np.eye(3, dtype=np.int64)).all()


def test_coset_min_weight_frozen():
    rep = LinearCode(2, 3, [[1, 1, 1]])  # {000, 111}
    assert coset_min_weight([1, 1, 0], rep) == 1
    assert coset_min_weight([0, 0, 0], rep) == 0
    assert coset_min_weight([1, 0, 0], rep) == 1


def test_coset_min_weight_oracle_randomized():
    rng = random.Random(41)
    for p in (2, 3):
        for _ in range(15):
            n, k = rng.randint(2, 5), rng.randint(1, 2)
            code = LinearCode(p, n, [[rng.randrange(p) for _ in range(n)] for _ in range(k)])
            v = [rng.randrange(p) for _ in range(n)]
            words = {tuple(w) for block in iter_codewords(code) for w in block}
            want = min(
                sum(1 for a, b in zip(v, w) if (a + b) % p != 0) for w in words
            )
            assert coset_min_weight(v, code) == want


def test_iter_codewords_refuses_int64_overflow_without_budget():
    # 2^63 words: the coefficient indices would overflow int64
    everything = LinearCode(2, 63, np.eye(63, dtype=np.int64))
    with pytest.raises(BudgetExceeded):
        next(iter_codewords(everything, budget=None))
    assert next(iter_codewords(LinearCode(2, 62), budget=None)).shape == (1, 62)


def test_iter_vectors_counts_in_product_order():
    """Lexicographic (`itertools.product`) order in blocks split at chunk
    edges, one empty row at k = 0, and the budget and 2^63 refusals."""
    for p, k, chunk in ((2, 5, 7), (3, 3, 4), (5, 2, 25), (3, 4, 100), (7, 1, 1)):
        blocks = list(iter_vectors(p, k, chunk=chunk))
        assert [len(b) for b in blocks] == [min(chunk, p**k - s) for s in range(0, p**k, chunk)]
        assert [tuple(v) for b in blocks for v in b.tolist()] == list(product(range(p), repeat=k))
    (empty,) = iter_vectors(7, 0)
    assert empty.shape == (1, 0)
    with pytest.raises(BudgetExceeded):
        next(iter_vectors(3, 5, budget=3**5 - 1))
    assert sum(map(len, iter_vectors(3, 5, budget=3**5))) == 3**5
    with pytest.raises(BudgetExceeded):
        next(iter_vectors(2, 63, budget=None))
    first = next(iter_vectors(2, 62, budget=None, chunk=3))
    assert first.tolist() == [[0] * 62, [0] * 61 + [1], [0] * 60 + [1, 0]]


def test_linear_code_is_the_only_eliminator(monkeypatch):
    """Every call of the two elimination kernels made by the entry points,
    on dense and sparse operands, and by a code and its dual, comes from
    `LinearCode._reduce`."""
    callers = []
    for name in ("_eliminate", "_row_reduce_dense"):
        def wrapped(*args, kernel=getattr(gf, name)):
            callers.append(sys._getframe(1).f_code)
            return kernel(*args)

        monkeypatch.setattr(gf, name, wrapped)
    rng = np.random.default_rng(20)
    for p in (2, 3, 5):
        a = rng.integers(0, p, size=(4, 6))
        for m in (a, FMatrix.from_dense(p, a)):
            row_reduce(m, p)
            rank(m, p)
            kernel_basis(m, p)
            in_rowspace(m, a[0], p)
            assert solve(m, a[:, 0], p) is not None
        LinearCode(p, 6, a).dual()
    assert len(callers) == 3 * 12
    assert set(callers) == {LinearCode._reduce.__code__}


def test_min_distance_frozen():
    even = LinearCode(2, 4, [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
    assert min_distance(even) == 2
    assert min_distance(LinearCode(2, 4)) == math.inf
    rep5 = LinearCode(3, 5, [[1, 1, 1, 1, 1]])
    assert min_distance(rep5) == 5


def test_enumeration_budget_enforced():
    code = LinearCode(2, 30, np.eye(30, dtype=np.int64))
    with pytest.raises(BudgetExceeded):
        min_distance(code, budget=2**10)
    with pytest.raises(BudgetExceeded):
        coset_min_weight([0] * 30, code, budget=2**10)


def test_linear_code_reduces_dependent_rows():
    c = LinearCode(2, 3, [[1, 1, 0], [0, 1, 1], [1, 0, 1]])
    assert c.dim == 2
    assert c.contains([1, 0, 1])
    assert not c.contains([1, 0, 0])


def test_dual_code_dimensions_and_orthogonality():
    c = LinearCode(2, 7, [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])
    d = c.dual()
    assert c.dim + d.dim == 7
    for row in d.basis:
        assert ((c.basis @ row) % 2 == 0).all()
    assert d.dual() == c


def test_dual_is_made_once_and_kept(monkeypatch):
    """A second dual() call eliminates nothing, and the dual's dual is the
    code itself, which a fresh elimination of the dual's kernel agrees with."""
    seen = []
    eliminate, reduce_dense = gf._eliminate, gf._row_reduce_dense
    monkeypatch.setattr(gf, "_eliminate", lambda *args: seen.append(2) or eliminate(*args))
    monkeypatch.setattr(
        gf, "_row_reduce_dense", lambda *args: seen.append(3) or reduce_dense(*args)
    )
    for p, rows in ((2, [[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1]]), (3, [[1, 2, 0, 1]])):
        code = LinearCode(p, len(rows[0]), rows)
        seen.clear()
        dual = code.dual()
        assert seen == [p]
        assert code.dual() is dual and dual.dual() is code
        assert seen == [p]
        assert LinearCode(p, code.n, kernel_basis(dual.basis, p)) == code


def test_fmatrix_json_round_trip():
    rng = random.Random(7)
    for p in (2, 5):
        a = [[rng.randrange(p) for _ in range(6)] for _ in range(4)]
        m = FMatrix.from_dense(p, a)
        again = FMatrix.from_doc(json.loads(dumps(m)))
        assert again == m


def test_fmatrix_sparse_dense_agreement():
    entries = [(0, 0, 1), (1, 2, 4), (2, 1, 3)]
    sparse = FMatrix.from_entries(5, 3, 3, entries)
    dense = FMatrix.from_dense(5, [[1, 0, 0], [0, 0, 4], [0, 3, 0]])
    assert dense == sparse
    assert dense.row_weights() == sparse.row_weights()
    assert dense.col_weights() == sparse.col_weights()
    assert (dense.toarray() == sparse.toarray()).all()
    assert dumps(dense) == dumps(sparse)
    v = [1, 2, 3]
    assert (dense.apply(v) == sparse.apply(v)).all()


def test_fmatrix_auto_sparse_above_threshold():
    m = FMatrix.from_entries(2, 1000, 1001, [(0, 0, 1), (999, 1000, 1)])
    assert m.nnz() == 2
    assert m.T.entries() == [(0, 0, 1), (1000, 999, 1)]


def dense_oracle(p, n_rows, n_cols, entries):
    """Cell by cell, so a later write to a cell replaces an earlier one."""
    a = np.zeros((n_rows, n_cols), dtype=np.int64)
    for r, c, v in entries:
        if not (0 <= r < n_rows and 0 <= c < n_cols):
            raise DimensionMismatch(f"entry ({r},{c}) outside {n_rows}x{n_cols}")
        a[r, c] = v % p
    return a


@st.composite
def entry_cases(draw, spill=0):
    """(p, rows, cols, entries); with spill > 0 indices may leave the shape."""
    p = draw(st.sampled_from([2, 3, 5]))
    n_rows, n_cols = draw(st.integers(0, 6)), draw(st.integers(0, 6))
    if not (n_rows and n_cols or spill):
        return p, n_rows, n_cols, []
    cell = st.tuples(
        st.integers(-spill, n_rows - 1 + spill),
        st.integers(-spill, n_cols - 1 + spill),
        st.integers(-2 * p, 3 * p),
    )
    return p, n_rows, n_cols, draw(st.lists(cell, max_size=30))


HYPOTHESIS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@HYPOTHESIS
@given(entry_cases(), st.data())
def test_fmatrix_matches_dense_oracle(case, data):
    p, n_rows, n_cols, entries = case
    a = dense_oracle(p, n_rows, n_cols, entries)
    m = FMatrix.from_entries(p, n_rows, n_cols, entries)
    assert m.shape == a.shape
    assert (m.toarray() == a).all()
    assert m == FMatrix.from_dense(p, a)
    nz = list(zip(*np.nonzero(a)))
    assert m.entries() == [(int(r), int(c), int(a[r, c])) for r, c in nz]
    assert m.nnz() == len(nz)
    assert m.rows() == [(np.flatnonzero(row).tolist(), row[row != 0].tolist()) for row in a]
    assert m.row_weights() == np.count_nonzero(a, axis=1).tolist()
    assert m.col_weights() == np.count_nonzero(a, axis=0).tolist()
    assert m.max_row_weight() == max(np.count_nonzero(a, axis=1), default=0)
    assert (m.T.toarray() == a.T).all()
    v = data.draw(st.lists(st.integers(-p, 2 * p), min_size=n_cols, max_size=n_cols))
    v = np.array(v, dtype=np.int64)
    assert (m.apply(v) == (a @ v) % p).all()
    k = data.draw(st.integers(0, 5))
    b = data.draw(st.lists(st.integers(0, p - 1), min_size=n_cols * k, max_size=n_cols * k))
    b = np.array(b, dtype=np.int64).reshape(n_cols, k)
    assert ((m @ FMatrix.from_dense(p, b)).toarray() == (a @ b) % p).all()
    assert FMatrix.from_doc(json.loads(dumps(m))) == m
    assert json.loads(dumps(m))["entries"] == [[int(r), int(c), int(a[r, c])] for r, c in nz]


@HYPOTHESIS
@given(entry_cases(spill=2))
def test_fmatrix_out_of_range_entries_match_oracle(case):
    p, n_rows, n_cols, entries = case
    try:
        a = dense_oracle(p, n_rows, n_cols, entries)
    except DimensionMismatch:
        with pytest.raises(DimensionMismatch):
            FMatrix.from_entries(p, n_rows, n_cols, entries)
    else:
        assert (FMatrix.from_entries(p, n_rows, n_cols, entries).toarray() == a).all()


def test_matmul_and_transpose():
    a = FMatrix.from_dense(3, [[1, 2], [0, 1]])
    b = FMatrix.from_dense(3, [[2, 0], [1, 1]])
    prod = a @ b
    assert (prod.toarray() == np.array([[1, 2], [1, 1]])).all()
    assert (a.T.toarray() == np.array([[1, 0], [2, 1]])).all()


def test_rank_plus_nullity_property():
    rng = random.Random(3)
    for p in (2, 3, 5):
        for _ in range(20):
            r, c = rng.randint(1, 6), rng.randint(1, 6)
            m = np.array([[rng.randrange(p) for _ in range(c)] for _ in range(r)])
            assert rank(m, p) + kernel_basis(m, p).shape[0] == c


# ---- the packed GF(2) core against the dense loop ----------------------
#
# `_row_reduce_dense` is the odd-p elimination and the oracle here; the
# kernel and solve oracles are the loops `kernel_basis` and `solve` ran
# before they were vectorized and moved onto the packed rows.


def kernel_oracle(a, p):
    rref, pivots = _row_reduce_dense(a, p)
    n_cols = a.shape[1]
    free = [c for c in range(n_cols) if c not in pivots]
    basis = np.zeros((len(free), n_cols), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for j, c in enumerate(pivots):
            basis[i, c] = (-int(rref[j, f])) % p
    return basis


def solve_oracle(a, b, p):
    aug = np.concatenate([a % p, np.reshape(b, (-1, 1)) % p], axis=1)
    rref, pivots = _row_reduce_dense(aug, p)
    if a.shape[1] in pivots:
        return None
    x = np.zeros(a.shape[1], dtype=np.int64)
    for j, c in enumerate(pivots):
        x[c] = rref[j, a.shape[1]]
    return x


@st.composite
def field_matrices(draw, primes=(2, 3, 5)):
    """(p, a, rng): a low-rank-prone matrix whose entries are off their
    residues mod p by multiples of p, negative ones included; word-edge
    widths come up often."""
    p = draw(st.sampled_from(primes))
    n_rows = draw(st.integers(0, 9))
    n_cols = draw(st.sampled_from([0, 1, 2, 5, 63, 64, 65, 129]))
    inner = draw(st.integers(0, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = (rng.integers(0, p, (n_rows, inner)) @ rng.integers(0, p, (inner, n_cols))) % p
    return p, a + p * rng.integers(-3, 4, a.shape), rng


@HYPOTHESIS
@given(field_matrices(primes=(2,)), st.booleans())
def test_packed_gf2_elimination_matches_dense_oracle(case, as_fmatrix):
    _, a, rng = case
    n_rows, n_cols = a.shape
    m = FMatrix.from_dense(2, a) if as_fmatrix else a
    want, want_pivots = _row_reduce_dense(a, 2)
    got, pivots = row_reduce(m, 2)
    assert pivots == want_pivots
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want).all()
    assert rank(m, 2) == len(want_pivots)
    v = (rng.integers(0, 2, n_rows) @ a) % 2  # in the rowspace
    assert in_rowspace(m, v, 2)
    w = rng.integers(-2, 3, n_cols)
    assert in_rowspace(m, w, 2) == (solve_oracle(a.T, w, 2) is not None)


@st.composite
def gf2_row_sets(draw):
    """A bool matrix of 0, 1 or up to 200 rows (tall or wide) over 1 to 130
    columns, word edges included, at density 0.02 to 0.5, with some rows
    zeroed and some duplicated."""
    n_rows = draw(st.sampled_from([0, 1]) | st.integers(2, 200))
    n_cols = draw(st.sampled_from([1, 63, 64, 65, 130]))
    density = draw(st.floats(0.02, 0.5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.random((n_rows, n_cols)) < density
    if n_rows > 1:
        a[rng.integers(0, n_rows, draw(st.integers(0, 3)))] = False
        dup = rng.integers(0, n_rows, (draw(st.integers(0, 3)), 2))
        a[dup[:, 0]] = a[dup[:, 1]]
    return a


@HYPOTHESIS
@given(gf2_row_sets())
def test_eliminate_matches_column_loop(a):
    assert_eliminates_as_oracle(gf._pack(a, a.shape[1]), a.shape[1])


@HYPOTHESIS
@given(field_matrices(), st.booleans())
def test_kernel_and_solve_match_loop_oracles(case, as_fmatrix):
    p, a, rng = case
    n_rows, n_cols = a.shape
    m = FMatrix.from_dense(p, a) if as_fmatrix else a
    got = kernel_basis(m, p)
    want = kernel_oracle(a, p)
    assert got.dtype == np.int64 and got.shape == want.shape
    assert (got == want).all()
    consistent = (a @ rng.integers(0, p, n_cols)) % p
    for b in (consistent, rng.integers(-p, 2 * p, n_rows)):
        x, want = solve(m, b, p), solve_oracle(a, b, p)
        if want is None:
            assert x is None
        else:
            assert (x == want).all() and ((a @ x - b) % p == 0).all()
    assert solve(m, consistent, p) is not None


@HYPOTHESIS
@given(field_matrices(), st.booleans())
def test_rowspace_matches_dense_oracle(case, as_fmatrix):
    p, a, rng = case
    n_rows, n_cols = a.shape
    m = FMatrix.from_dense(p, a) if as_fmatrix else a
    space = LinearCode(p, n_cols, m)
    rref, pivots = _row_reduce_dense(a, p)
    assert space.dim == rank(m, p) == len(pivots)
    assert space.pivots.tolist() == pivots
    assert space.basis.dtype == np.int64 and (space.basis == rref[: len(pivots)]).all()
    # the dual is ker(a), whose RREF is unique
    kernel = kernel_oracle(a, p)
    dual = space.dual()
    assert dual.dim == kernel.shape[0] == n_cols - space.dim
    assert (dual.basis == _row_reduce_dense(kernel, p)[0][: dual.dim]).all()
    assert dual.dual() == space
    inside = (rng.integers(0, p, n_rows) @ a) % p
    assert space.contains(inside) and in_rowspace(m, inside, p)
    assert space.dual_witness(inside) is None
    unit = np.zeros(n_cols, dtype=np.int64)
    unit[:1] = 1
    for w in (rng.integers(-p, 2 * p, n_cols), unit):
        want = solve_oracle(a.T, w, p) is not None
        assert space.contains(w) == in_rowspace(m, w, p) == want
        # the witness is the first kernel row that meets w
        want_u = next((u for u in kernel if (u @ w) % p), None)
        got_u = space.dual_witness(w)
        assert (want_u is None) == want == (got_u is None)
        if got_u is not None:
            assert got_u.dtype == np.int64 and (got_u == want_u).all()
    with pytest.raises(DimensionMismatch):
        space.contains(np.zeros(n_cols + 1, dtype=np.int64))
    # a batch of storage rows (packed over GF(2)), one residual
    batch = np.array([inside, rng.integers(0, p, n_cols), unit, 0 * unit])
    got = space._residuals(space._storage(batch)).any(axis=1)
    assert got.tolist() == [not space.contains(v) for v in batch]


def test_packed_rank_at_word_edges_frozen():
    # one bit set per row on either side of each word boundary
    cols = [0, 62, 63, 64, 65, 127, 128]
    a = np.zeros((len(cols) + 1, 129), dtype=np.int64)
    a[np.arange(len(cols)), cols] = 1
    a[-1, cols] = 1  # dependent: the sum of the others
    assert rank(a, 2) == rank(FMatrix.from_dense(2, a)) == len(cols)
    rref, pivots = row_reduce(FMatrix.from_dense(2, a))
    assert pivots == cols
    assert not rref[-1].any()
    assert in_rowspace(a, a[-1], 2) and not in_rowspace(a, np.eye(129)[1], 2)


@HYPOTHESIS
@given(field_matrices(primes=(2, 3)), st.booleans(), st.integers(1, 12))
def test_information_set_walk_matches_row_reduce(case, on_kernel, steps):
    """After every step, the walked form equals `row_reduce` of the span
    with the walk's information set moved first, the step yields the rows
    it cleared, and the walk ends only when no column outside the
    information set is nonzero.  It walks the code's own RREF on its pivots
    or its kernel rows on the free columns, both systematic."""
    p, a, rng = case
    n = a.shape[1]
    code = LinearCode(p, n, a)
    if on_kernel:
        code = code.dual()
        rows, info = code._dual._kernel_rows(), np.setdiff1d(np.arange(n), code._dual.pivots)
    else:
        rows, info = code._rows.copy(), code.pivots.copy()
    before = code._dense_rows(rows).copy()
    taken = 0
    for changed in islice(information_set_walk(rows, info, n, p, rng), steps):
        taken += 1
        form = code._dense_rows(rows).copy()
        perm = np.concatenate([info, np.setdiff1d(np.arange(n), info)])
        rref, pivots = row_reduce(code.basis[:, perm], p)
        assert pivots == list(range(code.dim))
        assert (form[:, perm] == rref[: code.dim]).all()
        moved = set(np.flatnonzero((form != before).any(axis=1)).tolist())
        assert changed.tolist() == sorted(changed.tolist())
        assert set(changed.tolist()) <= moved and len(moved - set(changed.tolist())) <= (p != 2)
        before = form
    if taken < steps:  # the walk ended: nothing left to draw
        outside = np.setdiff1d(np.arange(n), info)
        assert not code._dense_rows(rows)[:, outside].any()


@HYPOTHESIS
@given(field_matrices(primes=(2,)), st.sampled_from([1, 2, 4]))
def test_packed_kernel_rows_and_dual_match_loop_oracle(case, kernel_words):
    """Over GF(2) `_kernel_rows` packs the dual rows straight from the
    packed RREF, `_KERNEL_WORDS` words of it at a time: unpacked, they are
    the loop oracle's kernel, for all free columns and for a subset, and
    `dual()` is that kernel's RREF."""
    _, a, rng = case
    n = a.shape[1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gf, "_KERNEL_WORDS", kernel_words)
        code = LinearCode(2, n, a)
        rows = code._kernel_rows()
        free = np.setdiff1d(np.arange(n), code.pivots)
        some = np.sort(rng.choice(free, size=min(3, free.size), replace=False))
        subset = code._kernel_rows(some)
        dual = code.dual()
    want = kernel_oracle(a, 2)
    assert rows.dtype == np.uint64 and rows.shape == (want.shape[0], -(-n // 64))
    assert (_unpack(rows, n) == want).all()
    assert (_unpack(subset, n) == want[np.searchsorted(free, some)]).all()
    assert dual.dim == want.shape[0]
    assert (dual.basis == _row_reduce_dense(want, 2)[0][: dual.dim]).all()
    assert dual.dual() is code
