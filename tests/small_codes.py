"""Small textbook CSS codes shared by the test suites, and test-only
helpers on codes, complexes and packed GF(2) rows."""

from fractions import Fraction

import numpy as np
from scipy import sparse

from ptanner.expander import GroupElement, _group_coords, _mul, cayley_table, element_from_index
from ptanner.gf import _BIT, FMatrix, LinearCode, _eliminate, _pack
from ptanner.nlts import _pack_rows, _require_gf2
from ptanner.tanner import CssCode, SquareCayleyComplex, _FaceColumns, num_check_rows


def steane_code() -> CssCode:
    """[[7,1,3]] self-dual CSS code on the Hamming checks."""
    h = FMatrix.from_dense(
        2,
        [
            [1, 0, 1, 0, 1, 0, 1],
            [0, 1, 1, 0, 0, 1, 1],
            [0, 0, 0, 1, 1, 1, 1],
        ],
    )
    return CssCode(p=2, n=7, h_x=h, h_z=h, provenance={"kind": "imported", "name": "steane"})


def shor_code() -> CssCode:
    """[[9,1,3]] code: Z checks pair qubits inside blocks, X checks span
    adjacent blocks."""
    pairs = [(0, 1), (1, 2), (3, 4), (4, 5), (6, 7), (7, 8)]
    z_rows = np.zeros((6, 9), dtype=np.int64)
    for r, (a, b) in enumerate(pairs):
        z_rows[r, a] = z_rows[r, b] = 1
    x_rows = np.zeros((2, 9), dtype=np.int64)
    x_rows[0, 0:6] = 1
    x_rows[1, 3:9] = 1
    return CssCode(
        p=2,
        n=9,
        h_x=FMatrix.from_dense(2, x_rows),
        h_z=FMatrix.from_dense(2, z_rows),
        provenance={"kind": "imported", "name": "shor"},
    )


def eliminate_columns(rows: np.ndarray, n_cols: int) -> list[int]:
    """Reduced row echelon form over GF(2) on packed rows, in place, one
    column at a time: the pivot is the first row at or below the current
    one with a 1 in the column, and it clears the column from every other
    row by XORing the words from the column's word on.  The oracle of
    `gf._eliminate`, with the same contract: rows [0, rank) end as the RREF
    in pivot order, the rest are zero, and the pivots are returned."""
    n_rows = rows.shape[0]
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        if r == n_rows:
            break
        w = c >> 6
        col = rows[:, w] & _BIT[c & 63]
        i = r + int(col[r:].argmax())
        if not col[i]:
            continue
        if i != r:
            rows[[r, i]] = rows[[i, r]]
            col[i] = 0  # row i now holds old row r, zero in this column
        col[r] = 0
        hit = col.nonzero()[0]
        if hit.size:
            rows[hit, w:] ^= rows[r, w:]
        pivots.append(c)
        r += 1
    return pivots


def assert_eliminates_as_oracle(rows: np.ndarray, n_cols: int) -> None:
    """`gf._eliminate` on packed rows gives `eliminate_columns`' pivots and
    RREF rows, and zero below them."""
    want = rows.copy()
    want_pivots = eliminate_columns(want, n_cols)
    pivots = _eliminate(rows, n_cols)
    rank = len(pivots)
    assert pivots == want_pivots
    assert (rows[:rank] == want[:rank]).all()
    assert not rows[rank:].any()


def assert_check_eliminations_match_oracle(code: CssCode) -> None:
    """H_X, H_Z and their kernel rows (what `LinearCode.dual` eliminates)
    eliminate as `eliminate_columns` does."""
    for m in (code.h_x, code.h_z):
        assert_eliminates_as_oracle(_pack(m, code.n), code.n)
        assert_eliminates_as_oracle(LinearCode(2, code.n, m)._kernel_rows(), code.n)


def face_from_index(cx: SquareCayleyComplex, idx: int) -> tuple[GroupElement, int, int]:
    """Face idx of the complex as (g, i, j); DomainError out of range."""
    g, ij = cx._face(idx)
    return element_from_index(cx.p, cx.m, g), *divmod(ij, cx.delta)


def face_column(
    complex_: SquareCayleyComplex, f: int, layers, basis_a, basis_b, p: int
) -> tuple[list[int], list[int]]:
    """Ascending check rows and their values in column f of the check
    matrix on `layers`: the face alone, from a `_FaceColumns` made for this
    one call."""
    columns = _FaceColumns(complex_, layers, basis_a, basis_b, p)
    g, ij = complex_._face(f)
    return list(columns.face(g, ij)), list(columns.vals[ij])


def right_table(p: int, m: int, elements) -> np.ndarray:
    """(len(elements), p^(3m)) int64 table: row j holds the index of g * s_j
    for every element index g; `cayley_table` multiplied on the right."""
    q, g = p**m, _group_coords(p, m)
    table = np.empty((len(elements), q**3), dtype=np.int64)
    for j, s in enumerate(elements):
        a, b, c, _ = _mul(p, q, g, (s.a, s.b, s.c, s.d))
        table[j] = a + q * (b + q * c)
    return table


def table_check_matrix(
    complex_: SquareCayleyComplex, layers, basis_a, basis_b, p: int
) -> FMatrix:
    """The check matrix on `layers` with every face's corners read off the
    axes' Cayley tables (a_i * g from `cayley_table`, g * b_j from
    `right_table`) and its cells from the generator pairings: the oracle
    for `tanner.check_matrix`, which evaluates the complex's corner maps."""
    cx, d = complex_, complex_.delta
    basis_a, basis_b = (np.asarray(x, dtype=np.int64).reshape(-1, d) for x in (basis_a, basis_b))
    kk = len(basis_a) * len(basis_b)
    left = cayley_table(cx.p, cx.m, cx.gens_a.elements)
    right = right_table(cx.p, cx.m, cx.gens_b.elements)
    # the grid index of a_i (b_j) at a corner reached through it
    paired = cx.convention == "paired"
    sig_a = np.array(cx.gens_a.pairing if paired else range(d))
    sig_b = np.array(cx.gens_b.pairing if paired else range(d))
    g, i, j = np.unravel_index(np.arange(cx.num_faces), (cx.group_size, d, d))
    parts = []
    for layer_no, layer in enumerate(layers):
        v, r, c = g, i, j  # the vectorized `SquareCayleyComplex.incidence`
        if layer[1] == "1":
            v, r = left[i, v], sig_a[i]
        if layer[0] == "1":
            v, c = right[j, v], sig_b[j]
        # val[f, s * kb + t] = basis_a[s][r_f] * basis_b[t][c_f]
        val = (basis_a.T[r][:, :, None] * basis_b.T[c][:, None, :]).reshape(cx.num_faces, kk) % p
        f, st = val.nonzero()
        parts.append((val[f, st], (layer_no * cx.group_size + v[f]) * kk + st, f))
    data, rows, cols = map(np.concatenate, zip(*parts))
    n_rows = num_check_rows(cx, layers, basis_a, basis_b)
    return FMatrix(p, sparse.csr_array((data, (rows, cols)), shape=(n_rows, cx.num_faces)))


def formula_local_view(cx: SquareCayleyComplex, layer: str, v: GroupElement) -> np.ndarray:
    """`local_view` by its earlier formula, the oracle of the stacked
    evaluator: the inverse corners' maps of the complex, split into a
    (3 delta^2 x 4) matrix and an offset vector, give
    ((linear x + offset) mod q) . (1, q, q^2) delta^2 + cell."""
    d, q, dtype = cx.delta, cx._q, cx._face_dtype
    on_a, on_b = layer[1] == "1", layer[0] == "1"
    paired, pair_a, pair_b = cx.convention == "paired", cx.gens_a.pairing, cx.gens_b.pairing
    sig_a = pair_a if paired and on_a else range(d)
    sig_b = pair_b if paired and on_b else range(d)
    ij = [(sig_a[r], sig_b[c]) for r in range(d) for c in range(d)]
    maps = cx._maps[layer]
    stack = [row for i, j in ij for row in maps[cx._pick[layer][pair_a[i] * d + pair_b[j]]]]
    linear = np.array([row[:4] for row in stack], dtype=dtype)
    offset = np.array([row[4] for row in stack], dtype=dtype)
    cell = np.array([i * d + j for i, j in ij], dtype=dtype)
    digits = np.array([1, q, q * q], dtype=dtype) * (d * d)
    x = np.array((v.a, v.b, v.c, v.d), dtype=dtype)
    return (((linear @ x + offset) % q).reshape(d * d, 3) @ digits + cell).reshape(d, d)


def apply_hamiltonian_exact(code: CssCode, state: dict[int, int]) -> dict[int, Fraction]:
    """Apply the code Hamiltonian with rational arithmetic on a sparse
    integer-amplitude state."""
    _require_gf2(code)
    x_terms = _pack_rows(code.h_x.toarray())
    z_terms = _pack_rows(code.h_z.toarray())
    m_x, m_z = len(x_terms), len(z_terms)
    out: dict[int, Fraction] = {}
    half = Fraction(1, 2)
    for w, amp in state.items():
        amp = Fraction(amp)
        if m_x:
            for g in x_terms:
                contrib = half * amp / (2 * m_x)
                out[w] = out.get(w, Fraction(0)) + contrib
                out[w ^ g] = out.get(w ^ g, Fraction(0)) - contrib
        if m_z:
            zcount = sum(int(w & zt).bit_count() % 2 for zt in z_terms)
            out[w] = out.get(w, Fraction(0)) + half * amp * Fraction(zcount, m_z)
    return {w: v for w, v in out.items() if v != 0}
