"""Square complex and CSS builder tests.

Distance and expansion estimates are cross-checked against brute-force
oracles written independently in this file.
"""

import json
import math
from dataclasses import asdict
import random
import time
from functools import lru_cache, partial
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptanner import gf, tanner
from ptanner.csp import TannerConstraintStream
from ptanner.errors import BudgetExceeded, DimensionMismatch, DomainError, GroupMismatch
from ptanner.expander import (
    GeneratorMultiset,
    default_generators,
    element_from_coords,
    element_from_index,
    element_from_matrix,
    identity,
)
from ptanner.gf import FMatrix, LinearCode, information_set_search, kernel_basis, row_reduce
from ptanner.inner import InnerCodePair, search_inner_pair
from ptanner.jsonio import dumps
from ptanner.pipeline import stage_seed
from ptanner.tanner import (
    CONVENTIONS,
    CssCode,
    LAYERS,
    X_LAYERS,
    Z_LAYERS,
    SquareCayleyComplex,
    _FaceColumns,
    _coset_weight_bounds,
    build_code,
    check_counting_bound,
    check_matrix,
    code_dimension,
    estimate_distance,
    estimate_ssexp,
    verify_planted,
)

from small_codes import (
    face_column,
    face_from_index,
    formula_local_view,
    shor_code,
    steane_code,
    table_check_matrix,
)


def ternary_complex(delta=3, convention="paired"):
    gens = default_generators(3, 1, delta, require_generation=False)
    return SquareCayleyComplex(gens, gens, convention)


def binary_complex(delta=4, convention="paired"):
    gens = default_generators(2, 1, delta)
    return SquareCayleyComplex(gens, gens, convention)


def planted_pair_gf2():
    # length 3, dims (2, 1), all-ones planted on both sides
    code_a = LinearCode(2, 3, [[1, 1, 1], [1, 0, 0]])
    code_b = LinearCode(2, 3, [[1, 1, 0]])
    return InnerCodePair(2, 3, code_a, code_b)


def planted_pair_gf3_len4():
    code_a = LinearCode(3, 4, [[1, 1, 1, 1], [1, 0, 0, 0]])
    code_b = LinearCode(3, 4, [[1, 2, 0, 0], [0, 0, 1, 2]])
    return InnerCodePair(3, 4, code_a, code_b)


def pair_len5_gf2():
    return InnerCodePair(
        2, 5,
        LinearCode(2, 5, [[1, 1, 1, 1, 1], [0, 1, 1, 0, 1]]),
        LinearCode(2, 5, [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0]]),
    )


def test_complex_counts_and_grid():
    cx = ternary_complex()
    assert cx.group_size == 27
    assert cx.num_faces == 243
    view = cx.local_view("00", element_from_index(3, 1, 5))
    assert view.shape == (3, 3)
    # every face sits in exactly four local views, one per corner
    hits = np.zeros(cx.num_faces, dtype=np.int64)
    for layer in ("00", "01", "10", "11"):
        for gi in range(cx.group_size):
            v = element_from_index(3, 1, gi)
            grid = cx.local_view(layer, v)
            assert len(set(grid.reshape(-1).tolist())) == 9
            np.add.at(hits, grid.reshape(-1), 1)
    assert (hits == 4).all()


def test_face_index_round_trip():
    cx = ternary_complex()
    for idx in [0, 1, 42, 242]:
        g, i, j = face_from_index(cx, idx)
        assert (g.index * cx.delta + i) * cx.delta + j == idx
    with pytest.raises(DomainError):
        face_from_index(cx, 243)


@pytest.mark.parametrize("convention", ["paired", "direct"])
def test_corner_coordinates(convention):
    cx = ternary_complex(convention=convention)
    sig_a, sig_b = cx.gens_a.pairing, cx.gens_b.pairing
    for idx in range(cx.num_faces):
        g, i, j = face_from_index(cx, idx)
        a, b = cx.gens_a.elements[i], cx.gens_b.elements[j]
        corners = {"00": g, "01": a * g, "10": g * b, "11": a * g * b}
        if convention == "paired":
            expect = {
                "00": (i, j),
                "01": (sig_a[i], j),
                "10": (i, sig_b[j]),
                "11": (sig_a[i], sig_b[j]),
            }
        else:
            expect = {layer: (i, j) for layer in corners}
        for layer, vert in corners.items():
            v, r, c = cx.incidence(layer, g, i, j)
            assert v == vert and (r, c) == expect[layer]
            assert cx.local_view(layer, vert)[r, c] == idx


def test_gamma_graphs_regular_bipartite():
    # every vertex on every layer meets delta^2 faces
    cx = ternary_complex()
    deg = np.zeros(cx.num_vertices, dtype=np.int64)
    for idx in range(cx.num_faces):
        face = face_from_index(cx, idx)
        for layer_no, layer in enumerate(LAYERS):
            v, _, _ = cx.incidence(layer, *face)
            deg[layer_no * cx.group_size + v.index] += 1
    assert (deg == cx.delta**2).all()
    with pytest.raises(DomainError):
        cx.incidence("22", *face_from_index(cx, 0))
    g = face_from_index(cx, 0)[0]
    for i, j in ((cx.delta, 0), (0, cx.delta), (-1, 0)):
        with pytest.raises(DomainError):
            cx.incidence("00", g, i, j)


def test_complex_construction_errors():
    g2 = default_generators(2, 1, 3)
    g3 = default_generators(3, 1, 3, require_generation=False)
    g3big = default_generators(3, 1, 4, require_generation=False)
    with pytest.raises(GroupMismatch):
        SquareCayleyComplex(g2, g3)
    with pytest.raises(DimensionMismatch):
        SquareCayleyComplex(g3, g3big)
    with pytest.raises(DomainError):
        SquareCayleyComplex(g3, g3, convention="sideways")


def test_complex_json_round_trip():
    cx = ternary_complex(convention="direct")
    back = SquareCayleyComplex.from_json(dumps(cx))
    assert back.convention == "direct"
    assert back.num_faces == cx.num_faces
    assert back.local_view("11", element_from_index(3, 1, 7)).tolist() == cx.local_view(
        "11", element_from_index(3, 1, 7)
    ).tolist()


@pytest.mark.parametrize("convention", ["paired", "direct"])
def test_build_code_orthogonal(convention):
    cx = ternary_complex(convention=convention)
    pair = planted_pair_gf2()
    code = build_code(cx, pair)
    assert code.n == 243
    assert code.m_x == 2 * 27 * 2 * 1
    assert code.m_z == 2 * 27 * 1 * 2
    assert code.css_orthogonal()
    assert code.locality <= cx.delta**2
    assert code.h_x.max_row_weight() <= 9 and code.h_z.max_col_weight() <= 9


def test_mixed_conventions_break_orthogonality():
    pair = planted_pair_gf2()
    paired = ternary_complex(convention="paired")
    direct = ternary_complex(convention="direct")
    h_x = check_matrix(paired, X_LAYERS, pair.code_a.basis, pair.code_b.basis, 2)
    h_z = check_matrix(
        direct, Z_LAYERS, pair.code_a.dual().basis, pair.code_b.dual().basis, 2
    )
    prod = (h_x.toarray() @ h_z.toarray().T) % 2
    assert prod.any()
    mixed = CssCode(p=2, n=h_x.shape[1], h_x=h_x, h_z=h_z)
    assert not mixed.css_orthogonal()
    with pytest.raises(DomainError):
        mixed.validate()


def face_column_matrix(cx, layers, basis_a, basis_b, p):
    """The check matrix assembled one `face_column` at a time: the other
    evaluator of the `_face_plan` that `check_matrix` reads."""
    rows_a, rows_b = basis_a.tolist(), basis_b.tolist()
    entries = [
        (r, f, val)
        for f in range(cx.num_faces)
        for r, val in zip(*face_column(cx, f, layers, rows_a, rows_b, p))
    ]
    n_rows = len(layers) * cx.group_size * len(rows_a) * len(rows_b)
    return FMatrix.from_entries(p, n_rows, cx.num_faces, entries)


def two_axis_complex(p, m, delta, convention):
    """Distinct left and right multisets, so a swapped axis shows."""
    gens_a = default_generators(p, m, delta, require_generation=False)
    g1, g2 = element_from_coords(p, m, 0, 1, 1), element_from_coords(p, m, 1, 1, 0)
    odd = [identity(p, m)] * (delta % 2)
    gens_b = GeneratorMultiset.from_elements([g1, g1.inv(), g2, g2.inv()][: delta - delta % 2] + odd)
    return SquareCayleyComplex(gens_a, gens_b, convention)


@pytest.mark.parametrize(
    "cx, pair",
    [
        (two_axis_complex(3, 1, 3, "paired"), planted_pair_gf2()),
        (two_axis_complex(3, 1, 3, "direct"), planted_pair_gf2()),
        (two_axis_complex(2, 1, 4, "paired"), planted_pair_gf3_len4()),  # GF(3)
        (two_axis_complex(2, 1, 4, "direct"), planted_pair_gf3_len4()),
        (two_axis_complex(3, 2, 5, "paired"), pair_len5_gf2()),  # nonabelian: left != right
    ],
    ids=["level1-paired", "level1-direct", "gf3-paired", "gf3-direct", "level2-paired"],
)
def test_check_matrix_matches_face_columns(cx, pair):
    p, a, b = pair.p, pair.code_a, pair.code_b
    for layers, basis_a, basis_b in (
        (X_LAYERS, a.basis, b.basis),
        (Z_LAYERS, a.dual().basis, b.dual().basis),
    ):
        assert check_matrix(cx, layers, basis_a, basis_b, p) == face_column_matrix(
            cx, layers, basis_a, basis_b, p
        )


# The corner queries before they ran on coordinate quadruples: GroupElement
# products, with each product taken as 2x2 matrices mod p^(m+1) and decoded.


def matrix_product(x, y):
    mod = x.p ** (x.m + 1)
    xm, ym = x.matrix, y.matrix
    prod = (
        (xm[0] * ym[0] + xm[1] * ym[2]) % mod,
        (xm[0] * ym[1] + xm[1] * ym[3]) % mod,
        (xm[2] * ym[0] + xm[3] * ym[2]) % mod,
        (xm[2] * ym[1] + xm[3] * ym[3]) % mod,
    )
    return element_from_matrix(x.p, x.m, prod)


def oracle_incidence(cx, layer, g, i, j):
    paired = cx.convention == "paired"
    v, r, c = g, i, j
    if layer[1] == "1":
        v = matrix_product(cx.gens_a.elements[i], v)
        r = cx.gens_a.pairing[i] if paired else i
    if layer[0] == "1":
        v = matrix_product(v, cx.gens_b.elements[j])
        c = cx.gens_b.pairing[j] if paired else j
    return v, r, c


def oracle_local_view(cx, layer, v):
    """Face indices as nested lists of Python ints: cell (r, c) holds the
    face (a_i^-1 v b_j^-1, i, j), with (i, j) relabelled on each axis the
    corner is reached through."""
    d, paired = cx.delta, cx.convention == "paired"
    inv_a = [cx.gens_a.elements[k] for k in cx.gens_a.pairing]
    inv_b = [cx.gens_b.elements[k] for k in cx.gens_b.pairing]
    ii = cx.gens_a.pairing if paired and layer[1] == "1" else range(d)
    jj = cx.gens_b.pairing if paired and layer[0] == "1" else range(d)
    grid = []
    for i in ii:
        row = []
        for j in jj:
            g = v
            if layer[1] == "1":
                g = matrix_product(inv_a[i], g)
            if layer[0] == "1":
                g = matrix_product(g, inv_b[j])
            row.append((g.index * d + i) * d + j)
        grid.append(row)
    return grid


def oracle_face_column(cx, f, layers, basis_a, basis_b, p):
    d = cx.delta
    g = element_from_index(cx.p, cx.m, f // (d * d))
    i, j = (f // d) % d, f % d
    ka, kb = len(basis_a), len(basis_b)
    rows, vals = [], []
    for layer_no, layer in enumerate(layers):
        v, r, c = oracle_incidence(cx, layer, g, i, j)
        base = (layer_no * cx.group_size + v.index) * ka * kb
        for s, row_a in enumerate(basis_a):
            for t, row_b in enumerate(basis_b):
                val = row_a[r] * row_b[c] % p
                if val:
                    rows.append(base + s * kb + t)
                    vals.append(val)
    return rows, vals


ORACLE_SHAPES = [(2, 1, 4), (2, 2, 3), (3, 1, 3), (3, 2, 5), (5, 1, 4), (3, 30, 5)]


@lru_cache(maxsize=None)
def oracle_complex(p, m, delta, convention):
    return two_axis_complex(p, m, delta, convention)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(ORACLE_SHAPES),
    convention=st.sampled_from(CONVENTIONS),
    field_p=st.sampled_from([2, 3]),
    data=st.data(),
)
def test_corner_queries_match_group_element_oracle(shape, convention, field_p, data):
    """local_view, incidence and face_column on coordinate quadruples equal
    the GroupElement oracles, for even and odd group primes, both
    conventions, GF(2) and GF(3) bases, and at m = 30."""
    cx = oracle_complex(*shape, convention)
    layer = data.draw(st.sampled_from(LAYERS))
    v = element_from_index(cx.p, cx.m, data.draw(st.integers(0, cx.group_size - 1)))
    assert cx.local_view(layer, v).tolist() == oracle_local_view(cx, layer, v)
    f = data.draw(st.integers(0, cx.num_faces - 1))
    g, i, j = face_from_index(cx, f)
    assert cx.incidence(layer, g, i, j) == oracle_incidence(cx, layer, g, i, j)
    row = st.lists(st.integers(0, field_p - 1), min_size=cx.delta, max_size=cx.delta)
    basis_a = data.draw(st.lists(row, max_size=3))
    basis_b = data.draw(st.lists(row, max_size=3))
    layers = data.draw(st.sampled_from([X_LAYERS, Z_LAYERS, LAYERS]))
    assert face_column(cx, f, layers, basis_a, basis_b, field_p) == oracle_face_column(
        cx, f, layers, basis_a, basis_b, field_p
    )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from([shape for shape in ORACLE_SHAPES if shape[1] != 30]),
    convention=st.sampled_from(CONVENTIONS),
    field_p=st.sampled_from([2, 3]),
    layers=st.sampled_from([X_LAYERS, Z_LAYERS, LAYERS]),
    data=st.data(),
)
def test_check_matrix_matches_cayley_table_oracle(shape, convention, field_p, layers, data):
    """`check_matrix`, the corner maps applied to every vertex, equals the
    check matrix read off the axes' Cayley tables, with distinct axes, both
    conventions and random GF(2) and GF(3) bases, on X, Z and all layers."""
    cx = oracle_complex(*shape, convention)
    row = st.lists(st.integers(0, field_p - 1), min_size=cx.delta, max_size=cx.delta)
    basis_a = data.draw(st.lists(row, max_size=3))
    basis_b = data.draw(st.lists(row, max_size=3))
    assert check_matrix(cx, layers, basis_a, basis_b, field_p) == table_check_matrix(
        cx, layers, basis_a, basis_b, field_p
    )


@st.composite
def face_orders(draw, num_faces, dd):
    """Faces to query in turn: a sequential run, random faces, or runs over
    a few vertices' blocks of dd faces, revisited in turn."""
    kind = draw(st.sampled_from(["sequential", "random", "blocks"]))
    if kind == "sequential":
        start = draw(st.integers(0, num_faces - 1))
        return list(range(start, min(start + draw(st.integers(1, 3 * dd)), num_faces)))
    if kind == "random":
        return draw(st.lists(st.integers(0, num_faces - 1), min_size=1, max_size=40))
    vertices = draw(st.lists(st.integers(0, num_faces // dd - 1), min_size=1, max_size=4))
    cells = st.lists(st.integers(0, dd - 1), min_size=1, max_size=dd)
    rounds = draw(st.integers(1, 3))
    return [g * dd + c for _ in range(rounds) for g in vertices for c in draw(cells)]


STREAM_CASES = [
    (shape, convention, pair)
    for shape, pair in (((3, 1, 3), "gf2-len3"), ((2, 1, 4), "gf3-len4"), ((3, 2, 5), "gf2-len5"))
    for convention in CONVENTIONS
]


@lru_cache(maxsize=None)
def stream_case(shape, convention, pair_name):
    """A stream with a random right-hand side, and its instance's constraints."""
    cx = oracle_complex(*shape, convention)
    pair = {
        "gf2-len3": planted_pair_gf2, "gf3-len4": planted_pair_gf3_len4, "gf2-len5": pair_len5_gf2,
    }[pair_name]()
    beta = np.random.default_rng(cx.num_faces).integers(0, pair.p, cx.num_faces)
    stream = TannerConstraintStream(cx, pair, beta)
    return stream, stream.as_instance().constraints


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(case=st.sampled_from(STREAM_CASES), data=st.data())
def test_stream_matches_instance_in_any_order(case, data):
    """The stream keeps its last vertex's corners: under sequential, random
    and block-revisiting orders each constraint still equals its row of
    `as_instance()`, over GF(2) and GF(3) and under both conventions."""
    stream, want = stream_case(*case)
    dd = stream.complex.delta**2
    for f in data.draw(face_orders(stream.num_constraints, dd)):
        assert stream.constraint(f) == want[f]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    convention=st.sampled_from(CONVENTIONS),
    field_p=st.sampled_from([2, 3]),
    layers=st.sampled_from([X_LAYERS, Z_LAYERS, LAYERS]),
    data=st.data(),
)
def test_face_columns_in_any_order_at_m30(convention, field_p, layers, data):
    """At m = 30, face columns read in any order, each face alone from its
    own corner maps, equal the GroupElement oracle face by face."""
    cx = oracle_complex(3, 30, 5, convention)
    row = st.lists(st.integers(0, field_p - 1), min_size=5, max_size=5)
    basis_a = data.draw(st.lists(row, min_size=1, max_size=3))
    basis_b = data.draw(st.lists(row, min_size=1, max_size=3))
    for f in data.draw(face_orders(cx.num_faces, 25)):
        assert face_column(cx, f, layers, basis_a, basis_b, field_p) == oracle_face_column(
            cx, f, layers, basis_a, basis_b, field_p
        )


@lru_cache(maxsize=None)
def l30c_build():
    """L30c: group (3,30), delta 7, k = (3,4), GF(2), n = 49 * 3^90."""
    gens = default_generators(3, 30, 7, seed=7, require_generation=True)
    pair = search_inner_pair(2, 7, 3, 4, seed=stage_seed(7, "inner"))
    return SquareCayleyComplex(gens, gens), pair


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from(ORACLE_SHAPES),
    convention=st.sampled_from(CONVENTIONS),
    layer=st.sampled_from(LAYERS),
    data=st.data(),
)
def test_local_view_matches_its_earlier_formula(shape, convention, layer, data):
    """The stacked evaluator's local view, offset folded in, equals the
    formula it replaced on random vertices, in int64 and, at m = 30, on
    Python ints."""
    cx = oracle_complex(*shape, convention)
    v = element_from_index(cx.p, cx.m, data.draw(st.integers(0, cx.group_size - 1)))
    view, want = cx.local_view(layer, v), formula_local_view(cx, layer, v)
    assert view.dtype == want.dtype == (object if cx.m == 30 else np.int64)
    assert view.tolist() == want.tolist()


@st.composite
def stream_orders(draw, num_faces, dd):
    """Faces to ask a stream for: one run in face order, long enough to
    pass a face, a vertex and blocks of 64 vertices; random faces; or short
    runs from random faces, each broken off mid-vertex or past a block's
    edge."""
    kind = draw(st.sampled_from(["in order", "random", "runs"]))
    if kind == "random":
        return draw(st.lists(st.integers(0, num_faces - 1), min_size=1, max_size=40))
    longest = 140 * dd if kind == "in order" else 3 * dd
    runs = draw(st.lists(
        st.tuples(st.integers(0, num_faces - 1), st.integers(1, longest)),
        min_size=1, max_size=1 if kind == "in order" else 6,
    ))
    return [f for start, n in runs for f in range(start, min(start + n, num_faces))]


def sum_zero_pair(p, n):
    """A planted pair: all-ones, and the words with x_0 + x_1 = 0 for dual."""
    return InnerCodePair(
        p, n, LinearCode(p, n, [[1] * n]), LinearCode(p, n, [[1, p - 1] + [0] * (n - 2)])
    )


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    shape=st.sampled_from([shape for shape in ORACLE_SHAPES if shape[1] != 30]),
    convention=st.sampled_from(CONVENTIONS),
    field_p=st.sampled_from([2, 3]),
    layers=st.sampled_from([X_LAYERS, Z_LAYERS, LAYERS]),
    data=st.data(),
)
def test_stream_blocks_match_cayley_table_oracle(shape, convention, field_p, layers, data):
    """A stream's constraints in face order (a face, its vertex, then
    blocks of 64 vertices), in random order (each face alone) and in runs
    across vertex and block edges equal the columns of the Cayley-table
    check matrix, with random
    bases on X, Z and all layers and a random right-hand side.  The blocks
    read only the stream's `_FaceColumns`, so one on other layers stands in
    for the Z layers' own."""
    cx = oracle_complex(*shape, convention)
    row = st.lists(st.integers(0, field_p - 1), min_size=cx.delta, max_size=cx.delta)
    basis_a = data.draw(st.lists(row, max_size=3))
    basis_b = data.draw(st.lists(row, max_size=3))
    beta = np.random.default_rng(cx.num_faces).integers(0, field_p, cx.num_faces)
    stream = TannerConstraintStream(cx, sum_zero_pair(field_p, cx.delta), beta)
    stream._columns = _FaceColumns(cx, layers, basis_a, basis_b, field_p)
    want = table_check_matrix(cx, layers, basis_a, basis_b, field_p).T.rows()
    for f in data.draw(stream_orders(cx.num_faces, cx.delta**2)):
        con = stream.constraint(f)
        assert (list(con.vars), list(con.coeffs), con.rhs) == (*want[f], beta[f])


@pytest.mark.parametrize("build", ["group (3,30), delta 5", "L30c"])
def test_ones_stream_at_m30_matches_oracle(build):
    """With beta the rule "ones" the stream holds no length-n array, and at
    m = 30 sampled faces, in face order across a vertex and blocks of 64
    vertices and in random order, equal the GroupElement oracle with rhs 1; so does
    a NumPy integer face after faces past int64."""
    if build == "L30c":
        cx, pair = l30c_build()
    else:
        cx, pair = oracle_complex(3, 30, 5, "paired"), pair_len5_gf2()
    stream = TannerConstraintStream(cx, pair, "ones")
    assert not [v for v in vars(stream).values() if isinstance(v, np.ndarray)]
    dual_a, dual_b = pair.code_a.dual().basis.tolist(), pair.code_b.dual().basis.tolist()
    rng, dd = random.Random(build), cx.delta**2
    start = rng.randrange(cx.num_faces)
    in_order = range(start, min(start + 130 * dd, cx.num_faces))
    jumps = [rng.randrange(cx.num_faces) for _ in range(40)]
    for f in [*in_order, *jumps, np.int64(rng.randrange(2**62))]:
        con = stream.constraint(f)
        want = oracle_face_column(cx, int(f), Z_LAYERS, dual_a, dual_b, 2)
        assert (list(con.vars), list(con.coeffs), con.rhs) == (*want, 1)


def test_l30c_queries_are_strongly_explicit():
    """L30c: group (3,30), delta 7, k = (3,4), GF(2), n = 49 * 3^90.  For
    sampled faces, each corner's local view holds the face in the cell
    `incidence` names; `face_column` answers in under 100 us (median); and
    each Z check at a sampled vertex has coefficients summing to 0 over its
    local view, the planted all-ones word checked locally."""
    cx, pair = l30c_build()
    assert cx.num_faces == 49 * 3**90
    rng = random.Random(30)
    faces = [rng.randrange(cx.num_faces) for _ in range(40)]
    for f in faces:
        g, i, j = face_from_index(cx, f)
        for layer in LAYERS:
            v, r, c = cx.incidence(layer, g, i, j)
            view = cx.local_view(layer, v)
            assert view.dtype == object and view[r, c] == f

    dual_a, dual_b = pair.code_a.dual().basis.tolist(), pair.code_b.dual().basis.tolist()
    face_column(cx, faces[0], Z_LAYERS, dual_a, dual_b, 2)  # fill the table cache
    times = []
    for _ in range(300):
        f = rng.randrange(cx.num_faces)
        t0 = time.perf_counter()
        face_column(cx, f, Z_LAYERS, dual_a, dual_b, 2)
        times.append(time.perf_counter() - t0)
    times.sort()
    assert times[len(times) // 2] < 100e-6

    kk = len(dual_a) * len(dual_b)
    entries = sum(
        a[r] * b[c] % 2 for a in dual_a for b in dual_b for r in range(7) for c in range(7)
    )
    for layer_no, layer in enumerate(Z_LAYERS):
        for _ in range(3):
            v = element_from_index(3, 30, rng.randrange(cx.group_size))
            base = (layer_no * cx.group_size + v.index) * kk
            sums, hits = [0] * kk, 0
            for f in cx.local_view(layer, v).flat:
                for row, val in zip(*face_column(cx, f, Z_LAYERS, dual_a, dual_b, 2)):
                    if base <= row < base + kk:
                        sums[row - base] += val
                        hits += 1
            assert hits == entries > 0
            assert all(x % 2 == 0 for x in sums)


def test_foreign_vertex_rejected_on_every_layer():
    cx = two_axis_complex(3, 2, 5, "paired")
    foreign = element_from_index(3, 1, 5)
    for layer in LAYERS:
        with pytest.raises(GroupMismatch):
            cx.local_view(layer, foreign)
        with pytest.raises(GroupMismatch):
            cx.incidence(layer, foreign, 0, 0)


def test_build_code_rejects_length_mismatch():
    cx = ternary_complex()
    with pytest.raises(DimensionMismatch):
        build_code(cx, planted_pair_gf3_len4())


def test_dimension_toys():
    assert code_dimension(steane_code()) == 1
    assert code_dimension(shor_code()) == 1
    zero = CssCode(
        p=2,
        n=5,
        h_x=FMatrix.from_entries(2, 0, 5, []),
        h_z=FMatrix.from_entries(2, 0, 5, []),
    )
    assert code_dimension(zero) == 5
    assert check_counting_bound(zero) == 5


def test_dimension_budget_refuses_before_eliminating():
    code = build_code(ternary_complex(), planted_pair_gf2())
    with pytest.raises(BudgetExceeded, match=r"rank work .* tanner\.DEFAULT_RANK_BUDGET"):
        code_dimension(code, budget=1)
    assert code._rowspace_x is None and code._rowspace_z is None
    assert code_dimension(code) == (code.n - code.rank_z) - code.rank_x


def test_dimension_and_bound_tanner_build():
    code = build_code(ternary_complex(), planted_pair_gf2())
    k = code_dimension(code)
    assert k >= 1
    assert check_counting_bound(code) == 243 - 108 - 108 == 27
    # unreduced-count bound agrees with the rate formula
    r_a, r_b = 2 / 3, 1 / 3
    assert check_counting_bound(code) == round(-(1 - 2 * r_a) * (1 - 2 * r_b) * 243)


def test_rate_half_build_defeats_counting():
    # rate-1/2 inner pair: counting gives 0, planting still forces k >= 1
    code = build_code(binary_complex(delta=4), planted_pair_gf3_len4())
    assert code.n == 8 * 16 == 128
    assert check_counting_bound(code) == 0
    assert code_dimension(code) >= 1
    assert verify_planted(code).planted


def test_verify_planted_positive():
    code = build_code(ternary_complex(), planted_pair_gf2())
    report = verify_planted(code)
    assert report.ones_in_ker_x
    assert report.ones_in_ker_z
    assert report.ones_outside_x_rowspace
    assert report.ones_outside_z_rowspace
    assert report.row_sums_zero
    assert report.n_mod_p == 1
    assert report.planted
    obj = json.loads(dumps(report))
    assert obj["planted"] is True


def test_verify_planted_negative_without_planting():
    # build check matrices from a deliberately unplanted pair of codes
    cx = ternary_complex()
    code_a = LinearCode(2, 3, [[1, 0, 0], [0, 1, 0]])
    code_b = LinearCode(2, 3, [[1, 1, 1]])
    h_x = check_matrix(cx, X_LAYERS, code_a.basis, code_b.basis, 2)
    h_z = check_matrix(cx, Z_LAYERS, code_a.dual().basis, code_b.dual().basis, 2)
    code = CssCode(p=2, n=243, h_x=h_x, h_z=h_z)
    code.validate()
    report = verify_planted(code)
    assert not report.ones_in_ker_x
    assert not report.planted


def test_verify_planted_flags_field_dividing_n():
    gens = default_generators(3, 1, 3, require_generation=False)
    cx = SquareCayleyComplex(gens, gens)
    code_a = LinearCode(3, 3, [[1, 1, 1]])
    code_b = LinearCode(3, 3, [[1, 2, 0]])
    code = build_code(cx, InnerCodePair(3, 3, code_a, code_b))
    assert verify_planted(code).n_mod_p == 0


def _outside_rowspace(v, rref, pivots, p):
    res = v.copy()
    for r, c in enumerate(pivots):
        if res[c]:
            res = (res - res[c] * rref[r]) % p
    return bool(res.any())


def distance_oracle(code):
    """Brute force over both logical sides via full kernel enumeration."""
    best = math.inf
    for ker_m, row_m in [(code.h_z, code.h_x), (code.h_x, code.h_z)]:
        kb = kernel_basis(ker_m.toarray(), code.p)
        rref, pivots = row_reduce(row_m.toarray(), code.p)
        for coeffs in product(range(code.p), repeat=kb.shape[0]):
            v = (np.array(coeffs, dtype=np.int64) @ kb) % code.p
            if v.any() and _outside_rowspace(v, rref, pivots, code.p):
                best = min(best, int(np.count_nonzero(v)))
    return best


def low_weight_distance_oracle(code, max_w):
    """GF(2): the distance when it is at most `max_w`, else inf, by trying
    every support of weight 1, 2, ..., max_w on both logical sides; for
    kernels too large for `distance_oracle`."""
    for w in range(1, max_w + 1):
        supports = np.array(list(combinations(range(code.n), w)))
        vs = np.zeros((len(supports), code.n), dtype=np.int64)
        np.put_along_axis(vs, supports, 1, axis=1)
        for ker_m, row_m in [(code.h_z, code.h_x), (code.h_x, code.h_z)]:
            in_ker = ~((vs @ ker_m.toarray().T) % 2).any(axis=1)
            rref, pivots = row_reduce(row_m.toarray(), 2)
            if any(_outside_rowspace(v, rref, pivots, 2) for v in vs[in_ker]):
                return w
    return math.inf


def test_distance_steane_exact():
    report = estimate_distance(steane_code())
    assert report.exact and report.method == "exhaustive"
    assert report.upper_bound == 3
    assert np.count_nonzero(report.witness) == 3


def test_distance_shor_matches_oracle():
    code = shor_code()
    report = estimate_distance(code)
    assert report.exact
    assert report.upper_bound == distance_oracle(code) == 3


def test_distance_randomized_path():
    code = steane_code()
    report = estimate_distance(code, budget=2, seed=1, trials=12)
    assert not report.exact and report.method == "information-set"
    assert report.upper_bound >= 3
    w = report.witness
    assert w is not None
    h = code.h_z.toarray() if report.side == "z-logical" else code.h_x.toarray()
    other = code.h_x.toarray() if report.side == "z-logical" else code.h_z.toarray()
    assert not ((h @ w) % 2).any()
    rref, pivots = row_reduce(other, 2)
    res = w.copy()
    for r, c in enumerate(pivots):
        if res[c]:
            res = (res - res[c] * rref[r]) % 2
    assert res.any()


@st.composite
def small_css_codes(draw):
    """A random CSS code over GF(2) on n <= 8 qubits or over GF(3) on
    n <= 7: either H_Z rows are random combinations of a basis of ker H_X,
    or the code is the hypergraph product of two matrices with no zero
    entry, so that distances above 1 occur."""
    p = draw(st.sampled_from([2, 3]))
    limit = 8 if p == 2 else 7
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        dims = st.tuples(*[st.integers(1, 2), st.integers(2, 3)] * 2)
        m1, n1, m2, n2 = draw(dims.filter(lambda d: d[1] * d[3] + d[0] * d[2] <= limit))
        h1, h2 = rng.integers(1, p, size=(m1, n1)), rng.integers(1, p, size=(m2, n2))
        eye = partial(np.eye, dtype=np.int64)
        h_x = np.hstack([np.kron(h1, eye(n2)), np.kron(eye(m1), h2.T)]) % p
        h_z = np.hstack([np.kron(eye(n1), h2), -np.kron(h1.T, eye(m2))]) % p
    else:
        n = draw(st.integers(1, limit))
        h_x = rng.integers(0, p, size=(draw(st.integers(0, n)), n))
        kernel = kernel_basis(h_x, p) if h_x.size else np.eye(n, dtype=np.int64)
        mix = rng.integers(0, p, size=(draw(st.integers(0, n)), kernel.shape[0]))
        h_z = ((mix @ kernel) % p).reshape(-1, n)
    n = h_x.shape[1]
    code = CssCode(p=p, n=n, h_x=FMatrix.from_dense(p, h_x), h_z=FMatrix.from_dense(p, h_z))
    code.validate()
    return code


def exhaustive_side_oracle(checks, stabilizers, p):
    """(weight, word) of the lightest word of ker(checks) outside the row
    space of `stabilizers`, the first among equals in `iter_codewords`
    order: every kernel word is found among all p^n vectors, and the
    kernel's RREF basis and each membership test come from
    `_row_reduce_dense`."""
    n = checks.shape[1]
    vectors = np.array(list(product(range(p), repeat=n)), dtype=np.int64).reshape(-1, n)
    kernel = vectors[~((vectors @ checks.T) % p).any(axis=1)]
    rref, pivots = gf._row_reduce_dense(kernel, p)
    basis = rref[: len(pivots)]
    stab_rank = len(gf._row_reduce_dense(stabilizers, p)[1])
    best = (math.inf, None)
    for coeffs in product(range(p), repeat=len(basis)):
        v = (np.array(coeffs, dtype=np.int64) @ basis) % p if len(basis) else np.zeros(n, np.int64)
        w = int(np.count_nonzero(v))
        stacked = np.vstack([stabilizers.reshape(-1, n), v])
        if w < best[0] and len(gf._row_reduce_dense(stacked, p)[1]) > stab_rank:
            best = (w, v)
    return best


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(small_css_codes())
def test_exhaustive_distance_matches_brute_force(code):
    """The exact side over small GF(2) and GF(3) codes: bound, side and
    witness agree with brute force over every kernel word."""
    p, h_x, h_z = code.p, code.h_x.toarray(), code.h_z.toarray()
    report = estimate_distance(code, budget=p**code.n)
    assert report.exact and report.method == "exhaustive" and report.trials == 0
    sides = [("z-logical", *exhaustive_side_oracle(h_z, h_x, p)),
             ("x-logical", *exhaustive_side_oracle(h_x, h_z, p))]
    side, bound, witness = min(sides, key=lambda t: t[1])
    assert (report.upper_bound, report.side) == (bound, side)
    if witness is None:
        assert report.witness is None
    else:
        assert report.witness.dtype == np.int64 and report.witness.tolist() == witness.tolist()


def hypergraph_product(h1, h2) -> CssCode:
    """The CSS code H_X = [H1 x I | I x H2^T], H_Z = [I x H2 | H1^T x I]."""
    (m1, n1), (m2, n2) = h1.shape, h2.shape
    eye = partial(np.eye, dtype=np.int64)
    h_x = np.hstack([np.kron(h1, eye(n2)), np.kron(eye(m1), h2.T)])
    h_z = np.hstack([np.kron(eye(n1), h2), np.kron(h1.T, eye(m2))])
    code = CssCode(2, h_x.shape[1], FMatrix.from_dense(2, h_x), FMatrix.from_dense(2, h_z))
    code.validate()
    return code


HAMMING = np.array([[1, 0, 1, 0, 1, 0, 1], [0, 1, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]])
RING_3 = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])
CHAIN_4 = np.array([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]])
SEARCH_CODES = {
    "steane": steane_code,
    "shor": shor_code,
    "toric_3": lambda: hypergraph_product(RING_3, RING_3),
    "hamming_x_chain": lambda: hypergraph_product(HAMMING, CHAIN_4),
    "hamming_x_hamming": lambda: hypergraph_product(HAMMING, HAMMING),
}


def _same_report(got, want):
    assert (got.upper_bound, got.side, got.trials, got.method) == (
        want.upper_bound, want.side, want.trials, want.method
    )
    assert got.witness.dtype == want.witness.dtype == np.int64
    assert (got.witness == want.witness).all()


def trial_by_trial_side(checks, stabilizers, trials, rng):
    """`gf.information_set_search` with one dense `row_reduce` per trial: each
    trial's form is the RREF of the dual basis with the information set
    moved first, its changed rows are those that differ from the last
    form, its draws are read off that form, and each candidate is asked
    alone, in order."""
    n = checks.n
    basis = kernel_basis(checks.basis, checks.p)
    if trials == 0 or len(basis) == 0:
        return math.inf, None, 0
    info = np.setdiff1d(np.arange(n), checks.pivots).tolist()
    best, best_w, form = math.inf, None, None
    for trial in range(trials):
        if trial:
            outside = np.setdiff1d(np.flatnonzero(form.any(axis=0)), info)
            if not outside.size:
                return best, best_w, trial
            c = outside[rng.integers(outside.size)]
            hit = np.flatnonzero(form[:, c])
            info[hit[rng.integers(hit.size)]] = c
        perm = np.concatenate([info, np.setdiff1d(np.arange(n), info)])
        rref, pivots = row_reduce(basis[:, perm], checks.p)
        assert pivots == list(range(len(info)))
        last, form = form, np.empty_like(basis)
        form[:, perm] = rref[: len(info)]
        changed = np.flatnonzero((form != last).any(axis=1)) if trial else np.arange(len(form))
        firsts = changed[:8]
        pairs = [(form[i] + form[j]) % checks.p for i, j in combinations(firsts, 2)]
        for v in [*form[changed], *pairs]:
            w = int(np.count_nonzero(v))
            if w < best and not stabilizers.contains(v):
                best, best_w = w, v
    return best, best_w, trials


@pytest.mark.parametrize("name", sorted(SEARCH_CODES))
@pytest.mark.parametrize("seed", [0, 1, 5])
def test_packed_search_matches_trial_by_trial(name, seed, monkeypatch):
    """At 9 trials a side the walk finds the exact distance of every search
    code, and bound, witness, side and trials agree with one `row_reduce`
    per trial."""
    code = SEARCH_CODES[name]()
    kw = dict(budget=0, seed=seed, trials=9)
    got = estimate_distance(code, **kw)
    assert got.upper_bound == low_weight_distance_oracle(code, 3) == 3
    monkeypatch.setattr(tanner, "information_set_search", trial_by_trial_side)
    want = estimate_distance(code, **kw)
    assert want.trials == 18 and not want.exact
    _same_report(got, want)


def test_packed_search_edge_cases():
    """0 and 1 trials draw nothing; a dual of dimension 0 reports no
    trial; a form with no nonzero column outside its information set ends
    the walk after the trials it scored; pair sums are candidates."""
    code = hypergraph_product(HAMMING, CHAIN_4)
    sides = (code.rowspace_z, code.rowspace_x), (code.rowspace_x, code.rowspace_z)
    untouched = np.random.default_rng(3).integers(2**62)
    for checks, stabilizers in sides:
        for trials in (0, 1):
            rng = np.random.default_rng(3)
            got = information_set_search(checks, stabilizers, trials, rng)
            want = trial_by_trial_side(checks, stabilizers, trials, np.random.default_rng(3))
            assert got[0] == want[0] and got[2] == want[2] == trials
            if trials:
                assert (got[1] == want[1]).all()
            else:
                assert got[0] == math.inf and got[1] is None
            assert rng.integers(2**62) == untouched
    # a dual of dimension 0 draws nothing and reports no trial
    full = LinearCode(2, 4, np.eye(4, dtype=np.int64))
    rng = np.random.default_rng(0)
    assert information_set_search(full, LinearCode(2, 4), 5, rng) == (math.inf, None, 0)
    assert rng.integers(2**62) == np.random.default_rng(0).integers(2**62)
    # the dual of <e_3> is <e_0, e_1, e_2>: every nonzero column is in the
    # information set, so the walk stops after trial 1
    for p in (2, 3):
        rng = np.random.default_rng(0)
        checks = LinearCode(p, 4, [[0, 0, 0, 1]])
        ub, w, scored = information_set_search(checks, LinearCode(p, 4), 5, rng)
        assert (ub, w.tolist(), scored) == (1, [1, 0, 0, 0], 1)
        assert rng.integers(2**62) == np.random.default_rng(0).integers(2**62)
    # the kernel rows 11110 and 11101 weigh 4; trial 1 finds their sum
    checks = LinearCode(2, 5, [[1, 0, 0, 1, 1], [0, 1, 0, 1, 1], [0, 0, 1, 1, 1]])
    ub, w, _ = information_set_search(checks, LinearCode(2, 5), 1, np.random.default_rng(0))
    assert (ub, w.tolist()) == (2, [0, 0, 0, 1, 1])


def test_packed_search_makes_no_row_reduce_call(monkeypatch):
    """With the check echelons made, the search eliminates nothing."""
    code = hypergraph_product(HAMMING, HAMMING)
    code.rowspace_x, code.rowspace_z
    for name in ("row_reduce", "_eliminate", "_row_reduce_dense"):
        monkeypatch.setattr(gf, name, lambda *args, name=name: pytest.fail(f"{name} called"))
    report = estimate_distance(code, budget=0, trials=4)
    assert report.upper_bound == 3 and report.trials == 8


def ssexp_oracle(code, max_w):
    """Exhaustive minimal ratio on the boundary side, exact coset weights."""
    p, n = code.p, code.n
    az = code.h_z.toarray()
    ax = code.h_x.toarray()
    stab = [
        (np.array(c, dtype=np.int64) @ ax) % p
        for c in product(range(p), repeat=ax.shape[0])
    ]
    best = None
    for w in range(1, max_w + 1):
        for support in combinations(range(n), w):
            for vals in product(range(1, p), repeat=w):
                v = np.zeros(n, dtype=np.int64)
                v[list(support)] = vals
                cw = min(int(np.count_nonzero((v + s) % p)) for s in stab)
                if cw == 0:
                    continue
                ratio = (int(np.count_nonzero((az @ v) % p)) / az.shape[0]) / (cw / n)
                if best is None or ratio < best:
                    best = ratio
    return best


def test_ssexp_steane_matches_oracle():
    code = steane_code()
    curve = estimate_ssexp(code, [1 / 7, 2 / 7, 4 / 7], seed=0)
    assert curve.exact_cosets
    for pt in curve.points:
        assert pt.exhaustive
        assert pt.boundary_min == pytest.approx(ssexp_oracle(code, pt.max_weight))
    # lightest violating pattern at weight 2: syndromes of two columns
    # differing in one check
    assert curve.points[1].boundary_min == pytest.approx(7 / 6)
    # self-dual code: both sides agree
    assert curve.points[1].coboundary_min == pytest.approx(7 / 6)
    # weight-4 stabilizer rows are excluded as 0/0 at the last grid point
    total = sum(math.comb(7, w) for w in (1, 2, 3, 4))
    assert curve.points[2].boundary_samples == total - 7
    assert curve.boundary_constant == pytest.approx(
        min(pt.boundary_min for pt in curve.points)
    )


def test_ssexp_sampled_path_deterministic():
    code = steane_code()
    kw = dict(trials=40, seed=11, exhaustive_limit=4)
    a = estimate_ssexp(code, [2 / 7, 3 / 7], **kw)
    b = estimate_ssexp(code, [2 / 7, 3 / 7], **kw)
    assert not a.points[0].exhaustive
    assert dumps(a) == dumps(b)
    assert a.points[0].boundary_samples <= 40


def all_rows_greedy(v, stab_rows, p):
    """The coset bound's greedy as it scored every stabilizer row."""
    if stab_rows.size == 0:
        return int(np.count_nonzero(v))
    cur = v.copy()
    w = int(np.count_nonzero(cur))
    while w > 0:
        best_cand, best_w = None, w
        for scale in range(1, p):
            cands = (cur[None, :] + scale * stab_rows) % p
            weights = np.count_nonzero(cands, axis=1)
            k = int(weights.argmin())
            if int(weights[k]) < best_w:
                best_w, best_cand = int(weights[k]), cands[k]
        if best_cand is None:
            break
        cur, w = best_cand, best_w
    return w


def coset_bounds(vs, stab):
    """The batched greedy on the rows of the dense matrix `vs`."""
    return _coset_weight_bounds(FMatrix.from_dense(stab.p, vs), stab).tolist()


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([2, 3, 5]), st.integers(0, 12), st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_coset_bound_matches_all_rows_greedy(p, n_rows, n, seed):
    """One batch per case: noisy stabilizer combinations, a zero vector and
    a stabilizer word; on odd seeds the last stabilizer row is a multiple
    of the first, so rows and scales tie."""
    rng = np.random.default_rng(seed)
    stab = (rng.random((n_rows, n)) < 0.25) * rng.integers(1, p, (n_rows, n))
    if n_rows >= 2 and seed % 2:
        stab[-1] = stab[0] * rng.integers(1, p) % p
    batch = []
    for _ in range(6):
        # a few stabilizer rows plus light noise, so the greedy has work to do
        v = (rng.integers(0, p, n_rows) * (rng.random(n_rows) < 0.3)) @ stab
        batch.append((v + (rng.random(n) < 0.1) * rng.integers(1, p, n)) % p)
    batch.append(np.zeros(n, dtype=np.int64))
    batch.append(rng.integers(0, p, n_rows) @ stab % p)
    batch = np.array(batch, dtype=np.int64)
    want = [all_rows_greedy(v, stab, p) for v in batch]
    assert coset_bounds(batch, FMatrix.from_dense(p, stab)) == want
    assert want[-2] == 0


@pytest.mark.parametrize("p", [2, 3])
def test_coset_bound_matches_all_rows_greedy_on_tanner_codes(p):
    """60 noisy three-row combinations in one batch, with a zero vector, a
    stabilizer row and a stabilizer word."""
    if p == 2:
        code = build_code(ternary_complex(), planted_pair_gf2())
    else:
        code = build_code(binary_complex(delta=4), planted_pair_gf3_len4())
    rng = np.random.default_rng(p)
    for stab in (code.h_x, code.h_z):
        dense = stab.toarray()
        batch = [np.zeros(code.n, dtype=np.int64), dense[0]]
        for _ in range(60):
            rows = rng.choice(stab.shape[0], size=3, replace=False)
            v = rng.integers(1, p, 3) @ dense[rows] % p
            v[rng.choice(code.n, size=2, replace=False)] = rng.integers(0, p, 2)
            batch.append(v)
        batch.append(rng.integers(0, p, stab.shape[0]) @ dense % p)
        batch = np.array(batch)
        assert coset_bounds(batch, stab) == [all_rows_greedy(v, dense, p) for v in batch]


def ssexp_loop_oracle(code, epsilon_grid, trials, seed, exhaustive_limit, coset_budget):
    """`estimate_ssexp` as it ran, one dense vector at a time: the same
    draws in the same order, one product with each check matrix, and each
    coset weight by enumeration or by `all_rows_greedy`.  Points as tuples
    in `CurvePoint` field order."""
    p, n = code.p, code.n
    sides = []
    for checks, stab, space in (
        (code.h_z, code.h_x, code.rowspace_x),
        (code.h_x, code.h_z, code.rowspace_z),
    ):
        exact = space if p**space.dim <= coset_budget else None
        sides.append((checks.toarray(), stab.toarray(), exact))
    rng = np.random.default_rng(seed)
    points = []
    for eps in epsilon_grid:
        max_w = math.floor(eps * n)
        count = sum(math.comb(n, w) * (p - 1) ** w for w in range(1, max_w + 1))
        exhaustive = max_w >= 1 and count <= exhaustive_limit
        draws = []
        if exhaustive:
            for w in range(1, max_w + 1):
                for support in combinations(range(n), w):
                    draws += [(list(support), vals) for vals in product(range(1, p), repeat=w)]
        elif max_w >= 1:
            for _ in range(trials):
                w = int(rng.integers(1, max_w + 1))
                draws.append((rng.choice(n, size=w, replace=False), rng.integers(1, p, size=w)))
        mins, counts = [None, None], [0, 0]
        for support, vals in draws:
            v = np.zeros(n, dtype=np.int64)
            v[support] = vals
            for k, (checks, stab, exact) in enumerate(sides):
                syn = int(np.count_nonzero(checks @ v % p))
                cw = gf.coset_min_weight(v, exact) if exact else all_rows_greedy(v, stab, p)
                if cw == 0:
                    continue
                ratio = (syn / checks.shape[0]) / (cw / n)
                counts[k] += 1
                if mins[k] is None or ratio < mins[k]:
                    mins[k] = ratio
        points.append((float(eps), max_w, *mins, *counts, exhaustive))
    return points


ORACLE_CODES = {
    **SEARCH_CODES,
    "gf3_tanner": lambda: build_code(binary_complex(delta=4), planted_pair_gf3_len4()),
}


@lru_cache(maxsize=None)
def oracle_code(name):
    return ORACLE_CODES[name]()


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(ORACLE_CODES)),
    st.lists(st.integers(1, 6), min_size=1, max_size=3),
    st.integers(1, 25),
    st.integers(0, 2**16),
    st.sampled_from([0, 40, 400]),
    st.sampled_from([0, 2**12]),
)
def test_ssexp_matches_loop_oracle(name, halves, trials, seed, exhaustive_limit, coset_budget):
    """The batched curve equals the per-vector loop's, point for point and
    float for float, on exhaustive and sampled points; coset_budget = 0
    forces the greedy on both sides."""
    code = oracle_code(name)
    grid = [h / (2 * code.n) for h in halves]  # max weights 0 to 3
    kw = dict(trials=trials, seed=seed, exhaustive_limit=exhaustive_limit, coset_budget=coset_budget)
    curve = estimate_ssexp(code, grid, **kw)
    got = [tuple(asdict(pt).values()) for pt in curve.points]
    assert got == ssexp_loop_oracle(code, grid, **kw)
    if coset_budget == 0:
        assert not curve.exact_cosets


def test_ssexp_rejects_bad_epsilon():
    with pytest.raises(DomainError):
        estimate_ssexp(steane_code(), [0.0])


def test_ssexp_refuses_a_side_without_checks():
    """No Z checks: a word outside the X rowspace has no syndrome ratio."""
    no_z = CssCode(2, 3, FMatrix.from_dense(2, [[1, 1, 1]]), FMatrix.zeros(2, 0, 3))
    with pytest.raises(DomainError, match="no boundary checks"):
        estimate_ssexp(no_z, [1 / 3])


def test_css_code_json_round_trip():
    code = build_code(ternary_complex(), planted_pair_gf2())
    back = CssCode.from_doc(json.loads(dumps(code)))
    assert back.p == code.p and back.n == code.n
    assert back.h_x == code.h_x and back.h_z == code.h_z
    assert back.provenance["kind"] == "tanner"
    back.validate()
