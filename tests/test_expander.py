"""Congruence-subgroup expander tests.

The coordinate map and the group law are checked against direct modular
matrix arithmetic; spectra are checked against circulant formulas and an
independent dense eigensolve.
"""

import json
import random
import time

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.csgraph import connected_components
from scipy.sparse.linalg import ArpackNoConvergence

from ptanner import expander
from ptanner.cli import main
from ptanner.errors import (
    DomainError,
    GenerationFailure,
    GroupMismatch,
    InvalidField,
    NotInKernel,
)
from ptanner.expander import (
    CayleyMultigraph,
    GeneratorMultiset,
    bfs_closure_size,
    cayley_table,
    default_generators,
    element_from_coords,
    element_from_index,
    element_from_matrix,
    group_order,
    identity,
    _character_blocks,
    coset_split,
    spectral_expansion,
    spectral_from_adjacency,
)
from ptanner.jsonio import dumps
from ptanner.pipeline import RunConfig, run_pipeline, stage_seed

from small_codes import right_table


def test_coordinate_map_frozen_example_p3():
    g = element_from_coords(3, 1, 1, 0, 0)
    # determinant completion: d = (1+3)^-1 * (0-1) mod 3 = 2
    assert g.matrix == (4, 0, 0, 7)
    mod = 27
    x = g.matrix
    assert (x[0] * x[3] - x[1] * x[2]) % 9 == 1


def test_coordinate_map_frozen_example_p2_m2():
    g = element_from_coords(2, 2, 1, 1, 1)
    # d = 3^-1 * (2*1*1 - 1) mod 4 = 3
    assert g.matrix == (3, 2, 2, 7)
    assert (3 * 7 - 2 * 2) % 8 == 1


def test_coordinate_map_is_bijective():
    for p, m in [(3, 1), (2, 2)]:
        seen = set()
        for idx in range(group_order(p, m)):
            g = element_from_index(p, m, idx)
            assert g.index == idx
            seen.add(g.matrix)
            assert element_from_matrix(p, m, g.matrix) == g
        assert len(seen) == group_order(p, m)


def test_matrix_decode_rejections():
    with pytest.raises(NotInKernel):
        element_from_matrix(3, 1, (1, 1, 0, 1))  # off-diagonal not divisible by 3
    with pytest.raises(NotInKernel):
        element_from_matrix(3, 1, (4, 0, 0, 4))  # det = 16 != 1 mod 27
    with pytest.raises(NotInKernel):
        element_from_matrix(2, 1, (3, 0, 0, 1))  # det = 3 != 1 mod 8


def test_group_law_matches_matrix_arithmetic():
    rng = random.Random(2)
    for p, m in [(3, 1), (2, 2), (5, 1)]:
        mod = p ** (m + 1)
        q = p**m
        e = identity(p, m)
        for _ in range(40):
            x = element_from_coords(p, m, *(rng.randrange(q) for _ in range(3)))
            y = element_from_coords(p, m, *(rng.randrange(q) for _ in range(3)))
            z = element_from_coords(p, m, *(rng.randrange(q) for _ in range(3)))
            xm, ym = x.matrix, y.matrix
            direct = (
                (xm[0] * ym[0] + xm[1] * ym[2]) % mod,
                (xm[0] * ym[1] + xm[1] * ym[3]) % mod,
                (xm[2] * ym[0] + xm[3] * ym[2]) % mod,
                (xm[2] * ym[1] + xm[3] * ym[3]) % mod,
            )
            assert (x * y).matrix == direct
            assert (x * y) * z == x * (y * z)
            assert x * x.inv() == e
            assert x.inv() * x == e


LAW_LEVELS = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2),
              (2, 30), (3, 30), (5, 30)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(level=st.sampled_from(LAW_LEVELS), data=st.data())
def test_coordinate_law_matches_matrix_product(level, data):
    """The coordinate law against the product of the two matrices mod
    p^(m+1), decoded by element_from_matrix; the coordinate inverse against
    the adjugate."""
    p, m = level
    mod, coord = p ** (m + 1), st.integers(0, p**m - 1)
    x = element_from_coords(p, m, *data.draw(st.tuples(coord, coord, coord)))
    y = element_from_coords(p, m, *data.draw(st.tuples(coord, coord, coord)))
    xm, ym = x.matrix, y.matrix
    direct = (
        (xm[0] * ym[0] + xm[1] * ym[2]) % mod,
        (xm[0] * ym[1] + xm[1] * ym[3]) % mod,
        (xm[2] * ym[0] + xm[3] * ym[2]) % mod,
        (xm[2] * ym[1] + xm[3] * ym[3]) % mod,
    )
    prod = x * y
    assert prod == element_from_matrix(p, m, direct)
    assert prod.matrix == direct
    adjugate = (xm[3], -xm[1] % mod, -xm[2] % mod, xm[0])
    assert x.inv() == element_from_matrix(p, m, adjugate)
    assert x.inv().matrix == adjugate


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(p=st.sampled_from([2, 3, 5]), m=st.sampled_from([1, 2, 30]), data=st.data())
def test_product_d_matches_modular_inverse_formula(p, m, data):
    """A product carries d = d1 + d2 + p(c1 b2 + d1 d2) and an inverse
    d = a; both equal the completion d = (1 + pa)^-1 (pbc - a) mod p^m."""
    q, coord = p**m, st.integers(0, p**m - 1)
    x = element_from_coords(p, m, *data.draw(st.tuples(coord, coord, coord)))
    y = element_from_coords(p, m, *data.draw(st.tuples(coord, coord, coord)))
    for g in (x, y, x * y, y * x, x.inv(), (x * y).inv() * x):
        assert g.d == pow(1 + p * g.a, -1, q) * (p * g.b * g.c - g.a) % q


def test_bad_level_raises_on_every_call():
    for _ in range(2):
        with pytest.raises(InvalidField):
            element_from_index(4, 1, 0)
        with pytest.raises(DomainError):
            element_from_coords(3, 0, 1, 0, 0)


@pytest.mark.parametrize("p, m, degree", [(2, 1, 4), (3, 1, 7), (2, 2, 5), (3, 2, 6)])
def test_cayley_table_matches_scalar_products(p, m, degree):
    gens = default_generators(p, m, degree, require_generation=False)
    graph = CayleyMultigraph(gens)
    left = cayley_table(p, m, gens.elements)
    right = right_table(p, m, gens.elements)  # the check-matrix oracle's right table
    assert left.shape == right.shape == (degree, group_order(p, m))
    for v in range(group_order(p, m)):
        g = element_from_index(p, m, v)
        for j, s in enumerate(gens.elements):
            assert left[j, v] == graph.neighbor(v, j) == (s * g).index
            assert right[j, v] == (g * s).index
    assert (graph.neighbor_lists() == left.T).all()
    with pytest.raises(GroupMismatch):
        cayley_table(p, m + 1, gens.elements)


def test_identity_and_index_round_trip():
    e = identity(3, 2)
    assert e.matrix == (1, 0, 0, 1)
    assert e.index == 0
    g = element_from_index(3, 2, 577)
    assert element_from_coords(3, 2, *g.coords) == g


def test_generator_multiset_symmetry_validation():
    g = element_from_coords(3, 1, 0, 1, 0)
    with pytest.raises(Exception):
        GeneratorMultiset.from_elements([g, g])  # inverse missing
    ms = GeneratorMultiset.from_elements([g, g.inv()])
    assert ms.pairing == (1, 0)
    ms2 = GeneratorMultiset.from_elements([identity(3, 1)])
    assert ms2.pairing == (0,)


def test_default_generators_small_binary_group():
    for degree in (3, 4, 5):
        gens = default_generators(2, 1, degree, seed=0)
        assert gens.degree == degree
        assert bfs_closure_size(gens) == 8


def test_default_generators_ternary_group():
    gens6 = default_generators(3, 1, 6, seed=0)
    assert bfs_closure_size(gens6) == 27
    gens7 = default_generators(3, 1, 7, seed=0)
    assert bfs_closure_size(gens7) == 27
    # odd slot is filled by the identity
    assert any(g.is_identity() for g in gens7.elements)


def test_default_generators_level_two_closure():
    gens = default_generators(3, 2, 6, seed=0)
    assert bfs_closure_size(gens) == group_order(3, 2) == 729


def test_default_generators_deterministic():
    a = default_generators(3, 1, 6, seed=9)
    b = default_generators(3, 1, 6, seed=9)
    assert a == b
    c = default_generators(3, 1, 6, seed=10)
    assert c.degree == 6


def test_small_symmetric_degrees_cannot_generate_odd_group():
    # over odd p a symmetric multiset of degree < 6 spans <= 2 directions
    for degree in (3, 4, 5):
        with pytest.raises(GenerationFailure):
            default_generators(3, 1, degree, require_generation=True)
        gens = default_generators(3, 1, degree, require_generation=False)
        assert gens.degree == degree
        assert bfs_closure_size(gens) < 27


@settings(max_examples=40, deadline=None)
@given(
    group=st.sampled_from([(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]),
    picks=st.lists(st.integers(min_value=0), min_size=1, max_size=3),
    with_default=st.booleans(),
)
def test_bfs_closure_size_matches_connected_components(group, picks, with_default):
    """The BFS over the neighbor lists counts the identity's component of
    the undirected Cayley graph, as `connected_components` labels it; one
    paired element generates a cyclic subgroup, so both outcomes occur."""
    p, m = group
    order = group_order(p, m)
    elements = []
    for pick in picks:
        g = element_from_index(p, m, pick % order)
        elements += [g] if g == g.inv() else [g, g.inv()]
    gens = GeneratorMultiset.from_elements(elements)
    if with_default:  # a generating multiset plus the drawn elements
        gens = GeneratorMultiset.from_elements(
            default_generators(p, m, 6, seed=0).elements + gens.elements
        )
    _, labels = connected_components(CayleyMultigraph(gens).sparse_adjacency(), directed=False)
    assert bfs_closure_size(gens) == np.count_nonzero(labels == labels[0])


def test_neighbor_matches_adjacency():
    gens = default_generators(2, 1, 4, seed=1)
    graph = CayleyMultigraph(gens)
    adj = graph.adjacency()
    assert (adj.sum(axis=1) == graph.degree).all()
    assert (adj == adj.T).all()
    for v in range(graph.num_vertices):
        row = np.zeros(graph.num_vertices, dtype=np.int64)
        for j in range(graph.degree):
            row[graph.neighbor(v, j)] += 1
        assert (row == adj[v]).all()


def test_neighbor_query_fast_at_huge_level():
    # group order 3^90; the query must stay polynomial in m
    gens = GeneratorMultiset.from_elements(
        [
            element_from_coords(3, 30, 1, 0, 0),
            element_from_coords(3, 30, 1, 0, 0).inv(),
            element_from_coords(3, 30, 0, 1, 0),
            element_from_coords(3, 30, 0, 1, 0).inv(),
        ]
    )
    graph = CayleyMultigraph(gens)
    v = group_order(3, 30) // 7
    t0 = time.perf_counter()
    w = graph.neighbor(v, 0)
    elapsed = time.perf_counter() - t0
    assert 0 <= w < group_order(3, 30)
    assert elapsed < 0.01
    # generator followed by its inverse returns to the start
    assert graph.neighbor(w, 1) == v


def test_huge_level_neighbor_pinned(capsys):
    argv = ["expander", "neighbor", "--p", "3", "--m", "30", "--degree", "6",
            "--vertex", "123456789", "--gen", "0"]
    assert main(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["neighbor"] == 31355454867693644576439662995


def test_graph_json_round_trip():
    gens = default_generators(3, 1, 6, seed=0)
    again = GeneratorMultiset.from_json(dumps(gens))
    assert again == gens


def cycle_adjacency(n):
    adj = np.zeros((n, n), dtype=np.int64)
    for v in range(n):
        adj[v, (v + 1) % n] += 1
        adj[v, (v - 1) % n] += 1
    return adj


def test_cycle_spectrum_matches_circulant_formula():
    # circulant eigenvalues are 2cos(2*pi*k/n); the signed second-largest is
    # k=1, while the two-sided maximum comes from k near n/2
    for n in (5, 8, 12):
        rep = spectral_from_adjacency(cycle_adjacency(n), 2)
        assert rep.signed_second_eigenvalue == pytest.approx(
            2 * np.cos(2 * np.pi / n), abs=1e-9
        )
    assert spectral_from_adjacency(cycle_adjacency(5), 2).second_eigenvalue == (
        pytest.approx(2 * np.cos(np.pi / 5), abs=1e-9)
    )
    # even cycles are bipartite: -2 is an eigenvalue
    assert spectral_from_adjacency(cycle_adjacency(8), 2).second_eigenvalue == (
        pytest.approx(2.0, abs=1e-9)
    )


def test_complete_graph_spectrum():
    n = 9
    adj = np.ones((n, n), dtype=np.int64) - np.eye(n, dtype=np.int64)
    rep = spectral_from_adjacency(adj, n - 1)
    assert rep.second_eigenvalue == pytest.approx(1.0, abs=1e-9)
    assert rep.signed_second_eigenvalue == pytest.approx(-1.0, abs=1e-9)


def test_ternary_level_one_spectrum_frozen():
    # abelian level-1 group: eigenvalues are character sums; max is 3 at degree 6
    gens = default_generators(3, 1, 6, seed=0)
    rep = spectral_expansion(CayleyMultigraph(gens))
    assert rep.method == "dense"
    assert rep.second_eigenvalue == pytest.approx(3.0, abs=1e-9)
    assert rep.ratio == pytest.approx(0.5, abs=1e-9)
    assert rep.is_ramanujan  # 3 <= 2*sqrt(5)
    assert rep.second_eigenvalue < rep.degree


def test_identity_augmentation_shifts_spectrum_by_one():
    gens = default_generators(3, 1, 6, seed=0)
    padded = GeneratorMultiset.from_elements(list(gens.elements) + [identity(3, 1)])
    a0 = CayleyMultigraph(gens).adjacency()
    a1 = CayleyMultigraph(padded).adjacency()
    e0 = np.sort(np.linalg.eigvalsh(a0.astype(float)))
    e1 = np.sort(np.linalg.eigvalsh(a1.astype(float)))
    assert np.allclose(e1, e0 + 1.0, atol=1e-9)


@pytest.mark.parametrize(
    "p, m, degree",
    [
        (3, 2, 6),  # generating: connected, Lanczos
        (3, 2, 5),  # not generating: 9 components
    ],
)
def test_lanczos_agrees_with_dense(p, m, degree):
    """The character blocks and Lanczos each against one eigensolve of the
    full adjacency matrix."""
    gens = default_generators(p, m, degree, seed=0, require_generation=degree == 6)
    graph = CayleyMultigraph(gens)
    dense = spectral_from_adjacency(graph.adjacency(), degree)
    blocks = spectral_expansion(graph)
    lanczos = spectral_expansion(graph, dense_budget=10)
    assert blocks.method == dense.method == "dense"
    assert lanczos.method == "lanczos"
    for rep in (blocks, lanczos):
        assert rep.second_eigenvalue == pytest.approx(dense.second_eigenvalue, abs=1e-9)
        assert rep.signed_second_eigenvalue == pytest.approx(
            dense.signed_second_eigenvalue, abs=1e-9
        )


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_coset_split_is_right_translation_by_the_central_subgroup(p, m):
    """g = t.n = n.t with t the representative and n in N = {I + p^m U}, and
    the array form is a bijection onto (representative, digits)."""
    r = p ** (m - 1)
    for idx in random.Random(f"{p}:{m}").sample(range(group_order(p, m)), 40):
        t, n = coset_split(p, m, idx)
        rep = element_from_coords(p, m, t % r, t // r % r, t // (r * r))
        central = element_from_coords(p, m, r * (n % p), r * (n // p % p), r * (n // (p * p)))
        assert rep * central == element_from_index(p, m, idx) == central * rep
        a, b, c, d = central.matrix
        assert all(x % p**m == 0 for x in (a - 1, b, c, d - 1))  # central is in N
    reps, digits = coset_split(p, m, np.arange(group_order(p, m)))
    assert len(set(zip(reps.tolist(), digits.tolist()))) == group_order(p, m)
    assert reps.max() == r**3 - 1 and digits.max() == p**3 - 1


def _blocks_match_dense(graph):
    """The blocks are Hermitian and their sorted eigenvalues are those of
    the full adjacency matrix; returns the blocks."""
    blocks = _character_blocks(graph)
    assert np.abs(blocks - blocks.conj().transpose(0, 2, 1)).max() <= 1e-12
    got = np.sort(np.linalg.eigvalsh(blocks).ravel())
    want = np.linalg.eigvalsh(graph.adjacency())
    assert np.abs(got - want).max() <= 1e-9
    return blocks


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (2, 4), (3, 2)])
@pytest.mark.parametrize("degree", [5, 6, 7])
def test_character_blocks_match_dense_spectrum(p, m, degree):
    """The blocks are Hermitian, their sizes sum to |G|, and their sorted
    eigenvalues are those of the full adjacency matrix."""
    graph = CayleyMultigraph(default_generators(p, m, degree, seed=0, require_generation=False))
    size = p ** (3 * (m - 1))
    assert _blocks_match_dense(graph).shape == (p**3, size, size)
    assert p**3 * size == graph.num_vertices


_INVOLUTIONS_P2 = [(2, 0, 0), (0, 2, 0), (0, 0, 2), (2, 2, 2), (1, 2, 0)]


@settings(max_examples=40, deadline=None)
@given(data=st.data(), p=st.sampled_from([2, 3]))
def test_character_blocks_match_dense_on_random_multisets(data, p):
    """Random symmetric multisets at m = 2: generator/inverse pairs,
    involutions (at p = 2, N and other elements of order 2) taken once, and
    identity padding."""
    q = p * p
    coords = st.tuples(*[st.integers(0, q - 1)] * 3)
    if p == 2:
        coords = st.one_of(st.sampled_from(_INVOLUTIONS_P2), coords)
    elements = []
    for c in data.draw(st.lists(coords, min_size=1, max_size=4)):
        g = element_from_coords(p, 2, *c)
        elements += [g] if g.inv() == g else [g, g.inv()]
    elements += [identity(p, 2)] * data.draw(st.integers(0, 2))
    graph = CayleyMultigraph(GeneratorMultiset.from_elements(elements))
    _blocks_match_dense(graph)
    rep, ref = spectral_expansion(graph), spectral_from_adjacency(graph.adjacency())
    assert rep.second_eigenvalue == pytest.approx(ref.second_eigenvalue, abs=1e-9)
    assert rep.signed_second_eigenvalue == pytest.approx(ref.signed_second_eigenvalue, abs=1e-9)


@pytest.mark.parametrize("p, m", [(2, 2), (2, 3), (3, 2)])
def test_trivial_character_block_is_the_level_below(p, m):
    gens = default_generators(p, m, 6, seed=0, require_generation=False)
    below = GeneratorMultiset.from_elements(
        [element_from_coords(p, m - 1, *g.coords) for g in gens.elements]
    )
    block = _character_blocks(CayleyMultigraph(gens))[0]
    assert np.array_equal(block, CayleyMultigraph(below).adjacency())


@pytest.mark.parametrize(
    "p, degree, require_generation",
    [(3, 5, False), (3, 6, True), (3, 7, True), (2, 5, False), (5, 6, True)],
)
def test_level1_scores_keep_the_full_adjacency_bits(monkeypatch, p, degree, require_generation):
    """default_generators ranks float scores, so at level 1 every report it
    scores must equal the one-matrix eigensolve field for field."""
    seen = []
    real = expander.spectral_expansion

    def recording(graph, *args, **kwargs):
        seen.append((graph, real(graph, *args, **kwargs)))
        return seen[-1][1]

    monkeypatch.setattr(expander, "spectral_expansion", recording)
    for seed in (0, stage_seed(7, "expander")):
        for m in (1, 2):
            default_generators(p, m, degree, seed=seed, require_generation=require_generation)
    assert seen
    for graph, rep in seen:
        assert graph.m == 1
        assert rep == spectral_from_adjacency(graph.adjacency())


def test_level2_spectrum_takes_under_10ms():
    graph = CayleyMultigraph(default_generators(3, 2, 5, seed=0, require_generation=False))
    spectral_expansion(graph)
    times = []
    for _ in range(20):
        t0 = time.perf_counter()
        spectral_expansion(graph)
        times.append(time.perf_counter() - t0)
    assert np.median(times) <= 0.010


def test_level3_expander_stage_runs_lanczos(tmp_path):
    """Group (3,3), 19,683 vertices, above the dense budget: the delta-5
    multiset does not generate, so lambda_2 is the degree exactly."""
    config = RunConfig.from_mapping({
        "field_p": 2, "group": {"p": 3, "m": 3}, "delta": 5, "k_a": 2, "k_b": 3,
        "rho_target": "1/8", "seed": 7, "stages": ["expander"],
    })
    run_pipeline(config, out_dir=tmp_path)
    spectrum = json.loads((tmp_path / "spectrum.json").read_text())
    assert spectrum["num_vertices"] == 19683
    assert spectrum["method"] == "lanczos"
    assert spectrum["second_eigenvalue"] == spectrum["signed_second_eigenvalue"] == 5.0


def test_level3_generating_spectrum_pinned():
    """Degree 6 generates the level-3 group: connected, so 0 < ratio < 1;
    pinned to the measured Lanczos value."""
    rep = spectral_expansion(CayleyMultigraph(default_generators(3, 3, 6, seed=0)))
    assert rep.method == "lanczos"
    assert 0 < rep.ratio < 1
    assert rep.second_eigenvalue == pytest.approx(4.792834875553, abs=1e-9)


def test_lanczos_no_convergence_exits_3(monkeypatch, capsys):
    def stalled(*args, **kwargs):
        raise ArpackNoConvergence("ARPACK error -1: No convergence", np.empty(0), None)

    # spectral_expansion imports eigsh on its Lanczos branch, at call time
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", stalled)
    assert main(["expander", "spectrum", "--p", "3", "--m", "3", "--degree", "6"]) == 3
    assert "ConvergenceFailure" in capsys.readouterr().err


@pytest.mark.parametrize("m", [13, 30])
def test_level30_expander_stage_exits_3(tmp_path, capsys, m):
    """Groups (3,13) and (3,30), above the dense budget: the closure search
    behind the spectrum needs the whole-group decode, whose 8-byte index
    array alone passes the address space (3^39 indices fit int64 but not
    in bytes; 3^90 pass int64), so the run stops with BudgetExceeded and
    exit 3 before allocating, not with a traceback."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "field_p": 2, "group": {"p": 3, "m": m}, "delta": 5, "k_a": 2, "k_b": 3,
        "rho_target": "1/8", "seed": 7, "stages": ["expander"],
    }))
    argv = ["pipeline", "run", "--config", str(config), "--out", str(tmp_path / "out")]
    assert main(argv) == 3
    assert "BudgetExceeded" in capsys.readouterr().err


def test_irregular_graph_rejected():
    adj = np.zeros((3, 3), dtype=np.int64)
    adj[0, 1] = adj[1, 0] = 1
    with pytest.raises(DomainError):
        spectral_from_adjacency(adj)
