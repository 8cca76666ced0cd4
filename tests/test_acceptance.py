"""Release acceptance suite: one test per headline guarantee.

Each test is self-contained up to the shared build-grid fixture and pins
its tolerance explicitly.  Oracles are recomputed in this file (full
enumeration, direct linear algebra over the prime field, hash
comparison) rather than trusting the library's own summaries.
"""

import hashlib
import math
import random
import time
from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest

from ptanner import nlts
from ptanner.csp import (
    LinConstraint,
    LinInstance,
    TannerConstraintStream,
    emit_lin_instance,
    certify_unsat,
    max_sat,
    reduce_to_3xor,
    sos_level_bound,
)
from ptanner.errors import BudgetExceeded
from ptanner.expander import (
    CayleyMultigraph,
    GeneratorMultiset,
    bfs_closure_size,
    default_generators,
    element_from_coords,
    element_from_index,
    group_order,
    identity,
    spectral_expansion,
    spectral_from_adjacency,
)
from ptanner.gf import LinearCode, iter_vectors, min_distance, rank
from ptanner.inner import (
    product_expansion_exact,
    property_star_check,
    q_entropy,
    q_entropy_inv,
    search_inner_pair,
)
from ptanner.nlts import (
    build_clusters,
    build_code_hamiltonian,
    enumerate_syndrome_set,
    logical_pair,
    measure_spread,
    pack_bits,
    sector_eigenvalue,
    sector_state,
    uncertainty_check,
    verify_cluster_lemma,
)
from ptanner.pipeline import RunConfig, run_pipeline
from ptanner.tanner import (
    SquareCayleyComplex,
    build_code,
    check_counting_bound,
    code_dimension,
    verify_planted,
)

from small_codes import shor_code, steane_code

GROUP_FOR_FIELD = {2: 3, 3: 2}
INNER_DIMS = {3: (1, 2), 4: (2, 2), 5: (2, 3)}


@pytest.fixture(scope="module")
def grid_builds():
    """One searched-and-built code per (field, degree) grid point."""
    builds = {}
    for field_p in (2, 3):
        for delta in (3, 4, 5):
            k_a, k_b = INNER_DIMS[delta]
            pair = search_inner_pair(
                field_p, delta, k_a, k_b, rho_target="1/8",
                seed=5, exact_budget=2**12, falsify_trials=200,
            )
            gens = default_generators(
                GROUP_FOR_FIELD[field_p], 1, delta, require_generation=False
            )
            cxp = SquareCayleyComplex(gens, gens, "paired")
            builds[(field_p, delta)] = (gens, cxp, pair, build_code(cxp, pair))
    return builds


def dense_state(amplitudes: dict, n: int) -> np.ndarray:
    vec = np.zeros(1 << n, dtype=complex)
    for word, amp in amplitudes.items():
        vec[word] = amp
    return vec


# -----------------------------------------------------------------------
# 1. CSS validity across the build grid


def test_criterion_01_css_validity_across_grid(grid_builds):
    deadline = time.monotonic() + 120
    for (field_p, delta), (_, _, _, code) in grid_builds.items():
        hx, hz = code.h_x.toarray(), code.h_z.toarray()
        assert not ((hx @ hz.T) % field_p).any(), (field_p, delta)
        weights = [
            int(w)
            for mat in (hx, hz)
            for axis in (0, 1)
            for w in np.count_nonzero(mat, axis=axis)
        ]
        assert max(weights) <= delta**2, (field_p, delta)
    assert time.monotonic() < deadline


# -----------------------------------------------------------------------
# 2. Planting whenever the block length is coprime to the field


def test_criterion_02_planting_flags_and_rate_half_consequence(grid_builds):
    deadline = time.monotonic() + 300
    coprime_seen = 0
    for (field_p, delta), (_, _, _, code) in grid_builds.items():
        if math.gcd(code.n, field_p) != 1:
            continue
        coprime_seen += 1
        report = verify_planted(code)
        assert report.ones_in_ker_x, (field_p, delta)
        assert report.ones_in_ker_z, (field_p, delta)
        assert report.ones_outside_x_rowspace, (field_p, delta)
        assert report.ones_outside_z_rowspace, (field_p, delta)
        hx, hz = code.h_x.toarray(), code.h_z.toarray()
        assert not (hx.sum(axis=1) % field_p).any()
        assert not (hz.sum(axis=1) % field_p).any()
        assert code.n % field_p != 0
    assert coprime_seen == 4
    # rate-1/2 inner pair: the counting bound degenerates to 0, yet the
    # planted word still forces at least one logical qubit
    _, _, pair, code = grid_builds[(3, 4)]
    assert pair.code_a.dim * 2 == pair.code_b.dim * 2 == 4
    assert check_counting_bound(code) == 0
    assert code_dimension(code) >= 1
    assert time.monotonic() < deadline


# -----------------------------------------------------------------------
# 3. Index/coordinate bijection, closure, fast neighbor queries


def test_criterion_03_group_index_bijection_and_fast_neighbors():
    deadline = time.monotonic() + 60
    for m in (1, 2):
        order = group_order(3, m)
        assert order == 3 ** (3 * m)
        q = 3**m
        for idx in range(order):
            g = element_from_index(3, m, idx)
            assert g.index == idx
            a, b, c = g.coords
            assert element_from_coords(3, m, a, b, c).index == idx
            assert 0 <= a < q and 0 <= b < q and 0 <= c < q
        gens = default_generators(3, m, 6)
        assert bfs_closure_size(gens) == order
    # strong explicitness: single neighbor lookups in a group of order 3^90
    gens30 = default_generators(3, 30, 6)
    graph = CayleyMultigraph(gens30)
    rnd = random.Random(9)
    graph.neighbor(0, 0)  # warm caches
    times = []
    for _ in range(50):
        v = rnd.randrange(3**90)
        j = rnd.randrange(6)
        t0 = time.perf_counter()
        nb = graph.neighbor(v, j)
        times.append(time.perf_counter() - t0)
        assert nb == (gens30.elements[j] * element_from_index(3, 30, v)).index
    times.sort()
    assert times[len(times) // 2] < 10e-3
    assert time.monotonic() < deadline


# -----------------------------------------------------------------------
# 4. Spectral sanity: cycles, the 27-vertex graph, identity augmentation


def test_criterion_04_spectral_sanity():
    for n in (8, 13):
        adj = np.roll(np.eye(n, dtype=np.int64), 1, axis=1)
        adj = adj + adj.T
        report = spectral_from_adjacency(adj, degree=2)
        assert abs(report.signed_second_eigenvalue - 2 * math.cos(2 * math.pi / n)) <= 1e-9
    gens = default_generators(3, 1, 6)
    graph = CayleyMultigraph(gens)
    lam = spectral_expansion(graph).second_eigenvalue
    assert lam < 6
    augmented = GeneratorMultiset.from_elements(
        list(gens.elements) + [identity(3, 1)]
    )
    eigs6 = np.sort(np.linalg.eigvalsh(graph.adjacency().astype(float)))
    eigs7 = np.sort(
        np.linalg.eigvalsh(CayleyMultigraph(augmented).adjacency().astype(float))
    )
    assert np.max(np.abs((eigs6 + 1.0) - eigs7)) <= 1e-9


# -----------------------------------------------------------------------
# 5. Product expansion: exact checker == full-enumeration oracle


def _subspaces_gf2(n: int, k: int) -> list[np.ndarray]:
    """Every k-dim subspace of F_2^n exactly once (canonical RREF bases)."""
    out = []
    for pivots in combinations(range(n), k):
        free = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j > pivots[i] and j not in pivots
        ]
        for values in product((0, 1), repeat=len(free)):
            mat = np.zeros((k, n), dtype=np.int64)
            for i, c in enumerate(pivots):
                mat[i, c] = 1
            for (i, j), v in zip(free, values):
                mat[i, j] = v
            out.append(mat)
    return out


def _structured_space(basis: np.ndarray, n: int, role: str):
    """All matrices whose every column (row) lies in span(basis), packed.

    Returns (packed ints, structural weights): weight = nonzero columns
    for role 'col', nonzero rows for role 'row'.
    """
    k = len(basis)
    words = (
        np.array(list(product(range(2), repeat=k)), dtype=np.int64) @ basis % 2
        if k
        else np.zeros((1, n), dtype=np.int64)
    )
    choice = np.array(list(product(range(len(words)), repeat=n)), dtype=np.int64)
    mats = words[choice]  # (N, n, n): slot axis 1 picks a codeword
    if role == "col":
        mats = mats.transpose(0, 2, 1)
        struct_w = (mats != 0).any(axis=1).sum(axis=1)
    else:
        struct_w = (mats != 0).any(axis=2).sum(axis=1)
    shifts = np.arange(n * n - 1, -1, -1, dtype=np.int64)
    packed = (mats.reshape(len(mats), -1) << shifts).sum(axis=1)
    return packed, struct_w.astype(np.int64)


def _oracle_rho(col_space, row_space, n: int) -> Fraction:
    """Minimum |x| / (n * D(x)) by enumerating every decomposition."""
    cp, cw = col_space
    rp, rw = row_space
    xs = (cp[:, None] ^ rp[None, :]).reshape(-1)
    costs = (cw[:, None] + rw[None, :]).reshape(-1)
    combined = np.sort((xs << 6) | costs)
    first = np.ones(len(combined), dtype=bool)
    first[1:] = (combined[1:] >> 6) != (combined[:-1] >> 6)
    ux = combined[first] >> 6
    uc = combined[first] & 63
    keep = ux != 0
    ux, uc = ux[keep], uc[keep]
    weights = np.bitwise_count(ux.astype(np.uint64)).astype(np.int64)
    i = int(np.argmin(weights / (n * uc)))
    return Fraction(int(weights[i]), n * int(uc[i]))


def test_criterion_05_product_expansion_oracle_equivalence():
    deadline = time.monotonic() + 600
    col_cache: dict = {}
    row_cache: dict = {}

    def spaces(n, mats):
        keyed = []
        for s, mat in enumerate(mats):
            key = (n, mat.tobytes())
            if key not in col_cache:
                col_cache[key] = _structured_space(mat, n, "col")
                row_cache[key] = _structured_space(mat, n, "row")
            keyed.append((key, mat))
        return keyed

    pairs_checked = 0
    for n in (2, 3, 4):
        mats = [m for k in (1, 2) if k <= n for m in _subspaces_gf2(n, k)]
        keyed = spaces(n, mats)
        for key1, b1 in keyed:
            code1 = LinearCode(2, n, b1)
            d1 = min_distance(code1)
            for key2, b2 in keyed:
                report = product_expansion_exact(code1, LinearCode(2, n, b2))
                rho = _oracle_rho(col_cache[key1], row_cache[key2], n)
                assert report.rho == rho, (n, b1, b2)
                pairs_checked += 1
                # distance consequence of expansion
                assert report.rho * n <= min(d1, min_distance(LinearCode(2, n, b2)))
                # one-step subcode degradation bound
                if len(b1) == 2:
                    floor = report.rho**2 / 2
                    span = [b1[0], b1[1], (b1[0] + b1[1]) % 2]
                    for w in span:
                        sub_key = (n, w.reshape(1, -1).tobytes())
                        if sub_key not in col_cache:
                            col_cache[sub_key] = _structured_space(
                                w.reshape(1, -1), n, "col"
                            )
                        sub_rho = _oracle_rho(col_cache[sub_key], row_cache[key2], n)
                        assert sub_rho >= floor, (n, b1, w, b2)
    assert pairs_checked == 16 + 14**2 + 50**2
    assert time.monotonic() < deadline


# -----------------------------------------------------------------------
# 6. Cluster machinery, exhaustively on the 7-qubit toy code


def test_criterion_06_steane_cluster_machinery():
    code = steane_code()
    for basis in ("Z", "X"):
        sset = enumerate_syndrome_set(code, basis, 1.0 / 3.0)
        partition = build_clusters(sset, c1=0.1)
        report = verify_cluster_lemma(partition, c2=1.0 / 7.0)
        assert report.partition_ok, basis
        assert report.distance_ok, basis
        assert report.translate_ok, basis
        assert report.decoder_ok, basis
        assert report.all_ok
        assert report.min_intercluster_distance >= (1.0 / 7.0) * code.n


# -----------------------------------------------------------------------
# 7. Hamiltonian sector law and ground-space dimension


def test_criterion_07_hamiltonian_sector_law():
    rng = np.random.default_rng(1234)
    for code in (steane_code(), shor_code()):
        n = code.n
        hx, hz = code.h_x.toarray(), code.h_z.toarray()
        m_x, m_z = hx.shape[0], hz.shape[0]
        shifts = np.arange(n - 1, -1, -1)
        words = [0, (1 << n) - 1] + [int(w) for w in rng.integers(0, 1 << n, 200)]
        for e_x in words[:30]:
            for e_z in words[:30]:
                bits_x = (e_x >> shifts) & 1
                bits_z = (e_z >> shifts) & 1
                wx = int(np.count_nonzero((hx @ bits_x) % 2))
                wz = int(np.count_nonzero((hz @ bits_z) % 2))
                expected = Fraction(wx, 2 * m_x) + Fraction(wz, 2 * m_z)
                got = sector_eigenvalue(code, e_x, e_z)
                assert isinstance(got, Fraction)
                assert got == expected
        eigenvalues = build_code_hamiltonian(code).eigenvalues()
        assert eigenvalues.min() >= -1e-9
        null_dim = int((np.abs(eigenvalues) < 1e-9).sum())
        assert null_dim == 2  # 2^k with one logical qubit


# -----------------------------------------------------------------------
# 8. Uncertainty bound and low-energy spread dichotomy


def _spread_worst_case(code, e_x_words, e_z_words, trials=200):
    part_x = build_clusters(enumerate_syndrome_set(code, "X", 1.0 / 3.0), c1=0.1)
    part_z = build_clusters(enumerate_syndrome_set(code, "Z", 1.0 / 3.0), c1=0.1)
    logicals = logical_pair(code)
    z_shift = pack_bits(logicals[1])
    basis = np.array(
        [
            dense_state(sector_state(code, e_x, e_z, logical), code.n)
            for e_x in e_x_words
            for e_z in e_z_words
            for logical in (0, z_shift)
        ]
    )
    rng = np.random.default_rng(4242)
    worst = 1.0
    for _ in range(trials):
        coeffs = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        rx, rz = measure_spread(coeffs @ basis, code, part_x, part_z, logicals)
        worst = min(worst, max(rx.min_mass, rz.min_mass))
    return worst


def test_criterion_08_uncertainty_and_spread_dichotomy():
    bound = 0.5 + 0.5 / math.sqrt(2)
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    a0, b0 = np.kron(x, np.eye(2)), np.kron(z, np.eye(2))
    rng = np.random.default_rng(99)
    for trial in range(10_000):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        q, _ = np.linalg.qr(g)
        a = q @ a0 @ q.conj().T
        b = q @ b0 @ q.conj().T
        a = (a + a.conj().T) / 2
        b = (b + b.conj().T) / 2
        if trial % 2:
            v = rng.normal(size=4) + 1j * rng.normal(size=4)
            v /= np.linalg.norm(v)
            rho = np.outer(v, v.conj())
        else:
            w = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = w @ w.conj().T
            rho /= np.trace(rho).real
        value = min(abs(np.trace(a @ rho).real), abs(np.trace(b @ rho).real))
        assert value <= bound + 1e-9
        assert uncertainty_check(a, b, rho, tol=1e-9)

    mu_prime = 0.25 - 0.25 / math.sqrt(2)
    steane = steane_code()
    low = [0, 1 << 6, 1 << 5, 1 << 3]
    assert _spread_worst_case(steane, low, low) >= mu_prime - 1e-9
    shor = shor_code()
    x_readout = pack_bits(logical_pair(shor)[0])
    assert (
        _spread_worst_case(shor, [0, x_readout], [0, 1 << 8, 1 << 4, 1 << 0])
        >= mu_prime - 1e-9
    )


# -----------------------------------------------------------------------
# 9. CSP emission: certified inconsistent, local, strongly explicit


def test_criterion_09_csp_emission_and_explicit_accessor(grid_builds):
    _, cxp, pair, code = grid_builds[(2, 5)]
    assert code.n == 675
    beta = np.ones(code.n, dtype=np.int64)
    instance = emit_lin_instance(code, beta)
    report = certify_unsat(instance)
    assert not report.consistent
    # independent rank test: appending the rhs must raise the rank
    a = instance.coefficient_matrix()
    b = instance.rhs_vector()
    assert rank(np.hstack([a, b[:, None]]), 2) == rank(a, 2) + 1
    # arity never exceeds the code locality (empty constraints are legal:
    # a qubit touched by no Z-check emits 0 = beta_j)
    assert all(len(c.vars) <= code.locality for c in instance.constraints)

    stream = TannerConstraintStream(cxp, pair, beta)
    stream.constraint(0)  # warm caches
    rng = np.random.default_rng(0)
    times = []
    for f in rng.integers(0, stream.num_constraints, size=300):
        t0 = time.perf_counter()
        con = stream.constraint(int(f))
        times.append(time.perf_counter() - t0)
        assert con == instance.constraints[int(f)]
    times.sort()
    assert times[len(times) // 2] < 100e-6

    for c1, c2, m, ell in ((0.01, 0.1, 10**4, 25), (1.0, 1.0, 4, 1), (0.3, 0.2, 675, 6)):
        assert sos_level_bound(c1, c2, m, ell) == c1 * c2 * m / (4 * ell)


# -----------------------------------------------------------------------
# 10. Reduction to arity 3 preserves perfect satisfiability


def _perfectly_satisfiable(num_vars: int, constraints) -> bool:
    bits = (np.arange(1 << num_vars)[:, None] >> np.arange(num_vars - 1, -1, -1)) & 1
    hits = np.zeros(1 << num_vars, dtype=np.int64)
    for vars_, _, rhs in constraints:
        if vars_:
            lhs = bits[:, list(vars_)].sum(axis=1) % 2
        else:
            lhs = np.zeros(1 << num_vars, dtype=np.int64)
        hits += lhs == (rhs % 2)
    return bool((hits == len(constraints)).any())


def test_criterion_10_three_xor_reduction_corpus():
    deadline = time.monotonic() + 120
    rng = np.random.default_rng(31415)
    checked = 0
    while checked < 30:
        m = int(rng.integers(1, 7))
        constraints = []
        dummies = 0
        for _ in range(int(rng.integers(1, 6))):
            w = int(rng.integers(0, m + 1))
            vs = tuple(sorted(rng.choice(m, size=w, replace=False).tolist()))
            constraints.append(LinConstraint(vs, (1,) * w, int(rng.integers(0, 2))))
            dummies += max(0, w - 2)
        if m + dummies > 16:
            continue
        checked += 1
        doc = {"p": 2, "m": m, "arity_bound": max(m, 1),
               "constraints": [c._asdict() for c in constraints]}
        instance = LinInstance.from_doc(doc)
        xor = reduce_to_3xor(instance)
        assert all(len(cl.vars) <= 3 for cl in xor.clauses)
        reduced = [(cl.vars, (1,) * len(cl.vars), cl.parity) for cl in xor.clauses]
        original = [(c.vars, c.coeffs, c.rhs) for c in constraints]
        assert _perfectly_satisfiable(m, original) == _perfectly_satisfiable(
            xor.num_vars, reduced
        )
    assert time.monotonic() < deadline


# -----------------------------------------------------------------------
# 11. Entropy inverse round trip


def test_criterion_11_entropy_round_trip():
    for q in (2, 3):
        for y in np.linspace(0.0, 1.0, 100):
            assert abs(q_entropy(q_entropy_inv(float(y), q), q) - y) <= 1e-12


# -----------------------------------------------------------------------
# 12. Full-pipeline determinism


def test_criterion_12_pipeline_determinism(tmp_path):
    doc = {
        "field_p": 2,
        "group": {"p": 3, "m": 1},
        "delta": 5,
        "k_a": 2,
        "k_b": 3,
        "rho_target": "1/8",
        "seed": 7,
    }
    config = RunConfig.from_mapping(doc)
    digests = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        run_pipeline(config, out_dir=out)
        digests.append(
            {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
            }
        )
    assert digests[0] == digests[1]
    assert len(digests[0]) >= 10  # every stage persisted something


# -----------------------------------------------------------------------
# 13. Every budget refusal names the argument, key or constant that lifts it


def _assignments_over_budget(_):
    inst = LinInstance.from_dense(2, np.eye(4, dtype=int), np.zeros(4, dtype=int))
    max_sat(inst, mode="exact", budget=15)


def _tensor_pair_over_budget(_):
    rep3 = LinearCode(2, 3, [[1, 1, 1]])
    product_expansion_exact(rep3, rep3, budget=0)


def _sparse_subspaces_over_budget(_):
    zero = LinearCode(2, 4, np.zeros((0, 4), dtype=np.int64))  # every 4-bit word is sparse
    property_star_check(zero, alpha=1.0, budget=16)


def _syndrome_set_over_cap(_):
    enumerate_syndrome_set(steane_code(), "X", 0.0, cap=127)


def _clusters_over_cap(monkeypatch):
    sset = enumerate_syndrome_set(steane_code(), "Z", 0.0)
    monkeypatch.setattr(nlts, "ENUMERATION_CAP", 1)
    build_clusters(sset, 1.0)


@pytest.mark.parametrize(
    "refused, knob",
    [
        (_assignments_over_budget, r"`budget` \(csp maxsat --budget\)"),
        (lambda _: next(iter_vectors(2, 10, budget=1023)), r"gf\.DEFAULT_ENUMERATION_BUDGET"),
        (_tensor_pair_over_budget, r"budgets\.exact_certify"),
        (_sparse_subspaces_over_budget, r"`budget`"),
        (_syndrome_set_over_cap, r"`cap` \(nlts\.ENUMERATION_CAP\)"),
        (_clusters_over_cap, r"nlts\.ENUMERATION_CAP"),
        (lambda _: build_code_hamiltonian(steane_code(), qubit_cap=6),
         r"nlts\.HAMILTONIAN_QUBIT_CAP"),
        (lambda _: code_dimension(steane_code(), budget=0), r"tanner\.DEFAULT_RANK_BUDGET"),
    ],
    ids=["max_sat", "iter_vectors", "exact_certify", "property_star", "syndrome_set",
         "clusters", "hamiltonian", "code_dimension"],
)
def test_criterion_13_budget_refusals_name_their_knob(monkeypatch, refused, knob):
    with pytest.raises(BudgetExceeded, match=knob + r"\W* lifts it$"):
        refused(monkeypatch)
