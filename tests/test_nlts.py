"""Tests for the low-energy structure lab.

Oracles here recompute everything from first principles: syndrome sets by
per-vector matrix products, cluster partitions by explicit coset grouping,
Hamiltonian spectra by dense eigendecomposition against the exact rational
sector law, and measurement masses by hand-built states with known
statistics.
"""

import hashlib
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from ptanner.cli import main
from ptanner.errors import (
    BudgetExceeded,
    DomainError,
    PreconditionViolated,
    StateDimensionMismatch,
    UnsupportedField,
)
from ptanner.gf import FMatrix, LinearCode, kernel_basis, rank, row_reduce
from ptanner.jsonio import dumps
from ptanner.nlts import (
    SPREAD_MASS_RELAXED,
    SPREAD_MASS_STRICT,
    UNCERTAINTY_BOUND,
    build_clusters,
    build_code_hamiltonian,
    clustering_from_ssexp,
    depth_lower_bound,
    enumerate_syndrome_set,
    epsilon_threshold,
    logical_pair,
    measure_spread,
    pack_bits,
    sector_eigenvalue,
    sector_state,
    uncertainty_check,
    unpack_bits,
    verify_cluster_lemma,
)
from ptanner.nlts import (
    _classes,
    _Classes,
    _moved_clusters,
    _quotient_nearest,
    _walsh_at,
    _walsh_plan,
)
from ptanner.tanner import CssCode, estimate_ssexp

from small_codes import apply_hamiltonian_exact, shor_code, steane_code

# ---------------------------------------------------------------- helpers


def span_words(matrix: FMatrix) -> set[int]:
    """All packed words in the rowspace."""
    words = {0}
    for row in matrix.toarray():
        g = pack_bits(row)
        words |= {w ^ g for w in words}
    return words


def kernel_words_oracle(matrix: FMatrix, n: int) -> set[int]:
    rows = matrix.toarray()
    out = set()
    for y in range(1 << n):
        bits = unpack_bits(y, n)
        if rows.size == 0 or not ((rows @ bits) % 2).any():
            out.add(y)
    return out


def coset_weight_oracle(v: int, stab: set[int]) -> int:
    return min((v ^ s).bit_count() for s in stab)


def cluster_of(part) -> dict[int, int]:
    """Each member's cluster label."""
    return dict(zip(part.members.tolist(), part.labels.tolist()))


def decode_each(part) -> list[int]:
    """Each member plus the representative of its syndrome, one at a time."""
    pairs = zip(part.members.tolist(), part.syndromes.tolist())
    return [y ^ part.representatives[s] for y, s in pairs]


def dense_state(state: dict[int, int], n: int) -> np.ndarray:
    vec = np.zeros(1 << n, dtype=complex)
    for w, amp in state.items():
        vec[w] = amp
    return vec


@pytest.fixture(scope="module")
def steane():
    return steane_code()


@pytest.fixture(scope="module")
def shor():
    return shor_code()


# ---------------------------------------------------------- bit packing


def test_pack_unpack_roundtrip_and_lex_order():
    assert pack_bits([1, 0, 0]) == 4
    assert list(unpack_bits(4, 3)) == [1, 0, 0]
    rng = np.random.default_rng(5)
    vecs = [rng.integers(0, 2, size=9) for _ in range(40)]
    packed = [pack_bits(v) for v in vecs]
    for v, x in zip(vecs, packed):
        assert list(unpack_bits(x, 9)) == list(v)
    lex = sorted(range(40), key=lambda i: tuple(vecs[i]))
    by_int = sorted(range(40), key=lambda i: packed[i])
    assert lex == by_int


# -------------------------------------------------------- syndrome sets


def test_syndrome_set_full_cube(steane):
    sset = enumerate_syndrome_set(steane, "Z", 1.0)
    assert len(sset.members) == 128
    assert sset.members.tolist() == list(range(128))


def test_syndrome_set_zero_epsilon_is_kernel(steane):
    sset = enumerate_syndrome_set(steane, "Z", 0.0)
    assert set(sset.members) == kernel_words_oracle(steane.h_z, 7)
    assert len(sset.members) == 16
    assert (sset.syndromes == 0).all()


def test_syndrome_set_oracle_recompute(steane):
    sset = enumerate_syndrome_set(steane, "Z", 1.0 / 3.0)
    rows = steane.h_z.toarray()
    expected = set()
    for y in range(128):
        syn = (rows @ unpack_bits(y, 7)) % 2
        if syn.sum() <= 1:
            expected.add(y)
    assert set(sset.members) == expected
    assert len(sset.members) == 64
    # stored syndromes match recomputation, packed big-endian
    for y, s in zip(sset.members.tolist(), sset.syndromes.tolist()):
        syn = (rows @ unpack_bits(y, 7)) % 2
        assert s == pack_bits(syn)


def test_syndrome_set_normalizes_by_own_basis(shor):
    # m_x = 2 and m_z = 6 differ, so the X set at eps = 1/2 pins down
    # which check count the threshold uses
    sset = enumerate_syndrome_set(shor, "X", 0.5)
    rows = shor.h_x.toarray()
    expected = {y for y in range(512) if ((rows @ unpack_bits(y, 9)) % 2).sum() <= 1}
    assert set(sset.members) == expected
    assert len(sset.members) == 384


def test_syndrome_set_errors(steane):
    with pytest.raises(DomainError):
        enumerate_syndrome_set(steane, "Y", 0.5)
    with pytest.raises(DomainError):
        enumerate_syndrome_set(steane, "Z", -0.1)
    with pytest.raises(BudgetExceeded):
        enumerate_syndrome_set(steane, "Z", 0.5, cap=64)
    ternary = CssCode(p=3, n=2, h_x=FMatrix.zeros(3, 0, 2), h_z=FMatrix.zeros(3, 0, 2))
    with pytest.raises(UnsupportedField):
        enumerate_syndrome_set(ternary, "Z", 0.5)


def test_nan_constants_are_refused(steane):
    # NaN passes both `epsilon < 0` and `c1 <= 0`; each constant is refused
    with pytest.raises(DomainError, match="epsilon"):
        enumerate_syndrome_set(steane, "Z", math.nan)
    sset = enumerate_syndrome_set(steane, "Z", 1.0 / 3.0)
    with pytest.raises(DomainError, match="c1"):
        build_clusters(sset, math.nan)
    with pytest.raises(DomainError, match="c2"):
        verify_cluster_lemma(build_clusters(sset, 0.1), math.nan)


def test_clusters_refuse_noncommuting_checks():
    # the coset-class reduction needs the member set closed under S
    code = CssCode(p=2, n=2, h_x=FMatrix.from_dense(2, [[1, 0]]),
                   h_z=FMatrix.from_dense(2, [[1, 1]]))
    sset = enumerate_syndrome_set(code, "Z", 0.5)
    with pytest.raises(DomainError, match="do not commute"):
        build_clusters(sset, 0.1)


def test_syndrome_set_json_smoke(steane):
    sset = enumerate_syndrome_set(steane, "Z", 0.0)
    data = json.loads(dumps(sset))
    assert data["basis"] == "Z"
    assert data["size"] == 16


# ------------------------------------------------------------- clusters


def expected_coset_fragments(sset, stab_words):
    """Oracle partition: group members by stabilizer coset."""
    groups = {}
    for y in sset.members.tolist():
        key = min(y ^ s for s in stab_words)
        groups.setdefault(key, []).append(y)
    return sorted((sorted(v) for v in groups.values()), key=lambda c: c[0])


def test_clusters_match_coset_oracle_below_unit_threshold(steane):
    # threshold 2*c1*eps*n = 7/15 < 1, so the relation is exactly
    # "same stabilizer coset"
    sset = enumerate_syndrome_set(steane, "Z", 1.0 / 3.0)
    part = build_clusters(sset, c1=0.1)
    stab = span_words(steane.h_x)
    assert part.clusters == expected_coset_fragments(sset, stab)
    assert len(part.clusters) == 8
    assert all(len(cl) == 8 for cl in part.clusters)


def test_partitions_compare_on_their_clusters_not_their_caches(steane):
    """Two builds of the Steane Z partition compare equal, though each
    holds its own caches; changing one cluster makes them unequal."""
    sset = enumerate_syndrome_set(steane, "Z", 1.0 / 3.0)
    part, again = build_clusters(sset, c1=0.1), build_clusters(sset, c1=0.1)
    assert part._cosets is not again._cosets
    assert part == again
    labels = part.labels.copy()
    labels[0] = 1  # the first member moves from cluster 0 to cluster 1
    assert part != replace(part, labels=labels)


def test_clusters_zero_epsilon_are_stabilizer_cosets(steane):
    sset = enumerate_syndrome_set(steane, "Z", 0.0)
    part = build_clusters(sset, c1=0.1)
    stab = span_words(steane.h_x)
    assert part.clusters == expected_coset_fragments(sset, stab)
    assert len(part.clusters) == 2
    assert part.representatives == {0: 0}
    assert decode_each(part)[0] == 0


def test_cluster_translate_law_oracle(steane):
    # shifting by a kernel word permutes clusters setwise; shifting by a
    # stabilizer fixes each cluster
    sset = enumerate_syndrome_set(steane, "Z", 1.0 / 3.0)
    part = build_clusters(sset, c1=0.1)
    stab = span_words(steane.h_x)
    cluster_sets = [set(cl) for cl in part.clusters]
    for c in kernel_words_oracle(steane.h_z, 7):
        for cl in cluster_sets:
            shifted = {y ^ c for y in cl}
            assert shifted in cluster_sets
            if c in stab:
                assert shifted == cl
            else:
                assert shifted != cl


def test_decoder_is_coherent_within_clusters(steane):
    # every member of a cluster decodes into one stabilizer coset, even
    # when the cluster mixes several syndromes
    sset = enumerate_syndrome_set(steane, "Z", 1.0 / 3.0)
    part = build_clusters(sset, c1=0.1)
    stab = span_words(steane.h_x)
    kernel = kernel_words_oracle(steane.h_z, 7)
    decode = dict(zip(part.members.tolist(), decode_each(part)))
    for cl in part.clusters:
        decoded = {decode[y] for y in cl}
        assert decoded <= kernel
        base = next(iter(decoded))
        assert all((d ^ base) in stab for d in decoded)


def test_verify_cluster_lemma_all_pass_in_regime(steane):
    for basis in ("Z", "X"):
        sset = enumerate_syndrome_set(steane, basis, 1.0 / 3.0)
        part = build_clusters(sset, c1=0.1)
        report = verify_cluster_lemma(part, c2=1.0 / 7.0)
        assert report.all_ok, dumps(report)
        assert report.min_intercluster_distance == 1


def test_verify_cluster_lemma_all_pass_shor(shor):
    sset = enumerate_syndrome_set(shor, "Z", 1.0 / 6.0)
    part = build_clusters(sset, c1=0.3)
    assert len(part.clusters) == 14
    report = verify_cluster_lemma(part, c2=1.0 / 9.0)
    assert report.all_ok, dumps(report)


def test_verify_distance_failure_reports_witness(steane):
    sset = enumerate_syndrome_set(steane, "Z", 1.0 / 3.0)
    part = build_clusters(sset, c1=0.1)
    report = verify_cluster_lemma(part, c2=0.5)
    assert not report.distance_ok
    assert report.all_ok is False
    assert report.counterexample["check"] == 2
    y, y2 = report.counterexample["pair"]
    label = cluster_of(part)
    assert label[y] != label[y2]
    assert (y ^ y2).bit_count() == report.min_intercluster_distance
    # brute-force the true separation
    best = min((a ^ b).bit_count() for a in label for b in label if label[a] != label[b])
    assert report.min_intercluster_distance == best == 1


def test_verify_partition_failure_outside_regime(steane):
    # threshold 7/6 lets the pairwise relation lose transitivity, so the
    # pointwise sets disagree with the connected components
    sset = enumerate_syndrome_set(steane, "Z", 1.0 / 3.0)
    part = build_clusters(sset, c1=0.25)
    stab = span_words(steane.h_x)
    label = cluster_of(part)
    pointwise_is_component = True
    for y in label:
        ball = {z for z in label if coset_weight_oracle(y ^ z, stab) <= part.threshold}
        component = {z for z in label if label[z] == label[y]}
        if ball != component:
            pointwise_is_component = False
            break
    assert not pointwise_is_component
    report = verify_cluster_lemma(part, c2=1.0 / 7.0)
    assert not report.partition_ok
    assert report.counterexample["check"] == 1


def test_logical_shift_moves_every_cluster(steane):
    sset = enumerate_syndrome_set(steane, "Z", 1.0 / 3.0)
    part = build_clusters(sset, c1=0.1)
    stab = span_words(steane.h_x)
    logicals = kernel_words_oracle(steane.h_z, 7) - stab
    assert logicals
    label = cluster_of(part)
    for c in logicals:
        for y in label:
            assert label[y ^ c] != label[y]


def test_clustering_from_ssexp_values():
    c1, c2, eps0 = clustering_from_ssexp(0.1, 0.2)
    assert (c1, c2, eps0) == (5.0, 0.1, 1.0)
    assert clustering_from_ssexp(1.0, 1.0) == (1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        clustering_from_ssexp(0.0, 1.0)
    with pytest.raises(DomainError):
        clustering_from_ssexp(1.0, -2.0)


def test_clustering_roundtrip_from_measured_expansion(steane):
    # measure the expansion constants exhaustively, map them to clustering
    # constants, then check the coset-weight dichotomy directly
    radius = 2.0 / 7.0
    curve = estimate_ssexp(steane, [radius])
    for side, checks, stab_mat in (
        ("boundary", steane.h_z, steane.h_x),
        ("coboundary", steane.h_x, steane.h_z),
    ):
        c2_prime = getattr(curve, side + "_constant")
        assert c2_prime == pytest.approx(7.0 / 6.0)
        c1, c2, eps0 = clustering_from_ssexp(radius, c2_prime)
        rows = checks.toarray()
        m = rows.shape[0]
        stab = span_words(stab_mat)
        for eps in (1.0 / 6.0, 1.0 / 3.0, 2.0 / 3.0, 1.0):
            assert eps <= eps0
            for y in range(128):
                if ((rows @ unpack_bits(y, 7)) % 2).sum() > eps * m + 1e-12:
                    continue
                cw = coset_weight_oracle(y, stab)
                assert cw <= c1 * eps * 7 + 1e-9 or cw >= c2 * 7 - 1e-9


# ---------------------------------------------------------- Hamiltonian


def test_hamiltonian_single_qubit_pieces():
    x_only = CssCode(
        p=2, n=1, h_x=FMatrix.from_dense(2, np.array([[1]])), h_z=FMatrix.zeros(2, 0, 1)
    )
    ham = build_code_hamiltonian(x_only)
    assert np.allclose(ham.matrix, np.array([[0.25, -0.25], [-0.25, 0.25]]))
    z_only = CssCode(
        p=2, n=1, h_x=FMatrix.zeros(2, 0, 1), h_z=FMatrix.from_dense(2, np.array([[1]]))
    )
    ham = build_code_hamiltonian(z_only)
    assert np.allclose(ham.matrix, np.diag([0.0, 0.5]))


def test_hamiltonian_spectrum_bounds_and_nullspace(steane):
    ham = build_code_hamiltonian(steane)
    assert np.allclose(ham.matrix, ham.matrix.T)
    eigs = ham.eigenvalues()
    assert eigs.min() >= -1e-9
    assert eigs.max() <= 1.0 + 1e-9
    assert int((eigs < 1e-9).sum()) == 2


def test_uniform_code_state_has_zero_energy(steane):
    ham = build_code_hamiltonian(steane)
    vec = dense_state(sector_state(steane, 0, 0), 7)
    vec /= np.linalg.norm(vec)
    assert np.linalg.norm(ham.matrix @ vec) < 1e-12


def coset_representatives(matrix: FMatrix, n: int) -> list[int]:
    """Lex-least representative of every coset of ker(matrix)."""
    rows = matrix.toarray()
    reps = {}
    for y in range(1 << n):
        syn = pack_bits((rows @ unpack_bits(y, n)) % 2) if rows.size else 0
        reps.setdefault(syn, y)
    return sorted(reps.values())


def exhaustive_sector_check(code):
    """Exact rational sector law on every coset pair, both logicals, plus a
    dense-spectrum cross-check."""
    n = code.n
    e_x_reps = coset_representatives(code.h_x, n)
    e_z_reps = coset_representatives(code.h_z, n)
    z_kernel = sorted(kernel_words_oracle(code.h_z, n))
    stab_x = span_words(code.h_x)
    log_word = next(w for w in z_kernel if w not in stab_x)
    ham = build_code_hamiltonian(code)
    expected_eigs = []
    for e_x in e_x_reps:
        for e_z in e_z_reps:
            lam = sector_eigenvalue(code, e_x, e_z)
            for logical in (0, log_word):
                state = sector_state(code, e_x, e_z, logical=logical)
                out = apply_hamiltonian_exact(code, state)
                want = {w: lam * amp for w, amp in state.items() if lam * amp != 0}
                assert out == want
                vec = dense_state(state, n)
                assert np.linalg.norm(ham.matrix @ vec - float(lam) * vec) < 1e-10
                expected_eigs.append(float(lam))
    assert np.allclose(np.sort(expected_eigs), ham.eigenvalues(), atol=1e-9)


def test_sector_eigenvalue_law_steane(steane):
    exhaustive_sector_check(steane)


def test_sector_eigenvalue_law_shor(shor):
    exhaustive_sector_check(shor)


def test_sector_eigenvalue_is_rational(steane):
    lam = sector_eigenvalue(steane, 1 << 6, 1 << 5)
    assert isinstance(lam, Fraction)
    assert lam == Fraction(1, 6) + Fraction(1, 6)


def test_hamiltonian_budget_and_field_guards():
    wide = CssCode(p=2, n=13, h_x=FMatrix.zeros(2, 0, 13), h_z=FMatrix.zeros(2, 0, 13))
    with pytest.raises(BudgetExceeded):
        build_code_hamiltonian(wide)
    ternary = CssCode(p=3, n=2, h_x=FMatrix.zeros(3, 0, 2), h_z=FMatrix.zeros(3, 0, 2))
    with pytest.raises(UnsupportedField):
        build_code_hamiltonian(ternary)


# -------------------------------------------------------- logical pairs


def test_logical_pair_properties(steane, shor):
    for code in (steane, shor):
        x_word, z_word = logical_pair(code)
        n = code.n
        hx = code.h_x.toarray()
        hz = code.h_z.toarray()
        assert not ((hx @ x_word) % 2).any()
        assert not ((hz @ z_word) % 2).any()
        assert pack_bits(x_word) not in span_words(code.h_z)
        assert pack_bits(z_word) not in span_words(code.h_x)
        assert int(x_word @ z_word) % 2 == 1


def test_logical_pair_is_lex_least(steane):
    x_word, _ = logical_pair(steane)
    stab_z = span_words(steane.h_z)
    valid = sorted(w for w in kernel_words_oracle(steane.h_x, 7) if w not in stab_z)
    assert pack_bits(x_word) == valid[0]


def test_logical_pair_requires_positive_dimension():
    trivial = CssCode(
        p=2, n=2, h_x=FMatrix.identity(2, 2), h_z=FMatrix.zeros(2, 0, 2)
    )
    with pytest.raises(DomainError):
        logical_pair(trivial)


def test_logical_pair_refuses_codes_too_large_to_enumerate():
    # ker H_X is all of GF(2)^23: 2^23 words, past ENUMERATION_CAP = 2^22
    n = 23
    free = CssCode(p=2, n=n, h_x=FMatrix.zeros(2, 0, n), h_z=FMatrix.zeros(2, 0, n))
    with pytest.raises(BudgetExceeded):
        logical_pair(free)


# --------------------------------------------------------------- spread


@pytest.fixture(scope="module")
def spread_setup(steane):
    part_x = build_clusters(enumerate_syndrome_set(steane, "X", 1.0 / 3.0), c1=0.1)
    part_z = build_clusters(enumerate_syndrome_set(steane, "Z", 1.0 / 3.0), c1=0.1)
    logicals = logical_pair(steane)
    return part_x, part_z, logicals


def test_spread_code_states_give_definite_logical(steane, spread_setup):
    part_x, part_z, logicals = spread_setup
    z_shift = pack_bits(logicals[1])
    zero = dense_state(sector_state(steane, 0, 0, logical=0), 7)
    one = dense_state(sector_state(steane, 0, 0, logical=z_shift), 7)
    rx0, rz0 = measure_spread(zero, steane, part_x, part_z, logicals)
    assert rz0.mass0 == pytest.approx(1.0)
    assert rz0.mass1 == pytest.approx(0.0, abs=1e-12)
    assert rx0.mass0 == pytest.approx(0.5)
    assert rx0.mass1 == pytest.approx(0.5)
    assert rx0.meets_strict
    rx1, rz1 = measure_spread(one, steane, part_x, part_z, logicals)
    assert rz1.mass1 == pytest.approx(1.0)
    assert rx1.mass0 == pytest.approx(0.5)


def test_spread_plus_minus_states_split_z_and_fix_x(steane, spread_setup):
    part_x, part_z, logicals = spread_setup
    z_shift = pack_bits(logicals[1])
    zero = dense_state(sector_state(steane, 0, 0, logical=0), 7)
    one = dense_state(sector_state(steane, 0, 0, logical=z_shift), 7)
    plus = zero + one
    minus = zero - one
    rxp, rzp = measure_spread(plus, steane, part_x, part_z, logicals)
    assert rzp.mass0 == pytest.approx(0.5)
    assert rzp.mass1 == pytest.approx(0.5)
    assert rxp.mass0 == pytest.approx(1.0)
    assert rzp.meets_strict
    rxm, _ = measure_spread(minus, steane, part_x, part_z, logicals)
    assert rxm.mass1 == pytest.approx(1.0)


def test_spread_separation_matches_brute_force(steane, spread_setup):
    part_x, part_z, logicals = spread_setup
    zero = dense_state(sector_state(steane, 0, 0, logical=0), 7)
    _, rz = measure_spread(zero, steane, part_x, part_z, logicals)
    best = min((a ^ b).bit_count() for a in rz.s0 for b in rz.s1)
    assert rz.separation == best
    assert set(rz.s0) | set(rz.s1) == set(part_z.members.tolist())


def test_spread_low_energy_dichotomy_200_random_states(steane, spread_setup):
    part_x, part_z, logicals = spread_setup
    z_shift = pack_bits(logicals[1])
    low_syndrome = [0, 1 << 6, 1 << 5, 1 << 3]
    basis = []
    for e_x in low_syndrome:
        for e_z in low_syndrome:
            for logical in (0, z_shift):
                basis.append(dense_state(sector_state(steane, e_x, e_z, logical), 7))
    basis = np.array(basis)
    rng = np.random.default_rng(2024)
    for _ in range(200):
        coeffs = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
        vec = coeffs @ basis
        rx, rz = measure_spread(vec, steane, part_x, part_z, logicals)
        assert max(rx.min_mass, rz.min_mass) >= SPREAD_MASS_STRICT - 1e-9
        assert max(rx.min_mass, rz.min_mass) >= SPREAD_MASS_RELAXED - 1e-9


def test_spread_density_matrix_is_linear_in_state(steane, spread_setup):
    part_x, part_z, logicals = spread_setup
    z_shift = pack_bits(logicals[1])
    zero = dense_state(sector_state(steane, 0, 0, logical=0), 7)
    zero /= np.linalg.norm(zero)
    plus = dense_state(sector_state(steane, 0, 0, 0), 7) + dense_state(
        sector_state(steane, 0, 0, z_shift), 7
    )
    plus /= np.linalg.norm(plus)
    rho = 0.5 * np.outer(zero, zero.conj()) + 0.5 * np.outer(plus, plus.conj())
    rx_mix, rz_mix = measure_spread(rho, steane, part_x, part_z, logicals)
    rx0, rz0 = measure_spread(zero, steane, part_x, part_z, logicals)
    rxp, rzp = measure_spread(plus, steane, part_x, part_z, logicals)
    assert rz_mix.mass0 == pytest.approx(0.5 * (rz0.mass0 + rzp.mass0), abs=1e-12)
    assert rx_mix.mass1 == pytest.approx(0.5 * (rx0.mass1 + rxp.mass1), abs=1e-12)


def test_spread_input_validation(steane, spread_setup):
    part_x, part_z, logicals = spread_setup
    with pytest.raises(StateDimensionMismatch):
        measure_spread(np.ones(64), steane, part_x, part_z, logicals)
    with pytest.raises(StateDimensionMismatch):
        measure_spread(np.ones((64, 64)), steane, part_x, part_z, logicals)
    even_pair = (unpack_bits(1 << 6, 7), unpack_bits(1 << 5, 7))
    good = dense_state(sector_state(steane, 0, 0), 7)
    with pytest.raises(DomainError):
        measure_spread(good, steane, part_x, part_z, even_pair)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_spread_refuses_non_finite_states(steane, spread_setup, bad):
    part_x, part_z, logicals = spread_setup
    vec = dense_state(sector_state(steane, 0, 0), 7).astype(complex)
    vec[5] = bad
    with pytest.raises(DomainError, match="finite"):
        measure_spread(vec, steane, part_x, part_z, logicals)
    rho = np.outer(vec, vec.conj()) if np.isfinite(vec[5]) else np.eye(128, dtype=complex)
    rho[3, 9] = bad
    with pytest.raises(DomainError, match="finite"):
        measure_spread(rho, steane, part_x, part_z, logicals)


def _short(x, z, parts):
    return (x[:-1], z[:-1]), parts


def _long(x, z, parts):
    return (np.append(x, 0), np.append(z, 0)), parts


def _three(x, z, parts):
    return (np.where(x == 1, 3, x), z), parts


def _z_outside_kernel(x, z, parts):
    # one bit flipped where x is 0: the overlap stays odd
    z = z.copy()
    z[np.flatnonzero(x == 0)[0]] ^= 1
    return (x, z), parts


def _even_overlap(x, z, parts):
    return (x, np.zeros_like(z)), parts  # both in the kernels


def _swapped(x, z, parts):
    return (x, z), parts[::-1]


def _other_length(x, z, parts):
    shor = shor_code()
    return (x, z), tuple(build_clusters(enumerate_syndrome_set(shor, b, 1 / 3), 0.1) for b in "XZ")


@pytest.mark.parametrize(
    "tamper", [_short, _long, _three, _z_outside_kernel, _even_overlap, _swapped, _other_length],
    ids=["short", "long", "three", "z_outside_kernel", "even_overlap", "swapped", "other_length"],
)
def test_spread_refuses_bad_readouts_and_partitions(steane, spread_setup, tamper):
    part_x, part_z, (x, z) = spread_setup
    logicals, (px, pz) = tamper(np.asarray(x), np.asarray(z), (part_x, part_z))
    with pytest.raises(DomainError):
        measure_spread(dense_state(sector_state(steane, 0, 0), 7), steane, px, pz, logicals)


# -------------------------------------------------- uncertainty relation


def pauli():
    x = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return x, z


def uncertainty_value(op, rho):
    return abs(np.trace(op @ rho).real)


def test_uncertainty_basic_cases():
    x, z = pauli()
    ket0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    assert uncertainty_value(x, ket0) == pytest.approx(0.0, abs=1e-15)
    assert uncertainty_value(z, ket0) == pytest.approx(1.0)
    assert uncertainty_check(x, z, ket0)
    mixed = np.eye(2, dtype=complex) / 2
    assert uncertainty_check(x, z, mixed)


def test_uncertainty_random_trials():
    x, z = pauli()
    eye2 = np.eye(2, dtype=complex)
    a0 = np.kron(x, eye2)
    b0 = np.kron(z, eye2)
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
        assert uncertainty_check(a, b, rho, tol=1e-9)


def test_uncertainty_precondition_failures():
    x, z = pauli()
    rho = np.eye(2, dtype=complex) / 2
    skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(PreconditionViolated) as err:
        uncertainty_check(skew, z, rho)
    assert err.value.norm > 0
    with pytest.raises(PreconditionViolated):
        uncertainty_check(2 * x, z, rho)
    with pytest.raises(PreconditionViolated):
        uncertainty_check(x, x, rho)
    with pytest.raises(PreconditionViolated):
        uncertainty_check(x, z, 2 * rho)
    not_psd = np.diag([1.5, -0.5]).astype(complex)
    with pytest.raises(PreconditionViolated) as err:
        uncertainty_check(x, z, not_psd)
    assert err.value.norm == pytest.approx(-0.5)


def test_uncertainty_bound_constant():
    assert UNCERTAINTY_BOUND == pytest.approx(0.5 + 0.5 / math.sqrt(2))


# ------------------------------------------------------ depth threshold


def test_depth_bound_zero_point():
    # delta^2 n equal to 400 log2(1/mu) makes the argument exactly one
    assert depth_lower_bound(10_000, 0.5, 0.2) == pytest.approx(0.0, abs=1e-12)
    assert depth_lower_bound(10_000, 0.5, 0.2, corollary=True) == pytest.approx(1.0)


def test_depth_bound_independent_arithmetic():
    n, mu, delta = 10**6, 0.02, 0.1
    expected = (
        math.log(delta * delta * n / (400.0 * (math.log(1.0 / mu) / math.log(2.0))))
        / math.log(2.0)
        / 3.0
    )
    assert depth_lower_bound(n, mu, delta) == pytest.approx(expected, rel=1e-12)
    assert depth_lower_bound(n, mu, delta, corollary=True) == pytest.approx(
        expected + 1.0, rel=1e-12
    )


def test_depth_bound_monotone_in_n():
    vals = [depth_lower_bound(n, 0.02, 0.1) for n in (10**4, 10**5, 10**6)]
    assert vals[0] < vals[1] < vals[2]


def test_depth_bound_domain_errors():
    for bad in ((100, 0.0, 0.1), (100, 1.0, 0.1), (100, 0.5, 0.0), (0, 0.5, 0.1)):
        with pytest.raises(DomainError):
            depth_lower_bound(*bad)


def test_epsilon_threshold_example():
    budget = epsilon_threshold(1.0, 5.0, 0.1, 50.0, 1000)
    assert budget.epsilon == pytest.approx(5e-6, rel=1e-12)
    assert budget.epsilon_prime == 1000.0 * budget.epsilon


def test_epsilon_threshold_companion_ratio():
    budget = epsilon_threshold(0.3, 2.0, 0.9, 17.0, 400)
    assert budget.epsilon_prime == 1000.0 * budget.epsilon
    assert budget.epsilon == pytest.approx(
        min(0.15, 0.9 / 8.0, 17.0 / (2 * 2.0 * 400)) / 1000.0
    )


def test_epsilon_threshold_domain_errors():
    with pytest.raises(DomainError):
        epsilon_threshold(0.0, 1.0, 1.0, 3.0, 7)
    with pytest.raises(DomainError):
        epsilon_threshold(1.0, -1.0, 1.0, 3.0, 7)


# ----------------------------------------------------------- json smoke


def test_cluster_partition_json_smoke(steane):
    sset = enumerate_syndrome_set(steane, "Z", 0.0)
    part = build_clusters(sset, c1=0.1)
    data = json.loads(dumps(part))
    assert data["num_members"] == 16
    assert data["representatives"] == {"0": 0}
    report = verify_cluster_lemma(part, c2=3.0 / 7.0)
    parsed = json.loads(dumps(report))
    assert parsed["all_ok"] is True


# ------------------------------------------- differential: loop oracles
#
# The lab kernels used to walk every member pair (clusters, lemma, spread)
# and every stabilizer word (coset table).  Those loops are kept here as
# oracles; the vectorized code must reproduce them exactly, witnesses and
# float bits included.


def loop_coset_weight_table(stab_rows, n):
    idx = np.arange(1 << n, dtype=np.int64)
    weights = np.bitwise_count(idx).astype(np.int64)
    table = weights.copy()
    if stab_rows.size and rank(stab_rows, 2):
        rref, pivots = row_reduce(stab_rows, 2)
        words = [0]
        for i in range(len(pivots)):
            g = pack_bits(rref[i])
            words += [w ^ g for w in words]
        for s in words[1:]:
            np.minimum(table, weights[idx ^ s], out=table)
    return table


def loop_kernel_words(checks, n):
    """Every packed word of ker(checks), sorted: the XOR span of the
    kernel basis rows."""
    words = [0]
    for row in kernel_basis(checks, 2) if checks.size else np.eye(n, dtype=np.int64):
        g = pack_bits(row)
        words += [w ^ g for w in words]
    return sorted(words)


def loop_clusters(sset, c1):
    """(clusters, representatives) by the pairwise relation."""
    code, n = sset.code, sset.code.n
    stab = (code.h_x if sset.basis == "Z" else code.h_z).toarray()
    table = loop_coset_weight_table(stab, n)
    threshold = 2.0 * c1 * sset.epsilon * n + 1e-12
    members = sorted(sset.members.tolist())
    mm = np.array(members, dtype=np.int64)
    rows, cols = [], []
    for i in range(len(members)):
        close = np.nonzero(table[mm ^ mm[i]] <= threshold)[0]
        rows += [i] * len(close)
        cols += list(close)
    adj = coo_matrix(
        (np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(len(mm), len(mm))
    )
    _, labels = connected_components(adj, directed=False)
    raw = {}
    for pos, lab in enumerate(labels):
        raw.setdefault(int(lab), []).append(members[pos])
    clusters = sorted((sorted(v) for v in raw.values()), key=lambda c: c[0])
    cluster_of = {y: cid for cid, cl in enumerate(clusters) for y in cl}
    own = (code.h_z if sset.basis == "Z" else code.h_x).toarray()
    kernel_words = loop_kernel_words(own, n)
    rep_cluster_of = {}
    for cid in range(len(clusters)):
        if cid in rep_cluster_of:
            continue
        y0 = clusters[cid][0]
        orbit = sorted(
            {cluster_of[y0 ^ c] for c in kernel_words if (y0 ^ c) in cluster_of}
        )
        designated = min(orbit, key=lambda k: clusters[k][0])
        for k in orbit:
            rep_cluster_of.setdefault(k, designated)
    classes = {}
    for y, s in zip(sset.members.tolist(), sset.syndromes.tolist()):
        classes.setdefault(s, []).append(y)
    representatives = {}
    for s, cls in classes.items():
        y0 = min(cls)
        rep_members = set(clusters[rep_cluster_of[cluster_of[y0]]])
        inside = [y for y in cls if y in rep_members]
        representatives[s] = min(inside) if inside else y0
    return clusters, representatives


def loop_lemma(part, c2, code):
    """The cluster-lemma report as a dict, by per-member and per-shift loops
    over the code's own coset weight table."""
    stab = (code.h_x if part.basis == "Z" else code.h_z).toarray()
    table = loop_coset_weight_table(stab, part.n)
    mm, labels, label, clusters = part.members, part.labels, cluster_of(part), part.clusters
    counterexample = None
    partition_ok = True
    for i, y in enumerate(mm.tolist()):
        related = table[mm ^ y] <= part.threshold
        if not (related == (labels == labels[i])).all():
            partition_ok = False
            bad = int(mm[np.nonzero(related != (labels == labels[i]))[0][0]])
            counterexample = {"check": 1, "y": y, "y_prime": bad}
            break
    min_dist, witness = None, None
    for i in range(len(mm)):
        diff = np.bitwise_count(mm ^ mm[i]).astype(np.int64)
        other = labels != labels[i]
        if other.any():
            j = int(np.nonzero(other)[0][np.argmin(diff[other])])
            d = int(diff[j])
            if min_dist is None or d < min_dist:
                min_dist, witness = d, (int(mm[i]), int(mm[j]))
    distance_ok = min_dist is None or min_dist >= c2 * part.n
    if not distance_ok and counterexample is None:
        counterexample = {"check": 2, "pair": witness, "distance": min_dist}
    zero = [y for y, s in zip(mm.tolist(), part.syndromes.tolist()) if s == 0]
    kernel_words = sorted(y ^ zero[0] for y in zero) if zero else [0]
    translate_ok = True
    for cid, cl in enumerate(clusters):
        for c in kernel_words:
            shifted = sorted(y ^ c for y in cl)
            target = label.get(shifted[0])
            same_set = target is not None and clusters[target] == shifted
            if (target == cid) != (int(table[c]) == 0) or not same_set:
                translate_ok = False
                if counterexample is None:
                    counterexample = {"check": 3, "cluster": cid, "shift": c}
                break
        if not translate_ok:
            break
    decoder_ok = True
    decode = dict(zip(mm.tolist(), decode_each(part)))
    for cid, cl in enumerate(clusters):
        d0 = decode[cl[0]]
        for y in cl[1:]:
            if int(table[decode[y] ^ d0]) != 0:
                decoder_ok = False
                if counterexample is None:
                    counterexample = {"check": 4, "cluster": cid, "pair": (cl[0], y)}
                break
        if not decoder_ok:
            break
    return {
        "partition_ok": partition_ok, "distance_ok": bool(distance_ok),
        "translate_ok": translate_ok, "decoder_ok": decoder_ok,
        "min_intercluster_distance": min_dist, "c2": float(c2), "n": part.n,
        "counterexample": counterexample,
    }


def loop_fwht(vec):
    a = vec.copy()
    total = a.shape[0]
    h = 1
    while h < total:
        a = a.reshape(-1, 2, h)
        x = a[:, 0, :].copy()
        y = a[:, 1, :].copy()
        a[:, 0, :] = x + y
        a[:, 1, :] = x - y
        a = a.reshape(total)
        h *= 2
    return a


def bits(values):
    return np.ascontiguousarray(values).view(np.uint64).tolist()


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 13), st.sampled_from(["cube", "one", "some"]), st.data())
def test_walsh_readout_matches_full_transform(n, subset, data):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    cube = np.arange(1 << n, dtype=np.int64)
    words = {
        "cube": lambda: cube,
        "one": lambda: cube[[data.draw(st.integers(0, len(cube) - 1))]],
        "some": lambda: cube[rng.random(len(cube)) < rng.random()],
    }[subset]()
    if not words.size:
        words = cube[-1:]
    plan = _walsh_plan(words, n)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    assert bits(_walsh_at(vec[None], plan)[0]) == bits(loop_fwht(vec)[words])
    if n <= 6:  # a density matrix: its columns, then its rows, read on the diagonal
        rho = rng.normal(size=(1 << n, 1 << n)) + 1j * rng.normal(size=(1 << n, 1 << n))
        mixed = np.apply_along_axis(loop_fwht, 1, np.apply_along_axis(loop_fwht, 0, rho))
        got = _walsh_at(_walsh_at(rho.T, plan).T, plan)
        assert bits(np.diag(got)) == bits(np.diag(mixed)[words])


def loop_spread(vec, parts, logicals):
    """Per basis (X, Z): (s0, s1, mass0, mass1, separation) by per-member loops."""
    vec = vec / np.sqrt(np.add.reduce(vec.real * vec.real) + np.add.reduce(vec.imag * vec.imag))
    d_z, d_x = np.abs(vec) ** 2, np.abs(loop_fwht(vec)) ** 2 / len(vec)
    c_x, c_z = pack_bits(logicals[0]), pack_bits(logicals[1])
    out = []
    for part, readout, dist in ((parts["X"], c_z, d_x), (parts["Z"], c_x, d_z)):
        s0, s1 = [], []
        for y, decoded in zip(part.members.tolist(), decode_each(part)):
            (s1 if (decoded & readout).bit_count() % 2 else s0).append(y)
        separation = None
        if s0 and s1:
            separation = min(int(np.bitwise_count(np.array(s1) ^ y).min()) for y in s0)
        mass0, mass1 = float(sum(dist[y] for y in s0)), float(sum(dist[y] for y in s1))
        out.append((s0, s1, mass0, mass1, separation))
    return out


@st.composite
def small_css_codes(draw):
    """A random binary CSS code on n <= 10 qubits: H_Z rows are random
    combinations of a basis of ker H_X."""
    n = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    h_x = rng.integers(0, 2, size=(draw(st.integers(0, 4)), n))
    kernel = kernel_basis(h_x, 2) if h_x.size else np.eye(n, dtype=np.int64)
    mix = rng.integers(0, 2, size=(draw(st.integers(0, 4)), kernel.shape[0]))
    h_z = (mix @ kernel) % 2 if kernel.size else np.zeros((0, n), dtype=np.int64)
    h_z = h_z.reshape(-1, n)
    return CssCode(p=2, n=n, h_x=FMatrix.from_dense(2, h_x), h_z=FMatrix.from_dense(2, h_z))


def loop_syndrome_set(code, basis, eps):
    """(members, syndrome_of) by one pass over all 2^n words, in word order."""
    checks = (code.h_x if basis == "X" else code.h_z).toarray()
    members, syndrome_of = [], {}
    for y in range(1 << code.n):
        syn = checks @ unpack_bits(y, code.n) % 2
        if syn.sum() <= eps * len(checks) + 1e-12:
            members.append(y)
            syndrome_of[y] = pack_bits(syn)
    return members, syndrome_of


NO_X_CHECKS = CssCode(p=2, n=4, h_x=FMatrix.zeros(2, 0, 4),
                      h_z=FMatrix.from_dense(2, [[1, 1, 0, 1]]))
NO_Z_CHECKS = CssCode(p=2, n=4, h_x=FMatrix.from_dense(2, [[0, 1, 1, 1], [1, 1, 0, 0]]),
                      h_z=FMatrix.zeros(2, 0, 4))
# 66 X checks: packed X syndromes pass int64 and are kept as Python ints
STEANE_66 = CssCode(p=2, n=7, h_z=steane_code().h_z,
                    h_x=FMatrix.from_dense(2, np.tile(steane_code().h_x.toarray(), (22, 1))))
# in the X partition at (1/4, 1/4) some syndrome's least member lies outside
# the designated cluster of its orbit, so its representative is not that member
OFF_LEAST = CssCode(p=2, n=9, h_x=FMatrix.from_dense(2, [
    [0, 1, 1, 1, 0, 1, 1, 1, 0], [0, 0, 0, 0, 0, 0, 1, 0, 1],
    [1, 0, 0, 1, 1, 0, 1, 0, 1], [0, 1, 1, 1, 0, 1, 1, 0, 0]]), h_z=FMatrix.zeros(2, 0, 9))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(small_css_codes(), st.sampled_from([0.0, 1 / 8, 1 / 4, 1 / 3, 1 / 2, 1.0]))
@example(NO_X_CHECKS, 0.0)
@example(NO_X_CHECKS, 1 / 2)
@example(NO_Z_CHECKS, 0.0)
@example(NO_Z_CHECKS, 1 / 2)
@example(STEANE_66, 1 / 3)
def test_syndrome_sets_match_cube_scan(code, eps):
    for basis in ("X", "Z"):
        sset = enumerate_syndrome_set(code, basis, eps)
        members, syndrome_of = loop_syndrome_set(code, basis, eps)
        assert sset.members.dtype == np.int64
        assert sset.members.tolist() == members
        assert sset.syndromes.tolist() == list(syndrome_of.values())


def regrouped(part, groups):
    """A copy of part whose clusters are the given groups of its members."""
    labels = np.empty(len(part.members), dtype=np.int64)
    for cid, cl in enumerate(sorted(sorted(g) for g in groups)):
        labels[np.searchsorted(part.members, cl)] = cid
    return replace(part, labels=labels)


def loop_shift_targets(part, shifts):
    """Per cluster cl and shift c: the cluster equal to cl + c, or -1."""
    out, label, clusters = [], cluster_of(part), part.clusters
    for cl in clusters:
        out.append([])
        for c in shifts:
            shifted = sorted(y ^ c for y in cl)
            target = label.get(shifted[0])
            out[-1].append(target if target is not None and clusters[target] == shifted else -1)
    return out


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    small_css_codes(),
    st.sampled_from(["X", "Z"]),
    st.sampled_from([0.0, 1 / 8, 1 / 4, 1 / 3, 1 / 2, 1.0]),
    st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
    st.sampled_from([0.05, 0.2, 0.5]),
    st.randoms(use_true_random=False),
)
@example(STEANE_66, "X", 1 / 3, 0.1, 0.2, random.Random(0))
@example(OFF_LEAST, "X", 1 / 4, 0.25, 0.05, random.Random(0))
def test_lab_kernels_match_loop_oracles(code, basis, eps, c1, c2, rnd):
    n, other = code.n, {"X": "Z", "Z": "X"}[basis]
    sset = enumerate_syndrome_set(code, basis, eps)
    part = build_clusters(sset, c1)
    # the class-word weight table, read at every word's S-class
    stab = (code.h_x if basis == "Z" else code.h_z).toarray()
    cube = np.arange(1 << n, dtype=np.int64)
    table = part._coset_weights[part._cosets.index(cube)]
    assert (table == loop_coset_weight_table(stab, n)).all()
    clusters, representatives = loop_clusters(sset, c1)
    assert part.clusters == clusters
    assert part.representatives == representatives
    assert list(part.representatives) == list(representatives)

    # Tampered copies of the partition: cluster k joined with another or cut
    # in two (sizes change, so check 1 and often 3 fail), k's first member
    # swapped with that of a same-size cluster (sizes hold, so only a
    # neighbour outside the cluster shows it), and a representative moved
    # (check 4 can fail; c2 = 0 keeps check 2 from reporting first).
    k = rnd.randint(0, len(part.clusters) - 1)
    mine, others = part.clusters[k], part.clusters[:k] + part.clusters[k + 1 :]
    resized = []
    if others:
        j = rnd.randint(0, len(others) - 1)
        resized.append(others[:j] + others[j + 1 :] + [others[j] + mine])
    if len(mine) > 1:
        cut = rnd.randint(1, len(mine) - 1)
        resized.append(others + [mine[:cut], mine[cut:]])
    resized = [regrouped(part, groups) for groups in resized]
    variants = [(v, c2) for v in [part, *resized]]
    twin = next((j for j, cl in enumerate(others) if len(cl) == len(mine)), None)
    if twin is not None:
        a, b = mine, others[twin]
        groups = others[:twin] + others[twin + 1 :] + [[b[0]] + a[1:], [a[0]] + b[1:]]
        variants.append((regrouped(part, groups), c2))
    classes = {}
    for y, s in zip(part.members.tolist(), part.syndromes.tolist()):
        classes.setdefault(s, []).append(y)
    s, cls = rnd.choice(sorted(classes.items()))
    variants.append((replace(part, representatives={**part.representatives, s: cls[-1]}), 0.0))
    for variant, c2_ in variants:
        report = verify_cluster_lemma(variant, c2_)
        assert report.to_doc() == {**loop_lemma(variant, c2_, code), "all_ok": report.all_ok}

    # where sizes changed, a shifted cluster can land inside a larger one;
    # the translate test's shift targets must see that, on S-cosets where
    # the labels allow them (Q = S) and on the members themselves (Q = {0})
    own = (code.h_z if basis == "Z" else code.h_x).toarray()
    shifts = np.array(loop_kernel_words(own, n), dtype=np.int64)
    for variant in [part, *resized]:
        labels, want = variant.labels, loop_shift_targets(variant, shifts.tolist())
        singletons = _Classes(None, n, variant.members)
        for grouping, lab in (_classes(variant, labels), (singletons, labels)):
            shift_classes, shift_of = np.unique(grouping.index(shifts), return_inverse=True)
            got = _moved_clusters(grouping, lab, shift_classes)
            assert got[:, shift_of].tolist() == want

    if code.rank_x + code.rank_z < n:  # k >= 1: a logical pair to read out
        parts = {basis: part, other: build_clusters(enumerate_syndrome_set(code, other, eps), c1)}
        logicals = logical_pair(code)
        rng = np.random.default_rng(rnd.getrandbits(32))
        vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        reports = measure_spread(vec, code, parts["X"], parts["Z"], logicals)
        assert [
            (r.s0, r.s1, r.mass0, r.mass1, r.separation) for r in reports
        ] == loop_spread(vec, parts, logicals)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    small_css_codes(),
    st.sampled_from([0.0, 1 / 8, 1 / 4, 1 / 3, 1 / 2, 1.0]),
    st.sampled_from([0.05, 0.1, 0.25, 0.5, 1.0]),
)
def test_clusters_and_spread_sides_are_unions_of_stabilizer_cosets(code, eps, c1):
    # what lets the lemma checks and the spread separation run modulo S
    parts, stab = {}, {"X": span_words(code.h_z), "Z": span_words(code.h_x)}
    for basis in ("X", "Z"):
        part = parts[basis] = build_clusters(enumerate_syndrome_set(code, basis, eps), c1)
        for cl in part.clusters:
            assert {y ^ s for y in cl for s in stab[basis]} == set(cl)
    if code.rank_x + code.rank_z < code.n:
        vec = np.ones(1 << code.n, dtype=complex)
        for r in measure_spread(vec, code, parts["X"], parts["Z"], logical_pair(code)):
            for side in (r.s0, r.s1):
                assert {y ^ s for y in side for s in stab[r.basis]} == set(side)


def test_decoder_witness_matches_loop_oracle():
    # a decoder that mixes two stabilizer cosets in cluster 0 while checks
    # 1 to 3 pass, so check 4 names the witness (random search, n = 8)
    h_x = [[0, 0, 1, 0, 0, 1, 0, 1], [0, 0, 0, 1, 1, 1, 0, 1], [0, 0, 0, 1, 1, 0, 0, 1]]
    h_z = [[0, 1, 0, 1, 1, 0, 1, 0], [0, 1, 1, 0, 1, 0, 1, 1],
           [1, 1, 0, 1, 1, 0, 1, 0], [0, 0, 1, 1, 0, 0, 0, 1]]
    code = CssCode(p=2, n=8, h_x=FMatrix.from_dense(2, h_x), h_z=FMatrix.from_dense(2, h_z))
    part = build_clusters(enumerate_syndrome_set(code, "Z", 0.25), c1=0.25)
    assert verify_cluster_lemma(part, 0.0).all_ok
    zero_class = part.members[part.syndromes == 0].tolist()
    tampered = replace(part, representatives={**part.representatives, 0: zero_class[-1]})
    report = verify_cluster_lemma(tampered, 0.0)
    assert report.counterexample == {"check": 4, "cluster": 0, "pair": (0, 128)}
    assert report.to_doc() == {**loop_lemma(tampered, 0.0, code), "all_ok": False}


# ------------------------------------- differential: cube transforms vs pairs


def pair_nearest(a, b, labels=None):
    """The member-pair kernel the cube transforms replaced: per word of a, the
    least Hamming distance to a word of b and the first index of b attaining
    it.  With labels (a and b the same words), only pairs with different
    labels count, and a word with none gets distance 64."""
    dist = np.empty(len(a), dtype=np.int64)
    arg = np.empty(len(a), dtype=np.int64)
    step = max(1, (1 << 20) // len(b))
    for s in range(0, len(a), step):
        d = np.bitwise_count(a[s : s + step, None] ^ b)
        if labels is not None:
            d[labels[s : s + step, None] == labels] = 64
        arg[s : s + step] = d.argmin(axis=1)
        dist[s : s + step] = d[np.arange(len(d)), arg[s : s + step]]
    return dist, arg


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 12), st.sampled_from(["one", "distinct", "three"]), st.data())
def test_cube_transforms_match_pair_minimum(n, labelling, data):
    # classes modulo Q = {0} (no rows drawn) or modulo the span Q of up to
    # three drawn rows; the members are the drawn words' cosets
    cube = (1 << n) - 1
    drawn_rows = data.draw(st.lists(st.integers(0, cube), max_size=3)) if n else []
    rows = [unpack_bits(r, n) for r in drawn_rows]
    span = sorted(span_words(FMatrix.from_dense(2, rows))) if rows else [0]
    drawn = data.draw(st.sets(st.integers(0, cube), max_size=40))
    members = np.array(sorted({w ^ q for w in drawn for q in span}), dtype=np.int64)
    cls = _Classes(LinearCode(2, n, rows) if rows else None, n, members)
    # three labels make ties between labels at equal distance common
    k = len(cls.words)
    labels = {
        "one": lambda: np.zeros(k, dtype=np.int64),
        "distinct": lambda: np.array(data.draw(st.lists(
            st.integers(0, (1 << 24) - 1), min_size=k, max_size=k, unique=True))),
        "three": lambda: np.array(data.draw(st.lists(st.integers(0, 2), min_size=k, max_size=k))),
    }[labelling]().astype(np.int64)
    member_labels = labels[cls.of]
    assert np.bincount(cls.of, minlength=k).tolist() == [len(span)] * k

    key, other = _quotient_nearest(cls, labels)
    at = cls.index(np.arange(cube + 1, dtype=np.int64))
    dist = np.bitwise_count(np.arange(cube + 1)[:, None] ^ members).astype(np.int64)
    nearest = dist.min(axis=1) if members.size else np.full(cube + 1, n + 1)
    assert (key[at] >> 24).tolist() == nearest.tolist()
    if not members.size:
        return
    least = np.where(dist == nearest[:, None], member_labels, 1 << 24).min(axis=1)
    assert (key[at] & ((1 << 24) - 1)).tolist() == least.tolist()
    far = np.where(member_labels != least[:, None], dist, n + 1).min(axis=1)
    assert other[at].tolist() == far.tolist()
    # at the members themselves: the old kernel's distance to another label
    if np.unique(labels).size > 1:
        assert other[cls.words[cls.of]].tolist() == pair_nearest(
            members, members, member_labels)[0].tolist()


def hypergraph_product(h):
    """CSS code of the hypergraph product of a classical check matrix with itself."""
    h = np.asarray(h, dtype=np.int64)
    r, c = h.shape
    eye_r, eye_c = np.eye(r, dtype=np.int64), np.eye(c, dtype=np.int64)
    h_x = np.hstack([np.kron(h, eye_c), np.kron(eye_r, h.T)])
    h_z = np.hstack([np.kron(eye_c, h), np.kron(h.T, eye_r)])
    return CssCode(p=2, n=h_x.shape[1], h_x=FMatrix.from_dense(2, h_x), h_z=FMatrix.from_dense(2, h_z))


# the lab benchmark's codes and constants
LAB_CASES = [
    # 3x3 toric code, n = 18
    pytest.param([[1, 1, 0], [0, 1, 1], [1, 0, 1]], 1 / 8, 1 / 10, 1 / 18, id="toric"),
    pytest.param([[1, 1, 0], [0, 1, 1]], 1 / 2, 1 / 20, 1 / 13, id="planar"),  # n = 13
    # c1 outside the regime: one cluster
    pytest.param([[1, 1, 0], [0, 1, 1]], 1 / 2, 1 / 10, 1 / 13, id="planar_wide"),
]


@pytest.mark.parametrize("h, eps, c1, c2", LAB_CASES)
def test_lab_codes_match_pair_kernels(h, eps, c1, c2):
    code = hypergraph_product(h)
    parts = {}
    for basis in ("X", "Z"):
        sset = enumerate_syndrome_set(code, basis, eps)
        part = parts[basis] = build_clusters(sset, c1)
        clusters, representatives = loop_clusters(sset, c1)
        assert part.clusters == clusters
        assert part.representatives == representatives
        assert part.decoded().tolist() == decode_each(part)
        # c2 = 1 fails check 2 wherever check 1 passes, so the witness shows
        for c2_ in (c2, 1.0):
            report = verify_cluster_lemma(part, c2_)
            assert report.to_doc() == {**loop_lemma(part, c2_, code), "all_ok": report.all_ok}
        if len(part.clusters) > 1:
            mm = part.members
            dist, nearest = pair_nearest(mm, mm, part.labels)
            i = int(dist.argmin())
            assert report.counterexample == {
                "check": 2, "pair": (int(mm[i]), int(mm[nearest[i]])), "distance": dist[i]}
    logicals = logical_pair(code)
    vec = np.random.default_rng(7).normal(size=1 << code.n) + 0j
    reports = measure_spread(vec, code, parts["X"], parts["Z"], logicals)
    for r, (s0, s1, mass0, mass1, separation) in zip(reports, loop_spread(vec, parts, logicals)):
        assert (r.s0, r.s1, r.mass0.hex(), r.mass1.hex()) == (s0, s1, mass0.hex(), mass1.hex())
        old = pair_nearest(np.array(s0), np.array(s1))[0].min() if s0 and s1 else None
        assert r.separation == separation == old


LAB_CLUSTER_DIGESTS = {
    (1 / 8, 1 / 10, "X"): "286e3c614ea672d9da738288564aa3515147f67bee6f933bdccb28586ae5795c",
    (1 / 8, 1 / 10, "Z"): "e6e6ecc5b54eb0c22c32e83e6fb0f87121a0a866d8360f556a566d6328eeb8b9",
    (1 / 2, 1 / 20, "X"): "be91c076d8da775b1776f5f6d3a718f58dff0fc617217d542a5401196dfd687f",
    (1 / 2, 1 / 20, "Z"): "195dbe04b643e21854a7cc4ee6659906c8f96d3da7f64830078d46c347bfd556",
    (1 / 2, 1 / 10, "X"): "fd91e8b261f34c1b601fcd70132fdbf9d48c20959a5e50d04543582b774d9250",
    (1 / 2, 1 / 10, "Z"): "51ac39007e3f8e0e5a2835aaa35aaa969d68695710eed1fb442b2408d757b089",
}


@pytest.mark.parametrize("h, eps, c1, c2", LAB_CASES)
def test_lab_cluster_documents_are_pinned(tmp_path, h, eps, c1, c2):
    """The sha256 of `ptanner nlts clusters` (partition and lemma report)
    on both bases, keyed by (epsilon, c1)."""
    path = tmp_path / "code.json"
    path.write_text(dumps(hypergraph_product(h)))
    for basis in ("X", "Z"):
        out = tmp_path / f"{basis}.json"
        constants = ["--eps", repr(eps), "--c1", repr(c1), "--c2", repr(c2)]
        assert main(["nlts", "clusters", "--code", str(path), *constants,
                     "--basis", basis, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == LAB_CLUSTER_DIGESTS[eps, c1, basis]


def test_spread_masses_do_not_depend_on_blas_threads(tmp_path):
    """One toric spread of a random state through the CLI, in a process
    with one OpenBLAS thread and in one with two: the masses agree to the
    bit."""
    path = tmp_path / "toric.json"
    path.write_text(dumps(hypergraph_product([[1, 1, 0], [0, 1, 1], [1, 0, 1]])))
    argv = ["nlts", "spread", "--code", str(path), "--eps", "0.125", "--c1", "0.1", "--seed", "7"]
    script = "import sys; from ptanner.cli import main; sys.exit(main(sys.argv[1:]))"
    masses = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run([sys.executable, "-c", script, *argv], env=env,
                             capture_output=True, text=True, check=True)
        [trial] = json.loads(run.stdout)
        masses.append([trial[b][m].hex() for b in ("x", "z") for m in ("mass0", "mass1")])
    assert masses[0] == masses[1]
