"""Inner pair tests.

The product-expansion checker is validated against a from-scratch oracle
that filters matrices by dual orthogonality and tries every column part
by brute force; nothing is shared with the implementation under test.
The falsifier is checked against its earlier forms: one that solved for
each candidate's decomposition over a tagged basis, and the loop that
scored the kept decompositions one candidate at a time.
"""

import math
import random
from fractions import Fraction
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptanner.errors import BudgetExceeded, DomainError, SearchExhausted
from ptanner.gf import LinearCode, kernel_basis, min_distance, solve
from ptanner.inner import (
    InnerCodePair,
    product_expansion_exact,
    product_expansion_falsify,
    property_star_check,
    q_entropy,
    q_entropy_inv,
    sample_planted_code,
    sample_sum_zero_code,
    search_inner_pair,
)
import ptanner.inner as inner
from ptanner.inner import (
    _decomposition_costs,
    _exact_feasible,
    _tagged_basis,
    _tensor_codewords,
)


def all_matrices(p, n):
    for flat in product(range(p), repeat=n * n):
        yield np.array(flat, dtype=np.int64).reshape(n, n)


def oracle_product_expansion(code1, code2):
    """Independent route: membership via dual tensor checks, cost via brute
    force over every admissible column part."""
    p, n = code1.p, code1.n
    dual1, dual2 = code1.dual().basis, code2.dual().basis
    checks = [np.outer(u, v) % p for u in dual1 for v in dual2]
    k1 = code1.dim
    best = None
    for x in all_matrices(p, n):
        if not x.any():
            continue
        if any(int((x * chk).sum()) % p for chk in checks):
            continue
        cost = oracle_cost(code1, code2, x)
        assert cost is not None, "member of the space must decompose"
        ratio = Fraction(int(np.count_nonzero(x)), n * cost)
        if best is None or ratio < best:
            best = ratio
    return math.inf if best is None else best


def oracle_cost(code1, code2, x):
    p, n = code1.p, code1.n
    dual2 = code2.dual().basis
    k1 = code1.dim
    best = None
    for coeff_flat in product(range(p), repeat=k1 * n):
        coeffs = np.array(coeff_flat, dtype=np.int64).reshape(n, k1)
        c = (coeffs @ code1.basis).T % p if k1 else np.zeros((n, n), dtype=np.int64)
        r = (x - c) % p
        ok = True
        for row in r:
            if dual2.size and ((dual2 @ row) % p).any():
                ok = False
                break
            if not dual2.size and code2.dim == 0 and row.any():
                ok = False
                break
        if not ok:
            continue
        cost = int((c != 0).any(axis=0).sum() + (r != 0).any(axis=1).sum())
        best = cost if best is None else min(best, cost)
    return best


def rep_code(p, n):
    return LinearCode(p, n, [np.ones(n, dtype=np.int64)])


def test_exact_matches_oracle_repetition_pair():
    c = rep_code(2, 3)
    rep = product_expansion_exact(c, c)
    assert rep.exact and rep.mode == "exact"
    assert rep.num_candidates == 2**5  # dim 3 + 3 - 1
    assert rep.notes["space_dim"] == 5
    assert rep.rho == oracle_product_expansion(c, c)


def test_exact_matches_oracle_various_gf2_pairs():
    even3 = LinearCode(2, 3, [[1, 1, 0], [0, 1, 1]])
    single = LinearCode(2, 3, [[1, 0, 1]])
    for c1, c2 in [(rep_code(2, 3), even3), (even3, single), (single, single)]:
        assert product_expansion_exact(c1, c2).rho == oracle_product_expansion(c1, c2)


def test_exact_matches_oracle_gf3():
    c1 = LinearCode(3, 3, [[1, 1, 1]])
    c2 = LinearCode(3, 3, [[1, 2, 0]])
    assert product_expansion_exact(c1, c2).rho == oracle_product_expansion(c1, c2)


def test_exact_witness_is_consistent():
    c = rep_code(2, 3)
    rep = product_expansion_exact(c, c)
    x = rep.witness
    total = (rep.witness_column_part + rep.witness_row_part) % 2
    assert (total == x).all()
    for col in rep.witness_column_part.T:
        assert c.contains(col)
    for row in rep.witness_row_part:
        assert c.contains(row)


def test_vacuous_pair_reports_infinite_rho():
    zero = LinearCode(2, 3)
    rep = product_expansion_exact(zero, zero)
    assert rep.rho == math.inf
    assert rep.notes.get("vacuous")


def test_rho_bounded_by_distances():
    # the expansion constant never exceeds either minimum distance over n
    pairs = [
        (rep_code(2, 3), rep_code(2, 3)),
        (LinearCode(2, 4, [[1, 1, 1, 1], [1, 1, 0, 0]]), rep_code(2, 4)),
        (LinearCode(3, 3, [[1, 1, 1]]), LinearCode(3, 3, [[0, 1, 2]])),
    ]
    for c1, c2 in pairs:
        rho = product_expansion_exact(c1, c2).rho
        assert rho * c1.n <= min_distance(c1)
        assert rho * c1.n <= min_distance(c2)


def test_codim_one_subcode_degradation_bound():
    # dropping one dimension can cost at most a square-and-halve
    c1 = LinearCode(2, 4, [[1, 1, 1, 1], [1, 1, 0, 0]])
    c2 = LinearCode(2, 4, [[1, 1, 1, 1]])
    rho = product_expansion_exact(c1, c2).rho
    for functional in [[1, 0], [0, 1], [1, 1]]:
        sub_coeffs = kernel_basis(np.array([functional]), 2)
        sub = LinearCode(2, 4, (sub_coeffs @ c1.basis) % 2)
        assert sub.dim == c1.dim - 1
        rho_sub = product_expansion_exact(sub, c2).rho
        assert rho_sub >= rho * rho / 2


def test_falsifier_never_reports_at_exact_rho():
    for c1, c2 in [
        (rep_code(2, 3), rep_code(2, 3)),
        (LinearCode(2, 4, [[1, 1, 1, 1], [1, 1, 0, 0]]), rep_code(2, 4)),
    ]:
        rho_star = product_expansion_exact(c1, c2).rho
        assert product_expansion_falsify(c1, c2, rho_star, trials=300, seed=3) is None


def test_falsifier_finds_violation_above_exact_rho():
    c = rep_code(2, 3)
    rho_star = product_expansion_exact(c, c).rho
    witness = product_expansion_falsify(c, c, Fraction(6, 5), trials=300, seed=1)
    assert witness is not None
    assert rho_star < Fraction(6, 5)
    # confirm independently that the witness violates the claimed bound
    cost = oracle_cost(c, c, witness)
    assert np.count_nonzero(witness) < Fraction(6, 5) * 3 * cost


def oracle_falsify(code1, code2, rho, trials=500, seed=0):
    """The falsifier as it was: the same candidates, each decomposed by
    solving against the tagged basis of the decomposition space."""
    p, n = code1.p, code1.n
    rho = Fraction(rho).limit_denominator(10**9)
    rng = random.Random(f"falsify:{seed}")
    basis, tags = _tagged_basis(code1, code2)
    if basis.shape[0] == 0:
        return None
    col_mask = np.array([t == "col" for t in tags])
    tensor_words = _tensor_codewords(code1, code2)

    structured = []
    for u in code1.basis:
        for j in range(n):
            mat = np.zeros((n, n), dtype=np.int64)
            mat[:, j] = u
            structured.append(mat)
    for v in code2.basis:
        for i in range(n):
            mat = np.zeros((n, n), dtype=np.int64)
            mat[i, :] = v
            structured.append(mat)
    snapshot = structured[:40]
    for a in range(len(snapshot)):
        for b in range(a + 1, len(snapshot)):
            structured.append((snapshot[a] + snapshot[b]) % p)

    def random_candidate():
        mat = np.zeros((n, n), dtype=np.int64)
        n_cols = rng.randint(0, min(3, n))
        n_rows = rng.randint(0 if n_cols else 1, min(3, n))
        for j in rng.sample(range(n), n_cols):
            coeffs = [rng.randrange(p) for _ in range(code1.dim)]
            mat[:, j] = (mat[:, j] + np.array(coeffs) @ code1.basis) % p
        for i in rng.sample(range(n), n_rows):
            coeffs = [rng.randrange(p) for _ in range(code2.dim)]
            mat[i, :] = (mat[i, :] + np.array(coeffs) @ code2.basis) % p
        return mat

    tried = 0
    queue = iter(structured)
    while tried < trials:
        mat = next(queue, None)
        if mat is None:
            mat = random_candidate()
        tried += 1
        w = int(np.count_nonzero(mat))
        if w == 0:
            continue
        coeffs = solve(basis.T, mat.reshape(-1) % p, p)
        if coeffs is None:
            continue
        c0 = (coeffs * col_mask) @ basis % p
        r0 = (coeffs * ~col_mask) @ basis % p
        upper = int(
            (c0.reshape(n, n) != 0).any(axis=0).sum()
            + (r0.reshape(n, n) != 0).any(axis=1).sum()
        )
        if upper == 0 or Fraction(w) >= rho * n * upper:
            continue
        cost = int(
            _decomposition_costs(
                c0.reshape(1, -1), r0.reshape(1, -1), tensor_words, n, p
            )[0]
        )
        if cost > 0 and Fraction(w) < rho * n * cost:
            return mat % p
    return None


@settings(max_examples=150, deadline=None)
@given(
    p=st.sampled_from([2, 3]),
    n=st.integers(2, 5),
    k1=st.integers(0, 2),
    k2=st.integers(0, 2),
    rho=st.fractions(Fraction(1, 16), Fraction(3, 2)),
    trials=st.integers(0, 120),
    data=st.data(),
)
def test_falsifier_matches_solve_oracle(p, n, k1, k2, rho, trials, data):
    """The kept decompositions give the same witness (or the same None) as
    solving for every candidate's decomposition."""

    def code(k):
        rows = data.draw(st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            min_size=k, max_size=k,
        ))
        return LinearCode(p, n, rows)

    code1, code2 = code(k1), code(k2)
    seed = data.draw(st.integers(0, 10**6))
    got = product_expansion_falsify(code1, code2, rho, trials=trials, seed=seed)
    want = oracle_falsify(code1, code2, rho, trials=trials, seed=seed)
    assert (got is None) == (want is None)
    if got is not None:
        assert got.dtype == want.dtype and (got == want).all()


def loop_falsify(code1, code2, rho, trials=500, seed=0):
    """The falsifier one candidate at a time: the same candidates, each
    kept decomposition screened by its upper bound and then scored alone."""
    p, n = code1.p, code1.n
    rho = Fraction(rho).limit_denominator(10**9)
    num, den = rho.numerator * n, rho.denominator
    rng = random.Random(f"falsify:{seed}")
    if code1.dim == 0 and code2.dim == 0:
        return None
    tensor_words = _tensor_codewords(code1, code2)

    zero, eye = np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)
    structured = [(np.outer(u, eye[j]), zero) for u in code1.basis for j in range(n)]
    structured += [(zero, np.outer(eye[i], v)) for v in code2.basis for i in range(n)]
    snapshot = structured[:40]
    structured += [
        ((c_a + c_b) % p, (r_a + r_b) % p)
        for a, (c_a, r_a) in enumerate(snapshot)
        for c_b, r_b in snapshot[a + 1 :]
    ]

    def random_candidate():
        col_part, row_part = zero.copy(), zero.copy()
        n_cols = rng.randint(0, min(3, n))
        n_rows = rng.randint(0 if n_cols else 1, min(3, n))
        for j in rng.sample(range(n), n_cols):
            coeffs = [rng.randrange(p) for _ in range(code1.dim)]
            col_part[:, j] = np.array(coeffs, dtype=np.int64) @ code1.basis % p
        for i in rng.sample(range(n), n_rows):
            coeffs = [rng.randrange(p) for _ in range(code2.dim)]
            row_part[i, :] = np.array(coeffs, dtype=np.int64) @ code2.basis % p
        return col_part, row_part

    queue = iter(structured)
    for _ in range(trials):
        parts = next(queue, None)
        c0, r0 = parts if parts is not None else random_candidate()
        mat = (c0 + r0) % p
        w = int(np.count_nonzero(mat))
        if w == 0:
            continue
        upper = int((c0 != 0).any(axis=0).sum() + (r0 != 0).any(axis=1).sum())
        if w * den >= num * upper:
            continue
        flat = (c0.reshape(1, -1), r0.reshape(1, -1))
        cost = int(_decomposition_costs(*flat, tensor_words, n, p)[0])
        if cost > 0 and w * den < num * cost:
            return mat
    return None


def structured_count(code1, code2):
    singles = (code1.dim + code2.dim) * code1.n
    return singles + math.comb(min(singles, 40), 2)


def assert_same_witness(got, want):
    assert (got is None) == (want is None)
    if got is not None:
        assert got.dtype == want.dtype and got.shape == want.shape and (got == want).all()


@pytest.mark.parametrize("p, n, k1, k2", [(2, 5, 2, 3), (2, 5, 3, 2), (2, 6, 3, 3), (3, 4, 2, 2)])
@pytest.mark.parametrize("rho", [Fraction(1, 8), Fraction(1, 2), Fraction(5, 4)])
def test_batched_falsifier_matches_loop(p, n, k1, k2, rho):
    """Structured candidates only, and structured then random, on sampled
    planted pairs and their duals; with small blocks and cost chunks too, so
    a hit late in a block or a chunk shows."""
    for seed in range(2):
        code1 = sample_planted_code(p, n, k1, seed=seed)
        code2 = sample_sum_zero_code(p, n, k2, seed=seed)
        for c1, c2 in ((code1, code2), (code1.dual(), code2.dual())):
            structured = structured_count(c1, c2)
            for trials in (structured // 2, structured + 75):
                want = loop_falsify(c1, c2, rho, trials=trials, seed=seed)
                got = product_expansion_falsify(c1, c2, rho, trials=trials, seed=seed)
                assert_same_witness(got, want)
                with mock.patch.object(inner, "FALSIFY_BLOCK", 7), \
                        mock.patch.object(inner, "_cost_chunk", lambda *_: 3):
                    small = product_expansion_falsify(c1, c2, rho, trials=trials, seed=seed)
                assert_same_witness(small, want)


def test_batched_falsifier_hits_and_misses():
    """The cases above include early hits and full misses."""
    c = rep_code(2, 3)
    assert loop_falsify(c, c, Fraction(6, 5), trials=300, seed=1) is not None
    hit = product_expansion_falsify(c, c, Fraction(6, 5), trials=1, seed=1)
    assert_same_witness(hit, loop_falsify(c, c, Fraction(6, 5), trials=1, seed=1))
    code1, code2 = sample_planted_code(2, 5, 2, seed=0), sample_sum_zero_code(2, 5, 3, seed=0)
    assert product_expansion_falsify(code1, code2, Fraction(1, 8), trials=5000) is None
    assert product_expansion_falsify(code1, code2, Fraction(5, 4), trials=5000) is not None


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    p=st.sampled_from([2, 3]),
    n=st.integers(2, 6),
    k1=st.integers(0, 3),
    k2=st.integers(0, 3),
    rho=st.fractions(Fraction(1, 16), Fraction(3, 2)),
    trials=st.integers(0, 600),
    block=st.integers(1, 64),
    chunk=st.integers(1, 9),
    data=st.data(),
)
def test_batched_falsifier_matches_loop_on_random_codes(
    p, n, k1, k2, rho, trials, block, chunk, data
):
    def code(k):
        rows = data.draw(st.lists(
            st.lists(st.integers(0, p - 1), min_size=n, max_size=n),
            min_size=min(k, n), max_size=min(k, n),
        ))
        return LinearCode(p, n, rows)

    code1, code2 = code(k1), code(k2)
    seed = data.draw(st.integers(0, 10**6))
    want = loop_falsify(code1, code2, rho, trials=trials, seed=seed)
    with mock.patch.object(inner, "FALSIFY_BLOCK", block), \
            mock.patch.object(inner, "_cost_chunk", lambda *_: chunk):
        got = product_expansion_falsify(code1, code2, rho, trials=trials, seed=seed)
    assert_same_witness(got, want)
    default = product_expansion_falsify(code1, code2, rho, trials=trials, seed=seed)
    assert_same_witness(default, want)


@pytest.mark.parametrize(
    "c1, c2",
    [
        (rep_code(2, 3), rep_code(2, 3)),
        (LinearCode(2, 3, [[1, 1, 0], [0, 1, 1]]), rep_code(2, 3)),
        (LinearCode(3, 3, [[1, 1, 1]]), LinearCode(3, 3, [[1, 2, 0]])),
        (LinearCode(2, 3), LinearCode(2, 3)),
    ],
)
def test_exact_budget_refusal_matches_feasibility(c1, c2):
    """product_expansion_exact raises exactly when _exact_feasible says no,
    at every budget around the pair's thresholds."""
    for budget in range(0, 2**9):
        if _exact_feasible(c1, c2, budget):
            product_expansion_exact(c1, c2, budget=budget)
        else:
            with pytest.raises(BudgetExceeded):
                product_expansion_exact(c1, c2, budget=budget)


def enumerate_planted_codes(p, n, k):
    """All k-dim codes containing the all-ones word, by brute force."""
    ones = tuple([1] * n)
    seen = {}
    for rows in product(product(range(p), repeat=n), repeat=k - 1):
        code = LinearCode(p, n, [ones] + [list(r) for r in rows])
        if code.dim == k:
            seen[code.basis.tobytes()] = code
    return list(seen.values())


def test_planted_sampler_hits_every_code_uniformly():
    codes = enumerate_planted_codes(2, 4, 2)
    assert len(codes) == 7
    counts = {c.basis.tobytes(): 0 for c in codes}
    draws = 7000
    for i in range(draws):
        c = sample_planted_code(2, 4, 2, seed=i)
        assert c.contains([1, 1, 1, 1])
        counts[c.basis.tobytes()] += 1
    expected = draws / len(codes)
    chi2 = sum((obs - expected) ** 2 / expected for obs in counts.values())
    assert all(v > 0 for v in counts.values())
    assert chi2 < 30.0  # df=6; seeded, so this is a frozen deterministic value


def test_sum_zero_sampler_law():
    seen = set()
    for i in range(400):
        c = sample_sum_zero_code(2, 4, 1, seed=i)
        assert c.dual().contains([1, 1, 1, 1])
        for row in c.basis:
            assert int(row.sum()) % 2 == 0
        seen.add(c.basis.tobytes())
    assert len(seen) == 7  # nonzero even-weight words in GF(2)^4


def test_search_inner_pair_small_exact():
    pair = search_inner_pair(2, 3, 2, 1, rho_target=Fraction(1, 3), budget=60, seed=0)
    assert pair.provenance["certification"] == "exact"
    assert pair.provenance["rho_primal"] >= Fraction(1, 3)
    assert pair.provenance["rho_dual"] >= Fraction(1, 3)
    assert pair.code_a.dim == 2 and pair.code_b.dim == 1
    assert pair.code_a.contains([1, 1, 1])
    assert pair.code_b.dual().contains([1, 1, 1])


def test_search_inner_pair_deterministic():
    a = search_inner_pair(2, 3, 2, 1, rho_target=Fraction(1, 3), budget=60, seed=5)
    b = search_inner_pair(2, 3, 2, 1, rho_target=Fraction(1, 3), budget=60, seed=5)
    assert a.code_a == b.code_a and a.code_b == b.code_b


def test_search_inner_pair_exhausts_on_impossible_target():
    with pytest.raises(SearchExhausted):
        search_inner_pair(2, 3, 2, 1, rho_target=Fraction(3, 2), budget=4, seed=0)


def test_inner_pair_validates_planting():
    good_a = LinearCode(2, 3, [[1, 1, 1], [1, 0, 0]])
    bad_a = LinearCode(2, 3, [[1, 0, 0]])
    good_b = LinearCode(2, 3, [[1, 1, 0]])
    InnerCodePair(2, 3, good_a, good_b)
    with pytest.raises(DomainError):
        InnerCodePair(2, 3, bad_a, good_b)
    with pytest.raises(DomainError):
        InnerCodePair(2, 3, good_a, LinearCode(2, 3, [[1, 0, 0]]))


def test_property_star_vacuous_at_default_alpha():
    assert property_star_check(LinearCode(2, 4)) is True
    assert property_star_check(rep_code(2, 4)) is True


def test_property_star_with_explicit_alpha():
    # a code containing a weight-1 vector fails already at dimension 1
    spiky = LinearCode(2, 4, [[1, 0, 0, 0]])
    assert property_star_check(spiky, alpha=0.3) is False
    # the repetition code meets no sparse subspace nontrivially
    assert property_star_check(rep_code(2, 4), alpha=0.3) is True


def test_entropy_frozen_values():
    assert q_entropy(0.0, 2) == 0.0
    assert q_entropy(0.5, 2) == pytest.approx(1.0, abs=1e-12)
    assert q_entropy(0.25, 2) == pytest.approx(0.8112781244591328, abs=1e-12)
    assert q_entropy(2 / 3, 3) == pytest.approx(1.0, abs=1e-12)
    # independent formula route
    x, q = 0.2, 3
    direct = (
        x * math.log(q - 1) / math.log(q)
        - x * math.log(x) / math.log(q)
        - (1 - x) * math.log(1 - x) / math.log(q)
    )
    assert q_entropy(x, q) == pytest.approx(direct, abs=1e-15)


def test_entropy_inverse_round_trip():
    for q in (2, 3):
        for y in np.linspace(0, 1, 41):
            x = q_entropy_inv(float(y), q)
            assert 0 <= x <= 1 - 1 / q
            assert q_entropy(x, q) == pytest.approx(float(y), abs=1e-12)


def test_entropy_domain_errors():
    with pytest.raises(DomainError):
        q_entropy(-0.1, 2)
    with pytest.raises(DomainError):
        q_entropy(1.1, 2)
    with pytest.raises(DomainError):
        q_entropy_inv(1.5, 2)
    with pytest.raises(DomainError):
        q_entropy(0.5, 1)
