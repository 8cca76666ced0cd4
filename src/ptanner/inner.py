"""Small inner code pairs and their product-expansion certificates.

A pair of length-n codes (C1, C2) is scored by how robustly elements of
C1 (x) F^n + F^n (x) C2 decompose into a column part (every column in C1)
plus a row part (every row in C2).  Writing D(x) for the cheapest
decomposition cost |c|_col + |r|_row, the pair's expansion constant is

    rho* = min over nonzero x of |x| / (n * D(x)),

computed exactly by enumeration when budgets allow, and otherwise screened
by distance bounds plus a randomized falsifier that never reports a
violation it cannot re-verify exactly.

The planted samplers draw codes containing the all-ones word (or contained
in its orthogonal hyperplane) uniformly; appending independent uniform
completions hits every such code equally often.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice

import numpy as np

from .errors import BudgetExceeded, DomainError, SearchExhausted
from .gf import (
    DEFAULT_ENUMERATION_BUDGET,
    LinearCode,
    iter_codewords,
    iter_vectors,
    min_distance,
)
from .jsonio import loads

__all__ = [
    "InnerCodePair",
    "ProductExpansionReport",
    "sample_planted_code",
    "sample_sum_zero_code",
    "product_expansion_exact",
    "product_expansion_falsify",
    "search_inner_pair",
    "property_star_check",
    "q_entropy",
    "q_entropy_inv",
]

EXACT_CERTIFY_BUDGET = 2**20
FALSIFY_BLOCK = 4096  # most falsifier candidates built and screened at a time


def _rng_vector(rng: random.Random, p: int, n: int) -> np.ndarray:
    return np.array([rng.randrange(p) for _ in range(n)], dtype=np.int64)


def sample_planted_code(p: int, n: int, k: int, seed: int = 0) -> LinearCode:
    """Uniform k-dimensional code containing the all-ones word.

    The all-ones word plus k-1 independent uniform vectors: every such code
    is hit by the same number of completion tuples, so the law is exactly
    uniform over codes containing all-ones.
    """
    if not 1 <= k <= n:
        raise DomainError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = random.Random(f"planted:{p}:{n}:{k}:{seed}")
    ones = np.ones(n, dtype=np.int64)
    while True:
        code = LinearCode(p, n, [ones] + [_rng_vector(rng, p, n) for _ in range(k - 1)])
        if code.dim == k:
            return code


def sample_sum_zero_code(p: int, n: int, k: int, seed: int = 0) -> LinearCode:
    """Uniform k-dimensional code whose dual contains the all-ones word.

    Equivalently a uniform k-dimensional subcode of the coordinate-sum-zero
    hyperplane: independent uniform vectors with last entry completing the
    sum to zero.
    """
    if not 0 <= k <= n - 1:
        raise DomainError(f"need 0 <= k <= n-1, got k={k}, n={n}")
    rng = random.Random(f"sumzero:{p}:{n}:{k}:{seed}")
    if k == 0:
        return LinearCode(p, n)
    while True:
        rows = []
        for _ in range(k):
            v = _rng_vector(rng, p, n)
            v[-1] = (-int(v[:-1].sum())) % p
            rows.append(v)
        code = LinearCode(p, n, rows)
        if code.dim == k:
            return code


# ---- product expansion ------------------------------------------------


@dataclass
class ProductExpansionReport:
    rho: Fraction | float
    exact: bool
    mode: str
    num_candidates: int
    witness: np.ndarray | None = None
    witness_column_part: np.ndarray | None = None
    witness_row_part: np.ndarray | None = None
    notes: dict = field(default_factory=dict)


def _tagged_basis(code1: LinearCode, code2: LinearCode):
    """Independent spanning subset of the decomposition space, each basis
    element a pure column-type or row-type matrix (flattened length n^2)."""
    n, p = code1.n, code1.p
    eye = np.eye(n, dtype=np.int64)
    cols = [np.outer(u, eye[j]) for u in code1.basis for j in range(n)]  # column j is u
    rows = [np.outer(eye[i], v) for i in range(n) for v in code2.basis]  # row i is v
    candidates = np.array(cols + rows, dtype=np.int64).reshape(-1, n * n)
    tags = ["col"] * len(cols) + ["row"] * len(rows)
    # a candidate is independent of those before it exactly when it is a
    # pivot column of the candidates taken as columns
    keep = LinearCode(p, len(tags), candidates.T).pivots
    return candidates[keep], [tags[i] for i in keep]


def _tensor_codewords(code1: LinearCode, code2: LinearCode) -> np.ndarray:
    """All p^(k1*k2) codewords of the tensor code, flattened, as rows."""
    gens = [np.outer(u, v).reshape(-1) for u in code1.basis for v in code2.basis]
    tensor = LinearCode(code1.p, code1.n * code2.n, gens)
    return np.concatenate(list(iter_codewords(tensor, budget=None)))


def _pair_preconditions(code1: LinearCode, code2: LinearCode) -> tuple[int, int]:
    if code1.p != code2.p:
        raise DomainError("codes over different fields")
    if code1.n != code2.n:
        raise DomainError("codes of different lengths")
    return code1.p, code1.n


def _decomposition_costs(
    col_parts: np.ndarray, row_parts: np.ndarray, tensor_words: np.ndarray, n: int, p: int
) -> np.ndarray:
    """Best decomposition cost for each candidate.

    col_parts/row_parts: (chunk, n^2) particular decompositions.  Shifting
    by every tensor codeword covers all decompositions, since two valid
    column parts differ by an element of the tensor code.
    """
    c = (col_parts[:, None, :] + tensor_words[None, :, :]) % p
    r = (row_parts[:, None, :] - tensor_words[None, :, :]) % p
    c = c.reshape(c.shape[0], c.shape[1], n, n)
    r = r.reshape(r.shape[0], r.shape[1], n, n)
    col_w = (c != 0).any(axis=2).sum(axis=2)
    row_w = (r != 0).any(axis=3).sum(axis=2)
    return (col_w + row_w).min(axis=1)


def _cost_chunk(tensor_words: np.ndarray, n: int) -> int:
    """Candidates per `_decomposition_costs` call: its arrays hold at most
    2^21 (candidate, shift, cell) entries."""
    return max(1, 2**21 // max(tensor_words.shape[0] * n * n, 1))


def _exact_feasible(code1: LinearCode, code2: LinearCode, budget: int) -> bool:
    """Whether full enumeration fits `budget`: at most `budget` candidates
    and at most 64 * `budget` (candidate, tensor shift) pairs."""
    p, n = code1.p, code1.n
    dim = code1.dim * n + code2.dim * n - code1.dim * code2.dim
    cost = (p**dim) * (p ** (code1.dim * code2.dim))
    return p**dim <= budget and cost <= budget * 64


def product_expansion_exact(
    code1: LinearCode,
    code2: LinearCode,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> ProductExpansionReport:
    """Exact expansion constant by full enumeration, in rational arithmetic."""
    p, n = _pair_preconditions(code1, code2)
    expected_dim = code1.dim * n + code2.dim * n - code1.dim * code2.dim
    if not _exact_feasible(code1, code2, budget):
        raise BudgetExceeded(
            f"exact check needs {p**expected_dim} candidates x "
            f"{p ** (code1.dim * code2.dim)} shifts, over budget {budget}; "
            "`budget` (pipeline budgets.exact_certify) lifts it"
        )
    basis, tags = _tagged_basis(code1, code2)
    dim = basis.shape[0]
    assert dim == expected_dim, "decomposition space has unexpected dimension"
    if dim == 0:
        return ProductExpansionReport(
            rho=math.inf, exact=True, mode="exact", num_candidates=0,
            notes={"vacuous": True},
        )
    total = p**dim
    tensor_words = _tensor_codewords(code1, code2)
    col_mask = np.array([t == "col" for t in tags])
    best = None  # (weight, cost) of the least ratio weight / (n * cost) so far
    witness = None
    chunk = _cost_chunk(tensor_words, n)
    for coeffs in iter_vectors(p, dim, budget=None, chunk=chunk):
        xs = (coeffs @ basis) % p
        weights = np.count_nonzero(xs, axis=1)
        col_parts = (coeffs * col_mask[None, :]) @ basis % p
        row_parts = (coeffs * (~col_mask)[None, :]) @ basis % p
        costs = _decomposition_costs(col_parts, row_parts, tensor_words, n, p)
        for i in np.flatnonzero(weights).tolist():
            w, cost = int(weights[i]), int(costs[i])
            if best is None or w * best[1] < best[0] * cost:
                best = (w, cost)
                witness = (xs[i].copy(), col_parts[i].copy(), row_parts[i].copy())
    assert best is not None
    x, c0, r0 = witness
    return ProductExpansionReport(
        rho=Fraction(best[0], n * best[1]),
        exact=True,
        mode="exact",
        num_candidates=total,
        witness=x.reshape(n, n),
        witness_column_part=c0.reshape(n, n),
        witness_row_part=r0.reshape(n, n),
        notes={"space_dim": dim},
    )


def _violates(w: np.ndarray, cost: np.ndarray, num: int, den: int) -> np.ndarray:
    """Per candidate, cost > 0 and w < (num / den) * cost, in exact integers."""
    return (cost > 0) & (w.astype(object) * den < cost.astype(object) * num)


def product_expansion_falsify(
    code1: LinearCode,
    code2: LinearCode,
    rho: Fraction | float,
    trials: int = 500,
    seed: int = 0,
) -> np.ndarray | None:
    """Search for x with |x| < rho * n * D(x); None when nothing is found.

    Candidates start with structured guesses (single codeword columns and
    rows, then pairwise sums of the first 40) before random mixes of a few
    codeword columns and rows.  Each candidate keeps the column part and
    row part it is built from, so no system is solved for them: any valid
    decomposition bounds D(x) from above, which discards hopeless
    candidates cheaply, and a candidate is only reported after its exact
    decomposition cost confirms the violation, so a returned witness is
    never false.  The first violator in candidate order is returned.

    Candidates are screened in blocks, with weights and upper bounds for a
    whole block at once and the exact costs of its survivors in
    `_cost_chunk`s, as in `product_expansion_exact`.  Blocks double from one
    candidate up to FALSIFY_BLOCK, so a violator found early costs at most
    about twice the candidates before it, and a long search few blocks.
    """
    p, n = _pair_preconditions(code1, code2)
    rho = Fraction(rho).limit_denominator(10**9)
    # w < rho * n * cost, compared in integers
    num, den = rho.numerator * n, rho.denominator
    rng = random.Random(f"falsify:{seed}")
    if code1.dim == 0 and code2.dim == 0:
        return None
    tensor_words = _tensor_codewords(code1, code2)
    chunk = _cost_chunk(tensor_words, n)

    zero, eye = np.zeros((n, n), dtype=np.int64), np.eye(n, dtype=np.int64)
    # (column part, row part): column j is u, then row i is v, codeword-major
    structured = [(np.outer(u, eye[j]), zero) for u in code1.basis for j in range(n)]
    structured += [(zero, np.outer(eye[i], v)) for v in code2.basis for i in range(n)]
    snapshot = structured[:40]
    structured += [
        ((c_a + c_b) % p, (r_a + r_b) % p)
        for a, (c_a, r_a) in enumerate(snapshot)
        for c_b, r_b in snapshot[a + 1 :]
    ]

    def random_candidate() -> tuple[np.ndarray, np.ndarray]:
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

    # random candidates are drawn only once the structured ones run out, in order
    queue = islice(chain(structured, iter(random_candidate, None)), max(trials, 0))
    size = 1
    while block := list(islice(queue, size)):
        size = min(2 * size, FALSIFY_BLOCK)
        c0 = np.array([c for c, _ in block])
        r0 = np.array([r for _, r in block])
        mats = (c0 + r0) % p
        w = np.count_nonzero(mats, axis=(1, 2))
        upper = (c0 != 0).any(axis=1).sum(axis=1) + (r0 != 0).any(axis=2).sum(axis=1)
        # D(x) is at most the kept decomposition's cost: past it, no violation
        live = np.flatnonzero((w > 0) & _violates(w, upper, num, den))
        for at in range(0, live.size, chunk):
            part = live[at : at + chunk]
            flat = (c0[part].reshape(part.size, -1), r0[part].reshape(part.size, -1))
            costs = _decomposition_costs(*flat, tensor_words, n, p)
            hit = np.flatnonzero(_violates(w[part], costs, num, den))
            if hit.size:
                return mats[part[hit[0]]]
    return None


# ---- pair search ------------------------------------------------------


@dataclass
class InnerCodePair:
    """A planted inner pair: all-ones in code_a, all-ones in code_b's dual."""

    p: int
    n: int
    code_a: LinearCode
    code_b: LinearCode
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        ones = np.ones(self.n, dtype=np.int64)
        if not self.code_a.contains(ones):
            raise DomainError("code_a does not contain the all-ones word")
        if not self.code_b.dual().contains(ones):
            raise DomainError("dual of code_b does not contain the all-ones word")

    def to_doc(self) -> dict:
        prov = {
            k: (str(v) if isinstance(v, Fraction) else v)
            for k, v in self.provenance.items()
        }
        return {
            "p": self.p,
            "n": self.n,
            "dim_a": self.code_a.dim,
            "dim_b": self.code_b.dim,
            "basis_a": self.code_a.basis.tolist(),
            "basis_b": self.code_b.basis.tolist(),
            "provenance": prov,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "InnerCodePair":
        return cls(
            p=doc["p"],
            n=doc["n"],
            code_a=LinearCode(doc["p"], doc["n"], doc["basis_a"]),
            code_b=LinearCode(doc["p"], doc["n"], doc["basis_b"]),
            provenance=doc.get("provenance", {}),
        )

    @classmethod
    def from_json(cls, text: str) -> "InnerCodePair":
        return loads(text, cls.from_doc)


def _certify_pair(
    code1: LinearCode,
    code2: LinearCode,
    rho_target: Fraction,
    exact_budget: int,
    falsify_trials: int,
    seed: int,
) -> tuple[str, Fraction | float | None]:
    """Returns (level, rho) where level is 'exact', 'screened', or 'failed'."""
    if any(min_distance(code) < rho_target * code1.n for code in (code1, code2)):
        return "failed", None
    if _exact_feasible(code1, code2, exact_budget):
        report = product_expansion_exact(code1, code2, budget=exact_budget)
        if report.rho >= rho_target:
            return "exact", report.rho
        return "failed", report.rho
    witness = product_expansion_falsify(
        code1, code2, rho_target, trials=falsify_trials, seed=seed
    )
    if witness is not None:
        return "failed", None
    return "screened", None


def positive_rational(value) -> Fraction:
    """rho_target as the search certifies it: a positive number, as the
    nearest fraction with denominator at most 10^9."""
    try:
        rho = Fraction(value).limit_denominator(10**9)
    except (TypeError, ValueError, ZeroDivisionError, OverflowError):
        rho = None
    if rho is None or rho <= 0:
        raise DomainError(f"rho_target must be a positive rational, got {value!r}")
    return rho


def search_inner_pair(
    p: int,
    delta: int,
    k_a: int,
    k_b: int,
    rho_target: Fraction | float = Fraction(1, 8),
    budget: int = 200,
    seed: int = 0,
    exact_budget: int = EXACT_CERTIFY_BUDGET,
    falsify_trials: int = 400,
) -> InnerCodePair:
    """Randomized search for a planted pair certified at rho_target.

    Both the pair and its component-wise dual pair must certify: exactly
    when enumeration fits the budget, otherwise by distance screening plus
    a falsification pass.  The provenance records which ladder rung each
    certificate came from.
    """
    rho_target = positive_rational(rho_target)
    for trial in range(budget):
        code_a = sample_planted_code(p, delta, k_a, seed=seed * 100003 + trial)
        code_b = sample_sum_zero_code(p, delta, k_b, seed=seed * 100003 + trial)
        level_primal, rho_primal = _certify_pair(
            code_a, code_b, rho_target, exact_budget, falsify_trials, seed + trial
        )
        if level_primal == "failed":
            continue
        level_dual, rho_dual = _certify_pair(
            code_a.dual(), code_b.dual(), rho_target, exact_budget, falsify_trials,
            seed + trial + 1,
        )
        if level_dual == "failed":
            continue
        certification = "exact" if (level_primal, level_dual) == ("exact", "exact") else "screened"
        return InnerCodePair(
            p=p,
            n=delta,
            code_a=code_a,
            code_b=code_b,
            provenance={
                "certification": certification,
                "certification_primal": level_primal,
                "certification_dual": level_dual,
                "rho_target": rho_target,
                "rho_primal": rho_primal,
                "rho_dual": rho_dual,
                "candidates_tried": trial + 1,
                "seed": seed,
            },
        )
    raise SearchExhausted(
        f"no pair certified at rho >= {rho_target} in {budget} candidates "
        f"(p={p}, delta={delta}, k_a={k_a}, k_b={k_b})"
    )


# ---- sparse-subspace screening ----------------------------------------


def property_star_check(
    code: LinearCode,
    alpha: float | None = None,
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> bool:
    """Check that sparse subspaces intersect the code in low dimension.

    For every subspace V of dimension m in 1..(n - dim) spanned by vectors
    of weight <= alpha*n, require dim(code /\\ V) < m/2.  The default alpha
    is the entropy inverse of (n - dim)/(8n); at toy lengths this usually
    admits no sparse vectors at all, so the check is vacuous unless an
    explicit alpha is supplied.
    """
    p, n = code.p, code.n
    r = n - code.dim
    if r == 0:
        return True
    if alpha is None:
        alpha = q_entropy_inv(r / (8 * n), p)
    limit = alpha * n + 1e-12
    sparse = [
        tuple(v)
        for block in iter_vectors(p, n, budget)
        for v in block[np.count_nonzero(block, axis=1) <= limit].tolist()
        if any(v)
    ]
    if not sparse:
        return True

    def span_set(vectors: list[tuple[int, ...]]) -> frozenset[tuple[int, ...]]:
        span = LinearCode(p, n, vectors)
        return frozenset(
            tuple(w) for block in iter_codewords(span, budget=None) for w in block.tolist()
        )

    examined = 0
    level: dict[frozenset, list[tuple[int, ...]]] = {}
    for v in sparse:
        key = span_set([v])
        level.setdefault(key, [v])
    for m in range(1, r + 1):
        next_level: dict[frozenset, list[tuple[int, ...]]] = {}
        for key, gens in level.items():
            examined += 1
            if examined > budget:
                raise BudgetExceeded(f"sparse subspaces over budget {budget}; `budget` lifts it")
            inter = sum(1 for w in key if code.contains(np.array(w)))
            inter_dim = round(math.log(inter, p))
            if inter_dim >= m / 2:
                return False
            if m < r:
                for v in sparse:
                    if v in key:
                        continue
                    bigger = span_set(gens + [v])
                    next_level.setdefault(bigger, gens + [v])
        level = next_level
        if not level:
            break
    return True


# ---- entropy ----------------------------------------------------------


def q_entropy(x: float, q: int) -> float:
    """q-ary entropy; 0 at x=0, 1 at x = 1 - 1/q."""
    if q < 2:
        raise DomainError(f"entropy base must be >= 2, got {q}")
    if not 0 <= x <= 1:
        raise DomainError(f"entropy argument {x} outside [0, 1]")
    total = x * math.log(q - 1, q) if q > 2 else 0.0
    if 0 < x:
        total -= x * math.log(x, q)
    if x < 1:
        total -= (1 - x) * math.log(1 - x, q)
    return total


def q_entropy_inv(y: float, q: int) -> float:
    """Inverse of q_entropy on [0, 1 - 1/q], by bisection to 1e-12."""
    if q < 2:
        raise DomainError(f"entropy base must be >= 2, got {q}")
    if not 0 <= y <= 1:
        raise DomainError(f"entropy value {y} outside [0, 1]")
    lo, hi = 0.0, 1.0 - 1.0 / q
    for _ in range(100):
        mid = (lo + hi) / 2
        if q_entropy(mid, q) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2
