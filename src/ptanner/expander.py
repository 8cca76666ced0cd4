"""Strongly explicit expander graphs from congruence subgroups of SL(2).

The vertex group at level m is the kernel of reduction SL2(Z/p^{m+1}) ->
SL2(Z/p).  Its p^{3m} elements are coordinatized by triples (a, b, c) in
[0, p^m)^3: the matrix is I + p*[[a, b], [c, d]] with d completed so the
determinant is 1.  The group law `_mul` works on the coordinates, as Python ints
(a neighbor query costs poly(m) at any group order) or as int64 arrays, and
carries d along, so a product needs no modular inverse.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy import sparse

from .errors import (
    BudgetExceeded,
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    GenerationFailure,
    GroupMismatch,
    NotInKernel,
)
from .gf import PrimeField
from .jsonio import loads

__all__ = [
    "GroupElement",
    "GeneratorMultiset",
    "CayleyMultigraph",
    "SpectralReport",
    "group_order",
    "identity",
    "element_from_coords",
    "element_from_matrix",
    "element_from_index",
    "cayley_table",
    "coset_split",
    "default_generators",
    "bfs_closure_size",
    "spectral_expansion",
    "spectral_from_adjacency",
]

DENSE_SPECTRUM_BUDGET = 5000
BFS_VERIFY_BUDGET = 4096


def group_order(p: int, m: int) -> int:
    return p ** (3 * m)


@lru_cache(maxsize=64)  # an exception is not cached, so a bad (p, m) raises every time
def _check_level(p: int, m: int) -> None:
    PrimeField(p)
    if m < 1:
        raise DomainError(f"level m must be >= 1, got {m}")


def _mul(p: int, q: int, x, y):
    """(a, b, c, d) of (I + pX)(I + pY) = I + p(X + Y + pXY); ints or int64 arrays."""
    a1, b1, c1, d1 = x
    a2, b2, c2, d2 = y
    return (
        (a1 + a2 + p * (a1 * a2 + b1 * c2)) % q,
        (b1 + b2 + p * (a1 * b2 + b1 * d2)) % q,
        (c1 + c2 + p * (c1 * a2 + d1 * c2)) % q,
        (d1 + d2 + p * (c1 * b2 + d1 * d2)) % q,
    )


def _complete(p: int, q: int, a: int, b: int, c: int) -> int:
    """The d with det(I + p[[a, b], [c, d]]) = 1 mod pq: d(1 + pa) = pbc - a mod q."""
    return pow(1 + p * a, -1, q) * (p * b * c - a) % q


def _decode(p: int, q: int, idx: int) -> tuple[int, int, int, int]:
    """(a, b, c, d) of the element with index idx = a + q b + q^2 c."""
    a, bc = idx % q, idx // q
    b, c = bc % q, bc // q
    return a, b, c, _complete(p, q, a, b, c)


@dataclass(frozen=True)
class GroupElement:
    """Kernel element in coordinate form; the matrix lives mod p^(m+1).

    d is completed from (a, b, c) unless the caller passes it: a product
    and an inverse know theirs.
    """

    p: int
    m: int
    a: int
    b: int
    c: int
    d: int = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.d is None:
            d = _complete(self.p, self.p**self.m, self.a, self.b, self.c)
            object.__setattr__(self, "d", d)

    @property
    def coords(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def matrix(self) -> tuple[int, int, int, int]:
        """I + p[[a, b], [c, d]]; with a, b, c, d < p^m no entry reaches p^(m+1)."""
        p = self.p
        return (1 + p * self.a, p * self.b, p * self.c, 1 + p * self.d)

    @property
    def index(self) -> int:
        q = self.p**self.m
        return self.a + q * self.b + q * q * self.c

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if (self.p, self.m) != (other.p, other.m):
            raise GroupMismatch(f"({self.p},{self.m}) * ({other.p},{other.m})")
        x = (self.a, self.b, self.c, self.d)
        y = (other.a, other.b, other.c, other.d)
        return GroupElement(self.p, self.m, *_mul(self.p, self.p**self.m, x, y))

    def inv(self) -> "GroupElement":
        """(I + pA)^-1 is the adjugate I + p[[d, -b], [-c, a]]."""
        q = self.p**self.m
        return GroupElement(self.p, self.m, self.d, -self.b % q, -self.c % q, self.a)

    def is_identity(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0


def identity(p: int, m: int) -> GroupElement:
    _check_level(p, m)
    return GroupElement(p, m, 0, 0, 0)


def element_from_coords(p: int, m: int, a: int, b: int, c: int) -> GroupElement:
    _check_level(p, m)
    q = p**m
    return GroupElement(p, m, a % q, b % q, c % q)


def element_from_matrix(p: int, m: int, mat) -> GroupElement:
    """Decode a 2x2 matrix mod p^(m+1) back to coordinates.

    Raises NotInKernel unless the matrix is congruent to I mod p and has
    determinant 1 mod p^(m+1); those two conditions pin the coordinates.
    """
    _check_level(p, m)
    mod = p ** (m + 1)
    x = tuple(int(v) % mod for v in mat)
    if len(x) != 4:
        raise DimensionMismatch("expected a flat 2x2 matrix")
    if x[0] % p != 1 or x[3] % p != 1 or x[1] % p != 0 or x[2] % p != 0:
        raise NotInKernel(f"matrix {x} is not congruent to I mod {p}")
    if (x[0] * x[3] - x[1] * x[2]) % mod != 1:
        raise NotInKernel(f"matrix {x} has determinant != 1 mod {mod}")
    q = p**m
    elem = GroupElement(p, m, ((x[0] - 1) // p) % q, (x[1] // p) % q, (x[2] // p) % q)
    if elem.matrix != x:
        raise NotInKernel(f"matrix {x} does not decode consistently")
    return elem


def element_from_index(p: int, m: int, idx: int) -> GroupElement:
    _check_level(p, m)
    q = p**m
    if not 0 <= idx < q**3:
        raise DomainError(f"vertex index {idx} outside [0, {q ** 3})")
    return GroupElement(p, m, *_decode(p, q, idx))


def _group_coords(p: int, m: int):
    """(a, b, c, d) int64 arrays of every element, in index order: the one
    whole-group decode.  BudgetExceeded from order 2^63 on, where the
    indices pass int64; nothing lifts it."""
    q = p**m
    if q**3 > np.iinfo(np.int64).max:
        raise BudgetExceeded(f"{q ** 3} elements pass int64 indices; nothing lifts it")
    c, b, a = np.unravel_index(np.arange(q**3), (q, q, q))
    inv = np.array([pow(1 + p * x, -1, q) for x in range(q)], dtype=np.int64)
    return a, b, c, inv[a] * ((p * b * c - a) % q) % q


def cayley_table(p: int, m: int, elements) -> np.ndarray:
    """(len(elements), p^(3m)) int64 table: row j holds the index of s_j * g
    for every element index g."""
    _check_level(p, m)
    q, g = p**m, _group_coords(p, m)
    table = np.empty((len(elements), q**3), dtype=np.int64)
    for j, s in enumerate(elements):
        if (s.p, s.m) != (p, m):
            raise GroupMismatch(f"element of ({s.p},{s.m}) in a table of ({p},{m})")
        a, b, c, _ = _mul(p, q, (s.a, s.b, s.c, s.d), g)
        table[j] = a + q * (b + q * c)
    return table


def coset_split(p: int, m: int, idx):
    """Split vertex g = t.n over the central N = {I + p^m U}, m >= 2: the
    index t < p^(3(m-1)) of the low base-p digits of (a, b, c), which fix gN,
    and u + p v + p^2 w of n's top digits (u, v, w).  Ints or arrays."""
    q, r = p**m, p ** (m - 1)
    a, b, c = idx % q, idx // q % q, idx // (q * q)
    return a % r + r * (b % r + r * (c % r)), a // r + p * (b // r + p * (c // r))


@dataclass(frozen=True)
class GeneratorMultiset:
    """Symmetric generator multiset; pairing[i] points at element i's inverse."""

    p: int
    m: int
    elements: tuple[GroupElement, ...]
    pairing: tuple[int, ...]

    def __post_init__(self):
        _check_level(self.p, self.m)
        for g in self.elements:
            if (g.p, g.m) != (self.p, self.m):
                raise GroupMismatch("generator from a different group")
        if len(self.pairing) != len(self.elements):
            raise DimensionMismatch("pairing length mismatch")
        for i, j in enumerate(self.pairing):
            if self.pairing[j] != i:
                raise DimensionMismatch("pairing is not an involution")
            if self.elements[j] != self.elements[i].inv():
                raise DimensionMismatch(f"generator {i} is not paired with its inverse")

    @property
    def degree(self) -> int:
        return len(self.elements)

    @classmethod
    def from_elements(cls, elements) -> "GeneratorMultiset":
        """Build the pairing by matching each element with an unused inverse."""
        elements = tuple(elements)
        if not elements:
            raise DimensionMismatch("empty generator multiset")
        p, m = elements[0].p, elements[0].m
        pairing = [-1] * len(elements)
        for i, g in enumerate(elements):
            if pairing[i] >= 0:
                continue
            ginv = g.inv()
            if ginv == g:
                pairing[i] = i
                continue
            for j in range(i + 1, len(elements)):
                if pairing[j] < 0 and elements[j] == ginv:
                    pairing[i], pairing[j] = j, i
                    break
            else:
                raise DimensionMismatch(f"no inverse present for generator {i}")
        return cls(p, m, elements, tuple(pairing))

    def to_doc(self) -> dict:
        return {
            "p": self.p,
            "m": self.m,
            "degree": self.degree,
            "generators": [g.coords for g in self.elements],
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "GeneratorMultiset":
        elems = [
            element_from_coords(doc["p"], doc["m"], *coords)
            for coords in doc["generators"]
        ]
        return cls.from_elements(elems)

    @classmethod
    def from_json(cls, text: str) -> "GeneratorMultiset":
        return loads(text, cls.from_doc)


@dataclass(frozen=True)
class CayleyMultigraph:
    """Cayley multigraph: vertex v adjacent to s*v for each generator s."""

    generators: GeneratorMultiset

    @property
    def p(self) -> int:
        return self.generators.p

    @property
    def m(self) -> int:
        return self.generators.m

    @property
    def degree(self) -> int:
        return self.generators.degree

    @property
    def num_vertices(self) -> int:
        return group_order(self.p, self.m)

    def neighbor(self, vertex: int, gen_index: int) -> int:
        """Index of generators[gen_index] * vertex; pure coordinate arithmetic."""
        if not 0 <= gen_index < self.degree:
            raise DomainError(
                f"generator index {gen_index} outside [0, {self.degree})"
            )
        g = element_from_index(self.p, self.m, vertex)
        return (self.generators.elements[gen_index] * g).index

    def neighbor_lists(self) -> np.ndarray:
        """(num_vertices, degree) table: row v lists generators[j] * v."""
        return cayley_table(self.p, self.m, self.generators.elements).T

    def adjacency(self, budget: int = DENSE_SPECTRUM_BUDGET) -> np.ndarray:
        n = self.num_vertices
        if n > budget:
            raise DomainError(f"{n} vertices exceeds dense adjacency budget {budget}")
        return self.sparse_adjacency().toarray().astype(np.int64)

    def sparse_adjacency(self) -> sparse.csr_matrix:
        n, deg = self.num_vertices, self.degree
        cells = (np.repeat(np.arange(n), deg), self.neighbor_lists().ravel())
        return sparse.csr_matrix((np.ones(n * deg), cells), shape=(n, n))


def bfs_closure_size(gens: GeneratorMultiset) -> int:
    """Size of the subgroup generated: the identity's component in the Cayley graph.

    In a finite group the forward closure of a multiset is the subgroup it
    generates, so a breadth-first search along `neighbor_lists` suffices.
    """
    table = CayleyMultigraph(gens).neighbor_lists()
    seen = np.zeros(table.shape[0], dtype=bool)
    seen[0] = True  # index 0 is the identity
    frontier = np.zeros(1, dtype=np.int64)
    while frontier.size:
        reached = np.zeros_like(seen)
        reached[table[frontier]] = True
        frontier = np.flatnonzero(reached & ~seen)
        seen |= reached
    return int(np.count_nonzero(seen))


def _direction_tuples(p: int) -> list[tuple[int, int, int]]:
    """Candidate coordinate directions, basis vectors first."""
    base = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    extra = [(1, 1, 0), (0, 1, 1), (1, 0, 1), (1, 1, 1)]
    if p > 2:
        extra += [(1, 2, 0), (2, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 0), (0, 1, 2)]
    return base + [t for t in extra if any(x % p for x in t)]


def _assemble_multiset(
    p: int, m: int, degree: int, directions: list[tuple[int, int, int]]
) -> GeneratorMultiset | None:
    """Fill `degree` slots with inverse-closed generators, identity-padded."""
    chosen: list[GroupElement] = []
    used: set[tuple[int, int, int]] = set()
    remaining = degree
    for v in directions:
        if remaining == 0:
            break
        g = element_from_coords(p, m, *v)
        if g.is_identity() or g.coords in used:
            continue
        ginv = g.inv()
        if ginv == g:
            chosen.append(g)
            used.add(g.coords)
            remaining -= 1
        elif remaining >= 2:
            chosen.extend([g, ginv])
            used.update([g.coords, ginv.coords])
            remaining -= 2
    while remaining > 0:
        chosen.append(identity(p, m))
        remaining -= 1
    if len(chosen) != degree:
        return None
    return GeneratorMultiset.from_elements(chosen)


def default_generators(
    p: int,
    m: int,
    degree: int,
    seed: int = 0,
    require_generation: bool = True,
) -> GeneratorMultiset:
    """Deterministic symmetric generator multiset of the given degree.

    Candidates are assembled from coordinate directions (inverse-closed,
    identity-padded for odd slots), scored by measured expansion at level 1,
    and checked for generation by BFS closure whenever the group is small
    enough; for larger levels, generation at level 1 is the checked proxy.

    Over odd p the group needs three independent directions, so no symmetric
    multiset of degree < 6 generates; with require_generation=False such
    degrees still yield a valid (disconnected) multiset.
    """
    _check_level(p, m)
    if degree < 3:
        raise DomainError(f"degree must be >= 3, got {degree}")
    rng = random.Random(f"default-generators:{p}:{m}:{degree}:{seed}")
    base = _direction_tuples(p)
    orderings = [list(base)]
    for _ in range(5):
        shuffled = list(base)
        rng.shuffle(shuffled)
        orderings.append(shuffled)

    scored: list[tuple[float, int, GeneratorMultiset]] = []
    rejected: list[str] = []
    for rank_i, ordering in enumerate(orderings):
        cand = _assemble_multiset(p, m, degree, ordering)
        if cand is None:
            continue
        level1 = GeneratorMultiset.from_elements(
            [element_from_coords(p, 1, *g.coords) for g in cand.elements]
        )
        generates1 = bfs_closure_size(level1) == group_order(p, 1)
        if require_generation and not generates1:
            rejected.append(f"candidate {rank_i}: level-1 closure incomplete")
            continue
        lam = spectral_expansion(CayleyMultigraph(level1)).second_eigenvalue
        scored.append((lam / degree, rank_i, cand))
    if not scored:
        raise GenerationFailure(
            f"no generating multiset of degree {degree} over p={p}: "
            + "; ".join(rejected[:3])
        )
    scored.sort(key=lambda t: (t[0], t[1]))
    best = scored[0][2]
    if require_generation and group_order(p, m) <= BFS_VERIFY_BUDGET:
        if bfs_closure_size(best) != group_order(p, m):
            raise GenerationFailure(
                f"level-{m} closure incomplete for degree {degree} over p={p}"
            )
    return best


@dataclass(frozen=True)
class SpectralReport:
    """Expansion measurements of a regular graph.

    `second_eigenvalue` is the two-sided quantity max |eig| over the
    complement of the all-ones direction; it drives `ratio` and the
    Ramanujan flag.  `signed_second_eigenvalue` is the largest eigenvalue
    after removing one copy of the trivial one (so it can be negative);
    the two differ whenever the most negative eigenvalue dominates, e.g.
    on cycles and complete graphs.
    """

    num_vertices: int
    degree: int
    second_eigenvalue: float
    signed_second_eigenvalue: float
    ratio: float
    ramanujan_bound: float
    is_ramanujan: bool
    method: str
    tolerance: float

    def to_doc(self) -> dict:
        return {
            "num_vertices": self.num_vertices,
            "degree": self.degree,
            "second_eigenvalue": round(self.second_eigenvalue, 12),
            "signed_second_eigenvalue": round(self.signed_second_eigenvalue, 12),
            "ratio": round(self.ratio, 12),
            "ramanujan_bound": round(self.ramanujan_bound, 12),
            "is_ramanujan": self.is_ramanujan,
            "method": self.method,
            "tolerance": self.tolerance,
        }


def _report(
    n: int, degree: int, lam: float, signed: float, method: str, tolerance: float
) -> SpectralReport:
    bound = 2.0 * np.sqrt(max(degree - 1, 0))
    return SpectralReport(
        num_vertices=n,
        degree=degree,
        second_eigenvalue=lam,
        signed_second_eigenvalue=signed,
        ratio=lam / degree if degree else 0.0,
        ramanujan_bound=float(bound),
        is_ramanujan=bool(lam <= bound + tolerance),
        method=method,
        tolerance=tolerance,
    )


def _drop_trivial(eigs: np.ndarray) -> np.ndarray:
    """Remove one copy of the largest eigenvalue (the all-ones direction)."""
    return np.delete(eigs, int(np.argmax(eigs)))


def spectral_from_adjacency(
    adj: np.ndarray, degree: int | None = None, tolerance: float = 1e-9
) -> SpectralReport:
    """Second-largest |eigenvalue| of a regular adjacency matrix (exact path)."""
    adj = np.asarray(adj, dtype=np.float64)
    n = adj.shape[0]
    if adj.shape != (n, n):
        raise DimensionMismatch(f"adjacency must be square, got {adj.shape}")
    if not np.array_equal(adj, adj.T):
        raise DomainError("adjacency must be symmetric")
    row_sums = adj.sum(axis=1)
    if degree is None:
        degree = int(round(row_sums[0]))
    if not np.allclose(row_sums, degree, atol=tolerance):
        raise DomainError("graph is not regular; spectral gap undefined here")
    return _dense_report(np.linalg.eigvalsh(adj), n, degree, tolerance)


def _dense_report(eigs: np.ndarray, n: int, degree: int, tolerance: float) -> SpectralReport:
    rest = _drop_trivial(eigs)
    lam = float(np.abs(rest).max()) if rest.size else 0.0
    signed = float(rest.max()) if rest.size else 0.0
    return _report(n, degree, lam, signed, "dense", tolerance)


def _character_blocks(graph: CayleyMultigraph) -> np.ndarray:
    """(p^3, R, R) adjacency blocks of a level-m graph (m >= 2, R = p^(3(m-1))),
    B_x[t, t'] = sum_s [s.t = t'.n] chi_x(n), chi_x(n) = exp(2 pi i x.(u, v, w) / p).
    Right translation by the central N commutes with the adjacency, so the
    blocks' eigenvalues make up its spectrum.  Block 0 is the level-(m-1) graph."""
    p, m = graph.p, graph.m
    reps = np.flatnonzero(coset_split(p, m, np.arange(graph.num_vertices))[1] == 0)
    digits = np.array(np.unravel_index(np.arange(p**3), (p, p, p)))
    chars = np.exp(2j * np.pi * (digits.T @ digits % p) / p)
    table = cayley_table(p, m, graph.generators.elements)[:, reps]
    blocks = np.zeros((p**3, reps.size, reps.size), dtype=complex)
    for moved, shift in zip(*coset_split(p, m, table)):  # s permutes the cosets
        blocks[:, np.arange(reps.size), moved] += chars[:, shift]
    return blocks


def spectral_expansion(
    graph: CayleyMultigraph,
    dense_budget: int = DENSE_SPECTRUM_BUDGET,
    tolerance: float = 1e-9,
) -> SpectralReport:
    """Measured expansion of a Cayley multigraph.

    Up to `dense_budget` vertices, an exact eigensolve: of the adjacency at
    level 1, of the `_character_blocks` in one batch at level m >= 2.  Above
    it, a d-regular graph whose generators' closure is a proper subgroup is
    disconnected and has d once per component, so both second eigenvalues
    are d exactly.  On a connected one d is simple, and Lanczos (`eigsh` on
    the CSR adjacency of the neighbor lists, two extreme values from a
    fixed start vector) gives the largest |eigenvalue| and the largest
    eigenvalue, each with the trivial one dropped; ConvergenceFailure when
    it does not converge.
    """
    n, deg = graph.num_vertices, graph.degree
    if n <= dense_budget:
        if graph.m == 1:  # N is the whole group; one real block keeps level-1 bits
            return spectral_from_adjacency(graph.adjacency(dense_budget), deg, tolerance)
        eigs = np.linalg.eigvalsh(_character_blocks(graph)).ravel()
        return _dense_report(eigs, n, deg, tolerance)
    if bfs_closure_size(graph.generators) < n:  # disconnected
        return _report(n, deg, float(deg), float(deg), "lanczos", tolerance)
    from scipy.sparse.linalg import ArpackNoConvergence, eigsh  # loaded only here

    adj = graph.sparse_adjacency()
    v0 = np.random.default_rng(0).standard_normal(n)
    try:
        by_modulus = eigsh(adj, k=2, which="LM", v0=v0, return_eigenvectors=False)
        by_value = eigsh(adj, k=2, which="LA", v0=v0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise ConvergenceFailure(f"Lanczos on {n} vertices: {exc}") from exc
    lam = float(np.abs(_drop_trivial(by_modulus)).max())
    signed = float(_drop_trivial(by_value).max())
    return _report(n, deg, lam, signed, "lanczos", tolerance)
