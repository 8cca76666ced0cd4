"""Square Cayley complexes and the CSS codes built on them.

A complex is assembled from two symmetric generator multisets over the same
congruence group: left multiplication drives one axis, right multiplication
the other.  Each face (g, i, j) is a square with corners

    layer 00: g        layer 01: a_i * g
    layer 10: g * b_j  layer 11: a_i * g * b_j

X-type checks live on the 00/11 layers and carry tensor codewords of the
inner pair; Z-type checks live on 01/10 and carry tensor codewords of the
dual pair.  On a layer pair with inner bases of k_a and k_b rows, check row

    (layer_no * |G| + v) * k_a * k_b + s * k_b + t

is vertex v of the pair's layer layer_no (0 or 1) with basis rows (s, t);
at face f it holds basis_a[s][r] * basis_b[t][c], where (r, c) is f's cell
in v's local view.  `face_column` evaluates this layout one face at a time and
`check_matrix` all faces at once; the tests check one against the other.  The
grid convention placing a face in a local view is "paired" or "direct"; both
satisfy CSS orthogonality, and mixing them does not (see the tests).
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import combinations, product
from typing import Iterator

import numpy as np
from scipy import sparse

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    GroupMismatch,
)
from .expander import (
    GeneratorMultiset,
    GroupElement,
    _decode,
    _mul,
    cayley_table,
    group_order,
)
from .gf import (
    FMatrix,
    LinearCode,
    coset_min_weight,
    iter_codewords,
    rank_work,
    row_reduce,
)
from .inner import InnerCodePair

LAYERS = ("00", "01", "10", "11")
X_LAYERS = ("00", "11")
Z_LAYERS = ("01", "10")
CONVENTIONS = ("paired", "direct")
DEFAULT_RANK_BUDGET = 2**40
DEFAULT_DISTANCE_BUDGET = 2**16
DEFAULT_SSEXP_EXHAUSTIVE = 2**14


class SquareCayleyComplex:
    """Faces G x [delta] x [delta] with four-corner incidence.

    The local view of a vertex is a delta x delta grid of face indices.
    Under the "paired" convention the grid coordinate of face (g, i, j) at
    a corner replaces each generator index actually used to reach that
    corner by the index of its inverse; under "direct" the raw (i, j) is
    used at all four corners.  Queries run on coordinate quadruples
    (a, b, c, d) through one corner routine, so each costs poly(m) at any
    group order.
    """

    def __init__(
        self,
        gens_a: GeneratorMultiset,
        gens_b: GeneratorMultiset,
        convention: str = "paired",
    ):
        if (gens_a.p, gens_a.m) != (gens_b.p, gens_b.m):
            raise GroupMismatch(
                f"axis groups differ: ({gens_a.p},{gens_a.m}) vs ({gens_b.p},{gens_b.m})"
            )
        if gens_a.degree != gens_b.degree:
            raise DimensionMismatch(
                f"axis degrees differ: {gens_a.degree} vs {gens_b.degree}"
            )
        if convention not in CONVENTIONS:
            raise DomainError(f"unknown grid convention {convention!r}")
        self.gens_a = gens_a
        self.gens_b = gens_b
        self.convention = convention
        self.p = gens_a.p
        self.m = gens_a.m
        self.delta = gens_a.degree
        self.group_size = group_order(self.p, self.m)
        self.num_faces = self.group_size * self.delta * self.delta
        self._q = self.p**self.m
        self._steps_a = [(g.a, g.b, g.c, g.d) for g in gens_a.elements]
        self._steps_b = [(g.a, g.b, g.c, g.d) for g in gens_b.elements]
        # the grid index of a_i (b_j) at a corner reached through it; an involution
        same = tuple(range(self.delta))
        self._sig_a = gens_a.pairing if convention == "paired" else same
        self._sig_b = gens_b.pairing if convention == "paired" else same
        fits = self.num_faces - 1 <= np.iinfo(np.int64).max
        self._face_dtype = np.int64 if fits else object

    @property
    def num_vertices(self) -> int:
        return 4 * self.group_size

    def _check_query(self, layer: str, v: GroupElement) -> None:
        if layer not in LAYERS:
            raise DomainError(f"unknown layer {layer!r}")
        if (v.p, v.m) != (self.p, self.m):
            raise GroupMismatch(f"vertex of ({v.p},{v.m}) in a complex of ({self.p},{self.m})")

    def _face(self, f: int) -> tuple[tuple[int, int, int, int], int, int]:
        """(a, b, c, d) of face f's g, and its i, j."""
        f = int(f)
        if not 0 <= f < self.num_faces:
            raise DomainError(f"face index {f} out of range")
        g, ij = divmod(f, self.delta * self.delta)
        i, j = divmod(ij, self.delta)
        return _decode(self.p, self._q, g), i, j

    def _corner(self, layer: str, x, i: int, j: int):
        """The corner on `layer` of face (g, i, j), g given as its quadruple
        x, as a quadruple, and the face's (row, col) in its local view."""
        r, c = i, j
        if layer[1] == "1":  # 01 and 11 are reached through a_i on the left
            x = _mul(self.p, self._q, self._steps_a[i], x)
            r = self._sig_a[i]
        if layer[0] == "1":  # 10 and 11 through b_j on the right
            x = _mul(self.p, self._q, x, self._steps_b[j])
            c = self._sig_b[j]
        return x, r, c

    def _index(self, x) -> int:
        return x[0] + self._q * (x[1] + self._q * x[2])

    def face_from_index(self, idx: int) -> tuple[GroupElement, int, int]:
        x, i, j = self._face(idx)
        return GroupElement(self.p, self.m, *x), i, j

    def incidence(
        self, layer: str, g: GroupElement, i: int, j: int
    ) -> tuple[GroupElement, int, int]:
        """The vertex of face (g, i, j) on `layer` and the face's (row, col)
        in that vertex's local view: the inverse of `local_view`."""
        self._check_query(layer, g)
        x, r, c = self._corner(layer, (g.a, g.b, g.c, g.d), i, j)
        return GroupElement(self.p, self.m, *x), r, c

    def local_view(self, layer: str, v: GroupElement) -> np.ndarray:
        """Grid of the delta^2 face indices incident to vertex (v, layer):
        int64, or Python ints in an object array once face indices pass
        int64."""
        self._check_query(layer, v)
        d, pair_a, pair_b = self.delta, self.gens_a.pairing, self.gens_b.pairing
        # cell (r, c) holds the face (g, i, j) whose corner here is v: i = sig_a[r]
        # and j = sig_b[c] on the axes that reach this layer, and
        # g = a_i^-1 v b_j^-1, the 10 corner and then the 01 corner of v taken
        # with the inverse generators (11: d + d^2 products)
        ii = jj = range(d)
        ends = [(v.a, v.b, v.c, v.d)]
        if layer[0] == "1":
            jj = self._sig_b
            ends = [self._corner("10", ends[0], 0, pair_b[j])[0] for j in jj]
        grid = [ends]
        if layer[1] == "1":
            ii = self._sig_a
            grid = [[self._corner("01", w, pair_a[i], 0)[0] for w in ends] for i in ii]
        dtype = self._face_dtype
        g = np.array([[self._index(w) for w in row] for row in grid], dtype=dtype)
        return (g * d + np.array(ii, dtype=dtype)[:, None]) * d + np.array(jj, dtype=dtype)

    def summary(self) -> dict:
        return {
            "group": {"p": self.p, "m": self.m, "order": self.group_size},
            "degree": self.delta,
            "num_faces": self.num_faces,
            "convention": self.convention,
        }

    def to_doc(self) -> dict:
        return {
            "gens_a": self.gens_a,
            "gens_b": self.gens_b,
            "convention": self.convention,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "SquareCayleyComplex":
        return cls(
            GeneratorMultiset.from_doc(doc["gens_a"]),
            GeneratorMultiset.from_doc(doc["gens_b"]),
            doc.get("convention", "paired"),
        )

    @classmethod
    def from_json(cls, text: str) -> "SquareCayleyComplex":
        return cls.from_doc(json.loads(text))


def build_complex(
    gens_a: GeneratorMultiset,
    gens_b: GeneratorMultiset,
    convention: str = "paired",
) -> SquareCayleyComplex:
    return SquareCayleyComplex(gens_a, gens_b, convention)


@dataclass
class CssCode:
    """A CSS pair of parity-check matrices over GF(p), kept unreduced."""

    p: int
    n: int
    h_x: FMatrix
    h_z: FMatrix
    provenance: dict = field(default_factory=dict)
    _rowspace_x: LinearCode | None = field(default=None, repr=False, compare=False)
    _rowspace_z: LinearCode | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.h_x.p != self.p or self.h_z.p != self.p:
            raise DomainError("check matrices over the wrong field")
        if self.h_x.shape[1] != self.n or self.h_z.shape[1] != self.n:
            raise DimensionMismatch("check matrix width differs from n")

    @property
    def m_x(self) -> int:
        return self.h_x.shape[0]

    @property
    def m_z(self) -> int:
        return self.h_z.shape[0]

    @property
    def rowspace_x(self) -> LinearCode:
        """rowspace(H_X), eliminated on first use and kept; its dual is
        ker H_X."""
        if self._rowspace_x is None:
            self._rowspace_x = LinearCode(self.p, self.n, self.h_x)
        return self._rowspace_x

    @property
    def rowspace_z(self) -> LinearCode:
        if self._rowspace_z is None:
            self._rowspace_z = LinearCode(self.p, self.n, self.h_z)
        return self._rowspace_z

    @property
    def rank_x(self) -> int:
        return self.rowspace_x.dim

    @property
    def rank_z(self) -> int:
        return self.rowspace_z.dim

    @property
    def locality(self) -> int:
        return max(
            self.h_x.max_row_weight(),
            self.h_x.max_col_weight(),
            self.h_z.max_row_weight(),
            self.h_z.max_col_weight(),
        )

    def css_orthogonal(self) -> bool:
        return (self.h_x @ self.h_z.T).nnz() == 0

    def validate(self) -> "CssCode":
        """The code itself; DomainError unless the X/Z checks commute."""
        if not self.css_orthogonal():
            raise DomainError("X and Z checks do not commute")
        return self

    def to_doc(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "h_x": self.h_x,
            "h_z": self.h_z,
            "provenance": self.provenance,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "CssCode":
        return cls(
            p=doc["p"],
            n=doc["n"],
            h_x=FMatrix.from_doc(doc["h_x"]),
            h_z=FMatrix.from_doc(doc["h_z"]),
            provenance=doc.get("provenance", {}),
        )


def check_inner_length(complex_: SquareCayleyComplex, pair: InnerCodePair) -> None:
    if pair.n != complex_.delta:
        raise DimensionMismatch(
            f"inner length {pair.n} differs from complex degree {complex_.delta}"
        )


def num_check_rows(complex_: SquareCayleyComplex, layers, basis_a, basis_b) -> int:
    return len(layers) * complex_.group_size * len(basis_a) * len(basis_b)


def _rows(basis) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(int(x) for x in row) for row in basis)


@lru_cache(maxsize=16)
def _cell_table(d: int, basis_a, basis_b, p: int) -> tuple:
    """Per cell r * d + c of a local view, the check entries a face in that
    cell meets: offsets s * k_b + t, ascending, and the nonzero values
    basis_a[s][r] * basis_b[t][c] mod p.  Bases as tuples of int rows."""
    kb = len(basis_b)
    table = []
    for r, c in product(range(d), repeat=2):
        cell = [
            (s * kb + t, row_a[r] * row_b[c] % p)
            for s, row_a in enumerate(basis_a)
            for t, row_b in enumerate(basis_b)
            if row_a[r] * row_b[c] % p
        ]
        table.append((tuple(st for st, _ in cell), tuple(val for _, val in cell)))
    return tuple(table)


def _column(complex_: SquareCayleyComplex, f: int, layers, table, kk: int):
    """`face_column` with the bases' `_cell_table` made, kk = k_a * k_b."""
    cx = complex_
    x, i, j = cx._face(f)
    rows, vals = [], []
    for layer_no, layer in enumerate(layers):
        v, r, c = cx._corner(layer, x, i, j)
        base = (layer_no * cx.group_size + cx._index(v)) * kk
        offsets, cell_vals = table[r * cx.delta + c]
        rows += [base + st for st in offsets]
        vals += cell_vals
    return rows, vals


def face_column(
    complex_: SquareCayleyComplex, f: int, layers, basis_a, basis_b, p: int
) -> tuple[list[int], list[int]]:
    """Ascending check rows and their values in column f of the check
    matrix on `layers`: each corner's cell looked up in the bases' table."""
    basis_a, basis_b = _rows(basis_a), _rows(basis_b)
    table = _cell_table(complex_.delta, basis_a, basis_b, p)
    return _column(complex_, f, layers, table, len(basis_a) * len(basis_b))


def check_matrix(complex_: SquareCayleyComplex, layers, basis_a, basis_b, p: int) -> FMatrix:
    """`face_column` of every face at once, the corners read off Cayley tables."""
    cx, d = complex_, complex_.delta
    basis_a, basis_b = (np.asarray(x, dtype=np.int64).reshape(-1, d) for x in (basis_a, basis_b))
    kk = len(basis_a) * len(basis_b)
    left = cayley_table(cx.p, cx.m, cx.gens_a.elements, "left")  # a_i * g
    right = cayley_table(cx.p, cx.m, cx.gens_b.elements, "right")  # g * b_j
    sig_a, sig_b = np.array(cx._sig_a), np.array(cx._sig_b)
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


def build_code(complex_: SquareCayleyComplex, pair: InnerCodePair) -> CssCode:
    """Assemble the unreduced X/Z check matrices for the complex + pair."""
    check_inner_length(complex_, pair)
    p = pair.p
    dual_a, dual_b = pair.code_a.dual(), pair.code_b.dual()
    h_x = check_matrix(complex_, X_LAYERS, pair.code_a.basis, pair.code_b.basis, p)
    h_z = check_matrix(complex_, Z_LAYERS, dual_a.basis, dual_b.basis, p)
    code = CssCode(
        p=p,
        n=complex_.num_faces,
        h_x=h_x,
        h_z=h_z,
        provenance={
            "kind": "tanner",
            "complex": complex_.summary(),
            "inner": pair.to_doc(),
            "convention": complex_.convention,
        },
    )
    code.validate()
    if code.locality > complex_.delta**2:
        raise DomainError("check locality exceeds the degree-squared cap")
    return code


def code_dimension(code: CssCode, budget: int = DEFAULT_RANK_BUDGET) -> int:
    """k = (n - rank H_Z) - rank H_X."""
    work = sum(rank_work(m, code.n, code.p) for m in (code.m_x, code.m_z))
    if work > budget:
        raise BudgetExceeded(f"rank work {work} exceeds budget {budget}")
    return (code.n - code.rank_z) - code.rank_x


def check_counting_bound(code: CssCode) -> int:
    """n - m_X - m_Z: the dimension bound from counting unreduced checks.

    For a Tanner build this equals -(1 - 2 R_A)(1 - 2 R_B) n, and it is
    vacuous (zero) at rate 1/2.
    """
    return code.n - code.m_x - code.m_z


@dataclass(frozen=True)
class PlantedReport:
    """Evidence that the all-ones vector is a logical on both sides."""

    ones_in_ker_x: bool
    ones_in_ker_z: bool
    ones_outside_x_rowspace: bool
    ones_outside_z_rowspace: bool
    row_sums_zero: bool
    n_mod_p: int

    @property
    def planted(self) -> bool:
        return (
            self.ones_in_ker_x
            and self.ones_in_ker_z
            and self.ones_outside_x_rowspace
            and self.ones_outside_z_rowspace
        )

    def to_doc(self) -> dict:
        return {**asdict(self), "planted": self.planted}


def verify_planted(code: CssCode) -> PlantedReport:
    p, n = code.p, code.n
    ones = np.ones(n, dtype=np.int64)
    in_ker_x = not code.h_x.apply(ones).any()
    in_ker_z = not code.h_z.apply(ones).any()
    # a row sum is that row applied to the all-ones word
    sums_zero = in_ker_x and in_ker_z
    outside_x = not code.rowspace_x.contains(ones)
    outside_z = not code.rowspace_z.contains(ones)
    return PlantedReport(
        ones_in_ker_x=in_ker_x,
        ones_in_ker_z=in_ker_z,
        ones_outside_x_rowspace=outside_x,
        ones_outside_z_rowspace=outside_z,
        row_sums_zero=sums_zero,
        n_mod_p=n % p,
    )


@dataclass
class DistanceReport:
    upper_bound: int | float
    exact: bool
    method: str
    trials: int
    side: str | None = None
    witness: np.ndarray | None = None

    def to_doc(self) -> dict:
        bound = None if math.isinf(self.upper_bound) else self.upper_bound
        return {**asdict(self), "upper_bound": bound}


def _exhaustive_side(
    checks: LinearCode, stabilizers: LinearCode, budget: int
) -> tuple[int | float, np.ndarray | None] | None:
    """Min weight over the dual of `checks` minus `stabilizers`, or None
    when its p^(n - rank) words exceed the budget, which is checked before
    the kernel is built."""
    if checks.p ** (checks.n - checks.dim) > budget:
        return None
    best, best_w = math.inf, None
    for block in iter_codewords(checks.dual(), budget=None):
        weights = np.count_nonzero(block, axis=1)
        for order in np.argsort(weights, kind="stable"):
            w = int(weights[order])
            if w == 0:
                continue
            if w >= best:
                break
            v = block[order]
            if not stabilizers.contains(v):
                best, best_w = w, v.copy()
                break
    return best, best_w


def _pair_rows(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """The row pairs whose sums join an echelon's rows as candidates: the
    pairs of its first 8 rows, in `np.triu_indices` order."""
    return np.triu_indices(min(8, dim), 1)


def _trial_by_trial_side(
    checks: LinearCode,
    stabilizers: LinearCode,
    trials: int,
    rng: np.random.Generator,
) -> tuple[int | float, np.ndarray | None, int]:
    """`_randomized_side` with one dense `row_reduce` per trial: the path for
    odd p, and the packed search's test oracle."""
    n, p = checks.n, checks.p
    gen = checks.dual().basis
    if gen.shape[0] == 0:
        return math.inf, None, 0
    best, best_w = math.inf, None
    a, b = _pair_rows(gen.shape[0])
    for _ in range(trials):
        perm = rng.permutation(n)
        rref, pivots = row_reduce(gen[:, perm], p)
        rows = rref[: len(pivots)]
        unperm = np.empty_like(rows)
        unperm[:, perm] = rows
        candidates = np.vstack([unperm, (unperm[a] + unperm[b]) % p])
        weights = np.count_nonzero(candidates, axis=1)
        for k in np.flatnonzero((weights > 0) & (weights < best)):
            w = int(weights[k])
            if w < best and not stabilizers.contains(candidates[k]):
                best, best_w = w, candidates[k].copy()
    return best, best_w, trials


def _randomized_side(
    checks: LinearCode,
    stabilizers: LinearCode,
    trials: int,
    rng: np.random.Generator,
) -> tuple[int | float, np.ndarray | None, int]:
    """Information-set search (Prange) for light words of the dual of
    `checks` outside `stabilizers`.

    Each trial draws a column permutation and takes the RREF of the dual
    basis under it; its rows and the sums of pairs of its first 8 rows are
    the candidates.  The result is the lightest candidate outside the
    stabilizers, the earliest (trial, candidate) among equals.  Over GF(2)
    every trial is eliminated in packed stacks and weighed on words: a
    weight does not depend on the column order, so only the candidates
    whose membership is asked are put back in column order, and each
    distinct one is asked once.
    """
    if checks.p != 2:
        return _trial_by_trial_side(checks, stabilizers, trials, rng)
    n = checks.n
    dual = checks.dual()
    if dual.dim == 0:
        return math.inf, None, 0
    perms = np.array([rng.permutation(n) for _ in range(trials)], dtype=np.int64).reshape(trials, n)
    inverse = np.argsort(perms, axis=1)
    outside: dict[bytes, np.ndarray | None] = {}  # packed word -> the word, if outside

    def outside_word(word: np.ndarray, trial: int) -> np.ndarray | None:
        v = np.unpackbits(word.view(np.uint8), count=n, bitorder="little")[inverse[trial]]
        key = np.packbits(v).tobytes()
        if key not in outside:
            outside[key] = None if stabilizers.contains(v) else v.astype(np.int64)
        return outside[key]

    a, b = _pair_rows(dual.dim)
    best, best_w = math.inf, None
    first = 0  # the trial of the stack's first copy
    for stack in dual.permuted_echelons(perms):
        words = np.concatenate([stack, stack[:, a] ^ stack[:, b]], axis=1)
        weights = np.bitwise_count(words).sum(axis=2)  # (copies, candidates)
        for w in np.unique(weights[weights < best]):
            hits = (outside_word(words[t, k], first + t) for t, k in zip(*np.nonzero(weights == w)))
            v = next((v for v in hits if v is not None), None)
            if v is not None:
                best, best_w = int(w), v
                break
        first += len(stack)
    return best, best_w, trials


def estimate_distance(
    code: CssCode,
    budget: int = DEFAULT_DISTANCE_BUDGET,
    seed: int = 0,
    trials: int = 32,
) -> DistanceReport:
    """Exact distance when kernel enumeration fits the budget, else an
    upper bound from randomized information-set search over both sides."""
    sides = [
        ("z-logical", code.rowspace_z, code.rowspace_x),  # ker H_Z minus rowspace H_X
        ("x-logical", code.rowspace_x, code.rowspace_z),
    ]
    exact_results = []
    for name, checks, stabilizers in sides:
        res = _exhaustive_side(checks, stabilizers, budget)
        if res is None:
            break
        exact_results.append((name, *res))
    else:  # both sides enumerated
        name, bound, witness = min(exact_results, key=lambda t: t[1])
        return DistanceReport(
            upper_bound=bound,
            exact=True,
            method="exhaustive",
            trials=0,
            side=name,
            witness=witness,
        )
    rng = np.random.default_rng(seed)
    overall, overall_w, overall_side, used = math.inf, None, None, 0
    for name, checks, stabilizers in sides:
        ub, w, t = _randomized_side(checks, stabilizers, trials, rng)
        used += t
        if ub < overall:
            overall, overall_w, overall_side = ub, w, name
    return DistanceReport(
        upper_bound=overall,
        exact=False,
        method="information-set",
        trials=used,
        side=overall_side,
        witness=overall_w,
    )


@dataclass
class CurvePoint:
    epsilon: float
    max_weight: int
    boundary_min: float | None
    coboundary_min: float | None
    boundary_samples: int
    coboundary_samples: int
    exhaustive: bool


@dataclass
class ExpansionCurve:
    """Empirical small-set boundary/coboundary expansion per epsilon."""

    points: list[CurvePoint]
    exact_cosets: bool

    @property
    def boundary_constant(self) -> float | None:
        vals = [pt.boundary_min for pt in self.points if pt.boundary_min is not None]
        return min(vals) if vals else None

    @property
    def coboundary_constant(self) -> float | None:
        vals = [pt.coboundary_min for pt in self.points if pt.coboundary_min is not None]
        return min(vals) if vals else None

    def to_doc(self) -> dict:
        return {
            **asdict(self),
            "boundary_constant": self.boundary_constant,
            "coboundary_constant": self.coboundary_constant,
        }


def _coset_weight_bound(
    v: np.ndarray,
    stab_rows: list[tuple[list[int], list[int]]],
    stab_cols: list[tuple[list[int], list[int]]],
    stab_code: LinearCode | None,
    p: int,
) -> int:
    """|v| modulo the stabilizer rowspace: exact via enumeration when the
    rowspace is small, else a greedy upper bound that repeatedly adds the
    multiple of a stabilizer row that lowers the weight most (first scale,
    then first row, on ties).  `stab_rows` and `stab_cols` are the
    stabilizer matrix's `rows()` and its transpose's."""
    if stab_code is not None:
        return coset_min_weight(v, stab_code)
    cur = {int(j): int(v[j]) for j in np.flatnonzero(v)}
    while cur:
        # a row missing supp(cur) scores |cur| + |row| > |cur| and can never
        # win, so only the rows meeting it are scored, in ascending order
        meet = sorted({r for j in cur for r in stab_cols[j][0]})
        best, best_w = None, len(cur)
        for scale in range(1, p):
            for r in meet:
                w = len(cur)
                for c, x in zip(*stab_rows[r]):
                    if c not in cur:
                        w += 1
                    elif (cur[c] + scale * x) % p == 0:
                        w -= 1
                if w < best_w:
                    best, best_w = (scale, r), w
        if best is None:
            break
        scale, r = best
        for c, x in zip(*stab_rows[r]):
            val = (cur.get(c, 0) + scale * x) % p
            if val:
                cur[c] = val
            else:
                del cur[c]
    return len(cur)


def _enumerate_small(n: int, max_w: int, p: int) -> Iterator[np.ndarray]:
    """All nonzero vectors of weight at most max_w."""
    for w in range(1, max_w + 1):
        for support in combinations(range(n), w):
            for vals in product(range(1, p), repeat=w):
                v = np.zeros(n, dtype=np.int64)
                v[list(support)] = vals
                yield v


def _small_count(n: int, max_w: int, p: int) -> int:
    return sum(math.comb(n, w) * (p - 1) ** w for w in range(1, max_w + 1))


def _sample_small(
    n: int, max_w: int, p: int, rng: np.random.Generator
) -> np.ndarray:
    w = int(rng.integers(1, max_w + 1))
    v = np.zeros(n, dtype=np.int64)
    support = rng.choice(n, size=w, replace=False)
    v[support] = rng.integers(1, p, size=w)
    return v


def estimate_ssexp(
    code: CssCode,
    epsilon_grid: list[float],
    trials: int = 200,
    seed: int = 0,
    exhaustive_limit: int = DEFAULT_SSEXP_EXHAUSTIVE,
    coset_budget: int = 2**12,
) -> ExpansionCurve:
    """Empirical expansion curve: for each epsilon, the minimal observed
    ratio of normalized syndrome weight to normalized coset weight, on both
    the boundary (Z checks, X stabilizers) and coboundary (X checks, Z
    stabilizers) sides.  Elements of the stabilizer rowspace are skipped as
    0/0.  Coset weights are exact only when the rowspace fits the budget."""
    p, n = code.p, code.n
    sides = {}
    exact_cosets = True
    for name, checks, stab, stab_code in (
        ("boundary", code.h_z, code.h_x, code.rowspace_x),
        ("coboundary", code.h_x, code.h_z, code.rowspace_z),
    ):
        if p**stab_code.dim > coset_budget:
            stab_code, exact_cosets = None, False
        sides[name] = (checks, stab.rows(), stab.T.rows(), stab_code)
    rng = np.random.default_rng(seed)
    points = []
    for eps in epsilon_grid:
        if not 0 < eps <= 1:
            raise DomainError(f"epsilon {eps} outside (0, 1]")
        max_w = int(math.floor(eps * n))
        mins: dict[str, float | None] = {"boundary": None, "coboundary": None}
        counts = {"boundary": 0, "coboundary": 0}
        exhaustive = max_w >= 1 and _small_count(n, max_w, p) <= exhaustive_limit
        if max_w >= 1:
            if exhaustive:
                vectors: Iterator[np.ndarray] = _enumerate_small(n, max_w, p)
            else:
                vectors = (_sample_small(n, max_w, p, rng) for _ in range(trials))
            for v in vectors:
                for name, (checks, stab_rows, stab_cols, stab_code) in sides.items():
                    syn = int(np.count_nonzero(checks.apply(v)))
                    cw = _coset_weight_bound(v, stab_rows, stab_cols, stab_code, p)
                    if cw == 0:
                        continue
                    ratio = (syn / checks.shape[0]) / (cw / n)
                    counts[name] += 1
                    if mins[name] is None or ratio < mins[name]:
                        mins[name] = ratio
        points.append(
            CurvePoint(
                epsilon=float(eps),
                max_weight=max_w,
                boundary_min=mins["boundary"],
                coboundary_min=mins["coboundary"],
                boundary_samples=counts["boundary"],
                coboundary_samples=counts["coboundary"],
                exhaustive=exhaustive,
            )
        )
    return ExpansionCurve(points=points, exact_cosets=exact_cosets)
