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
in v's local view.  `_face_plan` lays this out once per basis pair, on the
complex's affine corner maps, and one evaluator reads it over a block of
vertices: `_FaceColumns` gives the faces of one vertex or a few, or one
face alone from its own maps (the constraint stream's path),
`check_matrix` every face.  The grid convention
placing a face in a local view is "paired" or "direct"; both satisfy CSS
orthogonality, and mixing them does not (see the tests).

`estimate_distance` picks the logical sides and writes the report; the
searches of a side (`gf.lightest_outside`, `gf.information_set_search`)
live in `gf`, with the packed rows they work on.
"""

from __future__ import annotations

import math
import operator
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from itertools import accumulate, combinations, product

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
    _group_coords,
    _mul,
    group_order,
)
from .gf import (
    FMatrix,
    LinearCode,
    coset_min_weight,
    information_set_search,
    lightest_outside,
    rank_work,
)
from .inner import InnerCodePair
from .jsonio import loads

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
    used at all four corners.

    On the coordinates (a, b, c, d) mod q = p^m, x -> a_i x and x -> x b_j
    are affine maps (on I + pX they are X -> S + (I + pS) X and
    X -> T + X (I + pT)), and so is each corner map x -> a_i x b_j.  Each
    layer's distinct corner maps are built once, here, from `_mul`: the
    rows of (a, b, c) as integers mod q, O(delta^2) of them whatever the
    group order.  `_corner` applies one map to one vertex (`incidence`, a
    face alone in `_FaceColumns`); `_evaluate`, the one stacked evaluator,
    applies a stack of maps to a block of vertices: the (3 delta^2 x 5)
    inverse corners of a local view, precomposed here, or a `_face_plan`'s
    maps (`_FaceColumns`, `check_matrix`), in int64 or, once indices pass
    int64 (m = 30), on Python ints.  Each query costs poly(m).
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
        fits = self.num_faces - 1 <= np.iinfo(np.int64).max
        self._face_dtype = np.int64 if fits else object
        self._maps, self._pick, self._cell, self._views = {}, {}, {}, {}
        for layer in LAYERS:
            self._build_layer(layer)

    def _build_layer(self, layer: str) -> None:
        """The corner maps of `layer` and the stack of its local view.

        `_maps[layer][k]` is one map x -> corner: per coordinate a, b, c of
        the corner, the row (r_a, r_b, r_c, r_d, t) of r . (x, 1) mod q.  Face
        (g, i, j), at cell ij = i * delta + j, reaches its corner through map
        `_pick[layer][ij]` and sits at cell r * delta + c = `_cell[layer][ij]`
        of the corner's local view."""
        p, q, d = self.p, self._q, self.delta
        on_a, on_b = layer[1] == "1", layer[0] == "1"  # reached through a_i, b_j
        steps_a = [(g.a, g.b, g.c, g.d) for g in self.gens_a.elements]
        steps_b = [(g.a, g.b, g.c, g.d) for g in self.gens_b.elements]

        def corner(x, i, j):
            x = _mul(p, q, steps_a[i], x) if on_a else x
            return _mul(p, q, x, steps_b[j]) if on_b else x

        def key(i, j):
            return (i if on_a else 0) * (d if on_b else 1) + (j if on_b else 0)

        # an affine map is its value at 0 plus its differences along the unit vectors
        unit = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        maps = []
        for i, j in product(range(d if on_a else 1), range(d if on_b else 1)):
            t, e = corner((0, 0, 0, 0), i, j), [corner(u, i, j) for u in unit]
            maps.append(tuple((*((v[row] - t[row]) % q for v in e), t[row]) for row in range(3)))
        self._maps[layer] = maps
        cells = list(product(range(d), repeat=2))
        # the grid index of a_i (b_j) at a corner reached through it; an involution
        paired = self.convention == "paired"
        sig_a = self.gens_a.pairing if paired and on_a else range(d)
        sig_b = self.gens_b.pairing if paired and on_b else range(d)
        self._pick[layer] = tuple(key(i, j) for i, j in cells)
        self._cell[layer] = tuple(sig_a[i] * d + sig_b[j] for i, j in cells)
        # cell (r, c) of a local view holds the face (g, i, j) whose corner is v:
        # i = sig_a[r], j = sig_b[c], and g = a_i^-1 v b_j^-1, the corner map
        # of the inverse generators
        pair_a, pair_b = self.gens_a.pairing, self.gens_b.pairing
        ij = [(sig_a[r], sig_b[c]) for r, c in cells]
        stack = [maps[key(pair_a[i], pair_b[j])] for i, j in ij]
        self._views[layer] = self._stack(stack, d * d, [i * d + j for i, j in ij], self._face_dtype)

    def _stack(self, maps, unit, shift, dtype) -> tuple:
        """The operand of `_evaluate` for a list of corner maps: their rows
        as one (3 maps x 5) matrix, the digits (1, q, q^2) * unit and each
        map's shift, as a column."""
        q = self._q
        linear = np.array([row for rows in maps for row in rows], dtype=dtype).reshape(-1, 5)
        digits = np.array([unit, unit * q, unit * q * q], dtype=dtype)
        return linear, digits, np.array(shift, dtype=dtype).reshape(-1, 1)

    def _evaluate(self, stack, x) -> np.ndarray:
        """The one corner evaluator, over a block of vertices: x holds their
        columns (a, b, c, d, 1), so each map's offset is folded into its
        rows, and `stack` (see `_stack`) gives per map and vertex
        ((L @ x) mod q) . digits + shift, the corner's index a + q b + q^2 c
        times the stack's unit, plus the map's shift: a (maps, vertices)
        array."""
        linear, digits, shift = stack
        y = linear @ x
        y %= self._q
        y = digits @ y.reshape(len(shift), 3, -1)
        y += shift
        return y

    def _corner(self, rows, x) -> int:
        """`_evaluate` of one map on one vertex, on Python ints: the index
        a + q b + q^2 c of the corner the map's rows send x = (a, b, c, d)
        to."""
        (x0, x1, x2, x3), q = x, self._q
        a, b, c = [(r0 * x0 + r1 * x1 + r2 * x2 + r3 * x3 + t) % q for r0, r1, r2, r3, t in rows]
        return a + q * (b + q * c)

    def _coords(self, start: int, stop: int, dtype) -> np.ndarray:
        """The (5, stop - start) columns (a, b, c, d, 1) of vertices start..stop-1."""
        p, q = self.p, self._q
        return np.array([(*_decode(p, q, g), 1) for g in range(start, stop)], dtype=dtype).T

    @property
    def num_vertices(self) -> int:
        return 4 * self.group_size

    def _check_query(self, layer: str, v: GroupElement) -> None:
        if layer not in LAYERS:
            raise DomainError(f"unknown layer {layer!r}")
        if (v.p, v.m) != (self.p, self.m):
            raise GroupMismatch(f"vertex of ({v.p},{v.m}) in a complex of ({self.p},{self.m})")

    def _face(self, f: int) -> tuple[int, int]:
        """Face f's vertex index g and its cell i * delta + j; TypeError
        unless f is an integer."""
        f = operator.index(f)
        if not 0 <= f < self.num_faces:
            raise DomainError(f"face index {f} out of range")
        return divmod(f, self.delta * self.delta)

    def incidence(
        self, layer: str, g: GroupElement, i: int, j: int
    ) -> tuple[GroupElement, int, int]:
        """The vertex of face (g, i, j) on `layer` and the face's (row, col)
        in that vertex's local view: the inverse of `local_view`."""
        self._check_query(layer, g)
        d = self.delta
        if not (0 <= i < d and 0 <= j < d):
            raise DomainError(f"generator indices ({i}, {j}) outside [0, {d})")
        ij, x = i * d + j, (g.a, g.b, g.c, g.d)
        v = self._corner(self._maps[layer][self._pick[layer][ij]], x)
        v = GroupElement(self.p, self.m, *_decode(self.p, self._q, v))
        return v, *divmod(self._cell[layer][ij], d)

    def local_view(self, layer: str, v: GroupElement) -> np.ndarray:
        """Grid of the delta^2 face indices incident to vertex (v, layer),
        one `_evaluate` of the layer's inverse corners: int64, or Python ints
        in an object array once face indices pass int64."""
        self._check_query(layer, v)
        x = np.array((v.a, v.b, v.c, v.d, 1), dtype=self._face_dtype)
        return self._evaluate(self._views[layer], x).reshape(self.delta, self.delta)

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
        return loads(text, cls.from_doc)


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
def _face_plan(complex_: SquareCayleyComplex, layers, basis_a, basis_b, p: int) -> tuple:
    """The check columns on `layers` of one vertex's delta^2 faces, laid out
    once per basis pair: the stack of the layers' corner maps, in order, with
    digits kk (1, q, q^2) and shifts layer_no * |G| * kk, so each map gives
    its corner's first check row; per stored entry, by face cell
    ij = i * delta + j, then layer, then offset (so a face's rows ascend),
    its map, offset s * k_b + t and cell, as arrays; per cell, the slice of
    its entries, their values basis_a[s][r] * basis_b[t][c] mod p, (r, c)
    the face's cell in the corner's local view, and per layer its map's
    rows, shift and offsets, for one face alone.  Bases as int-row tuples."""
    cx, d, kb = complex_, complex_.delta, len(basis_b)
    table = []  # per local-view cell: (offsets, values)
    for r, c in product(range(d), repeat=2):
        cell = [
            (s * kb + t, row_a[r] * row_b[c] % p)
            for s, row_a in enumerate(basis_a)
            for t, row_b in enumerate(basis_b)
            if row_a[r] * row_b[c] % p
        ]
        table.append((tuple(st for st, _ in cell), tuple(val for _, val in cell)))
    kk, rows = len(basis_a) * kb, num_check_rows(cx, layers, basis_a, basis_b)
    maps = [f for layer in layers for f in cx._maps[layer]]
    shift = [n * cx.group_size * kk for n, layer in enumerate(layers) for _ in cx._maps[layer]]
    first = list(accumulate([0] + [len(cx._maps[layer]) for layer in layers]))
    entries, slices, vals, faces = [], [], [], []
    for ij in range(d * d):
        cells = [table[cx._cell[layer][ij]] for layer in layers]
        picks = [k0 + cx._pick[layer][ij] for k0, layer in zip(first, layers)]
        start = len(entries)
        entries += [(k, st, ij) for k, (offsets, _) in zip(picks, cells) for st in offsets]
        slices.append(slice(start, len(entries)))
        vals.append(tuple(val for _, cell_vals in cells for val in cell_vals))
        faces.append(tuple((maps[k], shift[k], offsets) for k, (offsets, _) in zip(picks, cells)))
    dtype = np.int64 if max(cx.num_faces, rows) <= 2**63 else object
    pick, offset, cell = np.array(entries, dtype=np.int64).reshape(-1, 3).T
    return (
        cx._stack(maps, kk, shift, dtype), pick, offset.astype(dtype)[:, None], cell[:, None],
        tuple(slices), tuple(vals), tuple(faces),
    )


class _FaceColumns:
    """Columns of the check matrix on `layers`, from `_face_plan`: `rows`
    evaluates its stack once on vertex columns x and gives the (stored
    entries, vertices) array of check rows; `block` the faces of vertices
    start..stop-1, in face order, as ascending tuples sliced from one
    `tolist()`; `face` one face alone, from its own corner maps, one per
    layer.  The values at cell ij are `vals[ij]`.  Either way a face costs
    O(delta^2) maps at most, whatever the group order."""

    def __init__(self, complex_: SquareCayleyComplex, layers, basis_a, basis_b, p: int):
        basis_a, basis_b = _rows(basis_a), _rows(basis_b)
        self.complex, self.kk = complex_, len(basis_a) * len(basis_b)
        self.stack, self.pick, self.offset, self.cell, self.slices, self.vals, self._faces = (
            _face_plan(complex_, tuple(layers), basis_a, basis_b, p)
        )

    def rows(self, x) -> np.ndarray:
        return self.complex._evaluate(self.stack, x)[self.pick] + self.offset

    def block(self, start: int, stop: int) -> list[tuple[int, ...]]:
        rows = self.rows(self.complex._coords(start, stop, self.offset.dtype)).T.tolist()
        return [tuple(vertex[at]) for vertex in rows for at in self.slices]

    def face(self, g: int, ij: int) -> tuple[int, ...]:
        cx, rows = self.complex, []
        x = _decode(cx.p, cx._q, g)
        for maps, shift, offsets in self._faces[ij]:
            base = cx._corner(maps, x) * self.kk + shift
            rows += [base + st for st in offsets]
        return tuple(rows)


def check_matrix(complex_: SquareCayleyComplex, layers, basis_a, basis_b, p: int) -> FMatrix:
    """`_FaceColumns` of every vertex at once, on the whole group's
    coordinates, with the stored entries' values and cells broadcast over
    the vertices."""
    cx, columns = complex_, _FaceColumns(complex_, layers, basis_a, basis_b, p)
    rows = columns.rows(np.vstack([*_group_coords(cx.p, cx.m), np.ones(cx.group_size, dtype=int)]))
    cols = np.arange(cx.group_size) * cx.delta**2 + columns.cell
    data = np.broadcast_to(np.array(sum(columns.vals, ()), dtype=np.int64)[:, None], rows.shape)
    shape = (num_check_rows(cx, layers, basis_a, basis_b), cx.num_faces)
    return FMatrix(p, sparse.csr_array((data.ravel(), (rows.ravel(), cols.ravel())), shape=shape))


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
        raise BudgetExceeded(
            f"rank work {work} exceeds budget {budget}; tanner.DEFAULT_RANK_BUDGET lifts it"
        )
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


def estimate_distance(
    code: CssCode,
    budget: int = DEFAULT_DISTANCE_BUDGET,
    seed: int = 0,
    trials: int = 32,
) -> DistanceReport:
    """Exact distance when both sides' kernels, p^(n - rank) words each,
    fit the budget (tested before any kernel is built), else an upper bound
    from randomized information-set search over both sides."""
    sides = [
        ("z-logical", code.rowspace_z, code.rowspace_x),  # ker H_Z minus rowspace H_X
        ("x-logical", code.rowspace_x, code.rowspace_z),
    ]
    if all(checks.p ** (checks.n - checks.dim) <= budget for _, checks, _ in sides):
        found = [(*lightest_outside(c.dual(), s, budget), name) for name, c, s in sides]
        bound, witness, side = min(found, key=lambda t: t[0])
        return DistanceReport(bound, True, "exhaustive", 0, side, witness)
    rng = np.random.default_rng(seed)
    found = [(*information_set_search(c, s, trials, rng), name) for name, c, s in sides]
    bound, witness, _, side = min(found, key=lambda t: t[0])
    used = sum(t[2] for t in found)
    side = None if witness is None else side
    return DistanceReport(bound, False, "information-set", used, side, witness)


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


def _csr(m: FMatrix, data=None) -> sparse.csr_array:
    """m's CSR storage as a scipy array, with `data` in place of its values
    when given."""
    indptr, indices, values = m.csr()
    return sparse.csr_array((values if data is None else data, indices, indptr), shape=m.shape)


def _support(m: FMatrix) -> sparse.csr_array:
    return _csr(m, np.ones(m.nnz(), dtype=np.int64))


def _value_columns(m: FMatrix, values: np.ndarray) -> sparse.csr_array:
    """The 0/1 matrix with a 1 at column c * p + values[e] for each stored
    entry e of m at column c: two rows' product counts the columns where
    their values match."""
    indptr, indices, _ = m.csr()
    return sparse.csr_array(
        (np.ones(len(indices), dtype=np.int64), indices * m.p + values, indptr),
        shape=(m.shape[0], m.shape[1] * m.p),
    )


def _coset_weight_bounds(vectors: FMatrix, stab: FMatrix) -> np.ndarray:
    """Per row v of `vectors`, a greedy upper bound on |v| modulo the
    stabilizer rowspace: while some multiple of a stabilizer row lowers
    the weight, add the one that lowers it most (first scale, then first
    row, on ties).

    All rows take each round together.  Adding s * r to cur gives weight
    |cur| + |r| - overlap - zeros(s), where overlap counts the columns both
    meet and zeros(s) those where cur + s * r vanishes: one sparse product
    of the supports for the overlap (over GF(2), zeros = overlap) and, for
    odd p, one of value columns per scale.  Only rows meeting cur are
    scored; the others weigh more than cur.  A row that finds no lighter
    word is done and leaves the batch.
    """
    p = stab.p
    indptr, _, x = stab.csr()
    row_weight = np.diff(indptr)
    stab_rows = _csr(stab)
    support_t = _support(stab).T.tocsr()
    # cur + s * x vanishes where cur = -s * x
    targets = [_value_columns(stab, -s * x % p).T.tocsr() for s in range(1, p)] if p > 2 else []
    bound = np.diff(vectors.csr()[0])
    live = np.arange(vectors.shape[0])
    cur = vectors
    while live.size:
        weight = bound[live]
        overlap = _support(cur) @ support_t
        values = _value_columns(cur, cur.csr()[2]) if p > 2 else None
        scored = []  # (new weight, scale, vector, row) per pair that meets
        for s in range(1, p):
            # the zeros lie on the overlap's support, so the sum keeps its layout
            zeros = overlap if p == 2 else values @ targets[s - 1]
            pairs = (overlap + zeros).tocoo()
            at, row = pairs.row, pairs.col
            scored.append((weight[at] + row_weight[row] - pairs.data, np.full(at.size, s), at, row))
        w, scale, at, row = map(np.concatenate, zip(*scored))
        better = w < weight[at]
        w, scale, at, row = w[better], scale[better], at[better], row[better]
        order = np.lexsort((row, scale, w, at))
        pick = order[np.flatnonzero(np.diff(at[order], prepend=-1))]
        if not pick.size:
            break
        step = sparse.csr_array(
            (scale[pick], (np.arange(pick.size), row[pick])), shape=(pick.size, stab.shape[0])
        )
        cur = FMatrix(p, _csr(cur)[at[pick]] + step @ stab_rows)
        live = live[at[pick]]
        bound[live] = np.diff(cur.csr()[0])
    return bound


def _coset_weights(vectors: FMatrix, stab: FMatrix, stab_code: LinearCode | None) -> np.ndarray:
    """Per row v of `vectors`, |v| modulo the stabilizer rowspace: exact by
    enumeration when `stab_code` is given, else `_coset_weight_bounds`."""
    if stab_code is None:
        return _coset_weight_bounds(vectors, stab)
    out = []
    for cols, vals in vectors.rows():
        v = np.zeros(vectors.shape[1], dtype=np.int64)
        v[cols] = vals
        out.append(coset_min_weight(v, stab_code))
    return np.array(out, dtype=np.int64)


def _small_count(n: int, max_w: int, p: int) -> int:
    return sum(math.comb(n, w) * (p - 1) ** w for w in range(1, max_w + 1))


def _batch(p: int, n: int, supports: list, values: list) -> FMatrix:
    """The vectors with the given supports and values, one per row."""
    ptr = np.cumsum([0] + [len(c) for c in supports])
    cols = np.concatenate(supports) if supports else np.zeros(0, dtype=np.int64)
    data = np.concatenate(values) if values else np.zeros(0, dtype=np.int64)
    return FMatrix(p, sparse.csr_array((data, cols, ptr), shape=(len(supports), n)))


def _enumerate_small(n: int, max_w: int, p: int) -> FMatrix:
    """All nonzero vectors of weight at most max_w, one per row: by weight,
    then support, then values, each in lexicographic order."""
    supports, values = [], []
    for w in range(1, max_w + 1):
        vals = list(product(range(1, p), repeat=w))
        for support in combinations(range(n), w):
            supports += [support] * len(vals)
            values += vals
    return _batch(p, n, supports, values)


def _sample_small(n: int, max_w: int, p: int, rng: np.random.Generator, trials: int) -> FMatrix:
    """`trials` random vectors of weight 1 to max_w, one per row; each draws
    its weight, then its support, then its values."""
    supports, values = [], []
    for _ in range(trials):
        w = int(rng.integers(1, max_w + 1))
        supports.append(rng.choice(n, size=w, replace=False))
        values.append(rng.integers(1, p, size=w))
    return _batch(p, n, supports, values)


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
    0/0.  Coset weights are exact only when the rowspace fits the budget.

    Each epsilon's vectors, all of them or `trials` samples drawn one after
    another, are the rows of one sparse matrix.  Per side, their syndrome
    weights come from one product with the check matrix and their coset
    weights from `_coset_weight_bounds`, which runs the greedy for all of
    them at once."""
    p, n = code.p, code.n
    sides = {}
    exact_cosets = True
    for name, checks, stab, stab_code in (
        ("boundary", code.h_z, code.h_x, code.rowspace_x),
        ("coboundary", code.h_x, code.h_z, code.rowspace_z),
    ):
        if p**stab_code.dim > coset_budget:
            stab_code, exact_cosets = None, False
        sides[name] = (checks.T, stab, stab_code)
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
                vectors = _enumerate_small(n, max_w, p)
            else:
                vectors = _sample_small(n, max_w, p, rng, trials)
            for name, (checks_t, stab, stab_code) in sides.items():
                syn = np.array((vectors @ checks_t).row_weights(), dtype=np.int64)
                cw = _coset_weights(vectors, stab, stab_code)
                kept = cw > 0  # stabilizer words are 0/0
                if kept.any():
                    if not checks_t.shape[1]:
                        raise DomainError(f"no {name} checks to expand against")
                    ratios = (syn[kept] / checks_t.shape[1]) / (cw[kept] / n)
                    mins[name] = float(ratios.min())
                counts[name] = int(kept.sum())
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
