"""Linear-equation CSP instances carved out of CSS codes.

A code with check matrices H_X, H_Z and a word beta in ker(H_X) outside
rowspace(H_Z) yields the constraint system H_Z^T y = beta: one constraint
per qubit, one variable per Z check, sparse columns as coefficients.  An
instance is that one CSR matrix (constraints x variables) and its reduced
right-hand side, so emission is the transpose of H_Z.  When beta is not a
combination of Z checks the system is inconsistent, and a kernel word of
H_Z meeting beta oddly certifies that by exhibiting a vanishing
combination of constraints with nonvanishing right-hand side.

The module also carries desk-scale satisfiability probes (exact
enumeration and hill climbing), the level formula for the refutation
bound, and the dummy-variable chain reduction to 3-XOR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, cycle, repeat
from operator import itemgetter
from typing import NamedTuple

import numpy as np
from scipy import sparse

from .errors import (
    BetaNotAdmissible,
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    UnsupportedField,
)
from .gf import FMatrix, LinearCode, PrimeField, as_vector, iter_vectors, solve
from .inner import InnerCodePair
from .jsonio import collector_paused, dumps, encode_ints, loads
from .tanner import (
    Z_LAYERS,
    CssCode,
    SquareCayleyComplex,
    _FaceColumns,
    check_inner_length,
    check_matrix,
    num_check_rows,
)

BETA_ONES = ("one", "ones")  # the all-ones right-hand side, by rule


class LinConstraint(NamedTuple):
    """One sparse linear equation: sum coeffs[k] * y[vars[k]] = rhs."""

    vars: tuple[int, ...]
    coeffs: tuple[int, ...]
    rhs: int


def _integers(values: list, what: str) -> np.ndarray:
    """A list of Python ints as an int64 vector; refuses floats, strings,
    booleans (numpy would read True mixed with ints as 1) and big ints."""
    try:
        if set(map(type, values)) <= {int}:
            return np.fromiter(values, dtype=np.int64, count=len(values))
    except OverflowError:
        pass
    raise DomainError(f"{what} must be integers within int64")


def _refuse(mask: np.ndarray, index: np.ndarray, message: str) -> None:
    if mask.any():
        raise DomainError(f"constraint {index[np.argmax(mask)]}: {message}")


@dataclass(eq=False)
class LinInstance:
    """The system matrix y = rhs over GF(p): one CSR row per constraint and
    one column per variable, with rhs reduced mod p."""

    matrix: FMatrix
    rhs: np.ndarray
    arity_bound: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        self.rhs = as_vector(self.p, self.rhs)
        if self.rhs.shape != (self.num_constraints,):
            raise DomainError(f"{len(self.rhs)} right-hand sides, {self.num_constraints} rows")

    @property
    def p(self) -> int:
        return self.matrix.p

    @property
    def num_vars(self) -> int:
        return self.matrix.shape[1]

    @property
    def num_constraints(self) -> int:
        return self.matrix.shape[0]

    @property
    def constraints(self) -> list[LinConstraint]:
        """The rows as sparse equations, built on each call."""
        rows, rhs = self.matrix.rows(), self.rhs.tolist()
        return [LinConstraint(tuple(v), tuple(c), r) for (v, c), r in zip(rows, rhs)]

    def coefficient_matrix(self) -> np.ndarray:
        """Dense int64 view, for tests and benchmarks."""
        return self.matrix.toarray()

    def rhs_vector(self) -> np.ndarray:
        return self.rhs.copy()

    def to_doc(self) -> dict:
        """The constraints come as one `Encoded` list, written from the CSR
        arrays: per row '{"coeffs":[...],"rhs":r,"vars":[...]}', one %d
        fragment per row width, filled by `encode_ints` with each row's
        values, rhs and variables laid out in one flat array."""
        indptr, indices, data = self.matrix.csr()
        width = np.diff(indptr)
        n, row = len(width), np.repeat(np.arange(len(width)), width)
        # row r's run starts after the 2 * indptr[r] + r numbers of the rows before it
        at = np.arange(len(indices)) + indptr[row] + row
        flat = np.empty(2 * len(indices) + n, dtype=np.int64)
        flat[at] = data
        flat[at + width[row] + 1] = indices
        flat[2 * indptr[:-1] + width + np.arange(n)] = self.rhs
        row_text = '{{"coeffs":[{0}],"rhs":%d,"vars":[{0}]}}'.format
        fragment = {w: row_text(",".join(["%d"] * w)) for w in np.unique(width).tolist()}
        return {
            "p": self.p,
            "m": self.num_vars,
            "arity_bound": self.arity_bound,
            "constraints": encode_ints([fragment[w] for w in width.tolist()], flat),
            "provenance": self.provenance,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "LinInstance":
        """Read a document from outside the program: per constraint, vars and
        coeffs of one length up to `arity_bound`, distinct vars in range and
        coeffs nonzero mod p.  Vars come out sorted and values reduced."""
        p, m, bound = _integers([doc["p"], doc["m"], doc["arity_bound"]], "p, m, arity_bound")
        PrimeField(int(p))  # before the checks below reduce mod p
        cons = doc["constraints"]
        var_lists = list(map(itemgetter("vars"), cons))
        coeff_lists = list(map(itemgetter("coeffs"), cons))
        arity = np.fromiter(map(len, var_lists), dtype=np.int64, count=len(cons))
        lengths = np.fromiter(map(len, coeff_lists), dtype=np.int64, count=len(cons))
        index = np.arange(len(cons))
        _refuse(arity != lengths, index, "vars/coeffs length mismatch")
        _refuse(arity > bound, index, f"arity exceeds bound {bound}")
        rows = np.repeat(index, arity)
        vars_ = _integers(list(chain.from_iterable(var_lists)), "vars")
        coeffs = _integers(list(chain.from_iterable(coeff_lists)), "coeffs")
        # sort each constraint's vars; rows are ascending already and stay put
        if not ((vars_[1:] > vars_[:-1]) | (rows[1:] > rows[:-1])).all():
            order = np.lexsort((vars_, rows))
            vars_, coeffs = vars_[order], coeffs[order]
        _refuse((rows[1:] == rows[:-1]) & (vars_[1:] == vars_[:-1]), rows, "repeated variable")
        _refuse((vars_ < 0) | (vars_ >= m), rows, "variable out of range")
        _refuse(coeffs % p == 0, rows, "zero coefficient stored")
        indptr = np.concatenate([[0], np.cumsum(arity)])
        matrix = FMatrix(int(p), sparse.csr_array((coeffs, vars_, indptr), shape=(len(cons), m)))
        rhs = _integers(list(map(itemgetter("rhs"), cons)), "rhs")
        return cls(matrix, rhs, int(bound), doc.get("provenance", {}))

    def to_json(self) -> str:
        return dumps(self)

    @classmethod
    def from_json(cls, text: str) -> "LinInstance":
        # the document is acyclic and dies by reference counting once parsed,
        # so a collection during the load would only traverse the caller's heap
        with collector_paused():
            return loads(text, cls.from_doc)

    @classmethod
    def from_dense(cls, p: int, coeffs, rhs, provenance=None) -> "LinInstance":
        """Build an instance from a dense (constraints x vars) system."""
        matrix = FMatrix.from_dense(p, coeffs)
        return cls(matrix, rhs, matrix.max_row_weight(), provenance or {})


def emit_lin_instance(code: CssCode, beta) -> LinInstance:
    """Transpose system: constraint i is column i of H_Z with rhs beta_i.

    beta must be a logical on the X side: annihilated by H_X yet outside
    the rowspace of H_Z, which is exactly what makes the system worth
    emitting (it is then inconsistent while locally innocuous).
    """
    p, n = code.p, code.n
    b = np.asarray(beta, dtype=np.int64) % p
    if b.shape != (n,):
        raise BetaNotAdmissible(f"beta length {b.shape} differs from block length {n}")
    if code.h_x.apply(b).any():
        raise BetaNotAdmissible("beta is not annihilated by the X checks")
    if code.rowspace_z.contains(b):
        raise BetaNotAdmissible("beta lies in the Z-check rowspace")
    beta_kind = "ones" if (b == b[0]).all() and b[0] == 1 else "custom"
    return LinInstance(code.h_z.T, b, code.locality, {"code": code.provenance, "beta": beta_kind})


class TannerConstraintStream:
    """Constraint-at-a-time emission for Tanner builds.

    Constraint f is column f of H_Z with right-hand side beta[f]: the
    `tanner._face_plan` of the Z layers and the dual inner bases, read by a
    `tanner._FaceColumns` with no check matrix formed, so one constraint's
    cost does not grow with the block length.  The stream keeps the
    constraints it last evaluated, with their slice of beta as a list, so a
    query among them is one lookup.  A jump evaluates the face alone, from
    its own corner maps; a second face of the vertex met last, that
    vertex's delta^2 faces; and the face after a block of vertices, the
    next BLOCK_VERTICES vertices.  beta is a length-n array or the rule
    "ones" (spelt as in BETA_ONES), which holds none.  `as_instance` reads
    the plan for every face at once, through `tanner.check_matrix`.
    """

    BLOCK_VERTICES = 64

    def __init__(self, complex_: SquareCayleyComplex, pair: InnerCodePair, beta):
        check_inner_length(complex_, pair)
        self.complex = complex_
        self.p = pair.p
        if isinstance(beta, str):
            if beta not in BETA_ONES:
                raise BetaNotAdmissible(f"unknown beta rule {beta!r}: 'ones' or an array")
            self.beta = beta
        else:
            self.beta = np.asarray(beta, dtype=np.int64) % self.p
            if self.beta.shape != (complex_.num_faces,):
                raise BetaNotAdmissible(
                    f"beta length {self.beta.shape} differs from {complex_.num_faces}"
                )
        self._dual_a = pair.code_a.dual().basis.tolist()
        self._dual_b = pair.code_b.dual().basis.tolist()
        self._columns = _FaceColumns(complex_, Z_LAYERS, self._dual_a, self._dual_b, self.p)
        self._start, self._stop, self._block = 0, 0, []

    @property
    def num_constraints(self) -> int:
        return self.complex.num_faces

    @property
    def num_vars(self) -> int:
        return num_check_rows(self.complex, Z_LAYERS, self._dual_a, self._dual_b)

    def constraint(self, f: int) -> LinConstraint:
        if self._start <= f < self._stop:
            return self._block[f - self._start]
        cx, dd = self.complex, self.complex.delta**2
        g, ij = cx._face(f)
        if f == self._stop and len(self._block) > 1:  # face order, past a block
            self._fill(g, min(g + self.BLOCK_VERTICES, cx.group_size))
        elif g == (self._stop - 1) // dd:  # a second face of the vertex met last
            self._fill(g, g + 1)
        else:  # a jump: the face alone
            self._start, self._stop = g * dd + ij, g * dd + ij + 1
            rhs = 1 if isinstance(self.beta, str) else int(self.beta[self._start])
            self._block = [LinConstraint(self._columns.face(g, ij), self._columns.vals[ij], rhs)]
        return self._block[f - self._start]

    def _fill(self, g: int, stop: int) -> None:
        """Keep the constraints of the faces of vertices g..stop-1."""
        dd, columns = self.complex.delta**2, self._columns
        self._start, self._stop = g * dd, stop * dd
        beta = self.beta
        rhs = repeat(1) if isinstance(beta, str) else beta[self._start : self._stop].tolist()
        with collector_paused():  # the tuples are acyclic
            fields = zip(columns.block(g, stop), cycle(columns.vals), rhs)
            # tuple.__new__ makes each LinConstraint in C, as namedtuple's _make does
            self._block = list(map(tuple.__new__, repeat(LinConstraint), fields))

    def as_instance(self, provenance=None) -> LinInstance:
        h_z = check_matrix(self.complex, Z_LAYERS, self._dual_a, self._dual_b, self.p)
        bound = h_z.max_col_weight()
        beta = np.ones(h_z.shape[1], dtype=np.int64) if isinstance(self.beta, str) else self.beta
        return LinInstance(h_z.T, beta, bound, provenance or {"kind": "tanner-stream"})


@dataclass
class UnsatReport:
    consistent: bool
    assignment: list[int] | None
    certificate: list[tuple[int, int]] | None


def certify_unsat(
    instance: LinInstance, column_space: LinearCode | None = None
) -> UnsatReport:
    """Solve the system when b lies in the column space of A; otherwise
    return the vanishing constraint combination u (u.A = 0) with u.b != 0.

    `column_space` is the column space of A when the caller already holds
    it eliminated (for an instance emitted from a code, `code.rowspace_z`);
    otherwise A^T is eliminated here, once.  u is the first row of
    `kernel_basis(A^T)` meeting b, read off the residual of b.
    """
    p, nc = instance.p, instance.num_constraints
    a, b = instance.matrix, instance.rhs
    if column_space is None:
        column_space = LinearCode(p, nc, a.T)
    elif (column_space.p, column_space.n) != (p, nc):
        raise DimensionMismatch(
            f"column space in GF({column_space.p})^{column_space.n}, not GF({p})^{nc}"
        )
    u = column_space.dual_witness(b)
    if u is None:
        y = solve(a, b)
        return UnsatReport(consistent=True, assignment=[int(v) for v in y], certificate=None)
    cert = [(int(i), int(u[i])) for i in np.flatnonzero(u)]
    return UnsatReport(consistent=False, assignment=None, certificate=cert)


@dataclass
class SatReport:
    mode: str
    num_constraints: int
    best_satisfied: int
    best_fraction: float
    assignment: list[int]
    exact: bool


def max_sat(
    instance: LinInstance,
    mode: str = "exact",
    budget: int = 2**20,
    seed: int = 0,
    restarts: int = 8,
    max_steps: int = 200,
) -> SatReport:
    """Best satisfied fraction: exhaustive in exact mode, multi-restart
    single-flip hill climbing otherwise.  Ties break toward the
    lexicographically least assignment.  A climbing step takes the first
    (variable, value) that satisfies more constraints; the residual A y - b
    is updated along one column, and all gains come from one tally.
    Unsatisfiability certificates come from `certify_unsat`.
    """
    if mode not in ("exact", "local-search"):
        raise DomainError(f"unknown mode {mode!r}")
    if mode == "local-search" and restarts < 1:
        raise DomainError(f"local search needs restarts >= 1, got {restarts}")
    p, m, nc = instance.p, instance.num_vars, instance.num_constraints
    a, b = instance.matrix, instance.rhs

    if mode == "exact":
        total = p**m
        if total > budget:
            raise BudgetExceeded(
                f"{p}^{m} assignments over budget {budget}; `budget` (csp maxsat --budget) lifts it"
            )
        best_count, best_y = -1, None
        dense = a.toarray()
        for ys in iter_vectors(p, m, budget=None):  # lexicographic order
            counts = ((ys @ dense.T) % p == b).sum(axis=1)
            k = int(np.argmax(counts))
            if int(counts[k]) > best_count:
                best_count, best_y = int(counts[k]), ys[k].copy()
        exact = True
    else:
        indptr, cols, coeffs = a.csr()
        rows = np.repeat(np.arange(nc), np.diff(indptr))
        inverse = np.array([0] + [pow(c, -1, p) for c in range(1, p)], dtype=np.int64)
        columns = a.T.rows()  # per variable: its constraints and coefficients
        rng = np.random.default_rng(seed)
        best_count, best_y = -1, None
        for _ in range(restarts):
            y = rng.integers(0, p, size=m, dtype=np.int64)
            residual = (a.apply(y) - b) % p
            current = int((residual == 0).sum())
            for _ in range(max_steps):
                # y[v] += t satisfies constraint i of column v iff t = -r_i / a_iv
                # (t = 0: satisfied already); gain[v, t] = won - lost
                fix = (-residual[rows] * inverse[coeffs]) % p
                tally = np.bincount(cols * p + fix, minlength=m * p).reshape(m, p)
                gain = tally - tally[:, :1]
                by_value = np.take_along_axis(gain, (np.arange(p) - y[:, None]) % p, axis=1)
                better = np.flatnonzero(by_value > 0)
                if not better.size:
                    break
                v, val = divmod(int(better[0]), p)
                step = (val - y[v]) % p
                y[v] = val
                current += int(by_value[v, val])
                touched, coeff = columns[v]
                residual[touched] = (residual[touched] + np.array(coeff) * step) % p
            if current > best_count or (
                current == best_count and tuple(y) < tuple(best_y)
            ):
                best_count, best_y = current, y.copy()
        exact = False

    return SatReport(
        mode=mode,
        num_constraints=nc,
        best_satisfied=best_count,
        best_fraction=best_count / nc if nc else 1.0,
        assignment=[int(v) for v in best_y],
        exact=exact,
    )


def sos_level_bound(c1: float, c2: float, m: int, ell: int) -> float:
    """Refutation-level formula c1 * c2 * m / (4 * ell)."""
    if c1 <= 0 or c2 <= 0 or m <= 0 or ell <= 0:
        raise DomainError("all level-bound inputs must be positive")
    value = c1 * c2 * m / (4.0 * ell)
    if not math.isfinite(value):
        raise DomainError(f"level bound {value} is not finite")
    return value


def _runs(lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For consecutive runs of the given lengths, each position's run and
    its offset within the run."""
    run = np.repeat(np.arange(lengths.size), lengths)
    return run, np.arange(run.size) - (np.cumsum(lengths) - lengths)[run]


class XorClause(NamedTuple):
    vars: tuple[int, ...]
    parity: int


def _clause_error(idx: int, cl: XorClause, num_vars: int) -> str | None:
    """What is wrong with clause idx, or None when it is well formed."""
    if len(cl.vars) > 3:
        return f"clause {idx} has arity {len(cl.vars)} > 3"
    if len(set(cl.vars)) != len(cl.vars):
        return f"clause {idx} repeats a variable"
    for v in cl.vars:
        if not 0 <= v < num_vars:
            return f"clause {idx}: variable {v} out of range"
    if cl.parity not in (0, 1):
        return f"clause {idx}: parity must be 0 or 1"
    return None


class XorInstance:
    """Parity clauses over num_vars variables, held as arrays: clause k is
    sum of y[v] for v in vars[indptr[k]:indptr[k + 1]] = parity[k].

    Built from clauses (`XorInstance(num_vars, clauses)`, `from_text`) or
    by `reduce_to_3xor`; either way the arrays are checked once, and the
    first bad clause is named.
    """

    __slots__ = ("num_vars", "indptr", "vars", "parity")

    def __init__(self, num_vars: int, clauses):
        clauses = list(clauses)
        try:
            arity = np.fromiter((len(cl[0]) for cl in clauses), dtype=np.int64, count=len(clauses))
            vars_ = np.fromiter(
                chain.from_iterable(cl[0] for cl in clauses), dtype=np.int64, count=int(arity.sum())
            )
            parity = np.fromiter((cl[1] for cl in clauses), dtype=np.int64, count=len(clauses))
            self._set(num_vars, np.concatenate([[0], np.cumsum(arity)]), vars_, parity)
        except OverflowError:  # a value beyond int64: look clause by clause
            for idx, cl in enumerate(clauses):
                if error := _clause_error(idx, XorClause(*cl), num_vars):
                    raise DomainError(error) from None
            raise DomainError("variables must be integers within int64") from None

    @classmethod
    def _from_arrays(cls, num_vars: int, indptr, vars_, parity) -> "XorInstance":
        inst = cls.__new__(cls)
        inst._set(num_vars, indptr, vars_, parity)
        return inst

    def _set(self, num_vars: int, indptr, vars_, parity) -> None:
        self.num_vars, self.indptr, self.vars, self.parity = num_vars, indptr, vars_, parity
        bad = np.flatnonzero(self._invalid())
        if len(bad):
            idx = int(bad[0])
            raise DomainError(_clause_error(idx, self.clauses[idx], num_vars))

    def _invalid(self) -> np.ndarray:
        """Per clause, whether `_clause_error` finds a fault, on arrays."""
        arity, vars_, parity = np.diff(self.indptr), self.vars, self.parity
        owner, _ = _runs(arity)
        bad = (arity > 3) | ((parity != 0) & (parity != 1))
        bad[owner[(vars_ < 0) | (vars_ >= self.num_vars)]] = True
        start = self.indptr[:-1]
        for i, j in ((0, 1), (0, 2), (1, 2)):  # a longer clause is bad already
            has = np.flatnonzero(arity > j)
            bad[has[vars_[start[has] + i] == vars_[start[has] + j]]] = True
        return bad

    @property
    def clauses(self) -> list[XorClause]:
        """The clauses one by one, built on each call."""
        ptr, vars_ = self.indptr.tolist(), self.vars.tolist()
        return [
            XorClause(tuple(vars_[a:b]), par)
            for a, b, par in zip(ptr, ptr[1:], self.parity.tolist())
        ]

    @property
    def num_clauses(self) -> int:
        return len(self.parity)

    def __eq__(self, other) -> bool:
        if not isinstance(other, XorInstance):
            return NotImplemented
        return (self.num_vars, self.clauses) == (other.num_vars, other.clauses)

    def to_doc(self) -> dict:
        return {"num_vars": self.num_vars, "clauses": self.clauses}

    def to_text(self) -> str:
        """DIMACS-flavored dump: 1-indexed variables, parity last."""
        ptr, names = self.indptr.tolist(), list(map(str, (self.vars + 1).tolist()))
        lines = [f"p xor {self.num_vars} {self.num_clauses}"]
        lines += [
            " ".join(["x", *names[a:b], par])
            for a, b, par in zip(ptr, ptr[1:], map(str, self.parity.tolist()))
        ]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "XorInstance":
        """Parse `to_text` output; any other text raises DomainError."""
        lines = [ln.split() for ln in text.splitlines() if ln.strip()]
        try:
            (p, kind, nv, nc), *body = lines
            if (p, kind) != ("p", "xor") or any(ln[0] != "x" for ln in body):
                raise ValueError("not a 'p xor' header followed by 'x' lines")
            nv, nc = int(nv), int(nc)
            clauses = [XorClause(tuple(int(v) - 1 for v in vs), int(b)) for _, *vs, b in body]
        except ValueError as exc:
            raise DomainError(f"malformed 3-XOR text: {exc}") from None
        inst = cls(num_vars=nv, clauses=clauses)
        if inst.num_clauses != nc:
            raise DomainError("clause count disagrees with header")
        return inst


def reduce_to_3xor(instance: LinInstance) -> XorInstance:
    """Chain every long parity constraint through fresh dummy variables.

    An arity-w constraint x1+...+xw = b with w > 3 becomes
        x1 + x2 + z1 = 0
        z_{j-1} + x_{j+1} + z_j = 0        (j = 2 .. w-2)
        z_{w-2} + xw = b
    adding w-2 dummies, numbered on from num_vars in constraint order;
    short constraints pass through unchanged.  Index arithmetic on the CSR
    arrays: output position k of a long row is slot k % 3 of chain clause
    k // 3.
    """
    if instance.p != 2:
        raise UnsupportedField(f"3-XOR reduction requires GF(2), got GF({instance.p})")
    indptr, cols, _ = instance.matrix.csr()
    width = np.diff(indptr).astype(np.int64)
    long = width > 3
    dummies = np.where(long, width - 2, 0)
    first_dummy = instance.num_vars + np.cumsum(dummies) - dummies
    # clauses: one per short row, w - 1 per long row (arity 3, the last 2)
    per_row = np.where(long, width - 1, 1)
    row, j = _runs(per_row)
    arity = np.where(long[row], np.where(j == width[row] - 2, 2, 3), width[row])
    parity = np.where(j == per_row[row] - 1, instance.rhs[row], 0)
    # variables: x_k on a short row; on a long one x_0 x_1 z_0, then z_{j-1} x_{j+1} z_j
    row, k = _runs(np.where(long, 3 * width - 4, width))
    start = indptr[row].astype(np.int64)
    vars_ = cols[start + np.minimum(k, width[row] - 1)].astype(np.int64)  # short rows
    at = np.flatnonzero(long[row])
    j, slot = k[at] // 3, k[at] % 3
    z = first_dummy[row[at]] + j - (slot == 0)  # z_{j-1} in slot 0, z_j in slot 2
    x = cols[start[at] + np.where(slot == 1, j + 1, 0)]  # x_{j+1} in slot 1, x_0 in slot 0
    vars_[at] = np.where((slot == 1) | ((slot == 0) & (j == 0)), x, z)
    clause_ptr = np.concatenate([[0], np.cumsum(arity)])
    num_vars = instance.num_vars + int(dummies.sum())
    return XorInstance._from_arrays(num_vars, clause_ptr, vars_, parity)
