"""Linear-equation CSP instances carved out of CSS codes.

A code with check matrices H_X, H_Z and a word beta in ker(H_X) outside
rowspace(H_Z) yields the constraint system H_Z^T y = beta: one constraint
per qubit, one variable per Z check, sparse columns as coefficients.  When
beta is not a combination of Z checks the system is inconsistent, and a
kernel word of H_Z meeting beta oddly certifies that by exhibiting a
vanishing combination of constraints with nonvanishing right-hand side.

The module also carries desk-scale satisfiability probes (exact
enumeration and hill climbing), the level formula for the refutation
bound, and the dummy-variable chain reduction to 3-XOR.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BetaNotAdmissible,
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    UnsupportedField,
)
from .gf import FMatrix, LinearCode, iter_codewords, solve
from .inner import InnerCodePair
from .jsonio import dumps
from .tanner import (
    Z_LAYERS,
    CssCode,
    SquareCayleyComplex,
    check_inner_length,
    check_matrix,
    face_column,
    num_check_rows,
)


class LinConstraint(NamedTuple):
    """One sparse linear equation: sum coeffs[k] * y[vars[k]] = rhs."""

    vars: tuple[int, ...]
    coeffs: tuple[int, ...]
    rhs: int


@dataclass
class LinInstance:
    p: int
    num_vars: int
    constraints: list[LinConstraint]
    arity_bound: int
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        for idx, con in enumerate(self.constraints):
            if len(con.vars) != len(con.coeffs):
                raise DomainError(f"constraint {idx}: vars/coeffs length mismatch")
            if len(con.vars) > self.arity_bound:
                raise DomainError(
                    f"constraint {idx}: arity {len(con.vars)} exceeds bound "
                    f"{self.arity_bound}"
                )
            if len(set(con.vars)) != len(con.vars):
                raise DomainError(f"constraint {idx}: repeated variable")
            for v in con.vars:
                if not 0 <= v < self.num_vars:
                    raise DomainError(f"constraint {idx}: variable {v} out of range")
            for c in con.coeffs:
                if c % self.p == 0:
                    raise DomainError(f"constraint {idx}: zero coefficient stored")

    @property
    def num_constraints(self) -> int:
        return len(self.constraints)

    def to_fmatrix(self) -> FMatrix:
        """The coefficients as one CSR matrix, constraints x variables."""
        entries = [
            (i, v, c)
            for i, con in enumerate(self.constraints)
            for v, c in zip(con.vars, con.coeffs)
        ]
        return FMatrix.from_entries(self.p, self.num_constraints, self.num_vars, entries)

    def coefficient_matrix(self) -> np.ndarray:
        """Dense int64 view, for tests and benchmarks; the solvers use to_fmatrix."""
        a = np.zeros((self.num_constraints, self.num_vars), dtype=np.int64)
        for i, con in enumerate(self.constraints):
            for v, c in zip(con.vars, con.coeffs):
                a[i, v] = c
        return a

    def rhs_vector(self) -> np.ndarray:
        return np.array([con.rhs for con in self.constraints], dtype=np.int64)

    def to_doc(self) -> dict:
        return {
            "p": self.p,
            "m": self.num_vars,
            "arity_bound": self.arity_bound,
            "constraints": [
                {"vars": c.vars, "coeffs": c.coeffs, "rhs": c.rhs}
                for c in self.constraints
            ],
            "provenance": self.provenance,
        }

    @classmethod
    def from_doc(cls, doc: dict) -> "LinInstance":
        cons = [
            LinConstraint(tuple(c["vars"]), tuple(c["coeffs"]), int(c["rhs"]))
            for c in doc["constraints"]
        ]
        return cls(
            p=int(doc["p"]),
            num_vars=int(doc["m"]),
            constraints=cons,
            arity_bound=int(doc["arity_bound"]),
            provenance=doc.get("provenance", {}),
        )

    def to_json(self) -> str:
        return dumps(self)

    @classmethod
    def from_json(cls, text: str) -> "LinInstance":
        return cls.from_doc(json.loads(text))

    @classmethod
    def from_dense(cls, p: int, coeffs: np.ndarray, rhs, provenance=None) -> "LinInstance":
        """Build an instance from a dense (constraints x vars) system."""
        a = np.asarray(coeffs, dtype=np.int64) % p
        b = np.asarray(rhs, dtype=np.int64) % p
        if a.ndim != 2 or b.shape != (a.shape[0],):
            raise DomainError("coefficient matrix and rhs shapes disagree")
        cons = []
        for i in range(a.shape[0]):
            nz = np.nonzero(a[i])[0]
            cons.append(
                LinConstraint(
                    tuple(int(v) for v in nz),
                    tuple(int(a[i, v]) for v in nz),
                    int(b[i]),
                )
            )
        bound = max((len(c.vars) for c in cons), default=0)
        return cls(
            p=p,
            num_vars=a.shape[1],
            constraints=cons,
            arity_bound=bound,
            provenance=provenance or {},
        )


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
    cons = [
        LinConstraint(tuple(checks), tuple(coeffs), int(b_i))
        for (checks, coeffs), b_i in zip(code.h_z.T.rows(), b)
    ]
    beta_kind = "ones" if (b == b[0]).all() and b[0] == 1 else "custom"
    return LinInstance(
        p=p,
        num_vars=code.m_z,
        constraints=cons,
        arity_bound=code.locality,
        provenance={"code": code.provenance, "beta": beta_kind},
    )


class TannerConstraintStream:
    """Constraint-at-a-time emission for Tanner builds.

    Constraint f is `tanner.face_column` of face f on the Z layers with the
    dual inner bases (column f of H_Z, evaluated by group arithmetic from f
    alone) and right-hand side beta[f].  No check matrix is formed, so the
    cost of one constraint does not grow with the block length.  `as_instance`
    reads all of them off `tanner.check_matrix`; the tests compare the two.
    """

    def __init__(self, complex_: SquareCayleyComplex, pair: InnerCodePair, beta):
        check_inner_length(complex_, pair)
        self.complex = complex_
        self.p = pair.p
        self.beta = np.asarray(beta, dtype=np.int64) % self.p
        if self.beta.shape != (complex_.num_faces,):
            raise BetaNotAdmissible(
                f"beta length {self.beta.shape} differs from {complex_.num_faces}"
            )
        self._dual_a = pair.code_a.dual().basis.tolist()
        self._dual_b = pair.code_b.dual().basis.tolist()

    @property
    def num_constraints(self) -> int:
        return self.complex.num_faces

    @property
    def num_vars(self) -> int:
        return num_check_rows(self.complex, Z_LAYERS, self._dual_a, self._dual_b)

    def constraint(self, f: int) -> LinConstraint:
        checks, coeffs = face_column(
            self.complex, f, Z_LAYERS, self._dual_a, self._dual_b, self.p
        )
        return LinConstraint(tuple(checks), tuple(coeffs), int(self.beta[f]))

    def as_instance(self, provenance=None) -> LinInstance:
        h_z = check_matrix(self.complex, Z_LAYERS, self._dual_a, self._dual_b, self.p)
        rhs = self.beta.tolist()
        cons = [LinConstraint(tuple(v), tuple(c), rhs[f]) for f, (v, c) in enumerate(h_z.T.rows())]
        bound = max((len(c.vars) for c in cons), default=0)
        return LinInstance(
            p=self.p,
            num_vars=self.num_vars,
            constraints=cons,
            arity_bound=bound,
            provenance=provenance or {"kind": "tanner-stream"},
        )


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
    b = instance.rhs_vector() % p
    if column_space is None:
        column_space = LinearCode(p, nc, instance.to_fmatrix().T)
    elif (column_space.p, column_space.n) != (p, nc):
        raise DimensionMismatch(
            f"column space in GF({column_space.p})^{column_space.n}, not GF({p})^{nc}"
        )
    u = column_space.dual_witness(b)
    if u is None:
        y = solve(instance.to_fmatrix(), b)
        return UnsatReport(
            consistent=True, assignment=[int(v) for v in y], certificate=None
        )
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
    a = instance.to_fmatrix()
    b = instance.rhs_vector() % p

    if mode == "exact":
        total = p**m
        if total > budget:
            raise BudgetExceeded(f"{p}^{m} assignments exceed budget {budget}")
        best_count, best_y = -1, None
        # the identity code's words are all assignments, in lexicographic order
        everything = LinearCode(p, m, np.eye(m, dtype=np.int64))
        dense = a.toarray()
        for ys in iter_codewords(everything, budget=None):
            counts = ((ys @ dense.T) % p == b).sum(axis=1)
            k = int(np.argmax(counts))
            if int(counts[k]) > best_count:
                best_count, best_y = int(counts[k]), ys[k].copy()
        exact = True
    else:
        rows, cols, coeffs = np.array(a.entries(), dtype=np.int64).reshape(-1, 3).T
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


class XorClause(NamedTuple):
    vars: tuple[int, ...]
    parity: int


@dataclass
class XorInstance:
    num_vars: int
    clauses: list[XorClause]

    def __post_init__(self):
        for idx, cl in enumerate(self.clauses):
            if len(cl.vars) > 3:
                raise DomainError(f"clause {idx} has arity {len(cl.vars)} > 3")
            if len(set(cl.vars)) != len(cl.vars):
                raise DomainError(f"clause {idx} repeats a variable")
            for v in cl.vars:
                if not 0 <= v < self.num_vars:
                    raise DomainError(f"clause {idx}: variable {v} out of range")
            if cl.parity not in (0, 1):
                raise DomainError(f"clause {idx}: parity must be 0 or 1")

    @property
    def num_clauses(self) -> int:
        return len(self.clauses)

    def to_lin_instance(self) -> LinInstance:
        cons = [LinConstraint(cl.vars, (1,) * len(cl.vars), cl.parity) for cl in self.clauses]
        return LinInstance(
            p=2,
            num_vars=self.num_vars,
            constraints=cons,
            arity_bound=3,
            provenance={"kind": "3xor"},
        )

    def to_text(self) -> str:
        """DIMACS-flavored dump: 1-indexed variables, parity last."""
        lines = [f"p xor {self.num_vars} {self.num_clauses}"]
        for cl in self.clauses:
            body = " ".join(str(v + 1) for v in cl.vars)
            lines.append(f"x {body} {cl.parity}".replace("  ", " "))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "XorInstance":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("p xor"):
            raise DomainError("missing 'p xor' header")
        _, _, nv, nc = lines[0].split()
        clauses = []
        for ln in lines[1:]:
            parts = ln.split()
            if parts[0] != "x":
                raise DomainError(f"unexpected line {ln!r}")
            *vars_, parity = parts[1:]
            clauses.append(
                XorClause(tuple(int(v) - 1 for v in vars_), int(parity))
            )
        inst = cls(num_vars=int(nv), clauses=clauses)
        if inst.num_clauses != int(nc):
            raise DomainError("clause count disagrees with header")
        return inst


def reduce_to_3xor(instance: LinInstance) -> XorInstance:
    """Chain every long parity constraint through fresh dummy variables.

    An arity-w constraint x1+...+xw = b with w > 3 becomes
        x1 + x2 + z1 = 0
        z_{j-1} + x_{j+1} + z_j = 0        (j = 2 .. w-2)
        z_{w-2} + xw = b
    adding w-2 dummies; short constraints pass through unchanged.
    """
    if instance.p != 2:
        raise UnsupportedField(f"3-XOR reduction requires GF(2), got GF({instance.p})")
    next_var = instance.num_vars
    clauses: list[XorClause] = []
    for con in instance.constraints:
        vs = con.vars
        b = con.rhs % 2
        w = len(vs)
        if w <= 3:
            clauses.append(XorClause(tuple(vs), b))
            continue
        zs = list(range(next_var, next_var + w - 2))
        next_var += w - 2
        clauses.append(XorClause((vs[0], vs[1], zs[0]), 0))
        for j in range(2, w - 1):
            clauses.append(XorClause((zs[j - 2], vs[j], zs[j - 1]), 0))
        clauses.append(XorClause((zs[w - 3], vs[w - 1]), b))
    return XorInstance(num_vars=next_var, clauses=clauses)
