"""Output checks that recompute results without ptanner's GF(p) code.

Matrices are read straight from the JSON artifacts into ``scipy.sparse``;
rowspace membership over GF(2) uses a small Python-int elimination of its
own.  Every check raises `CheckFailed` with a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
from scipy import sparse

PLANTING_FLAGS = (
    "ones_in_ker_x",
    "ones_in_ker_z",
    "ones_outside_x_rowspace",
    "ones_outside_z_rowspace",
    "row_sums_zero",
)


class CheckFailed(Exception):
    pass


def expect(condition, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


# ---- readers and GF(2) helpers ---------------------------------------------


def matrix_from_doc(doc: dict) -> sparse.csr_matrix:
    entries = np.asarray(doc["entries"], dtype=np.int64).reshape(-1, 3)
    return sparse.csr_matrix(
        (entries[:, 2], (entries[:, 0], entries[:, 1])),
        shape=(doc["rows"], doc["cols"]),
        dtype=np.int64,
    )


def read_code(path: Path) -> tuple[int, sparse.csr_matrix, sparse.csr_matrix]:
    doc = json.loads(Path(path).read_text())
    return doc["p"], matrix_from_doc(doc["h_x"]), matrix_from_doc(doc["h_z"])


def zero_mod(values, p: int) -> bool:
    return not (np.asarray(values) % p).any()


def pack(vec) -> int:
    return int("".join("1" if v % 2 else "0" for v in vec) or "0", 2)


def gf2_basis(rows: sparse.csr_matrix) -> dict[int, int]:
    """Echelon basis of the GF(2) rowspace, keyed by each row's top bit."""
    basis: dict[int, int] = {}
    n = rows.shape[1]
    for r in range(rows.shape[0]):
        start, stop = rows.indptr[r], rows.indptr[r + 1]
        word = 0
        for c, v in zip(rows.indices[start:stop], rows.data[start:stop]):
            if v % 2:
                word ^= 1 << (n - 1 - int(c))
        while word:
            top = word.bit_length() - 1
            if top not in basis:
                basis[top] = word
                break
            word ^= basis[top]
    return basis


def gf2_in_span(basis: dict[int, int], word: int) -> bool:
    while word:
        top = word.bit_length() - 1
        if top not in basis:
            return False
        word ^= basis[top]
    return True


def manifest_hashes(out_dir: Path, manifest: dict) -> None:
    for stage, entry in manifest["stages"].items():
        for art in entry["artifacts"].values():
            data = (out_dir / art["path"]).read_bytes()
            expect(
                hashlib.sha256(data).hexdigest() == art["sha256"],
                f"{stage}: {art['path']} does not match its manifest hash",
            )


# ---- flagship --------------------------------------------------------------


def unsat_certificate(doc: dict, h_z: sparse.csr_matrix, beta: np.ndarray, p: int) -> None:
    """u.H_Z^T = 0 and u.beta != 0 for the certificate u."""
    expect(doc["consistent"] is False, "the planted ones-CSP was reported consistent")
    cert = doc["certificate"]
    expect(cert, "no unsat certificate")
    u = np.zeros(h_z.shape[1], dtype=np.int64)
    for i, c in cert:
        u[i] = c
    expect(zero_mod(h_z @ u, p), "certificate u has u.H_Z^T != 0")
    expect(int(u @ beta) % p != 0, "certificate u has u.beta = 0")


def pipeline_run(out_dir: Path, manifest: dict) -> dict:
    """Check a flagship run's artifacts; returns facts for later checks."""
    manifest_hashes(out_dir, manifest)
    p, h_x, h_z = read_code(out_dir / "code.json")
    expect(p == 2, f"expected a GF(2) code, got GF({p})")
    n = h_x.shape[1]
    expect(zero_mod((h_x @ h_z.T).data, p), "CSS orthogonality fails: H_X.H_Z^T != 0")
    ones = np.ones(n, dtype=np.int64)
    expect(zero_mod(h_x @ ones, p) and zero_mod(h_z @ ones, p), "ones not in both kernels")
    verify = json.loads((out_dir / "verify.json").read_text())
    for flag in PLANTING_FLAGS:
        expect(verify["planted"][flag] is True, f"planting flag {flag} is false")
    expect(verify["dimension"] >= 1, f"dimension k = {verify['dimension']} < 1")
    x_basis = gf2_basis(h_x)
    expect(not gf2_in_span(x_basis, pack(ones)), "ones lies in rowspace(H_X)")

    instance = json.loads((out_dir / "csp_instance.json").read_text())
    csc = h_z.tocsc()
    expect(len(instance["constraints"]) == n, "CSP does not have one constraint per face")
    for i, con in enumerate(instance["constraints"]):
        rows = csc.indices[csc.indptr[i]:csc.indptr[i + 1]]
        vals = csc.data[csc.indptr[i]:csc.indptr[i + 1]] % p
        keep = vals != 0
        expect(
            con["vars"] == rows[keep].tolist() and con["coeffs"] == vals[keep].tolist()
            and con["rhs"] == 1,
            f"CSP constraint {i} is not column {i} of H_Z with rhs 1",
        )
    unsat_certificate(json.loads((out_dir / "csp_unsat.json").read_text()), h_z, ones, p)

    if "distance" in manifest["stages"]:
        dist = json.loads((out_dir / "distance.json").read_text())
        w = np.asarray(dist["witness"], dtype=np.int64)
        expect(int(np.count_nonzero(w % p)) == dist["upper_bound"],
               "distance witness weight differs from the reported bound")
        kernel_of, rowspace_of = (h_z, h_x) if dist["side"] == "z-logical" else (h_x, h_z)
        expect(zero_mod(kernel_of @ w, p), "distance witness is not in the kernel")
        span = x_basis if rowspace_of is h_x else gf2_basis(rowspace_of)
        expect(not gf2_in_span(span, pack(w)), "distance witness is a stabilizer")
    return {"p": p, "h_z": h_z, "dimension": verify["dimension"]}


def cli_verify(rc: int, path: Path, facts: dict) -> None:
    expect(rc == 0, f"code verify exited {rc}")
    doc = json.loads(Path(path).read_text())
    for flag in PLANTING_FLAGS:
        expect(doc["planted"][flag] is True, f"code verify: flag {flag} is false")
    expect(doc["dimension"] == facts["dimension"],
           "code verify dimension differs from the pipeline's")


def cli_unsat(rc: int, path: Path, facts: dict) -> None:
    expect(rc == 0, f"csp unsat exited {rc}")
    h_z = facts["h_z"]
    unsat_certificate(json.loads(Path(path).read_text()), h_z,
                      np.ones(h_z.shape[1], dtype=np.int64), facts["p"])


# ---- level 2 ---------------------------------------------------------------


def _coords(idx: int, q: int) -> tuple[int, int, int]:
    return idx % q, (idx // q) % q, idx // (q * q)


def _matrix(p: int, q: int, a: int, b: int, c: int) -> tuple[int, int, int, int]:
    """[[1+pa, pb], [pc, w]] mod p*q, with w fixed by det = 1."""
    mod = p * q
    x0 = (1 + p * a) % mod
    w = (1 + p * p * b * c) * pow(x0, -1, mod) % mod
    return x0, p * b % mod, p * c % mod, w


def neighbor_lists(lists, p: int, m: int, generators) -> None:
    """Vertex v's j-th neighbour is generator_j * v, recomputed with 2x2
    matrices mod p^(m+1)."""
    q = p**m
    mod = p * q
    expect(len(lists) == q**3, "neighbour lists do not cover the group")
    gens = [_matrix(p, q, *g) for g in generators]
    for v, row in enumerate(lists):
        y = _matrix(p, q, *_coords(v, q))
        expect(len(row) == len(gens), f"vertex {v}: wrong degree")
        for j, x in enumerate(gens):
            prod = ((x[0] * y[0] + x[1] * y[2]) % mod, (x[0] * y[1] + x[1] * y[3]) % mod,
                    (x[2] * y[0] + x[3] * y[2]) % mod)
            a, b, c = ((prod[0] - 1) // p) % q, (prod[1] // p) % q, (prod[2] // p) % q
            expect(row[j] == a + q * b + q * q * c, f"vertex {v}: neighbour {j} is wrong")


def local_views(views: dict, num_faces: int) -> None:
    for layer, grids in views.items():
        flat = np.sort(np.concatenate([g.reshape(-1) for g in grids]))
        expect(np.array_equal(flat, np.arange(num_faces)),
               f"layer {layer} local views do not partition the faces")


def stream_columns(constraints, views: dict, dual_a, dual_b, p: int, group_size: int) -> None:
    """Each streamed constraint equals the H_Z column rebuilt from the 01/10
    local views and the dual inner bases (row layout: layer, vertex, s, t)."""
    ka, kb = len(dual_a), len(dual_b)
    expected: list[list[tuple[int, int]]] = [[] for _ in constraints]
    for layer_no, layer in enumerate(("01", "10")):
        for g, grid in enumerate(views[layer]):
            base = (layer_no * group_size + g) * ka * kb
            for (r, c), face in np.ndenumerate(grid):
                for s in range(ka):
                    for t in range(kb):
                        coef = int(dual_a[s][r]) * int(dual_b[t][c]) % p
                        if coef:
                            expected[int(face)].append((base + s * kb + t, coef))
    for f, con in enumerate(constraints):
        expect(sorted(zip(con.vars, con.coeffs)) == sorted(expected[f]) and con.rhs == 1,
               f"streamed constraint {f} differs from H_Z column {f}")


def three_xor(instance, xor) -> None:
    widths = [len(con.vars) for con in instance.constraints]
    expect(xor.num_vars == instance.num_vars + sum(w - 2 for w in widths if w > 3),
           "3-XOR dummy variable count is wrong")
    expect(xor.num_clauses == sum(w - 1 if w > 3 else 1 for w in widths),
           "3-XOR clause count is wrong")
    expect(all(len(cl.vars) <= 3 for cl in xor.clauses), "3-XOR clause longer than 3")
    parity = sum(con.rhs for con in instance.constraints) % 2
    expect(sum(cl.parity for cl in xor.clauses) % 2 == parity, "3-XOR parity differs")


def json_round_trip(instance, text: str, back) -> None:
    expect(len(json.loads(text)["constraints"]) == instance.num_constraints,
           "JSON constraint count differs")
    expect(back.num_vars == instance.num_vars and back.constraints == instance.constraints,
           "LinInstance JSON round trip changed the instance")


# ---- lab -------------------------------------------------------------------


def syndrome_set(sset, checks: np.ndarray, epsilon: float) -> None:
    """Recount members over all 2^n words with packed popcounts."""
    n = checks.shape[1]
    words = np.arange(1 << n, dtype=np.int64)
    weight = np.zeros(1 << n, dtype=np.int64)
    for row in checks:
        weight += np.bitwise_count(words & pack(row)) & 1
    members = np.nonzero(weight <= epsilon * checks.shape[0] + 1e-12)[0]
    expect(sorted(sset.members) == members.tolist(), "syndrome-set members differ")


def clusters(part, sset) -> None:
    flat = [y for cluster in part.clusters for y in cluster]
    expect(len(flat) == len(set(flat)), "clusters overlap")
    expect(sorted(flat) == sorted(sset.members), "clusters do not cover the syndrome set")


def lemma(report, expect_holds: bool | None) -> None:
    if expect_holds:
        expect(report.all_ok, "cluster lemma fails inside its regime")


def logicals(pair, h_x: np.ndarray, h_z: np.ndarray) -> None:
    x_word, z_word = (np.asarray(w, dtype=np.int64) for w in pair)
    expect(zero_mod(h_x @ x_word, 2), "X logical is not in ker H_X")
    expect(zero_mod(h_z @ z_word, 2), "Z logical is not in ker H_Z")
    expect(int(x_word @ z_word) % 2 == 1, "logical pair does not anticommute")


def spread(reports, part_x, part_z) -> None:
    for rep, part in zip(reports, (part_x, part_z)):
        expect(sorted(rep.s0 + rep.s1) == sorted(part.members),
               f"{rep.basis} spread sides do not split the syndrome set")
        expect(min(rep.mass0, rep.mass1) >= 0 and rep.mass0 + rep.mass1 <= 1 + 1e-9,
               f"{rep.basis} spread masses are not a sub-distribution")


def max_sat(report, a: sparse.csr_matrix, b: np.ndarray, p: int) -> None:
    y = np.asarray(report.assignment, dtype=np.int64)
    satisfied = int(((a @ y) % p == b % p).sum())
    expect(satisfied == report.best_satisfied, "max-sat count differs from its assignment")
    expect(report.best_fraction == satisfied / a.shape[0], "max-sat fraction is wrong")
