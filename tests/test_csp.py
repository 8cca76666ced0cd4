"""Constraint-emission tests.

The oracles: explicit transpose inspection for emitted systems, raw
Gaussian-free recounts for satisfiability, and double enumeration for the
3-XOR reduction corpus.
"""

import json
import time
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ptanner.errors import (
    BetaNotAdmissible,
    BudgetExceeded,
    DimensionMismatch,
    DomainError,
    UnsupportedField,
)
from ptanner.csp import (
    LinConstraint,
    LinInstance,
    TannerConstraintStream,
    XorClause,
    XorInstance,
    certify_unsat,
    emit_lin_instance,
    max_sat,
    reduce_to_3xor,
    sos_level_bound,
)
from ptanner.expander import default_generators
from ptanner.gf import LinearCode, kernel_basis, solve
from ptanner.inner import InnerCodePair
from ptanner.jsonio import dumps
from ptanner.tanner import SquareCayleyComplex, build_code, verify_planted

from small_codes import steane_code


def eval_satisfied(p, constraints, assignment):
    """Independent constraint recount, plain Python."""
    count = 0
    for vars_, coeffs, rhs in constraints:
        lhs = sum(c * assignment[v] for v, c in zip(vars_, coeffs)) % p
        count += lhs == rhs % p
    return count


def brute_best(p, num_vars, constraints):
    best = -1
    for assignment in product(range(p), repeat=num_vars):
        best = max(best, eval_satisfied(p, constraints, assignment))
    return best


@pytest.fixture(scope="module")
def steane():
    return steane_code()


@pytest.fixture(scope="module")
def planted_build():
    gens = default_generators(3, 1, 3, require_generation=False)
    cx = SquareCayleyComplex(gens, gens, "paired")
    pair = InnerCodePair(
        2, 3, LinearCode(2, 3, [[1, 1, 1], [1, 0, 0]]), LinearCode(2, 3, [[1, 1, 0]])
    )
    return cx, pair, build_code(cx, pair)


# ------------------------------------------------------------- emission


def test_emit_matches_transpose(steane):
    beta = np.array([1, 1, 1, 0, 0, 0, 0])
    inst = emit_lin_instance(steane, beta)
    assert inst.p == 2
    assert inst.num_vars == steane.m_z == 3
    assert inst.num_constraints == 7
    hz = steane.h_z.toarray()
    for i, con in enumerate(inst.constraints):
        col = hz[:, i]
        nz = tuple(int(v) for v in np.nonzero(col)[0])
        assert con.vars == nz
        assert con.coeffs == tuple(int(col[v]) for v in nz)
        assert con.rhs == int(beta[i])
        assert len(con.vars) <= steane.locality


def test_emit_rejects_bad_beta(steane):
    with pytest.raises(BetaNotAdmissible):
        emit_lin_instance(steane, np.zeros(7, dtype=int))
    e0 = np.zeros(7, dtype=int)
    e0[0] = 1
    with pytest.raises(BetaNotAdmissible):
        emit_lin_instance(steane, e0)
    # a Z-check row: annihilated by H_X but inside the Z rowspace
    with pytest.raises(BetaNotAdmissible):
        emit_lin_instance(steane, np.array([1, 0, 1, 0, 1, 0, 1]))
    with pytest.raises(BetaNotAdmissible):
        emit_lin_instance(steane, np.ones(6, dtype=int))


def test_emit_planted_instance_shape(planted_build):
    cx, pair, code = planted_build
    assert verify_planted(code).planted
    inst = emit_lin_instance(code, np.ones(code.n, dtype=int))
    assert inst.num_constraints == cx.num_faces == 243
    assert inst.num_vars == code.m_z == 108
    assert all(1 <= len(c.vars) <= code.locality for c in inst.constraints)
    assert all(c.rhs == 1 for c in inst.constraints)
    assert inst.provenance["beta"] == "ones"


def test_lin_instance_json_round_trip(steane):
    inst = emit_lin_instance(steane, np.ones(7, dtype=int))
    again = LinInstance.from_json(inst.to_json())
    assert again.p == inst.p
    assert again.num_vars == inst.num_vars
    assert again.constraints == inst.constraints
    assert again.arity_bound == inst.arity_bound


def lin_doc(p, m, constraints, arity_bound):
    """An instance document holding `constraints` as written."""
    return {
        "p": p,
        "m": m,
        "arity_bound": arity_bound,
        "constraints": [c._asdict() for c in constraints],
    }


def test_lin_instance_validation():
    with pytest.raises(DomainError):
        LinInstance.from_doc(lin_doc(2, 2, [LinConstraint((0, 1), (1,), 0)], 3))
    with pytest.raises(DomainError):
        LinInstance.from_doc(lin_doc(2, 2, [LinConstraint((0, 1), (1, 1), 0)], 1))
    with pytest.raises(DomainError):
        LinInstance.from_doc(lin_doc(2, 2, [LinConstraint((0, 0), (1, 1), 0)], 3))
    with pytest.raises(DomainError):
        LinInstance.from_doc(lin_doc(2, 2, [LinConstraint((0, 5), (1, 1), 0)], 3))
    with pytest.raises(DomainError):
        LinInstance.from_doc(lin_doc(2, 2, [LinConstraint((0, 1), (1, 2), 0)], 3))
    # values that are not int64 integers are refused, not truncated
    for bad in (
        LinConstraint((0.5, 1), (1, 1), 0),
        LinConstraint((0, 1), (1, 1.0), 0),
        LinConstraint((0, 1), (1, 1), "1"),
        LinConstraint((0, 2**70), (1, 1), 0),
        LinConstraint((True, 0), (1, 1), 0),
        LinConstraint((0, 1), (1, False), 0),
        LinConstraint((0, 1), (1, 1), True),
    ):
        with pytest.raises(DomainError):
            LinInstance.from_doc(lin_doc(2, 2, [bad], 3))
    with pytest.raises(DomainError):
        LinInstance.from_doc(lin_doc(2, 10**30, [LinConstraint((0, 1), (1, 1), 0)], 3))


def loop_constraints(doc):
    """Oracle for `from_doc`: each constraint sorted by variable, values
    reduced mod p."""
    p, out = doc["p"], []
    for con in doc["constraints"]:
        pairs = sorted(zip(con["vars"], con["coeffs"]))
        out.append(LinConstraint(
            tuple(v for v, _ in pairs), tuple(c % p for _, c in pairs), con["rhs"] % p
        ))
    return out


@st.composite
def instance_docs(draw):
    """Instance documents with unsorted vars and unreduced coefficients and
    right-hand sides, as a file written elsewhere may hold them."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(0, 6))
    cons = []
    for _ in range(draw(st.integers(0, 6))):
        vars_ = draw(st.lists(st.integers(0, max(m - 1, 0)), unique=True, max_size=m))
        coeffs = [draw(st.integers(1, p - 1)) + p * draw(st.integers(-2, 2)) for _ in vars_]
        cons.append({"vars": vars_, "coeffs": coeffs, "rhs": draw(st.integers(-9, 9))})
    bound = max((len(c["vars"]) for c in cons), default=0) + draw(st.integers(0, 2))
    return {"p": p, "m": m, "arity_bound": bound, "constraints": cons, "provenance": {"t": 1}}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(instance_docs(), st.data())
def test_from_doc_matches_loop_oracle(doc, data):
    inst = LinInstance.from_doc(doc)
    assert (inst.p, inst.num_vars, inst.arity_bound) == (doc["p"], doc["m"], doc["arity_bound"])
    assert inst.constraints == loop_constraints(doc)
    text = dumps(inst)
    assert dumps(LinInstance.from_doc(json.loads(text))) == text
    canonical = dict(doc, constraints=[c._asdict() for c in loop_constraints(doc)])
    # the writer on the CSR arrays gives the bytes of the document as objects
    assert inst.to_json() == text == dumps(canonical)
    assert dumps(LinInstance.from_doc(json.loads(dumps(canonical)))) == dumps(canonical)

    # each invalid form, planted in one nonempty constraint
    nonempty = [i for i, c in enumerate(doc["constraints"]) if c["vars"]]
    if not nonempty:
        return
    i = data.draw(st.sampled_from(nonempty))
    k = data.draw(st.integers(0, len(doc["constraints"][i]["vars"]) - 1))
    arity = len(doc["constraints"][i]["vars"])

    def planted(change, **top):
        bad = json.loads(json.dumps(dict(doc, **top)))
        change(bad["constraints"][i])
        return bad

    def set_at(key, value):
        return lambda con: con[key].__setitem__(k, value)

    for bad in (
        planted(lambda con: con["coeffs"].append(1), arity_bound=arity + 1),
        planted(lambda con: None, arity_bound=arity - 1),
        planted(lambda con: (con["vars"].append(con["vars"][k]), con["coeffs"].append(1)),
                arity_bound=arity + 1),
        planted(set_at("vars", data.draw(st.sampled_from([-1, doc["m"], doc["m"] + 3])))),
        planted(set_at("coeffs", doc["p"] * data.draw(st.integers(-2, 2)))),
    ):
        with pytest.raises(DomainError):
            LinInstance.from_doc(bad)


# ------------------------------------------------- streaming accessor


def test_stream_matches_emitted_instance(planted_build):
    cx, pair, code = planted_build
    beta = np.ones(code.n, dtype=int)
    inst = emit_lin_instance(code, beta)
    stream = TannerConstraintStream(cx, pair, beta)
    assert stream.num_constraints == inst.num_constraints
    assert stream.num_vars == inst.num_vars
    for f in range(stream.num_constraints):
        assert stream.constraint(f) == inst.constraints[f]


def test_stream_matches_for_direct_convention():
    gens = default_generators(3, 1, 3, require_generation=False)
    cx = SquareCayleyComplex(gens, gens, "direct")
    pair = InnerCodePair(
        2, 3, LinearCode(2, 3, [[1, 1, 1], [1, 0, 0]]), LinearCode(2, 3, [[1, 1, 0]])
    )
    code = build_code(cx, pair)
    beta = np.ones(code.n, dtype=int)
    inst = emit_lin_instance(code, beta)
    stream = TannerConstraintStream(cx, pair, beta)
    for f in range(stream.num_constraints):
        assert stream.constraint(f) == inst.constraints[f]


def test_stream_instance_is_the_streamed_constraints(planted_build):
    cx, pair, code = planted_build
    beta = np.random.default_rng(1).integers(0, code.p, code.n)
    stream = TannerConstraintStream(cx, pair, beta)
    inst = stream.as_instance()
    assert inst.num_vars == stream.num_vars
    assert inst.constraints == [stream.constraint(f) for f in range(stream.num_constraints)]


def test_stream_is_fast_per_constraint(planted_build):
    cx, pair, code = planted_build
    stream = TannerConstraintStream(cx, pair, np.ones(code.n, dtype=int))
    stream.constraint(0)  # warm any lazy caches
    rng = np.random.default_rng(0)
    faces = rng.integers(0, stream.num_constraints, size=200)
    t0 = time.perf_counter()
    for f in faces:
        stream.constraint(int(f))
    per_call = (time.perf_counter() - t0) / len(faces)
    assert per_call < 5e-3


def test_stream_input_validation(planted_build):
    cx, pair, code = planted_build
    with pytest.raises(BetaNotAdmissible):
        TannerConstraintStream(cx, pair, np.ones(7, dtype=int))
    # the same inner-length check as build_code
    long_pair = InnerCodePair(
        3, 4, LinearCode(3, 4, [[1, 1, 1, 1]]), LinearCode(3, 4, [[1, 2, 0, 0]])
    )
    with pytest.raises(DimensionMismatch):
        TannerConstraintStream(cx, long_pair, np.ones(code.n, dtype=int))
    with pytest.raises(DimensionMismatch):
        build_code(cx, long_pair)
    # a face index is an integer, outside the stream's block or inside it
    stream = TannerConstraintStream(cx, pair, "ones")
    with pytest.raises(TypeError):
        stream.constraint(2.0)
    stream.constraint(0), stream.constraint(1)
    with pytest.raises(TypeError):
        stream.constraint(2.0)
    # and in range, also once a block of vertices reaches the last face
    for f in range(code.n):
        stream.constraint(f)
    for f in (code.n, -1):
        with pytest.raises(DomainError):
            stream.constraint(f)


def test_stream_beta_rule(planted_build):
    """beta "ones" is a rule, spelt "one" or "ones" as `csp emit --beta`
    takes it: the stream holds no array, its instance is the one with the
    ones vector, and any other string is refused."""
    cx, pair, code = planted_build
    stream = TannerConstraintStream(cx, pair, "ones")
    assert not [v for v in vars(stream).values() if isinstance(v, np.ndarray)]
    inst = stream.as_instance()
    want = TannerConstraintStream(cx, pair, np.ones(code.n, dtype=int)).as_instance()
    assert inst.matrix == want.matrix and inst.rhs.tolist() == want.rhs.tolist() == [1] * code.n
    assert [stream.constraint(f) for f in range(code.n)] == inst.constraints
    assert TannerConstraintStream(cx, pair, "one").as_instance().rhs.tolist() == [1] * code.n
    for rule in ("One", "zeros", ""):
        with pytest.raises(BetaNotAdmissible):
            TannerConstraintStream(cx, pair, rule)


# ------------------------------------------------------------ certify


def test_planted_instance_certified_inconsistent(planted_build):
    _, _, code = planted_build
    inst = emit_lin_instance(code, np.ones(code.n, dtype=int))
    report = certify_unsat(inst)
    assert not report.consistent
    assert report.certificate
    # oracle: the combination annihilates every variable but not the rhs
    a = inst.coefficient_matrix()
    b = inst.rhs_vector()
    u = np.zeros(inst.num_constraints, dtype=np.int64)
    for i, c in report.certificate:
        u[i] = c
    assert not ((u @ a) % inst.p).any()
    assert (u @ b) % inst.p != 0


def test_certificate_from_cached_column_space(planted_build):
    """Passing code.rowspace_z (the column space of A = H_Z^T) gives the
    certificate that eliminating A^T gives; a space of the wrong length
    is refused."""
    _, _, code = planted_build
    inst = emit_lin_instance(code, np.ones(code.n, dtype=int))
    assert certify_unsat(inst, code.rowspace_z) == certify_unsat(inst)
    with pytest.raises(DimensionMismatch):
        certify_unsat(inst, LinearCode(code.p, code.n + 1))


def test_consistent_system_yields_witness():
    rng = np.random.default_rng(11)
    a = rng.integers(0, 2, size=(6, 4))
    y0 = rng.integers(0, 2, size=4)
    b = (a @ y0) % 2
    inst = LinInstance.from_dense(2, a, b)
    report = certify_unsat(inst)
    assert report.consistent
    y = report.assignment
    assert eval_satisfied(2, inst.constraints, y) == inst.num_constraints


def test_trivial_contradiction():
    inst = LinInstance.from_dense(2, np.zeros((1, 2), dtype=int), [1])
    assert inst.constraints[0].vars == ()
    report = certify_unsat(inst)
    assert not report.consistent
    assert report.certificate == [(0, 1)]


# ------------------------------------------------------------- max-sat


def test_max_sat_exact_matches_brute_force(steane):
    inst = emit_lin_instance(steane, np.array([1, 1, 1, 0, 0, 0, 0]))
    report = max_sat(inst, mode="exact")
    assert report.exact
    best = brute_best(2, inst.num_vars, inst.constraints)
    assert report.best_satisfied == best
    assert report.best_fraction < 1.0
    assert eval_satisfied(2, inst.constraints, report.assignment) == best
    assert certify_unsat(inst).certificate is not None


def test_max_sat_consistent_system_is_fully_satisfiable():
    rng = np.random.default_rng(3)
    a = rng.integers(0, 2, size=(5, 4))
    y0 = rng.integers(0, 2, size=4)
    inst = LinInstance.from_dense(2, a, (a @ y0) % 2)
    report = max_sat(inst, mode="exact")
    assert report.best_fraction == 1.0
    assert certify_unsat(inst).certificate is None
    assert eval_satisfied(2, inst.constraints, report.assignment) == 5


def test_max_sat_contradictory_pair_is_half():
    inst = LinInstance.from_dense(2, np.array([[1], [1]]), [0, 1])
    report = max_sat(inst, mode="exact")
    assert report.best_fraction == 0.5


def test_max_sat_ternary_field():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 3, size=(6, 3))
    b = rng.integers(0, 3, size=6)
    inst = LinInstance.from_dense(3, a, b)
    report = max_sat(inst, mode="exact")
    assert report.best_satisfied == brute_best(3, 3, inst.constraints)


def test_max_sat_budget():
    inst = LinInstance.from_dense(2, np.eye(25, dtype=int), np.zeros(25, dtype=int))
    with pytest.raises(BudgetExceeded):
        max_sat(inst, mode="exact", budget=2**20)


def test_max_sat_local_search_is_sound_and_seeded(steane):
    inst = emit_lin_instance(steane, np.array([1, 1, 1, 0, 0, 0, 0]))
    exact = max_sat(inst, mode="exact")
    ls1 = max_sat(inst, mode="local-search", seed=42)
    ls2 = max_sat(inst, mode="local-search", seed=42)
    assert not ls1.exact
    assert ls1.best_satisfied <= exact.best_satisfied
    assert ls1.assignment == ls2.assignment
    assert (
        eval_satisfied(2, inst.constraints, ls1.assignment) == ls1.best_satisfied
    )


def loop_hill_climb(instance, seed, restarts, max_steps):
    """(best count, assignment) of the single-flip hill climb, one full
    recount per candidate flip."""
    p, m = instance.p, instance.num_vars
    a = instance.coefficient_matrix() % p
    b = instance.rhs_vector() % p

    def count_vec(y):
        return int(((a @ y) % p == b).sum())

    rng = np.random.default_rng(seed)
    best_count, best_y = -1, None
    for _ in range(restarts):
        y = rng.integers(0, p, size=m, dtype=np.int64)
        current = count_vec(y)
        for _ in range(max_steps):
            improved = False
            for v in range(m):
                old = y[v]
                for val in range(p):
                    if val == old:
                        continue
                    y[v] = val
                    c = count_vec(y)
                    if c > current:
                        current = c
                        improved = True
                        break
                    y[v] = old
                if improved:
                    break
            if not improved:
                break
        if current > best_count or (current == best_count and tuple(y) < tuple(best_y)):
            best_count, best_y = current, y.copy()
    return best_count, [int(v) for v in best_y]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([2, 3, 5]),
    st.integers(0, 8),
    st.integers(0, 12),
    st.integers(0, 2**32 - 1),
    st.integers(1, 3),
    st.integers(0, 10),
)
def test_local_search_matches_loop_hill_climb(p, m, nc, seed, restarts, max_steps):
    rng = np.random.default_rng(seed)
    coeffs = (rng.random((nc, m)) < 0.4) * rng.integers(1, p, (nc, m))
    # unreduced coefficients and right-hand sides, as a file may hold them
    coeffs = coeffs + p * rng.integers(-1, 2, (nc, m)) * (coeffs != 0)
    rhs = rng.integers(0, p, nc) + p * rng.integers(0, 2, nc)
    cons = [
        LinConstraint(tuple(np.flatnonzero(row).tolist()), tuple(row[row != 0].tolist()), int(r))
        for row, r in zip(coeffs, rhs)
    ]
    inst = LinInstance.from_doc(lin_doc(p, m, cons, max(m, 1)))
    report = max_sat(inst, mode="local-search", seed=seed, restarts=restarts, max_steps=max_steps)
    assert (report.best_satisfied, report.assignment) == loop_hill_climb(
        inst, seed, restarts, max_steps
    )
    # certify_unsat on the CSR view against the dense elimination
    a, b = inst.coefficient_matrix() % p, inst.rhs_vector() % p
    y = solve(a, b, p)
    dense = next(
        ([(int(i), int(u[i])) for i in np.flatnonzero(u)] for u in kernel_basis(a.T, p)
         if int(u @ b) % p),
        None,
    )
    unsat = certify_unsat(inst)
    assert unsat.certificate == (None if y is not None else dense)
    assert unsat.assignment == (None if y is None else y.tolist())


def test_max_sat_bad_mode(steane):
    inst = emit_lin_instance(steane, np.ones(7, dtype=int))
    with pytest.raises(DomainError):
        max_sat(inst, mode="annealing")


# ---------------------------------------------------------- level bound


def test_sos_level_bound_values():
    assert sos_level_bound(1.0, 1.0, 4, 1) == 1.0
    assert sos_level_bound(0.01, 0.1, 10**4, 25) == pytest.approx(0.1)
    assert sos_level_bound(0.5, 0.5, 2000, 10) == pytest.approx(
        2 * sos_level_bound(0.5, 0.5, 1000, 10)
    )
    for bad in ((0, 1, 1, 1), (1, -1, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)):
        with pytest.raises(DomainError):
            sos_level_bound(*bad)


# ------------------------------------------------------- 3xor reduction


def test_reduce_short_constraints_pass_through():
    inst = LinInstance.from_dense(
        2, np.array([[1, 1, 1, 0], [0, 1, 0, 0]]), [1, 0]
    )
    xor = reduce_to_3xor(inst)
    assert xor.num_vars == 4
    assert xor.clauses == [XorClause((0, 1, 2), 1), XorClause((1,), 0)]


def test_reduce_arity_five_chain():
    inst = LinInstance.from_dense(2, np.ones((1, 5), dtype=int), [1])
    xor = reduce_to_3xor(inst)
    assert xor.num_vars == 8  # 5 originals + 3 dummies
    assert xor.num_clauses == 4
    assert all(len(cl.vars) <= 3 for cl in xor.clauses)
    # satisfiable both before and after; equivalence by double enumeration
    assert brute_best(2, 5, inst.constraints) == 1
    xor_cons = [(cl.vars, (1,) * len(cl.vars), cl.parity) for cl in xor.clauses]
    assert brute_best(2, 8, xor_cons) == 4


def test_reduce_corpus_preserves_perfect_satisfiability():
    rng = np.random.default_rng(2718)
    for _ in range(40):
        m = int(rng.integers(1, 7))
        n_cons = int(rng.integers(1, 6))
        constraints = []
        dummies = 0
        for _ in range(n_cons):
            w = int(rng.integers(0, m + 1))
            vs = tuple(sorted(rng.choice(m, size=w, replace=False).tolist()))
            constraints.append(LinConstraint(vs, (1,) * w, int(rng.integers(0, 2))))
            dummies += max(0, w - 2)
        if m + dummies > 16:
            continue
        inst = LinInstance.from_doc(lin_doc(2, m, constraints, max(m, 1)))
        xor = reduce_to_3xor(inst)
        assert xor.num_clauses >= inst.num_constraints
        assert all(len(cl.vars) <= 3 for cl in xor.clauses)
        orig_perfect = brute_best(2, m, inst.constraints) == inst.num_constraints
        xor_cons = [(cl.vars, (1,) * len(cl.vars), cl.parity) for cl in xor.clauses]
        red_perfect = brute_best(2, xor.num_vars, xor_cons) == xor.num_clauses
        assert orig_perfect == red_perfect


def loop_reduce_to_3xor(instance):
    """Oracle for `reduce_to_3xor`: the chain built one constraint at a
    time, as (num_vars, clauses)."""
    next_var = instance.num_vars
    clauses = []
    for con in instance.constraints:
        vs, b, w = con.vars, con.rhs, len(con.vars)
        if w <= 3:
            clauses.append(XorClause(tuple(vs), b))
            continue
        zs = list(range(next_var, next_var + w - 2))
        next_var += w - 2
        clauses.append(XorClause((vs[0], vs[1], zs[0]), 0))
        for j in range(2, w - 1):
            clauses.append(XorClause((zs[j - 2], vs[j], zs[j - 1]), 0))
        clauses.append(XorClause((zs[w - 3], vs[w - 1]), b))
    return next_var, clauses


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.integers(8, 12).flatmap(
    lambda m: st.tuples(
        st.just(m),
        st.lists(st.tuples(st.sets(st.integers(0, m - 1), max_size=8), st.integers(0, 1)),
                 max_size=8),
    )
))
def test_reduce_on_arrays_matches_loop_oracle(case):
    """The chain on the CSR arrays equals the constraint-by-constraint loop
    on rows of width 0 to 8: clause order, dummy numbering, text."""
    m, rows = case
    cons = [LinConstraint(tuple(sorted(vs)), (1,) * len(vs), b) for vs, b in rows]
    inst = LinInstance.from_doc(lin_doc(2, m, cons, 8))
    xor = reduce_to_3xor(inst)
    num_vars, clauses = loop_reduce_to_3xor(inst)
    assert (xor.num_vars, xor.clauses) == (num_vars, clauses)
    assert xor == XorInstance(num_vars, clauses)
    lines = [f"p xor {num_vars} {len(clauses)}"] + [
        " ".join(["x", *(str(v + 1) for v in cl.vars), str(cl.parity)]) for cl in clauses
    ]
    assert xor.to_text() == "\n".join(lines) + "\n"
    assert XorInstance.from_text(xor.to_text()) == xor


def test_reduce_rejects_other_fields():
    inst = LinInstance.from_dense(3, np.array([[1, 2]]), [1])
    with pytest.raises(UnsupportedField):
        reduce_to_3xor(inst)


def test_xor_text_round_trip(steane):
    inst = emit_lin_instance(steane, np.ones(7, dtype=int))
    xor = reduce_to_3xor(inst)
    text = xor.to_text()
    assert text.splitlines()[0] == f"p xor {xor.num_vars} {xor.num_clauses}"
    again = XorInstance.from_text(text)
    assert again.num_vars == xor.num_vars
    assert again.clauses == xor.clauses
    assert json.loads(dumps(xor))["num_vars"] == xor.num_vars
    four = XorInstance(4, [XorClause((0, 1, 3), 1), XorClause((2,), 0)])
    assert json.loads(dumps(four))["num_vars"] == 4
    assert XorInstance.from_text(four.to_text()) == four
    for bad in ("c not a header\n", "", "p xor 3\n", "p xor 3 1\nx\n", "p xor 3 1\nx 1 a\n",
                "p xor 3 1\ny 1 0\n", "p cnf 3 0\n", "p xor 3 2\nx 1 0\n"):
        with pytest.raises(DomainError):
            XorInstance.from_text(bad)


def test_xor_validation():
    with pytest.raises(DomainError):
        XorInstance(5, [XorClause((0, 1, 2, 3), 0)])
    with pytest.raises(DomainError):
        XorInstance(5, [XorClause((0, 0), 1)])
    with pytest.raises(DomainError):
        XorInstance(2, [XorClause((4,), 1)])
    with pytest.raises(DomainError):
        XorInstance(2, [XorClause((0,), 2)])


GOOD_CLAUSE = XorClause((0, 1, 2), 1)


@pytest.mark.parametrize(
    "bad, message",
    [
        (XorClause((0, 1, 2, 3), 0), "clause 1 has arity 4 > 3"),
        (XorClause((0, 0), 1), "clause 1 repeats a variable"),
        (XorClause((2, 1, 2), 1), "clause 1 repeats a variable"),
        (XorClause((3, 4, 4), 1), "clause 1 repeats a variable"),
        (XorClause((1, 5), 1), "clause 1: variable 5 out of range"),
        (XorClause((-1, 9), 0), "clause 1: variable -1 out of range"),
        (XorClause((0, 2**70), 0), f"clause 1: variable {2**70} out of range"),
        (XorClause((0,), 2), "clause 1: parity must be 0 or 1"),
        (XorClause((0,), -1), "clause 1: parity must be 0 or 1"),
    ],
)
def test_xor_validation_names_first_bad_clause(bad, message):
    """Each invalid form is refused with the message of its first check,
    at the first offending clause: a later bad clause does not mask it."""
    later = XorClause((0, 1, 2, 3, 4), 0)
    with pytest.raises(DomainError) as err:
        XorInstance(5, [GOOD_CLAUSE, bad, GOOD_CLAUSE, later])
    assert str(err.value) == message


def test_xor_validation_accepts_good_clauses():
    clauses = [GOOD_CLAUSE, XorClause((), 0), XorClause((4,), 0), XorClause((3, 1), 1)]
    assert XorInstance(5, clauses).num_clauses == 4
    assert XorInstance(0, []).num_clauses == 0


def test_xor_text_validation_names_first_bad_clause():
    with pytest.raises(DomainError, match="^clause 2 repeats a variable$"):
        XorInstance.from_text("p xor 3 4\nx 1 2 0\nx 3 1\nx 2 2 0\nx 9 1\n")
