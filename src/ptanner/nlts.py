"""Low-energy structure lab for small CSS codes.

Everything here is exact and exhaustive by design: syndrome sets are full
enumerations of the hypercube, Hamiltonians are dense matrices on at most
12 qubits, and measurement statistics are computed by literal basis change.
Cluster partitions are the components of the near-coset relation; with
commuting checks (checked) they are taken on the cosets of the opposite
stabilizer space S, each word reduced modulo S's RREF.  Nearest-word
distances are min-plus transforms over the 2^n cube, O(n 2^n), not passes
over member pairs.  Bit strings are packed big-endian into Python ints
(coordinate 0 is the most significant bit) so that integer order equals
lexicographic order on vectors; that makes "lexicographically least
representative" a plain min().  Stabilizer and kernel words are the
codewords of the code's cached row spaces (`CssCode.rowspace_x`,
`rowspace_z`) and of their duals, listed by `gf.iter_codewords`.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from .errors import (
    BudgetExceeded,
    DomainError,
    PreconditionViolated,
    StateDimensionMismatch,
    UnsupportedField,
)
from .gf import LinearCode, iter_codewords
from .tanner import CssCode

ENUMERATION_CAP = 2**22
HAMILTONIAN_QUBIT_CAP = 12
SPREAD_MASS_STRICT = 0.25 - 0.25 / math.sqrt(2)  # about 0.0732
SPREAD_MASS_RELAXED = 0.02
UNCERTAINTY_BOUND = 0.5 + 0.5 / math.sqrt(2)
PAIR_BLOCK = 1 << 20  # word pairs compared per vectorized block


def _pack_rows(rows) -> list[int]:
    """Each row of a bit matrix packed big-endian by one place-value
    product, in Python ints past 62 bits."""
    rows = np.asarray(rows, dtype=np.int64) & 1
    place = [1 << i for i in range(rows.shape[1] - 1, -1, -1)]
    return (rows @ np.array(place, dtype=np.int64 if len(place) < 63 else object)).tolist()


def pack_bits(v) -> int:
    """Big-endian packing: vector order == integer order."""
    return _pack_rows(np.reshape(v, (1, -1)))[0]


def unpack_bits(x: int, n: int) -> np.ndarray:
    return np.array([(x >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.int64)


def _require_gf2(code: CssCode) -> None:
    if code.p != 2:
        raise UnsupportedField(f"binary-only operation called over GF({code.p})")


def _words(space: LinearCode) -> list[int]:
    """Every word of a binary code, packed, in `iter_codewords` order;
    BudgetExceeded past ENUMERATION_CAP words."""
    return [w for block in iter_codewords(space, ENUMERATION_CAP) for w in _pack_rows(block)]


@dataclass
class SyndromeSet:
    """All length-n words whose syndrome weight is at most epsilon * m.

    The syndrome is taken against the checks of the same basis as the set
    (X checks for the X set, Z checks for the Z set); the threshold is
    normalized by that same check count.
    """

    code: CssCode
    basis: str
    epsilon: float
    members: list[int]
    syndrome_of: dict[int, int]

    @property
    def n(self) -> int:
        return self.code.n

    def to_doc(self) -> dict:
        return {
            "basis": self.basis,
            "epsilon": self.epsilon,
            "n": self.n,
            "size": len(self.members),
            "members": self.members,
        }


def enumerate_syndrome_set(
    code: CssCode, basis: str, epsilon: float, cap: int = ENUMERATION_CAP
) -> SyndromeSet:
    """Exhaustive small-syndrome set over all 2^n words."""
    _require_gf2(code)
    if basis not in ("X", "Z"):
        raise DomainError(f"basis must be X or Z, got {basis!r}")
    if not epsilon >= 0:
        raise DomainError("epsilon must be nonnegative")
    n = code.n
    total = 1 << n
    if total > cap:
        raise BudgetExceeded(f"2^{n} states exceeds cap {cap}")
    rows = _pack_rows((code.h_x if basis == "X" else code.h_z).toarray())
    m = len(rows)
    thr = epsilon * m + 1e-12
    members: list[int] = []
    syndrome_of: dict[int, int] = {}
    chunk = 1 << 16
    for start in range(0, total, chunk):
        ints = np.arange(start, min(start + chunk, total), dtype=np.int64)
        parities = [np.bitwise_count(ints & r) & 1 for r in rows]
        syn = np.array(parities, dtype=np.int64).reshape(m, len(ints)).T
        keep = syn.sum(axis=1) <= thr
        ys = ints[keep].tolist()
        members += ys
        syndrome_of.update(zip(ys, _pack_rows(syn[keep])))
    return SyndromeSet(
        code=code, basis=basis, epsilon=float(epsilon), members=members,
        syndrome_of=syndrome_of,
    )


def _coset_weight_table(stabilizers: LinearCode, cap: int) -> np.ndarray:
    """table[v] = min weight of v + (stabilizers), for every packed v."""
    n, k = stabilizers.n, stabilizers.dim
    total = 1 << n
    if total > cap:
        raise BudgetExceeded(f"2^{n} coset table exceeds cap {cap}")
    if (1 << k) > cap:
        raise BudgetExceeded(f"2^{k} stabilizer words exceed cap {cap}")
    idx = np.arange(total, dtype=np.int64)
    table = np.bitwise_count(idx).astype(np.int64)
    # the span doubles with each generator g, and so does the minimum over it
    for g in stabilizers.basis:
        np.minimum(table, table[idx ^ pack_bits(g)], out=table)
    return table


@dataclass
class ClusterPartition:
    """Connected components of the near-coset relation on a syndrome set.

    Two members relate when their difference has small weight modulo the
    opposite-basis stabilizer rowspace.  Each syndrome gets one decoder
    representative, chosen inside a single designated cluster per translate
    orbit so that decoding any member of a cluster lands in one stabilizer
    coset.
    """

    basis: str
    epsilon: float
    c1: float
    threshold: float
    n: int
    members: list[int]
    clusters: list[list[int]]
    cluster_of: dict[int, int]
    syndrome_of: dict[int, int]
    representatives: dict[int, int]
    representative_cluster_of: dict[int, int]
    _coset_table: np.ndarray = field(repr=False, default=None)
    _positions: np.ndarray = field(repr=False, default=None)  # word -> member index, or -1
    _syndromes: np.ndarray = field(repr=False, default=None)  # per member, in member order

    def decode(self, y: int) -> int:
        """y plus the representative of its syndrome."""
        return y ^ self.representatives[self.syndrome_of[y]]

    def decoded(self) -> np.ndarray:
        """decode(y) for every member, in member order, by distinct syndrome."""
        distinct, index = np.unique(self._syndromes, return_inverse=True)
        reps = np.array([self.representatives[s] for s in distinct.tolist()], dtype=np.int64)
        return np.array(self.members, dtype=np.int64) ^ reps[index]

    def to_doc(self) -> dict:
        return {
            "basis": self.basis,
            "epsilon": self.epsilon,
            "c1": self.c1,
            "threshold": self.threshold,
            "n": self.n,
            "num_members": len(self.members),
            "clusters": self.clusters,
            "representatives": {str(s): e for s, e in self.representatives.items()},
        }


def build_clusters(
    sset: SyndromeSet, c1: float, cap: int = ENUMERATION_CAP
) -> ClusterPartition:
    if not c1 > 0:
        raise DomainError("c1 must be positive")
    code, n = sset.code, sset.code.n
    code.validate()  # commuting checks: the member set is a union of S-cosets
    stabilizers = code.rowspace_x if sset.basis == "Z" else code.rowspace_z
    table = _coset_weight_table(stabilizers, cap)
    threshold = 2.0 * c1 * sset.epsilon * n + 1e-12
    members = sorted(sset.members)
    mm = np.array(members, dtype=np.int64)
    size = len(members)
    pos = np.full(1 << n, -1, dtype=np.int64)
    pos[mm] = np.arange(size)
    # y ~ y + d for close d joins S-cosets: link coset c to c + d (via a member)
    cosets, coset_of = np.unique(_reduce(mm, stabilizers), return_inverse=True)
    close = np.unique(_reduce(np.flatnonzero(table <= threshold), stabilizers))
    nb = pos[cosets[:, None] ^ close]
    rows, cols = np.nonzero(nb >= 0)[0], coset_of[nb[nb >= 0]]
    adj = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(len(cosets),) * 2)
    labels = connected_components(adj, directed=False)[1][coset_of]
    raw: dict[int, list[int]] = {}
    for y, lab in zip(members, labels.tolist()):
        raw.setdefault(lab, []).append(y)
    clusters = list(raw.values())  # each ascends, and they come in order of first member
    cluster_of = {y: cid for cid, cl in enumerate(clusters) for y in cl}
    # translate orbits: shifting by any zero-syndrome word permutes clusters
    kernel_words = _zero_syndrome_words(members, sset.syndrome_of)
    cids = np.array([cluster_of[y] for y in members], dtype=np.int64)
    rep_cluster_of: dict[int, int] = {}
    for cid in range(len(clusters)):
        if cid in rep_cluster_of:
            continue
        moved = pos[clusters[cid][0] ^ kernel_words]
        orbit = np.unique(cids[moved[moved >= 0]]).tolist()
        designated = min(orbit, key=lambda k: clusters[k][0])
        for k in orbit:
            rep_cluster_of.setdefault(k, designated)
    # one representative per syndrome, inside the designated cluster
    classes: dict[int, list[int]] = {}
    for y in members:
        classes.setdefault(sset.syndrome_of[y], []).append(y)
    representatives: dict[int, int] = {}
    for s, cls in classes.items():  # cls ascends
        rep_cid = rep_cluster_of[cluster_of[cls[0]]]
        representatives[s] = next((y for y in cls if cluster_of[y] == rep_cid), cls[0])
    return ClusterPartition(
        basis=sset.basis,
        epsilon=sset.epsilon,
        c1=float(c1),
        threshold=float(threshold),
        n=n,
        members=members,
        clusters=clusters,
        cluster_of=cluster_of,
        syndrome_of=dict(sset.syndrome_of),
        representatives=representatives,
        representative_cluster_of=rep_cluster_of,
        _coset_table=table,
        _positions=pos,
        _syndromes=np.array([sset.syndrome_of[y] for y in members]),
    )


def _reduce(words: np.ndarray, space: LinearCode) -> np.ndarray:
    """Packed words modulo the space: their RREF pivot bits cleared."""
    for g, p in zip(space.basis, space.pivots.tolist()):
        words = words ^ (words >> (space.n - 1 - p) & 1) * pack_bits(g)
    return words


@dataclass
class ClusterLemmaReport:
    partition_ok: bool
    distance_ok: bool
    translate_ok: bool
    decoder_ok: bool
    min_intercluster_distance: int | None
    c2: float
    n: int
    counterexample: dict | None = None

    @property
    def all_ok(self) -> bool:
        return self.partition_ok and self.distance_ok and self.translate_ok and self.decoder_ok

    def to_doc(self) -> dict:
        return {**asdict(self), "all_ok": self.all_ok}


def verify_cluster_lemma(part: ClusterPartition, c2: float) -> ClusterLemmaReport:
    """Exhaustively check the four clustering properties.

    (1) pointwise relation sets coincide with the components;
    (2) distinct clusters are at least c2*n apart in Hamming distance;
    (3) shifting by a zero-syndrome word fixes a cluster exactly when the
        word lies in the stabilizer rowspace, and shifts it setwise
        otherwise;
    (4) decoding members of one cluster lands in a single stabilizer coset.
    """
    if math.isnan(c2):
        raise DomainError("c2 must be a number")
    table, pos = part._coset_table, part._positions
    mm = np.array(part.members, dtype=np.int64)
    labels = np.array([part.cluster_of[y] for y in part.members], dtype=np.int64)
    sizes = np.bincount(labels)
    counterexample = None

    # (1) y's related set is its cluster: as many neighbours, none outside
    count = np.zeros(len(mm), dtype=np.int64)
    stray = np.zeros(len(mm), dtype=bool)
    for d in np.flatnonzero(table <= part.threshold):
        nb = pos[mm ^ d]
        hit = nb >= 0
        count += hit
        stray |= hit & (labels[nb] != labels)
    failing = np.flatnonzero(stray | (count != sizes[labels]))
    partition_ok = not failing.size
    if failing.size:
        i = int(failing[0])
        related = table[mm ^ mm[i]] <= part.threshold
        bad = int(mm[np.nonzero(related != (labels == labels[i]))[0][0]])
        counterexample = {"check": 1, "y": part.members[i], "y_prime": bad}

    min_dist, witness = None, None
    if np.unique(labels).size > 1:
        dist = _nearest_other(mm, labels, part.n)[1][mm]
        i = int(dist.argmin())
        j = ((labels != labels[i]) & (np.bitwise_count(mm ^ mm[i]) == dist[i])).argmax()
        min_dist, witness = int(dist[i]), (int(mm[i]), int(mm[j]))
    distance_ok = min_dist is None or min_dist >= c2 * part.n
    if not distance_ok and counterexample is None:
        counterexample = {"check": 2, "pair": witness, "distance": min_dist}

    translate_ok = True
    kernel_words = _zero_syndrome_words(part.members, part.syndrome_of)
    in_stab = table[kernel_words] == 0
    for cid, cl in enumerate(part.clusters):
        target = _shift_targets(np.array(cl), kernel_words, pos, labels, sizes)
        bad = np.flatnonzero((target < 0) | ((target == cid) != in_stab))
        if bad.size:
            translate_ok = False
            if counterexample is None:
                counterexample = {"check": 3, "cluster": cid, "shift": int(kernel_words[bad[0]])}
            break

    # (4) every member decodes into the stabilizer coset of its cluster's first
    decoded = part.decoded()
    firsts = pos[np.array([cl[0] for cl in part.clusters], dtype=np.int64)]
    drift = np.flatnonzero(table[decoded ^ decoded[firsts[labels]]] != 0)
    decoder_ok = not drift.size
    if drift.size and counterexample is None:
        cid = int(labels[drift].min())
        y = part.members[drift[labels[drift] == cid][0]]
        counterexample = {"check": 4, "cluster": cid, "pair": (part.clusters[cid][0], y)}

    return ClusterLemmaReport(
        partition_ok=partition_ok,
        distance_ok=bool(distance_ok),
        translate_ok=translate_ok,
        decoder_ok=decoder_ok,
        min_intercluster_distance=min_dist,
        c2=float(c2),
        n=part.n,
        counterexample=counterexample,
    )


def _cube_pairs(*arrays):
    """Per bit of the 2^n cube index, lowest first: each array as (-1, 2, h)
    pairs across it.  The low bits are visited on transposed copies, written
    back before the high bits, so that no view has short rows."""
    n = arrays[0].shape[0].bit_length() - 1
    swapped = [x.reshape(-1, 1 << n // 2).T.copy() for x in arrays]
    for k in range(n - n // 2, n):
        yield [x.reshape(-1, 2, 1 << k) for x in swapped]
    for x, t in zip(arrays, swapped):
        x.reshape(-1, 1 << n // 2)[...] = t.T
    for k in range(n // 2, n):
        yield [x.reshape(-1, 2, 1 << k) for x in arrays]


def _distance_to(words: np.ndarray, n: int) -> np.ndarray:
    """Per word of the 2^n cube: the Hamming distance to the nearest of
    `words` (n + 1 when there is none), one min-plus pass per bit."""
    dist = np.full(1 << n, n + 1, dtype=np.int8)
    dist[words] = 0
    for (pairs,) in _cube_pairs(dist):
        np.minimum(pairs[:, 0], pairs[:, 1] + 1, out=pairs[:, 0])
        # the merged low half only adds high-half words two steps away
        np.minimum(pairs[:, 1], pairs[:, 0] + 1, out=pairs[:, 1])
    return dist


def _nearest_other(words: np.ndarray, labels: np.ndarray, n: int):
    """Per word v of the 2^n cube, (d1 << 24 | l1, d2): the distance d1 to
    the nearest of `words`, the least label l1 (< 2^24) at that distance, and
    the distance d2 to the nearest word labelled other than l1 (n + 1 if none)."""
    mask = (1 << 24) - 1
    key = np.full(1 << n, (n + 1) << 24 | mask, dtype=np.int32)
    other = np.full(1 << n, n + 1, dtype=np.int8)
    key[words] = labels
    for keys, dists in _cube_pairs(key, other):
        for a, b in ((0, 1), (1, 0)):  # as in _distance_to, merged halves are as good
            k, far, d = keys[:, a], keys[:, b] + (1 << 24), dists[:, a]
            cross = np.maximum(k, far) >> 24  # the farther of two differently labelled words
            cross[((k ^ far) & mask) == 0] = n + 1
            np.minimum(d, np.minimum(cross, dists[:, b] + 1), out=d, casting="unsafe")
            np.minimum(k, far, out=k)
    return key, other


def _shift_targets(cl, shifts, pos, labels, sizes) -> np.ndarray:
    """Per shift c: the cluster equal to cl + c, or -1 when cl + c is none."""
    out = np.empty(len(shifts), dtype=np.int64)
    step = max(1, PAIR_BLOCK // len(cl))
    for s in range(0, len(shifts), step):
        moved = pos[shifts[s : s + step, None] ^ cl]
        lab = labels[moved[:, 0]]
        inside = ((moved >= 0) & (labels[moved] == lab[:, None])).all(axis=1)
        out[s : s + step] = np.where(inside & (sizes[lab] == len(cl)), lab, -1)
    return out


def _zero_syndrome_words(members: list[int], syndrome_of: dict[int, int]) -> np.ndarray:
    """Zero-syndrome words, recovered as differences within the syndrome-0
    class of the members (the epsilon >= 0 set always contains them)."""
    zero = np.array([y for y in members if syndrome_of[y] == 0], dtype=np.int64)
    return np.sort(zero ^ zero[0]) if zero.size else np.zeros(1, dtype=np.int64)


def clustering_from_ssexp(c1_prime: float, c2_prime: float) -> tuple[float, float, float]:
    """Map measured expansion constants to clustering constants."""
    if c1_prime <= 0 or c2_prime <= 0:
        raise DomainError("expansion constants must be positive")
    return (1.0 / c2_prime, c1_prime, 1.0)


@dataclass
class CodeHamiltonian:
    code: CssCode
    n: int
    matrix: np.ndarray
    x_terms: list[int]
    z_terms: list[int]

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)


def build_code_hamiltonian(
    code: CssCode, qubit_cap: int = HAMILTONIAN_QUBIT_CAP
) -> CodeHamiltonian:
    """Dense frustration-free Hamiltonian: half the average X-check
    projector plus half the average Z-check projector."""
    _require_gf2(code)
    n = code.n
    if n > qubit_cap:
        raise BudgetExceeded(f"{n} qubits exceeds cap {qubit_cap}")
    x_terms = _pack_rows(code.h_x.toarray())
    z_terms = _pack_rows(code.h_z.toarray())
    dim = 1 << n
    idx = np.arange(dim, dtype=np.int64)
    m_x, m_z = len(x_terms), len(z_terms)
    h = np.zeros((dim, dim), dtype=np.float64)
    acc_x = np.zeros((dim, dim), dtype=np.float64)
    for g in x_terms:
        acc_x[idx, idx] += 0.5
        acc_x[idx ^ g, idx] -= 0.5
    if m_x:
        h += acc_x / (2.0 * m_x)
    if m_z:
        diag = np.zeros(dim, dtype=np.float64)
        for zt in z_terms:
            diag += np.bitwise_count(idx & zt) % 2
        h[idx, idx] += diag / (2.0 * m_z)
    return CodeHamiltonian(code=code, n=n, matrix=h, x_terms=x_terms, z_terms=z_terms)


def sector_state(code: CssCode, e_x: int, e_z: int, logical: int = 0) -> dict[int, int]:
    """Integer-amplitude state spanning one syndrome sector.

    Start from the uniform superposition over (logical + stabilizer
    rowspace), apply the diagonal sign pattern of e_x, then shift by e_z.
    Amplitudes are exactly +-1 on the support.
    """
    _require_gf2(code)
    state: dict[int, int] = {}
    for u in _words(code.rowspace_x):
        w = logical ^ u
        amp = -1 if (int(w & e_x).bit_count() % 2) else 1
        state[w ^ e_z] = amp
    return state


def apply_hamiltonian_exact(code: CssCode, state: dict[int, int]) -> dict[int, Fraction]:
    """Apply the code Hamiltonian with rational arithmetic on a sparse
    integer-amplitude state."""
    _require_gf2(code)
    x_terms = _pack_rows(code.h_x.toarray())
    z_terms = _pack_rows(code.h_z.toarray())
    m_x, m_z = len(x_terms), len(z_terms)
    out: dict[int, Fraction] = {}
    half = Fraction(1, 2)
    for w, amp in state.items():
        amp = Fraction(amp)
        if m_x:
            for g in x_terms:
                contrib = half * amp / (2 * m_x)
                out[w] = out.get(w, Fraction(0)) + contrib
                out[w ^ g] = out.get(w ^ g, Fraction(0)) - contrib
        if m_z:
            zcount = sum(int(w & zt).bit_count() % 2 for zt in z_terms)
            out[w] = out.get(w, Fraction(0)) + half * amp * Fraction(zcount, m_z)
    return {w: v for w, v in out.items() if v != 0}


def sector_eigenvalue(code: CssCode, e_x: int, e_z: int) -> Fraction:
    """|H_X e_x| / 2 m_X + |H_Z e_z| / 2 m_Z, as an exact rational."""
    _require_gf2(code)
    x_terms = _pack_rows(code.h_x.toarray())
    z_terms = _pack_rows(code.h_z.toarray())
    syn_x = sum(int(e_x & g).bit_count() % 2 for g in x_terms)
    syn_z = sum(int(e_z & h).bit_count() % 2 for h in z_terms)
    val = Fraction(0)
    if x_terms:
        val += Fraction(syn_x, 2 * len(x_terms))
    if z_terms:
        val += Fraction(syn_z, 2 * len(z_terms))
    return val


def logical_pair(code: CssCode) -> tuple[np.ndarray, np.ndarray]:
    """Lexicographically least anticommuting logical pair (x_word, z_word).

    x_word lies in ker H_X outside rowspace(H_Z); z_word in ker H_Z outside
    rowspace(H_X); their overlap parity is 1.
    """
    _require_gf2(code)
    n = code.n
    stab_z = set(_words(code.rowspace_z))
    x_words = sorted(_words(code.rowspace_x.dual()))
    c_x = next((w for w in x_words if w and w not in stab_z), None)
    if c_x is None:
        raise DomainError("code has no X-side logical (k = 0)")
    z_words = sorted(_words(code.rowspace_z.dual()))
    c_z = next((w for w in z_words if (w & c_x).bit_count() % 2 == 1), None)
    if c_z is None:
        raise DomainError("no anticommuting partner found")
    return unpack_bits(c_x, n), unpack_bits(c_z, n)


@dataclass
class SpreadReport:
    basis: str
    s0: list[int]
    s1: list[int]
    mass0: float
    mass1: float
    separation: int | None
    mass_threshold_strict: float
    mass_threshold_relaxed: float

    @property
    def min_mass(self) -> float:
        return min(self.mass0, self.mass1)

    @property
    def meets_strict(self) -> bool:
        return self.min_mass >= self.mass_threshold_strict - 1e-9

    @property
    def meets_relaxed(self) -> bool:
        return self.min_mass >= self.mass_threshold_relaxed - 1e-9

    def to_doc(self) -> dict:
        return {
            "basis": self.basis,
            "sizes": [len(self.s0), len(self.s1)],
            "mass0": self.mass0,
            "mass1": self.mass1,
            "separation": self.separation,
            "meets_strict": self.meets_strict,
            "meets_relaxed": self.meets_relaxed,
        }


def _fwht(vec: np.ndarray) -> np.ndarray:
    a = vec.copy()
    for (pairs,) in _cube_pairs(a):
        diff = pairs[:, 0] - pairs[:, 1]
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = diff
    return a


def _distributions(state: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(Z-basis, X-basis) outcome distributions for a vector or density
    matrix on n qubits."""
    dim = 1 << n
    state = np.asarray(state)
    if state.ndim == 1:
        if state.shape[0] != dim:
            raise StateDimensionMismatch(f"vector length {state.shape[0]} != 2^{n}")
        vec = state.astype(complex)
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise DomainError("zero state vector")
        vec = vec / norm
        d_z = np.abs(vec) ** 2
        d_x = np.abs(_fwht(vec)) ** 2 / dim
        return d_z, d_x
    if state.ndim == 2:
        if state.shape != (dim, dim):
            raise StateDimensionMismatch(f"density shape {state.shape} != 2^{n} square")
        rho = state.astype(complex)
        tr = np.trace(rho).real
        if abs(tr) < 1e-12:
            raise DomainError("zero-trace density operator")
        rho = rho / tr
        d_z = np.diag(rho).real.copy()
        mixed = np.apply_along_axis(_fwht, 0, rho)
        mixed = np.apply_along_axis(_fwht, 1, mixed)
        d_x = np.diag(mixed).real / dim
        return d_z, d_x
    raise StateDimensionMismatch("state must be a vector or a square matrix")


def _spread_sides(part: ClusterPartition, readout: int) -> tuple[list[int], list[int]]:
    mm = np.array(part.members, dtype=np.int64)
    odd = np.bitwise_count(part.decoded() & readout) % 2 == 1
    return mm[~odd].tolist(), mm[odd].tolist()


def measure_spread(
    state,
    code: CssCode,
    partition_x: ClusterPartition,
    partition_z: ClusterPartition,
    logicals: tuple[np.ndarray, np.ndarray],
) -> tuple[SpreadReport, SpreadReport]:
    """Exact X- and Z-basis spread of a state over the decoded halves of
    the two syndrome sets.  logicals = (x_readout, z_readout) with odd
    mutual overlap."""
    _require_gf2(code)
    n = code.n
    c_x, c_z = (pack_bits(logicals[0]), pack_bits(logicals[1]))
    if (c_x & c_z).bit_count() % 2 != 1:
        raise DomainError("readout words must have odd overlap")
    d_z, d_x = _distributions(state, n)
    reports = []
    for basis, part, readout, dist in (
        ("X", partition_x, c_z, d_x),
        ("Z", partition_z, c_x, d_z),
    ):
        s0, s1 = _spread_sides(part, readout)
        # summed in order, as a Python sum adds, so masses keep every bit
        mass0, mass1 = (float(np.cumsum(dist[s])[-1]) if s else 0.0 for s in (s0, s1))
        reports.append(
            SpreadReport(
                basis=basis,
                s0=s0,
                s1=s1,
                mass0=mass0,
                mass1=mass1,
                separation=int(_distance_to(np.array(s1), n)[s0].min()) if s0 and s1 else None,
                mass_threshold_strict=SPREAD_MASS_STRICT,
                mass_threshold_relaxed=SPREAD_MASS_RELAXED,
            )
        )
    return reports[0], reports[1]


def uncertainty_check(
    a: np.ndarray, b: np.ndarray, rho: np.ndarray, tol: float = 1e-12
) -> bool:
    """True iff at least one of |Tr(a rho)|, |Tr(b rho)| is at most
    1/2 + 1/(2 sqrt 2), for anticommuting Hermitian involutions."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    rho = np.asarray(rho, dtype=complex)
    dim = a.shape[0]
    eye = np.eye(dim)
    for name, mat in (("a", a), ("b", b)):
        herm = np.linalg.norm(mat - mat.conj().T)
        if herm > tol:
            raise PreconditionViolated(f"{name} not Hermitian", norm=float(herm))
        invol = np.linalg.norm(mat @ mat - eye)
        if invol > tol:
            raise PreconditionViolated(f"{name} squared is not identity", norm=float(invol))
    anti = np.linalg.norm(a @ b + b @ a)
    if anti > tol:
        raise PreconditionViolated("operators do not anticommute", norm=float(anti))
    herm_rho = np.linalg.norm(rho - rho.conj().T)
    if herm_rho > tol:
        raise PreconditionViolated("state not Hermitian", norm=float(herm_rho))
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-9:
        raise PreconditionViolated("state trace differs from 1", norm=float(tr))
    eig_min = float(np.linalg.eigvalsh(rho).min())
    if eig_min < -1e-9:
        raise PreconditionViolated("state is not positive semidefinite", norm=eig_min)
    val_a = abs(np.trace(a @ rho).real)
    val_b = abs(np.trace(b @ rho).real)
    return min(val_a, val_b) <= UNCERTAINTY_BOUND + 1e-9


def depth_lower_bound(n: int, mu: float, delta: float, corollary: bool = False) -> float:
    """Circuit-depth lower bound (1/3) log2(delta^2 n / (400 log2(1/mu)));
    the corollary form adds one."""
    if not 0 < mu < 1:
        raise DomainError("mu must lie strictly between 0 and 1")
    if delta <= 0 or n <= 0:
        raise DomainError("delta and n must be positive")
    denom = 400.0 * math.log2(1.0 / mu)
    arg = delta * delta * n / denom
    if not 0 < arg < math.inf:
        raise DomainError(f"bound argument {arg} is not a positive finite number")
    val = math.log2(arg) / 3.0
    return val + 1.0 if corollary else val


class EpsilonBudget(NamedTuple):
    epsilon: float
    epsilon_prime: float


def epsilon_threshold(
    epsilon0: float, c1: float, c2: float, distance: float, n: int
) -> EpsilonBudget:
    """Energy threshold: a thousandth of the binding constraint, with its
    thousandfold companion used by the clustering machinery."""
    if min(epsilon0, c1, c2, distance) <= 0 or n <= 0:
        raise DomainError("all constants must be positive")
    eps = min(epsilon0 / 2.0, c2 / (4.0 * c1), distance / (2.0 * c1 * n)) / 1000.0
    return EpsilonBudget(epsilon=eps, epsilon_prime=1000.0 * eps)
