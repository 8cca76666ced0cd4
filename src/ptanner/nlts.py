"""Low-energy structure lab for small CSS codes.

Everything here is exact and exhaustive by design: syndrome sets are the
kernel cosets of all reachable small syndromes, Hamiltonians are dense
matrices on at most 12 qubits, and X-basis statistics are the butterflies
of the Walsh-Hadamard transform that the syndrome set's words need.
Cluster partitions are the components of the near-coset relation; with
commuting checks (checked) they are taken on the cosets of the opposite
stabilizer space S, each word reduced modulo S's RREF; a coset's least
weight is its class word's distance from class 0.  The lemma checks and
the spread separation run on classes modulo Q = S when the labels
(clusters, spread sides) are constant on S-cosets, as for every
`build_clusters` partition, else Q = {0}: class distances are min-plus
transforms over the 2^(n - dim Q) quotient words, not passes over member
pairs.  Bit strings are packed big-endian into Python ints (coordinate 0
is the most significant bit) so that integer order equals lexicographic
order on vectors, and a packed word is its basis-state index in the 2^n
state vectors.  Syndrome sets and partitions keep their members as one
ascending int64 array, with a packed syndrome and a cluster label per
member.  Stabilizer and kernel words are the codewords of the code's
cached row spaces (`CssCode.rowspace_x`, `rowspace_z`) and of their duals,
listed by `gf.iter_codewords`; a syndrome set's lifts are the vectors of
`gf.iter_vectors` placed on the pivot columns of its checks' row space.
"""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix

from .errors import (
    BudgetExceeded,
    DomainError,
    PreconditionViolated,
    StateDimensionMismatch,
    UnsupportedField,
)
from .gf import LinearCode, iter_codewords, iter_vectors
from .tanner import CssCode

ENUMERATION_CAP = 2**22
HAMILTONIAN_QUBIT_CAP = 12
SPREAD_MASS_STRICT = 0.25 - 0.25 / math.sqrt(2)  # about 0.0732
SPREAD_MASS_RELAXED = 0.02
UNCERTAINTY_BOUND = 0.5 + 0.5 / math.sqrt(2)
PAIR_BLOCK = 1 << 20  # (class, shift) pairs moved per vectorized block


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


def _words(space: LinearCode, cap: int = ENUMERATION_CAP) -> list[int]:
    """Every word of a binary code, packed, in `iter_codewords` order;
    BudgetExceeded past `cap` words."""
    return [w for block in iter_codewords(space, cap) for w in _pack_rows(block)]


@dataclass(eq=False)
class SyndromeSet:
    """All length-n words whose syndrome weight is at most epsilon * m.

    The syndrome is taken against the checks of the same basis as the set
    (X checks for the X set, Z checks for the Z set); the threshold is
    normalized by that same check count.  `syndromes` holds one packed
    syndrome per member, as Python ints (object dtype) past 62 checks.
    """

    code: CssCode
    basis: str
    epsilon: float
    members: np.ndarray  # int64, ascending
    syndromes: np.ndarray

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
    """Exact small-syndrome set: for each syndrome in the span of H's
    columns of weight at most epsilon * m, the coset of ker H that has it,
    all in ascending order.  Refused past 2^n > cap words."""
    _require_gf2(code)
    if basis not in ("X", "Z"):
        raise DomainError(f"basis must be X or Z, got {basis!r}")
    if not epsilon >= 0:
        raise DomainError("epsilon must be nonnegative")
    n = code.n
    if (1 << n) > cap:
        raise BudgetExceeded(f"2^{n} states over cap {cap}; `cap` (nlts.ENUMERATION_CAP) lifts it")
    space = code.rowspace_x if basis == "X" else code.rowspace_z
    checks = (code.h_x if basis == "X" else code.h_z).toarray()
    thr = epsilon * len(checks) + 1e-12
    lifts, syndromes = [], []
    # the words on H's pivot columns meet each reachable syndrome once
    for coeffs in iter_vectors(2, space.dim, cap):
        block = np.zeros((len(coeffs), n), dtype=np.int64)
        block[:, space.pivots] = coeffs
        syn = block @ checks.T % 2
        keep = syn.sum(axis=1) <= thr
        lifts += _pack_rows(block[keep])
        syndromes += _pack_rows(syn[keep])
    kernel = np.array(_words(space.dual(), cap), dtype=np.int64)
    words = (np.array(lifts, dtype=np.int64)[:, None] ^ kernel).ravel()
    order = np.argsort(words)
    syndromes = np.array(syndromes, dtype=np.int64 if len(checks) < 63 else object)
    return SyndromeSet(code, basis, float(epsilon), words[order], syndromes[order // len(kernel)])


class _Classes:
    """Packed words in classes modulo a subspace Q (None for Q = {0}): a class
    word is a member with the pivot bits of Q's RREF cleared, then dropped
    (`index`).  The least Hamming distance between members of two classes
    is the fewest reduced unit vectors (`gens`) whose sum is their class words' XOR."""

    def __init__(self, space: LinearCode | None, n: int, members: np.ndarray):
        self.n, pivots = n, [] if space is None else space.pivots.tolist()
        self._rows = list(zip(_pack_rows(space.basis), pivots)) if pivots else []
        self.free = sorted(set(range(n)) - set(pivots))
        self.gens = self.index(1 << (n - 1 - np.arange(n, dtype=np.int64)))
        self.words, self.of = np.unique(self.index(members), return_inverse=True)
        self.slot = np.full(1 << len(self.free), -1, dtype=np.int64)  # class word -> class
        self.slot[self.words] = np.arange(len(self.words))

    def index(self, words: np.ndarray) -> np.ndarray:
        """Each packed word's class word."""
        for g, p in self._rows:
            words = words ^ (words >> (self.n - 1 - p) & 1) * g
        m, n = len(self.free), self.n
        bits = ((words >> (n - 1 - f) & 1) << (m - 1 - j) for j, f in enumerate(self.free))
        return sum(bits, np.zeros_like(words))


@dataclass
class ClusterPartition:
    """Connected components of the near-coset relation on a syndrome set.

    Two members relate when their difference has small weight modulo the
    opposite-basis stabilizer rowspace.  `labels` numbers each member's
    cluster, 0, 1, ... in order of first member.  Each syndrome gets one
    decoder representative, chosen inside a single designated cluster per
    translate orbit so that decoding any member of a cluster lands in one
    stabilizer coset.
    """

    basis: str
    epsilon: float
    c1: float
    threshold: float
    n: int
    members: np.ndarray  # int64, ascending, as in the syndrome set
    labels: np.ndarray  # cluster per member
    syndromes: np.ndarray  # packed syndrome per member
    representatives: dict[int, int]
    # caches of what the fields above determine
    _cosets: _Classes = field(repr=False, default=None)  # the members modulo S
    _coset_weights: np.ndarray = field(repr=False, default=None)  # per S-class
    _readout: list = field(repr=False, default=None)  # `_walsh_plan`, on first use

    def __eq__(self, other) -> bool:
        return isinstance(other, ClusterPartition) and self.to_doc() == other.to_doc()

    @property
    def clusters(self) -> list[list[int]]:
        """Each cluster's members, ascending, in label order."""
        order = np.argsort(self.labels, kind="stable")
        ends = np.cumsum(np.bincount(self.labels))[:-1]
        return [cl.tolist() for cl in np.split(self.members[order], ends)]

    def decoded(self) -> np.ndarray:
        """Each member plus the representative of its syndrome, in member order."""
        distinct, index = np.unique(self.syndromes, return_inverse=True)
        reps = np.array([self.representatives[s] for s in distinct.tolist()], dtype=np.int64)
        return self.members ^ reps[index]

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


def build_clusters(sset: SyndromeSet, c1: float) -> ClusterPartition:
    if not c1 > 0:
        raise DomainError("c1 must be positive")
    code, n, mm = sset.code, sset.code.n, sset.members
    code.validate()  # commuting checks: the member set is a union of S-cosets
    stabilizers = code.rowspace_x if sset.basis == "Z" else code.rowspace_z
    if (1 << n - stabilizers.dim) > ENUMERATION_CAP:
        raise BudgetExceeded(
            f"2^{n - stabilizers.dim} S-class words exceed cap {ENUMERATION_CAP}; "
            "nlts.ENUMERATION_CAP lifts it"
        )
    threshold = 2.0 * c1 * sset.epsilon * n + 1e-12
    # y ~ y + d for close d joins S-cosets: link coset c to c + d
    cosets = _Classes(stabilizers, n, mm)
    weights = _quotient_nearest(cosets, 0, 0)[0] >> 24  # from class 0: least weight per S-class
    close = np.flatnonzero(weights <= threshold)
    nb = cosets.slot[cosets.words[:, None] ^ close]
    rows, cols = np.nonzero(nb >= 0)[0], nb[nb >= 0]
    adj = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)), shape=(len(nb),) * 2)
    from scipy.sparse.csgraph import connected_components  # loaded on the first call

    components = connected_components(adj, directed=False)[1][cosets.of]
    _, first, of = np.unique(components, return_index=True, return_inverse=True)
    labels = np.unique(first, return_inverse=True)[1][of]  # in order of first member
    # translate orbits: shifting by any zero-syndrome word permutes clusters,
    # and each cluster's designated one is the least of its orbit
    lab = np.empty(len(cosets.words), dtype=np.int64)
    lab[cosets.of] = labels
    shifts = np.unique(cosets.index(_zero_syndrome_words(mm, sset.syndromes)))
    heads = cosets.words[cosets.of[np.sort(first)]]
    designated = lab[cosets.slot[heads[:, None] ^ shifts]].min(axis=1)
    # one representative per syndrome: its least member in the designated
    # cluster of its least member's cluster
    distinct, head, syn = np.unique(sset.syndromes, return_index=True, return_inverse=True)
    order = np.lexsort((labels != designated[labels[head]][syn], syn))
    reps = mm[order[np.searchsorted(syn[order], np.arange(len(distinct)))]]
    by_head = np.argsort(head)
    return ClusterPartition(
        basis=sset.basis, epsilon=sset.epsilon, c1=float(c1), threshold=float(threshold), n=n,
        members=mm, labels=labels, syndromes=sset.syndromes,
        representatives=dict(zip(distinct[by_head].tolist(), reps[by_head].tolist())),
        _cosets=cosets, _coset_weights=weights,
    )


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
    cosets, weights, mm, labels = part._cosets, part._coset_weights, part.members, part.labels
    cls, lab = _classes(part, labels)
    counterexample = None

    # (1) an S-class's related classes hold its cluster and no other: all of
    # one label, as many members as the cluster (-1: a class mixing labels)
    pure = np.empty(len(cosets.words), dtype=np.int64)
    pure[cosets.of] = labels
    pure[cosets.of[pure[cosets.of] != labels]] = -1
    nb = cosets.slot[cosets.words[:, None] ^ np.flatnonzero(weights <= part.threshold)]
    hit = nb >= 0
    count = np.where(hit, np.bincount(cosets.of)[nb], 0).sum(axis=1)
    ok = (np.where(hit, pure[nb], pure[:, None]) == pure[:, None]).all(axis=1) & (pure >= 0)
    failing = np.flatnonzero(~(ok & (count == np.bincount(labels)[pure]))[cosets.of])
    partition_ok = not failing.size
    if failing.size:
        i = int(failing[0])
        related = weights[cosets.words[cosets.of] ^ cosets.words[cosets.of[i]]] <= part.threshold
        bad = int(mm[np.nonzero(related != (labels == labels[i]))[0][0]])
        counterexample = {"check": 1, "y": int(mm[i]), "y_prime": bad}

    min_dist, witness = None, None
    if np.unique(labels).size > 1:
        dist = _quotient_nearest(cls, lab)[1][cls.words][cls.of]
        i = int(dist.argmin())
        j = ((labels != labels[i]) & (np.bitwise_count(mm ^ mm[i]) == dist[i])).argmax()
        min_dist, witness = int(dist[i]), (int(mm[i]), int(mm[j]))
    distance_ok = min_dist is None or min_dist >= c2 * part.n
    if not distance_ok and counterexample is None:
        counterexample = {"check": 2, "pair": witness, "distance": min_dist}

    # (3) per class of shifts: Q lies in S, so a whole class is in S or outside it
    kernel_words = _zero_syndrome_words(mm, part.syndromes)
    shifts, shift_of = np.unique(cls.index(kernel_words), return_inverse=True)
    in_stab = np.zeros(len(shifts), dtype=bool)
    in_stab[shift_of] = cosets.index(kernel_words) == 0
    target = _moved_clusters(cls, lab, shifts)
    bad = (target < 0) | ((target == np.arange(len(target))[:, None]) != in_stab)
    translate_ok = not bad.any()
    if not translate_ok and counterexample is None:
        cid = int(bad.any(axis=1).argmax())
        shift = int(kernel_words[bad[cid][shift_of]][0])
        counterexample = {"check": 3, "cluster": cid, "shift": shift}

    # (4) every member decodes into the stabilizer coset of its cluster's first
    decoded = part.decoded()
    firsts = np.unique(labels, return_index=True)[1]
    drift = np.flatnonzero(cosets.index(decoded ^ decoded[firsts[labels]]) != 0)
    decoder_ok = not drift.size
    if drift.size and counterexample is None:
        cid = int(labels[drift].min())
        y = int(mm[drift[labels[drift] == cid][0]])
        counterexample = {"check": 4, "cluster": cid, "pair": (int(mm[firsts[cid]]), y)}

    return ClusterLemmaReport(
        partition_ok=partition_ok, distance_ok=bool(distance_ok), translate_ok=translate_ok,
        decoder_ok=decoder_ok, min_intercluster_distance=min_dist, c2=float(c2), n=part.n,
        counterexample=counterexample,
    )


def _classes(part: ClusterPartition, labels: np.ndarray) -> tuple[_Classes, np.ndarray]:
    """The members' classes under a labelling, with a label per class: the
    S-cosets if the labels are constant on them (Q = S), else the members."""
    cls, lab = part._cosets, np.empty(len(part._cosets.words), dtype=labels.dtype)
    lab[cls.of] = labels
    if (lab[cls.of] == labels).all():
        return cls, lab
    return _Classes(None, part.n, part.members), labels  # the members ascend


def _quotient_nearest(cls: _Classes, labels, words=None):
    """Per class word v, (d1 << 24 | l1, d2): the distance d1 to the nearest
    labelled class (one per class word of `words`, by default cls.words),
    the least label l1 (< 2^24) at that distance, and the distance d2 to the
    nearest class labelled other than l1 (n + 1 if none).  One min-plus step
    per reduced unit vector; from class 0 alone, d1 is a class's least weight."""
    n, size, mask = cls.n, len(cls.slot), (1 << 24) - 1
    key = np.full(size, (n + 1) << 24 | mask, dtype=np.int32)
    other = np.full(size, n + 1, dtype=np.int8)
    key[cls.words if words is None else words] = labels
    for g in np.unique(cls.gens[cls.gens != 0]).tolist():  # a repeated step gains nothing
        step = np.arange(size) ^ g
        far = key[step] + (1 << 24)
        cross = np.maximum(key, far) >> 24  # the farther of two differently labelled classes
        cross[((key ^ far) & mask) == 0] = n + 1
        np.minimum(other, np.minimum(cross, other[step] + 1), out=other, casting="unsafe")
        np.minimum(key, far, out=key)
    return key, other


def _moved_clusters(cls: _Classes, labels: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """Per cluster (class label) and shift class c: the cluster whose
    classes are the cluster's own plus c, or -1 when there is none."""
    order = np.argsort(labels, kind="stable")
    sizes = np.bincount(labels)
    starts = np.cumsum(sizes) - sizes
    out = np.empty((len(sizes), len(shifts)), dtype=np.int64)
    step = max(1, PAIR_BLOCK // len(order))
    for s in range(0, len(shifts), step):
        moved = cls.slot[cls.words[order, None] ^ shifts[s : s + step]]
        lab = np.where(moved >= 0, labels[moved], -1)
        target = lab[starts]
        inside = np.logical_and.reduceat(lab == target[labels[order]], starts, axis=0)
        inside &= (target >= 0) & (sizes[target] == sizes[:, None])
        out[:, s : s + step] = np.where(inside, target, -1)
    return out


def _zero_syndrome_words(members: np.ndarray, syndromes: np.ndarray) -> np.ndarray:
    """Zero-syndrome words, recovered as differences within the syndrome-0
    class of the members (the epsilon >= 0 set always contains them)."""
    zero = members[syndromes == 0]
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
        raise BudgetExceeded(
            f"{n} qubits exceeds cap {qubit_cap}; `qubit_cap` (nlts.HAMILTONIAN_QUBIT_CAP) lifts it"
        )
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

    @property
    def min_mass(self) -> float:
        return min(self.mass0, self.mass1)

    @property
    def meets_strict(self) -> bool:
        return self.min_mass >= SPREAD_MASS_STRICT - 1e-9

    @property
    def meets_relaxed(self) -> bool:
        return self.min_mass >= SPREAD_MASS_RELAXED - 1e-9

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


def _walsh_plan(words: np.ndarray, n: int) -> list:
    """Per index bit k, the rows of `_walsh_at` that the ascending packed
    `words` need (patterns of their low k + 1 bits): None for all, else
    their indices in [sums, differences]."""
    plan, rows = [], np.zeros(1, dtype=np.int64)
    for k in range(n):
        need = np.sort(words & ((2 << k) - 1))
        need = need[np.r_[True, need[1:] != need[:-1]]]
        low = np.searchsorted(rows, need & ((1 << k) - 1))
        plan.append(None if len(need) == 2 * len(rows) else low + len(rows) * (need >> k))
        rows = need
    return plan


def _walsh_at(a: np.ndarray, plan: list) -> np.ndarray:
    """Walsh-Hadamard transform of each row of a (b, 2^n), read at the words
    of `plan`: one butterfly pass per index bit, lowest first, so each value
    is the same sum to the bit whichever words are read.  Each pass pairs
    neighbouring entries and writes sums, then differences (constant
    geometry): rows are the patterns of the bits passed, each pass's bit
    is the lowest of the columns left, and only the plan's rows go on.
    Two buffers of b * 2^n entries take turns."""
    b, size = a.shape
    cur, (one, two), rows = a, np.empty((2, b * size), dtype=complex), 1
    for k, keep in enumerate(plan):
        half = size >> k + 1
        src = cur.reshape(-1)[: b * rows * 2 * half].reshape(b, rows * half, 2)
        dst = one[: b * rows * 2 * half].reshape(b, 2, rows * half)
        np.add(src[..., 0], src[..., 1], out=dst[:, 0])
        np.subtract(src[..., 0], src[..., 1], out=dst[:, 1])
        if keep is None:
            cur, one, two, rows = one, two, one, 2 * rows
        else:
            cur = two[: b * len(keep) * half].reshape(b, len(keep), half)
            np.take(dst.reshape(b, 2 * rows, half), keep, axis=1, out=cur, mode="clip")
            rows = len(keep)
    return cur.reshape(-1)[: b * rows].reshape(b, rows)


def _distributions(state, n: int, z_words: list, x_plan: list) -> tuple[np.ndarray, np.ndarray]:
    """(Z-basis outcome probabilities at z_words, X-basis ones at the words
    of x_plan) for a vector or density matrix on n qubits."""
    dim = 1 << n
    state = np.asarray(state, dtype=complex)
    if state.shape not in ((dim,), (dim, dim)):
        raise StateDimensionMismatch(f"state shape {state.shape} is not (2^{n},) or (2^{n}, 2^{n})")
    if not np.isfinite(state).all():
        raise DomainError("state entries must be finite numbers")
    if state.ndim == 1:
        # summed in NumPy's fixed pairwise order, not by a threaded BLAS call,
        # so the masses keep their bits whatever the thread count
        re, im = state.real, state.imag
        norm = np.sqrt(np.add.reduce(re * re) + np.add.reduce(im * im))
        if norm == 0:
            raise DomainError("zero state vector")
        vec = state / norm
        return np.abs(vec[z_words]) ** 2, np.abs(_walsh_at(vec[None], x_plan)[0]) ** 2 / dim
    tr = np.trace(state).real
    if abs(tr) < 1e-12:
        raise DomainError("zero-trace density operator")
    rho = state / tr
    mixed = _walsh_at(_walsh_at(rho.T, x_plan).T, x_plan)  # columns, then rows
    return rho[z_words, z_words].real, np.diag(mixed).real / dim


def measure_spread(
    state,
    code: CssCode,
    partition_x: ClusterPartition,
    partition_z: ClusterPartition,
    logicals: tuple[np.ndarray, np.ndarray],
) -> tuple[SpreadReport, SpreadReport]:
    """Exact X- and Z-basis spread of a state over the decoded halves of
    the two syndrome sets.  logicals = (x_readout, z_readout), binary words
    in ker H_X and ker H_Z with odd mutual overlap; the kernel condition
    makes each half a union of stabilizer cosets."""
    _require_gf2(code)
    n = code.n
    if (partition_x.basis, partition_z.basis, partition_x.n, partition_z.n) != ("X", "Z", n, n):
        raise DomainError(f"partitions must be the X and the Z partition on {n} qubits, in order")
    words = [np.asarray(w) for w in logicals]
    if any(w.shape != (n,) or not np.isin(w, (0, 1)).all() for w in words):
        raise DomainError(f"readout words must be binary of length {n}")
    if code.h_x.apply(words[0]).any() or code.h_z.apply(words[1]).any():
        raise DomainError("readout words must lie in ker H_X and ker H_Z")
    c_x, c_z = pack_bits(words[0]), pack_bits(words[1])
    if (c_x & c_z).bit_count() % 2 != 1:
        raise DomainError("readout words must have odd overlap")
    partition_x._readout = partition_x._readout or _walsh_plan(partition_x.members, n)
    d_z, d_x = _distributions(state, n, partition_z.members, partition_x._readout)
    reports = []
    for basis, part, readout, dist in (("X", partition_x, c_z, d_x), ("Z", partition_z, c_x, d_z)):
        odd = (np.bitwise_count(part.decoded() & readout) & 1).astype(np.int64)
        s0, s1 = part.members[odd == 0].tolist(), part.members[odd == 1].tolist()
        # summed in order from 0, as a Python sum adds, so masses keep every bit
        mass0, mass1 = (float(np.cumsum(np.r_[0.0, dist[odd == b]])[-1]) for b in (0, 1))
        cls, lab = _classes(part, odd)
        separation = int(_quotient_nearest(cls, lab)[1][cls.words].min()) if s0 and s1 else None
        reports.append(SpreadReport(basis, s0, s1, mass0, mass1, separation))
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
