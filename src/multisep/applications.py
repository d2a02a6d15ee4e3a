"""Pauli-decomposed matrix elements, quantum secret sharing, error
propagation, and the closed-form continuous-variable thresholds.

Density-matrix elements expand into local Pauli expectations, so the
GHZ verification inequality can be evaluated from measured expectation
values alone; half of the sixteen strings needed for the tripartite
check involve only identity/sigma_3 factors and are already measured
during the secret-sharing rounds themselves.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import product
from math import sqrt

import numpy as np

from .criteria import CriterionReport, DEFAULT_TOL, _report
from .errors import DomainError
from .partitions import stirling2
from .states import basis_product_state, ghz_state
from .tensor import kron_all, vec_to_dm

# sigma_0..sigma_3 with sigma_2 = i|0><1| - i|1><0|, the transpose of the
# textbook sigma_y; this sign choice keeps the verification expansions in
# the form used throughout this package.
PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, 1j], [-1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)

# <b|sigma_p|k> / 2 for qubit labels b, k
_SITE_FACTOR = {
    (b, k): tuple(PAULI[p][b, k] / 2.0 for p in range(4))
    for b in (0, 1) for k in (0, 1)
}


def pauli_string_matrix(labels):
    """Dense matrix of the operator sigma_{l1} ⊗ sigma_{l2} ⊗ ..."""
    labels = tuple(int(x) for x in labels)
    if any(not 0 <= x <= 3 for x in labels):
        raise DomainError(f"Pauli labels must be in 0..3, got {labels}")
    return kron_all([PAULI[x] for x in labels])


def pauli_expansion(bra, ket):
    """Expansion of <bra|rho|ket> into Pauli-string expectations.

    Returns {string: coefficient} with only the non-vanishing strings,
    such that <bra|rho|ket> = sum coeff * tr(rho sigma_string) holds
    identically for every qubit state rho.  Diagonal elements expand
    with identity/sigma_3 factors only.
    """
    bra = tuple(int(x) for x in bra)
    ket = tuple(int(x) for x in ket)
    if len(bra) != len(ket):
        raise DomainError("bra and ket must address the same number of qubits")
    if any(x not in (0, 1) for x in bra + ket):
        raise DomainError("the Pauli expansion is defined for qubit indices")
    out = {(): 1.0 + 0j}
    for b, k in zip(bra, ket):
        factors = _SITE_FACTOR[(b, k)]
        nxt = {}
        for prefix, coeff in out.items():
            for p in range(4):
                fac = factors[p]
                if fac != 0:
                    nxt[prefix + (p,)] = coeff * fac
        out = nxt
    return out


def pauli_expectations(rho, strings):
    """tr(rho sigma_string) for each requested string (real numbers)."""
    out = {}
    for s in strings:
        val = np.trace(rho.mat @ pauli_string_matrix(s))
        out[tuple(int(x) for x in s)] = float(val.real)
    return out


# ---------------------------------------------------------------------------
# Quantum secret sharing on the tripartite GHZ state
# ---------------------------------------------------------------------------

_BASIS_VECTORS = {
    "x+": np.array([1, 1], dtype=complex) / sqrt(2),
    "x-": np.array([1, -1], dtype=complex) / sqrt(2),
    "y+": np.array([1, 1j], dtype=complex) / sqrt(2),
    "y-": np.array([1, -1j], dtype=complex) / sqrt(2),
}

# rounds per array pass of QssSimulator.run; even, see its docstring
_ROUND_CHUNK = 1 << 16

_VERIFY_ELEMENTS = (
    ((0, 0, 0), (1, 1, 1)),
    ((0, 0, 1), (0, 0, 1)),
    ((1, 1, 0), (1, 1, 0)),
    ((0, 1, 0), (0, 1, 0)),
    ((1, 0, 1), (1, 0, 1)),
    ((1, 0, 0), (1, 0, 0)),
    ((0, 1, 1), (0, 1, 1)),
)


@dataclass(frozen=True)
class QssRound:
    bases: tuple[str, str, str]       # Alice, Bob, Charlie
    outcomes: tuple[str, str, str]    # e.g. ("x+", "y-", "x+")
    sifted: bool
    alice_state: str                  # label reconstructed by Bob + Charlie


def _identify_state(amplitudes):
    """Match a single-qubit vector to one of x±, y± up to a global phase."""
    norm = np.linalg.norm(amplitudes)
    if norm < 1e-12:
        return None
    v = amplitudes / norm
    for label, ref in _BASIS_VECTORS.items():
        if abs(np.vdot(ref, v)) > 1.0 - 1e-9:
            return label
    return None


def qss_table():
    """Reconstruction table: (Bob outcome, Charlie outcome) -> Alice state.

    Derived by projecting Bob's and Charlie's outcomes on the GHZ state
    and identifying Alice's conditional pure state.  Symmetric under
    Bob <-> Charlie.
    """
    ghz = ghz_state(3).amp.reshape(2, 2, 2)
    table = {}
    for bob, bvec in _BASIS_VECTORS.items():
        for charlie, cvec in _BASIS_VECTORS.items():
            alice = np.einsum("abc,b,c->a", ghz, bvec.conj(), cvec.conj())
            label = _identify_state(alice)
            if label is None:
                raise AssertionError("GHZ reconstruction produced an unknown state")
            table[(bob, charlie)] = label
    return table


class QssSimulator:
    """Seeded projective simulation of the tripartite protocol.

    The eavesdrop toggle swaps the GHZ resource for the product state
    |000>, which breaks the reconstruction correlations and makes the
    verification inequality unviolated.

    The construction takes the probability <v|rho|v> of every outcome's
    product vector v in one array pass and tabulates, for each of the
    eight basis triples, the CDF of its eight outcomes (the cumulative
    sum divided by its last entry, as `Generator.choice` builds it)
    together with each outcome's reconstructed Alice state, sifting flag
    and key match.  A round draws
    `rng.integers(0, 8)` for the bases and one `rng.random()` looked up in
    that CDF with the rule of `searchsorted(side="right")`, which is what
    `rng.choice(8, p=probs)` draws, so every seed gives the same rounds.

    `run` draws the same numbers in array passes over the generator's raw
    64-bit PCG64 words.  `integers(0, 8)` takes one 32-bit half of a word,
    the low half first and the high half at the next call, and gives
    `half >> 29`; `random()` takes a whole word and gives
    `(word >> 11) * 2**-53`.  So two rounds use three words: the shared
    bases word, then one word each for the outcomes.  Chunks hold an even
    number of rounds, so no half-word crosses a chunk.
    """

    def __init__(self, eavesdrop=False):
        self.eavesdrop = bool(eavesdrop)
        self.resource = vec_to_dm(basis_product_state((0, 0, 0)) if eavesdrop else ghz_state(3))
        table = qss_table()
        self._bases = [tuple(b) for b in product("xy", repeat=3)]
        self._combos, self._alice = [], []
        sifted_rows, match_rows = [], []
        for bases in self._bases:
            combos = [tuple(b + s for b, s in zip(bases, signs))
                      for signs in product("+-", repeat=3)]
            alice = [table[(c[1], c[2])] for c in combos]
            sifted = [bases[0] == a[0] for a in alice]
            self._combos.append(combos)
            self._alice.append(alice)
            sifted_rows.append(sifted)
            match_rows.append([f and c[0] == a for f, c, a in zip(sifted, combos, alice)])
        # <v|rho|v> of each outcome's product vector v, all 64 in one pass
        a, b, c = np.array([[_BASIS_VECTORS[x] for x in combo]
                            for combos in self._combos for combo in combos]).transpose(1, 0, 2)
        vecs = (a[:, :, None, None] * b[:, None, :, None] * c[:, None, None, :]).reshape(-1, 8)
        probs = np.maximum(((vecs.conj() @ self.resource.mat) * vecs).sum(axis=1).real, 0.0)
        probs = probs.reshape(len(self._bases), -1)
        cdfs = (probs / probs.sum(axis=1, keepdims=True)).cumsum(axis=1)
        # (basis triple, outcome) tables
        self._cdfs = cdfs / cdfs[:, -1:]
        self._sifted = np.array(sifted_rows)
        self._matches = np.array(match_rows)

    def _draw(self, rng):
        """Indices (basis triple, outcome) of one round."""
        b = int(rng.integers(0, len(self._bases)))
        return b, bisect_right(self._cdfs[b], rng.random())

    def round(self, rng):
        b, o = self._draw(rng)
        return QssRound(bases=self._bases[b], outcomes=self._combos[b][o],
                        sifted=bool(self._sifted[b, o]), alice_state=self._alice[b][o])

    def run(self, rounds, seed=0):
        if rounds < 0:
            raise DomainError(f"the number of rounds must be non-negative, got {rounds}")
        bits = np.random.default_rng(seed).bit_generator
        sifted = 0
        matches = 0
        for start in range(0, rounds, _ROUND_CHUNK):
            count = min(_ROUND_CHUNK, rounds - start)
            words = bits.random_raw(3 * ((count + 1) // 2)).reshape(-1, 3)
            b = np.stack([(words[:, 0] >> 29) & 7, words[:, 0] >> 61], axis=1).reshape(-1)[:count]
            u = (words[:, 1:] >> 11).reshape(-1)[:count] * 2.0 ** -53
            o = np.count_nonzero(self._cdfs[b] <= u[:, None], axis=1)
            sifted += int(np.count_nonzero(self._sifted[b, o]))
            matches += int(np.count_nonzero(self._matches[b, o]))
        return {
            "rounds": rounds,
            "sifted": sifted,
            "sift_rate": sifted / rounds if rounds else 0.0,
            "key_matches": matches,
            "match_rate": matches / sifted if sifted else 0.0,
            "eavesdrop": self.eavesdrop,
        }

    def exact_expectations(self, shots=None, seed=0):
        """The sixteen Pauli expectations the verification needs.

        Exact by default; with `shots` each expectation is replaced by a
        binomially sampled estimate (measurement-noise extension).
        """
        exact = pauli_expectations(self.resource, required_pauli_strings())
        if shots is None:
            return exact
        if shots < 1:
            raise DomainError(f"shots must be at least 1, got {shots}")
        rng = np.random.default_rng(seed)
        noisy = {}
        for s, e in exact.items():
            p = min(max((1.0 + e) / 2.0, 0.0), 1.0)
            noisy[s] = 2.0 * rng.binomial(int(shots), p) / int(shots) - 1.0
        return noisy


def qss_round(seed=0, eavesdrop=False):
    """One seeded protocol round on a fresh simulator."""
    return QssSimulator(eavesdrop=eavesdrop).round(np.random.default_rng(seed))


def required_pauli_strings():
    """The 16 distinct strings appearing in the verification expansion,
    in deterministic order."""
    seen = {}
    for bra, ket in _VERIFY_ELEMENTS:
        for s in pauli_expansion(bra, ket):
            seen[s] = True
    return sorted(seen)


def element_from_expectations(expectations, bra, ket):
    """Reassemble <bra|rho|ket> from measured Pauli expectations."""
    expansion = pauli_expansion(bra, ket)
    missing = [s for s in expansion if s not in expectations]
    if missing:
        raise DomainError(f"missing Pauli expectations for strings {sorted(missing)}")
    return sum(coeff * expectations[s] for s, coeff in expansion.items())


def qss_verification_value(expectations, tol=DEFAULT_TOL) -> CriterionReport:
    """GHZ verification inequality evaluated from expectations only.

    Equals the genuine-multipartite-entanglement criterion with probe
    (000, 111); a positive value certifies that the shared resource is
    genuinely tripartite entangled.
    """
    expectations = {tuple(int(x) for x in k): float(v) for k, v in expectations.items()}
    off = abs(element_from_expectations(expectations, (0, 0, 0), (1, 1, 1)))
    value = off
    for left, right in (((0, 0, 1), (1, 1, 0)), ((0, 1, 0), (1, 0, 1)),
                        ((1, 0, 0), (0, 1, 1))):
        d1 = max(element_from_expectations(expectations, left, left).real, 0.0)
        d2 = max(element_from_expectations(expectations, right, right).real, 0.0)
        value -= sqrt(d1 * d2)
    return _report("qss_verify", value, tol=tol)


# ---------------------------------------------------------------------------
# Error propagation and continuous-variable thresholds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ErrorBudget:
    o: float        # absolute error of the off-diagonal element
    delta: float    # relative error of the diagonal elements
    n: int
    k: int
    xi: float       # propagated bound on the criterion value's error


def error_bound(o, delta, n, k):
    """Gaussian error propagation for the k-separability criterion.

    Xi = sqrt(o^2 + delta^2 * S(n,k) / (8 k^3)); the partition count
    S(n,k) enters because every k-partition contributes its own root
    term.  For delta = 0 the bound reduces to o.
    """
    if o < 0 or delta < 0:
        raise DomainError("error magnitudes must be non-negative")
    n, k = int(n), int(k)
    if not 2 <= k <= n:
        raise DomainError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    xi = sqrt(o ** 2 + delta ** 2 * stirling2(n, k) / (8 * k ** 3))
    return ErrorBudget(o=float(o), delta=float(delta), n=n, k=k, xi=xi)


@dataclass(frozen=True)
class CvThresholds:
    gme_p: object       # number type follows the inputs (floats, Fractions, ...)
    ent_p: object
    always_detected: bool


def cv_detection_thresholds(d, delta, alpha):
    """Closed-form noise thresholds for the triangular-profile state.

    For d > delta the state is detected genuinely multipartite entangled
    for every p > 0; otherwise detection requires
        p > 3 d^3 alpha^2 / (3 d^3 alpha^2 + 2 delta)      (GME)
        p >   d^3 alpha^2 / (  d^3 alpha^2 + 2 delta)      (any entanglement)
    Arithmetic is carried out in the input number types, so exact
    rationals stay exact.
    """
    if d <= 0 or delta <= 0 or alpha <= 0:
        raise DomainError("d, delta and alpha must be positive")
    core = d ** 3 * alpha ** 2
    gme_p = 3 * core / (3 * core + 2 * delta)
    ent_p = core / (core + 2 * delta)
    return CvThresholds(gme_p=gme_p, ent_p=ent_p, always_detected=d > delta)
