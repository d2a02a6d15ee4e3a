"""Separability, dimensionality and classification inequalities.

Every criterion returns a CriterionReport whose value is positive
exactly when the state is detected (entangled / k-inseparable /
genuinely f-dimensional / outside the class, depending on the
criterion).  Reports carry the detection threshold in `tol`; plain
criteria use the base violation tolerance 1e-10, the dimensionality
criteria use f-2 plus that tolerance, so `violated == (value > tol)`
holds uniformly and thresholds are open intervals (violated strictly
above).

All evaluators accept dense DensityMatrix inputs or closed-form element
providers interchangeably (except the PPT check, which needs the full
spectrum and therefore a dense matrix).

The matrix-element criteria (bipartite, gme, ksep, q0, qm, dicke) are
one sum: off-diagonal moduli |rho_ab| minus, over partitions of the
sites, products of cross diagonals (D+ D-)^(1/2k), where D+ and D- are
the diagonals at a with b's labels on a block and at b with a's.  One
numpy kernel evaluates it over the provider batch API
(ElementProvider.elements / .diagonal on arrays of flat indices, in
shape.index_dtype so huge shapes stay exact).  Moving a set of sites
from b's labels to a's shifts the flat index by a subset sum of
per-site steps, so a partition is a row of numbers rather than a
Python object:

* bipartitions, and the subsets of the Dicke/qm cross terms, are
  bitmasks whose subset sums are tabulated by doubling;
* k-partitions with k > 2 are restricted-growth-string rows
  (partitions.k_partition_rows), whose block sums are scattered per site.

Work proceeds in chunks of at most _CHUNK entries, so memory stays
bounded; sums are folded in a fixed order, so results are deterministic.

Probe states are computational-basis product multi-indices; the basis
freedom of the underlying inequalities is realised by conjugating the
state with local unitaries (tensor.apply_local_unitaries) before
evaluation, which is equivalent to rotating the probe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, islice, product
from math import sqrt

import numpy as np

from .errors import DomainError
# iter_bipartitions / iter_k_partitions are not called here; they stay
# importable from this module because perfbench/tracer.py wraps them on it.
from .partitions import (  # noqa: F401
    DEFAULT_ENUMERATION_CAP,
    iter_bipartitions,
    iter_k_partitions,
    k_partition_rows,
    partition_count,
)
from .states import FlippedProvider, as_provider, ghz_state, w_state
from .tensor import DensityMatrix, hermitian_spectrum, partial_transpose

DEFAULT_TOL = 1e-10

# Largest number of entries in one batch of the partition-sum kernel.
# Batches this small keep the kernel's temporaries near 1 MiB at no
# measurable cost in speed.
_CHUNK = 1 << 12


@dataclass(frozen=True)
class ProbePair:
    """Two computational-basis product vectors, orthogonal on every site.

    Their tensor product is the fully separable two-copy probe; per-site
    distinctness is the orthogonality condition the criteria require to
    be non-trivial.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]

    def __init__(self, a, b):
        object.__setattr__(self, "a", tuple(int(x) for x in a))
        object.__setattr__(self, "b", tuple(int(x) for x in b))
        if len(self.a) != len(self.b):
            raise DomainError("probe halves must have the same length")
        for i, (x, y) in enumerate(zip(self.a, self.b)):
            if x == y:
                raise DomainError(
                    f"probe labels coincide on subsystem {i}; "
                    "per-site orthogonality is required"
                )

    def validate(self, shape):
        shape.validate_index(self.a)
        shape.validate_index(self.b)
        return self


@dataclass
class CriterionReport:
    name: str
    value: float
    tol: float = DEFAULT_TOL
    violated: bool = False
    params: dict = field(default_factory=dict)
    probe: ProbePair | None = None

    @property
    def margin(self):
        """Signed distance to the detection threshold."""
        return self.value - self.tol

    def to_dict(self):
        out = {
            "name": self.name,
            "params": self.params,
            "probe": None if self.probe is None else [list(self.probe.a), list(self.probe.b)],
            "value": self.value,
            "violated": self.violated,
        }
        return out

    def to_json(self):
        return json.dumps(self.to_dict())


def _report(name, value, params=None, probe=None, tol=DEFAULT_TOL):
    value = float(value)
    return CriterionReport(
        name=name,
        value=value,
        tol=tol,
        violated=value > tol,
        params=params or {},
        probe=probe,
    )


def _diag(el, mi):
    """Real value of a diagonal element, clipped against tiny negative noise."""
    return max(el(mi, mi).real, 0.0)


# ---------------------------------------------------------------------------
# Partition-sum kernel
# ---------------------------------------------------------------------------


def _subset_sums(steps):
    """Sum of every subset of each row of steps: column c holds the
    subset whose bit j is set iff entry j is in it."""
    sums = np.zeros((steps.shape[0], 1), dtype=steps.dtype)
    for j in range(steps.shape[1]):
        sums = np.concatenate([sums, sums + steps[:, j, None]], axis=1)
    return sums


def _subset_root_sum(prov, lo, hi, steps, proper):
    """Per row r, the sum over non-empty subsets S of the row's sites
    (proper subsets only if `proper`) of sqrt(D(lo[r] + s) D(hi[r] - s)),
    where s is the sum of steps[r, S] and D = prov.diagonal.

    Subset sums are tabulated over the first log2(_CHUNK) sites and
    combined with one subset of the remaining sites at a time, in row
    chunks, so that no batch exceeds _CHUNK entries.
    """
    rows, m = steps.shape
    n_low = min(m, _CHUNK.bit_length() - 1)
    n_high = 1 << (m - n_low)
    step = max(1, _CHUNK >> n_low)
    out = np.zeros(rows)
    for r in range(0, rows, step):
        block = slice(r, r + step)
        low = _subset_sums(steps[block, :n_low])
        high = _subset_sums(steps[block, n_low:])
        for h in range(n_high):
            # the empty subset is column 0 of h = 0, the full one the last of the last h
            s = low[:, int(h == 0):low.shape[1] - int(proper and h == n_high - 1)]
            s = s + high[:, h, None]
            diag = prov.diagonal(np.stack([lo[block, None] + s, hi[block, None] - s]))
            out[block] += np.sqrt(diag[0] * diag[1]).sum(axis=1)
    return out


def _block_root_sum(prov, lo, hi, steps, k, cap):
    """Sum over k-partitions P of the sites of
    prod_{g in P} (D(lo + s_g) D(hi - s_g))^(1/2k), s_g = sum of steps[g]."""
    n = len(steps)
    total = 0.0
    for rgs in k_partition_rows(n, k, cap=cap, rows=max(1, _CHUNK // k)):
        rows = np.arange(len(rgs))
        sums = np.zeros((len(rgs), k), dtype=steps.dtype)
        for i in range(n):
            sums[rows, rgs[:, i]] += steps[i]
        diag = prov.diagonal(np.stack([lo + sums, hi - sums]))
        terms = (diag[0] * diag[1]).prod(axis=1)
        total += float(np.sum(terms ** (1.0 / (2 * k))))
    return total


def _probe_terms(prov, a, b, k, cap):
    """(|rho_ab|, partition sum) for each row of the label arrays a, b.

    The partition sum runs over the k-partitions of the sites of
    prod_g (D(a_g b_rest) D(b_g a_rest))^(1/2k).  Site i's step
    (a_i - b_i) w_i moves it from b's label to a's, so a_g b_rest sits
    at flat(b) + s_g and b_g a_rest at flat(a) - s_g.
    """
    n = prov.shape.n
    w = prov.shape.place_values()
    a = np.asarray(a, dtype=w.dtype).reshape(-1, n)
    b = np.asarray(b, dtype=w.dtype).reshape(-1, n)
    flat_a, flat_b = (a * w).sum(axis=1), (b * w).sum(axis=1)
    off = np.abs(prov.elements(flat_a, flat_b))
    steps = (a - b) * w
    if k == 2:
        partition_count(n, 2, cap)
        # The bipartition {g, rest} with site 0 in rest is the non-empty
        # subset g of sites 1..n-1; g and rest contribute the same factor,
        # so the term is sqrt(D+ D-).
        return off, _subset_root_sum(prov, flat_b, flat_a, steps[:, 1:], proper=False)
    sums = [_block_root_sum(prov, lo, hi, st, k, cap)
            for lo, hi, st in zip(flat_b, flat_a, steps)]
    return off, np.array(sums)


def _dicke_total(prov, m, f):
    """The qm sum before its division by mu = min(m, n-m).

    Over ordered pairs (alpha, beta) of mu-subsets with beta = alpha - x
    + y, and levels k < f-1 (|j+1> on the subset, |j> elsewhere, written
    l_k(S)):
      |rho(l_k(alpha), l_k(beta))| - sqrt(D(l_k(alpha&beta)) D(l_k(alpha|beta))),
    plus for levels l < k twice the cross term |rho(A, B)|, A = l_k(alpha),
    B = l_l(beta), minus the sum of sqrt(D(A with B on S) D(B with A on S))
    over the non-empty proper subsets S of the sites other than y; minus
    mu (n-mu-1)(f-1) times the summed diagonals D(l_k(alpha)).  m > n/2
    is evaluated on the flipped state |j> -> |d-1-j> at mu = n - m.
    """
    n = prov.shape.n
    mu = min(m, n - m)
    omega = FlippedProvider(prov) if 2 * m > n else prov
    w = prov.shape.place_values()
    level = w.sum()         # flat-index shift raising every label by one
    total = diag_sum = 0.0
    per_chunk = max(1, _CHUNK // (mu * (n - mu)))
    subsets = combinations(range(n), mu)
    while True:
        alpha = np.array(list(islice(subsets, per_chunk)), dtype=np.intp).reshape(-1, mu)
        if not len(alpha):
            break
        members = np.zeros((len(alpha), n), dtype=bool)
        members[np.arange(len(alpha))[:, None], alpha] = True
        rest = np.nonzero(~members)[1].reshape(len(alpha), n - mu)
        e_alpha = w[alpha].sum(axis=1)     # flat index of 1 on alpha, 0 elsewhere
        ea, x, y = (v.ravel() for v in np.broadcast_arrays(
            e_alpha[:, None, None], alpha[:, :, None], rest[:, None, :]))
        wx, wy = w[x], w[y]
        pairs = np.arange(len(x))
        not_y = np.ones((len(x), n), dtype=bool)
        not_y[pairs, y] = False
        for k in range(f - 1):
            flat_a = k * level + ea
            total += np.abs(omega.elements(flat_a, flat_a - wx + wy)).sum()
            total -= np.sqrt(omega.diagonal(flat_a - wx) * omega.diagonal(flat_a + wy)).sum()
            diag_sum += omega.diagonal(k * level + e_alpha).sum()
            for l in range(k):
                flat_b = l * level + ea - wx + wy
                steps = np.broadcast_to((l - k) * w, (len(x), n)).copy()
                steps[pairs, x] -= wx
                cross = np.abs(omega.elements(flat_a, flat_b)) - _subset_root_sum(
                    omega, flat_a, flat_b, steps[not_y].reshape(len(x), n - 1), proper=True)
                total += 2.0 * cross.sum()
    return total - mu * (n - mu - 1) * (f - 1) * diag_sum


def _detected_f(value, d, tol):
    detected = None
    for ff in range(2, d + 1):
        if value > (ff - 2) + tol:
            detected = ff
    return detected


def _coerce_probe(probe):
    if isinstance(probe, ProbePair):
        return probe
    a, b = probe
    return ProbePair(a, b)


def ppt_check(rho, block, tol=DEFAULT_TOL):
    """Negativity test under partial transposition of the given block.

    value = -(minimal eigenvalue of rho^{T_block}); positive value means
    NPT, hence entangled across the cut.
    """
    if not isinstance(rho, DensityMatrix):
        raise DomainError("ppt_check needs a dense DensityMatrix (full spectrum required)")
    spectrum = hermitian_spectrum(partial_transpose(rho, block))
    return _report("ppt", -spectrum[0], params={"block": sorted(int(b) for b in block)}, tol=tol)


def _probe_value(state, k, probe, cap):
    """Checked (probe, |rho_ab|, k-partition sum) of a single-probe criterion."""
    prov = as_provider(state)
    n = prov.shape.n
    if not 2 <= k <= n:
        raise DomainError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    probe = _coerce_probe(probe).validate(prov.shape)
    off, s = _probe_terms(prov, probe.a, probe.b, k, cap)
    return probe, float(off[0]), float(s[0])


def bipartite_value(state, probe, tol=DEFAULT_TOL):
    """Elementary bipartite criterion: |rho_ab| vs the cross diagonals.

    value = |<a|rho|b>| - sqrt(<a1 b2|rho|a1 b2> <b1 a2|rho|b1 a2>);
    non-positive for every separable bipartite state.  This is the gme
    criterion at n = 2.
    """
    prov = as_provider(state)
    if prov.shape.n != 2:
        raise DomainError(f"bipartite criterion needs n=2, got n={prov.shape.n}")
    probe, off, s = _probe_value(prov, 2, probe, DEFAULT_ENUMERATION_CAP)
    return _report("bipartite", off - s, probe=probe, tol=tol)


def gme_value(state, probe, tol=DEFAULT_TOL, cap=DEFAULT_ENUMERATION_CAP):
    """Genuine-multipartite-entanglement criterion.

    value = |<a|rho|b>| - sum over bipartitions gamma of
    sqrt(<a_g b_rest| . |a_g b_rest> <b_g a_rest| . |b_g a_rest>);
    non-positive for every biseparable state, so a positive value
    certifies genuine multipartite entanglement.  This is ksep_value at
    k = 2; for n = 2 it reduces to the bipartite criterion.
    """
    probe, off, s = _probe_value(state, 2, probe, cap)
    return _report("gme", off - s, probe=probe, tol=tol)


def ksep_value(state, k, probe, doubled_first_term=False, tol=DEFAULT_TOL,
               cap=DEFAULT_ENUMERATION_CAP):
    """k-separability criterion.

    value = |<a|rho|b>| - sum over k-partitions of
    prod_i (<a_gi b_rest| . > <b_gi a_rest| . >)^(1/2k); non-positive for
    every k-separable state.  k = 2 coincides with gme_value.  Raises
    ResourceError if S(n,k) exceeds cap, before any work.

    doubled_first_term switches to an alternative normalisation with
    2|rho_ab| as the first term, exposed for comparison only; the
    default single-element form is the one that reproduces the known
    ghz-isotropic family thresholds (3/35, 1/65).
    """
    probe, off, s = _probe_value(state, k, probe, cap)
    if doubled_first_term:
        off *= 2.0
    return _report(
        "ksep", off - s,
        params={"k": int(k), "doubled_first_term": bool(doubled_first_term)},
        probe=probe, tol=tol,
    )


def _ones_at(members, n):
    members = set(members)
    return tuple(1 if i in members else 0 for i in range(n))


def dicke_gme_value(state, m, tol=DEFAULT_TOL):
    """Dicke-tailored genuine-multipartite-entanglement criterion (qubits).

    Sums |<e_alpha|rho|e_beta>| - sqrt(diag(alpha^beta) diag(alpha v beta))
    over all ordered pairs of m-element excitation sets differing in one
    element, minus m(n-m-1) times the summed diagonals.  Non-positive for
    biseparable states; the pure m-excitation Dicke state attains the
    maximal value m (for m <= n/2).  m > n/2 is handled by the global
    flip |j> -> |1-j>.  The value equals mu * qm_value(state, m, f=2)
    with mu = min(m, n-m).
    """
    prov = as_provider(state)
    n = prov.shape.n
    if prov.shape.uniform_dim != 2:
        raise DomainError("the Dicke criterion is defined for qubit systems")
    if not 1 <= m <= n - 1:
        raise DomainError(f"m must satisfy 1 <= m <= n-1, got m={m}, n={n}")
    return _report("dicke_gme", _dicke_total(prov, m, 2), params={"m": int(m)}, tol=tol)


def q0_value(state, f=2, tol=DEFAULT_TOL, cap=DEFAULT_ENUMERATION_CAP):
    """GHZ-type criterion for genuinely f-dimensional GME.

    Q0 sums, over every ordered pair of distinct levels (k, l) of the
    full local dimension, |rho_{l^n, k^n}| minus the bipartition
    diagonals, i.e. the gme sums with probes (l^n, k^n).  Q0 is bounded
    by f-1 for at most genuinely f-dimensional states; Q0 > f-2 detects
    genuinely f-dimensional genuine multipartite entanglement, so the
    report's threshold is f-2 and `detected_f` carries the largest
    detected f.  f = 2 reduces to twice the GHZ-probe gme_value.
    """
    prov = as_provider(state)
    n = prov.shape.n
    d = prov.shape.uniform_dim
    if not 2 <= f <= d:
        raise DomainError(f"f must satisfy 2 <= f <= d, got f={f}, d={d}")
    q0 = 0.0
    for l in range(d):
        others = np.array([k for k in range(d) if k != l])
        off, s = _probe_terms(prov, np.full((d - 1, n), l), np.repeat(others[:, None], n, 1),
                              2, cap)
        q0 += float((off - s).sum())
    return _report(
        "q0", q0, params={"d": d, "f": int(f), "detected_f": _detected_f(q0, d, tol)},
        tol=(f - 2) + tol,
    )


def qm_value(state, m, f=2, tol=DEFAULT_TOL):
    """Dicke-type criterion for genuinely f-dimensional GME.

    Port of the reference evaluation: excitation levels run to f-2, the
    cross-level part subtracts diagonal pairs indexed by subsets of
    (complement(beta) ∪ alpha) of sizes 1..n-2, and the diagonal penalty
    carries the factor mu(n - mu - 1)(f - 1); the total is divided by
    mu = min(m, n-m).  For qubits (f = d = 2) this is the Dicke criterion
    divided by mu.
    """
    prov = as_provider(state)
    n = prov.shape.n
    d = prov.shape.uniform_dim
    if not 1 <= m <= n - 1:
        raise DomainError(f"m must satisfy 1 <= m <= n-1, got m={m}, n={n}")
    if not 2 <= f <= d:
        raise DomainError(f"f must satisfy 2 <= f <= d, got f={f}, d={d}")
    value = _dicke_total(prov, m, f) / min(m, n - m)
    return _report(
        "qm", value,
        params={"m": int(m), "d": d, "f": int(f), "detected_f": _detected_f(value, d, tol)},
        tol=(f - 2) + tol,
    )


def _complement_index(mi):
    return tuple(1 - x for x in mi)


def double_class_value(state, tol=DEFAULT_TOL):
    """Exclusion inequality for the two-term (GHZ-like) superposition class.

    Non-positive for every state in the class, biseparable states
    included; violation excludes membership.
    """
    prov = as_provider(state)
    n = prov.shape.n
    if prov.shape.uniform_dim != 2 or n < 3:
        raise DomainError("the class inequalities are defined for n >= 3 qubits")
    el = prov.element
    total = 0.0
    sign = (-1.0) ** (n + 1)
    for i in range(n):
        wi = _ones_at({i}, n)
        for j in range(n):
            if i == j:
                total -= (n - 2) * (_diag(el, wi) + _diag(el, _complement_index(wi)))
                continue
            wj = _ones_at({j}, n)
            total += (el(wi, wj) + sign * el(_complement_index(wi), _complement_index(wj))).real
            dij = _ones_at({i, j}, n)
            total -= _diag(el, dij) + _diag(el, _complement_index(dij))
    total -= n * (n - 1) / 2 * (_diag(el, (0,) * n) + _diag(el, (1,) * n))
    return _report("double_class", total, tol=tol)


def ntuple_class_value(state, tol=DEFAULT_TOL):
    """Exclusion inequality for the single-excitation (W-like) class.

    value = Re rho_{0^n,1^n} - alpha (1 - rho_{0^n,0^n} - rho_{1^n,1^n})
    with alpha = 3/2, 1, 1/2 for n = 3, 4, > 4.
    """
    prov = as_provider(state)
    n = prov.shape.n
    if prov.shape.uniform_dim != 2 or n < 3:
        raise DomainError("the class inequalities are defined for n >= 3 qubits")
    alpha = 1.5 if n == 3 else (1.0 if n == 4 else 0.5)
    el = prov.element
    zeros, ones = (0,) * n, (1,) * n
    value = el(zeros, ones).real - alpha * (1.0 - _diag(el, zeros) - _diag(el, ones))
    return _report("ntuple_class", value, params={"alpha": alpha}, tol=tol)


_WITNESS_CONSTANTS = {"ghz3": 0.75, "w3": 2.0 / 3.0}


def fidelity_witness_value(state, kind="ghz3", alpha=None, psi=None, tol=DEFAULT_TOL):
    """Fidelity-witness expectation, reported as value = F - alpha.

    value = -tr(W rho) with W = alpha*I - |psi><psi|; positive value
    certifies the witnessed property (genuine multipartite entanglement
    for the built-in ghz3/w3 witnesses).  A custom witness is given by
    alpha and a StateVector psi.
    """
    prov = as_provider(state)
    if psi is None:
        if kind not in _WITNESS_CONSTANTS:
            raise DomainError(f"unknown witness kind {kind!r}")
        alpha = _WITNESS_CONSTANTS[kind]
        psi = ghz_state(3, 2) if kind == "ghz3" else w_state(3)
    else:
        if alpha is None:
            raise DomainError("custom witnesses need an explicit alpha")
        kind = "custom"
    if psi.shape.dims != prov.shape.dims:
        raise DomainError(
            f"witness shape {psi.shape.dims} does not match state shape {prov.shape.dims}"
        )
    support = [psi.shape.decode(i) for i in np.nonzero(np.abs(psi.amp) > 1e-14)[0]]
    fidelity = 0.0
    for a in support:
        for b in support:
            fidelity += (
                psi.amplitude(a).conjugate() * prov.element(a, b) * psi.amplitude(b)
            ).real
    return _report(
        "fidelity_witness", fidelity - alpha, params={"kind": kind, "alpha": alpha}, tol=tol
    )


def mlinear_value(state, probes, tol=DEFAULT_TOL):
    """Cyclic m-linear bipartite criterion.

    probes is a list of m bipartite multi-indices (a_i, b_i); the value
    compares the cyclic transition chain prod_i <a_i b_i|rho|a_{i+1}
    b_{i+1}> against the shifted diagonal chain prod_i <a_{i+1}
    b_i|rho|a_{i+1} b_i>.  value = sqrt(Re chain) - sqrt(diagonal chain),
    non-positive for separable states; m = 2 equals the elementary
    bipartite criterion.  A negative real part under the outer root (only
    possible for m > 2) is reported as value = -sqrt(diagonal chain) with
    the negative_radicand flag set.
    """
    prov = as_provider(state)
    if prov.shape.n != 2:
        raise DomainError(f"the m-linear criterion needs n=2, got n={prov.shape.n}")
    nodes = [prov.shape.validate_index(p) for p in probes]
    m = len(nodes)
    if m < 2:
        raise DomainError("need at least two probe nodes")
    el = prov.element

    chain = complex(1.0)
    diag_chain = 1.0
    for i in range(m):
        cur, nxt = nodes[i], nodes[(i + 1) % m]
        chain *= el(cur, nxt)
        diag_chain *= _diag(el, (nxt[0], cur[1]))
    negative = chain.real < -1e-15
    value = sqrt(max(chain.real, 0.0)) - sqrt(max(diag_chain, 0.0))
    return _report(
        "mlinear", value, params={"m": m, "negative_radicand": bool(negative)}, tol=tol
    )


def rank_m_determinant(state, rows, tol=DEFAULT_TOL):
    """Determinant criterion on the minor M_st = rho_{i_s j_t, i_t j_s}.

    rows is a list of (i_a, j_a) index pairs.  For separable states M is
    a Gram matrix, hence det(M) >= 0; value = -det(M), so a positive
    value certifies entanglement.  Repeated i or j indices force the
    determinant to zero and are reported with the degenerate flag.
    """
    prov = as_provider(state)
    if prov.shape.n != 2:
        raise DomainError(f"the determinant criterion needs n=2, got n={prov.shape.n}")
    rows = [(int(i), int(j)) for i, j in rows]
    m = len(rows)
    if m < 1:
        raise DomainError("need at least one row")
    i_list = [r[0] for r in rows]
    j_list = [r[1] for r in rows]
    d1, d2 = prov.shape.dims
    if any(not 0 <= i < d1 for i in i_list) or any(not 0 <= j < d2 for j in j_list):
        raise DomainError("row indices out of range for the subsystem dimensions")
    degenerate = len(set(i_list)) < m or len(set(j_list)) < m
    if degenerate:
        return _report(
            "rank_m_det", 0.0, params={"m": m, "degenerate": True}, tol=tol
        )

    mat = np.empty((m, m), dtype=complex)
    for s in range(m):
        for t in range(m):
            mat[s, t] = prov.element((i_list[s], j_list[t]), (i_list[t], j_list[s]))
    det = np.linalg.det(mat)
    return _report(
        "rank_m_det", -det.real, params={"m": m, "degenerate": False}, tol=tol
    )


def best_computational_probe(state, limit=4096):
    """Probe pair maximising |<a|rho|b>| over per-site-distinct index pairs.

    Exhaustive search; intended for small systems (the C3 optimisation
    over general probes is out of scope, but the best computational-basis
    probe is often what an experimenter would pick after local rotations).
    """
    prov = as_provider(state)
    shape = prov.shape
    if shape.total > limit:
        raise DomainError(f"probe search over dimension {shape.total} exceeds limit {limit}")
    best = None
    best_val = -1.0
    for x in range(shape.total):
        a = shape.decode(x)
        choices = [[v for v in range(dloc) if v != a[i]] for i, dloc in enumerate(shape.dims)]
        for b in product(*choices):
            val = abs(prov.element(a, b))
            if val > best_val:
                best_val = val
                best = ProbePair(a, b)
    return best
