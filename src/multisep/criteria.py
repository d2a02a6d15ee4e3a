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
providers interchangeably.  They read elements only in batches, through
ElementProvider.elements / .diagonal on arrays of flat indices (a dense
input is read through its DenseProvider); none calls the scalar
element().  The PPT check takes a DensityMatrix or a MixtureProvider,
whose partial transpose it diagonalises on the support only, without a
dense matrix.

The partition-sum criteria (bipartite, gme, ksep, q0, qm, dicke) are
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
The index arrays of those chunks depend on the shape and the probe
only, not on the state's weights.  Each kernel builds them as a query
plan (_planned), which streams chunk by chunk for a provider without a
plan store, as `crit` and library calls have.  The providers of one
scan or threshold sweep (MixtureProvider.reweighted) share a store:
there the plan is recorded at the first point, up to _PLAN_BYTES, and
replayed at every later one, in the same chunks and fold order, so
each value is the same, bit for bit.

A scan evaluates its grid in batches of points: a provider reweighted
to P points at once has a points axis (MixtureProvider.reweighted), and
every kernel then carries that leading axis through the same plan,
chunks and fold order, reducing over trailing axes only.  So a point's
value is the float it gets alone, whatever batch it lands in, and a
criterion returns one report per point.  point_bytes bounds what one
point of a batch holds, so that a caller can size its batches.  The
single-state criteria (mlinear_value, rank_m_determinant,
best_computational_probe) refuse a batch.

Probe states are computational-basis product multi-indices; the basis
freedom of the underlying inequalities is realised by conjugating the
state with local unitaries (tensor.apply_local_unitaries) before
evaluation, which is equivalent to rotating the probe.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations, islice
from math import prod, sqrt
from types import GeneratorType

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
from .states import (
    FlippedProvider,
    MixtureProvider,
    as_provider,
    ghz_state,
    single_state,
    w_state,
)
from .tensor import (
    DensityMatrix,
    _check_block,
    _check_dense_bytes,
    hermitian_spectrum,
    partial_transpose,
)

DEFAULT_TOL = 1e-10

# Largest number of entries in one batch of the partition-sum kernel.
# Batches this small keep the kernel's temporaries near 1 MiB at no
# measurable cost in speed.
_CHUNK = 1 << 12

# Largest size in bytes of one recorded query plan (see _planned): the
# index arrays of, e.g., a gme sum over 2^19 bipartitions.  A larger
# plan is not kept, and its kernel streams as without a plan store.
_PLAN_BYTES = 1 << 24


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


def _sum(x):
    """Sum over the last axis.  NumPy sums a contiguous 1-D array
    pairwise, but a reduction over the last axis of a batch may run in
    another order, depending on the layout that indexing left; so each
    row is summed from a C-contiguous copy, as a single state's 1-D array
    is, and gets the same float."""
    return np.ascontiguousarray(x).sum(axis=-1)


def _root_product(x, y):
    """sqrt(x y) elementwise, taken in place in the product, which a
    batch of points makes P times as large."""
    out = x * y
    return np.sqrt(out, out=out)


def _reports(prov, value, report):
    """report(v) of the criterion value v of a single state, or the list
    of report(v) at each point of prov's points axis."""
    if prov.points is None:
        return report(float(value))
    return [report(v) for v in np.asarray(value, dtype=float).reshape(prov.lead).tolist()]


def point_bytes(prov, block=None):
    """Bytes one point of a batch of prov's mixture holds at its peak in
    a criterion, at most, whatever the weights: its rows of the stacked
    tables of MixtureProvider.reweighted, K (16 T + 8) over the K - 1
    support indices of all T terms, plus a full _CHUNK kernel batch with
    its temporaries, or with `block` the 48 |S|^2 of ppt_check on it,
    |S| <= min(s, D / D_B) min(s, D_B) for s = K - 1 support indices.
    """
    terms = len(prov.terms)
    support = sum(len(amps) for _, amps in prov.terms)
    tables = (support + 1) * (16 * terms + 8)
    if block is None:
        return tables + _CHUNK * (32 * terms + 48)
    block_dim = prod(prov.shape.dims[i] for i in _check_block(block, prov.shape.n))
    size = min(support, prov.shape.total // block_dim) * min(support, block_dim)
    return tables + 48 * size ** 2


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


def _subset_batches(lo, hi, steps, proper):
    """Batches (row slice, flat indices) of _subset_root_sum: per row r,
    every non-empty subset S of the row's sites (proper subsets only if
    `proper`), as the pair [lo[r] + s, hi[r] - s], s the sum of steps[r, S].

    Subset sums are tabulated over the first log2(_CHUNK) sites and
    combined with one subset of the remaining sites at a time, in row
    chunks, so that no batch exceeds _CHUNK entries.
    """
    rows, m = steps.shape
    n_low = min(m, _CHUNK.bit_length() - 1)
    n_high = 1 << (m - n_low)
    step = max(1, _CHUNK >> n_low)
    for r in range(0, rows, step):
        block = slice(r, r + step)
        low = _subset_sums(steps[block, :n_low])
        high = _subset_sums(steps[block, n_low:])
        for h in range(n_high):
            # the empty subset is column 0 of h = 0, the full one the last of the last h
            s = low[:, int(h == 0):low.shape[1] - int(proper and h == n_high - 1)]
            s = s + high[:, h, None]
            yield block, np.stack([lo[block, None] + s, hi[block, None] - s])


def _subset_root_sum(prov, batches, rows):
    """Per row (the last axis, after prov's points axis), the sum of
    sqrt(D(x) D(y)) over the pairs [x, y] of its _subset_batches,
    D = prov.diagonal."""
    out = np.zeros(prov.lead + (rows,))
    for block, flat in batches:
        diag = prov.diagonal(flat)
        out[..., block] += _sum(_root_product(diag[..., 0, :, :], diag[..., 1, :, :]))
    return out


def _block_batches(lo, hi, steps, k, cap):
    """Batches (flat indices) of _block_root_sum: per k-partition P of
    the sites, its k pairs [lo + s_g, hi - s_g], s_g the sum of steps[g]
    over block g of P."""
    n = len(steps)
    for rgs in k_partition_rows(n, k, cap=cap, rows=max(1, _CHUNK // k)):
        rows = np.arange(len(rgs))
        sums = np.zeros((len(rgs), k), dtype=steps.dtype)
        for i in range(n):
            sums[rows, rgs[:, i]] += steps[i]
        yield np.stack([lo + sums, hi - sums])


def _block_root_sum(prov, batches, k):
    """Sum over the k-partitions P of _block_batches of
    prod_{g in P} (D(lo + s_g) D(hi - s_g))^(1/2k), D = prov.diagonal,
    one per point of prov's points axis."""
    total = np.zeros(prov.lead)
    for flat in batches:
        diag = prov.diagonal(flat)
        terms = (diag[..., 0, :, :] * diag[..., 1, :, :]).prod(axis=-1)
        total = total + _sum(terms ** (1.0 / (2 * k)))
    return total


class _OverBudget(Exception):
    pass


def _recorded(item, left):
    """(item with every generator in it expanded to a list and every
    array made read-only, `left` less the bytes of those arrays), or
    _OverBudget once that would be negative."""
    if isinstance(item, np.ndarray):
        left -= item.nbytes
        if left < 0:
            raise _OverBudget
        item.flags.writeable = False
        return item, left
    if isinstance(item, (tuple, GeneratorType)):
        out = []
        for x in item:
            x, left = _recorded(x, left)
            out.append(x)
        return (tuple(out) if isinstance(item, tuple) else out), left
    return item, left


def _planned(prov, key, batches):
    """The query plan batches() builds for key: the flat indices a kernel
    passes to prov.elements / prov.diagonal, in order.

    A provider without a plan store (prov.plans is None) gets the
    batches as they are built, chunk by chunk.  Otherwise the first call
    records them in the store and later calls replay the record, so a
    sweep builds its index arrays once; a plan that passes _PLAN_BYTES is
    not kept, and streams at every call.
    """
    plans = prov.plans
    if plans is None:
        return batches()
    if key not in plans:
        try:
            plans[key] = _recorded(batches(), _PLAN_BYTES)[0]
        except _OverBudget:
            plans[key] = None
    return batches() if plans[key] is None else plans[key]


def _probe_batches(shape, a, b, k, cap):
    """(flat a, flat b, batches) of _probe_terms: the batches of
    _subset_batches at k = 2, else per row those of _block_batches.

    Site i's step (a_i - b_i) w_i moves it from b's label to a's, so
    a_g b_rest sits at flat(b) + s_g and b_g a_rest at flat(a) - s_g.
    The probes are checked against the shape here, so once per plan.
    """
    flat_a, flat_b = shape.encode_rows(a), shape.encode_rows(b)
    n = shape.n
    w = shape.place_values()
    steps = (np.asarray(a, dtype=w.dtype) - np.asarray(b, dtype=w.dtype)).reshape(-1, n) * w
    if k == 2:
        partition_count(n, 2, cap)
        # The bipartition {g, rest} with site 0 in rest is the non-empty
        # subset g of sites 1..n-1; g and rest contribute the same factor,
        # so the term is sqrt(D+ D-).
        return flat_a, flat_b, _subset_batches(flat_b, flat_a, steps[:, 1:], proper=False)
    return flat_a, flat_b, (_block_batches(lo, hi, st, k, cap)
                            for lo, hi, st in zip(flat_b, flat_a, steps))


def _probe_terms(prov, a, b, k, cap):
    """(|rho_ab|, partition sum) for each pair of rows of a, b, tuples
    of label tuples, on the last axis after prov's points axis.

    The partition sum runs over the k-partitions of the sites of
    prod_g (D(a_g b_rest) D(b_g a_rest))^(1/2k).
    """
    flat_a, flat_b, batches = _planned(prov, ("probe", a, b, k, cap),
                                       lambda: _probe_batches(prov.shape, a, b, k, cap))
    off = np.abs(prov.elements(flat_a, flat_b))
    if k == 2:
        return off, _subset_root_sum(prov, batches, len(flat_a))
    # (rows,) + lead, transposed: the points axis is at most one axis
    return off, np.array([_block_root_sum(prov, row, k) for row in batches]).T


def _dicke_batches(shape, m, f):
    """Batches of _dicke_total, one per chunk of alpha subsets and level
    k: (the pair (A, A - x + y), the diagonals at A - x and at A + y, the
    diagonals at l_k(alpha), and per level l < k the cross pair (A, B)
    with its _subset_batches), A = l_k(alpha) and B = l_l(beta)."""
    n = shape.n
    mu = min(m, n - m)
    w = shape.place_values()
    level = w.sum()         # flat-index shift raising every label by one
    per_chunk = max(1, _CHUNK // (mu * (n - mu)))
    subsets = combinations(range(n), mu)
    while True:
        alpha = np.array(list(islice(subsets, per_chunk)), dtype=np.intp).reshape(-1, mu)
        if not len(alpha):
            return
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

        def crosses(k, flat_a, ea=ea, x=x, wx=wx, wy=wy, pairs=pairs, not_y=not_y):
            for l in range(k):
                flat_b = l * level + ea - wx + wy
                steps = np.broadcast_to((l - k) * w, (len(x), n)).copy()
                steps[pairs, x] -= wx
                yield flat_a, flat_b, _subset_batches(
                    flat_a, flat_b, steps[not_y].reshape(len(x), n - 1), proper=True)

        for k in range(f - 1):
            flat_a = k * level + ea
            yield ((flat_a, flat_a - wx + wy), flat_a - wx, flat_a + wy, k * level + e_alpha,
                   crosses(k, flat_a))


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
    is evaluated on the flipped state |j> -> |d-1-j> at mu = n - m.  One
    total per point of prov's points axis.
    """
    n = prov.shape.n
    mu = min(m, n - m)
    omega = FlippedProvider(prov) if 2 * m > n else prov
    total = diag_sum = 0.0
    for pair, lower, upper, diag, crosses in _planned(
            prov, ("dicke", m, f), lambda: _dicke_batches(prov.shape, m, f)):
        total += _sum(np.abs(omega.elements(*pair)))
        total -= _sum(_root_product(omega.diagonal(lower), omega.diagonal(upper)))
        diag_sum += _sum(omega.diagonal(diag))
        for flat_a, flat_b, batches in crosses:
            cross = np.abs(omega.elements(flat_a, flat_b)) - _subset_root_sum(
                omega, batches, len(flat_a))
            total += 2.0 * _sum(cross)
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


def ppt_check(state, block, tol=DEFAULT_TOL):
    """Negativity test under partial transposition of the given block.

    value = -(minimal eigenvalue of rho^{T_block}); positive value means
    NPT, hence entangled across the cut.  A DensityMatrix is transposed
    and diagonalised whole.  A MixtureProvider, L + w_noise I/D with L on
    s support indices, never is: L^{T_block} vanishes off a set S of
    |S| >= s indices, the off-block digit patterns of the support times
    its block patterns (MixtureProvider.transpose_support), so
    lambda_min = w_noise/D + min(lambda_min(L^{T_block} on S), 0 if
    |S| < D).  Either way the step holds the transpose and the conjugate
    and difference of hermitian_spectrum's Hermiticity check, 48 D^2 or
    48 |S|^2 bytes, checked against the dense budget before the
    transpose is built (ResourceError above it), so |S| <= 6688.  S and
    its scatter index depend on the support only: the providers of a
    sweep keep them in their plan store, per block and set of live
    terms.  A MixtureProvider with a points axis shares them over the
    batch, and its P blocks are diagonalised in one stacked call; it
    counts 48 |S|^2 bytes a point.
    """
    if isinstance(state, DensityMatrix):
        total = state.shape.total
        _check_dense_bytes(48 * total ** 2,
                           f"the partial transpose of a dense {total} x {total} state")
        least = hermitian_spectrum(partial_transpose(state, block))[0]
        return _report("ppt", -least, params={"block": sorted(int(b) for b in block)},
                       tol=tol)
    if not isinstance(state, MixtureProvider):
        raise DomainError(
            f"ppt_check needs a DensityMatrix or a MixtureProvider, got {type(state).__name__}")
    block = _check_block(block, state.shape.n)
    params = {"block": block}
    support, low_rank = state.low_rank_partial_transpose(block, _planned(
        state, ("ppt", tuple(block), state.live), lambda: state.transpose_support(block)))
    total = state.shape.total
    least = hermitian_spectrum(low_rank)[..., 0] if len(support) else np.zeros(state.lead)
    if len(support) < total:
        least = np.where(0.0 < least, 0.0, least)  # min(least, 0.0), signed zeros included
    least = least + state.noise_weight / float(total)
    return _reports(state, -least, lambda v: _report("ppt", v, params=params, tol=tol))


def _probe_value(state, k, probe, cap):
    """Checked (provider, probe, |rho_ab|, k-partition sum) of a
    single-probe criterion, the last two per point."""
    prov = as_provider(state)
    n = prov.shape.n
    if not 2 <= k <= n:
        raise DomainError(f"k must satisfy 2 <= k <= n, got k={k}, n={n}")
    probe = _coerce_probe(probe)  # checked against the shape with its plan
    off, s = _probe_terms(prov, (probe.a,), (probe.b,), k, cap)
    return prov, probe, off[..., 0], s[..., 0]


def bipartite_value(state, probe, tol=DEFAULT_TOL):
    """Elementary bipartite criterion: |rho_ab| vs the cross diagonals.

    value = |<a|rho|b>| - sqrt(<a1 b2|rho|a1 b2> <b1 a2|rho|b1 a2>);
    non-positive for every separable bipartite state.  This is the gme
    criterion at n = 2.
    """
    prov = as_provider(state)
    if prov.shape.n != 2:
        raise DomainError(f"bipartite criterion needs n=2, got n={prov.shape.n}")
    prov, probe, off, s = _probe_value(prov, 2, probe, DEFAULT_ENUMERATION_CAP)
    return _reports(prov, off - s, lambda v: _report("bipartite", v, probe=probe, tol=tol))


def gme_value(state, probe, tol=DEFAULT_TOL, cap=DEFAULT_ENUMERATION_CAP):
    """Genuine-multipartite-entanglement criterion.

    value = |<a|rho|b>| - sum over bipartitions gamma of
    sqrt(<a_g b_rest| . |a_g b_rest> <b_g a_rest| . |b_g a_rest>);
    non-positive for every biseparable state, so a positive value
    certifies genuine multipartite entanglement.  This is ksep_value at
    k = 2; for n = 2 it reduces to the bipartite criterion.
    """
    prov, probe, off, s = _probe_value(state, 2, probe, cap)
    return _reports(prov, off - s, lambda v: _report("gme", v, probe=probe, tol=tol))


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
    prov, probe, off, s = _probe_value(state, k, probe, cap)
    if doubled_first_term:
        off = 2.0 * off
    params = {"k": int(k), "doubled_first_term": bool(doubled_first_term)}
    return _reports(prov, off - s,
                      lambda v: _report("ksep", v, params=params, probe=probe, tol=tol))


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
    return _reports(prov, _dicke_total(prov, m, 2),
                      lambda v: _report("dicke_gme", v, params={"m": int(m)}, tol=tol))


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
        others = tuple((k,) * n for k in range(d) if k != l)
        off, s = _probe_terms(prov, ((l,) * n,) * (d - 1), others, 2, cap)
        q0 += _sum(off - s)
    return _reports(prov, q0, lambda v: _report(
        "q0", v, params={"d": d, "f": int(f), "detected_f": _detected_f(v, d, tol)},
        tol=(f - 2) + tol,
    ))


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
    return _reports(prov, value, lambda v: _report(
        "qm", v,
        params={"m": int(m), "d": d, "f": int(f), "detected_f": _detected_f(v, d, tol)},
        tol=(f - 2) + tol,
    ))


def double_class_value(state, tol=DEFAULT_TOL):
    """Exclusion inequality for the two-term (GHZ-like) superposition class.

    Non-positive for every state in the class, biseparable states
    included; violation excludes membership.
    """
    prov = as_provider(state)
    n = prov.shape.n
    if prov.shape.uniform_dim != 2 or n < 3:
        raise DomainError("the class inequalities are defined for n >= 3 qubits")
    # flat indices: w[i] is the single excitation at site i, and the
    # complement of x is top - x
    w = prov.shape.place_values()
    top = prov.shape.total - 1
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    pairs = w[i] + w[j]
    off = prov.elements(w[i], w[j]) + (-1.0) ** (n + 1) * prov.elements(top - w[i], top - w[j])
    total = (_sum(off.real)
             - (n - 2) * _sum(prov.diagonal(np.concatenate([w, top - w])))
             - _sum(prov.diagonal(np.concatenate([pairs, top - pairs])))
             - n * (n - 1) / 2 * _sum(prov.diagonal(np.array([0, top]))))
    return _reports(prov, total, lambda v: _report("double_class", v, tol=tol))


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
    top = prov.shape.total - 1
    value = (prov.elements(0, top).real
             - alpha * (1.0 - _sum(prov.diagonal(np.array([0, top])))))
    return _reports(prov, value,
                      lambda v: _report("ntuple_class", v, params={"alpha": alpha}, tol=tol))


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
    support = np.flatnonzero(np.abs(psi.amp) > 1e-14)
    amp = psi.amp[support]
    block = prov.elements(support[:, None], support[None, :])
    # summed over each point's flattened block, as a single state's
    fidelity = _sum((amp.conj()[:, None] * block * amp[None, :]).real.reshape(
        prov.lead + (-1,)))
    return _reports(prov, fidelity - alpha, lambda v: _report(
        "fidelity_witness", v, params={"kind": kind, "alpha": alpha}, tol=tol))


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
    single_state(prov, "the m-linear criterion")
    if prov.shape.n != 2:
        raise DomainError(f"the m-linear criterion needs n=2, got n={prov.shape.n}")
    nodes = np.array([prov.shape.validate_index(p) for p in probes]).reshape(-1, 2)
    m = len(nodes)
    if m < 2:
        raise DomainError("need at least two probe nodes")
    nxt = np.roll(nodes, -1, axis=0)
    w = prov.shape.place_values()
    chain = complex(np.prod(prov.elements(nodes @ w, nxt @ w)))
    diag_chain = float(np.prod(prov.diagonal(nxt[:, 0] * w[0] + nodes[:, 1] * w[1])))
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
    single_state(prov, "the determinant criterion")
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

    w = prov.shape.place_values()
    i, j = np.array(i_list) * w[0], np.array(j_list) * w[1]
    det = np.linalg.det(prov.elements(i[:, None] + j[None, :], i[None, :] + j[:, None]))
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
    single_state(prov, "the probe search")
    shape = prov.shape
    if shape.total > limit:
        raise DomainError(f"probe search over dimension {shape.total} exceeds limit {limit}")
    best = None
    best_val = -1.0
    for x in range(shape.total):
        a = shape.decode(x)
        choices = [[v for v in range(dloc) if v != a[i]] for i, dloc in enumerate(shape.dims)]
        # every b in product(*choices) order, as flat indices
        flat_b = np.ravel_multi_index(np.ix_(*choices), shape.dims).ravel()
        vals = prov.elements(x, flat_b)
        vals = np.hypot(vals.real, vals.imag)  # abs() to the last bit, unlike np.abs
        k = int(np.argmax(vals))  # the first of equal maxima, as in scan order
        if vals[k] > best_val:
            best_val = vals[k]
            best = ProbePair(a, shape.decode(flat_b[k]))
    return best
