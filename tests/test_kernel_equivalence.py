"""The vectorised partition-sum kernel against the per-element evaluators.

The oracle_* functions below are the evaluators the kernel replaced,
kept verbatim in logic (one scalar element query at a time, partitions
as Python objects).  Every matrix-element criterion must agree with its
oracle to 1e-9 on random complex mixtures, random dense states, flipped
views, mixed local dimensions, every k from 2 to n, and a shape whose
total dimension exceeds the int64 range.  The oracles are kept for one
release as a safety net and then deleted.
"""

from itertools import combinations, product
from math import comb, sqrt

import numpy as np
import pytest

from multisep import (
    DomainError,
    MixtureProvider,
    SystemShape,
    bipartite_value,
    criteria,
    dicke_gme_value,
    family_state,
    gme_value,
    iter_bipartitions,
    iter_k_partitions,
    ksep_value,
    q0_value,
    qm_value,
    stirling2,
)
from multisep.sampling import random_density_matrix
from multisep.states import ElementProvider, FlippedProvider, as_provider

TOL = 1e-9


# ---------------------------------------------------------------------------
# Oracles: the per-element evaluators the kernel replaced
# ---------------------------------------------------------------------------


def _diag(el, mi):
    return max(el(mi, mi).real, 0.0)


def _mix(on_block, a, b, n):
    return tuple(a[i] if i in on_block else b[i] for i in range(n))


def oracle_bipartite(prov, a, b):
    el = prov.element
    return abs(el(a, b)) - sqrt(_diag(el, (a[0], b[1])) * _diag(el, (b[0], a[1])))


def oracle_gme(prov, a, b):
    n = prov.shape.n
    el = prov.element
    s = 0.0
    for part in iter_bipartitions(n):
        g = set(part.blocks[0])
        s += sqrt(_diag(el, _mix(g, a, b, n)) * _diag(el, _mix(g, b, a, n)))
    return abs(el(a, b)) - s


def oracle_ksep(prov, k, a, b):
    n = prov.shape.n
    el = prov.element
    s = 0.0
    for part in iter_k_partitions(n, k):
        prod_term = 1.0
        for block in part.blocks:
            g = set(block)
            prod_term *= _diag(el, _mix(g, a, b, n)) * _diag(el, _mix(g, b, a, n))
        s += prod_term ** (1.0 / (2.0 * k))
    return abs(el(a, b)) - s


def oracle_q0(prov):
    n = prov.shape.n
    d = prov.shape.uniform_dim
    el = prov.element
    parts = [set(p.blocks[0]) for p in iter_bipartitions(n)]
    q0 = 0.0
    for k, l in product(range(d), repeat=2):
        if k == l:
            continue
        lvec, kvec = (l,) * n, (k,) * n
        q0 += abs(el(lvec, kvec))
        for g in parts:
            q0 -= sqrt(_diag(el, _mix(g, lvec, kvec, n)) * _diag(el, _mix(g, kvec, lvec, n)))
    return q0


def _ones_at(members, n):
    return tuple(1 if i in members else 0 for i in range(n))


def _dicke_pairs(n, mu):
    for alpha in combinations(range(n), mu):
        alpha_set = set(alpha)
        rest = [y for y in range(n) if y not in alpha_set]
        for x in alpha:
            kept = alpha_set - {x}
            for y in rest:
                yield alpha_set, kept | {y}


def _flip_view(prov, m):
    n = prov.shape.n
    return (FlippedProvider(prov), n - m) if 2 * m > n else (prov, m)


def oracle_dicke(prov, m):
    n = prov.shape.n
    omega, mu = _flip_view(prov, m)
    el = omega.element
    value = 0.0
    for alpha, beta in _dicke_pairs(n, mu):
        value += abs(el(_ones_at(alpha, n), _ones_at(beta, n)))
        value -= sqrt(_diag(el, _ones_at(alpha & beta, n)) * _diag(el, _ones_at(alpha | beta, n)))
    diag_sum = sum(_diag(el, _ones_at(set(alpha), n)) for alpha in combinations(range(n), mu))
    return value - mu * (n - mu - 1) * diag_sum


def oracle_qm(prov, m, f):
    n = prov.shape.n
    omega, mu = _flip_view(prov, m)
    el = omega.element

    def level_vec(members, level):
        return tuple(level + 1 if i in members else level for i in range(n))

    total = 0.0
    for alpha, beta in _dicke_pairs(n, mu):
        for k in range(f - 1):
            total += abs(el(level_vec(alpha, k), level_vec(beta, k)))
            inter = tuple(k + 1 if (i in alpha and i in beta) else k for i in range(n))
            union = tuple(k + 1 if (i in alpha or i in beta) else k for i in range(n))
            total -= sqrt(_diag(el, inter) * _diag(el, union))
        delta_base = sorted((set(range(n)) - beta) | alpha)
        deltas = [set(c) for size in range(1, n - 1) for c in combinations(delta_base, size)]
        for k in range(f - 1):
            for l in range(k):
                cross = abs(el(level_vec(alpha, k), level_vec(beta, l)))
                for dl in deltas:
                    v1 = tuple((l + 1 if j in beta else l) if j in dl
                               else (k + 1 if j in alpha else k) for j in range(n))
                    v2 = tuple((k + 1 if j in alpha else k) if j in dl
                               else (l + 1 if j in beta else l) for j in range(n))
                    cross -= sqrt(_diag(el, v1) * _diag(el, v2))
                total += 2.0 * cross
    diag_sum = sum(_diag(el, level_vec(set(alpha), k))
                   for alpha in combinations(range(n), mu) for k in range(f - 1))
    total -= mu * (n - mu - 1) * (f - 1) * diag_sum
    return total / mu


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def random_mixture(shape, rng, terms=3, support=6):
    """Random complex sparse mixture with white noise."""
    weights = rng.dirichlet(np.ones(terms + 1))
    out = []
    for t in range(terms):
        amps = {}
        for _ in range(int(rng.integers(1, support + 1))):
            mi = tuple(int(rng.integers(0, d)) for d in shape.dims)
            amps[mi] = complex(rng.standard_normal(), rng.standard_normal())
        norm = sqrt(sum(abs(v) ** 2 for v in amps.values()))
        out.append((float(weights[t]), {k: v / norm for k, v in amps.items()}))
    noise = 1.0 - sum(w for w, _ in out)
    return MixtureProvider(shape, out, noise)


def random_probe(dims, rng):
    a = tuple(int(rng.integers(0, d)) for d in dims)
    b = tuple(int((x + rng.integers(1, d)) % d) for x, d in zip(a, dims))
    return a, b


class ScalarOnly(ElementProvider):
    """A provider that implements element() alone, as third-party ones may."""

    def __init__(self, inner):
        self.shape = inner.shape
        self._inner = inner

    def element(self, bra, ket):
        return self._inner.element(bra, ket)


def _states(rng):
    """(label, provider) pairs covering every provider kind."""
    out = [("scalar-only(3, 3, 3)", ScalarOnly(random_mixture(SystemShape((3, 3, 3)), rng)))]
    for dims in ((2, 2), (2, 2, 2), (3, 3, 3), (2, 2, 2, 2), (2, 2, 2, 2, 2), (3, 3, 3, 3),
                 (2, 3, 4), (4, 2, 3, 2)):
        shape = SystemShape(dims)
        mix = random_mixture(shape, rng)
        out.append((f"mixture{dims}", mix))
        dense = as_provider(random_density_matrix(shape, rng))
        out.append((f"dense{dims}", dense))
        if len(set(dims)) == 1:
            out.append((f"flipped-mixture{dims}", FlippedProvider(mix)))
            out.append((f"flipped-dense{dims}", FlippedProvider(dense)))
    return out


STATES = _states(np.random.default_rng(20260101))


def _close(new, old):
    assert abs(new - old) <= TOL, (new, old)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label,prov", STATES, ids=[s[0] for s in STATES])
class TestAgainstOracles:
    def test_ksep_every_k_and_gme(self, label, prov):
        rng = np.random.default_rng(len(label))
        n = prov.shape.n
        for _ in range(2):
            a, b = random_probe(prov.shape.dims, rng)
            _close(gme_value(prov, (a, b)).value, oracle_gme(prov, a, b))
            for k in range(2, n + 1):
                _close(ksep_value(prov, k, (a, b)).value, oracle_ksep(prov, k, a, b))
            if n == 2:
                _close(bipartite_value(prov, (a, b)).value, oracle_bipartite(prov, a, b))

    def test_q0_qm_dicke(self, label, prov):
        dims = prov.shape.dims
        n = len(dims)
        if len(set(dims)) > 1:
            for call in (lambda: q0_value(prov), lambda: qm_value(prov, 1),
                         lambda: dicke_gme_value(prov, 1)):
                with pytest.raises(DomainError):
                    call()
            return
        d = dims[0]
        for f in range(2, d + 1):
            _close(q0_value(prov, f=f).value, oracle_q0(prov))
            for m in range(1, n):
                _close(qm_value(prov, m, f=f).value, oracle_qm(prov, m, f))
        if d == 2:
            for m in range(1, n):
                _close(dicke_gme_value(prov, m).value, oracle_dicke(prov, m))


TINY_CHUNK_STATES = [s for s in STATES if s[0] in (
    "mixture(2, 2, 2, 2, 2)", "flipped-dense(2, 2, 2, 2, 2)", "flipped-mixture(3, 3, 3, 3)",
    "dense(3, 3, 3, 3)", "mixture(2, 3, 4)")]


@pytest.mark.parametrize("label,prov", TINY_CHUNK_STATES, ids=[s[0] for s in TINY_CHUNK_STATES])
def test_tiny_chunks_agree(label, prov, monkeypatch):
    """Batches of 4 entries force every chunked path of the kernel: split
    subset tables, row chunks, several partition-row chunks and Dicke
    subset chunks."""
    monkeypatch.setattr(criteria, "_CHUNK", 4)
    suite = TestAgainstOracles()
    suite.test_ksep_every_k_and_gme(label, prov)
    suite.test_q0_qm_dicke(label, prov)


def test_closed_forms_beyond_the_oracles():
    """ghz-iso with probe (0^n, 1^n): every mixed diagonal is pure noise,
    so ksep = alpha/2 - S(n,k)(1-alpha)/2^n; dicke-iso at f = 2:
    qm = p/(d-1) - X(1-p), X = C(n,mu)(2n-2mu-1)/d^n, dicke = mu qm."""
    alpha = 0.3
    for n, k in ((18, 2), (10, 3), (9, 4)):
        prov = family_state("ghz-iso", n=n, alpha=alpha, representation="provider")
        want = alpha / 2 - stirling2(n, k) * (1 - alpha) / 2 ** n
        assert ksep_value(prov, k, ((0,) * n, (1,) * n)).value == pytest.approx(want, abs=1e-12)
    p = 0.4
    for n, m, d in ((16, 3, 2), (20, 1, 2), (8, 2, 3), (9, 7, 3)):
        prov = family_state("dicke-iso", n=n, m=m, d=d, p=p, representation="provider")
        mu = min(m, n - m)
        x = comb(n, mu) * (2 * n - 2 * mu - 1) / d ** n
        want = p / (d - 1) - x * (1 - p)
        assert qm_value(prov, m).value == pytest.approx(want, abs=1e-12)
        if d == 2:
            assert dicke_gme_value(prov, m).value == pytest.approx(mu * want, abs=1e-12)


@pytest.mark.parametrize("label,prov", STATES, ids=[s[0] for s in STATES])
def test_batch_queries_match_scalar_element(label, prov):
    shape = prov.shape
    idx = np.arange(shape.total)
    rng = np.random.default_rng(7)
    bra = rng.integers(0, shape.total, 40)
    ket = np.concatenate([bra[:10], rng.integers(0, shape.total, 30)])
    want = [prov.element(shape.decode(i), shape.decode(j)) for i, j in zip(bra, ket)]
    assert np.allclose(prov.elements(bra, ket), want, rtol=0, atol=1e-15)
    diag = [max(prov.element(mi, mi).real, 0.0) for mi in map(shape.decode, idx)]
    assert np.allclose(prov.diagonal(idx), diag, rtol=0, atol=1e-15)


@pytest.mark.parametrize("label,prov", STATES[:8], ids=[s[0] for s in STATES[:8]])
def test_to_dense_matches_elementwise_build(label, prov):
    shape = prov.shape
    idx = [shape.decode(i) for i in range(shape.total)]
    want = np.array([[prov.element(a, b) for b in idx] for a in idx])
    assert np.allclose(prov.to_dense(validate=False).mat, want, rtol=0, atol=1e-15)


class TestBeyondInt64:
    """n = 4 sites of dimension 2^16: flat indices reach 2^64 - 1."""

    D = 2 ** 16
    SHAPE = SystemShape((D,) * 4)

    def provider(self):
        rng = np.random.default_rng(5)
        top, low = self.D - 1, self.D - 2
        # support on corners near both ends of the flat range, and on the
        # level-0/1 Dicke-type labels the qm criterion reads
        labels = [(0, 0, 0, 0), (top, top, top, top), (1, 0, 0, 0), (0, 1, 0, 0),
                  (0, 0, 1, 1), (top, 0, top, 0), (low, top, top, top), (1, 1, 0, 0),
                  (top, low, top, low)]
        terms = []
        for t in range(2):
            amps = {mi: complex(rng.standard_normal(), rng.standard_normal())
                    for mi in labels[t::2] + labels[:2]}
            norm = sqrt(sum(abs(v) ** 2 for v in amps.values()))
            terms.append((0.45, {k: v / norm for k, v in amps.items()}))
        return MixtureProvider(self.SHAPE, terms, 0.1)

    def test_index_dtype_is_exact(self):
        assert self.SHAPE.total >= 2 ** 63
        assert self.SHAPE.index_dtype is object
        w = self.SHAPE.place_values()
        top = (self.D - 1,) * 4
        assert sum(x * p for x, p in zip(top, w)) == self.SHAPE.total - 1

    def test_batch_queries(self):
        prov = self.provider()
        shape = prov.shape
        top = (self.D - 1,) * 4
        pairs = [((0, 0, 0, 0), top), (top, top), ((self.D - 2,) + top[1:], top),
                 ((1, 0, 0, 0), (1, 0, 0, 0)), ((5, 6, 7, 8), (5, 6, 7, 8))]
        bra = np.array([shape.encode(a) for a, _ in pairs], dtype=object)
        ket = np.array([shape.encode(b) for _, b in pairs], dtype=object)
        want = [prov.element(a, b) for a, b in pairs]
        assert np.allclose(prov.elements(bra, ket), want, rtol=0, atol=1e-15)
        flipped = FlippedProvider(prov)
        want = [flipped.element(a, b) for a, b in pairs]
        assert np.allclose(flipped.elements(bra, ket), want, rtol=0, atol=1e-15)

    def test_criteria(self):
        prov = self.provider()
        top = self.D - 1
        for a, b in (((0,) * 4, (top,) * 4), ((top, 0, top, 0), (0, top, 0, top)),
                     ((1, 1, 0, 0), (0, 0, 1, 1))):
            _close(gme_value(prov, (a, b)).value, oracle_gme(prov, a, b))
            for k in (2, 3, 4):
                _close(ksep_value(prov, k, (a, b)).value, oracle_ksep(prov, k, a, b))
        for m in (1, 2, 3):
            for f in (2, 3):
                _close(qm_value(prov, m, f=f).value, oracle_qm(prov, m, f))
