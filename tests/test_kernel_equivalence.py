"""The vectorised partition-sum kernel against the recorded outputs of the
per-element evaluators it replaced.

Those evaluators queried one scalar element at a time and walked the
partitions as Python objects.  Their values on the fixed, seeded inputs
below (random complex mixtures, random dense states, flipped views,
mixed local dimensions, every k from 2 to n, and a shape whose total
dimension exceeds the int64 range) are pinned in pins/kernel.json, and
every matrix-element criterion must reproduce them to 1e-9, also when
batches of 4 entries force every chunked path of the kernel.
"""

import json
from math import sqrt
from pathlib import Path

import numpy as np
import pytest

from multisep import (
    DomainError,
    MixtureProvider,
    SystemShape,
    bipartite_value,
    criteria,
    dicke_gme_value,
    gme_value,
    ksep_value,
    q0_value,
    qm_value,
)
from multisep.sampling import random_density_matrix
from multisep.states import ElementProvider, FlippedProvider, as_provider

TOL = 1e-9
PINS = json.loads((Path(__file__).parent / "pins" / "kernel.json").read_text())


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
    """A provider that implements element() alone, as third-party ones may;
    the kernel reads it through ElementProvider's scalar fallback."""

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


def _close(new, pinned):
    assert abs(new - pinned) <= TOL, (new, pinned)


# ---------------------------------------------------------------------------
# Tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("label,prov", STATES, ids=[s[0] for s in STATES])
class TestAgainstOracles:
    def test_ksep_every_k_and_gme(self, label, prov):
        rng = np.random.default_rng(len(label))
        n = prov.shape.n
        for pins in PINS["ksep_and_gme"][label]:
            a, b = random_probe(prov.shape.dims, rng)
            _close(gme_value(prov, (a, b)).value, pins["gme"])
            for k, pinned in zip(range(2, n + 1), pins["ksep"], strict=True):
                _close(ksep_value(prov, k, (a, b)).value, pinned)
            if n == 2:
                _close(bipartite_value(prov, (a, b)).value, pins["bipartite"])

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
        pins = PINS["q0_qm_dicke"][label]
        for f in range(2, d + 1):
            _close(q0_value(prov, f=f).value, pins["q0"])
            for m, pinned in zip(range(1, n), pins["qm"][str(f)], strict=True):
                _close(qm_value(prov, m, f=f).value, pinned)
        if d == 2:
            for m, pinned in zip(range(1, n), pins["dicke"], strict=True):
                _close(dicke_gme_value(prov, m).value, pinned)


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
        pins = PINS["beyond_int64"]
        probes = (((0,) * 4, (top,) * 4), ((top, 0, top, 0), (0, top, 0, top)),
                  ((1, 1, 0, 0), (0, 0, 1, 1)))
        for (a, b), pinned in zip(probes, pins["probes"], strict=True):
            _close(gme_value(prov, (a, b)).value, pinned["gme"])
            for k, want in zip((2, 3, 4), pinned["ksep"], strict=True):
                _close(ksep_value(prov, k, (a, b)).value, want)
        for f in (2, 3):
            for m, want in zip((1, 2, 3), pins["qm"][str(f)], strict=True):
                _close(qm_value(prov, m, f=f).value, want)
